//! Injected-fault testing of the resilience stack (`--features faults`).
//!
//! Every test here arms one or more of the engine's named failpoints (see
//! `xic_telemetry::faults`) and asserts the recover-or-reject contract:
//! after any injected fault the engine either absorbed it (transparent
//! retry), contained it (one quarantined document, everything else
//! unaffected), or rejected it with a structured error — **never a wrong
//! verdict and never a process abort**.
//!
//! The failpoint table is process-global and the production names
//! (`batch.doc`, `corpus.apply`, `journal.*`, …) are hit by every engine
//! call, so these tests serialize on one mutex: a failpoint armed by a
//! parallel test must never leak into another scenario.

#![cfg(feature = "faults")]

use std::path::PathBuf;
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};

use proptest::prelude::*;
use xic_engine::{
    BatchDoc, BatchEngine, BatchReport, CompiledSpec, CorpusSession, DocFault, Engine,
    SessionError, Transition,
};
use xic_telemetry::faults::{self, FaultMode};
use xic_telemetry::MetricsRegistry;
use xic_xml::{EditOp, NodeId};

const SCHOOL_DTD: &str = "<!ELEMENT school (teacher*)>\n\
     <!ELEMENT teacher EMPTY>\n\
     <!ATTLIST teacher name CDATA #REQUIRED>";

const CLEAN_DOC: &str = "<school><teacher name=\"Joe\"/></school>";

fn school_spec() -> CompiledSpec {
    CompiledSpec::from_sources(SCHOOL_DTD, Some("school"), "teacher.name -> teacher").unwrap()
}

/// Serializes fault-armed tests and clears the global failpoint table on
/// entry, so a scenario never sees a failpoint armed by its predecessor
/// (even one that failed mid-test).
fn serial() -> MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    let guard = LOCK
        .get_or_init(|| Mutex::new(()))
        .lock()
        .unwrap_or_else(PoisonError::into_inner);
    faults::reset();
    guard
}

/// Runs `f` with the default panic hook silenced: the contained panics
/// these tests inject would otherwise spray backtraces over the output.
fn quiet_panics<T>(f: impl FnOnce() -> T) -> T {
    let prev = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let result = f();
    std::panic::set_hook(prev);
    result
}

/// A per-test temp path (removed at the start so reruns start clean).
fn temp_log(name: &str) -> PathBuf {
    let mut path = std::env::temp_dir();
    path.push(format!("xic-fault-{}-{name}.xicj", std::process::id()));
    let _ = std::fs::remove_file(&path);
    path
}

/// In a session over [`CLEAN_DOC`], node 1 is the only `teacher` element.
fn set_name(spec: &CompiledSpec, value: &str) -> EditOp {
    EditOp::SetAttr {
        element: NodeId(1),
        attr: spec.dtd().attr_by_name("name").unwrap(),
        value: value.to_string(),
    }
}

/// The PR's acceptance scenario: a batch with one injected panicking
/// document completes with that document Faulted and every other report
/// byte-identical to a fault-free run.
#[test]
fn batch_panic_quarantines_one_doc_and_leaves_others_byte_identical() {
    let _guard = serial();
    let spec = school_spec();
    let docs = vec![
        BatchDoc::new("clean.xml", CLEAN_DOC),
        BatchDoc::new(
            "dup.xml",
            "<school><teacher name=\"Joe\"/><teacher name=\"Joe\"/></school>",
        ),
        BatchDoc::new("broken.xml", "<school><teacher name=\"Joe\"/>"),
        BatchDoc::new("clean2.xml", "<school><teacher name=\"Ann\"/></school>"),
    ];
    // One worker: documents are processed in submission order, so Nth(2)
    // deterministically fells `dup.xml` and nothing else.
    let engine = BatchEngine::new(1);
    let baseline = engine.validate_batch(&spec, &docs);
    assert_eq!(baseline.panicked_count(), 0);

    faults::configure("batch.doc", FaultMode::Nth(2));
    let faulted = quiet_panics(|| engine.validate_batch(&spec, &docs));
    faults::disarm("batch.doc");

    assert_eq!(faulted.total(), baseline.total());
    assert_eq!(faulted.panicked_count(), 1);
    let bad = &faulted.reports()[1];
    assert!(bad.is_panicked(), "{bad:?}");
    assert!(
        bad.fault
            .as_ref()
            .unwrap()
            .cause()
            .contains("injected fault: batch.doc"),
        "{bad:?}"
    );
    for i in [0, 2, 3] {
        assert_eq!(
            faulted.reports()[i],
            baseline.reports()[i],
            "report {i} must be byte-identical to the fault-free run"
        );
    }
}

/// A panic mid-apply quarantines one document of three: it is reported as
/// a `DocFault::Panic` transition, the other two commit exactly what a
/// fault-free run commits, and `recover` replays the recorded history,
/// heals the report at the following commit and reopens the document to
/// edits.
#[test]
fn poisoned_apply_is_a_reported_fault_and_heals_after_recover() {
    let _guard = serial();
    let spec = school_spec();
    let docs = [
        ("a.xml", CLEAN_DOC),
        ("b.xml", "<school><teacher name=\"Ann\"/></school>"),
        ("c.xml", "<school><teacher name=\"Sue\"/></school>"),
    ];
    let open_all = |corpus: &mut CorpusSession<'_>| {
        let handles: Vec<_> = docs
            .iter()
            .map(|(label, source)| corpus.open_source(*label, source).unwrap())
            .collect();
        corpus.commit();
        for &h in &handles {
            corpus.apply(h, &[set_name(&spec, "Zed")]).unwrap();
        }
        handles
    };
    let mut baseline = CorpusSession::new(&spec);
    let handles = open_all(&mut baseline);
    for &h in &handles {
        baseline.apply(h, &[set_name(&spec, "Kim")]).unwrap();
    }
    baseline.commit();
    let expected = baseline.report();

    let mut corpus = CorpusSession::new(&spec);
    let handles = open_all(&mut corpus);
    let (a, b, c) = (handles[0], handles[1], handles[2]);
    corpus.apply(a, &[set_name(&spec, "Kim")]).unwrap();
    faults::configure("corpus.apply", FaultMode::Nth(1));
    let err = quiet_panics(|| corpus.apply(b, &[set_name(&spec, "Kim")])).unwrap_err();
    faults::disarm("corpus.apply");
    assert!(
        matches!(err, SessionError::Poisoned { handle, .. } if handle == b),
        "{err}"
    );
    corpus.apply(c, &[set_name(&spec, "Kim")]).unwrap();

    // Only b is quarantined: its edits and verdicts are refused, with no
    // failpoint armed any more.
    assert!(corpus.is_poisoned(b).unwrap());
    assert!(!corpus.is_poisoned(a).unwrap() && !corpus.is_poisoned(c).unwrap());
    assert!(matches!(
        corpus.apply(b, &[set_name(&spec, "Eve")]),
        Err(SessionError::Poisoned { .. })
    ));
    assert!(matches!(
        corpus.verdict(b),
        Err(SessionError::Poisoned { .. })
    ));

    let delta = corpus.commit();
    let report = corpus.report();
    for i in [0, 2] {
        assert_eq!(
            report.reports()[i],
            expected.reports()[i],
            "report {i} must be byte-identical to the fault-free run"
        );
    }
    let change = delta.changes.iter().find(|c| c.handle == b).unwrap();
    assert_eq!(change.transition(), Transition::ToViolating);
    assert!(
        matches!(&change.report.fault, Some(DocFault::Panic { cause }) if cause.contains("injected fault: corpus.apply")),
        "{:?}",
        change.report
    );
    assert_eq!(report.panicked_count(), 1);

    // Recovery replays exactly the recorded history — the "Zed" rename,
    // not the poisoned "Kim" batch — and the next commit heals the report.
    let name = spec.dtd().attr_by_name("name").unwrap();
    let verdict = corpus.recover(b).unwrap();
    assert!(verdict.is_clean());
    assert_eq!(verdict.edits_applied(), 1);
    assert!(!corpus.is_poisoned(b).unwrap());
    assert_eq!(
        corpus.tree(b).unwrap().attr_value(NodeId(1), name),
        Some("Zed")
    );
    let delta = corpus.commit();
    let change = delta.changes.iter().find(|c| c.handle == b).unwrap();
    assert_eq!(change.transition(), Transition::ToClean);
    assert!(change.report.fault.is_none(), "{:?}", change.report);
    assert_eq!(corpus.report().panicked_count(), 0);

    // And the document accepts edits again.
    corpus.apply(b, &[set_name(&spec, "Kim")]).unwrap();
    assert_eq!(
        corpus.tree(b).unwrap().attr_value(NodeId(1), name),
        Some("Kim")
    );
}

#[test]
fn corpus_recheck_panic_retries_then_quarantines_then_heals() {
    let _guard = serial();
    let spec = school_spec();
    let mut corpus = CorpusSession::new(&spec);
    let h = corpus.open_source("a.xml", CLEAN_DOC).unwrap();
    corpus.commit();

    // One transient panic: the recheck retries after an index rebuild and
    // the commit still produces a verdict.
    corpus.apply(h, &[set_name(&spec, "Ann")]).unwrap();
    faults::configure("corpus.recheck", FaultMode::Nth(1));
    quiet_panics(|| corpus.commit());
    faults::disarm("corpus.recheck");
    let report = corpus.report();
    assert_eq!(
        report.panicked_count(),
        0,
        "one panic must be absorbed by the retry"
    );
    assert!(report.reports()[0].is_clean());

    // A persistent panic (the retry fires too) quarantines the document
    // instead of taking the commit down.
    corpus.apply(h, &[set_name(&spec, "Bob")]).unwrap();
    faults::configure(
        "corpus.recheck",
        FaultMode::Probability {
            seed: 1,
            permille: 1000,
        },
    );
    let delta = quiet_panics(|| corpus.commit());
    faults::disarm("corpus.recheck");
    let change = delta
        .changes
        .iter()
        .find(|c| c.handle == h)
        .expect("the fault is a reported transition");
    assert!(
        matches!(change.report.fault, Some(DocFault::Panic { .. })),
        "{:?}",
        change.report
    );

    // Once the panic source is gone, the next commit heals the verdict.
    corpus.apply(h, &[set_name(&spec, "Eve")]).unwrap();
    let delta = corpus.commit();
    let change = delta.changes.iter().find(|c| c.handle == h).unwrap();
    assert!(change.report.fault.is_none(), "{:?}", change.report);
    assert!(corpus.report().reports()[0].is_clean());
}

/// A cold `validate_trees` over the corpus's current trees.
fn cold_rebuild(spec: &CompiledSpec, corpus: &CorpusSession<'_>) -> BatchReport {
    let docs: Vec<_> = corpus
        .handles()
        .map(|h| (corpus.label(h).unwrap(), corpus.tree(h).unwrap()))
        .collect();
    BatchEngine::new(1).validate_trees(spec, &docs)
}

/// Whole-document `T ⊨ D` validations the corpus has run so far.
fn full_validations(corpus: &CorpusSession<'_>) -> u64 {
    let snapshot = corpus.registry().snapshot();
    snapshot.counter("corpus.validate_full").unwrap_or(0)
}

/// The incremental `T ⊨ D` path never reuses structural errors a failed
/// recheck did not derive: a retried recheck after a structure-breaking
/// edit, and a value-only edit after a quarantining recheck, both report
/// exactly what a cold rebuild does.
#[test]
fn recheck_panics_never_leave_stale_structural_errors() {
    let _guard = serial();
    let spec = school_spec();
    let mut corpus = CorpusSession::with_registry(&spec, Arc::new(MetricsRegistry::new()));
    let h = corpus.open_source("a.xml", CLEAN_DOC).unwrap();
    corpus.commit();
    let root = corpus.tree(h).unwrap().root();

    // Text under `school` breaks its content model; the first recheck
    // attempt panics and the retry must still derive the error.
    corpus
        .apply(
            h,
            &[EditOp::AddText {
                parent: root,
                value: "stray".into(),
            }],
        )
        .unwrap();
    faults::configure("corpus.recheck", FaultMode::Nth(1));
    quiet_panics(|| corpus.commit());
    faults::disarm("corpus.recheck");
    let report = corpus.report();
    assert_eq!(report, cold_rebuild(&spec, &corpus));
    assert_eq!(report.reports()[0].validation_errors.len(), 1);

    // A quarantining recheck (both attempts panic) reports a fault with no
    // structural errors; the following value-only edit must re-derive
    // them instead of reusing the fault report's empty list.
    corpus.apply(h, &[set_name(&spec, "Bob")]).unwrap();
    faults::configure(
        "corpus.recheck",
        FaultMode::Probability {
            seed: 1,
            permille: 1000,
        },
    );
    quiet_panics(|| corpus.commit());
    faults::disarm("corpus.recheck");
    assert_eq!(corpus.report().panicked_count(), 1);
    corpus.apply(h, &[set_name(&spec, "Eve")]).unwrap();
    corpus.commit();
    let report = corpus.report();
    assert_eq!(report, cold_rebuild(&spec, &corpus));
    assert_eq!(report.reports()[0].validation_errors.len(), 1);
}

/// After a contained `corpus.apply` panic, `recover` rebuilds the tree, so
/// the next commit validates the whole document instead of reusing the
/// structural errors of the last report — even when every edit recorded
/// since that report only replaced a value.
#[test]
fn commit_after_recover_validates_the_whole_document() {
    let _guard = serial();
    let spec = school_spec();
    let mut corpus = CorpusSession::with_registry(&spec, Arc::new(MetricsRegistry::new()));
    let h = corpus.open_source("a.xml", CLEAN_DOC).unwrap();
    let root = corpus.tree(h).unwrap().root();
    let teacher = spec.dtd().type_by_name("teacher").unwrap();
    // A teacher without `name`: one structural error, committed.
    corpus
        .apply(
            h,
            &[EditOp::AddElement {
                parent: root,
                ty: teacher,
            }],
        )
        .unwrap();
    corpus.commit();
    corpus.apply(h, &[set_name(&spec, "Ann")]).unwrap();
    faults::configure("corpus.apply", FaultMode::Nth(1));
    let err = quiet_panics(|| corpus.apply(h, &[set_name(&spec, "Kim")])).unwrap_err();
    faults::disarm("corpus.apply");
    assert!(matches!(err, SessionError::Poisoned { .. }), "{err}");

    corpus.recover(h).unwrap();
    let before = full_validations(&corpus);
    corpus.commit();
    assert_eq!(full_validations(&corpus), before + 1);
    let report = corpus.report();
    assert_eq!(report, cold_rebuild(&spec, &corpus));
    assert_eq!(report.reports()[0].validation_errors.len(), 1);
}

#[test]
fn transient_journal_io_faults_are_retried_to_success() {
    let _guard = serial();
    let spec = school_spec();
    let path = temp_log("retry");
    let mut session = CorpusSession::new(&spec);
    let h = session.open_source("a.xml", CLEAN_DOC).unwrap();

    // Fresh write and its sync each absorb one transient fault.
    faults::configure("journal.write", FaultMode::Nth(1));
    faults::configure("journal.sync", FaultMode::Nth(1));
    session
        .persist_to(h, &path)
        .expect("one Interrupted per stage is retried");
    assert_eq!(faults::fired("journal.write"), 1);
    assert_eq!(faults::fired("journal.sync"), 1);

    // So does the append path.
    session.apply(h, &[set_name(&spec, "Ann")]).unwrap();
    faults::configure("journal.append", FaultMode::Nth(1));
    session
        .persist_to(h, &path)
        .expect("append retries transient faults");
    assert_eq!(faults::fired("journal.append"), 1);
    faults::reset();

    // The log the retries produced recovers into the exact live state.
    let mut replica = CorpusSession::new(&spec);
    let recovery = replica.recover_from("a.xml", &path).unwrap();
    let name = spec.dtd().attr_by_name("name").unwrap();
    assert_eq!(
        replica
            .tree(recovery.handle)
            .unwrap()
            .attr_value(NodeId(1), name),
        Some("Ann")
    );
    let _ = std::fs::remove_file(&path);
}

#[test]
fn snapshot_encode_fault_is_a_structured_error_and_the_path_survives() {
    let _guard = serial();
    let spec = school_spec();
    let path = temp_log("snap");
    let mut session = CorpusSession::new(&spec);
    let h = session.open_source("a.xml", CLEAN_DOC).unwrap();

    faults::configure("journal.snapshot_encode", FaultMode::Nth(1));
    let err = session.persist_to(h, &path).unwrap_err();
    faults::reset();
    assert!(
        err.to_string()
            .contains("injected fault: journal.snapshot_encode"),
        "{err}"
    );
    // The fault fired before any byte landed, so the path is still fresh
    // and the retry persists (and recovers) normally.
    session.persist_to(h, &path).unwrap();
    let mut replica = CorpusSession::new(&spec);
    assert!(replica.recover_from("a.xml", &path).is_ok());
    let _ = std::fs::remove_file(&path);
}

#[test]
fn exhausted_io_retries_reject_and_keep_the_durable_prefix() {
    let _guard = serial();
    let spec = school_spec();
    let path = temp_log("exhaust");
    let mut session = CorpusSession::new(&spec);
    let h = session.open_source("a.xml", CLEAN_DOC).unwrap();
    session.persist_to(h, &path).unwrap();

    // Every retry attempt faults: the persist surfaces a structured error.
    session.apply(h, &[set_name(&spec, "Ann")]).unwrap();
    faults::configure(
        "journal.append",
        FaultMode::Probability {
            seed: 7,
            permille: 1000,
        },
    );
    let err = session.persist_to(h, &path).unwrap_err();
    faults::reset();
    assert!(
        err.to_string().contains("injected fault: journal.append"),
        "{err}"
    );

    // The durable prefix is unharmed: recovery yields the pre-edit state.
    let name = spec.dtd().attr_by_name("name").unwrap();
    let mut replica = CorpusSession::new(&spec);
    let recovery = replica.recover_from("a.xml", &path).unwrap();
    assert_eq!(
        replica
            .tree(recovery.handle)
            .unwrap()
            .attr_value(NodeId(1), name),
        Some("Joe")
    );

    // And a later, fault-free persist catches the log up.
    session.persist_to(h, &path).unwrap();
    let mut replica = CorpusSession::new(&spec);
    let recovery = replica.recover_from("a.xml", &path).unwrap();
    assert_eq!(
        replica
            .tree(recovery.handle)
            .unwrap()
            .attr_value(NodeId(1), name),
        Some("Ann")
    );
    let _ = std::fs::remove_file(&path);
}

#[test]
fn cache_insert_fault_degrades_to_a_miss_not_a_wrong_verdict() {
    let _guard = serial();
    let spec = school_spec();
    let engine = Engine::new();

    faults::configure(
        "cache.insert",
        FaultMode::Probability {
            seed: 3,
            permille: 1000,
        },
    );
    let first = engine.consistency(&spec);
    let second = engine.consistency(&spec);
    faults::disarm("cache.insert");
    // Skipped inserts cost misses, never answers.
    assert_eq!(second.decision(), first.decision());
    let stats = engine.cache().stats();
    assert_eq!(stats.entries, 0, "every insert was degraded to a no-op");
    assert_eq!(stats.misses, 2);

    // With the failpoint cleared the cache resumes filling.
    let third = engine.consistency(&spec);
    assert_eq!(third.decision(), first.decision());
    assert_eq!(engine.cache().stats().entries, 1);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Seeded probability faults across every journal failpoint, against a
    /// growing edit history: each persist attempt either succeeds or
    /// rejects with a structured error, and a subsequent fault-free
    /// persist + recovery always reproduces the exact live state — never
    /// a wrong verdict.
    #[test]
    fn journal_faults_recover_or_reject(
        seed in 0u64..10_000,
        permille in 0u32..1001,
        edits in 1usize..6,
    ) {
        let _guard = serial();
        let spec = school_spec();
        let path = temp_log(&format!("prop-{seed}-{permille}-{edits}"));
        let mut session = CorpusSession::new(&spec);
        let h = session.open_source("a.xml", CLEAN_DOC).unwrap();
        let name = spec.dtd().attr_by_name("name").unwrap();

        for i in 0..edits {
            let value = format!("v{seed}-{i}");
            session.apply(h, &[set_name(&spec, &value)]).unwrap();
            for point in [
                "journal.write",
                "journal.append",
                "journal.sync",
                "journal.snapshot_encode",
            ] {
                faults::configure(
                    point,
                    FaultMode::Probability { seed: seed.wrapping_add(i as u64), permille },
                );
            }
            // Faulted attempt: success or structured rejection, never a
            // panic (a panic would fail the test on its own).
            let _ = session.persist_to(h, &path);
            faults::reset();

            // Fault-free persist must always complete from whatever state
            // the faulted attempt left behind, and recovery must replay
            // the live document exactly.
            session.persist_to(h, &path).unwrap();
            let mut replica = CorpusSession::new(&spec);
            let recovery = replica.recover_from("a.xml", &path).unwrap();
            prop_assert_eq!(
                replica.tree(recovery.handle).unwrap().attr_value(NodeId(1), name),
                session.tree(h).unwrap().attr_value(NodeId(1), name)
            );
        }
        let _ = std::fs::remove_file(&path);
    }
}
