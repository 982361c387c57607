//! End-to-end metrics coverage: sessions, corpora, the cache and the
//! journal all record into a shared registry, and [`EngineMetrics`]
//! snapshots cover the full instrument inventory.
//!
//! Everything here runs on **private** registries (or asserts only
//! monotone facts about the global one), so the suite stays correct under
//! `cargo test` thread interleaving.

#![cfg(not(feature = "telemetry-off"))]

use std::sync::Arc;

use xic_engine::{
    BatchDoc, BatchEngine, CompiledSpec, CorpusSession, Engine, EngineMetrics, Transition,
};
use xic_telemetry::MetricsRegistry;
use xic_xml::EditOp;

fn spec() -> CompiledSpec {
    CompiledSpec::from_sources(
        "<!ELEMENT school (teacher*)>\n\
         <!ELEMENT teacher EMPTY>\n\
         <!ATTLIST teacher name CDATA #REQUIRED>",
        Some("school"),
        "teacher.name -> teacher",
    )
    .unwrap()
}

const CLEAN: &str = "<school><teacher name=\"Joe\"/><teacher name=\"Ann\"/></school>";
const DUP: &str = "<school><teacher name=\"Joe\"/><teacher name=\"Joe\"/></school>";

#[test]
fn corpus_session_records_commit_metrics_on_its_registry() {
    let spec = spec();
    let registry = Arc::new(MetricsRegistry::new());
    let mut corpus = CorpusSession::with_registry(&spec, Arc::clone(&registry));

    let a = corpus.open_source("a", CLEAN).unwrap();
    let _b = corpus.open_source("b", DUP).unwrap();
    let snapshot = registry.snapshot();
    assert_eq!(snapshot.gauge("corpus.open_docs"), Some(2));
    assert_eq!(snapshot.gauge("corpus.dirty_docs"), Some(2));

    let delta = corpus.commit();
    // Both documents opened; one violates the key.
    let summary = delta.summary();
    assert_eq!(summary.docs_changed, 2);
    assert_eq!(summary.opened, 2);
    assert_eq!(summary.violations_now, 1);
    assert_eq!(
        delta.changes[0].transition(),
        Transition::OpenedClean,
        "doc a opened clean"
    );
    assert_eq!(delta.changes[1].transition(), Transition::OpenedViolating);

    // Rename Ann -> Joe: a flips clean -> violating.
    let tree = corpus.tree(a).unwrap();
    let teacher = tree.elements().nth(2).expect("two teacher elements");
    let attr = spec.dtd().attr_by_name("name").unwrap();
    corpus
        .apply(
            a,
            &[EditOp::SetAttr {
                element: teacher,
                attr,
                value: "Joe".into(),
            }],
        )
        .unwrap();
    let snapshot = registry.snapshot();
    assert_eq!(snapshot.counter("corpus.edits"), Some(1));
    assert_eq!(snapshot.gauge("corpus.queued_ops"), Some(1));
    assert_eq!(snapshot.gauge("corpus.dirty_docs"), Some(1));

    let delta = corpus.commit();
    assert_eq!(delta.changes[0].transition(), Transition::ToViolating);
    assert!(delta.changes[0].transition().is_flip());
    assert_eq!(delta.summary().flips(), 1);

    let snapshot = registry.snapshot();
    assert_eq!(snapshot.counter("corpus.commits"), Some(2));
    // First commit surfaced one violating doc, the second another.
    assert_eq!(snapshot.counter("corpus.violations_added"), Some(2));
    assert_eq!(snapshot.counter("corpus.violations_removed"), Some(0));
    assert_eq!(snapshot.gauge("corpus.dirty_docs"), Some(0));
    assert_eq!(snapshot.gauge("corpus.queued_ops"), Some(0));
    let commit_ns = snapshot.histogram("corpus.commit_ns").unwrap();
    assert_eq!(commit_ns.count, 2);
    let recheck = snapshot.histogram("corpus.recheck_ns").unwrap();
    assert_eq!(recheck.count, 3, "two opens + one re-check");
    let delta_changes = snapshot.histogram("corpus.delta_changes").unwrap();
    assert_eq!(delta_changes.count, 2);
    // The opens validated their whole trees (3 elements each); the value
    // edit reused a's structural errors and checked no element.
    assert_eq!(snapshot.counter("corpus.validate_full"), Some(2));
    let validated = snapshot.histogram("corpus.validated_elements").unwrap();
    assert_eq!((validated.count, validated.sum), (3, 6));
}

#[test]
fn engine_with_registry_exposes_cache_traffic() {
    let spec = spec();
    let registry = Arc::new(MetricsRegistry::new());
    let engine = Engine::with_registry(16, Arc::clone(&registry));
    let first = engine.consistency(&spec);
    let again = engine.consistency(&spec);
    assert_eq!(first, again);

    let snapshot = registry.snapshot();
    assert_eq!(snapshot.counter("cache.hits"), Some(1));
    assert_eq!(snapshot.counter("cache.misses"), Some(1));
    assert_eq!(snapshot.counter("cache.inserts"), Some(1));
    assert_eq!(snapshot.gauge("cache.entries"), Some(1));
    // The per-spec breakdown names the spec id.
    assert_eq!(
        snapshot.counter(&format!("cache.hits.{}", spec.id())),
        Some(1)
    );
    // The stats() shim reads the same instruments.
    let stats = engine.cache().stats();
    assert_eq!((stats.hits, stats.misses), (1, 1));
}

#[test]
fn journal_persist_and_read_record_global_counters() {
    // The journal records on the process-global registry (journals are
    // process-wide resources), so assert monotone deltas, not absolutes.
    let spec = spec();
    let registry = EngineMetrics::global_registry();
    let before = registry.snapshot();
    let bytes_before = before.counter("journal.bytes_written").unwrap_or(0);
    let appended_before = before.counter("journal.records_appended").unwrap_or(0);
    let read_before = before.counter("journal.records_read").unwrap_or(0);

    let mut session = xic_engine::CorpusSession::new(&spec);
    let doc = session.open_source("clean.xml", CLEAN).unwrap();
    let mut path = std::env::temp_dir();
    path.push(format!("xic-metrics-test-{}.xicj", std::process::id()));
    session.persist_to(doc, &path).unwrap();
    xic_engine::read_session_log(&path, spec.id()).unwrap();
    std::fs::remove_file(&path).ok();

    let after = registry.snapshot();
    assert!(after.counter("journal.bytes_written").unwrap() > bytes_before);
    assert!(after.counter("journal.records_appended").unwrap() > appended_before);
    assert!(after.counter("journal.records_read").unwrap() > read_before);
}

#[test]
fn batch_engine_counts_documents_globally() {
    let spec = spec();
    let registry = EngineMetrics::global_registry();
    let before = registry.snapshot().counter("batch.docs").unwrap_or(0);
    let docs = vec![BatchDoc::new("a", CLEAN), BatchDoc::new("b", DUP)];
    let report = BatchEngine::new(2).validate_batch(&spec, &docs);
    assert_eq!(report.clean_count(), 1);
    let after = registry.snapshot().counter("batch.docs").unwrap();
    assert!(after >= before + 2);
}

#[test]
fn capture_covers_the_full_inventory_even_when_idle() {
    let registry = MetricsRegistry::new();
    let metrics = EngineMetrics::capture(&registry);
    for name in [
        "cache.hits",
        "corpus.commits",
        "journal.bytes_written",
        "batch.docs",
        "corpus.edits",
        "corpus.validate_full",
    ] {
        assert_eq!(metrics.snapshot.counter(name), Some(0), "{name}");
    }
    for name in [
        "corpus.commit_ns",
        "journal.persist_ns",
        "corpus.apply_ns",
        "corpus.validated_elements",
    ] {
        assert!(metrics.snapshot.histogram(name).is_some(), "{name}");
    }
    let text = metrics.render_text();
    assert!(text.contains("journal.persist_ns"));
}
