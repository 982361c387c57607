//! Differential testing of `CorpusSession` against cold `BatchEngine`
//! rebuilds.
//!
//! Two oracles hold after **every** commit of a random interleaved edit
//! sequence across 2–5 documents:
//!
//! 1. **Witness identity with a cold rebuild on the resident trees** —
//!    `CorpusSession::report()` must equal
//!    `BatchEngine::validate_trees(spec, current trees)`: same reports,
//!    same violations, same clash-witness node ids, same order.  This is
//!    the corpus generalization of `tests/session_agreement.rs`.
//! 2. **Semantic identity with a cold `validate_batch` over serialized
//!    sources** — writing every current tree out and re-validating the
//!    sources from scratch must agree on every document's verdict and on
//!    the Σ-ordered list of violated constraints.  Witness node ids (and
//!    witness-dependent detail) are *expected* to differ here: re-parsing
//!    renumbers an edited arena, and "the first witness" follows that
//!    order — which is exactly why the projection, and not the witness, is
//!    compared.
//!
//! On top of the verdicts, the **`BatchDelta` stream** is checked against
//! an independently maintained model: a delta must list exactly the
//! documents whose clean state flipped (or that entered the corpus), the
//! labels closed since the last commit, and a `rechecked_docs` equal to the
//! number of documents touched since the last commit.
//!
//! Every step commits one random op and then one more batch: two times in
//! three a **validity-preserving batch** — append a type the parent's
//! content model accepts at the end, with every required attribute (and a
//! text child when its own model needs one) in the same batch, or remove
//! such an appended element again — otherwise such a complete element
//! appended where the parent's model rejects it, so only the parent
//! fails.  Commits thus exercise both the incremental `T ⊨ D`
//! path (only touched elements re-validated) and its whole-document
//! fallback; the `corpus.validate_full` counter and
//! `corpus.validated_elements` histogram prove the incremental path ran.
//!
//! The generated specs come both from `random_dtd`/`random_unary_constraints`
//! (the proptest half) and from the named `xic-gen` workload families
//! (`primary_key_family`, `keys_only_family`, `fixed_dtd_growing_sigma`), so
//! the suite is not limited to hand-written fixtures.

use std::collections::HashMap;
use std::sync::Arc;

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use xic_telemetry::MetricsRegistry;
use xml_integrity_constraints::constraints::Violation;
use xml_integrity_constraints::dtd::{ChildSymbol, Dtd, ElemId, Glushkov};
use xml_integrity_constraints::engine::{
    BatchDoc, BatchEngine, BatchReport, CompiledSpec, CorpusSession, DocHandle,
};
use xml_integrity_constraints::gen::{
    fixed_dtd_growing_sigma, keys_only_family, primary_key_family, random_document, random_dtd,
    random_unary_constraints, ConstraintGenConfig, DocGenConfig, DtdGenConfig, SpecInstance,
};
use xml_integrity_constraints::xml::{write_document, EditOp, NodeId, XmlTree};

/// Picks the next edit against one document's current state: every op is
/// valid by construction (live nodes, non-root removals).
fn random_op(rng: &mut StdRng, dtd: &Dtd, tree: &XmlTree) -> EditOp {
    let elements: Vec<NodeId> = tree.elements().collect();
    let pick = |rng: &mut StdRng, nodes: &[NodeId]| nodes[rng.gen_range(0..nodes.len())];
    for _ in 0..8 {
        match rng.gen_range(0u32..10) {
            0..=4 => {
                let candidates: Vec<NodeId> = elements
                    .iter()
                    .copied()
                    .filter(|&n| {
                        tree.element_type(n)
                            .is_some_and(|ty| !dtd.attrs_of(ty).is_empty())
                    })
                    .collect();
                if candidates.is_empty() {
                    continue;
                }
                let element = pick(rng, &candidates);
                let ty = tree.element_type(element).unwrap();
                let attrs = dtd.attrs_of(ty);
                let attr = attrs[rng.gen_range(0..attrs.len())];
                return EditOp::SetAttr {
                    element,
                    attr,
                    value: format!("val{}", rng.gen_range(0..4u32)),
                };
            }
            5..=6 => {
                let types: Vec<_> = dtd.types().collect();
                return EditOp::AddElement {
                    parent: pick(rng, &elements),
                    ty: types[rng.gen_range(0..types.len())],
                };
            }
            7 => {
                return EditOp::AddText {
                    parent: pick(rng, &elements),
                    value: format!("text{}", rng.gen_range(0..100u32)),
                };
            }
            _ => {
                let removable: Vec<NodeId> = elements
                    .iter()
                    .copied()
                    .filter(|&n| n != tree.root())
                    .collect();
                if removable.is_empty() {
                    continue;
                }
                return EditOp::RemoveSubtree {
                    element: pick(rng, &removable),
                };
            }
        }
    }
    let types: Vec<_> = dtd.types().collect();
    EditOp::AddElement {
        parent: tree.root(),
        ty: types[0],
    }
}

/// The child word of `node`, as its content model reads it.
fn child_word(tree: &XmlTree, node: NodeId) -> Vec<ChildSymbol> {
    tree.children(node)
        .iter()
        .map(|&c| match tree.element_type(c) {
            Some(ty) => ChildSymbol::Element(ty),
            None => ChildSymbol::Text,
        })
        .collect()
}

/// A validity-preserving batch against one document, or `None` when the
/// DTD admits none here: either remove an element an earlier
/// [`append_batch`] added (when its parent's content model accepts the
/// shorter word), or append an element its parent's model accepts.
/// Applied to a valid document, the result is valid, so its commit can
/// stay on the incremental path.
fn preserving_batch(
    rng: &mut StdRng,
    dtd: &Dtd,
    tree: &XmlTree,
    appended: &mut Vec<NodeId>,
) -> Option<Vec<EditOp>> {
    appended.retain(|&n| !tree.is_detached(n));
    if !appended.is_empty() && rng.gen_bool(0.3) {
        let node = appended[rng.gen_range(0..appended.len())];
        let parent = tree.parent(node).expect("appended under a parent");
        let mut word = child_word(tree, parent);
        let at = tree.children(parent).iter().position(|&c| c == node);
        word.remove(at.expect("a live child is listed under its parent"));
        let model = Glushkov::new(dtd.content(tree.element_type(parent).unwrap()));
        if model.matches(&word) {
            appended.retain(|&n| n != node);
            return Some(vec![EditOp::RemoveSubtree { element: node }]);
        }
    }
    append_batch(rng, dtd, tree, appended, true)
}

/// Appends, at the end of some element, a complete new element — every
/// required attribute, plus a text child when its own model needs one —
/// of a type the parent's content model accepts there (`fits`) or rejects
/// (`!fits`, so only the parent fails).  `None` when no such pair exists.
/// The new element's id joins `appended`.
fn append_batch(
    rng: &mut StdRng,
    dtd: &Dtd,
    tree: &XmlTree,
    appended: &mut Vec<NodeId>,
    fits: bool,
) -> Option<Vec<EditOp>> {
    let automata: HashMap<ElemId, Glushkov> = dtd
        .types()
        .map(|ty| (ty, Glushkov::new(dtd.content(ty))))
        .collect();
    let accepts = |ty: ElemId, word: &[ChildSymbol]| automata[&ty].matches(word);
    let mut options = Vec::new();
    for parent in tree.elements() {
        let mut word = child_word(tree, parent);
        word.push(ChildSymbol::Text);
        for ty in dtd.types() {
            let needs_text = if accepts(ty, &[]) {
                false
            } else if accepts(ty, &[ChildSymbol::Text]) {
                true
            } else {
                continue;
            };
            *word.last_mut().unwrap() = ChildSymbol::Element(ty);
            if accepts(tree.element_type(parent).unwrap(), &word) == fits {
                options.push((parent, ty, needs_text));
            }
        }
    }
    if options.is_empty() {
        return None;
    }
    let (parent, ty, needs_text) = options[rng.gen_range(0..options.len())];
    // Arena ids are allocated in order: the new element takes the next one.
    let element = NodeId((0u32..).find(|&k| !tree.contains(NodeId(k))).unwrap());
    appended.push(element);
    let mut ops = vec![EditOp::AddElement { parent, ty }];
    ops.extend(dtd.attrs_of(ty).iter().map(|&attr| EditOp::SetAttr {
        element,
        attr,
        value: format!("val{}", rng.gen_range(0..4u32)),
    }));
    if needs_text {
        ops.push(EditOp::AddText {
            parent: element,
            value: "appended".into(),
        });
    }
    Some(ops)
}

/// Rechecks whose `T ⊨ D` half did not fall back to validating the whole
/// document, read from the corpus's own (private) registry.
fn incremental_rechecks(corpus: &CorpusSession) -> u64 {
    let snapshot = corpus.registry().snapshot();
    let rechecks = snapshot
        .histogram("corpus.validated_elements")
        .map_or(0, |h| h.count);
    rechecks - snapshot.counter("corpus.validate_full").unwrap_or(0)
}

/// A corpus recording into a registry of its own, so counter reads are
/// not disturbed by tests running in parallel.
fn private_corpus(spec: &CompiledSpec) -> CorpusSession<'_> {
    CorpusSession::with_registry(spec, Arc::new(MetricsRegistry::new()))
}

/// The scan-order-free projection of a violation: the constraint it
/// violates.  Serializing and reparsing renumbers the arena, and the
/// checkers scan in ascending node-id order, so the *witness* (and with it
/// the reported tuple, and for inclusions even the missing-attribute /
/// dangling-tuple classification) may legitimately change across the
/// boundary — but *which constraints are violated* is order-independent,
/// and both paths report violations in Σ order.
fn projection(v: &Violation) -> &str {
    match v {
        Violation::KeyViolation { constraint, .. }
        | Violation::InclusionViolation { constraint, .. }
        | Violation::MissingAttributes { constraint, .. }
        | Violation::NegationUnsatisfied { constraint } => constraint,
    }
}

/// Cold oracle #1: a rebuild on the resident trees (witness-exact).
fn cold_tree_report(
    spec: &CompiledSpec,
    corpus: &CorpusSession,
    handles: &[DocHandle],
) -> BatchReport {
    let labeled: Vec<(String, &XmlTree)> = handles
        .iter()
        .map(|&h| {
            (
                corpus.label(h).unwrap().to_string(),
                corpus.tree(h).unwrap(),
            )
        })
        .collect();
    let borrowed: Vec<(&str, &XmlTree)> = labeled
        .iter()
        .map(|(label, tree)| (label.as_str(), *tree))
        .collect();
    BatchEngine::new(1).validate_trees(spec, &borrowed)
}

/// Cold oracle #2: serialize every tree and `validate_batch` the sources;
/// compare verdicts and violation projections (not node ids).
fn assert_serialized_rebuild_agrees(
    spec: &CompiledSpec,
    corpus: &CorpusSession,
    handles: &[DocHandle],
    resident: &BatchReport,
) {
    let docs: Vec<BatchDoc> = handles
        .iter()
        .map(|&h| {
            BatchDoc::new(
                corpus.label(h).unwrap(),
                write_document(corpus.tree(h).unwrap(), spec.dtd()),
            )
        })
        .collect();
    let cold = BatchEngine::new(1).validate_batch(spec, &docs);
    assert_eq!(cold.total(), resident.total());
    for (from_source, from_tree) in cold.reports().iter().zip(resident.reports()) {
        assert_eq!(from_source.label, from_tree.label);
        assert_eq!(from_source.parse_error, None, "writer output must reparse");
        assert_eq!(
            from_source.is_clean(),
            from_tree.is_clean(),
            "{}: serialized rebuild disagrees on the verdict",
            from_source.label
        );
        let a: Vec<_> = from_source.violations.iter().map(projection).collect();
        let b: Vec<_> = from_tree.violations.iter().map(projection).collect();
        assert_eq!(
            a, b,
            "{}: violation projections diverged",
            from_source.label
        );
    }
}

/// Which edit batches [`drive_and_check`] commits at each step.
#[derive(Clone, Copy, PartialEq)]
enum Script {
    /// One [`random_op`], then one more batch against a fresh victim: a
    /// [`preserving_batch`] two times in three, otherwise a complete
    /// element its parent rejects ([`append_batch`]).
    Mixed,
    /// One [`preserving_batch`] only.
    Preserving,
}

/// Drives `edits` steps of interleaved edit batches (see [`Script`]) over
/// an open corpus, committing after every batch and checking verdicts +
/// delta contents against the cold oracles and a report-replica model (the
/// model a subscriber applying the delta stream would maintain).  A random
/// op stands in for a batch kind that has no candidate.  Returns how many
/// commits changed some document's report (so callers can assert the
/// workload was non-trivial).
fn drive_and_check(
    spec: &CompiledSpec,
    corpus: &mut CorpusSession,
    handles: &[DocHandle],
    rng: &mut StdRng,
    edits: usize,
    script: Script,
) -> usize {
    // Initial commit admits every opened document into the delta stream.
    let delta = corpus.commit();
    assert_eq!(delta.rechecked_docs, handles.len());
    assert_eq!(delta.changes.len(), handles.len());
    assert!(delta.changes.iter().all(|c| c.was_clean.is_none()));

    let mut resident = cold_tree_report(spec, corpus, handles);
    assert_eq!(&corpus.report(), &resident);
    // The subscriber's replica: last delivered report per document.
    let mut replica: Vec<_> = resident.reports().to_vec();
    let mut changed_commits = 0;
    let mut appended = vec![Vec::new(); handles.len()];

    // Round 0 (mixed steps only) commits the random op, round 1 the batch.
    let first_round = if script == Script::Mixed { 0 } else { 1 };
    let rounds = (0..edits).flat_map(|step| (first_round..2).map(move |round| (step, round)));
    for (step, round) in rounds {
        let victim = rng.gen_range(0..handles.len());
        let handle = handles[victim];
        let tree = corpus.tree(handle).unwrap();
        let batch = if round == 0 {
            None
        } else if script == Script::Preserving || rng.gen_bool(2.0 / 3.0) {
            preserving_batch(rng, spec.dtd(), tree, &mut appended[victim])
        } else {
            append_batch(rng, spec.dtd(), tree, &mut appended[victim], false)
        };
        let ops = batch.unwrap_or_else(|| vec![random_op(rng, spec.dtd(), tree)]);
        corpus.apply(handle, &ops).unwrap();
        let delta = corpus.commit();

        // Oracle #1: witness-exact equality with a resident-tree rebuild.
        resident = cold_tree_report(spec, corpus, handles);
        assert_eq!(
            &corpus.report(),
            &resident,
            "diverged at step {step}.{round} after {ops:?}"
        );

        // The delta model: exactly one doc was rechecked; it appears in
        // `changes` iff its report differs from the last delivered one
        // (clean-state flips AND violating→violating content changes), so
        // applying the stream keeps the replica identical to report().
        assert_eq!(delta.rechecked_docs, 1, "step {step}.{round}");
        assert!(delta.closed.is_empty());
        let fresh = &resident.reports()[victim];
        if fresh == &replica[victim] {
            assert!(
                delta.is_empty(),
                "step {step}.{round}: report unchanged, delta must be empty"
            );
        } else {
            assert_eq!(delta.changes.len(), 1, "step {step}.{round}");
            let change = &delta.changes[0];
            assert_eq!(change.handle, handle);
            assert_eq!(change.was_clean, Some(replica[victim].is_clean()));
            assert_eq!(change.now_clean(), fresh.is_clean());
            assert_eq!(&change.report, fresh);
            replica[victim] = change.report.clone();
            changed_commits += 1;
        }
        // The replica reconstructed from deltas alone matches the truth.
        assert_eq!(
            replica.as_slice(),
            resident.reports(),
            "step {step}.{round}"
        );
        assert_eq!(delta.total, handles.len());
        assert_eq!(
            delta.clean,
            replica.iter().filter(|r| r.is_clean()).count(),
            "step {step}.{round}"
        );
    }

    // Oracle #2 once per sequence (serialization is the expensive oracle).
    assert_serialized_rebuild_agrees(spec, corpus, handles, &resident);
    changed_commits
}

/// Opens `count` random documents against the spec, or `None` when the DTD
/// admits no document.
fn open_random_docs(
    spec: &CompiledSpec,
    corpus: &mut CorpusSession,
    seed: u64,
    count: usize,
) -> Option<Vec<DocHandle>> {
    let mut handles = Vec::new();
    for i in 0..count {
        let tree = random_document(
            spec.dtd(),
            &DocGenConfig {
                seed: seed.wrapping_add(i as u64),
                value_pool: 3,
                ..Default::default()
            },
        )?;
        handles.push(
            corpus
                .open(format!("doc-{i}.xml"), tree)
                .expect("unlimited corpus admits every tree"),
        );
    }
    Some(handles)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// After every commit of a random interleaved edit sequence across 2–5
    /// documents, corpus verdicts (witnesses included) and the delta stream
    /// agree with cold rebuilds.
    #[test]
    fn corpus_agrees_with_cold_rebuild_after_every_commit(
        seed in 0u64..400,
        types in 2usize..7,
        keys in 0usize..4,
        fks in 0usize..4,
        inclusions in 0usize..3,
        num_docs in 2usize..6,
        edits in 1usize..25,
    ) {
        let dtd = random_dtd(&DtdGenConfig { seed, num_types: types, ..Default::default() });
        let sigma = random_unary_constraints(
            &dtd,
            &ConstraintGenConfig {
                keys,
                foreign_keys: fks,
                inclusions,
                seed,
                ..Default::default()
            },
        );
        let spec = match CompiledSpec::compile(dtd, sigma) {
            Ok(spec) => spec,
            // Ψ(D,Σ) construction can reject exotic generated specs; the
            // corpus needs only (D, Σ), so skip those instances.
            Err(_) => return Ok(()),
        };
        let mut corpus = CorpusSession::new(&spec);
        let Some(handles) = open_random_docs(&spec, &mut corpus, seed, num_docs) else {
            return Ok(()); // unsatisfiable DTD: nothing to open
        };
        let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(0x9e37_79b9));
        drive_and_check(&spec, &mut corpus, &handles, &mut rng, edits, Script::Mixed);

        // Closing a document surfaces in the next delta and the next report.
        let victim = handles[0];
        let label = corpus.label(victim).unwrap().to_string();
        corpus.close(victim).unwrap();
        let delta = corpus.commit();
        prop_assert_eq!(delta.closed.len(), 1);
        prop_assert_eq!(delta.closed[0].handle, victim);
        prop_assert_eq!(&delta.closed[0].label, &label);
        prop_assert_eq!(delta.total, handles.len() - 1);
        let survivors: Vec<DocHandle> = handles[1..].to_vec();
        let resident = cold_tree_report(&spec, &corpus, &survivors);
        prop_assert_eq!(corpus.report(), resident);
    }
}

/// The named `xic-gen` workload families drive the same differential, so
/// the agreement suite covers generated DTD/Σ shapes beyond the uniform
/// random sampler: primary-key-restricted specs over random DTDs, keys-only
/// specs, and a fixed DTD under a growing Σ.
#[test]
fn workload_families_agree_with_cold_rebuilds() {
    let families: Vec<(&str, Vec<SpecInstance>)> = vec![
        ("primary_key", primary_key_family(&[4, 6], 11)),
        ("keys_only", keys_only_family(&[4, 6], 12)),
        ("fixed_dtd", fixed_dtd_growing_sigma(5, &[4, 8], 13)),
    ];
    let mut driven = 0usize;
    let mut incremental = 0u64;
    for (family, instances) in families {
        for instance in instances {
            let label = format!("{family}/{}", instance.label);
            let spec = match CompiledSpec::compile(instance.dtd, instance.sigma) {
                Ok(spec) => spec,
                Err(_) => continue, // Ψ(D,Σ) rejected the instance
            };
            let mut corpus = private_corpus(&spec);
            let Some(handles) = open_random_docs(&spec, &mut corpus, 17, 3) else {
                continue;
            };
            let mut rng = StdRng::seed_from_u64(0xc0ffee ^ driven as u64);
            drive_and_check(&spec, &mut corpus, &handles, &mut rng, 20, Script::Mixed);
            incremental += incremental_rechecks(&corpus);
            driven += 1;
            let _ = label;
        }
    }
    assert!(
        driven >= 4,
        "the workload families must actually exercise the differential (drove {driven})"
    );
    assert!(
        incremental > 0,
        "some commits must re-validate only the touched elements"
    );
}

/// Validity-preserving batches alone never leave the incremental `T ⊨ D`
/// path: after the opening commit no recheck validates a whole document,
/// yet every report still equals a cold rebuild (checked inside
/// `drive_and_check`).  All-starred layered DTDs always admit an append.
#[test]
fn validity_preserving_batches_revalidate_only_touched_elements() {
    for seed in 0..6u64 {
        let dtd = random_dtd(&DtdGenConfig {
            seed,
            num_types: 5,
            star_probability: 1.0,
            ..Default::default()
        });
        let sigma = random_unary_constraints(
            &dtd,
            &ConstraintGenConfig {
                keys: 1,
                foreign_keys: 1,
                seed,
                ..Default::default()
            },
        );
        let spec = CompiledSpec::compile(dtd, sigma).expect("layered specs compile");
        let mut corpus = private_corpus(&spec);
        let handles = open_random_docs(&spec, &mut corpus, seed, 3).expect("satisfiable");
        let mut rng = StdRng::seed_from_u64(seed);
        drive_and_check(
            &spec,
            &mut corpus,
            &handles,
            &mut rng,
            30,
            Script::Preserving,
        );
        let snapshot = corpus.registry().snapshot();
        assert_eq!(
            snapshot.counter("corpus.validate_full"),
            Some(handles.len() as u64),
            "seed {seed}: only the opening commit validates whole documents"
        );
        assert_eq!(incremental_rechecks(&corpus), 30, "seed {seed}");
    }
}
