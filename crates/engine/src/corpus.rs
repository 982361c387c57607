//! The validation session: many open documents, one spec, one value pool,
//! O(edit) per-document verdicts and O(edited documents) commits.
//!
//! Re-validating a document after every small change costs O(document) per
//! rebuild, and a corpus pays O(corpus) per change through the only batch
//! surface, [`crate::BatchEngine::validate_batch`] — a cold parse, validate
//! and index of every document, every time.  A [`CorpusSession`] closes
//! both gaps:
//!
//! * **one spec, many documents** — every open document shares the
//!   [`CompiledSpec`]'s precompiled automata and its spec-level
//!   [`xic_constraints::IncrementalLayout`] (opening a document derives no
//!   layout, it clones an `Arc`);
//! * **one value pool** — the corpus keeps a master
//!   [`xic_xml::ValuePool`]; documents parsed through the session inherit
//!   it by [`xic_xml::ValuePool::fork`] (shared allocations, shared prefix
//!   ids) and documents opened from pre-built trees are
//!   [`xic_xml::ValuePool::absorb`]ed, so a value repeated across the
//!   corpus is allocated once;
//! * **per-document dirty tracking** — edits route through
//!   [`CorpusSession::apply`] per [`DocHandle`] and mark only that document
//!   dirty; [`CorpusSession::commit`] re-checks *exactly the dirty
//!   documents* (`T ⊨ D` re-validation of the elements their edits
//!   touched plus the incremental `T ⊨ Σ` verdict) and serves every clean
//!   document's report from cache.
//!   The commit itself is O(dirty documents) too: corpus-wide counters are
//!   maintained incrementally, and open-order positions are only
//!   renumbered after a close.  Between commits,
//!   [`CorpusSession::verdict`] answers one document's `T ⊨ Σ` at O(edit);
//! * **durability and containment** — a document persists to an
//!   append-only log ([`CorpusSession::persist_to`]) and reopens from one
//!   ([`CorpusSession::recover_from`]); a panic inside
//!   [`CorpusSession::apply`] quarantines only that document until
//!   [`CorpusSession::recover`] replays its journal onto its recovery base;
//! * **delta stream** — each commit returns a [`BatchDelta`]: the documents
//!   whose *report changed* — newly opened, flipped clean ↔ violating, or
//!   still violating with a different violation/error set — each with its
//!   full fresh [`crate::DocReport`] (structured [`Violation`] witnesses
//!   included), plus the documents closed since the last commit, under a
//!   monotone sequence number.  Subscribers that apply the delta stream to
//!   a replica of the last [`CorpusSession::report`] reconstruct the
//!   current report exactly — `tests/corpus_agreement.rs` proves both
//!   halves against cold [`crate::BatchEngine`] rebuilds.
//!
//! The `corpus_edit` bench (`BENCH_corpus.json`) records the headline
//! number: a single-document edit re-verdict is ≥ 20× faster than a full
//! `BatchEngine` revalidation of the corpus.

use std::collections::{BTreeMap, BTreeSet};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use xic_constraints::{IncrementalIndex, ShardPlan, Violation};
use xic_telemetry::{Counter, Gauge, Histogram, MetricsRegistry};
use xic_xml::budget::{ParseBudget, ParseError};
use xic_xml::{EditEffect, EditJournal, EditOp, NodeId, TreeSnapshot, ValuePool, XmlTree};

use crate::batch::{BatchReport, DocFault, DocReport};
use crate::journal::{self, JournalError, PersistReceipt};
use crate::limits::{self, LimitKind, Limits, ResourceError};
use crate::session::{apply_ops, DocHandle, Recovery, SessionError, SessionVerdict};
use crate::spec::CompiledSpec;

/// One document's entry in a [`BatchDelta`]: its state transition and the
/// full fresh report (structured [`Violation`] witnesses included).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DocChange {
    /// The document's handle — the stable identity to key a replica on
    /// (labels need not be unique).
    pub handle: DocHandle,
    /// Its clean state at the previous commit — `None` for documents opened
    /// since then.
    pub was_clean: Option<bool>,
    /// The fresh report (label, structural errors, Σ violations).
    pub report: DocReport,
    /// The shards (per the spec's [`ShardPlan`]) whose projected view of
    /// this document can differ from the previous commit: the shards of the
    /// constraints the triggering edits dirtied.  Opens, structural-error
    /// or fault churn, panic-rebuilt rechecks and documents whose dirty
    /// constraints a [`CorpusSession::verdict`] already consumed are
    /// *broadcast* — tagged with every shard.
    /// Sorted ascending.
    pub shards: Vec<u32>,
}

impl DocChange {
    /// Whether the document is clean after this change.
    pub fn now_clean(&self) -> bool {
        self.report.is_clean()
    }

    /// The clean-state transition this change reports.
    pub fn transition(&self) -> Transition {
        match (self.was_clean, self.now_clean()) {
            (None, true) => Transition::OpenedClean,
            (None, false) => Transition::OpenedViolating,
            (Some(true), false) => Transition::ToViolating,
            (Some(false), true) => Transition::ToClean,
            (Some(true), true) => Transition::StillClean,
            (Some(false), false) => Transition::StillViolating,
        }
    }
}

/// The clean-state transition of one [`DocChange`] — the classification the
/// CLI's delta stream, `xic journal inspect` and the metrics layer all
/// share (each used to hand-roll its own).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Transition {
    /// Opened since the last commit, clean.
    OpenedClean,
    /// Opened since the last commit, violating.
    OpenedViolating,
    /// Was clean, now violating.
    ToViolating,
    /// Was violating, now clean.
    ToClean,
    /// Clean before and after (cannot appear in a committed delta: a clean
    /// report has nothing to observably change).
    StillClean,
    /// Violating before and after, but the violation/error set changed.
    StillViolating,
}

impl Transition {
    /// Whether the document flipped between clean and violating.
    pub fn is_flip(self) -> bool {
        matches!(self, Transition::ToViolating | Transition::ToClean)
    }

    /// The human-readable label the CLI delta stream prints.
    pub fn label(self) -> &'static str {
        match self {
            Transition::OpenedClean => "opened clean",
            Transition::OpenedViolating => "opened violating",
            Transition::ToViolating => "clean -> violating",
            Transition::ToClean => "violating -> clean",
            Transition::StillClean => "still clean",
            Transition::StillViolating => "still violating (changed)",
        }
    }
}

/// A document closed since the previous commit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClosedDoc {
    /// The closed document's (now dead) handle — the stable identity, since
    /// labels need not be unique.
    pub handle: DocHandle,
    /// Its label.
    pub label: String,
}

/// The diff a [`CorpusSession::commit`] emits: what changed since the
/// previous commit, plus corpus-level counters.  The sequence of deltas is
/// the subscription stream — applying them in `seq` order to a copy of an
/// earlier [`CorpusSession::report`] reproduces the current one (replace
/// the report of every change, drop every closed handle).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BatchDelta {
    /// Monotone commit number (the first commit of a session is `1`).
    pub seq: u64,
    /// Documents whose report changed — opened, flipped clean ↔ violating,
    /// or re-checked to a different violation/error set — in open order.
    pub changes: Vec<DocChange>,
    /// Documents closed since the previous commit, in close order.
    pub closed: Vec<ClosedDoc>,
    /// How many documents this commit actually re-checked (the dirty set).
    pub rechecked_docs: usize,
    /// Open documents after the commit.
    pub total: usize,
    /// Clean documents after the commit.
    pub clean: usize,
    /// The union of the changes' shard tags, plus every shard when any
    /// document closed (a close is shard-independent).  A subscriber
    /// filtered to shard `k` needs this delta exactly when `k` appears
    /// here.  Sorted ascending; empty for an empty delta.
    pub shards: Vec<u32>,
}

impl BatchDelta {
    /// Whether nothing observable changed (no report changes, opens or
    /// closes).
    pub fn is_empty(&self) -> bool {
        self.changes.is_empty() && self.closed.is_empty()
    }

    /// Whether a subscriber filtered to `shard` needs this delta.
    pub fn touches_shard(&self, shard: u32) -> bool {
        self.shards.contains(&shard)
    }

    /// The shard-`k` projection of this delta: changes tagged with `shard`,
    /// each report's Σ violations restricted to `shard`'s constraints
    /// (structural errors and faults are shard-independent and kept whole),
    /// closes kept whole.  `None` when the delta does not touch `shard` —
    /// a filtered subscriber simply never receives it.  Applying every
    /// projected delta of a stream to a shard-filtered
    /// [`crate::CorpusReplica`] reconstructs the shard projection of the
    /// session's report exactly.
    pub fn project(&self, plan: &ShardPlan, shard: u32) -> Option<BatchDelta> {
        if !self.touches_shard(shard) {
            return None;
        }
        let changes = self
            .changes
            .iter()
            .filter(|c| c.shards.contains(&shard))
            .map(|c| DocChange {
                handle: c.handle,
                was_clean: c.was_clean,
                report: project_doc_report(&c.report, plan, shard),
                shards: vec![shard],
            })
            .collect();
        Some(BatchDelta {
            seq: self.seq,
            changes,
            closed: self.closed.clone(),
            rechecked_docs: self.rechecked_docs,
            total: self.total,
            clean: self.clean,
            shards: vec![shard],
        })
    }

    /// Tallies the delta's changes by [`Transition`] — the one aggregation
    /// the metrics layer, `xic journal inspect` and the CLI delta stream
    /// share.
    pub fn summary(&self) -> DeltaSummary {
        let mut summary = DeltaSummary {
            docs_changed: self.changes.len(),
            closed: self.closed.len(),
            rechecked: self.rechecked_docs,
            ..DeltaSummary::default()
        };
        for change in &self.changes {
            match change.transition() {
                Transition::OpenedClean | Transition::OpenedViolating => summary.opened += 1,
                Transition::ToViolating => summary.to_violating += 1,
                Transition::ToClean => summary.to_clean += 1,
                Transition::StillClean | Transition::StillViolating => summary.churned += 1,
            }
            summary.violations_now += change.report.violations.len();
        }
        summary
    }
}

/// The shard-`k` projection of one document report: Σ violations restricted
/// to `shard`'s constraints (looked up through the rendered constraint each
/// [`Violation`] carries); everything shard-independent — label, position,
/// structural errors, faults — kept whole.
pub fn project_doc_report(report: &DocReport, plan: &ShardPlan, shard: u32) -> DocReport {
    DocReport {
        index: report.index,
        label: report.label.clone(),
        parse_error: report.parse_error.clone(),
        validation_errors: report.validation_errors.clone(),
        violations: report
            .violations
            .iter()
            .filter(|v| plan.shard_of_rendered(v.constraint()) == Some(shard))
            .cloned()
            .collect(),
        fault: report.fault.clone(),
    }
}

/// The shard-`k` projection of a full corpus report: every document kept
/// (document membership is shard-independent), each report projected by
/// [`project_doc_report`].  The oracle side of the shard-filtered-replica
/// agreement tests.
pub fn project_report(report: &BatchReport, plan: &ShardPlan, shard: u32) -> BatchReport {
    BatchReport::from_reports(
        report
            .reports()
            .iter()
            .map(|r| project_doc_report(r, plan, shard))
            .collect(),
    )
}

/// Per-delta tallies from [`BatchDelta::summary`].
///
/// Everything here is derived from the delta alone, so a replica holding
/// only the stream computes the same numbers.  Exact violations
/// added/removed counts (which need the *previous* report of a
/// still-violating document) are emitted by [`CorpusSession::commit`] as the
/// `corpus.violations_added` / `corpus.violations_removed` counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DeltaSummary {
    /// Documents whose report changed.
    pub docs_changed: usize,
    /// Changed documents that were opened since the previous commit.
    pub opened: usize,
    /// Documents that flipped clean → violating.
    pub to_violating: usize,
    /// Documents that flipped violating → clean.
    pub to_clean: usize,
    /// Documents that changed without flipping (traded one violation or
    /// error set for another).
    pub churned: usize,
    /// Documents closed since the previous commit.
    pub closed: usize,
    /// Documents the commit re-checked (the dirty set).
    pub rechecked: usize,
    /// Σ violations outstanding across the changed documents' fresh
    /// reports.
    pub violations_now: usize,
}

impl DeltaSummary {
    /// Total clean ↔ violating flips.
    pub fn flips(&self) -> usize {
        self.to_violating + self.to_clean
    }
}

/// Registry-backed corpus instruments, resolved once per session.  The
/// `corpus.dirty_docs` and `corpus.queued_ops` gauges are the backpressure
/// surface: a service wrapping [`CorpusSession`] bounds admission with one
/// comparison against an already-exported metric.
#[derive(Debug)]
struct CorpusInstruments {
    registry: Arc<MetricsRegistry>,
    edits: Arc<Counter>,
    commits: Arc<Counter>,
    violations_added: Arc<Counter>,
    violations_removed: Arc<Counter>,
    apply_ns: Arc<Histogram>,
    commit_ns: Arc<Histogram>,
    recheck_ns: Arc<Histogram>,
    delta_changes: Arc<Histogram>,
    dirty_docs: Arc<Gauge>,
    queued_ops: Arc<Gauge>,
    open_docs: Arc<Gauge>,
    /// Dirty constraints actually recomputed by commits (in scope).
    shard_rechecked: Arc<Counter>,
    /// Dirty constraints dropped by a shard scope instead of recomputed.
    shard_skipped: Arc<Counter>,
    /// Shard tags emitted on committed deltas (fan-out width).
    shard_deltas: Arc<Counter>,
    /// Distinct shards touched per commit.
    shard_touched: Arc<Histogram>,
    /// Rechecks that re-validated the whole document (`T ⊨ D` fallback).
    validate_full: Arc<Counter>,
    /// Elements whose local `T ⊨ D` conditions each recheck checked.
    validated_elements: Arc<Histogram>,
}

impl CorpusInstruments {
    fn on(registry: Arc<MetricsRegistry>) -> CorpusInstruments {
        CorpusInstruments {
            edits: registry.counter("corpus.edits"),
            commits: registry.counter("corpus.commits"),
            violations_added: registry.counter("corpus.violations_added"),
            violations_removed: registry.counter("corpus.violations_removed"),
            apply_ns: registry.histogram("corpus.apply_ns"),
            commit_ns: registry.histogram("corpus.commit_ns"),
            recheck_ns: registry.histogram("corpus.recheck_ns"),
            delta_changes: registry.histogram("corpus.delta_changes"),
            dirty_docs: registry.gauge("corpus.dirty_docs"),
            queued_ops: registry.gauge("corpus.queued_ops"),
            open_docs: registry.gauge("corpus.open_docs"),
            shard_rechecked: registry.counter("shard.rechecked"),
            shard_skipped: registry.counter("shard.skipped"),
            shard_deltas: registry.counter("shard.deltas"),
            shard_touched: registry.histogram("shard.touched"),
            validate_full: registry.counter("corpus.validate_full"),
            validated_elements: registry.histogram("corpus.validated_elements"),
            registry,
        }
    }
}

/// The tree a document's journal entries replay onto: what
/// [`CorpusSession::recover`] and [`CorpusSession::compact`] rebuild from.
#[derive(Debug)]
enum RecoveryBase {
    /// The source the document was parsed from: a re-parse rebuilds the
    /// same arena ids, so opening a source costs no snapshot.
    Source(String),
    /// A slot-for-slot arena dump — for pre-built trees, compacted
    /// journals and recovered logs, where no source reproduces the arena.
    Snapshot(TreeSnapshot),
}

/// The elements whose local `T ⊨ D` conditions (Definition 2.2: children
/// word, attribute set, value shapes) edits may have changed since the
/// last successful recheck — what lets a commit re-validate only them.
#[derive(Debug)]
enum Touched {
    /// Unknown (a fresh, recovered or quarantined document): the next
    /// recheck validates the whole tree.
    All,
    /// Exactly these, possibly repeated or detached since.  Empty means
    /// the last report's structural errors still hold verbatim.
    Elements(Vec<NodeId>),
}

impl Touched {
    /// Records the elements one applied edit can have changed.  Replacing
    /// an attribute's value changes none: the attribute set and every
    /// value's presence stay the same.
    fn note(&mut self, tree: &XmlTree, effect: &EditEffect) {
        let Touched::Elements(nodes) = self else {
            return;
        };
        match *effect {
            EditEffect::AttrSet {
                element, old: None, ..
            } => nodes.push(element),
            EditEffect::AttrSet { .. } => {}
            EditEffect::ElementAdded {
                element, parent, ..
            } => nodes.extend([parent, element]),
            EditEffect::TextAdded { parent, .. } => nodes.push(parent),
            // Tombstones keep their parent link.
            EditEffect::SubtreeRemoved { root, .. } => {
                nodes.extend(tree.parent(root));
            }
        }
    }
}

#[derive(Debug)]
struct CorpusDoc {
    label: String,
    tree: XmlTree,
    index: IncrementalIndex,
    /// Elements to re-validate at the next recheck.
    touched: Touched,
    journal: EditJournal,
    /// `base` + `journal` entries reconstruct `tree`.
    base: RecoveryBase,
    /// Edits known durable in a log ([`CorpusSession::persist_to`] raises
    /// it): the watermark [`CorpusSession::compact`] folds up to.
    durable_edits: u64,
    /// `Some(cause)` after a contained panic mid-apply: the tree/index pair
    /// may be inconsistent, so edits and verdicts are refused until
    /// [`CorpusSession::recover`] clears it.
    poisoned: Option<String>,
    /// A verdict consumed the index's dirty constraints since the last
    /// commit, so the next change cannot be tagged with the shards they
    /// dirtied and is broadcast instead.
    verdict_drained: bool,
    /// Position in open order (recomputed only after a close).
    position: usize,
    /// Report as of the last commit; `None` before the first commit that
    /// sees this document.
    report: Option<DocReport>,
    /// Clean state at the last commit; `None` until then.
    committed_clean: Option<bool>,
}

impl CorpusDoc {
    /// The recovery base with the first `entries` journal entries replayed
    /// onto it.
    fn rebuild(&self, spec: &CompiledSpec, pool: &ValuePool, entries: usize) -> XmlTree {
        let mut tree = match &self.base {
            RecoveryBase::Source(source) => spec
                .parse_document_budgeted(source, pool.fork(), &ParseBudget::UNLIMITED)
                .map_err(|(err, _)| err)
                .expect("a source that parsed at open re-parses"),
            RecoveryBase::Snapshot(snapshot) => XmlTree::from_snapshot(snapshot)
                .expect("recovery snapshots are self-made and reconstruct exactly"),
        };
        for (op, _) in &self.journal.entries()[..entries] {
            tree.apply_edit(op)
                .expect("journaled ops replay deterministically onto their base");
        }
        tree
    }
}

/// The open, unquarantined document behind `handle`.
fn healthy(
    docs: &mut BTreeMap<u64, CorpusDoc>,
    handle: DocHandle,
) -> Result<&mut CorpusDoc, SessionError> {
    let doc = docs
        .get_mut(&handle.raw())
        .ok_or(SessionError::UnknownHandle(handle))?;
    if let Some(cause) = &doc.poisoned {
        return Err(SessionError::Poisoned {
            handle,
            cause: cause.clone(),
        });
    }
    Ok(doc)
}

/// One document's structural errors (`T ⊨ D`), re-deriving as little as
/// its touched set allows:
///
/// * nothing touched (value edits only): the last report's errors, verbatim;
/// * the last report was structurally clean: if every touched live element
///   passes its local check, still clean — no other element's conditions
///   changed, and edits never relabel the root;
/// * otherwise the whole tree, through [`xic_xml::Validator::validate`]:
///   error paths are positional (`kind0[3]`), so only a full pass keeps the
///   report byte-identical to a cold [`crate::BatchEngine`] one.
fn revalidate(
    validator: &xic_xml::Validator<'_>,
    instr: &CorpusInstruments,
    doc: &mut CorpusDoc,
) -> Vec<String> {
    let previous = doc.report.as_ref().map(|r| &r.validation_errors);
    let mut checked = 0;
    if let (Touched::Elements(nodes), Some(previous)) = (&mut doc.touched, previous) {
        if nodes.is_empty() {
            instr.validated_elements.record(0);
            return previous.clone();
        }
        if previous.is_empty() {
            nodes.sort_unstable();
            nodes.dedup();
            nodes.retain(|&n| !doc.tree.is_detached(n));
            checked = nodes.len();
            if validator.validate_elements(&doc.tree, nodes).is_empty() {
                instr.validated_elements.record(checked as u64);
                return Vec::new();
            }
        }
    }
    instr.validate_full.inc();
    checked += doc.tree.elements().count();
    instr.validated_elements.record(checked as u64);
    validator
        .validate(&doc.tree)
        .iter()
        .map(|e| e.to_string())
        .collect()
}

/// A corpus-level validation session: many open documents validated against
/// one [`CompiledSpec`], sharing one value pool and one incremental layout,
/// with per-document dirty tracking and [`BatchDelta`] diff commits.
///
/// ```
/// use xic_engine::{CompiledSpec, CorpusSession};
/// use xic_xml::EditOp;
///
/// let spec = CompiledSpec::from_sources(
///     "<!ELEMENT school (teacher*)>\n\
///      <!ELEMENT teacher EMPTY>\n\
///      <!ATTLIST teacher name CDATA #REQUIRED>",
///     Some("school"),
///     "teacher.name -> teacher",
/// )
/// .unwrap();
///
/// let mut corpus = CorpusSession::new(&spec);
/// let a = corpus
///     .open_source("a.xml", "<school><teacher name=\"Joe\"/></school>")
///     .unwrap();
/// let b = corpus
///     .open_source("b.xml", "<school><teacher name=\"Ann\"/></school>")
///     .unwrap();
/// let delta = corpus.commit();
/// assert_eq!((delta.total, delta.clean), (2, 2));
///
/// // One edit dirties one document; the next commit re-checks only it.
/// let ann = corpus.tree(b).unwrap().elements().nth(1).unwrap();
/// let name = spec.dtd().attr_by_name("name").unwrap();
/// corpus
///     .apply(b, &[EditOp::SetAttr { element: ann, attr: name, value: "Joe".into() }])
///     .unwrap();
/// let delta = corpus.commit();
/// assert_eq!(delta.rechecked_docs, 1);
/// assert!(delta.is_empty(), "b is still clean on its own — no change to report");
///
/// // Per-document verdicts between commits: renaming Joe to Ann breaks a's
/// // key, and only the touched constraint is re-checked.
/// let a_root = corpus.tree(a).unwrap().root();
/// let teacher = spec.dtd().type_by_name("teacher").unwrap();
/// corpus.apply(a, &[EditOp::AddElement { parent: a_root, ty: teacher }]).unwrap();
/// let added = corpus.tree(a).unwrap().elements().nth(2).unwrap();
/// corpus
///     .apply(a, &[EditOp::SetAttr { element: added, attr: name, value: "Joe".into() }])
///     .unwrap();
/// assert!(!corpus.verdict(a).unwrap().is_clean());
/// ```
#[derive(Debug)]
pub struct CorpusSession<'s> {
    spec: &'s CompiledSpec,
    /// Open documents in handle (= open) order.
    docs: BTreeMap<u64, CorpusDoc>,
    /// The corpus interner: forked into every parse, re-forked back after,
    /// so the whole corpus shares value allocations and prefix ids.
    pool: ValuePool,
    /// Handles dirtied (opened or edited) since the last commit, in order.
    dirty: Vec<u64>,
    /// Documents closed since the last commit, in close order.
    closed: Vec<ClosedDoc>,
    /// Number of open documents whose *committed* state is clean.
    clean_docs: usize,
    /// Whether a close invalidated the cached open-order positions.
    positions_stale: bool,
    next_handle: u64,
    commits: u64,
    /// Committed deltas retained for [`CorpusSession::export_deltas`]
    /// (contiguous; `history[0].seq == history_base`).
    history: Vec<BatchDelta>,
    /// Sequence number of the oldest retained delta (1 until
    /// [`CorpusSession::prune_deltas`] drops a prefix).
    history_base: u64,
    instr: CorpusInstruments,
    limits: Limits,
    /// Edits admitted since the last commit (the queue a
    /// [`Limits::max_queued_ops`] bound compares against).
    queued_ops: usize,
    /// Progress a deadline-aborted [`CorpusSession::try_commit`] already
    /// made: re-checked changes waiting for the commit that will announce
    /// them (work done is never redone, and never half-announced).
    staged_changes: Vec<DocChange>,
    /// Documents re-checked by aborted commit attempts since the last
    /// announced delta.
    staged_rechecked: usize,
    /// When set, commits recompute only the constraints of the scoped
    /// shards and reports carry the shard projection (see
    /// [`CorpusSession::scope_to_shards`]).
    shard_scope: Option<ShardScope>,
}

/// A fixed shard scope: per-constraint keep mask derived from the spec's
/// [`ShardPlan`] once at [`CorpusSession::scope_to_shards`] time.
#[derive(Debug)]
struct ShardScope {
    keep: Vec<bool>,
}

impl<'s> CorpusSession<'s> {
    /// An empty corpus over the given compiled specification, recording its
    /// metrics (`corpus.*` instruments, including the `corpus.dirty_docs`
    /// and `corpus.queued_ops` backpressure gauges) on the process-global
    /// registry.
    pub fn new(spec: &'s CompiledSpec) -> CorpusSession<'s> {
        CorpusSession::with_registry(spec, Arc::clone(xic_telemetry::global()))
    }

    /// A corpus recording its metrics on an explicit registry (per-tenant
    /// isolation, or a private registry in tests).
    pub fn with_registry(
        spec: &'s CompiledSpec,
        registry: Arc<MetricsRegistry>,
    ) -> CorpusSession<'s> {
        CorpusSession {
            spec,
            docs: BTreeMap::new(),
            pool: ValuePool::new(),
            dirty: Vec::new(),
            closed: Vec::new(),
            clean_docs: 0,
            positions_stale: false,
            next_handle: 0,
            commits: 0,
            history: Vec::new(),
            history_base: 1,
            instr: CorpusInstruments::on(registry),
            limits: Limits::UNLIMITED,
            queued_ops: 0,
            staged_changes: Vec::new(),
            staged_rechecked: 0,
            shard_scope: None,
        }
    }

    /// A corpus that enforces [`Limits`] at admission: oversized sources
    /// and trees are refused at open, edit batches that would blow a bound
    /// are rejected whole by [`CorpusSession::apply`], and
    /// [`CorpusSession::try_commit`] honors the soft deadline.
    pub fn with_limits(spec: &'s CompiledSpec, limits: Limits) -> CorpusSession<'s> {
        let mut corpus = CorpusSession::new(spec);
        corpus.limits = limits;
        corpus
    }

    /// A corpus with both an explicit registry and admission limits — the
    /// validation service's per-tenant constructor ([`Limits`] govern
    /// admission, the registry isolates the tenant's instruments).
    pub fn with_registry_and_limits(
        spec: &'s CompiledSpec,
        limits: Limits,
        registry: Arc<MetricsRegistry>,
    ) -> CorpusSession<'s> {
        let mut corpus = CorpusSession::with_registry(spec, registry);
        corpus.limits = limits;
        corpus
    }

    /// Restricts this session to a subset of the spec's shards: commits
    /// recompute only the dirty constraints of the scoped shards (the
    /// observable saving in `incremental.constraints_rechecked` and
    /// `shard.rechecked`) and out-of-scope constraints never surface in
    /// reports or deltas — the session's [`CorpusSession::report`] is the
    /// shard projection of an unscoped session's, exactly.  This is the
    /// per-shard worker of a fanned-out commit: run one scoped session per
    /// shard group and each re-evaluates only the shards its touch-set
    /// intersects.
    ///
    /// # Panics
    /// Panics if any document was already opened (out-of-scope verdicts
    /// cached before the scope was set would go stale silently) or a shard
    /// id is out of range for the spec's [`ShardPlan`].
    pub fn scope_to_shards(&mut self, shards: &[u32]) {
        assert!(
            self.docs.is_empty() && self.commits == 0 && self.closed.is_empty(),
            "scope_to_shards must run before any document opens"
        );
        let plan = self.spec.shard_plan();
        let mut in_scope = vec![false; plan.num_shards()];
        for &s in shards {
            assert!(
                (s as usize) < plan.num_shards(),
                "shard {s} out of range: the plan has {} shards",
                plan.num_shards()
            );
            in_scope[s as usize] = true;
        }
        let keep = (0..plan.num_checks())
            .map(|i| in_scope[plan.shard_of_check(i) as usize])
            .collect();
        self.shard_scope = Some(ShardScope { keep });
    }

    /// The resource bounds this corpus enforces.
    pub fn limits(&self) -> &Limits {
        &self.limits
    }

    /// The registry this corpus's instruments record into.
    pub fn registry(&self) -> &Arc<MetricsRegistry> {
        &self.instr.registry
    }

    /// The specification the corpus validates against.
    pub fn spec(&self) -> &CompiledSpec {
        self.spec
    }

    /// Number of open documents.
    pub fn num_docs(&self) -> usize {
        self.docs.len()
    }

    /// The corpus-level value pool (the master interner documents fork).
    pub fn pool(&self) -> &ValuePool {
        &self.pool
    }

    /// Open handles in open order.
    pub fn handles(&self) -> impl Iterator<Item = DocHandle> + '_ {
        self.docs.keys().map(|&raw| DocHandle::new(raw))
    }

    /// Parses XML source against the spec's DTD and opens it under `label`.
    /// The parse inherits the corpus pool by [`ValuePool::fork`]; the grown
    /// pool is re-forked back, so every value the document introduced is
    /// already interned for the next open or edit.
    ///
    /// Under [`Limits`], admission is checked before the parse spends
    /// anything (a full dirty set rejects immediately) and the parse itself
    /// is budgeted — byte, node and depth bounds reject as
    /// [`SessionError::Resource`].
    pub fn open_source(
        &mut self,
        label: impl Into<String>,
        source: &str,
    ) -> Result<DocHandle, SessionError> {
        let label = label.into();
        self.check_admission(&label)
            .map_err(SessionError::Resource)?;
        let budget = self.limits.parse_budget();
        let tree = match self
            .spec
            .parse_document_budgeted(source, self.pool.fork(), &budget)
        {
            Ok(tree) => tree,
            Err((ParseError::Xml(err), _)) => return Err(SessionError::Parse(err)),
            Err((ParseError::Budget(b), _)) => {
                return Err(SessionError::Resource(ResourceError::from_budget(
                    b,
                    format!("open `{label}`"),
                )))
            }
        };
        self.pool = tree.pool().fork();
        let base = RecoveryBase::Source(source.to_owned());
        Ok(self.admit(label, tree, base, EditJournal::new()))
    }

    /// Opens a pre-built tree under `label`.  Its values are absorbed into
    /// the corpus pool (allocations shared, ids untouched) so future opens
    /// and edits stay warm.  Under [`Limits`] the tree is bounded the same
    /// way a parsed source is: admission, node count and nesting depth are
    /// checked before anything is shared or indexed.
    pub fn open(
        &mut self,
        label: impl Into<String>,
        tree: XmlTree,
    ) -> Result<DocHandle, SessionError> {
        let label = label.into();
        self.check_admission(&label)
            .map_err(SessionError::Resource)?;
        limits::admit_tree(&self.limits, &tree, &format!("open `{label}`"))
            .map_err(SessionError::Resource)?;
        self.pool.absorb(tree.pool());
        let base = RecoveryBase::Snapshot(tree.snapshot());
        Ok(self.admit(label, tree, base, EditJournal::new()))
    }

    /// Admission guard shared by the open paths: a bounded dirty set sheds
    /// load *before* the parse or index build spends anything.
    fn check_admission(&self, label: &str) -> Result<(), ResourceError> {
        if let Some(max) = self.limits.max_dirty_docs {
            let projected = self.dirty.len() + 1;
            if projected > max {
                return Err(ResourceError::new(
                    LimitKind::DirtyDocs,
                    max as u64,
                    projected as u64,
                    format!("open `{label}`: commit to drain the dirty set"),
                ));
            }
        }
        Ok(())
    }

    /// Indexes and registers a document whose `base` plus `journal`
    /// entries reconstruct `tree`; everything recorded so far counts as
    /// durable (nothing newer exists to lose).
    fn admit(
        &mut self,
        label: String,
        tree: XmlTree,
        base: RecoveryBase,
        journal: EditJournal,
    ) -> DocHandle {
        let layout = Arc::clone(self.spec.incremental_layout());
        let index = IncrementalIndex::with_layout(layout, &tree);
        let handle = DocHandle::new(self.next_handle);
        self.next_handle += 1;
        // Handles grow monotonically, so the newcomer is last in open order.
        let position = self.docs.len();
        self.docs.insert(
            handle.raw(),
            CorpusDoc {
                label,
                tree,
                index,
                touched: Touched::All,
                durable_edits: journal.total_recorded(),
                journal,
                base,
                poisoned: None,
                verdict_drained: false,
                position,
                report: None,
                committed_clean: None,
            },
        );
        self.dirty.push(handle.raw());
        self.instr.dirty_docs.set(self.dirty.len() as i64);
        self.instr.open_docs.set(self.docs.len() as i64);
        handle
    }

    /// Read-only access to an open document's tree.
    pub fn tree(&self, handle: DocHandle) -> Result<&XmlTree, SessionError> {
        self.docs
            .get(&handle.raw())
            .map(|d| &d.tree)
            .ok_or(SessionError::UnknownHandle(handle))
    }

    /// An open document's label.
    pub fn label(&self, handle: DocHandle) -> Result<&str, SessionError> {
        self.docs
            .get(&handle.raw())
            .map(|d| d.label.as_str())
            .ok_or(SessionError::UnknownHandle(handle))
    }

    /// The handle of the open document labelled `label`, if any (first
    /// match in open order; labels need not be unique — handles are the
    /// stable identity).
    pub fn handle_by_label(&self, label: &str) -> Option<DocHandle> {
        self.docs
            .iter()
            .find(|(_, d)| d.label == label)
            .map(|(&raw, _)| DocHandle::new(raw))
    }

    /// The document's complete edit history since it was opened.
    pub fn journal(&self, handle: DocHandle) -> Result<&EditJournal, SessionError> {
        self.docs
            .get(&handle.raw())
            .map(|d| &d.journal)
            .ok_or(SessionError::UnknownHandle(handle))
    }

    /// Applies a batch of edits to one document; the document joins the
    /// dirty set and is re-checked at the next [`CorpusSession::commit`].
    /// Rejected ops leave the earlier ops of the batch applied (the error
    /// reports how many) with indexes still exact.
    ///
    /// [`Limits`] rejections ([`SessionError::Resource`]) are different:
    /// they are checked **before** any op is applied, so the batch comes
    /// back whole in the error's echo and the document is untouched —
    /// commit to drain the queue, then retry.  A quarantined document is
    /// refused the same way ([`SessionError::Poisoned`]).
    ///
    /// A panic *inside* the edit loop (the `corpus.apply` failpoint, or a
    /// bug in edit or index maintenance) is contained here: the document is
    /// quarantined instead of the process dying, the next commit reports it
    /// as a [`DocFault::Panic`], and its journal keeps exactly the
    /// fully-recorded ops — the consistent history
    /// [`CorpusSession::recover`] replays.
    pub fn apply(&mut self, handle: DocHandle, ops: &[EditOp]) -> Result<(), SessionError> {
        let limits = self.limits;
        let queued = self.queued_ops;
        let doc = healthy(&mut self.docs, handle)?;
        let newly_dirty = !self.dirty.contains(&handle.raw());
        if newly_dirty {
            if let Some(max) = limits.max_dirty_docs {
                let projected = self.dirty.len() + 1;
                if projected > max {
                    return Err(SessionError::Resource(
                        ResourceError::new(
                            LimitKind::DirtyDocs,
                            max as u64,
                            projected as u64,
                            format!("{handle} (`{}`): commit to drain the dirty set", doc.label),
                        )
                        .with_rejected(limits::echo_ops(ops)),
                    ));
                }
            }
        }
        limits::admit_ops(
            &limits,
            &doc.tree,
            queued,
            ops,
            &format!("{handle} (`{}`)", doc.label),
        )
        .map_err(SessionError::Resource)?;
        if newly_dirty {
            self.dirty.push(handle.raw());
            self.instr.dirty_docs.set(self.dirty.len() as i64);
        }
        // Timed per batch, not per op: one clock pair amortized over the
        // whole edit slice keeps instrumentation inside the overhead budget.
        let timer = self.instr.registry.start_timer();
        let recorded_before = doc.journal.total_recorded();
        let caught = catch_unwind(AssertUnwindSafe(|| {
            if xic_telemetry::faults::hit("corpus.apply") {
                panic!("injected fault: corpus.apply");
            }
            apply_ops(&mut doc.tree, &mut doc.index, &mut doc.journal, ops)
        }));
        // Only fully-recorded ops count as applied, panic or not.
        let applied = doc.journal.total_recorded() - recorded_before;
        // A panicked batch quarantines the document instead; `recover`
        // then marks it for whole-document validation.
        if caught.is_ok() {
            let first = (recorded_before - doc.journal.folded()) as usize;
            for (_, effect) in &doc.journal.entries()[first..] {
                doc.touched.note(&doc.tree, effect);
            }
        }
        self.instr.edits.add(applied);
        self.queued_ops += applied as usize;
        self.instr.queued_ops.add(applied as i64);
        if let Some(t) = timer {
            self.instr.apply_ns.record_elapsed(t);
        }
        caught.unwrap_or_else(|payload| {
            let cause = crate::batch::panic_cause(payload);
            crate::batch::resilience_instruments().0.inc();
            doc.poisoned = Some(cause.clone());
            Err(SessionError::Poisoned { handle, cause })
        })
    }

    /// One document's current `T ⊨ Σ` verdict, recomputing only the
    /// constraints its edits since the last verdict dirtied — O(edit), no
    /// commit needed.  Under [`CorpusSession::scope_to_shards`] only
    /// in-scope constraints are checked, exactly as commits do.
    pub fn verdict(&mut self, handle: DocHandle) -> Result<SessionVerdict, SessionError> {
        let doc = healthy(&mut self.docs, handle)?;
        Ok(Self::verdict_of(doc, self.shard_scope.as_ref()))
    }

    fn verdict_of(doc: &mut CorpusDoc, scope: Option<&ShardScope>) -> SessionVerdict {
        doc.verdict_drained |= doc.index.pending() > 0;
        let violations = match scope {
            Some(s) => doc.index.check_all_where(&doc.tree, |i| s.keep[i]),
            None => doc.index.check_all(&doc.tree),
        };
        SessionVerdict {
            violations,
            rechecked: doc.index.rechecked(),
            edits_applied: doc.journal.total_recorded(),
        }
    }

    /// Whether a document is quarantined after a contained panic (see
    /// [`SessionError::Poisoned`]).
    pub fn is_poisoned(&self, handle: DocHandle) -> Result<bool, SessionError> {
        self.docs
            .get(&handle.raw())
            .map(|d| d.poisoned.is_some())
            .ok_or(SessionError::UnknownHandle(handle))
    }

    /// Rebuilds a document from its recovery base plus its journal — the
    /// fully-recorded, known-consistent history — clearing any quarantine
    /// and returning a fresh verdict.  The document rejoins the dirty set,
    /// so the next commit re-checks it and heals a reported
    /// [`DocFault::Panic`].  Safe on healthy documents too: the rebuilt
    /// state is identical to the live one.
    pub fn recover(&mut self, handle: DocHandle) -> Result<SessionVerdict, SessionError> {
        let doc = self
            .docs
            .get_mut(&handle.raw())
            .ok_or(SessionError::UnknownHandle(handle))?;
        let tree = doc.rebuild(self.spec, &self.pool, doc.journal.len());
        doc.index =
            IncrementalIndex::with_layout(Arc::clone(self.spec.incremental_layout()), &tree);
        doc.tree = tree;
        doc.touched = Touched::All;
        doc.poisoned = None;
        if !self.dirty.contains(&handle.raw()) {
            self.dirty.push(handle.raw());
            self.instr.dirty_docs.set(self.dirty.len() as i64);
        }
        Ok(Self::verdict_of(doc, self.shard_scope.as_ref()))
    }

    /// Persists one document to an append-only delta log at `path` (see
    /// [`crate::journal`] for the format).
    ///
    /// The first persist writes the log header plus a **base record** — a
    /// slot-for-slot snapshot of the current tree, folding every edit
    /// recorded so far.  Later persists to the same path append exactly the
    /// journal entries the log lacks (after verifying the shared history
    /// matches op-for-op), truncating a torn tail left by an earlier crash
    /// first.  After a successful persist every recorded edit is durable,
    /// so [`CorpusSession::compact`] may drop the in-memory prefix.
    pub fn persist_to(
        &mut self,
        handle: DocHandle,
        path: impl AsRef<Path>,
    ) -> Result<PersistReceipt, JournalError> {
        let doc = self
            .docs
            .get_mut(&handle.raw())
            .ok_or(JournalError::UnknownHandle {
                handle: handle.raw(),
            })?;
        let receipt =
            journal::persist_session_doc(path.as_ref(), self.spec.id(), &doc.tree, &doc.journal)?;
        doc.durable_edits = doc.journal.total_recorded();
        Ok(receipt)
    }

    /// Recovers a document from a log written by
    /// [`CorpusSession::persist_to`] and opens it under `label`.
    ///
    /// A partially written final record (a crash mid-append) is a **torn
    /// tail**: it is dropped and the last durable prefix is recovered —
    /// verdicts are then witness-identical to a live session that replayed
    /// the same prefix (`tests/journal_recovery.rs` proves this under
    /// truncation and corruption at every byte boundary).  Anything
    /// structurally unsound — wrong spec, damaged non-final records,
    /// undecodable payloads, snapshots or ops violating tree/DTD
    /// invariants — is rejected with a structured [`JournalError`]; wrong
    /// verdicts are never produced.
    pub fn recover_from(
        &mut self,
        label: impl Into<String>,
        path: impl AsRef<Path>,
    ) -> Result<Recovery, JournalError> {
        let log = journal::read_session_log(path, self.spec.id())?;
        journal::validate_log_against_dtd(&log, self.spec.dtd())?;
        let mut tree = XmlTree::from_snapshot(&log.base)?;
        let mut history = EditJournal::with_folded(log.base_edits);
        for (i, op) in log.ops.iter().enumerate() {
            let effect = tree.apply_edit(op).map_err(|error| JournalError::Replay {
                op_index: log.base_edits + i as u64,
                error,
            })?;
            history.record(op.clone(), effect);
        }
        self.pool.absorb(tree.pool());
        let handle = self.admit(
            label.into(),
            tree,
            RecoveryBase::Snapshot(log.base),
            history,
        );
        Ok(Recovery {
            handle,
            base_edits: log.base_edits,
            ops_replayed: log.ops.len() as u64,
            truncated_tail: log.truncated,
        })
    }

    /// Drops the journal entries already durable in a log (the prefix a
    /// [`CorpusSession::persist_to`] covered), bounding the in-memory
    /// journal of a long-lived document; returns how many were dropped.
    /// The dropped prefix is first folded into the recovery base, so
    /// [`CorpusSession::recover`] keeps working, and the log — not the
    /// in-memory journal — stays the full history.
    pub fn compact(&mut self, handle: DocHandle) -> Result<usize, SessionError> {
        let doc = self
            .docs
            .get_mut(&handle.raw())
            .ok_or(SessionError::UnknownHandle(handle))?;
        let folded = doc.journal.folded();
        if doc.durable_edits > folded {
            let to_fold = (doc.durable_edits - folded) as usize;
            let base = doc.rebuild(self.spec, &self.pool, to_fold);
            doc.base = RecoveryBase::Snapshot(base.snapshot());
        }
        Ok(doc.journal.compact(doc.durable_edits))
    }

    /// Edits of this document known durable in a log (the compaction
    /// watermark).
    pub fn durable_edits(&self, handle: DocHandle) -> Result<u64, SessionError> {
        self.docs
            .get(&handle.raw())
            .map(|d| d.durable_edits)
            .ok_or(SessionError::UnknownHandle(handle))
    }

    /// Closes a document, handing its (edited) tree back.  The close is
    /// reported in the next commit's [`BatchDelta::closed`].
    pub fn close(&mut self, handle: DocHandle) -> Result<XmlTree, SessionError> {
        let doc = self
            .docs
            .remove(&handle.raw())
            .ok_or(SessionError::UnknownHandle(handle))?;
        self.dirty.retain(|&raw| raw != handle.raw());
        if doc.committed_clean == Some(true) {
            self.clean_docs -= 1;
        }
        self.positions_stale = true;
        self.closed.push(ClosedDoc {
            handle,
            label: doc.label,
        });
        self.instr.dirty_docs.set(self.dirty.len() as i64);
        self.instr.open_docs.set(self.docs.len() as i64);
        Ok(doc.tree)
    }

    /// Re-checks exactly the dirty documents and returns the diff against
    /// the previous commit.  Both halves of the verdict are incremental:
    /// `T ⊨ Σ` recomputes only the constraints the edits dirtied, and
    /// `T ⊨ D` re-validates only the elements they touched (an element
    /// that gained an attribute, a child or lost a subtree, and every new
    /// element).  Value-only edits reuse the previous structural errors;
    /// a structurally clean document whose touched elements all pass stays
    /// clean; anything else — a touched element fails, the document already
    /// had structural errors, or it is fresh, recovered or was quarantined
    /// — falls back to validating the whole tree, so reports stay
    /// byte-identical to a cold [`crate::BatchEngine`] run.  Clean
    /// documents cost nothing — their reports are cached from the commit
    /// that produced them, the corpus-wide counters are maintained
    /// incrementally, and open-order positions are renumbered only when a
    /// close shifted them.
    ///
    /// Ignores [`Limits::deadline`] — a plain `commit` always runs the
    /// dirty set to completion.  Use [`CorpusSession::try_commit`] for the
    /// deadline-honoring variant.
    pub fn commit(&mut self) -> BatchDelta {
        self.commit_inner(None)
            .expect("an unbounded commit cannot be rejected")
    }

    /// Like [`CorpusSession::commit`], but honoring [`Limits::deadline`]:
    /// if re-checking would run past the soft deadline, the commit stops
    /// *between* documents (work is never cut off mid-document) and returns
    /// a [`ResourceError`] naming how far it got.  Progress is staged, not
    /// lost — re-checked documents stay done, un-checked ones stay dirty,
    /// and no delta is announced (the sequence number does not advance), so
    /// the next `try_commit` resumes where this one stopped and announces
    /// one combined delta.
    pub fn try_commit(&mut self) -> Result<BatchDelta, ResourceError> {
        let deadline = self.limits.deadline.map(|budget| (Instant::now(), budget));
        self.commit_inner(deadline)
    }

    fn commit_inner(
        &mut self,
        deadline: Option<(Instant, std::time::Duration)>,
    ) -> Result<BatchDelta, ResourceError> {
        let commit_timer = self.instr.registry.start_timer();
        let dirty = std::mem::take(&mut self.dirty);
        let closed = std::mem::take(&mut self.closed);

        if self.positions_stale {
            for (position, doc) in self.docs.values_mut().enumerate() {
                doc.position = position;
            }
            self.positions_stale = false;
        }

        let validator = self.spec.validator();
        // Resume from progress a deadline-aborted attempt staged.
        let mut changes = std::mem::take(&mut self.staged_changes);
        let mut rechecked_docs = std::mem::take(&mut self.staged_rechecked);
        let mut violations_added = 0u64;
        let mut violations_removed = 0u64;
        for (i, &raw) in dirty.iter().enumerate() {
            if let Some((started, budget)) = deadline {
                // `>=` so a zero deadline deterministically stops at once.
                let elapsed = started.elapsed();
                if elapsed >= budget {
                    // Stop between documents: stage the finished rechecks,
                    // restore the unprocessed dirty tail and the closes,
                    // announce nothing.
                    self.staged_changes = changes;
                    self.staged_rechecked = rechecked_docs;
                    self.dirty = dirty[i..].to_vec();
                    self.closed = closed;
                    self.instr.dirty_docs.set(self.dirty.len() as i64);
                    self.instr.violations_added.add(violations_added);
                    self.instr.violations_removed.add(violations_removed);
                    if let Some(t) = commit_timer {
                        self.instr.commit_ns.record_elapsed(t);
                    }
                    return Err(ResourceError::new(
                        LimitKind::Deadline,
                        budget.as_millis() as u64,
                        elapsed.as_millis() as u64,
                        format!(
                            "commit: {i} of {} dirty documents re-checked this attempt; {} remain",
                            dirty.len(),
                            dirty.len() - i
                        ),
                    ));
                }
            }
            rechecked_docs += 1;
            let Some(doc) = self.docs.get_mut(&raw) else {
                // Dirtied, then closed before the commit (close() retains
                // the dirty list, but guard against future reorderings).
                continue;
            };
            // Which shards the pending edits can affect — snapshotted
            // *before* the recheck drains the constraint dirty set.
            let plan = self.spec.shard_plan();
            let dirty_checks = doc.index.pending();
            let mut dirty_shards: Vec<u32> = doc
                .index
                .dirty_checks()
                .iter()
                .map(|&i| plan.shard_of_check(i))
                .collect();
            dirty_shards.sort_unstable();
            dirty_shards.dedup();
            let (validation_errors, violations, fault, rebuilt) = match &doc.poisoned {
                // A quarantined document's indexes may be mid-update: report
                // the contained apply panic, as recheck quarantine does,
                // until `recover` rebuilds it.
                Some(cause) => {
                    let fault = DocFault::Panic {
                        cause: cause.clone(),
                    };
                    (Vec::new(), Vec::new(), Some(fault), true)
                }
                None => {
                    let recheck_timer = self.instr.registry.start_timer();
                    let outcome = Self::recheck_contained(
                        self.spec,
                        &validator,
                        &self.instr,
                        doc,
                        self.shard_scope.as_ref(),
                    );
                    if let Some(t) = recheck_timer {
                        self.instr.recheck_ns.record_elapsed(t);
                    }
                    // Scoped commits recompute only in-scope dirty
                    // constraints; the rest were dropped, not rechecked.
                    let kept = doc.index.rechecked();
                    self.instr.shard_rechecked.add(kept as u64);
                    self.instr
                        .shard_skipped
                        .add(dirty_checks.saturating_sub(kept) as u64);
                    outcome
                }
            };
            // Exact per-commit violation churn: the previous report is
            // still at hand here, which a bare BatchDelta never has.
            let previous_violations = doc.report.as_ref().map_or(0, |r| r.violations.len());
            violations_added += violations.len().saturating_sub(previous_violations) as u64;
            violations_removed += previous_violations.saturating_sub(violations.len()) as u64;
            let fresh = DocReport {
                index: doc.position,
                label: doc.label.clone(),
                parse_error: None,
                validation_errors,
                violations,
                fault,
            };
            let was_clean = doc.committed_clean;
            let now_clean = fresh.is_clean();
            match (was_clean, now_clean) {
                (Some(true), false) => self.clean_docs -= 1,
                (Some(false), true) | (None, true) => self.clean_docs += 1,
                _ => {}
            }
            // Any observable difference enters the stream — not just
            // clean ↔ violating flips: a document that trades one violation
            // for another must reach subscribers too, or their replicas
            // drift from `report()`.
            let changed = match &doc.report {
                None => true,
                Some(previous) => {
                    previous.validation_errors != fresh.validation_errors
                        || previous.violations != fresh.violations
                        || previous.fault != fresh.fault
                }
            };
            // Shard tag: opens, structural/fault churn, panic-rebuilt
            // rechecks and verdicts that already drained the dirty
            // constraints are shard-independent, so they broadcast; a pure
            // Σ-violation change can only have happened in a dirty shard
            // (clean shards served their cached verdicts).
            let drained = std::mem::take(&mut doc.verdict_drained);
            let broadcast = was_clean.is_none()
                || rebuilt
                || drained
                || match &doc.report {
                    None => true,
                    Some(previous) => {
                        previous.validation_errors != fresh.validation_errors
                            || previous.fault != fresh.fault
                    }
                };
            doc.committed_clean = Some(now_clean);
            doc.report = Some(fresh.clone());
            if changed {
                changes.push(DocChange {
                    handle: DocHandle::new(raw),
                    was_clean,
                    report: fresh,
                    shards: if broadcast {
                        plan.all_shards().collect()
                    } else {
                        dirty_shards
                    },
                });
            }
        }
        // The dirty list is in dirtying order (staged changes from an
        // aborted attempt may precede newer handles); the stream contract
        // is open order.
        changes.sort_by_key(|c| c.handle);

        self.commits += 1;
        // Delta tag: the union of the change tags, widened to every shard
        // when a close rides along (closes are shard-independent and every
        // filtered subscriber must drop the document).
        let mut delta_shards: BTreeSet<u32> = changes
            .iter()
            .flat_map(|c| c.shards.iter().copied())
            .collect();
        if !closed.is_empty() {
            delta_shards.extend(self.spec.shard_plan().all_shards());
        }
        let delta = BatchDelta {
            seq: self.commits,
            changes,
            closed,
            rechecked_docs,
            total: self.docs.len(),
            clean: self.clean_docs,
            shards: delta_shards.into_iter().collect(),
        };
        self.instr.shard_deltas.add(delta.shards.len() as u64);
        self.instr.shard_touched.record(delta.shards.len() as u64);
        self.history.push(delta.clone());
        self.instr.commits.inc();
        self.instr.violations_added.add(violations_added);
        self.instr.violations_removed.add(violations_removed);
        self.instr.delta_changes.record(delta.changes.len() as u64);
        // The commit drained the dirty set and its queued edits.
        self.queued_ops = 0;
        self.instr.dirty_docs.set(0);
        self.instr.queued_ops.set(0);
        self.instr.open_docs.set(self.docs.len() as i64);
        if let Some(t) = commit_timer {
            self.instr.commit_ns.record_elapsed(t);
        }
        Ok(delta)
    }

    /// One document's re-check, panic-contained.  A panic (the
    /// `corpus.recheck` failpoint, or a genuine bug in constraint
    /// re-evaluation) quarantines nothing corpus-wide: the incremental
    /// index — the stateful, possibly mid-update part — is rebuilt from the
    /// tree and the check retried once; if even the rebuilt index panics,
    /// the document's report carries a [`DocFault::Panic`] instead of a
    /// verdict (never a wrong one) and every other document proceeds.
    /// The trailing `bool` reports whether the index-rebuild path ran: a
    /// rebuilt index recomputed *every* constraint, so the change must be
    /// broadcast to all shards rather than tagged with the edit's dirty set.
    /// The touched set is cleared only after a check succeeds, so a retry
    /// or a later commit never reuses errors that were not re-derived.
    fn recheck_contained(
        spec: &CompiledSpec,
        validator: &xic_xml::Validator<'_>,
        instr: &CorpusInstruments,
        doc: &mut CorpusDoc,
        scope: Option<&ShardScope>,
    ) -> (Vec<String>, Vec<Violation>, Option<DocFault>, bool) {
        fn run(
            validator: &xic_xml::Validator<'_>,
            instr: &CorpusInstruments,
            doc: &mut CorpusDoc,
            scope: Option<&ShardScope>,
        ) -> (Vec<String>, Vec<Violation>) {
            // Inside `run` so the injected fault exercises both attempts:
            // Nth(1) tests the transparent retry, an always-firing
            // probability tests the quarantine path.
            if xic_telemetry::faults::hit("corpus.recheck") {
                panic!("injected fault: corpus.recheck");
            }
            let validation_errors = revalidate(validator, instr, doc);
            let violations = match scope {
                Some(s) => doc.index.check_all_where(&doc.tree, |i| s.keep[i]),
                None => doc.index.check_all(&doc.tree),
            };
            doc.touched = Touched::Elements(Vec::new());
            (validation_errors, violations)
        }
        let first = catch_unwind(AssertUnwindSafe(|| run(validator, instr, doc, scope)));
        match first {
            Ok((errors, violations)) => (errors, violations, None, false),
            Err(payload) => {
                crate::batch::resilience_instruments().0.inc();
                let cause = crate::batch::panic_cause(payload);
                doc.index =
                    IncrementalIndex::with_layout(Arc::clone(spec.incremental_layout()), &doc.tree);
                match catch_unwind(AssertUnwindSafe(|| run(validator, instr, doc, scope))) {
                    Ok((errors, violations)) => (errors, violations, None, true),
                    Err(payload) => {
                        crate::batch::resilience_instruments().0.inc();
                        let retry_cause = crate::batch::panic_cause(payload);
                        // The fault report carries no structural errors to
                        // reuse: re-validate everything once it heals.
                        doc.touched = Touched::All;
                        (
                            Vec::new(),
                            Vec::new(),
                            Some(DocFault::Panic {
                                cause: format!(
                                    "{cause}; retry after index rebuild also panicked: {retry_cause}"
                                ),
                            }),
                            true,
                        )
                    }
                }
            }
        }
    }

    /// The last committed sequence number (0 before the first commit).
    pub fn last_seq(&self) -> u64 {
        self.commits
    }

    /// Ops applied since the last commit (what the
    /// [`Limits::max_queued_ops`] backpressure bound compares against).
    pub fn queued_ops(&self) -> usize {
        self.queued_ops
    }

    /// The committed deltas with sequence numbers above `after_seq`, in
    /// order — the export surface of replication: ship these to a
    /// [`crate::CorpusReplica`] (or append them to a delta log with
    /// [`crate::journal::append_delta_log`]) and the replica reconstructs
    /// [`CorpusSession::report`] exactly, with no document ever re-shipped.
    /// Fails with [`JournalError::PrunedDeltas`] when the requested window
    /// was already dropped by [`CorpusSession::prune_deltas`].
    pub fn export_deltas(&self, after_seq: u64) -> Result<&[BatchDelta], JournalError> {
        if after_seq + 1 < self.history_base {
            return Err(JournalError::PrunedDeltas {
                first_retained: self.history_base,
            });
        }
        let skip = (after_seq + 1 - self.history_base) as usize;
        Ok(&self.history[skip.min(self.history.len())..])
    }

    /// Drops retained deltas with sequence numbers `<= up_to_seq` (once
    /// every subscriber has durably consumed them), bounding the history a
    /// long-lived corpus keeps in memory.  Returns how many were dropped.
    pub fn prune_deltas(&mut self, up_to_seq: u64) -> usize {
        let droppable = (up_to_seq + 1).saturating_sub(self.history_base) as usize;
        let drop = droppable.min(self.history.len());
        self.history.drain(..drop);
        self.history_base += drop as u64;
        drop
    }

    /// Materializes the full corpus report, ordered like a
    /// [`crate::BatchEngine::validate_batch`] run over the open documents in
    /// open order — and *identical* to one on the current trees
    /// (`tests/corpus_agreement.rs` holds it to that).  O(corpus): use the
    /// [`BatchDelta`] stream for change tracking and this for snapshots.
    ///
    /// # Panics
    /// Panics if a document was opened or edited after the last commit
    /// (commit first — a snapshot of half-applied edits would be stale).
    pub fn report(&self) -> BatchReport {
        assert!(
            self.dirty.is_empty() && self.staged_changes.is_empty(),
            "report() requires a commit after every open/edit (and after a deadline-aborted try_commit)"
        );
        let reports = self
            .docs
            .values()
            .enumerate()
            .map(|(position, doc)| {
                let mut report = doc
                    .report
                    .clone()
                    .expect("committed documents always carry a report");
                report.index = position;
                report
            })
            .collect();
        BatchReport::from_reports(reports)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::{BatchDoc, BatchEngine};
    use crate::journal::JournalError;
    use xic_constraints::{DocIndex, IndexPlan};
    use xic_xml::{write_document, EditError};

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

    #[test]
    fn commits_recheck_only_dirty_docs_and_flips_stream_out() {
        let spec = spec();
        let name = spec.dtd().attr_by_name("name").unwrap();
        let mut corpus = CorpusSession::new(&spec);
        let a = corpus
            .open_source("a.xml", "<school><teacher name=\"Joe\"/></school>")
            .unwrap();
        let b = corpus
            .open_source("b.xml", "<school><teacher name=\"Ann\"/></school>")
            .unwrap();

        // First commit checks both (both newly opened ⇒ both in the delta).
        let delta = corpus.commit();
        assert_eq!(delta.seq, 1);
        assert_eq!(delta.rechecked_docs, 2);
        assert_eq!(delta.changes.len(), 2);
        assert!(delta
            .changes
            .iter()
            .all(|c| c.was_clean.is_none() && c.now_clean()));
        assert_eq!((delta.total, delta.clean), (2, 2));

        // Break b's key: one dirty doc, one flip.
        let ann = corpus.tree(b).unwrap().elements().nth(1).unwrap();
        corpus
            .apply(
                b,
                &[
                    EditOp::AddElement {
                        parent: corpus.tree(b).unwrap().root(),
                        ty: spec.dtd().type_by_name("teacher").unwrap(),
                    },
                    EditOp::SetAttr {
                        element: ann,
                        attr: name,
                        value: "Dup".into(),
                    },
                ],
            )
            .unwrap();
        let added = corpus.tree(b).unwrap().elements().nth(2).unwrap();
        corpus
            .apply(
                b,
                &[EditOp::SetAttr {
                    element: added,
                    attr: name,
                    value: "Dup".into(),
                }],
            )
            .unwrap();
        let delta = corpus.commit();
        assert_eq!(delta.rechecked_docs, 1);
        assert_eq!(delta.changes.len(), 1);
        let change = &delta.changes[0];
        assert_eq!(change.handle, b);
        assert_eq!(change.was_clean, Some(true));
        assert!(!change.now_clean());
        assert!(matches!(
            change.report.violations[0],
            Violation::KeyViolation { .. }
        ));
        assert_eq!((delta.total, delta.clean), (2, 1));

        // Nothing dirty ⇒ empty delta, zero rechecks.
        let delta = corpus.commit();
        assert!(delta.is_empty());
        assert_eq!(delta.rechecked_docs, 0);

        // Close b: handle + label show up once, in the next delta only.
        corpus.close(b).unwrap();
        let delta = corpus.commit();
        assert_eq!(
            delta.closed,
            vec![ClosedDoc {
                handle: b,
                label: "b.xml".to_string()
            }]
        );
        assert_eq!((delta.total, delta.clean), (1, 1));
        assert!(corpus.tree(b).is_err());
        let _ = a;
    }

    /// Each edit kind marks the elements whose local conditions it can
    /// break: an element the parent rejects, text where none is allowed,
    /// an undeclared attribute and the removal of a required child are all
    /// caught from a structurally clean report — by falling back to a whole
    /// validation whose report equals a cold rebuild — while an edit that
    /// keeps the document valid checks only the touched elements.
    #[test]
    fn each_edit_kind_revalidates_the_elements_it_touched() {
        let spec = CompiledSpec::from_sources(
            "<!ELEMENT school (teacher+, note*)>\n\
             <!ELEMENT teacher EMPTY>\n\
             <!ELEMENT note EMPTY>\n\
             <!ATTLIST teacher name CDATA #REQUIRED>",
            Some("school"),
            "teacher.name -> teacher",
        )
        .unwrap();
        let (root, teacher) = (NodeId(0), NodeId(1));
        let note = spec.dtd().type_by_name("note").unwrap();
        let name = spec.dtd().attr_by_name("name").unwrap();
        let cases: [(EditOp, usize); 5] = [
            (
                EditOp::AddElement {
                    parent: root,
                    ty: note,
                },
                0,
            ),
            (
                EditOp::AddElement {
                    parent: teacher,
                    ty: note,
                },
                1,
            ),
            (
                EditOp::AddText {
                    parent: root,
                    value: "x".into(),
                },
                1,
            ),
            (
                EditOp::SetAttr {
                    element: root,
                    attr: name,
                    value: "x".into(),
                },
                1,
            ),
            (EditOp::RemoveSubtree { element: teacher }, 1),
        ];
        for (op, errors) in cases {
            let registry = Arc::new(MetricsRegistry::new());
            let mut corpus = CorpusSession::with_registry(&spec, Arc::clone(&registry));
            let h = corpus
                .open_source("a.xml", "<school><teacher name=\"Joe\"/></school>")
                .unwrap();
            corpus.commit();
            corpus.apply(h, std::slice::from_ref(&op)).unwrap();
            corpus.commit();
            let report = corpus.report();
            let cold =
                BatchEngine::new(1).validate_trees(&spec, &[("a.xml", corpus.tree(h).unwrap())]);
            assert_eq!(report, cold, "{op:?}");
            assert_eq!(
                report.reports()[0].validation_errors.len(),
                errors,
                "{op:?}"
            );
            let snapshot = registry.snapshot();
            let full = snapshot.counter("corpus.validate_full");
            assert_eq!(full, Some(1 + errors as u64), "{op:?}");
        }
    }

    /// A violating document that trades one violation for another stays
    /// violating — and still enters the delta stream, because its report
    /// changed.
    #[test]
    fn violation_content_changes_reach_the_stream() {
        let spec = spec();
        let name = spec.dtd().attr_by_name("name").unwrap();
        let mut corpus = CorpusSession::new(&spec);
        let a = corpus
            .open_source(
                "a.xml",
                "<school><teacher name=\"X\"/><teacher name=\"X\"/>\
                 <teacher name=\"Y\"/><teacher name=\"Y\"/></school>",
            )
            .unwrap();
        corpus.commit();

        // Heal the X clash; the Y clash remains: clean state is unchanged
        // (violating → violating) but the witness values moved X → Y.
        let first_x = corpus.tree(a).unwrap().elements().nth(1).unwrap();
        corpus
            .apply(
                a,
                &[EditOp::SetAttr {
                    element: first_x,
                    attr: name,
                    value: "Z".into(),
                }],
            )
            .unwrap();
        let delta = corpus.commit();
        assert_eq!(delta.changes.len(), 1);
        let change = &delta.changes[0];
        assert_eq!(change.was_clean, Some(false));
        assert!(!change.now_clean());
        assert!(matches!(
            &change.report.violations[0],
            Violation::KeyViolation { values, .. } if values == &vec!["Y".to_string()]
        ));
        // The stream now reconstructs report(): same report object.
        assert_eq!(&change.report, &corpus.report().reports()[0]);

        // A no-op rewrite (same value) leaves the report unchanged: the doc
        // is rechecked but nothing enters the stream.
        let first = corpus.tree(a).unwrap().elements().nth(1).unwrap();
        corpus
            .apply(
                a,
                &[EditOp::SetAttr {
                    element: first,
                    attr: name,
                    value: "Z".into(),
                }],
            )
            .unwrap();
        let delta = corpus.commit();
        assert_eq!(delta.rechecked_docs, 1);
        assert!(delta.is_empty());
    }

    #[test]
    fn report_matches_a_cold_batch_engine_run() {
        let spec = spec();
        let name = spec.dtd().attr_by_name("name").unwrap();
        let mut corpus = CorpusSession::new(&spec);
        let docs = [
            ("ok.xml", "<school><teacher name=\"Joe\"/></school>"),
            (
                "dup.xml",
                "<school><teacher name=\"A\"/><teacher name=\"A\"/></school>",
            ),
        ];
        let mut handles = Vec::new();
        for (label, src) in docs {
            handles.push(corpus.open_source(label, src).unwrap());
        }
        corpus.commit();
        let joe = corpus.tree(handles[0]).unwrap().elements().nth(1).unwrap();
        corpus
            .apply(
                handles[0],
                &[EditOp::SetAttr {
                    element: joe,
                    attr: name,
                    value: "Renamed".into(),
                }],
            )
            .unwrap();
        corpus.commit();

        // Serialize the *current* trees and run the cold path.
        let batch_docs: Vec<BatchDoc> = handles
            .iter()
            .map(|&h| {
                BatchDoc::new(
                    corpus.label(h).unwrap(),
                    write_document(corpus.tree(h).unwrap(), spec.dtd()),
                )
            })
            .collect();
        let cold = BatchEngine::new(1).validate_batch(&spec, &batch_docs);
        assert_eq!(corpus.report(), cold);
    }

    #[test]
    fn errors_name_the_handle_and_partial_batches_stay_applied() {
        let spec = spec();
        let teacher = spec.dtd().type_by_name("teacher").unwrap();
        let mut corpus = CorpusSession::new(&spec);
        let a = corpus
            .open_source("a.xml", "<school><teacher name=\"Joe\"/></school>")
            .unwrap();
        let root = corpus.tree(a).unwrap().root();
        let err = corpus
            .apply(
                a,
                &[
                    EditOp::AddElement {
                        parent: root,
                        ty: teacher,
                    },
                    EditOp::RemoveSubtree { element: root },
                ],
            )
            .unwrap_err();
        assert_eq!(
            err,
            SessionError::Edit {
                index: 1,
                error: EditError::RemoveRoot
            }
        );
        // The applied prefix is visible; commit re-checks the partially
        // edited doc exactly.
        assert_eq!(corpus.tree(a).unwrap().ext_count(teacher), 2);
        let delta = corpus.commit();
        assert_eq!(delta.rechecked_docs, 1);

        let dead = corpus.close(a).unwrap();
        assert_eq!(dead.ext_count(teacher), 2);
        assert_eq!(
            corpus.apply(a, &[]),
            Err(SessionError::UnknownHandle(a)),
            "closed handles are rejected"
        );
    }

    #[test]
    fn exported_deltas_feed_a_replica_and_prune_bounds_history() {
        use crate::journal::{CorpusReplica, JournalError};
        let spec = spec();
        let name = spec.dtd().attr_by_name("name").unwrap();
        let mut corpus = CorpusSession::new(&spec);
        let mut replica = CorpusReplica::new(spec.id());
        let a = corpus
            .open_source("a.xml", "<school><teacher name=\"Joe\"/></school>")
            .unwrap();
        let b = corpus
            .open_source("b.xml", "<school><teacher name=\"Ann\"/></school>")
            .unwrap();
        corpus.commit();
        replica
            .apply_deltas(corpus.export_deltas(replica.last_seq()).unwrap())
            .unwrap();
        assert_eq!(replica.report(), corpus.report());

        // Edit + close; the replica follows from deltas alone.
        let joe = corpus.tree(a).unwrap().elements().nth(1).unwrap();
        corpus
            .apply(
                a,
                &[EditOp::SetAttr {
                    element: joe,
                    attr: name,
                    value: "Ann".into(),
                }],
            )
            .unwrap();
        corpus.commit();
        corpus.close(b).unwrap();
        corpus.commit();
        replica
            .apply_deltas(corpus.export_deltas(replica.last_seq()).unwrap())
            .unwrap();
        assert_eq!(replica.last_seq(), 3);
        assert_eq!(replica.report(), corpus.report());
        assert_eq!(replica.num_docs(), 1);

        // Pruning consumed deltas bounds the retained history; asking for
        // the pruned window is a structured error, newer windows still work.
        assert_eq!(corpus.prune_deltas(2), 2);
        assert_eq!(corpus.export_deltas(2).unwrap().len(), 1);
        assert_eq!(
            corpus.export_deltas(0).unwrap_err(),
            JournalError::PrunedDeltas { first_retained: 3 }
        );
        assert_eq!(corpus.prune_deltas(100), 1);
        assert_eq!(corpus.export_deltas(3).unwrap().len(), 0);
    }

    #[test]
    fn dirty_set_bound_sheds_opens_and_edits_until_a_commit() {
        let spec = spec();
        let mut corpus = CorpusSession::with_limits(
            &spec,
            Limits {
                max_dirty_docs: Some(1),
                ..Limits::UNLIMITED
            },
        );
        let a = corpus
            .open_source("a.xml", "<school><teacher name=\"Joe\"/></school>")
            .unwrap();
        // The dirty set is full: a second open is shed before parsing.
        let err = corpus
            .open_source("b.xml", "<school><teacher name=\"Ann\"/></school>")
            .unwrap_err();
        let SessionError::Resource(resource) = err else {
            panic!("expected a resource rejection");
        };
        assert_eq!(resource.limit, LimitKind::DirtyDocs);
        corpus.commit();
        let b = corpus
            .open_source("b.xml", "<school><teacher name=\"Ann\"/></school>")
            .unwrap();
        corpus.commit();

        // Editing dirties: with b dirty, dirtying a is rejected whole.
        let teacher = spec.dtd().type_by_name("teacher").unwrap();
        let add_to = |corpus: &CorpusSession<'_>, h| EditOp::AddElement {
            parent: corpus.tree(h).unwrap().root(),
            ty: teacher,
        };
        corpus.apply(b, &[add_to(&corpus, b)]).unwrap();
        let op = add_to(&corpus, a);
        let err = corpus.apply(a, std::slice::from_ref(&op)).unwrap_err();
        let SessionError::Resource(resource) = err else {
            panic!("expected a resource rejection");
        };
        assert_eq!(resource.limit, LimitKind::DirtyDocs);
        assert_eq!(resource.rejected.len(), 1);
        assert_eq!(resource.rejected[0].op, op);
        // Nothing was applied to a; a re-apply after a commit succeeds.
        assert_eq!(corpus.tree(a).unwrap().ext_count(teacher), 1);
        corpus.commit();
        corpus.apply(a, &[op]).unwrap();
        corpus.commit();
    }

    #[test]
    fn queued_op_bound_rejects_batches_whole_and_drains_at_commit() {
        let spec = spec();
        let teacher = spec.dtd().type_by_name("teacher").unwrap();
        let mut corpus = CorpusSession::with_limits(
            &spec,
            Limits {
                max_queued_ops: Some(2),
                ..Limits::UNLIMITED
            },
        );
        let a = corpus
            .open_source("a.xml", "<school><teacher name=\"Joe\"/></school>")
            .unwrap();
        let root = corpus.tree(a).unwrap().root();
        let op = EditOp::AddElement {
            parent: root,
            ty: teacher,
        };
        let err = corpus.apply(a, &vec![op.clone(); 3]).unwrap_err();
        let SessionError::Resource(resource) = err else {
            panic!("expected a resource rejection");
        };
        assert_eq!(resource.limit, LimitKind::QueuedOps);
        assert_eq!(resource.rejected.len(), 3);
        assert_eq!(corpus.tree(a).unwrap().ext_count(teacher), 1);

        // Two fit; the third is over quota until a commit drains the queue.
        corpus.apply(a, &vec![op.clone(); 2]).unwrap();
        let err = corpus.apply(a, std::slice::from_ref(&op)).unwrap_err();
        assert!(matches!(err, SessionError::Resource(_)));
        corpus.commit();
        corpus.apply(a, &[op]).unwrap();
        corpus.commit();
        assert_eq!(corpus.tree(a).unwrap().ext_count(teacher), 4);
    }

    #[test]
    fn zero_deadline_aborts_try_commit_and_plain_commit_resumes() {
        let spec = spec();
        let mut corpus = CorpusSession::with_limits(
            &spec,
            Limits {
                deadline: Some(std::time::Duration::ZERO),
                ..Limits::UNLIMITED
            },
        );
        corpus
            .open_source("a.xml", "<school><teacher name=\"Joe\"/></school>")
            .unwrap();
        corpus
            .open_source("b.xml", "<school><teacher name=\"Ann\"/></school>")
            .unwrap();
        let err = corpus.try_commit().unwrap_err();
        assert_eq!(err.limit, LimitKind::Deadline);
        assert!(err.context.contains("dirty documents"), "{}", err.context);
        // Nothing was announced: no delta, no sequence advance.
        assert_eq!(corpus.last_seq(), 0);
        // A plain commit ignores the deadline, finishes the staged work and
        // announces one combined delta.
        let delta = corpus.commit();
        assert_eq!(delta.seq, 1);
        assert_eq!(delta.rechecked_docs, 2);
        assert_eq!(delta.changes.len(), 2);
        assert_eq!((delta.total, delta.clean), (2, 2));
        assert_eq!(corpus.report().total(), 2);
    }

    #[test]
    fn corpus_pool_is_shared_across_documents() {
        let spec = spec();
        let mut corpus = CorpusSession::new(&spec);
        let a = corpus
            .open_source("a.xml", "<school><teacher name=\"Shared\"/></school>")
            .unwrap();
        let b = corpus
            .open_source("b.xml", "<school><teacher name=\"Shared\"/></school>")
            .unwrap();
        // Both documents resolve "Shared" out of one allocation, and the
        // common prefix even shares ids.
        let ta = corpus.tree(a).unwrap();
        let tb = corpus.tree(b).unwrap();
        let ia = ta.pool().get("Shared").unwrap();
        let ib = tb.pool().get("Shared").unwrap();
        assert_eq!(ia, ib);
        assert_eq!(ta.resolve(ia).as_ptr(), tb.resolve(ib).as_ptr());
        assert!(corpus.pool().get("Shared").is_some());
    }

    fn temp_log(tag: &str) -> std::path::PathBuf {
        let mut path = std::env::temp_dir();
        path.push(format!("xic-corpus-{tag}-{}.xicj", std::process::id()));
        std::fs::remove_file(&path).ok();
        path
    }

    #[test]
    fn verdicts_between_commits_match_a_rebuild() {
        let spec = spec();
        let teacher = spec.dtd().type_by_name("teacher").unwrap();
        let name = spec.dtd().attr_by_name("name").unwrap();
        let mut corpus = CorpusSession::new(&spec);
        let doc = corpus
            .open_source("a.xml", "<school><teacher name=\"Joe\"/></school>")
            .unwrap();
        assert!(corpus.verdict(doc).unwrap().is_clean());

        // The new teacher has no name yet: keys skip attribute-less
        // elements, so the document is still clean.
        let root = corpus.tree(doc).unwrap().root();
        corpus
            .apply(
                doc,
                &[EditOp::AddElement {
                    parent: root,
                    ty: teacher,
                }],
            )
            .unwrap();
        assert!(corpus.verdict(doc).unwrap().is_clean());
        let added = corpus.tree(doc).unwrap().ext(teacher).nth(1).unwrap();
        corpus
            .apply(
                doc,
                &[EditOp::SetAttr {
                    element: added,
                    attr: name,
                    value: "Joe".into(),
                }],
            )
            .unwrap();
        let verdict = corpus.verdict(doc).unwrap();
        assert!(!verdict.is_clean());
        assert_eq!(verdict.edits_applied(), 2);
        assert_eq!(verdict.rechecked(), 1);

        // Witness identity with a from-scratch rebuild and the one-shot path.
        let tree = corpus.tree(doc).unwrap();
        let plan = IndexPlan::for_set(spec.sigma());
        let rebuilt = DocIndex::build(spec.dtd(), tree, &plan).check_all(spec.sigma());
        assert_eq!(verdict.violations(), rebuilt.as_slice());
        assert_eq!(spec.check_document(tree), rebuilt);

        // The commit reports the same violations the verdict already saw.
        let delta = corpus.commit();
        assert_eq!(delta.changes[0].report.violations, rebuilt);
        corpus.close(doc).unwrap();
        assert_eq!(corpus.verdict(doc), Err(SessionError::UnknownHandle(doc)));
    }

    /// Two disconnected keys make two shards.  A verdict between apply and
    /// commit consumes the dirty constraints the commit would tag the
    /// change with, so the change broadcasts instead of losing its tag.
    #[test]
    fn a_verdict_before_commit_broadcasts_the_change() {
        let spec = CompiledSpec::from_sources(
            "<!ELEMENT school (teacher*, student*)>\n\
             <!ELEMENT teacher EMPTY>\n\
             <!ELEMENT student EMPTY>\n\
             <!ATTLIST teacher name CDATA #REQUIRED>\n\
             <!ATTLIST student id CDATA #REQUIRED>",
            Some("school"),
            "teacher.name -> teacher\nstudent.id -> student",
        )
        .unwrap();
        assert_eq!(spec.shard_plan().num_shards(), 2);
        let name = spec.dtd().attr_by_name("name").unwrap();
        let source =
            "<school><teacher name=\"A\"/><teacher name=\"B\"/><student id=\"1\"/></school>";
        let tags = |with_verdict: bool| {
            let mut corpus = CorpusSession::new(&spec);
            let doc = corpus.open_source("a.xml", source).unwrap();
            corpus.commit();
            let second = corpus.tree(doc).unwrap().elements().nth(2).unwrap();
            corpus
                .apply(
                    doc,
                    &[EditOp::SetAttr {
                        element: second,
                        attr: name,
                        value: "A".into(),
                    }],
                )
                .unwrap();
            if with_verdict {
                assert!(!corpus.verdict(doc).unwrap().is_clean());
            }
            corpus.commit().changes[0].shards.clone()
        };
        assert_eq!(tags(false).len(), 1);
        assert_eq!(tags(true), vec![0, 1]);
    }

    #[test]
    fn node_bound_rejects_batches_whole_with_an_echo() {
        let spec = spec();
        let teacher = spec.dtd().type_by_name("teacher").unwrap();
        let mut corpus = CorpusSession::with_limits(
            &spec,
            Limits {
                max_doc_nodes: Some(3),
                ..Limits::UNLIMITED
            },
        );
        // school + teacher + its name attribute = 3 arena nodes: at the cap.
        let doc = corpus
            .open_source("a.xml", "<school><teacher name=\"Joe\"/></school>")
            .unwrap();
        let root = corpus.tree(doc).unwrap().root();
        let ops = vec![
            EditOp::AddElement {
                parent: root,
                ty: teacher
            };
            2
        ];
        let err = corpus.apply(doc, &ops).unwrap_err();
        let SessionError::Resource(resource) = err else {
            panic!("expected a resource rejection, got {err:?}");
        };
        assert_eq!(resource.limit, LimitKind::DocNodes);
        // All-or-nothing: the whole batch is echoed back and nothing was
        // applied — unlike Edit errors, which keep the applied prefix.
        assert_eq!(resource.rejected.len(), 2);
        assert_eq!(resource.rejected[0].op, ops[0]);
        assert_eq!(corpus.tree(doc).unwrap().ext_count(teacher), 1);
        assert_eq!(corpus.verdict(doc).unwrap().edits_applied(), 0);
    }

    #[test]
    fn persist_recover_compact_round_trip() {
        let spec = spec();
        let teacher = spec.dtd().type_by_name("teacher").unwrap();
        let name = spec.dtd().attr_by_name("name").unwrap();
        let path = temp_log("persist");

        let mut corpus = CorpusSession::new(&spec);
        let doc = corpus
            .open_source("a.xml", "<school><teacher name=\"Joe\"/></school>")
            .unwrap();
        // First persist folds the (edit-free) document into the base.
        assert_eq!(corpus.persist_to(doc, &path).unwrap().total_records, 1);

        // Edit, persist (appends two op records), compact, edit, persist.
        let root = corpus.tree(doc).unwrap().root();
        let add = EditOp::AddElement {
            parent: root,
            ty: teacher,
        };
        corpus.apply(doc, &[add.clone(), add]).unwrap();
        assert_eq!(corpus.persist_to(doc, &path).unwrap().records_written, 2);
        assert_eq!(corpus.durable_edits(doc).unwrap(), 2);
        assert_eq!(corpus.compact(doc).unwrap(), 2);
        assert!(corpus.journal(doc).unwrap().is_empty());
        let second = corpus.tree(doc).unwrap().ext(teacher).nth(1).unwrap();
        corpus
            .apply(
                doc,
                &[EditOp::SetAttr {
                    element: second,
                    attr: name,
                    value: "Joe".into(),
                }],
            )
            .unwrap();
        let receipt = corpus.persist_to(doc, &path).unwrap();
        assert_eq!((receipt.records_written, receipt.total_records), (1, 4));
        let live = corpus.verdict(doc).unwrap();
        assert!(!live.is_clean());

        // Recovery replays the log onto the base snapshot: same verdict,
        // same witnesses, node-for-node the same arena.
        let mut recovered = CorpusSession::new(&spec);
        let recovery = recovered.recover_from("a.xml", &path).unwrap();
        assert_eq!((recovery.base_edits, recovery.ops_replayed), (0, 3));
        assert!(!recovery.truncated_tail);
        let verdict = recovered.verdict(recovery.handle).unwrap();
        assert_eq!(verdict.violations(), live.violations());
        assert_eq!(verdict.edits_applied(), 3);
        assert_eq!(
            recovered.tree(recovery.handle).unwrap().snapshot(),
            corpus.tree(doc).unwrap().snapshot()
        );
        // A recovered document commits like any opened one.
        let delta = recovered.commit();
        assert_eq!(delta.changes[0].report.label, "a.xml");

        // The recovered session keeps appending to the same log.
        let third = recovered
            .tree(recovery.handle)
            .unwrap()
            .ext(teacher)
            .nth(2)
            .unwrap();
        recovered
            .apply(
                recovery.handle,
                &[EditOp::SetAttr {
                    element: third,
                    attr: name,
                    value: "Ann".into(),
                }],
            )
            .unwrap();
        let receipt = recovered.persist_to(recovery.handle, &path).unwrap();
        assert_eq!((receipt.records_written, receipt.total_records), (1, 5));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn persisting_a_foreign_log_is_rejected() {
        let spec = spec();
        let teacher = spec.dtd().type_by_name("teacher").unwrap();
        let name = spec.dtd().attr_by_name("name").unwrap();
        let path = temp_log("foreign");
        let mut corpus = CorpusSession::new(&spec);
        let a = corpus
            .open_source("a.xml", "<school><teacher name=\"A\"/></school>")
            .unwrap();
        let b = corpus
            .open_source("b.xml", "<school><teacher name=\"B\"/></school>")
            .unwrap();
        corpus.persist_to(a, &path).unwrap();
        // Both documents get one identical op, then their histories fork.
        for doc in [a, b] {
            let root = corpus.tree(doc).unwrap().root();
            corpus
                .apply(
                    doc,
                    &[EditOp::AddElement {
                        parent: root,
                        ty: teacher,
                    }],
                )
                .unwrap();
        }
        let a_first = corpus.tree(a).unwrap().ext(teacher).next().unwrap();
        corpus
            .apply(
                a,
                &[EditOp::SetAttr {
                    element: a_first,
                    attr: name,
                    value: "Renamed".into(),
                }],
            )
            .unwrap();
        let b_first = corpus.tree(b).unwrap().ext(teacher).next().unwrap();
        corpus
            .apply(b, &[EditOp::RemoveSubtree { element: b_first }])
            .unwrap();
        corpus.persist_to(a, &path).unwrap();
        // a's log now holds two ops; b's second op differs in the overlap,
        // so appending b's history to a's log is refused.
        let err = corpus.persist_to(b, &path).unwrap_err();
        assert!(matches!(err, JournalError::Diverged { .. }), "{err:?}");
        // A log that is *ahead* of the session is refused too.
        let mut rewound = CorpusSession::new(&spec);
        let fresh = rewound
            .open_source("a.xml", "<school><teacher name=\"A\"/></school>")
            .unwrap();
        let err = rewound.persist_to(fresh, &path).unwrap_err();
        assert!(matches!(err, JournalError::Diverged { .. }), "{err:?}");
        // Unknown handles surface structurally.
        assert_eq!(
            CorpusSession::new(&spec)
                .persist_to(DocHandle::from_raw(9), &path)
                .unwrap_err(),
            JournalError::UnknownHandle { handle: 9 }
        );
        std::fs::remove_file(&path).ok();
    }

    /// `recover` rebuilds the live state from every kind of recovery base:
    /// the parsed source, a pre-built tree's snapshot, and the snapshot
    /// compaction folds the durable prefix into.
    #[test]
    fn recover_rebuilds_the_live_state_from_every_base() {
        let spec = spec();
        let teacher = spec.dtd().type_by_name("teacher").unwrap();
        let name = spec.dtd().attr_by_name("name").unwrap();
        let source = "<school><teacher name=\"Joe\"/></school>";
        let path = temp_log("recover");
        for (base, compact) in [("source", false), ("tree", false), ("source", true)] {
            let mut corpus = CorpusSession::new(&spec);
            let doc = match base {
                "source" => corpus.open_source("a.xml", source).unwrap(),
                _ => corpus
                    .open("a.xml", spec.parse_document(source).unwrap())
                    .unwrap(),
            };
            let root = corpus.tree(doc).unwrap().root();
            let add = EditOp::AddElement {
                parent: root,
                ty: teacher,
            };
            corpus.apply(doc, &[add.clone(), add]).unwrap();
            if compact {
                // Compact away the durable prefix, then keep editing:
                // recover() must fold base + remaining journal back.
                std::fs::remove_file(&path).ok();
                corpus.persist_to(doc, &path).unwrap();
                assert_eq!(corpus.compact(doc).unwrap(), 2);
            }
            let second = corpus.tree(doc).unwrap().ext(teacher).nth(1).unwrap();
            corpus
                .apply(
                    doc,
                    &[EditOp::SetAttr {
                        element: second,
                        attr: name,
                        value: "Joe".into(),
                    }],
                )
                .unwrap();
            let live_snapshot = corpus.tree(doc).unwrap().snapshot();
            let live = corpus.verdict(doc).unwrap();
            assert!(!corpus.is_poisoned(doc).unwrap());
            let verdict = corpus.recover(doc).unwrap();
            assert_eq!(verdict.violations(), live.violations(), "{base}");
            assert_eq!(verdict.edits_applied(), 3, "{base}");
            assert_eq!(
                corpus.tree(doc).unwrap().snapshot(),
                live_snapshot,
                "{base}"
            );
        }
        std::fs::remove_file(&path).ok();
    }
}
