//! The session vocabulary shared by [`crate::CorpusSession`], the wire
//! layer and the journals: document handles, session errors, per-document
//! verdicts, recovery receipts, and the one edit loop every session path
//! runs.
//!
//! The one-shot surface (`CompiledSpec::check_document`) answers `T ⊨ Σ`
//! for a document it will never see again.  Edit-heavy workloads — document
//! repair loops, collaborative editors, write-access-control checking —
//! re-validate the *same* document after every small change, and a rebuild
//! per edit costs O(document) each time.  A session routes every typed
//! [`EditOp`] through [`xic_xml::XmlTree::apply_edit`], feeds the resulting
//! [`xic_xml::EditEffect`] to the document's
//! [`xic_constraints::IncrementalIndex`] and journals it; because sessions
//! hand out only `&XmlTree`, raw `&mut` mutation cannot bypass index
//! maintenance.  Verdicts are **witness-identical** to a
//! from-scratch rebuild (asserted by `tests/session_agreement.rs`).

use std::fmt;

use xic_constraints::{IncrementalIndex, Violation};
use xic_xml::{EditError, EditJournal, EditOp, XmlError, XmlTree};

use crate::limits::ResourceError;

/// Identifier of a document opened in a [`crate::CorpusSession`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct DocHandle(u64);

impl DocHandle {
    /// Crate-internal constructor (live handles are only minted by
    /// sessions).
    pub(crate) fn new(raw: u64) -> DocHandle {
        DocHandle(raw)
    }

    /// Reconstructs a handle from its raw number.  Sessions mint live
    /// handles themselves; this exists for the replication layer — a
    /// [`crate::CorpusReplica`] fed a persisted delta log must key its
    /// replica documents by the *originating* session's handles.
    pub fn from_raw(raw: u64) -> DocHandle {
        DocHandle(raw)
    }

    /// The raw handle number (stable for the lifetime of the session, and
    /// the identity [`crate::BatchDelta`] records persist).
    pub fn raw(self) -> u64 {
        self.0
    }
}

impl fmt::Display for DocHandle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "doc-{}", self.0)
    }
}

/// Why a session operation failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SessionError {
    /// The handle names no open document (closed, or from another session).
    UnknownHandle(DocHandle),
    /// An edit op was rejected; the `index` ops of the batch preceding it
    /// were applied (the indexes remain exact for the partially edited
    /// document — ask for a verdict to see its state).
    Edit {
        /// Position of the rejected op in the submitted batch (equivalently:
        /// how many earlier ops of the batch were applied).
        index: usize,
        /// The underlying rejection.
        error: EditError,
    },
    /// A document source could not be parsed (`open_source`).
    Parse(XmlError),
    /// A [`crate::Limits`] bound turned the request away.  Unlike
    /// [`SessionError::Edit`], rejection is all-or-nothing: **no op was
    /// applied** — the batch comes back whole in the error's `rejected`
    /// echo, so the caller can shed load and retry after a commit.
    Resource(ResourceError),
    /// The document is quarantined: an earlier edit panicked mid-apply and
    /// was contained, so its in-memory indexes may be inconsistent.  Every
    /// edit and verdict is refused, and commits report a
    /// [`crate::DocFault::Panic`], until [`crate::CorpusSession::recover`]
    /// rebuilds the document from its journal.
    Poisoned {
        /// The quarantined document.
        handle: DocHandle,
        /// The contained panic's message.
        cause: String,
    },
}

impl fmt::Display for SessionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SessionError::UnknownHandle(h) => write!(f, "unknown document handle {h}"),
            SessionError::Edit { index, error } => write!(
                f,
                "edit op #{index} rejected ({error}); the {index} earlier ops of the batch were applied"
            ),
            SessionError::Parse(err) => write!(f, "parse error: {err}"),
            SessionError::Resource(err) => err.fmt(f),
            SessionError::Poisoned { handle, cause } => write!(
                f,
                "document {handle} is quarantined after a contained panic ({cause}); recover() it"
            ),
        }
    }
}

impl std::error::Error for SessionError {}

/// The outcome of re-checking one session document.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SessionVerdict {
    pub(crate) violations: Vec<Violation>,
    pub(crate) rechecked: usize,
    pub(crate) edits_applied: u64,
}

impl SessionVerdict {
    /// `T ⊨ Σ`?
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }

    /// Every violation, in Σ order — identical to what a full
    /// [`xic_constraints::DocIndex`] rebuild would report.
    pub fn violations(&self) -> &[Violation] {
        &self.violations
    }

    /// How many of Σ's constraints this verdict had to recompute (the rest
    /// were served from the per-constraint cache): the observable dirty-set
    /// size.
    pub fn rechecked(&self) -> usize {
        self.rechecked
    }

    /// Total edits applied to the document since it was opened.
    pub fn edits_applied(&self) -> u64 {
        self.edits_applied
    }
}

/// Applies a batch of ops to one `(tree, index, journal)` triple: each op
/// is validated, applied, folded into the incremental indexes and journaled
/// before the next op runs.  On rejection the applied prefix stays (the
/// error's `index` reports its length) and the indexes remain exact.  The
/// one edit loop behind [`crate::CorpusSession::apply`].
pub(crate) fn apply_ops(
    tree: &mut XmlTree,
    index: &mut IncrementalIndex,
    journal: &mut EditJournal,
    ops: &[EditOp],
) -> Result<(), SessionError> {
    for (i, op) in ops.iter().enumerate() {
        let effect = tree
            .apply_edit(op)
            .map_err(|error| SessionError::Edit { index: i, error })?;
        index.apply(tree, &effect);
        journal.record(op.clone(), effect);
    }
    Ok(())
}

/// What [`crate::CorpusSession::recover_from`] reconstructed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Recovery {
    /// The handle of the recovered document.
    pub handle: DocHandle,
    /// Edits that were already folded into the log's base snapshot.
    pub base_edits: u64,
    /// Logged ops replayed on top of the base.
    pub ops_replayed: u64,
    /// Whether a torn tail (a partially written final record) was dropped.
    pub truncated_tail: bool,
}

impl Recovery {
    /// Total edits the recovered document accounts for.
    pub fn total_edits(&self) -> u64 {
        self.base_edits + self.ops_replayed
    }
}
