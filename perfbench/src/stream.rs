//! The seeded transaction stream shared by the `edit` and `coord`
//! workloads.
//!
//! The generator keeps its own copy of every document and applies each edit
//! to it, so node ids of appended elements are known before the edit is
//! sent and every edit is valid.  Point edits come in break/fix pairs: a
//! break copies another element's key (key violation) or points a
//! reference nowhere (foreign-key or inclusion violation); a later fix
//! restores the value.  Documents therefore flip between clean and
//! violating instead of drifting into permanent violation, and appended
//! elements are removed again, so the corpus keeps its size.

use std::collections::HashMap;

use xic_dtd::{AttrId, ElemId};
use xic_engine::CompiledSpec;
use xic_xml::{write_document, EditEffect, EditOp, NodeId, XmlTree};

use crate::inputs::Corpus;
use crate::util::Rng;

/// One client transaction.
#[derive(Debug, Clone)]
pub enum Txn {
    /// Apply a point edit and commit (~90% of commits).
    SetAttr { doc: usize, ops: Vec<EditOp> },
    /// Append an element with its required attributes, or remove one
    /// appended earlier, and commit (~8%).
    Structural { doc: usize, ops: Vec<EditOp> },
    /// Close the document, open it again from its current text, commit
    /// (~2%).
    Reopen { doc: usize, source: String },
    /// Read the deltas committed since the last read (after every 8
    /// commits).
    Sync,
}

/// Op classes, in the order latencies are reported.
pub const CLASSES: [&str; 4] = ["setattr", "structural", "reopen", "sync"];

impl Txn {
    pub fn class(&self) -> usize {
        match self {
            Txn::SetAttr { .. } => 0,
            Txn::Structural { .. } => 1,
            Txn::Reopen { .. } => 2,
            Txn::Sync => 3,
        }
    }
}

#[derive(Debug, Clone, Copy)]
struct Kind {
    ty: ElemId,
    id: AttrId,
    rf: AttrId,
}

#[derive(Debug)]
struct Mirror {
    tree: XmlTree,
    /// Elements of the generated document, per kind (appended ones are
    /// never broken, referenced or counted here).
    base: Vec<Vec<NodeId>>,
    /// Outstanding breaks: element, attribute, value to restore.
    broken: Vec<(NodeId, AttrId, String)>,
    added: Vec<NodeId>,
}

pub struct Stream<'s> {
    spec: &'s CompiledSpec,
    rng: Rng,
    kinds: Vec<Kind>,
    docs: Vec<Mirror>,
    since_sync: usize,
    fresh: u64,
}

impl<'s> Stream<'s> {
    pub fn new(spec: &'s CompiledSpec, corpus: &Corpus, seed: u64) -> Stream<'s> {
        let dtd = spec.dtd();
        let kinds: Vec<Kind> = (0..)
            .map_while(|k| {
                Some(Kind {
                    ty: dtd.type_by_name(&format!("kind{k}"))?,
                    id: dtd.attr_by_name(&format!("id{k}"))?,
                    rf: dtd.attr_by_name(&format!("ref{k}"))?,
                })
            })
            .collect();
        let docs = corpus
            .docs
            .iter()
            .map(|d| {
                let tree = spec
                    .parse_document(&d.source)
                    .expect("corpus documents parse");
                let base = index_kinds(&tree, &kinds, &[]);
                Mirror {
                    tree,
                    base,
                    broken: Vec::new(),
                    added: Vec::new(),
                }
            })
            .collect();
        Stream {
            spec,
            rng: Rng::new(seed, 30),
            kinds,
            docs,
            since_sync: 0,
            fresh: 0,
        }
    }

    pub fn next_txn(&mut self) -> Txn {
        if self.since_sync == 8 {
            self.since_sync = 0;
            return Txn::Sync;
        }
        self.since_sync += 1;
        let doc = self.rng.below(self.docs.len());
        match self.rng.below(100) {
            0..=89 => Txn::SetAttr {
                doc,
                ops: vec![self.point_edit(doc)],
            },
            90..=97 => Txn::Structural {
                doc,
                ops: self.structural_edit(doc),
            },
            _ => Txn::Reopen {
                doc,
                source: self.reopen(doc),
            },
        }
    }

    fn apply(&mut self, doc: usize, op: &EditOp) -> EditEffect {
        self.docs[doc]
            .tree
            .apply_edit(op)
            .expect("generated edits are valid")
    }

    fn point_edit(&mut self, doc: usize) -> EditOp {
        let rng = &mut self.rng;
        let m = &mut self.docs[doc];
        let fix = !m.broken.is_empty() && (m.broken.len() >= 2 || rng.chance(0.5));
        let op = if fix {
            let (element, attr, value) = m.broken.swap_remove(rng.below(m.broken.len()));
            EditOp::SetAttr {
                element,
                attr,
                value,
            }
        } else {
            let k = rng.below(self.kinds.len());
            let kind = self.kinds[k];
            let pool = &m.base[k];
            let element = loop {
                let e = pool[rng.below(pool.len())];
                if m.broken.iter().all(|&(b, _, _)| b != e) {
                    break e;
                }
            };
            let (attr, value) = if pool.len() >= 2 && rng.chance(0.5) {
                let other = loop {
                    let o = pool[rng.below(pool.len())];
                    if o != element {
                        break o;
                    }
                };
                let dup = m.tree.attr_value(other, kind.id).expect("ids are set");
                (kind.id, dup.to_string())
            } else {
                self.fresh += 1;
                (kind.rf, format!("dangling-{}", self.fresh))
            };
            let old = m
                .tree
                .attr_value(element, attr)
                .expect("attributes are set");
            m.broken.push((element, attr, old.to_string()));
            EditOp::SetAttr {
                element,
                attr,
                value,
            }
        };
        self.apply(doc, &op);
        op
    }

    fn structural_edit(&mut self, doc: usize) -> Vec<EditOp> {
        let m = &mut self.docs[doc];
        if !m.added.is_empty() && (m.added.len() >= 3 || self.rng.chance(0.5)) {
            let element = m.added.swap_remove(self.rng.below(m.added.len()));
            let op = EditOp::RemoveSubtree { element };
            self.apply(doc, &op);
            return vec![op];
        }
        let k = self.rng.below(self.kinds.len());
        let (kind, target) = (self.kinds[k], self.kinds[k ^ 1]);
        let add = EditOp::AddElement {
            parent: m.tree.root(),
            ty: kind.ty,
        };
        let EditEffect::ElementAdded { element, .. } = self.apply(doc, &add) else {
            unreachable!("AddElement adds an element");
        };
        let m = &mut self.docs[doc];
        m.added.push(element);
        let pool = &m.base[k ^ 1];
        let referenced = pool[self.rng.below(pool.len())];
        let reference = m
            .tree
            .attr_value(referenced, target.id)
            .expect("ids are set")
            .to_string();
        self.fresh += 1;
        let rest = vec![
            EditOp::AddText {
                parent: element,
                value: "x".to_string(),
            },
            EditOp::SetAttr {
                element,
                attr: kind.id,
                value: format!("new-{}", self.fresh),
            },
            EditOp::SetAttr {
                element,
                attr: kind.rf,
                value: reference,
            },
        ];
        for op in &rest {
            self.apply(doc, op);
        }
        let mut ops = vec![add];
        ops.extend(rest);
        ops
    }

    /// Serializes the document, re-parses it as the program will, and
    /// renumbers the generator's bookkeeping to the fresh node ids.
    fn reopen(&mut self, doc: usize) -> String {
        let m = &mut self.docs[doc];
        let source = write_document(&m.tree, self.spec.dtd());
        let tree = self
            .spec
            .parse_document(&source)
            .expect("written documents parse");
        let old = preorder(&m.tree);
        let new = preorder(&tree);
        assert_eq!(old.len(), new.len(), "re-parse keeps every element");
        let index: HashMap<NodeId, NodeId> = old.into_iter().zip(new).collect();
        m.broken = m
            .broken
            .iter()
            .map(|(e, a, v)| (index[e], *a, v.clone()))
            .collect();
        m.added = m.added.iter().map(|e| index[e]).collect();
        m.base = index_kinds(&tree, &self.kinds, &m.added);
        m.tree = tree;
        source
    }
}

/// Element nodes in document order.
fn preorder(tree: &XmlTree) -> Vec<NodeId> {
    let mut out = Vec::new();
    let mut stack = vec![tree.root()];
    while let Some(n) = stack.pop() {
        out.push(n);
        for &c in tree.children(n).iter().rev() {
            if tree.element_type(c).is_some() && !tree.is_detached(c) {
                stack.push(c);
            }
        }
    }
    out
}

fn index_kinds(tree: &XmlTree, kinds: &[Kind], skip: &[NodeId]) -> Vec<Vec<NodeId>> {
    let mut base = vec![Vec::new(); kinds.len()];
    for n in tree.elements() {
        if skip.contains(&n) {
            continue;
        }
        if let Some(k) = kinds
            .iter()
            .position(|k| tree.element_type(n) == Some(k.ty))
        {
            base[k].push(n);
        }
    }
    base
}
