//! Every input the benchmark measures, generated from `--seed`.
//!
//! Specs are handed to the program as source text and documents as XML
//! text, so the bytes measured are exactly the bytes hashed into the input
//! record.  Sizes are stratified (fixed quantiles, seeded order and
//! contents) so that different seeds change what is measured without
//! changing how much work it is.

use xic_constraints::{Constraint, ConstraintSet};
use xic_core::lip_to_spec;
use xic_dtd::{ContentModel, Dtd};
use xic_gen::{
    catalogue_dtd, fixed_dtd_growing_sigma, inconsistent_fanout_family, keys_only_family,
    negation_family, primary_key_family, random_document, unary_consistency_family, DocGenConfig,
    SpecInstance,
};

use crate::util::{Fnv, Rng};

/// What a `decide` op asks of its spec.
#[derive(Debug, Clone)]
pub enum Query {
    Consistency,
    /// `(D, Σ) ⊢ φ` for φ in the constraint surface syntax.
    Implication(String),
}

/// The answer a `decide` case has by construction, where it has one.
#[derive(Debug, Clone)]
pub enum Expect {
    Consistent,
    Inconsistent,
    /// Theorem 4.7 instance: consistent iff `A·x = 1` has a 0/1 solution.
    ExactCover(Vec<Vec<bool>>),
    /// No answer by construction: only witnesses and counterexamples are
    /// checked.
    Witnessed,
}

#[derive(Debug, Clone)]
pub struct DecideCase {
    pub label: String,
    pub dtd_src: String,
    pub root: String,
    pub sigma_src: String,
    pub query: Query,
    pub expect: Expect,
    pub dtd_size: usize,
    pub sigma_len: usize,
}

impl DecideCase {
    fn new(label: String, dtd: &Dtd, sigma: &ConstraintSet, query: Query, expect: Expect) -> Self {
        DecideCase {
            label,
            dtd_src: dtd.render(),
            root: dtd.type_name(dtd.root()).to_string(),
            sigma_src: sigma.render(dtd),
            query,
            expect,
            dtd_size: dtd.size(),
            sigma_len: sigma.len(),
        }
    }
}

/// Seed of the random families and of φ.  Their cost varies several-fold
/// from one draw to the next, so the mix keeps one fixed draw and `--seed`
/// varies only what leaves the work unchanged: the row and column order of
/// the Theorem 4.7 systems and the order of the ops.
const MIX_SEED: u64 = 6;

/// The `decide` mix: the decidable columns of Figure 5.  The multi-attribute
/// class (undecidable) is left out.
pub fn decide_mix(seed: u64, tiny: bool) -> Vec<DecideCase> {
    let mut cases = Vec::new();
    let chain_sizes: &[usize] = if tiny { &[2] } else { &[2, 3, 4, 5, 6] };
    for spec in unary_consistency_family(chain_sizes) {
        cases.push(instance(spec, Query::Consistency, Expect::Consistent));
    }
    let fanouts: &[usize] = if tiny { &[2] } else { &[2, 3, 4, 5, 6, 7, 8] };
    for spec in inconsistent_fanout_family(fanouts) {
        cases.push(instance(spec, Query::Consistency, Expect::Inconsistent));
    }
    // Theorem 4.7 instances: fixed 0/1 systems (one solvable, one not),
    // rows and columns permuted by the seed — new bytes, same difficulty.
    let mut rng = Rng::new(seed, 1);
    let bases: &[&[&[bool]]] = &[
        &[&[true, true, false], &[false, true, true]],
        &[
            &[true, true, false],
            &[true, false, true],
            &[false, true, true],
        ],
    ];
    for base in &bases[..if tiny { 1 } else { bases.len() }] {
        let (rows, cols) = (base.len(), base[0].len());
        let mut row_order: Vec<usize> = (0..rows).collect();
        let mut col_order: Vec<usize> = (0..cols).collect();
        rng.shuffle(&mut row_order);
        rng.shuffle(&mut col_order);
        let matrix: Vec<Vec<bool>> = row_order
            .iter()
            .map(|&i| col_order.iter().map(|&j| base[i][j]).collect())
            .collect();
        let lip = lip_to_spec(&matrix);
        cases.push(DecideCase::new(
            format!("lip/{rows}x{cols}"),
            &lip.dtd,
            &lip.sigma,
            Query::Consistency,
            Expect::ExactCover(matrix),
        ));
    }
    let mut seeded: Vec<SpecInstance> = Vec::new();
    if !tiny {
        seeded.extend(primary_key_family(&[4], MIX_SEED));
        seeded.extend(fixed_dtd_growing_sigma(6, &[4, 8, 16], MIX_SEED));
        seeded.extend(negation_family(&[3, 4], MIX_SEED));
    }
    for spec in seeded {
        cases.push(instance(spec, Query::Consistency, Expect::Witnessed));
    }
    for spec in keys_only_family(&[6], MIX_SEED) {
        let expect = if dtd_has_valid_tree(&spec.dtd) {
            Expect::Consistent
        } else {
            Expect::Witnessed
        };
        cases.push(instance(spec, Query::Consistency, expect));
    }

    // Implication (coNP for unary keys and foreign keys).
    let mut phi_rng = Rng::new(MIX_SEED, 4);
    let mut implication_specs: Vec<SpecInstance> = unary_consistency_family(&[2]);
    if !tiny {
        implication_specs.extend(fixed_dtd_growing_sigma(6, &[4], MIX_SEED));
        implication_specs.extend(keys_only_family(&[6], MIX_SEED));
        implication_specs.extend(primary_key_family(&[4], MIX_SEED));
    }
    for spec in implication_specs {
        let phi = random_phi(&spec.dtd, &mut phi_rng).render(&spec.dtd);
        let label = format!("implies {}", spec.label);
        cases.push(DecideCase::new(
            label,
            &spec.dtd,
            &spec.sigma,
            Query::Implication(phi),
            Expect::Witnessed,
        ));
    }
    cases
}

fn instance(spec: SpecInstance, query: Query, expect: Expect) -> DecideCase {
    DecideCase::new(spec.label, &spec.dtd, &spec.sigma, query, expect)
}

/// Independent evidence that a DTD is satisfiable: a generated tree that
/// the validator accepts.
fn dtd_has_valid_tree(dtd: &Dtd) -> bool {
    random_document(dtd, &DocGenConfig::default())
        .is_some_and(|tree| xic_xml::validate(&tree, dtd).is_empty())
}

/// A seeded unary key or unary inclusion over the DTD's attribute slots.
fn random_phi(dtd: &Dtd, rng: &mut Rng) -> Constraint {
    let slots: Vec<_> = dtd
        .types()
        .flat_map(|ty| dtd.attrs_of(ty).iter().map(move |&a| (ty, a)))
        .collect();
    let (ty, attr) = slots[rng.below(slots.len())];
    if rng.chance(0.5) {
        Constraint::unary_key(ty, attr)
    } else {
        let (to_ty, to_attr) = slots[rng.below(slots.len())];
        Constraint::unary_inclusion(ty, attr, to_ty, to_attr)
    }
}

/// Brute-force oracle for a Theorem 4.7 instance: does some `x ∈ {0,1}^n`
/// pick exactly one column with `a_ij = 1` in every row?
pub fn exact_cover_exists(matrix: &[Vec<bool>]) -> bool {
    let cols = matrix.first().map_or(0, Vec::len);
    (0u64..1 << cols).any(|x| {
        matrix.iter().all(|row| {
            row.iter()
                .enumerate()
                .filter(|&(j, &a)| a && x >> j & 1 == 1)
                .count()
                == 1
        })
    })
}

/// Whether a decoded witness vector solves `A·x = 1`.
pub fn solves_exact_cover(matrix: &[Vec<bool>], x: &[bool]) -> bool {
    matrix.iter().all(|row| {
        row.iter()
            .zip(x)
            .filter(|&(&a, &chosen)| a && chosen)
            .count()
            == 1
    })
}

/// A spec given as source text, plus its documents.
#[derive(Debug, Clone)]
pub struct Corpus {
    pub dtd_src: String,
    pub root: String,
    pub sigma_src: String,
    pub docs: Vec<Doc>,
}

#[derive(Debug, Clone)]
pub struct Doc {
    pub label: String,
    pub source: String,
}

impl Corpus {
    pub fn bytes(&self) -> usize {
        self.docs.iter().map(|d| d.source.len()).sum()
    }

    pub fn hash(&self, extra: &[&str]) -> u64 {
        let mut h = Fnv::default();
        h.add(self.dtd_src.as_bytes())
            .add(self.root.as_bytes())
            .add(self.sigma_src.as_bytes());
        for d in &self.docs {
            h.add(d.label.as_bytes()).add(d.source.as_bytes());
        }
        for e in extra {
            h.add(e.as_bytes());
        }
        h.finish()
    }
}

const INGEST_KINDS: usize = 12;

/// The `ingest` corpus: catalogue-DTD documents of 200 to 5k nodes under
/// 24 unary keys, foreign keys and inclusions; every fourth size class is
/// drawn from a small value pool, so about a quarter of the documents
/// carry violations.
pub fn ingest_corpus(seed: u64, tiny: bool) -> Corpus {
    let dtd = catalogue_dtd(INGEST_KINDS);
    let mut sigma = ConstraintSet::new();
    let ty = |k: usize| dtd.type_by_name(&format!("kind{k}")).expect("kind");
    let id = |k: usize| dtd.attr_by_name(&format!("id{k}")).expect("id");
    let rf = |k: usize| dtd.attr_by_name(&format!("ref{k}")).expect("ref");
    let target = |k: usize| (k + 1) % INGEST_KINDS;
    for k in 0..INGEST_KINDS {
        sigma.push(Constraint::unary_key(ty(k), id(k)));
    }
    for k in 0..INGEST_KINDS {
        let t = target(k);
        sigma.push(if k < 8 {
            Constraint::unary_foreign_key(ty(k), rf(k), ty(t), id(t))
        } else {
            Constraint::unary_inclusion(ty(k), rf(k), ty(t), id(t))
        });
    }
    let targets: Vec<usize> = (0..INGEST_KINDS).map(target).collect();

    let mut rng = Rng::new(seed, 2);
    let n = if tiny { 6 } else { 48 };
    let mut docs: Vec<String> = (0..n)
        .map(|i| {
            let nodes = 200.0 * 25f64.powf((i as f64 + 0.5) / n as f64);
            catalogue_doc(&mut rng, &targets, nodes as usize, true, i % 4 == 1)
        })
        .collect();
    rng.shuffle(&mut docs);
    Corpus {
        dtd_src: dtd.render(),
        root: "catalogue".to_string(),
        sigma_src: sigma.render(&dtd),
        docs: docs
            .into_iter()
            .enumerate()
            .map(|(i, source)| Doc {
                label: format!("doc-{i}.xml"),
                source,
            })
            .collect(),
    }
}

const EDIT_KINDS: usize = 8;

/// The `edit` and `coord` corpus: kinds pair up into four groups, each a
/// key on both kinds, a foreign key one way and an inclusion back, so the
/// spec shards into four touch-graph components.  The root content is a
/// starred choice, so an element of any kind may be appended.
pub fn edit_corpus(seed: u64, tiny: bool) -> Corpus {
    let mut b = Dtd::builder();
    let root = b.elem("catalogue");
    let mut kinds = Vec::new();
    let mut ids = Vec::new();
    let mut refs = Vec::new();
    for k in 0..EDIT_KINDS {
        let kind = b.elem(&format!("kind{k}"));
        b.content(kind, ContentModel::Text);
        ids.push(b.attr(kind, &format!("id{k}")));
        refs.push(b.attr(kind, &format!("ref{k}")));
        kinds.push(kind);
    }
    b.content(
        root,
        ContentModel::star(ContentModel::alt_all(
            kinds.iter().map(|&k| ContentModel::Element(k)),
        )),
    );
    let dtd = b.build("catalogue").expect("edit DTD is well-formed");
    let mut sigma = ConstraintSet::new();
    for g in 0..EDIT_KINDS / 2 {
        let (a, b) = (2 * g, 2 * g + 1);
        sigma.push(Constraint::unary_key(kinds[a], ids[a]));
        sigma.push(Constraint::unary_key(kinds[b], ids[b]));
        sigma.push(Constraint::unary_foreign_key(
            kinds[a], refs[a], kinds[b], ids[b],
        ));
        sigma.push(Constraint::unary_inclusion(
            kinds[b], refs[b], kinds[a], ids[a],
        ));
    }
    let targets: Vec<usize> = (0..EDIT_KINDS).map(|k| k ^ 1).collect();

    let mut rng = Rng::new(seed, 3);
    let n = if tiny { 4 } else { 16 };
    let (lo, span) = if tiny {
        (200.0, 100.0)
    } else {
        (1000.0, 1000.0)
    };
    let mut sources: Vec<String> = (0..n)
        .map(|i| {
            let nodes = lo + span * (i as f64 + 0.5) / n as f64;
            catalogue_doc(&mut rng, &targets, nodes as usize, false, false)
        })
        .collect();
    rng.shuffle(&mut sources);
    Corpus {
        dtd_src: dtd.render(),
        root: "catalogue".to_string(),
        sigma_src: sigma.render(&dtd),
        docs: sources
            .into_iter()
            .enumerate()
            .map(|(i, source)| Doc {
                label: format!("doc-{i}.xml"),
                source,
            })
            .collect(),
    }
}

/// One catalogue document as XML text: about `nodes / 4` elements (an
/// element, its two attributes and its text child are four nodes), at
/// least one of each kind.  Clean documents get unique ids and references
/// to existing target ids; violating ones draw both from small pools.
/// `grouped` lists the kinds in order (`kind0*, kind1*, …`); otherwise
/// they interleave.
fn catalogue_doc(
    rng: &mut Rng,
    targets: &[usize],
    nodes: usize,
    grouped: bool,
    violating: bool,
) -> String {
    let kinds = targets.len();
    let elements = (nodes.saturating_sub(1) / 4).max(kinds);
    let mut order: Vec<usize> = (0..kinds).collect();
    order.extend((kinds..elements).map(|_| rng.below(kinds)));
    if grouped {
        order.sort_unstable();
    } else {
        rng.shuffle(&mut order);
    }
    let mut count = vec![0usize; kinds];
    for &k in &order {
        count[k] += 1;
    }
    let mut next = vec![0usize; kinds];
    let mut out = String::with_capacity(elements * 48);
    out.push_str("<catalogue>");
    for &k in &order {
        let t = targets[k];
        let (id, rf) = if violating {
            (
                rng.below((count[k] * 3 / 4).max(1)),
                rng.below(count[t] * 3 / 2 + 1),
            )
        } else {
            (next[k], rng.below(count[t]))
        };
        next[k] += 1;
        out.push_str(&format!(
            "<kind{k} id{k}=\"k{k}-{id}\" ref{k}=\"k{t}-{rf}\">x{}</kind{k}>",
            rng.below(64)
        ));
    }
    out.push_str("</catalogue>");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_cover_oracle() {
        let yes = vec![vec![true, false], vec![false, true]];
        assert!(exact_cover_exists(&yes));
        assert!(solves_exact_cover(&yes, &[true, true]));
        // Row 0 needs exactly one of {0,1}; rows 1 and 2 force both.
        let no = vec![vec![true, true], vec![true, false], vec![false, true]];
        assert!(!exact_cover_exists(&no));
    }

    #[test]
    fn same_seed_same_bytes() {
        for tiny in [true, false] {
            assert_eq!(
                ingest_corpus(5, tiny).hash(&[]),
                ingest_corpus(5, tiny).hash(&[])
            );
            assert_eq!(
                edit_corpus(5, tiny).hash(&[]),
                edit_corpus(5, tiny).hash(&[])
            );
        }
        assert_ne!(
            ingest_corpus(5, true).hash(&[]),
            ingest_corpus(6, true).hash(&[])
        );
        let render = |cases: Vec<DecideCase>| format!("{cases:?}");
        assert_eq!(render(decide_mix(5, true)), render(decide_mix(5, true)));
    }
}
