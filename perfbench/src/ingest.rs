//! `ingest`: one op is one `BatchEngine::validate_batch` call on a manifest
//! of 8 documents drawn (seeded, one from each size stratum) from a
//! pre-generated catalogue corpus.
//!
//! Oracle: every document's expected report is computed once, before the
//! measured phase, by `xic_xml::validate` and the string-based
//! `SatisfactionChecker` — not by the automata and `DocIndex` that
//! `validate_batch` uses — and every report of every op must equal it.

use std::time::Instant;

use xic_constraints::{SatisfactionChecker, Violation};
use xic_engine::{BatchDoc, BatchEngine, CompiledSpec};
use xic_xml::{ValuePool, XmlTree};

use crate::inputs::{self, Corpus};
use crate::trace::Tracer;
use crate::util::{median, peak_rss_mb, print_tail, ratio, Latencies, Rng};
use crate::{Config, InputRecord, Report, RSS_AFTER_OPS};

const BATCH: usize = 8;

/// What a document's report must say, from the reference checkers.
#[derive(Debug, Clone)]
struct Expected {
    validation_errors: Vec<String>,
    violations: Vec<Violation>,
}

fn compile(corpus: &Corpus) -> CompiledSpec {
    CompiledSpec::from_sources(&corpus.dtd_src, Some(&corpus.root), &corpus.sigma_src)
        .expect("ingest spec compiles")
}

pub fn run(config: &Config) -> Report {
    let mut report = Report::default();
    let corpus = inputs::ingest_corpus(config.seed, config.tiny);
    let spec = compile(&corpus);
    let dtd = spec.dtd();
    let trees: Vec<XmlTree> = corpus
        .docs
        .iter()
        .map(|d| xic_xml::parse_document(&d.source, dtd).expect("generated documents parse"))
        .collect();
    InputRecord {
        docs: corpus.docs.len(),
        nodes: trees.iter().map(XmlTree::num_nodes).sum(),
        bytes: corpus.bytes(),
        dtd_size: dtd.size(),
        sigma: spec.sigma().len(),
        shards: spec.shard_plan().num_shards(),
        hash: corpus.hash(&[]),
        ..InputRecord::default()
    }
    .print(config);

    let mut expected: Vec<Expected> = trees
        .iter()
        .map(|tree| Expected {
            validation_errors: xic_xml::validate(tree, dtd)
                .iter()
                .map(ToString::to_string)
                .collect(),
            violations: SatisfactionChecker::new(dtd, tree).check_all(spec.sigma()),
        })
        .collect();
    let violating = expected.iter().filter(|e| !e.violations.is_empty()).count();
    println!(
        "corpus: {} documents, {violating} with violations",
        corpus.docs.len()
    );
    if config.flip_expected {
        if let Some(e) = expected.iter_mut().find(|e| !e.violations.is_empty()) {
            e.violations.pop();
        }
    }

    let threads = std::thread::available_parallelism()
        .map_or(1, |n| n.get())
        .min(2);
    let all: Vec<BatchDoc> = corpus
        .docs
        .iter()
        .map(|d| BatchDoc::new(d.label.clone(), d.source.clone()))
        .collect();
    // Set-up: compile, build the engine and open (parse) the corpus once.
    let setups: Vec<f64> = (0..9)
        .map(|_| {
            let start = Instant::now();
            let spec = compile(&corpus);
            std::hint::black_box(BatchEngine::new(threads));
            for doc in &corpus.docs {
                std::hint::black_box(spec.parse_document(&doc.source).is_ok());
            }
            start.elapsed().as_secs_f64()
        })
        .collect();

    let engine = BatchEngine::new(threads);
    // Untimed warm-up: one pass over the corpus fills caches and pools.
    std::hint::black_box(engine.validate_batch(&spec, &all).total());
    // Size strata: the documents sorted by size and cut into BATCH runs.
    // A batch takes one seeded pick from each, so every batch holds about
    // the same number of nodes.
    let mut by_size: Vec<usize> = (0..all.len()).collect();
    by_size.sort_by_key(|&i| (corpus.docs[i].source.len(), i));
    let strata: Vec<&[usize]> = by_size.chunks(all.len().div_ceil(BATCH)).collect();
    let mut rng = Rng::new(config.seed, 20);
    let mut latencies = Latencies::default();
    let mut tracer = Tracer::new(false);
    let mut counts = Counts::default();
    let (mut plain_ns, mut traced_ns, mut real_ns) = (0.0, 0.0, 0.0);
    let mut rss = None;
    let start = Instant::now();
    let mut op = 0u64;
    while op < 2 || start.elapsed().as_secs_f64() < config.seconds {
        let picks: Vec<usize> = strata.iter().map(|s| s[rng.below(s.len())]).collect();
        let batch: Vec<BatchDoc> = picks.iter().map(|&i| all[i].clone()).collect();
        let t = Instant::now();
        let result = engine.validate_batch(&spec, &batch);
        let ns = t.elapsed().as_nanos() as f64;
        report.attempted += 1;
        latencies.push(0, ns / 1e3);
        real_ns += ns;
        let mut ok = result.total() == picks.len();
        for (r, &i) in result.reports().iter().zip(&picks) {
            let want = &expected[i];
            ok &= r.label == corpus.docs[i].label
                && r.parse_error.is_none()
                && r.fault.is_none()
                && r.validation_errors == want.validation_errors
                && r.violations == want.violations;
        }
        if !ok {
            report.failed += 1;
        }
        report.check(ok, || {
            format!("ingest op {op}: a report differs from SatisfactionChecker")
        });

        if config.trace {
            let docs: Vec<&str> = picks
                .iter()
                .map(|&i| corpus.docs[i].source.as_str())
                .collect();
            for pass in [op.is_multiple_of(2), !op.is_multiple_of(2)] {
                tracer.set_enabled(pass);
                let t = Instant::now();
                decompose(&spec, &docs, &mut tracer, op, &mut counts);
                let ns = t.elapsed().as_nanos() as f64;
                if pass {
                    traced_ns += ns;
                } else {
                    plain_ns += ns;
                }
            }
        }
        op += 1;
        if report.attempted == RSS_AFTER_OPS {
            rss = Some(peak_rss_mb());
        }
    }
    println!("batch width {threads}");
    print_tail(&latencies.of(|_| true));

    if config.trace {
        let layers_ns = tracer.children_ns(COLD_ROOT);
        let eff = ratio(layers_ns, real_ns * engine.effective_threads() as f64);
        report_cold_path(&mut report, &tracer, &counts);
        report.set("engine.batch_parallel_eff", eff);
        report.set("trace.overhead_frac", ratio(traced_ns, plain_ns) - 1.0);
        report.set("unattributed_frac", 1.0 - eff);
        if let Err(err) = tracer.write_jsonl(&crate::out_dir().join("trace-ingest.jsonl")) {
            eprintln!("perfbench: cannot write spans: {err}");
        }
    } else {
        report.set("setup_s", median(&setups));
        report.set("peak_rss_mb", rss.unwrap_or_else(peak_rss_mb));
        report.set("ops_per_s", latencies.ops_per_s());
        report.set("p50_us", median(&latencies.of(|_| true)));
        report.set("geomean_ms", latencies.geomean_ms());
    }
    report
}

/// Root span of one cold-path decomposition.
const COLD_ROOT: &str = "cold.op";

/// What the cold-path decomposition counted in its traced passes.
#[derive(Debug, Default)]
pub struct Counts {
    nodes: usize,
    bytes: usize,
    values: usize,
    distinct: usize,
}

/// Documents' cold path as sequential layer calls (parse, validate,
/// `DocIndex` build and check), one interner threaded through them as on
/// the engine's sequential path.
pub fn decompose(
    spec: &CompiledSpec,
    docs: &[&str],
    tracer: &mut Tracer,
    op: u64,
    counts: &mut Counts,
) {
    let root = tracer.open(COLD_ROOT, None, op);
    let validator = spec.validator();
    let mut pool = ValuePool::new();
    for source in docs {
        let before = pool.len();
        let tree = tracer
            .span("xml.parse", root, op, || {
                spec.parse_document_pooled(source, pool)
            })
            .unwrap_or_else(|_| panic!("corpus documents parse"));
        let errors = tracer.span("xml.validate", root, op, || validator.validate(&tree));
        let index = tracer.span("constraints.index_build", root, op, || {
            spec.index_document(&tree)
        });
        let violations = tracer.span("constraints.check", root, op, || {
            index.check_all(spec.sigma())
        });
        std::hint::black_box((errors.len(), violations.len()));
        if root.is_some() {
            counts.nodes += tree.num_nodes();
            counts.bytes += source.len();
            counts.values += values_seen(&tree);
            counts.distinct += tree.pool().len() - before;
        }
        drop(index);
        pool = tree.into_pool();
    }
    tracer.close(root);
}

/// The `xml` and `constraints` per-layer metrics of the traced
/// decompositions.
pub fn report_cold_path(report: &mut Report, tracer: &Tracer, counts: &Counts) {
    let nodes = counts.nodes as f64;
    let parse_ns = tracer.total_ns("xml.parse");
    report.set("xml.parse_ns_per_node", ratio(parse_ns, nodes));
    report.set(
        "xml.parse_mb_per_s",
        ratio(counts.bytes as f64 * 1e3, parse_ns),
    );
    report.set(
        "xml.pool_distinct_ratio",
        ratio(counts.distinct as f64, counts.values as f64),
    );
    report.set(
        "xml.validate_ns_per_node",
        ratio(tracer.total_ns("xml.validate"), nodes),
    );
    report.set(
        "constraints.index_build_ns_per_node",
        ratio(tracer.total_ns("constraints.index_build"), nodes),
    );
    report.set(
        "constraints.check_us",
        median(&tracer.durations("constraints.check")) / 1e3,
    );
}

/// Attribute values and text values the parser interned.
fn values_seen(tree: &XmlTree) -> usize {
    tree.elements()
        .map(|n| {
            tree.attributes(n).len()
                + tree
                    .children(n)
                    .iter()
                    .filter(|&&c| tree.element_type(c).is_none())
                    .count()
        })
        .sum()
}
