//! `decide`: one op takes a spec of the Figure 5 mix as source text,
//! compiles it with `CompiledSpec::from_sources`, then runs
//! `check_consistency` with witness synthesis on (the `xic check` default)
//! or `check_implication` on a seeded φ.
//!
//! Oracles: chain specs are consistent and fanout specs inconsistent by
//! construction, keys-only specs over a DTD with a valid tree are
//! consistent, Theorem 4.7 specs are consistent iff a brute-force exact
//! cover exists (and their witness must decode to one).  Every witness and
//! counterexample is re-checked with `xic_xml::validate` and the
//! string-based `SatisfactionChecker`.

use std::time::Instant;

use xic_constraints::{parse_constraint, parse_constraint_set, ConstraintSet, SatisfactionChecker};
use xic_core::{synthesize, CardinalitySystem};
use xic_dtd::parse_dtd;
use xic_engine::CompiledSpec;
use xic_ilp::IlpSolver;
use xic_xml::XmlTree;

use crate::inputs::{self, DecideCase, Expect, Query};
use crate::trace::Tracer;
use crate::util::{median, peak_rss_mb, print_tail, ratio, Fnv, Latencies, Rng};
use crate::{Config, InputRecord, Report, RSS_AFTER_OPS};

/// Set-up repetitions in a run.
const SETUPS: usize = 9;

/// A verdict as the user sees it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Verdict {
    Consistent,
    Inconsistent,
    Implied,
    NotImplied,
    Unknown,
}

/// Runs one op the way a user does; returns the verdict, the witness or
/// counterexample if any, and the compiled spec for checking it.
fn decide_once(case: &DecideCase) -> Result<(Verdict, Option<XmlTree>, CompiledSpec), String> {
    let spec = CompiledSpec::from_sources(&case.dtd_src, Some(&case.root), &case.sigma_src)
        .map_err(|e| e.to_string())?;
    let (verdict, tree) = match &case.query {
        Query::Consistency => {
            let outcome = spec.check_consistency();
            let verdict = if outcome.is_consistent() {
                Verdict::Consistent
            } else if outcome.is_inconsistent() {
                Verdict::Inconsistent
            } else {
                Verdict::Unknown
            };
            (verdict, outcome.witness().cloned())
        }
        Query::Implication(src) => {
            let phi = parse_constraint(src, spec.dtd()).map_err(|e| e.to_string())?;
            let outcome = spec.check_implication(&phi).map_err(|e| e.to_string())?;
            let verdict = if outcome.is_implied() {
                Verdict::Implied
            } else if outcome.is_not_implied() {
                Verdict::NotImplied
            } else {
                Verdict::Unknown
            };
            (verdict, outcome.counterexample().cloned())
        }
    };
    Ok((verdict, tree, spec))
}

/// Checks one answer against the case's oracle; returns the errors found.
fn verify(
    case: &DecideCase,
    verdict: Verdict,
    tree: Option<&XmlTree>,
    spec: &CompiledSpec,
) -> Vec<String> {
    let mut errors = Vec::new();
    let mut wrong = |what: String| errors.push(format!("decide {}: {what}", case.label));
    match (&case.expect, verdict) {
        // Every case has an answer; giving up on one is a wrong verdict.
        (_, Verdict::Unknown) => wrong("the procedure gave up (Unknown)".into()),
        (Expect::Consistent, v) if v != Verdict::Consistent => {
            wrong(format!("expected consistent, got {v:?}"))
        }
        (Expect::Inconsistent, v) if v != Verdict::Inconsistent => {
            wrong(format!("expected inconsistent, got {v:?}"))
        }
        (Expect::ExactCover(matrix), v) => {
            let exists = inputs::exact_cover_exists(matrix);
            if exists != (v == Verdict::Consistent) {
                wrong(format!("brute-force exact cover says {exists}, got {v:?}"));
            }
            if let Some(witness) = tree {
                // x_j = 1 iff some Z_ij element occurs (Theorem 4.7), read
                // by name from the compiled DTD.
                let dtd = spec.dtd();
                let mut x = vec![false; matrix.first().map_or(0, Vec::len)];
                for n in witness.elements() {
                    let name = witness.element_type(n).map_or("", |ty| dtd.type_name(ty));
                    if let Some((_, j)) = name.strip_prefix('Z').and_then(|c| c.split_once('_')) {
                        if let Some(slot) = j.parse::<usize>().ok().and_then(|j| x.get_mut(j)) {
                            *slot = true;
                        }
                    }
                }
                if !inputs::solves_exact_cover(matrix, &x) {
                    wrong(format!("witness decodes to {x:?}, not an exact cover"));
                }
            }
        }
        _ => {}
    }
    if let Some(tree) = tree {
        let dtd = spec.dtd();
        if !xic_xml::validate(tree, dtd).is_empty() {
            wrong(format!("{verdict:?} document does not conform to the DTD"));
        }
        let mut checker = SatisfactionChecker::new(dtd, tree);
        if !checker.check_all(spec.sigma()).is_empty() {
            wrong(format!("{verdict:?} document violates Σ"));
        }
        if let Query::Implication(src) = &case.query {
            let phi = parse_constraint(src, dtd).expect("φ parsed once already");
            if checker.check(&phi).is_none() {
                wrong("counterexample satisfies φ".into());
            }
        }
    }
    errors
}

pub fn run(config: &Config) -> Report {
    let mut report = Report::default();
    let mut cases = inputs::decide_mix(config.seed, config.tiny);
    if config.flip_expected {
        if let Some(case) = cases
            .iter_mut()
            .find(|c| matches!(c.expect, Expect::Consistent))
        {
            case.expect = Expect::Inconsistent;
        }
    }
    let mut hash = Fnv::default();
    for case in &cases {
        hash.add(format!("{case:?}").as_bytes());
    }
    InputRecord {
        bytes: cases
            .iter()
            .map(|c| c.dtd_src.len() + c.sigma_src.len())
            .sum(),
        dtd_size: cases.iter().map(|c| c.dtd_size).sum(),
        sigma: cases.iter().map(|c| c.sigma_len).sum(),
        instances: cases.iter().map(|c| c.label.clone()).collect(),
        hash: hash.finish(),
        ..InputRecord::default()
    }
    .print(config);

    // Set-up: compile every spec of the mix once.  It takes a few ms, so
    // one burst of repetitions would all land in whatever spell the
    // machine is in; the repetitions are spread over the run instead.
    let setup = || {
        let start = Instant::now();
        for case in &cases {
            let spec = CompiledSpec::from_sources(&case.dtd_src, Some(&case.root), &case.sigma_src);
            std::hint::black_box(spec.is_ok());
        }
        start.elapsed().as_secs_f64()
    };
    let mut setups = vec![setup()];

    let mut order: Vec<usize> = (0..cases.len()).collect();
    Rng::new(config.seed, 10).shuffle(&mut order);
    let mut first: Vec<Option<(Verdict, Option<usize>)>> = vec![None; cases.len()];
    let mut latencies = Latencies::default();
    let mut tracer = Tracer::new(false);
    let mut layers = LayerCounts::default();
    let (mut plain_ns, mut traced_ns, mut real_ns) = (0.0, 0.0, 0.0);
    let mut rss = None;

    let start = Instant::now();
    let mut k = 0usize;
    while k < cases.len() || start.elapsed().as_secs_f64() < config.seconds {
        let i = order[k % cases.len()];
        let case = &cases[i];
        let t = Instant::now();
        let result = decide_once(case);
        let ns = t.elapsed().as_nanos() as f64;
        report.attempted += 1;
        match result {
            Err(err) => {
                report.failed += 1;
                report.check(false, || format!("decide {}: {err}", case.label));
            }
            Ok((verdict, tree, spec)) => {
                // A give-up is a failed op and a wrong verdict (verify says
                // so on the first run of a case, the repeat check after it),
                // never a fast answer.
                if verdict == Verdict::Unknown {
                    report.failed += 1;
                } else {
                    latencies.push(i, ns / 1e3);
                    real_ns += ns;
                }
                let nodes = tree.as_ref().map(XmlTree::num_nodes);
                match first[i] {
                    None => {
                        for error in verify(case, verdict, tree.as_ref(), &spec) {
                            report.check(false, || error);
                        }
                        first[i] = Some((verdict, nodes));
                    }
                    Some(seen) => report.check(seen == (verdict, nodes), || {
                        format!("decide {}: answer changed between runs", case.label)
                    }),
                }
            }
        }
        if config.trace {
            // The same work through each layer's public calls, untraced and
            // traced in alternating order.
            for pass in [k.is_multiple_of(2), !k.is_multiple_of(2)] {
                tracer.set_enabled(pass);
                let t = Instant::now();
                decompose(case, &mut tracer, k as u64, &mut layers);
                let ns = t.elapsed().as_nanos() as f64;
                if pass {
                    traced_ns += ns;
                    probe_system(case, &mut tracer, k as u64);
                } else {
                    plain_ns += ns;
                }
            }
        }
        k += 1;
        if report.attempted == RSS_AFTER_OPS {
            rss = Some(peak_rss_mb());
        }
        if start.elapsed().as_secs_f64() >= config.seconds * setups.len() as f64 / SETUPS as f64
            && setups.len() < SETUPS
        {
            setups.push(setup());
        }
    }

    for (i, case) in cases.iter().enumerate() {
        let verdict = first[i].map_or("none".to_string(), |(v, _)| format!("{v:?}"));
        let samples = latencies.of(|c| c == i);
        println!(
            "instance {:<24} {:<13} median {:>9.4} ms  n={}",
            case.label,
            verdict,
            median(&samples) / 1e3,
            samples.len()
        );
    }
    print_tail(&latencies.of(|_| true));

    if config.trace {
        report_layers(&mut report, &tracer, &layers, plain_ns, traced_ns, real_ns);
        if let Err(err) = tracer.write_jsonl(&crate::out_dir().join("trace-decide.jsonl")) {
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

#[derive(Debug, Default)]
struct LayerCounts {
    solves: usize,
    nodes: usize,
    lp_calls: usize,
    pruned: usize,
    witnesses: usize,
    witness_nodes: usize,
}

/// One op's work as separate layer calls: parse D, parse Σ, compile, then
/// solve Ψ(D,Σ) and synthesize the witness, or decide the implication.
fn decompose(case: &DecideCase, tracer: &mut Tracer, op: u64, counts: &mut LayerCounts) {
    let root = tracer.open("decide.op", None, op);
    let dtd = tracer
        .span("dtd.parse", root, op, || {
            parse_dtd(&case.dtd_src, Some(&case.root))
        })
        .expect("mix DTDs parse");
    let sigma = tracer
        .span("constraints.parse", root, op, || {
            parse_constraint_set(&case.sigma_src, &dtd)
        })
        .expect("mix constraints parse");
    let spec = tracer
        .span("engine.compile", root, op, || {
            CompiledSpec::compile(dtd, sigma)
        })
        .expect("mix specs compile");
    match &case.query {
        Query::Implication(src) => {
            let phi = tracer
                .span("constraints.parse", root, op, || {
                    parse_constraint(src, spec.dtd())
                })
                .expect("φ parses");
            let outcome = tracer.span("core.implies", root, op, || spec.check_implication(&phi));
            std::hint::black_box(outcome.is_ok());
        }
        Query::Consistency => {
            // Ψ(D,Σ) is built by compile for unary Σ, and by the keys-only
            // procedure (over the unary keys) otherwise.
            let keyed: ConstraintSet;
            let built: CardinalitySystem;
            let (system, sigma) = match spec.system() {
                Some(system) => (system, spec.sigma()),
                None => {
                    keyed = spec
                        .sigma()
                        .iter()
                        .filter(|c| c.is_unary())
                        .cloned()
                        .collect();
                    built = tracer
                        .span("core.system_build", root, op, || {
                            CardinalitySystem::build(spec.dtd(), &keyed, &spec.config().system)
                        })
                        .expect("keys-only systems build");
                    (&built, &keyed)
                }
            };
            let solver = IlpSolver::with_config(spec.config().solver.clone());
            let (outcome, stats) = tracer.span("ilp.solve", root, op, || {
                solver.solve_with_stats(system.program())
            });
            if root.is_some() {
                counts.solves += 1;
                counts.nodes += stats.nodes;
                counts.lp_calls += stats.lp_calls;
                counts.pruned += stats.pruned_infeasible;
            }
            if let Some(assignment) = outcome.assignment() {
                let witness = tracer.span("core.witness", root, op, || {
                    synthesize(spec.dtd(), sigma, system, assignment)
                });
                match witness {
                    Ok(tree) => {
                        if root.is_some() {
                            counts.witnesses += 1;
                            counts.witness_nodes += tree.num_nodes();
                        }
                    }
                    // Not realizable as is: the checker's repair loop runs.
                    Err(_) => {
                        let outcome =
                            tracer.span("core.consistency", root, op, || spec.check_consistency());
                        std::hint::black_box(outcome.is_consistent());
                    }
                }
            }
        }
    }
    tracer.close(root);
}

/// For unary Σ the system is built inside compile; time the same build on
/// its own so `core.system_build_us` covers every class.  Outside the op's
/// span, so it does not count as attributed op time.
fn probe_system(case: &DecideCase, tracer: &mut Tracer, op: u64) {
    let Ok(spec) = CompiledSpec::from_sources(&case.dtd_src, Some(&case.root), &case.sigma_src)
    else {
        return;
    };
    if matches!(case.query, Query::Consistency) && spec.system().is_some() {
        let built = tracer.span("core.system_build", None, op, || {
            CardinalitySystem::build(spec.dtd(), spec.sigma(), &spec.config().system)
        });
        std::hint::black_box(built.is_ok());
    }
}

fn report_layers(
    report: &mut Report,
    tracer: &Tracer,
    counts: &LayerCounts,
    plain_ns: f64,
    traced_ns: f64,
    real_ns: f64,
) {
    let us = |name: &str| median(&tracer.durations(name)) / 1e3;
    let per = |n: usize, d: usize| ratio(n as f64, d as f64);
    report.set("dtd.parse_us", us("dtd.parse"));
    report.set("constraints.parse_us", us("constraints.parse"));
    report.set("engine.compile_us", us("engine.compile"));
    report.set("core.system_build_us", us("core.system_build"));
    report.set("ilp.solve_us", us("ilp.solve"));
    report.set("ilp.bb_nodes", per(counts.nodes, counts.solves));
    report.set("ilp.lp_calls", per(counts.lp_calls, counts.solves));
    report.set("ilp.pruned_ratio", per(counts.pruned, counts.nodes));
    report.set("core.witness_us", us("core.witness"));
    report.set(
        "core.witness_nodes",
        per(counts.witness_nodes, counts.witnesses),
    );
    report.set("core.implies_us", us("core.implies"));
    report.set("trace.overhead_frac", ratio(traced_ns, plain_ns) - 1.0);
    // Real ops ran once per traced op, so the sums compare like with like.
    report.set(
        "unattributed_frac",
        1.0 - ratio(tracer.children_ns("decide.op"), real_ns),
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn an_unknown_verdict_is_wrong_for_every_case() {
        for case in inputs::decide_mix(3, true) {
            let spec = CompiledSpec::from_sources(&case.dtd_src, Some(&case.root), &case.sigma_src)
                .expect("mix specs compile");
            let errors = verify(&case, Verdict::Unknown, None, &spec);
            assert!(
                errors.iter().any(|e| e.contains("Unknown")),
                "{}: {errors:?}",
                case.label
            );
        }
    }
}
