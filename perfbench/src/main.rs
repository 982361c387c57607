//! `perfbench` — one seeded benchmark for the decide, ingest, edit and coord
//! paths.
//!
//! ```text
//! perfbench --workload <decide|ingest|edit|coord> --seed N --seconds S --trace <0|1>
//! ```
//!
//! Every input is generated from `--seed` in this process.  A run sets up,
//! measures one closed-loop client (the next op is sent only after the
//! previous one returned) for `--seconds`, checks every verdict against an
//! oracle that does not share the production path, and prints as its last
//! line one JSON object: `correct`, `attempted`, `failed` and `metrics` —
//! the end-to-end metrics with `--trace 0`, the per-layer metrics with
//! `--trace 1`.  A wrong verdict makes the command exit 1.
//!
//! `perfbench serve …` runs the `xic serve` front end; the coord workload
//! spawns its shard workers from this executable that way.

mod decide;
mod edit;
mod ingest;
mod inputs;
mod stream;
mod trace;
mod util;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;

/// Peak RSS is read after set-up and this many ops (or at the end of a
/// shorter run), so it does not grow with throughput where the program
/// retains per-op history.
pub const RSS_AFTER_OPS: u64 = 2000;

/// End-to-end metrics (`--trace 0`), printed by every workload.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("ops_per_s", "1/s"),
    ("p50_us", "us"),
    ("geomean_ms", "ms"),
];

/// Per-layer metrics (`--trace 1`), printed by every workload.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("dtd.parse_us", "us"),
    ("constraints.parse_us", "us"),
    ("engine.compile_us", "us"),
    ("core.system_build_us", "us"),
    ("ilp.solve_us", "us"),
    ("ilp.bb_nodes", "count"),
    ("ilp.lp_calls", "count"),
    ("ilp.pruned_ratio", "ratio"),
    ("core.witness_us", "us"),
    ("core.witness_nodes", "count"),
    ("core.implies_us", "us"),
    ("xml.parse_ns_per_node", "ns/node"),
    ("xml.parse_mb_per_s", "MB/s"),
    ("xml.pool_distinct_ratio", "ratio"),
    ("xml.validate_ns_per_node", "ns/node"),
    ("constraints.index_build_ns_per_node", "ns/node"),
    ("constraints.check_us", "us"),
    ("engine.batch_parallel_eff", "ratio"),
    ("engine.apply_us", "us"),
    ("engine.commit_setattr_us", "us"),
    ("engine.commit_structural_us", "us"),
    ("constraints.rechecked_per_commit", "count"),
    ("engine.delta_codec_us", "us"),
    ("engine.delta_bytes", "bytes"),
    ("server.unattributed_us", "us"),
    ("engine.open_us", "us"),
    ("engine.open_over_cold_x", "x"),
    ("engine.replica_apply_us", "us"),
    ("coord.groups_per_apply", "count"),
    ("coord.worker_rechecked_max", "count"),
    ("engine.merge_us", "us"),
    ("coord.overhead_x", "x"),
    ("coord.restarts", "count"),
    ("trace.overhead_frac", "ratio"),
    ("unattributed_frac", "ratio"),
];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Decide,
    Ingest,
    Edit,
    Coord,
}

impl Workload {
    fn parse(name: &str) -> Option<Workload> {
        Some(match name {
            "decide" => Workload::Decide,
            "ingest" => Workload::Ingest,
            "edit" => Workload::Edit,
            "coord" => Workload::Coord,
            _ => return None,
        })
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::Decide => "decide",
            Workload::Ingest => "ingest",
            Workload::Edit => "edit",
            Workload::Coord => "coord",
        }
    }

    /// Why the workload is in the benchmark (printed in the input record).
    pub fn why(self) -> &'static str {
        match self {
            Workload::Decide => {
                "Figure 5 decision procedures from source text: core and ilp only, no documents"
            }
            Workload::Ingest => {
                "cold batch validation: xml parse, Glushkov validate, DocIndex build and check"
            }
            Workload::Edit => {
                "wire transactions on a live corpus: incremental engine, delta codec and server"
            }
            Workload::Coord => {
                "the edit stream through the multi-process coordinator: routing, FIFOs, merge"
            }
        }
    }
}

/// One benchmark invocation.
#[derive(Debug, Clone)]
pub struct Config {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Small inputs, for the benchmark's own tests.
    pub tiny: bool,
    /// Flip one expected answer on purpose (the tests use it to show a
    /// wrong verdict fails the run).
    pub flip_expected: bool,
}

/// What a workload run hands back.
#[derive(Debug, Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    /// Correctness failures: any entry makes the run exit non-zero.
    pub errors: Vec<String>,
    pub metrics: BTreeMap<&'static str, f64>,
}

impl Report {
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok && self.errors.len() < 20 {
            self.errors.push(what());
        }
    }

    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }
}

/// The input record of one run: sizes, labels and a hash of every
/// generated byte, so two runs can show they measured the same inputs.
#[derive(Debug, Default)]
pub struct InputRecord {
    pub docs: usize,
    pub nodes: usize,
    pub bytes: usize,
    pub dtd_size: usize,
    pub sigma: usize,
    pub shards: usize,
    pub instances: Vec<String>,
    pub hash: u64,
}

impl InputRecord {
    pub fn print(&self, config: &Config) {
        let instances: Vec<String> = self
            .instances
            .iter()
            .map(|label| format!("\"{label}\""))
            .collect();
        println!(
            "inputs: {{\"workload\":\"{}\",\"why\":\"{}\",\"seed\":{},\"docs\":{},\"nodes\":{},\"bytes\":{},\"dtd_size\":{},\"sigma\":{},\"shards\":{},\"instances\":[{}],\"hash\":\"{:016x}\"}}",
            config.workload.name(),
            config.workload.why(),
            config.seed,
            self.docs,
            self.nodes,
            self.bytes,
            self.dtd_size,
            self.sigma,
            self.shards,
            instances.join(","),
            self.hash
        );
    }
}

/// Where spans and scratch files go: inside the directory the benchmark
/// runs from, never outside it.
pub fn out_dir() -> PathBuf {
    PathBuf::from(".bench_out")
}

fn parse_args(args: &[String]) -> Result<Config, String> {
    let mut config = Config {
        workload: Workload::Decide,
        seed: 1,
        seconds: 10.0,
        trace: false,
        tiny: false,
        flip_expected: false,
    };
    let mut workload = None;
    let mut i = 0;
    while i < args.len() {
        let value = || {
            args.get(i + 1)
                .cloned()
                .ok_or_else(|| format!("{} needs a value", args[i]))
        };
        match args[i].as_str() {
            "--workload" => {
                let name = value()?;
                workload =
                    Some(Workload::parse(&name).ok_or_else(|| format!("unknown workload {name}"))?);
                i += 1;
            }
            "--seed" => {
                config.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?;
                i += 1;
            }
            "--seconds" => {
                config.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(config.seconds > 0.0 && config.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                i += 1;
            }
            "--trace" => {
                config.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                };
                i += 1;
            }
            "--tiny" => config.tiny = true,
            "--flip-expected" => config.flip_expected = true,
            other => return Err(format!("unknown argument {other}")),
        }
        i += 1;
    }
    config.workload = workload.ok_or("--workload is required")?;
    Ok(config)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("serve") {
        let (report, code) = xic_cli::run(args);
        if code == 0 {
            print!("{report}");
        } else {
            eprint!("{report}");
        }
        std::process::exit(code);
    }
    let config = match parse_args(&args) {
        Ok(config) => config,
        Err(msg) => {
            eprintln!("perfbench: {msg}");
            std::process::exit(2);
        }
    };

    // The fingerprint counts the machine's CPUs, so it comes first; the pin
    // comes before any thread or worker process starts, so all share it.
    let (nproc, calibration_ns) = util::machine_fingerprint();
    let pinned = match config.workload {
        Workload::Edit | Workload::Coord => util::pin_to_current_cpu(),
        Workload::Decide | Workload::Ingest => None,
    };
    let pinned = pinned.map_or("null".to_string(), |cpu| cpu.to_string());
    println!(
        "machine: {{\"nproc\":{nproc},\"calibration_ns\":{calibration_ns},\"pinned_cpu\":{pinned}}}"
    );
    let started = Instant::now();
    let mut report = match config.workload {
        Workload::Decide => decide::run(&config),
        Workload::Ingest => ingest::run(&config),
        Workload::Edit | Workload::Coord => edit::run(&config),
    };
    let names = if config.trace { PER_LAYER } else { END_TO_END };
    if config.trace {
        // A layer the workload does not call reads 0.
        for (name, _) in PER_LAYER {
            report.metrics.entry(name).or_insert(0.0);
        }
    }
    let mut fields = Vec::new();
    let mut complete = true;
    for (name, unit) in names {
        match report.metrics.get(name) {
            Some(value) if value.is_finite() => {
                fields.push(format!(
                    "\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}"
                ));
            }
            _ => {
                eprintln!("perfbench: metric {name} was not measured");
                complete = false;
            }
        }
    }
    for error in &report.errors {
        eprintln!("perfbench: WRONG: {error}");
    }
    let correct = report.errors.is_empty() && complete && report.attempted > 0;
    println!(
        "run: {:.1} s wall, {} ops attempted, {} failed",
        started.elapsed().as_secs_f64(),
        report.attempted,
        report.failed
    );
    println!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        report.attempted,
        report.failed,
        fields.join(",")
    );
    if !correct {
        std::process::exit(1);
    }
}
