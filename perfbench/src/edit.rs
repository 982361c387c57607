//! `edit` and `coord`: one client sends the seeded transaction stream of
//! [`crate::stream`] to a live corpus and waits for each answer.
//!
//! * `edit` — an in-process `xic_server::Server` over TCP loopback, through
//!   a `Client` (2 server workers).
//! * `coord` — an `xic_coord::Coordinator` with 2 shard-worker processes.
//!
//! Oracle: an in-process `CorpusSession` replays the same stream (in
//! slices of [`REPLAY_EVERY`] transactions, between ops).  Every committed
//! delta must equal its delta, every read (a replica synced from the
//! target) must equal its report, and at the end of every slice its report
//! must equal a cold `BatchEngine::validate_trees` over the same trees.

use std::collections::BTreeMap;
use std::net::{IpAddr, Ipv4Addr, SocketAddr};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

use xic_coord::{CoordConfig, Coordinator};
use xic_engine::wire::{read_response, write_response, Response};
use xic_engine::{
    BatchDelta, BatchEngine, CompiledSpec, CorpusReplica, CorpusSession, DocHandle, ReportMerger,
};
use xic_server::{Client, Server, ServerConfig};
use xic_xml::{write_document, EditOp};

use crate::ingest;
use crate::inputs::{self, Corpus};
use crate::stream::{Stream, Txn, CLASSES};
use crate::trace::Tracer;
use crate::util::{fingerprint, median, peak_rss_mb, print_tail, ratio, Latencies};
use crate::{Config, InputRecord, Report, Workload, RSS_AFTER_OPS};

/// Transactions between two oracle replays (bounds what the run keeps in
/// memory, so memory does not grow with throughput).
const REPLAY_EVERY: usize = 512;
const WORKERS: usize = 2;

/// The system under test: the wire server or the coordinator.
enum Target {
    Wire {
        server: Server,
        client: Client,
    },
    Coord {
        coordinator: Box<Coordinator>,
        read: usize,
    },
}

fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

impl Target {
    fn open(&mut self, label: &str, source: &str) -> Result<u64, String> {
        match self {
            Target::Wire { client, .. } => client.open_doc(label, source).map_err(err),
            Target::Coord { coordinator, .. } => coordinator.open_doc(label, source).map_err(err),
        }
    }

    fn apply(&mut self, handle: u64, ops: &[EditOp]) -> Result<(), String> {
        match self {
            Target::Wire { client, .. } => client.apply(handle, ops).map(drop).map_err(err),
            Target::Coord { coordinator, .. } => coordinator.apply(handle, ops).map_err(err),
        }
    }

    fn commit(&mut self) -> Result<BatchDelta, String> {
        match self {
            Target::Wire { client, .. } => client.commit().map_err(err),
            Target::Coord { coordinator, .. } => coordinator.commit().map_err(err),
        }
    }

    fn close(&mut self, handle: u64) -> Result<(), String> {
        match self {
            Target::Wire { client, .. } => client.close_doc(handle).map(drop).map_err(err),
            Target::Coord { coordinator, .. } => {
                coordinator.close_doc(handle).map(drop).map_err(err)
            }
        }
    }

    /// The read: deltas committed since the last read, applied to a
    /// replica (over the wire for `edit`; from the coordinator's merged
    /// stream for `coord`).
    fn sync(&mut self, replica: &mut CorpusReplica) -> Result<(), String> {
        match self {
            Target::Wire { client, .. } => client.sync_replica(replica).map(drop).map_err(err),
            Target::Coord { coordinator, read } => {
                for delta in &coordinator.deltas()[*read..] {
                    replica.apply_delta(delta).map_err(err)?;
                }
                *read = coordinator.deltas().len();
                Ok(())
            }
        }
    }

    fn shutdown(self) {
        match self {
            Target::Wire { server, mut client } => {
                let _ = client.shutdown();
                server.wait();
            }
            Target::Coord { coordinator, .. } => coordinator.shutdown(),
        }
    }
}

/// Spec files the coordinator's workers compile (inside the run directory).
struct SpecFiles {
    dir: PathBuf,
    dtd: PathBuf,
    sigma: PathBuf,
}

impl SpecFiles {
    fn write(corpus: &Corpus) -> SpecFiles {
        let dir = crate::out_dir().join(format!("coord-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("create the run's scratch directory");
        let files = SpecFiles {
            dtd: dir.join("spec.dtd"),
            sigma: dir.join("spec.xic"),
            dir,
        };
        std::fs::write(&files.dtd, &corpus.dtd_src).expect("write the DTD");
        std::fs::write(&files.sigma, &corpus.sigma_src).expect("write Σ");
        files
    }
}

impl Drop for SpecFiles {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// Set-up as a user pays it: compile, start the server or spawn the
/// workers, open the base corpus and commit it.
fn launch(
    workload: Workload,
    corpus: &Corpus,
    files: &SpecFiles,
) -> Result<(Target, Vec<u64>, BatchDelta), String> {
    let mut target = match workload {
        Workload::Coord => Target::Coord {
            coordinator: Box::new(
                Coordinator::launch(CoordConfig {
                    xic_bin: std::env::current_exe().map_err(err)?,
                    dtd: files.dtd.clone(),
                    root: Some(corpus.root.clone()),
                    constraints: Some(files.sigma.clone()),
                    workers: WORKERS,
                    scratch: files.dir.clone(),
                    session: "bench".to_string(),
                    max_restarts: 1,
                })
                .map_err(err)?,
            ),
            read: 0,
        },
        _ => {
            let spec =
                CompiledSpec::from_sources(&corpus.dtd_src, Some(&corpus.root), &corpus.sigma_src)
                    .map_err(err)?;
            let spec = Arc::new(spec);
            let server = Server::start(
                Arc::clone(&spec),
                ServerConfig {
                    tcp: Some(SocketAddr::new(IpAddr::V4(Ipv4Addr::LOCALHOST), 0)),
                    workers: WORKERS,
                    ..ServerConfig::default()
                },
            )
            .map_err(err)?;
            let addr = server.tcp_addr().ok_or("server has no TCP address")?;
            let client = Client::connect_tcp(addr, spec.id(), "bench").map_err(err)?;
            Target::Wire { server, client }
        }
    };
    let handles = corpus
        .docs
        .iter()
        .map(|d| target.open(&d.label, &d.source))
        .collect::<Result<Vec<_>, _>>()?;
    let base = target.commit()?;
    Ok((target, handles, base))
}

/// The in-process oracle: replays the logged stream and compares.
struct Oracle<'s> {
    spec: &'s CompiledSpec,
    session: CorpusSession<'s>,
    handles: Vec<DocHandle>,
    labels: Vec<String>,
    /// Transactions not yet replayed, with the target's delta fingerprint
    /// (commits) or replica-report fingerprint (reads).
    log: Vec<(Txn, u64)>,
    flip: bool,
    checkpoints: usize,
}

impl<'s> Oracle<'s> {
    fn new(
        spec: &'s CompiledSpec,
        corpus: &Corpus,
        base: &BatchDelta,
        report: &mut Report,
        flip: bool,
    ) -> Self {
        let mut session = CorpusSession::new(spec);
        let handles = corpus
            .docs
            .iter()
            .map(|d| {
                session
                    .open_source(&d.label, &d.source)
                    .expect("corpus documents open")
            })
            .collect();
        let delta = session.commit();
        report.check(delta == *base, || {
            "base commit differs from the in-process session".into()
        });
        Oracle {
            spec,
            session,
            handles,
            labels: corpus.docs.iter().map(|d| d.label.clone()).collect(),
            log: Vec::new(),
            flip,
            checkpoints: 0,
        }
    }

    fn replay(&mut self, report: &mut Report) {
        for (txn, seen) in std::mem::take(&mut self.log) {
            let want = match &txn {
                Txn::SetAttr { doc, ops } | Txn::Structural { doc, ops } => {
                    let applied = self.session.apply(self.handles[*doc], ops);
                    report.check(applied.is_ok(), || format!("oracle rejected {ops:?}"));
                    fingerprint(&self.session.commit())
                }
                Txn::Reopen { doc, source } => {
                    let tree = self
                        .session
                        .close(self.handles[*doc])
                        .expect("oracle closes");
                    report.check(write_document(&tree, self.spec.dtd()) == *source, || {
                        format!(
                            "reopened {} differs from the in-process document",
                            self.labels[*doc]
                        )
                    });
                    self.handles[*doc] = self
                        .session
                        .open_source(&self.labels[*doc], source)
                        .expect("oracle reopens");
                    fingerprint(&self.session.commit())
                }
                Txn::Sync => {
                    self.checkpoints += 1;
                    fingerprint(&self.session.report())
                }
            };
            let want = if std::mem::take(&mut self.flip) {
                want ^ 1
            } else {
                want
            };
            report.check(want == seen, || {
                format!(
                    "{} answer differs from the in-process session (checkpoint {})",
                    CLASSES[txn.class()],
                    self.checkpoints
                )
            });
        }
        let docs: Vec<(&str, &xic_xml::XmlTree)> = self
            .session
            .handles()
            .map(|h| {
                (
                    self.session.label(h).expect("open handle"),
                    self.session.tree(h).expect("open handle"),
                )
            })
            .collect();
        let cold = BatchEngine::new(1).validate_trees(self.spec, &docs);
        report.check(cold == self.session.report(), || {
            "in-process session differs from a cold validate_trees".into()
        });
    }
}

/// An in-process session fed the same stream inline, with spans around
/// each layer call (the traced run's attribution of the remote op).
struct Shadow<'s> {
    session: CorpusSession<'s>,
    handles: Vec<DocHandle>,
    labels: Vec<String>,
    replica: CorpusReplica,
    merger: Option<(ReportMerger, Vec<Vec<u32>>)>,
}

#[derive(Debug, Default)]
struct ShadowCounts {
    commits: usize,
    rechecked: u64,
    delta_bytes: usize,
    /// The cold path of reopened documents.
    cold: ingest::Counts,
}

fn rechecked_now() -> u64 {
    xic_telemetry::global()
        .counter("incremental.constraints_rechecked")
        .get()
}

impl<'s> Shadow<'s> {
    fn new(spec: &'s CompiledSpec, corpus: &Corpus, groups: Option<Vec<Vec<u32>>>) -> Self {
        let mut session = CorpusSession::new(spec);
        let mut merger = groups.map(|g| (ReportMerger::new(Arc::clone(spec.shard_plan())), g));
        let handles: Vec<DocHandle> = corpus
            .docs
            .iter()
            .map(|d| {
                let h = session
                    .open_source(&d.label, &d.source)
                    .expect("corpus documents open");
                if let Some((m, _)) = &mut merger {
                    m.open(h, &d.label);
                }
                h
            })
            .collect();
        let mut shadow = Shadow {
            session,
            handles,
            labels: corpus.docs.iter().map(|d| d.label.clone()).collect(),
            replica: CorpusReplica::new(spec.id()),
            merger,
        };
        let delta = shadow.session.commit();
        shadow.merge(&delta, &mut Tracer::new(false), None, 0);
        shadow
    }

    /// Runs one transaction; returns the ns spent in apply + commit.
    fn run(&mut self, txn: &Txn, tracer: &mut Tracer, op: u64, counts: &mut ShadowCounts) -> f64 {
        match txn {
            Txn::SetAttr { doc, ops } | Txn::Structural { doc, ops } => {
                let root = tracer.open("shadow.commit", None, op);
                let t = Instant::now();
                tracer
                    .span("engine.apply", root, op, || {
                        self.session.apply(self.handles[*doc], ops)
                    })
                    .expect("shadow applies");
                let name = if txn.class() == 0 {
                    "engine.commit_setattr"
                } else {
                    "engine.commit_structural"
                };
                let before = root.map(|_| rechecked_now());
                let delta = tracer.span(name, root, op, || self.session.commit());
                let ns = t.elapsed().as_nanos() as f64;
                if let Some(before) = before {
                    counts.commits += 1;
                    counts.rechecked += rechecked_now() - before;
                }
                let message = Response::Delta(delta.clone());
                let bytes = tracer.span("engine.delta_codec", root, op, || {
                    let mut buf = Vec::new();
                    write_response(&mut buf, op, &message).expect("encode to memory");
                    let decoded = read_response(&mut buf.as_slice()).expect("decode");
                    std::hint::black_box(decoded);
                    buf.len()
                });
                if root.is_some() {
                    counts.delta_bytes += bytes;
                }
                self.merge(&delta, tracer, root, op);
                tracer.close(root);
                ns
            }
            Txn::Reopen { doc, source } => {
                let root = tracer.open("shadow.reopen", None, op);
                let old = self.handles[*doc];
                tracer
                    .span("engine.close", root, op, || self.session.close(old))
                    .expect("closes");
                let label = &self.labels[*doc];
                let h = tracer
                    .span("engine.open", root, op, || {
                        self.session.open_source(label, source)
                    })
                    .expect("reopens");
                self.handles[*doc] = h;
                let delta = tracer.span("engine.commit_reopen", root, op, || self.session.commit());
                if let Some((m, _)) = &mut self.merger {
                    m.close(old);
                    m.open(h, label);
                }
                self.merge(&delta, tracer, root, op);
                tracer.close(root);
                0.0
            }
            Txn::Sync => {
                let root = tracer.open("shadow.sync", None, op);
                let deltas: Vec<BatchDelta> = self
                    .session
                    .export_deltas(self.replica.last_seq())
                    .expect("deltas are retained")
                    .to_vec();
                for delta in &deltas {
                    tracer
                        .span("engine.replica_apply", root, op, || {
                            self.replica.apply_delta(delta)
                        })
                        .expect("replica applies");
                }
                tracer.close(root);
                0.0
            }
        }
    }

    /// Runs the cold path a reopen is compared with (parse, validate,
    /// `DocIndex` build and check of the same text) through its layers.
    fn cold_open(&self, source: &str, tracer: &mut Tracer, op: u64, counts: &mut ShadowCounts) {
        ingest::decompose(self.session.spec(), &[source], tracer, op, &mut counts.cold);
    }

    /// Drives a `ReportMerger` over the shard projections of `delta`, one
    /// worker scope per shard, group 0's first shard the authority — what
    /// the coordinator does with its workers' answers.
    fn merge(&mut self, delta: &BatchDelta, tracer: &mut Tracer, root: Option<usize>, op: u64) {
        let Some((merger, groups)) = &mut self.merger else {
            return;
        };
        let plan = Arc::clone(self.session.spec().shard_plan());
        let projections: Vec<(u32, bool, BatchDelta)> = groups
            .iter()
            .enumerate()
            .flat_map(|(g, shards)| {
                shards.iter().enumerate().filter_map({
                    let plan = &plan;
                    move |(i, &s)| delta.project(plan, s).map(|p| (s, g == 0 && i == 0, p))
                })
            })
            .collect();
        let dirty: BTreeMap<u64, Vec<u32>> = delta
            .changes
            .iter()
            .map(|c| (c.handle.raw(), c.shards.clone()))
            .collect();
        let merged = tracer.span("engine.merge", root, op, || {
            for (shard, authority, projection) in &projections {
                for change in &projection.changes {
                    merger.absorb(&[*shard], *authority, change);
                }
            }
            merger.commit(delta.rechecked_docs, &dirty)
        });
        std::hint::black_box(merged);
    }
}

/// Sends one transaction; returns the delta it committed (`None` for a
/// read).
fn execute(
    target: &mut Target,
    handles: &mut [u64],
    corpus: &Corpus,
    txn: &Txn,
    replica: &mut CorpusReplica,
    open_us: &mut Vec<f64>,
) -> Result<Option<BatchDelta>, String> {
    match txn {
        Txn::SetAttr { doc, ops } | Txn::Structural { doc, ops } => {
            target.apply(handles[*doc], ops)?;
            target.commit().map(Some)
        }
        Txn::Reopen { doc, source } => {
            target.close(handles[*doc])?;
            let t = Instant::now();
            handles[*doc] = target.open(&corpus.docs[*doc].label, source)?;
            open_us.push(t.elapsed().as_nanos() as f64 / 1e3);
            target.commit().map(Some)
        }
        Txn::Sync => target.sync(replica).map(|()| None),
    }
}

pub fn run(config: &Config) -> Report {
    let mut report = Report::default();
    let workload = config.workload;
    let corpus = inputs::edit_corpus(config.seed, config.tiny);
    let spec = CompiledSpec::from_sources(&corpus.dtd_src, Some(&corpus.root), &corpus.sigma_src)
        .expect("edit spec compiles");
    // The stream is input too: hash its first transactions with the corpus.
    let mut preview = Stream::new(&spec, &corpus, config.seed);
    let prefix: Vec<String> = (0..1000)
        .map(|_| format!("{:?}", preview.next_txn()))
        .collect();
    let prefix: Vec<&str> = prefix.iter().map(String::as_str).collect();
    InputRecord {
        docs: corpus.docs.len(),
        nodes: corpus
            .docs
            .iter()
            .map(|d| spec.parse_document(&d.source).expect("parses").num_nodes())
            .sum(),
        bytes: corpus.bytes(),
        dtd_size: spec.dtd().size(),
        sigma: spec.sigma().len(),
        shards: spec.shard_plan().num_shards(),
        hash: corpus.hash(&prefix),
        ..InputRecord::default()
    }
    .print(config);

    let files = SpecFiles::write(&corpus);
    let mut setups = Vec::new();
    let mut live = None;
    for _ in 0..5 {
        if let Some((target, _, _)) = live.take() {
            Target::shutdown(target);
        }
        let t = Instant::now();
        match launch(workload, &corpus, &files) {
            Ok(launched) => live = Some(launched),
            Err(e) => {
                report.attempted += 1;
                report.failed += 1;
                report.check(false, || format!("{} set-up failed: {e}", workload.name()));
                return report;
            }
        }
        setups.push(t.elapsed().as_secs_f64());
    }
    let (mut target, mut handles, base) = live.expect("launched");
    let groups: Option<Vec<Vec<u32>>> = match &target {
        Target::Coord { coordinator, .. } => Some(
            (0..coordinator.num_groups())
                .map(|g| coordinator.group_shards(g).to_vec())
                .collect(),
        ),
        Target::Wire { .. } => None,
    };

    let mut oracle = Oracle::new(&spec, &corpus, &base, &mut report, config.flip_expected);
    let mut stream = Stream::new(&spec, &corpus, config.seed);
    let mut replica = CorpusReplica::new(spec.id());
    let mut latencies = Latencies::default();
    let mut open_us = Vec::new();
    let mut rss = None;

    // Traced run only: two in-process shadows of the stream (untraced and
    // traced) and the coordinator's per-commit counters.
    let mut shadows = config.trace.then(|| {
        (
            Shadow::new(&spec, &corpus, groups.clone()),
            Shadow::new(&spec, &corpus, groups.clone()),
        )
    });
    let mut tracer = Tracer::new(true);
    let mut counts = ShadowCounts::default();
    let (mut plain_ns, mut traced_ns) = (0.0, 0.0);
    let mut shadow_commit_us = Vec::new();
    let mut groups_touched = Vec::new();
    let mut worker_max = Vec::new();
    let worker_rechecked = |target: &mut Target| -> Vec<u64> {
        match target {
            Target::Coord { coordinator, .. } => (0..coordinator.num_groups())
                .map(|g| {
                    coordinator
                        .worker_stats(g)
                        .ok()
                        .and_then(|s| s.counter("incremental.constraints_rechecked"))
                        .unwrap_or(0)
                })
                .collect(),
            Target::Wire { .. } => Vec::new(),
        }
    };
    let mut last_rechecked = if config.trace {
        worker_rechecked(&mut target)
    } else {
        Vec::new()
    };

    let start = Instant::now();
    let mut op = 0u64;
    while op < 20 || start.elapsed().as_secs_f64() < config.seconds {
        let txn = stream.next_txn();
        let t = Instant::now();
        let outcome = execute(
            &mut target,
            &mut handles,
            &corpus,
            &txn,
            &mut replica,
            &mut open_us,
        );
        let us = t.elapsed().as_nanos() as f64 / 1e3;
        report.attempted += 1;
        let delta = match outcome {
            Ok(delta) => delta,
            Err(e) => {
                report.failed += 1;
                report.check(false, || {
                    format!("{} {}: {e}", workload.name(), CLASSES[txn.class()])
                });
                break;
            }
        };
        latencies.push(txn.class(), us);
        let seen = match &delta {
            Some(delta) => fingerprint(delta),
            None => fingerprint(&replica.report()),
        };

        if let Some((plain, traced)) = &mut shadows {
            for pass in [op.is_multiple_of(2), !op.is_multiple_of(2)] {
                tracer.set_enabled(pass);
                let t = Instant::now();
                if pass {
                    traced.run(&txn, &mut tracer, op, &mut counts);
                    traced_ns += t.elapsed().as_nanos() as f64;
                    if let Txn::Reopen { source, .. } = &txn {
                        traced.cold_open(source, &mut tracer, op, &mut counts);
                    }
                } else {
                    let ns = plain.run(&txn, &mut tracer, op, &mut counts);
                    plain_ns += t.elapsed().as_nanos() as f64;
                    if txn.class() < 2 {
                        shadow_commit_us.push(ns / 1e3);
                    }
                }
            }
            if let (Some(groups), Some(delta)) = (&groups, &delta) {
                let now = worker_rechecked(&mut target);
                if txn.class() < 2 {
                    let touched = groups
                        .iter()
                        .filter(|shards| shards.iter().any(|s| delta.shards.contains(s)))
                        .count();
                    groups_touched.push(touched as f64);
                    let max = now.iter().zip(&last_rechecked).map(|(n, l)| n - l).max();
                    worker_max.push(max.unwrap_or(0) as f64);
                }
                last_rechecked = now;
            }
        }

        oracle.log.push((txn, seen));
        if oracle.log.len() >= REPLAY_EVERY {
            oracle.replay(&mut report);
        }
        op += 1;
        if op == RSS_AFTER_OPS {
            rss = Some(peak_rss_mb());
        }
    }
    oracle.replay(&mut report);
    let synced = target.sync(&mut replica);
    report.check(
        synced.is_ok() && replica.report() == oracle.session.report(),
        || "final replica differs from the in-process session".into(),
    );
    let restarts = match &target {
        Target::Coord { coordinator, .. } => (0..coordinator.num_groups())
            .map(|g| coordinator.worker_restarts(g))
            .sum(),
        Target::Wire { .. } => 0,
    };
    report.check(restarts == 0, || {
        format!("{restarts} coordinator worker restart(s)")
    });
    target.shutdown();

    let commits = latencies.of(|c| c < 2);
    for (class, name) in CLASSES.iter().enumerate() {
        let xs = &latencies.of(|c| c == class);
        println!(
            "class {name:<10} n={:<7} p50 {:>10.1} us",
            xs.len(),
            median(xs)
        );
    }
    println!(
        "open p50 {:.1} us (n={}), read p50 {:.1} us (n={})",
        median(&open_us),
        open_us.len(),
        median(&latencies.of(|c| c == 3)),
        latencies.of(|c| c == 3).len(),
    );
    print_tail(&commits);

    if config.trace {
        let us = |name: &str| median(&tracer.durations(name)) / 1e3;
        let mut commit_spans = tracer.durations("engine.commit_setattr");
        commit_spans.extend(tracer.durations("engine.commit_structural"));
        let p50 = median(&commits);
        let mut layers =
            us("engine.apply") + median(&commit_spans) / 1e3 + us("engine.delta_codec");
        report.set("engine.apply_us", us("engine.apply"));
        report.set("engine.commit_setattr_us", us("engine.commit_setattr"));
        report.set(
            "engine.commit_structural_us",
            us("engine.commit_structural"),
        );
        let per_commit = |n: f64| n / counts.commits.max(1) as f64;
        report.set(
            "constraints.rechecked_per_commit",
            per_commit(counts.rechecked as f64),
        );
        report.set("engine.delta_codec_us", us("engine.delta_codec"));
        report.set("engine.delta_bytes", per_commit(counts.delta_bytes as f64));
        report.set("engine.open_us", us("engine.open"));
        report.set(
            "engine.open_over_cold_x",
            ratio(
                tracer.total_ns("engine.open"),
                tracer.total_ns("xml.parse") + tracer.total_ns("constraints.index_build"),
            ),
        );
        report.set("engine.replica_apply_us", us("engine.replica_apply"));
        ingest::report_cold_path(&mut report, &tracer, &counts.cold);
        report.set("trace.overhead_frac", ratio(traced_ns, plain_ns) - 1.0);
        if workload == Workload::Coord {
            layers += us("engine.merge");
            report.set(
                "coord.groups_per_apply",
                groups_touched.iter().sum::<f64>() / groups_touched.len().max(1) as f64,
            );
            report.set(
                "coord.worker_rechecked_max",
                worker_max.iter().sum::<f64>() / worker_max.len().max(1) as f64,
            );
            report.set("engine.merge_us", us("engine.merge"));
            report.set("coord.overhead_x", ratio(p50, median(&shadow_commit_us)));
            report.set("coord.restarts", restarts as f64);
        } else {
            report.set("server.unattributed_us", p50 - layers);
        }
        report.set("unattributed_frac", 1.0 - ratio(layers, p50));
        let path = crate::out_dir().join(format!("trace-{}.jsonl", workload.name()));
        if let Err(err) = tracer.write_jsonl(&path) {
            eprintln!("perfbench: cannot write spans: {err}");
        }
    } else {
        report.set("setup_s", median(&setups));
        report.set("peak_rss_mb", rss.unwrap_or_else(peak_rss_mb));
        report.set("ops_per_s", latencies.ops_per_s());
        report.set("p50_us", median(&commits));
        report.set("geomean_ms", latencies.geomean_ms());
    }
    report
}
