//! The benchmark's own tests, at a tiny size: every metric `BENCHMARK.json`
//! names is printed with its unit, the same seed generates the same input
//! bytes, and a wrong expected answer makes the command fail.

use std::path::PathBuf;
use std::process::{Command, Output};

const WORKLOADS: [&str; 4] = ["decide", "ingest", "edit", "coord"];

fn perfbench(args: &[&str]) -> Output {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR"));
    Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(args)
        .current_dir(dir)
        .output()
        .expect("perfbench runs")
}

fn run(workload: &str, seed: &str, extra: &[&str]) -> Output {
    let mut args = vec![
        "--workload",
        workload,
        "--seed",
        seed,
        "--seconds",
        "0.3",
        "--tiny",
    ];
    args.extend_from_slice(extra);
    perfbench(&args)
}

fn last_line(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout)
        .lines()
        .last()
        .unwrap_or("")
        .to_string()
}

/// `(name, unit)` of every metric in one section of `BENCHMARK.json`.
fn declared(section: &str) -> Vec<(String, String)> {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json is readable");
    let start = text
        .find(&format!("\"{section}\""))
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {section}"));
    let body = &text[start..];
    let body = &body[..body.find(']').expect("section is a list")];
    let field = |entry: &str, key: &str| -> String {
        let at = entry.find(&format!("\"{key}\"")).expect("field present") + key.len() + 2;
        let rest = &entry[at..];
        let open = rest.find('"').expect("string value") + 1;
        let close = rest[open..].find('"').expect("closed string") + open;
        rest[open..close].to_string()
    };
    body.split('{')
        .skip(1)
        .map(|entry| (field(entry, "name"), field(entry, "unit")))
        .collect()
}

#[test]
fn every_declared_metric_is_printed_with_its_unit() {
    for (trace, section) in [("0", "end_to_end"), ("1", "per_layer")] {
        let metrics = declared(section);
        assert!(!metrics.is_empty(), "{section} is empty");
        for workload in WORKLOADS {
            let out = run(workload, "3", &["--trace", trace]);
            let line = last_line(&out);
            assert!(
                out.status.success(),
                "{workload} --trace {trace} failed: {line}\n{}",
                String::from_utf8_lossy(&out.stderr)
            );
            assert!(line.starts_with("{\"correct\":true,"), "{line}");
            for (name, unit) in &metrics {
                let needle = format!("\"{name}\":{{\"value\":");
                let at = line
                    .find(&needle)
                    .unwrap_or_else(|| panic!("{workload}: {name} missing from {line}"));
                let rest = &line[at + needle.len()..];
                let value: f64 = rest[..rest.find(',').expect("value then unit")]
                    .parse()
                    .expect("numeric value");
                assert!(value.is_finite(), "{workload}: {name} = {value}");
                assert!(
                    rest.contains(&format!(",\"unit\":\"{unit}\"}}")),
                    "{workload}: {name} lacks unit {unit}"
                );
            }
            assert_eq!(
                line.matches("\"value\":").count(),
                metrics.len(),
                "{workload}: undeclared metrics in {line}"
            );
        }
    }
}

#[test]
fn same_seed_same_input_bytes() {
    for workload in WORKLOADS {
        let record = |seed: &str| {
            let out = run(workload, seed, &["--trace", "0"]);
            assert!(out.status.success());
            String::from_utf8_lossy(&out.stdout)
                .lines()
                .find(|l| l.starts_with("inputs: "))
                .expect("input record printed")
                .to_string()
        };
        let first = record("11");
        assert_eq!(first, record("11"), "{workload}: same seed, other inputs");
        let hash = |r: &str| r[r.find("\"hash\"").expect("hash field")..].to_string();
        assert_ne!(
            hash(&first),
            hash(&record("12")),
            "{workload}: seed ignored"
        );
    }
}

#[test]
fn a_flipped_expected_answer_fails_the_run() {
    for workload in WORKLOADS {
        let out = run(workload, "3", &["--trace", "0", "--flip-expected"]);
        assert!(!out.status.success(), "{workload} accepted a wrong answer");
        assert!(
            last_line(&out).starts_with("{\"correct\":false,"),
            "{workload}: {}",
            last_line(&out)
        );
    }
}

#[test]
fn bad_arguments_are_refused() {
    for args in [
        &["--workload", "nope"][..],
        &["--seed", "1"][..],
        &["--workload", "decide", "--trace", "2"][..],
    ] {
        let out = perfbench(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?} printed a result");
    }
}
