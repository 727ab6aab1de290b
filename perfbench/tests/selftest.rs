//! Benchmark self-test at tiny sizes: every workload, untraced and
//! traced, twice each. Every metric `BENCHMARK.json` declares must be
//! printed, no operation may fail, every re-drive of a layer must
//! reproduce its engine's result, the statistics digest must repeat
//! across runs and between traced and untraced runs, and every count
//! the traced run reports must repeat exactly.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`.

use std::process::Command;

const WORKLOADS: [&str; 4] = [
    "campaign-mix-wide",
    "system-seu-narrow",
    "fleet-mixed-ckpt",
    "explore-worked",
];
/// Units whose values are deterministic counts.
const COUNT_UNITS: [&str; 3] = ["count", "bytes", "lanes"];

/// Metric names declared in one section of `BENCHMARK.json`.
fn declared(section: &str) -> Vec<String> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json is readable");
    let start = text
        .find(&format!("\"{section}\""))
        .expect("section present");
    let body = &text[start..];
    let end = body.find(']').expect("section is a list");
    body[..end]
        .split("\"name\": \"")
        .skip(1)
        .map(|s| s[..s.find('"').expect("closing quote")].to_owned())
        .collect()
}

struct Run {
    last_line: String,
    digest: String,
}

impl Run {
    /// `(value, unit)` of metric `name` in the result line.
    fn metric(&self, name: &str) -> Option<(String, String)> {
        let at = self.last_line.find(&format!("\"{name}\": {{\"value\": "))?;
        let rest = &self.last_line[at + name.len() + 14..];
        let value = rest[..rest.find(',')?].to_owned();
        let unit_at = rest.find("\"unit\": \"")? + 9;
        let unit = rest[unit_at..unit_at + rest[unit_at..].find('"')?].to_owned();
        Some((value, unit))
    }
}

fn run(workload: &str, trace: u8) -> Run {
    let out = Command::new(env!("CARGO_BIN_EXE_scm-perfbench"))
        .args(["--workload", workload, "--seed", "5", "--seconds", "0.2"])
        .args(["--trace", &trace.to_string(), "--tiny"])
        .output()
        .expect("benchmark binary runs");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    assert!(
        out.status.success(),
        "{workload} trace={trace} failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let last_line = stdout.lines().last().expect("output").to_owned();
    assert!(
        last_line.starts_with("{\"correct\": true, ") && last_line.contains("\"failed\": 0, "),
        "{workload} trace={trace}: {last_line}"
    );
    assert!(stdout.contains("\nfailed_frac = 0 "), "{stdout}");
    assert!(
        !stdout.contains("error:") && !stdout.contains("disagrees") && !stdout.contains("differs"),
        "{workload} trace={trace} reports a mismatch:\n{stdout}"
    );
    if trace == 1 {
        let checks = stdout
            .lines()
            .find_map(|l| l.strip_prefix("re-drive checks: "))
            .expect("re-drive checks line");
        assert!(
            checks.ends_with(" made, 0 failed") && !checks.starts_with("0 "),
            "{workload}: re-drive checks: {checks}"
        );
    }
    let digest = stdout
        .lines()
        .find_map(|l| l.strip_prefix("digest: "))
        .expect("digest line")
        .to_owned();
    Run { last_line, digest }
}

#[test]
fn every_workload_prints_every_metric_and_repeats_its_counts() {
    let end_to_end = declared("end_to_end");
    let per_layer = declared("per_layer");
    assert!(end_to_end.iter().any(|n| n == "setup_s"));
    assert!(!per_layer.is_empty());
    for workload in WORKLOADS {
        let plain = [run(workload, 0), run(workload, 0)];
        let traced = [run(workload, 1), run(workload, 1)];
        for r in &plain {
            for name in &end_to_end {
                assert!(r.metric(name).is_some(), "{workload}: no {name}");
            }
        }
        for r in &traced {
            for name in &per_layer {
                assert!(r.metric(name).is_some(), "{workload} traced: no {name}");
            }
        }
        for r in plain.iter().chain(&traced) {
            assert_eq!(r.digest, plain[0].digest, "{workload}: digest differs");
        }
        for name in &per_layer {
            let (a, unit) = traced[0].metric(name).expect("checked above");
            if COUNT_UNITS.contains(&unit.as_str()) {
                let (b, _) = traced[1].metric(name).expect("checked above");
                assert_eq!(a, b, "{workload}: count {name} differs between traced runs");
            }
        }
    }
}

#[test]
fn bad_arguments_fail_without_a_result() {
    for args in [
        "--workload nope --seed 1 --seconds 1 --trace 0",
        "--workload explore-worked --seed x --seconds 1 --trace 0",
        "--workload explore-worked --seed 1 --seconds 1",
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_scm-perfbench"))
            .args(args.split(' '))
            .output()
            .expect("benchmark binary runs");
        assert!(!out.status.success(), "{args} succeeded");
        assert!(out.stdout.is_empty(), "{args} printed a result");
    }
}
