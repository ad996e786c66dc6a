//! Benchmark self-test: at a tiny scale, every workload completes with zero
//! failed operations and correct answers, and prints exactly the metrics
//! `BENCHMARK.json` names, each with its unit — untraced and traced.
//!
//! Run with `cargo test --release --manifest-path servebench/Cargo.toml`.

use std::path::{Path, PathBuf};
use std::process::Command;

use mnc_obs::json::{parse, JsonValue};

fn repo_root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the benchmark sits inside the repository")
}

/// Builds the daemon from the repository's workspace into a target
/// directory of its own, so this build never waits on the one running the
/// test.
fn daemon() -> PathBuf {
    let target = Path::new(env!("CARGO_TARGET_TMPDIR")).join("daemon");
    let status = Command::new(std::env::var("CARGO").unwrap_or_else(|_| "cargo".into()))
        .args([
            "build",
            "--release",
            "--quiet",
            "--offline",
            "-p",
            "mnc-served",
        ])
        .arg("--manifest-path")
        .arg(repo_root().join("Cargo.toml"))
        .arg("--target-dir")
        .arg(&target)
        .status()
        .expect("run cargo");
    assert!(status.success(), "building mnc-served failed");
    target.join("release").join("mnc-served")
}

/// `(name, unit)` of every metric in one section of BENCHMARK.json.
fn declared(section: &str) -> Vec<(String, String)> {
    let text = std::fs::read_to_string(repo_root().join("BENCHMARK.json")).expect("BENCHMARK.json");
    let spec = parse(&text).expect("BENCHMARK.json is JSON");
    let Some(JsonValue::Array(items)) = spec.get(section) else {
        panic!("BENCHMARK.json has no `{section}` list");
    };
    items
        .iter()
        .map(|m| {
            let field = |k: &str| m.get(k).and_then(|v| v.as_str()).expect(k).to_string();
            (field("name"), field("unit"))
        })
        .collect()
}

#[test]
fn every_workload_reports_every_metric() {
    let daemon = daemon();
    for (trace, section) in [("0", "end_to_end"), ("1", "per_layer")] {
        let mut want = declared(section);
        want.sort();
        for workload in ["serve_small", "serve_dag", "ingest_mixed"] {
            let out = Command::new(env!("CARGO_BIN_EXE_servebench"))
                .args(["--workload", workload, "--seed", "7", "--seconds", "1"])
                .args(["--trace", trace, "--tiny", "--daemon"])
                .arg(&daemon)
                .output()
                .expect("run servebench");
            let stdout = String::from_utf8_lossy(&out.stdout);
            assert!(
                out.status.success(),
                "{workload} trace {trace} failed:\n{}",
                String::from_utf8_lossy(&out.stderr)
            );
            let last = stdout.lines().last().expect("some output");
            let result = parse(last).expect("last line is JSON");
            let ctx = format!("{workload} trace {trace}: {last}");
            assert!(
                matches!(result.get("correct"), Some(JsonValue::Bool(true))),
                "{ctx}"
            );
            assert_eq!(
                result.get("failed").and_then(|v| v.as_f64()),
                Some(0.0),
                "{ctx}"
            );
            assert!(
                result
                    .get("attempted")
                    .and_then(|v| v.as_f64())
                    .unwrap_or(0.0)
                    >= 1.0,
                "{ctx}"
            );
            let Some(JsonValue::Object(metrics)) = result.get("metrics") else {
                panic!("no metrics object: {ctx}");
            };
            let mut got: Vec<(String, String)> = metrics
                .iter()
                .map(|(name, m)| {
                    let value = m.get("value").and_then(|v| v.as_f64());
                    assert!(value.is_some_and(f64::is_finite), "{name} value: {ctx}");
                    let unit = m.get("unit").and_then(|v| v.as_str()).unwrap_or("");
                    (name.clone(), unit.to_string())
                })
                .collect();
            got.sort();
            assert_eq!(got, want, "{ctx}");
        }
    }
}
