//! Smoke mode: every workload briefly, untraced and traced. Every metric
//! `BENCHMARK.json` names must be present and no operation may fail.

use std::path::Path;
use std::process::Command;

/// The `"name"` values of the objects in the array under `key`.
fn names_under(json: &str, key: &str) -> Vec<String> {
    let start = json.find(&format!("\"{key}\"")).expect("key present");
    let open = start + json[start..].find('[').expect("array follows the key");
    let close = open + json[open..].find(']').expect("array ends");
    json[open..close]
        .split("\"name\"")
        .skip(1)
        .map(|rest| {
            let value = rest.split('"').nth(1).expect("name has a string value");
            value.to_string()
        })
        .collect()
}

fn benchmark_json() -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root")
}

fn run(workload: &str, traced: bool) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", workload, "--seed", "7", "--seconds", "1"])
        .args(["--trace", if traced { "1" } else { "0" }])
        .current_dir(Path::new(env!("CARGO_MANIFEST_DIR")).join(".."))
        .output()
        .expect("benchmark runs");
    assert!(out.status.success(), "{workload}: exit {:?}", out.status);
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    stdout.lines().last().expect("a result line").to_string()
}

fn check(workload: &str) {
    let spec = benchmark_json();
    for (traced, key) in [(false, "end_to_end"), (true, "per_layer")] {
        let result = run(workload, traced);
        assert!(
            result.starts_with("{\"correct\": true, ") && result.contains("\"failed\": 0, "),
            "{workload} trace={traced}: {result}"
        );
        let expected = names_under(&spec, key);
        assert!(!expected.is_empty());
        for name in &expected {
            assert!(
                result.contains(&format!("\"{name}\": {{\"value\": ")),
                "{workload} trace={traced} lacks {name}"
            );
        }
        let reported = result.matches("{\"value\": ").count();
        assert_eq!(
            reported,
            expected.len(),
            "{workload} trace={traced} reports extra metrics"
        );
    }
}

/// `many-locks` is left out of `BENCHMARK.json` (see the README) but still
/// runs here, so it keeps working for manual runs.
#[test]
fn listed_workloads() {
    let listed = names_under(&benchmark_json(), "workloads");
    assert_eq!(listed, ["uncontended", "contended", "tools"]);
}

#[test]
fn uncontended() {
    check("uncontended");
}

#[test]
fn contended() {
    check("contended");
}

#[test]
fn many_locks() {
    check("many-locks");
}

#[test]
fn tools() {
    check("tools");
}
