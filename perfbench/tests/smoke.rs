//! The benchmark's own tests, on shrunk cells (`--smoke`): every metric
//! `BENCHMARK.json` names prints with its unit, and a tampered reference
//! fingerprint is reported as a failed operation.
//!
//! ```text
//! cargo test --release --manifest-path perfbench/Cargo.toml
//! ```

use std::path::{Path, PathBuf};
use std::process::Command;

use serde_json::Value;

const WORKLOADS: [&str; 3] = ["fig3-vgg16", "resnet18-curve", "testbed-faulty"];

fn manifest() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

fn read_json(path: &Path) -> Value {
    let text = std::fs::read_to_string(path).expect("readable JSON file");
    serde_json::from_str(&text).expect("valid JSON")
}

/// Runs the benchmark in smoke mode and returns its result line.
fn smoke(workload: &str, trace: u8, extra: &[&str]) -> Value {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args([
            "--workload",
            workload,
            "--smoke",
            "--seed",
            "5",
            "--seconds",
            "1",
        ])
        .args(["--trace", &trace.to_string()])
        .args(extra)
        .output()
        .expect("benchmark starts");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    assert!(out.status.success(), "{workload} failed:\n{stdout}");
    let last = stdout.lines().last().expect("benchmark printed a result");
    serde_json::from_str(last).expect("last line is JSON")
}

/// `(name, unit)` of every metric of one `BENCHMARK.json` section.
fn named(section: &str) -> Vec<(String, String)> {
    let bench = read_json(&manifest().join("../BENCHMARK.json"));
    bench
        .get(section)
        .and_then(Value::as_array)
        .expect("section is a list")
        .iter()
        .map(|m| {
            let field = |k| {
                m.get(k)
                    .and_then(Value::as_str)
                    .expect("string field")
                    .to_string()
            };
            (field("name"), field("unit"))
        })
        .collect()
}

#[test]
fn every_named_metric_prints_with_its_unit() {
    for (trace, section) in [(0, "end_to_end"), (1, "per_layer")] {
        let want = named(section);
        for w in WORKLOADS {
            let result = smoke(w, trace, &[]);
            assert_eq!(
                result.get("correct").and_then(Value::as_bool),
                Some(true),
                "{w}"
            );
            assert_eq!(result.get("failed").and_then(Value::as_u64), Some(0), "{w}");
            let metrics = result
                .get("metrics")
                .and_then(Value::as_object)
                .expect("metrics");
            assert_eq!(metrics.len(), want.len(), "{w} trace {trace}: metric count");
            for (name, unit) in &want {
                let m = metrics
                    .get(name)
                    .unwrap_or_else(|| panic!("{w}: {name} missing"));
                assert_eq!(
                    m.get("unit").and_then(Value::as_str),
                    Some(unit.as_str()),
                    "{w}: {name}"
                );
                let v = m.get("value").and_then(Value::as_f64);
                assert!(v.is_some_and(f64::is_finite), "{w}: {name} = {v:?}");
            }
        }
    }
}

#[test]
fn a_tampered_reference_is_a_failed_operation() {
    let text = std::fs::read_to_string(manifest().join("references.json")).expect("references");
    // Flip the last digit of the resnet18-curve smoke fingerprint.
    let key = "\"fig5-adaptivefl\": ";
    let at = text.find("\"smoke\"").expect("smoke section");
    let start = at + text[at..].find(key).expect("smoke fig5 reference") + key.len();
    let end = start + text[start..].find('}').expect("end of cells");
    let digest: u64 = text[start..end].trim().parse().expect("a fingerprint");
    let tampered = format!("{}{}{}", &text[..start], digest ^ 1, &text[end..]);
    let path = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("tampered-references.json");
    std::fs::write(&path, tampered).expect("write tampered references");

    let path = path.to_str().expect("utf-8 path");
    let result = smoke("resnet18-curve", 0, &["--references", path]);
    assert_eq!(result.get("correct").and_then(Value::as_bool), Some(false));
    let failed = result
        .get("failed")
        .and_then(Value::as_u64)
        .expect("failed count");
    let attempted = result
        .get("attempted")
        .and_then(Value::as_u64)
        .expect("attempted");
    assert!(
        failed >= 1 && failed <= attempted,
        "failed {failed} of {attempted}"
    );

    // The untouched references pass.
    let clean = smoke("resnet18-curve", 0, &[]);
    assert_eq!(clean.get("correct").and_then(Value::as_bool), Some(true));
}
