//! Tiny-scale smoke test: every workload, untraced and traced, prints a
//! last line whose metrics are exactly the ones `BENCHMARK.json` names,
//! each finite and carrying its declared unit, with no failed operation.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`.

use std::path::Path;
use std::process::Command;

/// `(name, unit)` pairs of one metric list in `BENCHMARK.json`.
fn declared(section: &str) -> Vec<(String, String)> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("read BENCHMARK.json");
    let start = text
        .find(&format!("\"{section}\""))
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {section}"));
    let body = &text[start..];
    let body = &body[..body.find(']').expect("metric list closes")];
    body.split('{')
        .skip(1)
        .map(|entry| (field(entry, "name"), field(entry, "unit")))
        .collect()
}

/// The string value of `"key": "..."` in a flat JSON fragment.
fn field(entry: &str, key: &str) -> String {
    let at = entry
        .find(&format!("\"{key}\""))
        .unwrap_or_else(|| panic!("no {key} in {entry}"));
    let rest = &entry[at + key.len() + 2..];
    let open = rest.find('"').expect("value opens") + 1;
    let close = open + rest[open..].find('"').expect("value closes");
    rest[open..close].to_string()
}

fn run(workload: &str, trace: bool) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args([
            "--workload",
            workload,
            "--seed",
            "3",
            "--seconds",
            "1",
            "--tiny",
        ])
        .args(["--trace", if trace { "1" } else { "0" }])
        .output()
        .expect("run perfbench");
    assert!(out.status.success(), "{workload}: {out:?}");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    stdout.lines().last().expect("a result line").to_string()
}

fn check(workload: &str, trace: bool) {
    let line = run(workload, trace);
    assert!(
        line.starts_with("{\"correct\": true, \"attempted\": "),
        "{line}"
    );
    assert!(line.contains("\"failed\": 0,"), "{line}");
    let metrics = declared(if trace { "per_layer" } else { "end_to_end" });
    assert_eq!(line.matches("\"value\"").count(), metrics.len(), "{line}");
    for (name, unit) in metrics {
        let key = format!("\"{name}\": {{\"value\": ");
        let at = line
            .find(&key)
            .unwrap_or_else(|| panic!("{workload}: no {name}"));
        let rest = &line[at + key.len()..];
        let (value, rest) = rest.split_once(',').expect("value ends");
        let value: f64 = value.parse().expect("numeric value");
        assert!(value.is_finite(), "{workload}: {name} = {value}");
        assert!(
            rest.starts_with(&format!(" \"unit\": \"{unit}\"}}")),
            "{workload}: {name} lacks unit {unit}"
        );
    }
}

#[test]
fn solve_paper_prints_every_metric() {
    check("solve-paper", false);
    check("solve-paper", true);
}

#[test]
fn solve_large_prints_every_metric() {
    check("solve-large", false);
    check("solve-large", true);
}

#[test]
fn serve_mix_prints_every_metric() {
    check("serve-mix", false);
    check("serve-mix", true);
}

#[test]
fn bad_arguments_exit_nonzero_without_a_result() {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", "nope", "--seed", "1"])
        .output()
        .expect("run perfbench");
    assert!(!out.status.success());
    assert!(out.stdout.is_empty());
}
