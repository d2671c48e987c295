//! Self-test of the benchmark: every workload runs for about a second on a
//! tiny model, emits exactly the metrics `BENCHMARK.json` declares, and a
//! corrupted expected-verdict table is caught by the checker.
//!
//! ```text
//! cargo test --release --manifest-path perfbench/Cargo.toml
//! ```

use std::path::PathBuf;
use std::process::Command;

use targad_serve::Json;

const WORKLOADS: [&str; 3] = ["score_row1", "score_batch64", "fit_unsw"];

/// Runs the benchmark binary with `args` and returns (exit ok, stdout).
fn run(args: &[&str]) -> (bool, String) {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("selftest");
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let out = Command::new(env!("CARGO_BIN_EXE_targad-perfbench"))
        .args(args)
        .current_dir(&dir)
        .output()
        .expect("benchmark binary runs");
    (
        out.status.success(),
        String::from_utf8(out.stdout).expect("utf-8 stdout"),
    )
}

/// The result line of a tiny run of `workload`.
fn result(workload: &str, trace: &str, extra: &[&str]) -> Json {
    let mut args = vec![
        "--workload",
        workload,
        "--seed",
        "5",
        "--seconds",
        "1",
        "--trace",
        trace,
        "--tiny",
    ];
    args.extend_from_slice(extra);
    let (ok, stdout) = run(&args);
    assert!(ok, "{workload} --trace {trace} {extra:?} failed:\n{stdout}");
    let last = stdout.lines().last().expect("a result line");
    Json::parse(last).unwrap_or_else(|e| panic!("result line is not JSON ({e}): {last}"))
}

/// `(name, unit)` pairs of one metric table in `BENCHMARK.json`.
fn declared(table: &str) -> Vec<(String, String)> {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let doc = Json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json")).unwrap();
    doc.get(table)
        .and_then(Json::as_arr)
        .expect("metric table")
        .iter()
        .map(|m| {
            let s = |k| {
                m.get(k)
                    .and_then(Json::as_str)
                    .expect("name and unit")
                    .to_string()
            };
            (s("name"), s("unit"))
        })
        .collect()
}

/// `(name, unit)` pairs of a result line's metrics, in order.
fn emitted(doc: &Json) -> Vec<(String, String)> {
    match doc.get("metrics") {
        Some(Json::Obj(fields)) => fields
            .iter()
            .map(|(name, m)| {
                let value = m
                    .get("value")
                    .and_then(Json::as_f64)
                    .expect("numeric value");
                assert!(value.is_finite(), "{name} = {value}");
                let unit = m.get("unit").and_then(Json::as_str).expect("unit");
                (name.clone(), unit.to_string())
            })
            .collect(),
        _ => panic!("no metrics object"),
    }
}

fn counts(doc: &Json) -> (bool, f64, f64) {
    (
        matches!(doc.get("correct"), Some(Json::Bool(true))),
        doc.get("attempted")
            .and_then(Json::as_f64)
            .expect("attempted"),
        doc.get("failed").and_then(Json::as_f64).expect("failed"),
    )
}

#[test]
fn every_workload_emits_the_declared_metrics_and_passes_its_checks() {
    for (trace, table) in [("0", "end_to_end"), ("1", "per_layer")] {
        let want = declared(table);
        for workload in WORKLOADS {
            let doc = result(workload, trace, &[]);
            assert_eq!(emitted(&doc), want, "{workload} --trace {trace}");
            let (correct, attempted, failed) = counts(&doc);
            assert!(
                correct && failed == 0.0,
                "{workload} --trace {trace} failed {failed}"
            );
            assert!(attempted >= 1.0);
        }
    }
}

#[test]
fn a_corrupted_expected_verdict_table_is_counted_as_failures() {
    for workload in WORKLOADS {
        let doc = result(workload, "0", &["--corrupt-expected"]);
        let (correct, attempted, failed) = counts(&doc);
        assert!(!correct, "{workload}: corruption went unnoticed");
        assert!(
            failed > 0.0 && failed <= attempted,
            "{workload}: {failed}/{attempted}"
        );
    }
}

#[test]
fn bad_arguments_exit_nonzero_without_a_result() {
    for args in [
        &["--workload", "nope"][..],
        &["--seed", "1"][..],
        &["--workload", "score_row1", "--trace", "2"][..],
    ] {
        let (ok, stdout) = run(args);
        assert!(!ok && stdout.trim().is_empty(), "{args:?} gave {stdout}");
    }
}
