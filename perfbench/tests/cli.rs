//! The benchmark binary end to end: a clean run prints exactly the
//! declared metrics, and an injected output mismatch fails the run on
//! every workload.

use std::process::{Command, Output};

fn perfbench(workload: &str, inject: bool) -> Output {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_perfbench"));
    cmd.args([
        "--workload",
        workload,
        "--seed",
        "1",
        "--seconds",
        "1",
        "--trace",
        "0",
    ]);
    if inject {
        cmd.arg("--inject-mismatch");
    }
    cmd.output().expect("the benchmark binary runs")
}

fn result_line(out: &Output) -> telemetry::Json {
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.lines().last().expect("a result line");
    telemetry::json::parse(last).expect("the last line is JSON")
}

fn declared_end_to_end() -> Vec<String> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let doc = telemetry::json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json"))
        .expect("BENCHMARK.json parses");
    doc.get("end_to_end")
        .and_then(telemetry::Json::as_arr)
        .expect("end_to_end")
        .iter()
        .map(|m| {
            m.get("name")
                .and_then(telemetry::Json::as_str)
                .unwrap()
                .to_string()
        })
        .collect()
}

#[test]
fn clean_run_passes_and_prints_the_declared_metrics() {
    let out = perfbench("array-256", false);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let result = result_line(&out);
    assert_eq!(result.get("correct"), Some(&telemetry::Json::Bool(true)));
    assert_eq!(
        result.get("failed").and_then(telemetry::Json::as_u64),
        Some(0)
    );
    let metrics = match result.get("metrics") {
        Some(telemetry::Json::Obj(pairs)) => pairs,
        other => panic!("metrics object expected, got {other:?}"),
    };
    let printed: Vec<String> = metrics.iter().map(|(k, _)| k.clone()).collect();
    assert_eq!(printed, declared_end_to_end());
    for (name, m) in metrics {
        let value = m.get("value").and_then(telemetry::Json::as_f64).unwrap();
        assert!(value > 0.0, "{name} = {value}");
    }
}

fn assert_injection_fails(workload: &str) {
    let out = perfbench(workload, true);
    assert!(
        !out.status.success(),
        "{workload}: an injected mismatch must fail the run"
    );
    let result = result_line(&out);
    assert_eq!(result.get("correct"), Some(&telemetry::Json::Bool(false)));
    assert_eq!(
        result.get("failed").and_then(telemetry::Json::as_u64),
        Some(1)
    );
}

#[test]
fn injected_mismatch_fails_fig5_cold() {
    assert_injection_fails("fig5-cold");
}

#[test]
fn injected_mismatch_fails_array_256() {
    assert_injection_fails("array-256");
}

#[test]
fn injected_mismatch_fails_serve_mixed() {
    assert_injection_fails("serve-mixed");
}
