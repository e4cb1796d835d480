//! A tiny-scale run of every workload, untraced and traced: each
//! declared metric is printed with its unit, the result line has the
//! contract's shape, and `BENCHMARK.json` declares the same metrics.

use polyframe_datamodel::{parse_json, Value};
use polyframe_perfbench::metrics::{self, MetricSpec, Workload};
use std::process::Command;

fn run(workload: Workload, trace: bool) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args([
            "--workload",
            workload.name(),
            "--seed",
            "3",
            "--seconds",
            "0.3",
        ])
        .args(["--trace", if trace { "1" } else { "0" }, "--records", "300"])
        .current_dir(env!("CARGO_TARGET_TMPDIR"))
        .output()
        .expect("run perfbench");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    assert!(
        out.status.success(),
        "{} trace={trace} failed: {}",
        workload.name(),
        String::from_utf8_lossy(&out.stderr)
    );
    stdout
}

fn check_output(stdout: &str, specs: &[MetricSpec]) {
    let last = stdout.lines().last().expect("a result line");
    let result = parse_json(last).expect("result line is JSON");
    let Value::Obj(top) = &result else {
        panic!("result is not an object: {last}")
    };
    let keys: Vec<&str> = top.iter().map(|(k, _)| k).collect();
    assert_eq!(keys.len(), 4, "{keys:?}");
    for key in ["correct", "attempted", "failed", "metrics"] {
        assert!(keys.contains(&key), "missing {key}");
    }
    assert_eq!(result.get_path("correct"), Value::Bool(true));
    assert!(result.get_path("attempted").as_i64().unwrap_or(0) >= 1);
    let Value::Obj(metrics) = result.get_path("metrics") else {
        panic!("metrics is not an object")
    };
    assert_eq!(metrics.len(), specs.len());
    for s in specs {
        let (_, m) = metrics
            .iter()
            .find(|(k, _)| *k == s.name)
            .unwrap_or_else(|| panic!("{} missing from the result", s.name));
        assert_eq!(m.get_path("unit"), Value::from(s.unit), "{}", s.name);
        assert!(m.get_path("value").as_f64().is_some(), "{}", s.name);
        let line = stdout
            .lines()
            .find(|l| l.split_whitespace().next() == Some(s.name.as_str()))
            .unwrap_or_else(|| panic!("no table line for {}", s.name));
        assert!(line.contains(s.unit) && line.contains("n="), "{line}");
    }
}

#[test]
fn every_workload_prints_every_metric() {
    for workload in Workload::ALL {
        check_output(&run(workload, false), &metrics::end_to_end());
        check_output(&run(workload, true), &metrics::per_layer());
    }
}

#[test]
fn benchmark_json_declares_the_measured_metrics() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let doc = parse_json(&text).expect("BENCHMARK.json is JSON");
    for (key, specs) in [
        ("end_to_end", metrics::end_to_end()),
        ("per_layer", metrics::per_layer()),
    ] {
        let Value::Array(declared) = doc.get_path(key) else {
            panic!("{key} is not a list")
        };
        assert_eq!(declared.len(), specs.len(), "{key}");
        for s in &specs {
            let d = declared
                .iter()
                .find(|d| d.get_path("name") == Value::from(s.name.as_str()))
                .unwrap_or_else(|| panic!("{} is not declared under {key}", s.name));
            assert_eq!(d.get_path("unit"), Value::from(s.unit), "{}", s.name);
            let better = if s.higher_is_better {
                "higher"
            } else {
                "lower"
            };
            assert_eq!(d.get_path("better"), Value::from(better), "{}", s.name);
        }
    }
    let Value::Array(workloads) = doc.get_path("workloads") else {
        panic!("workloads is not a list")
    };
    let names: Vec<Value> = workloads.iter().map(|w| w.get_path("name")).collect();
    let known: Vec<Value> = Workload::ALL
        .iter()
        .map(|w| Value::from(w.name()))
        .collect();
    assert_eq!(names, known);
}
