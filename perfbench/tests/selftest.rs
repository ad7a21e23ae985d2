//! Self-tests of the benchmark: a tiny run of every workload emits every
//! metric `BENCHMARK.json` names, each finite, and a corrupted CBT input
//! fails the run instead of yielding a clean but shorter result.
//!
//! ```sh
//! cargo test --release --offline --manifest-path perfbench/Cargo.toml
//! ```

use std::process::{Command, Output};

const WORKLOADS: [&str; 3] = ["characterize", "provision", "replay"];

fn run(workload: &str, trace: &str, extra: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_cbs-perfbench"))
        .args(["--workload", workload, "--seed", "7", "--seconds", "1"])
        .args(["--trace", trace, "--scale", "tiny"])
        .args(extra)
        .current_dir(env!("CARGO_TARGET_TMPDIR"))
        .output()
        .expect("run the benchmark")
}

fn last_line(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout)
        .lines()
        .last()
        .expect("the benchmark printed a result")
        .to_owned()
}

/// The number after `"key": ` in a one-line JSON object.
fn number_after(line: &str, key: &str) -> Option<f64> {
    let rest = &line[line.find(key)? + key.len()..];
    let end = rest.find([',', '}']).unwrap_or(rest.len());
    rest[..end].trim().parse().ok()
}

/// Metric names of one section of `BENCHMARK.json`.
fn benchmark_metrics(section: &str) -> Vec<String> {
    let spec = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json sits next to the benchmark directory");
    let start = spec
        .find(&format!("\"{section}\""))
        .expect("section is present");
    let body = &spec[start..start + spec[start..].find(']').expect("section closes")];
    body.split("\"name\": \"")
        .skip(1)
        .map(|rest| rest[..rest.find('"').expect("name closes")].to_owned())
        .collect()
}

#[test]
fn tiny_runs_emit_every_metric_finite() {
    for (trace, section) in [("0", "end_to_end"), ("1", "per_layer")] {
        let names = benchmark_metrics(section);
        assert!(!names.is_empty(), "{section} lists metrics");
        for workload in WORKLOADS {
            let out = run(workload, trace, &[]);
            let line = last_line(&out);
            assert!(
                out.status.success(),
                "{workload} trace {trace} failed: {line}"
            );
            assert!(line.starts_with("{\"correct\": true,"), "{line}");
            assert_eq!(number_after(&line, "\"failed\":"), Some(0.0), "{line}");
            for name in &names {
                let value = number_after(&line, &format!("\"{name}\": {{\"value\":"));
                assert!(
                    value.is_some_and(f64::is_finite),
                    "{workload} trace {trace}: metric {name} missing or not finite in {line}"
                );
            }
        }
    }
}

#[test]
fn flipped_cbt_byte_fails_the_run() {
    for workload in WORKLOADS {
        let out = run(workload, "0", &["--flip-byte"]);
        let line = last_line(&out);
        assert!(
            !out.status.success(),
            "{workload}: a corrupt input must fail the run"
        );
        assert!(line.starts_with("{\"correct\": false,"), "{line}");
        let failed = number_after(&line, "\"failed\":").expect("failed is reported");
        let attempted = number_after(&line, "\"attempted\":").expect("attempted is reported");
        assert!(failed > 0.0 && failed <= attempted, "{workload}: {line}");
    }
}
