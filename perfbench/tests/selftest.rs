//! Self-test of the benchmark: the metric names it prints match
//! `BENCHMARK.json`, and two short runs of each workload give identical
//! work counts and correctness digests.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`.

use std::process::Command;

const MANIFEST: &str = include_str!("../../BENCHMARK.json");

/// The text of the JSON array stored under `key` in `json`.
fn array<'a>(json: &'a str, key: &str) -> &'a str {
    let at = json
        .find(&format!("\"{key}\""))
        .unwrap_or_else(|| panic!("no key {key}"));
    let open = at + json[at..].find('[').expect("array");
    let (mut depth, mut in_str, mut esc) = (0, false, false);
    for (i, c) in json[open..].char_indices() {
        match c {
            _ if esc => esc = false,
            '\\' if in_str => esc = true,
            '"' => in_str = !in_str,
            '[' if !in_str => depth += 1,
            ']' if !in_str => {
                depth -= 1;
                if depth == 0 {
                    return &json[open + 1..open + i];
                }
            }
            _ => {}
        }
    }
    panic!("unterminated array {key}")
}

/// The string values of every `"field": "..."` in `text`, in order.
fn strings(text: &str, field: &str) -> Vec<String> {
    let pat = format!("\"{field}\": \"");
    text.match_indices(&pat)
        .map(|(i, _)| {
            let rest = &text[i + pat.len()..];
            rest[..rest.find('"').expect("closing quote")].to_owned()
        })
        .collect()
}

/// `(name, unit)` of every metric in a printed `"metrics"` object.
fn printed_metrics(result: &str) -> Vec<(String, String)> {
    let body = &result[result.find("\"metrics\"").expect("metrics key")..];
    body.match_indices(": {\"value\": ")
        .map(|(i, _)| {
            let name_end = body[..i].rfind('"').expect("name");
            let name_start = body[..name_end].rfind('"').expect("name") + 1;
            let unit = strings(&body[i..], "unit").remove(0);
            (body[name_start..name_end].to_owned(), unit)
        })
        .collect()
}

fn declared(key: &str) -> Vec<(String, String)> {
    let a = array(MANIFEST, key);
    strings(a, "name")
        .into_iter()
        .zip(strings(a, "unit"))
        .collect()
}

/// Run a smoke-sized benchmark; returns (detail line, result line).
fn run(workload: &str, trace: u8) -> (String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_liberty-perfbench"))
        .args([
            "--workload",
            workload,
            "--seed",
            "7",
            "--seconds",
            "1",
            "--smoke",
        ])
        .args(["--trace", &trace.to_string()])
        .output()
        .expect("run the benchmark");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    assert!(
        out.status.success(),
        "{workload} exited with {}: {}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    let lines: Vec<&str> = stdout.lines().collect();
    let [.., detail, result] = lines[..] else {
        panic!("{workload}: expected a detail and a result line, got {stdout:?}")
    };
    assert!(
        result.starts_with("{\"correct\": true, \"attempted\": "),
        "{result}"
    );
    (detail.to_owned(), result.to_owned())
}

/// The exact-count object of a detail line.
fn counts(detail: &str) -> &str {
    let at = detail.find("\"counts\": ").expect("counts key");
    let end = at + detail[at..].find('}').expect("counts end");
    &detail[at..=end]
}

#[test]
fn manifest_names_the_three_workloads() {
    let names = strings(array(MANIFEST, "workloads"), "name");
    assert_eq!(names, ["pcl_pipeline", "lir_sort", "ckpt_sweep"]);
}

#[test]
fn printed_metrics_match_the_manifest_and_counts_repeat() {
    for workload in ["pcl_pipeline", "lir_sort", "ckpt_sweep"] {
        for (trace, key) in [(0, "end_to_end"), (1, "per_layer")] {
            let (detail_a, result_a) = run(workload, trace);
            let (detail_b, _) = run(workload, trace);
            assert_eq!(
                printed_metrics(&result_a),
                declared(key),
                "{workload}: --trace {trace} prints other metrics than `{key}`"
            );
            let (a, b) = (counts(&detail_a), counts(&detail_b));
            assert!(a.contains("digest") || a.contains("csv_crc"), "{a}");
            assert_eq!(a, b, "{workload}: counts differ between two runs");
        }
    }
}

#[test]
fn bad_arguments_exit_nonzero_without_a_result() {
    let bin = env!("CARGO_BIN_EXE_liberty-perfbench");
    for args in [
        &["--workload", "nope"][..],
        &["--workload", "lir_sort", "--trace", "2"],
        &["--workload", "lir_sort", "--bogus"],
    ] {
        let out = Command::new(bin).args(args).output().expect("run");
        assert!(!out.status.success(), "{args:?} succeeded");
        assert!(out.stdout.is_empty(), "{args:?} printed a result");
    }
}
