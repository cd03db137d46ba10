//! The benchmark's own checks, at test size: every metric BENCHMARK.json
//! names is emitted with its unit, an injected PFS bit flip is counted as
//! a failure, and the same seed gives the same counts.

use std::collections::BTreeMap;
use std::process::Command;

/// Run the benchmark binary at test size; returns (stdout lines, result).
fn run(workload: &str, seed: u64, trace: u8, extra: &[&str]) -> (Vec<String>, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args([
            "--seconds",
            "0.3",
            "--trace",
            &trace.to_string(),
            "--size",
            "tiny",
        ])
        .args(extra)
        .output()
        .expect("benchmark binary runs");
    assert!(
        out.status.success(),
        "exit {:?}: {}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    let lines: Vec<String> = String::from_utf8(out.stdout)
        .expect("utf-8 output")
        .lines()
        .map(str::to_string)
        .collect();
    let last = lines.last().expect("a result line").clone();
    (lines, last)
}

/// `"name": {"value": V, "unit": "U"}` entries of a result line.
fn metrics(result: &str) -> BTreeMap<String, (String, String)> {
    let body = &result[result.find("\"metrics\": {").expect("metrics object") + 12..];
    let mut out = BTreeMap::new();
    for entry in body.split("}, ") {
        let name = entry.split('"').nth(1).expect("metric name").to_string();
        let value = entry
            .split("\"value\": ")
            .nth(1)
            .and_then(|v| v.split(',').next())
            .expect("metric value")
            .to_string();
        let unit = entry
            .split("\"unit\": \"")
            .nth(1)
            .and_then(|u| u.split('"').next())
            .expect("metric unit")
            .to_string();
        out.insert(name, (value, unit));
    }
    out
}

/// (name, unit) of every metric in one section of BENCHMARK.json, which
/// lists one metric per line.
fn declared(section: &str) -> Vec<(String, String)> {
    let text = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json next to the benchmark directory");
    let start = text
        .find(&format!("\"{section}\""))
        .expect("section present");
    let end = text[start..].find(']').expect("section closes") + start;
    text[start..end]
        .lines()
        .filter(|l| l.contains("\"unit\""))
        .map(|l| {
            let field = |key: &str| {
                l.split(&format!("\"{key}\": \""))
                    .nth(1)
                    .and_then(|s| s.split('"').next())
                    .expect("field")
                    .to_string()
            };
            (field("name"), field("unit"))
        })
        .collect()
}

fn field(line: &str, key: &str) -> String {
    line.split(&format!("\"{key}\": "))
        .nth(1)
        .and_then(|s| s.split([',', '}']).next())
        .expect("field present")
        .to_string()
}

#[test]
fn every_declared_metric_is_emitted_with_its_unit() {
    for workload in ["gdv-tree", "cluster-stack", "restart"] {
        for (trace, section) in [(0, "end_to_end"), (1, "per_layer")] {
            let (lines, result) = run(workload, 1, trace, &[]);
            assert!(
                result.starts_with("{\"correct\": true"),
                "{workload}: {lines:?}"
            );
            assert!(
                lines.iter().any(|l| l.starts_with("provenance: ")),
                "{workload}"
            );
            let got = metrics(&result);
            let want = declared(section);
            assert!(!want.is_empty());
            assert_eq!(got.len(), want.len(), "{workload} trace {trace}: {result}");
            for (name, unit) in want {
                let (value, got_unit) = got
                    .get(&name)
                    .unwrap_or_else(|| panic!("{workload} trace {trace}: {name} missing"));
                assert_eq!(*got_unit, unit, "{workload}: unit of {name}");
                let v: f64 = value.parse().expect("numeric value");
                assert!(v.is_finite(), "{workload}: {name} = {value}");
                if trace == 0 {
                    assert!(v > 0.0, "{workload}: end-to-end {name} must not be 0");
                }
            }
        }
    }
}

#[test]
fn pfs_bit_flip_is_counted_as_failed() {
    let (lines, result) = run("gdv-tree", 1, 0, &["--inject-pfs-bitflip"]);
    assert!(result.starts_with("{\"correct\": false"), "{result}");
    let failed: u64 = field(&result, "failed").parse().unwrap();
    assert!(failed > 0, "{result}");
    assert!(lines.iter().any(|l| l.starts_with("FAILED: ")), "{lines:?}");
    let samples = lines
        .iter()
        .find(|l| l.starts_with("samples: "))
        .expect("samples line");
    let frac: f64 = field(samples, "failed_frac").parse().unwrap();
    assert!(frac > 0.0, "{samples}");
}

#[test]
fn same_seed_gives_identical_counts() {
    const COUNTS: [&str; 6] = [
        "ckpt-dedup.changed_chunk_frac",
        "ckpt-dedup.diff_bytes",
        "gpu-sim.kernels_launched",
        "gpu-sim.device_bytes_read",
        "rankdedup.remote_refs",
        "redundancy.group_bytes",
    ];
    for workload in ["gdv-tree", "cluster-stack"] {
        let a = metrics(&run(workload, 7, 1, &[]).1);
        let b = metrics(&run(workload, 7, 1, &[]).1);
        for name in COUNTS {
            assert_eq!(a[name], b[name], "{workload}: {name}");
        }
        let ratio = |r: &str| metrics(r)["stored_ratio"].clone();
        assert_eq!(
            ratio(&run(workload, 7, 0, &[]).1),
            ratio(&run(workload, 7, 0, &[]).1),
            "{workload}: stored_ratio"
        );
    }
}
