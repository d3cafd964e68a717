//! The output oracle fails a run whose daemon answers wrong, and a run
//! reports exactly the metrics `BENCHMARK.json` lists.

use std::path::Path;
use std::process::Command;

use mnc_obs::json::{parse, JsonValue};

/// `(name, unit)` of every metric under `key` in the repository's
/// `BENCHMARK.json`.
fn listed(key: &str) -> Vec<(String, String)> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let doc = parse(&std::fs::read_to_string(path).unwrap()).unwrap();
    let Some(JsonValue::Array(items)) = doc.get(key) else {
        panic!("BENCHMARK.json lacks {key}");
    };
    items
        .iter()
        .map(|m| {
            let s = |k| m.get(k).and_then(JsonValue::as_str).unwrap().to_string();
            (s("name"), s("unit"))
        })
        .collect()
}

#[test]
fn a_daemon_off_by_one_ulp_fails_the_run() {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("perturbed");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_mnc-benchmark"))
        .current_dir(&dir)
        .args(["run", "--workload", "serve_small", "--seed", "5"])
        .args(["--seconds", "1", "--trace", "0"])
        .arg("--daemon")
        .arg(env!("CARGO_BIN_EXE_perturbed-daemon"))
        .arg("--out")
        .arg(&dir)
        .output()
        .unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "stderr: {stderr}");
    let stdout = String::from_utf8(out.stdout).unwrap();
    let last = parse(stdout.lines().last().unwrap()).unwrap();
    assert_eq!(last.get("correct"), Some(&JsonValue::Bool(false)));
    let failed = last.get("failed").and_then(JsonValue::as_f64).unwrap();
    let attempted = last.get("attempted").and_then(JsonValue::as_f64).unwrap();
    assert!(failed > 0.0 && failed <= attempted);

    let mut reported: Vec<(String, String)> = last
        .get("metrics")
        .and_then(JsonValue::as_object)
        .unwrap()
        .iter()
        .map(|(name, m)| {
            let unit = m.get("unit").and_then(JsonValue::as_str).unwrap();
            (name.clone(), unit.to_string())
        })
        .collect();
    let mut expected = listed("end_to_end");
    reported.sort();
    expected.sort();
    assert_eq!(reported, expected);

    let result = std::fs::read_to_string(dir.join("serve_small-seed5.json")).unwrap();
    let error_rate = parse(&result)
        .unwrap()
        .get("error_rate")
        .and_then(JsonValue::as_f64)
        .unwrap();
    assert!(error_rate > 0.0, "error_rate {error_rate}");
    assert!(
        !dir.join("benchmark/work").exists(),
        "temporary catalogs left behind"
    );
}

#[test]
fn per_layer_list_matches_benchmark_json() {
    let own: Vec<(String, String)> = mnc_benchmark::layers::PER_LAYER
        .iter()
        .map(|(n, u)| (n.to_string(), u.to_string()))
        .collect();
    assert_eq!(listed("per_layer"), own);
}
