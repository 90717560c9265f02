//! `/BENCHMARK.json` and the program must agree: every declared workload
//! and metric is reported once, with the declared unit, and nothing else is.

use etude_benchmark::json::{self, Value};
use std::collections::BTreeMap;
use std::process::Command;

const MANIFEST_DIR: &str = env!("CARGO_MANIFEST_DIR");

fn read_json(path: &str) -> Value {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| panic!("{path}: {e}"));
    json::parse(&text).unwrap_or_else(|e| panic!("{path}: {e}"))
}

fn str_field<'a>(v: &'a Value, key: &str) -> &'a str {
    v.get(key)
        .and_then(Value::as_str)
        .unwrap_or_else(|| panic!("no string `{key}` in {v}"))
}

/// name → unit of one declared metric list.
fn declared(benchmark: &Value, list: &str) -> BTreeMap<String, String> {
    let metrics = benchmark.get(list).and_then(Value::as_arr).expect(list);
    let map: BTreeMap<String, String> = metrics
        .iter()
        .map(|m| {
            (
                str_field(m, "name").to_string(),
                str_field(m, "unit").to_string(),
            )
        })
        .collect();
    assert_eq!(map.len(), metrics.len(), "{list} declares a name twice");
    map
}

#[test]
fn the_declaration_is_within_the_contract() {
    let benchmark = read_json(&format!("{MANIFEST_DIR}/../BENCHMARK.json"));
    let end_to_end = benchmark.get("end_to_end").and_then(Value::as_arr).unwrap();
    for m in end_to_end {
        let bound = m.get("bound").and_then(Value::as_f64).expect("bound");
        assert!(bound > 0.0 && bound <= 0.25, "{m}");
    }
    let setup = end_to_end
        .iter()
        .find(|m| str_field(m, "name") == "setup_s")
        .expect("setup_s is declared");
    assert_eq!(
        (str_field(setup, "unit"), str_field(setup, "better")),
        ("s", "lower")
    );
    let seconds = benchmark
        .get("run_seconds")
        .and_then(Value::as_f64)
        .unwrap();
    assert_eq!(seconds, etude_benchmark::spec::RUN_SECONDS);
    let mut names: Vec<&str> = Vec::new();
    for list in ["workloads", "end_to_end", "per_layer"] {
        let items = benchmark.get(list).and_then(Value::as_arr).unwrap();
        names.extend(items.iter().map(|m| str_field(m, "name")));
    }
    for name in &names {
        let ok = name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c));
        assert!(ok, "bad name {name}");
    }
    let total = names.len();
    names.sort_unstable();
    names.dedup();
    assert_eq!(names.len(), total, "a name is used twice");
}

#[test]
fn a_smoke_ledger_reports_exactly_what_is_declared() {
    let benchmark = read_json(&format!("{MANIFEST_DIR}/../BENCHMARK.json"));
    let workloads: Vec<&str> = benchmark
        .get("workloads")
        .and_then(Value::as_arr)
        .unwrap()
        .iter()
        .map(|w| str_field(w, "name"))
        .collect();
    let in_spec = etude_benchmark::spec::WORKLOADS;
    let gated: Vec<&str> = in_spec.iter().filter(|w| w.gated).map(|w| w.name).collect();
    assert_eq!(
        workloads, gated,
        "BENCHMARK.json and spec.rs list different gated workloads"
    );

    let run = Command::new(env!("CARGO_BIN_EXE_etude-benchmark"))
        .args(["run", "--smoke", "--seed", "7"])
        .output()
        .expect("the benchmark binary runs");
    assert!(
        run.status.success(),
        "smoke ledger failed:\n{}\n{}",
        String::from_utf8_lossy(&run.stdout),
        String::from_utf8_lossy(&run.stderr)
    );

    let ledger = read_json(&format!("{MANIFEST_DIR}/out/ledger.json"));
    let fingerprint = ledger.get("fingerprint").expect("fingerprint");
    for key in [
        "commit", "nproc", "simd_isa", "poller", "rustc", "seed", "mode",
    ] {
        assert!(fingerprint.get(key).is_some(), "fingerprint lacks {key}");
    }
    assert_eq!(str_field(fingerprint, "mode"), "smoke");

    let rows = ledger.get("workloads").and_then(Value::as_arr).unwrap();
    let reported: Vec<&str> = rows.iter().map(|r| str_field(r, "name")).collect();
    assert_eq!(
        reported,
        in_spec.map(|w| w.name),
        "each workload once, in order, the ungated ones too"
    );
    for row in rows {
        let name = str_field(row, "name");
        for list in ["end_to_end", "per_layer"] {
            let result = row
                .get(list)
                .unwrap_or_else(|| panic!("{name}: no {list} run"));
            assert_eq!(result.get("correct").and_then(Value::as_bool), Some(true));
            assert_eq!(result.get("failed").and_then(Value::as_f64), Some(0.0));
            let metrics = result.get("metrics").and_then(Value::as_obj).unwrap();
            let got: BTreeMap<String, String> = metrics
                .iter()
                .map(|(k, m)| (k.clone(), str_field(m, "unit").to_string()))
                .collect();
            assert_eq!(
                got.len(),
                metrics.len(),
                "{name}: a {list} metric appears twice"
            );
            assert_eq!(got, declared(&benchmark, list), "{name}: {list}");
            for (k, m) in metrics {
                let v = m.get("value").and_then(Value::as_f64);
                assert!(v.is_some_and(f64::is_finite), "{name}: {k} is not a number");
            }
        }
        assert!(
            std::path::Path::new(&format!("{MANIFEST_DIR}/out/trace_{name}.json")).exists(),
            "{name}: no Chrome trace"
        );
    }
}
