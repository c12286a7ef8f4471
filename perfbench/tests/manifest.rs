//! `BENCHMARK.json` at the repository root must describe exactly what the
//! benchmark runs and prints: its workloads, and each metric with its unit.

use essio_perfbench::workload::Workload;
use essio_perfbench::{END_TO_END, PER_LAYER};
use serde::Value;

fn field<'v>(v: &'v Value, name: &str) -> &'v Value {
    serde::field(v.as_object().expect("an object"), name).expect("field present")
}

/// `(name, unit)` of every entry of the metric list `key`.
fn metrics(doc: &Value, key: &str) -> Vec<(String, String)> {
    field(doc, key)
        .as_array()
        .expect("a list")
        .iter()
        .map(|m| {
            let s = |k| field(m, k).as_str().expect("a string").to_string();
            (s("name"), s("unit"))
        })
        .collect()
}

#[test]
fn benchmark_json_matches_what_the_benchmark_prints() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let doc: Value = serde_json::from_str(&text).expect("valid JSON");
    let owned = |list: &[(&str, &str)]| -> Vec<(String, String)> {
        list.iter()
            .map(|&(n, u)| (n.to_string(), u.to_string()))
            .collect()
    };
    assert_eq!(metrics(&doc, "end_to_end"), owned(END_TO_END));
    assert_eq!(metrics(&doc, "per_layer"), owned(PER_LAYER));
    let workloads: Vec<&str> = field(&doc, "workloads")
        .as_array()
        .expect("a list")
        .iter()
        .map(|w| field(w, "name").as_str().expect("a string"))
        .collect();
    let ours: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(workloads, ours);
}
