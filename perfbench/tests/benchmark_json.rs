//! `BENCHMARK.json` at the repository root names exactly the workloads
//! and metrics the benchmark prints.

use perfbench::bench::{layer_metrics, END_TO_END};
use perfbench::gen::Workload;

#[test]
fn benchmark_json_names_what_the_benchmark_prints() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("BENCHMARK.json sits at the repository root");
    let layers = layer_metrics();
    let names: Vec<&str> = Workload::ALL
        .iter()
        .map(|w| w.name())
        .chain(END_TO_END.iter().map(|&(name, _)| name))
        .chain(layers.iter().map(|&(name, _)| name))
        .collect();
    for name in &names {
        assert!(
            json.contains(&format!("\"name\": \"{name}\"")),
            "BENCHMARK.json lacks {name}"
        );
    }
    assert_eq!(json.matches("\"name\":").count(), names.len());
    for (name, unit) in END_TO_END.iter().chain(layers.iter()) {
        assert!(
            json.contains(&format!("\"name\": \"{name}\", \"unit\": \"{unit}\"")),
            "BENCHMARK.json gives {name} another unit than {unit}"
        );
    }
}
