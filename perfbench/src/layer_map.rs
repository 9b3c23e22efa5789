//! Consistency of `BENCHMARK.json` and `layer_map.json`: every per-layer
//! metric is mapped exactly once, and the map names only declared
//! end-to-end metrics and workloads.

use std::collections::BTreeSet;

fn read(path: &str) -> String {
    let full = format!("{}/{path}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&full).unwrap_or_else(|e| panic!("{full}: {e}"))
}

/// Every string value of `"key": "value"` pairs in `text`.
fn values_of(text: &str, key: &str) -> Vec<String> {
    let pattern = format!("\"{key}\": \"");
    text.match_indices(&pattern)
        .map(|(at, _)| {
            let rest = &text[at + pattern.len()..];
            rest[..rest.find('"').expect("closing quote")].to_string()
        })
        .collect()
}

/// Every string inside the `"metrics": [...]` arrays of `text`.
fn listed_metrics(text: &str) -> Vec<String> {
    let mut out = Vec::new();
    for (at, _) in text.match_indices("\"metrics\": [") {
        let rest = &text[at..];
        let list = &rest[rest.find('[').expect("[") + 1..rest.find(']').expect("]")];
        out.extend(
            list.split(',')
                .map(|s| s.trim().trim_matches('"').to_string())
                .filter(|s| !s.is_empty()),
        );
    }
    out
}

/// `BENCHMARK.json` split at its section keys.
fn section<'a>(text: &'a str, key: &str, next: Option<&str>) -> &'a str {
    let start = text.find(&format!("\"{key}\"")).expect("section present");
    let end = next.map_or(text.len(), |n| {
        text.find(&format!("\"{n}\"")).expect("next section")
    });
    &text[start..end]
}

#[test]
fn every_per_layer_metric_is_mapped_once() {
    let bench = read("../BENCHMARK.json");
    let map = read("layer_map.json");
    let per_layer = values_of(section(&bench, "per_layer", None), "name");
    let mapped = listed_metrics(&map);
    let unique: BTreeSet<&String> = mapped.iter().collect();
    assert_eq!(unique.len(), mapped.len(), "a metric is mapped twice");
    let declared: BTreeSet<&String> = per_layer.iter().collect();
    assert_eq!(
        unique, declared,
        "layer map and BENCHMARK.json per_layer differ"
    );
}

#[test]
fn map_targets_are_declared() {
    let bench = read("../BENCHMARK.json");
    let map = read("layer_map.json");
    let e2e: BTreeSet<String> = values_of(section(&bench, "end_to_end", Some("per_layer")), "name")
        .into_iter()
        .collect();
    let workloads: BTreeSet<String> =
        values_of(section(&bench, "workloads", Some("end_to_end")), "name")
            .into_iter()
            .collect();
    for metric in values_of(&map, "metric") {
        assert!(
            e2e.contains(&metric),
            "{metric} is not an end-to-end metric"
        );
    }
    for workload in values_of(&map, "workload") {
        assert!(
            workloads.contains(&workload),
            "{workload} is not a workload"
        );
    }
    assert!(e2e.contains("setup_s"));
    assert_eq!(workloads.len(), 3);
}
