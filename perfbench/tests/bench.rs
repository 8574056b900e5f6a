//! Tests of the benchmark itself: tiny runs of every workload pass all
//! their checks, print well-formed metric names, and print exactly the
//! workloads and metrics `BENCHMARK.json` names.

use perfbench::workloads::{Sizes, Workload};
use perfbench::{run, Config, Outcome};

fn tiny(workload: Workload, trace: bool) -> Outcome {
    run(&Config {
        workload,
        seed: 3,
        seconds: 0.01,
        trace,
        sizes: Sizes::tiny(),
        ledger_work: 0.01,
    })
}

/// The `"name"` values of the array under `key` in `BENCHMARK.json`.
fn names(json: &str, key: &str) -> Vec<String> {
    let start = json
        .find(&format!("\"{key}\""))
        .unwrap_or_else(|| panic!("BENCHMARK.json has no `{key}`"));
    let open = start + json[start..].find('[').expect("array opens");
    let close = open + json[open..].find(']').expect("array closes");
    json[open..close]
        .split("\"name\"")
        .skip(1)
        .map(|rest| {
            let rest = &rest[rest.find('"').expect("name value") + 1..];
            rest[..rest.find('"').expect("name ends")].to_string()
        })
        .collect()
}

fn benchmark_json() -> String {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    std::fs::read_to_string(path).expect("read BENCHMARK.json")
}

fn well_formed(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

fn metric_names(outcome: &Outcome) -> Vec<String> {
    outcome.metrics.iter().map(|m| m.name.clone()).collect()
}

#[test]
fn every_workload_passes_its_checks_and_prints_the_declared_metrics() {
    let json = benchmark_json();
    let end_to_end = names(&json, "end_to_end");
    let per_layer = names(&json, "per_layer");
    for wl in Workload::ALL {
        for (trace, declared) in [(false, &end_to_end), (true, &per_layer)] {
            let outcome = tiny(wl, trace);
            assert!(outcome.correct(), "{wl:?}: {:?}", outcome.failures);
            assert!(outcome.attempted > 0, "{wl:?}: no checks ran");
            let printed = metric_names(&outcome);
            assert_eq!(&printed, declared, "{wl:?} trace={trace}");
            for name in &printed {
                assert!(well_formed(name), "bad metric name `{name}`");
            }
            let result = outcome.to_json();
            assert!(result.starts_with("{\"correct\": true, \"attempted\": "));
            assert!(result.contains("\"failed\": 0, \"metrics\": {"));
        }
    }
}

#[test]
fn benchmark_json_names_exactly_the_workloads() {
    let declared = names(&benchmark_json(), "workloads");
    let known: Vec<String> = Workload::ALL.iter().map(|w| w.name().to_string()).collect();
    assert_eq!(declared, known);
}

#[test]
fn traced_run_keeps_the_untraced_work_counts() {
    let untraced = tiny(Workload::SwitchlessLoop, false);
    let traced = tiny(Workload::SwitchlessLoop, true);
    assert_eq!(untraced.work, traced.work);
    assert_eq!(untraced.trace_bytes, traced.trace_bytes);
    let metric = |name: &str| {
        traced
            .metrics
            .iter()
            .find(|m| m.name == name)
            .unwrap_or_else(|| panic!("no metric {name}"))
            .value
    };
    assert_eq!(metric("work.virtual_ns"), traced.work.virtual_ns as f64);
    assert!(traced.spans.iter().any(|s| s.name == "workload.run"));
}

#[test]
fn same_seed_gives_the_same_inputs() {
    let a = perfbench::workloads::setup(Workload::Fleet, 9, &Sizes::tiny());
    let b = perfbench::workloads::setup(Workload::Fleet, 9, &Sizes::tiny());
    assert_eq!(format!("{a:?}"), format!("{b:?}"));
    let c = perfbench::workloads::setup(Workload::Fleet, 10, &Sizes::tiny());
    assert_ne!(format!("{a:?}"), format!("{c:?}"));
}

#[test]
fn guard_lines_cover_the_baseline_and_held_out_seeds() {
    for wl in Workload::ALL {
        for seed in [1, 2] {
            assert!(
                perfbench::guard(wl, seed).is_some(),
                "guards.tsv lacks {} at seed {seed}",
                wl.name()
            );
        }
    }
}
