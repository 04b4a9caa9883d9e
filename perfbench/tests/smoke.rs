//! Smoke tests: every workload once at tiny scale, untraced and traced.

use anonet_obs::Json;
use anonet_perfbench::{run, Config, Report, Scale, END_TO_END, PER_LAYER, WORKLOADS};

fn smoke(workload: &str, trace: bool) -> Report {
    let cfg = Config { seed: 3, seconds: 0.0, scale: Scale::Smoke, trace };
    run(workload, &cfg).unwrap_or_else(|e| panic!("{workload}: {e}"))
}

/// Asserts that the result line carries exactly `expected`, each with its
/// unit and a finite value, and that no output was invalid.
fn check_result_line(workload: &str, report: &Report, expected: &[(&str, &str)]) {
    assert_eq!(report.error_rate(), 0.0, "{workload}: {} failed", report.failed);
    assert!(report.attempted >= 1);
    let line = Json::parse(&report.to_json().to_string()).expect("result line is JSON");
    assert_eq!(line.get("correct").and_then(Json::as_bool), Some(true), "{workload}");
    let Some(Json::Obj(metrics)) = line.get("metrics") else { panic!("{workload}: no metrics") };
    let printed: Vec<&str> = metrics.iter().map(|(name, _)| name.as_str()).collect();
    let names: Vec<&str> = expected.iter().map(|(name, _)| *name).collect();
    assert_eq!(printed, names, "{workload}");
    for (name, unit) in expected {
        let metric = line.get("metrics").and_then(|m| m.get(name)).expect("metric present");
        assert_eq!(metric.get("unit").and_then(Json::as_str), Some(*unit), "{workload} {name}");
        let value = metric.get("value").and_then(Json::as_f64);
        assert!(value.is_some_and(f64::is_finite), "{workload} {name} = {value:?}");
    }
}

#[test]
fn untraced_runs_print_every_end_to_end_metric() {
    for workload in WORKLOADS {
        let report = smoke(workload, false);
        check_result_line(workload, &report, &END_TO_END);
        for (name, _) in END_TO_END {
            let value = report.metric(name).unwrap_or_default();
            assert!(value > 0.0, "{workload}: {name} = {value}");
        }
    }
}

#[test]
fn traced_runs_print_every_layer_metric_and_reproduce_outputs() {
    for workload in WORKLOADS {
        let report = smoke(workload, true);
        check_result_line(workload, &report, &PER_LAYER);
        assert_eq!(report.traced_matches_untraced, Some(true), "{workload}");
        assert!(report.metric("obs.trace_overhead").unwrap_or_default() > 0.0, "{workload}");
    }
}

#[test]
fn layers_are_attributed_to_the_workloads_that_enter_them() {
    let pipeline = smoke("pipeline_random", true);
    assert!(pipeline.metric("runtime.coloring_s").unwrap_or_default() > 0.0);
    assert!(pipeline.metric("graph.encode_bytes").unwrap_or_default() > 0.0);
    assert_eq!(pipeline.metric("cache.hits"), Some(0.0), "fresh cache, distinct quotients");

    let lifts = smoke("derand_lifts", true);
    assert_eq!(lifts.metric("runtime.coloring_s"), Some(0.0));
    assert!(lifts.metric("cache.hits").unwrap_or_default() > 0.0);
    assert!(lifts.metric("store.recovered_records").unwrap_or_default() > 0.0);
    assert!(lifts.metric("core.search_attempts").unwrap_or_default() > 0.0);

    let astar = smoke("astar_lifts", true);
    assert!(astar.metric("astar.update_graph_s").unwrap_or_default() > 0.0);
    assert!(astar.metric("candidates.pool_s").unwrap_or_default() > 0.0);
    assert_eq!(astar.metric("core.derandomize_s"), Some(0.0));
}

#[test]
fn benchmark_json_lists_the_metrics_and_workloads_printed() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let spec = Json::parse(&text).expect("BENCHMARK.json parses");
    let listed = |key: &str, fields: &[&str]| -> Vec<Vec<String>> {
        spec.get(key)
            .and_then(Json::items)
            .unwrap_or_else(|| panic!("{key} missing"))
            .iter()
            .map(|item| {
                fields
                    .iter()
                    .map(|f| item.get(f).and_then(Json::as_str).unwrap_or_default().to_string())
                    .collect()
            })
            .collect()
    };
    let expected = |metrics: &[(&str, &str)]| -> Vec<Vec<String>> {
        metrics.iter().map(|(n, u)| vec![n.to_string(), u.to_string()]).collect()
    };
    assert_eq!(listed("end_to_end", &["name", "unit"]), expected(&END_TO_END));
    assert_eq!(listed("per_layer", &["name", "unit"]), expected(&PER_LAYER));
    let workloads: Vec<String> =
        listed("workloads", &["name"]).into_iter().flatten().collect::<Vec<_>>();
    assert_eq!(workloads, WORKLOADS);
}
