//! Smoke-sized runs of every workload, traced and untraced, and the
//! agreement between the benchmark's metric lists and `BENCHMARK.json`.

use lmm_perfbench::report::{run, RunConfig, END_TO_END, PER_LAYER};
use lmm_perfbench::stats::{valid_metric_name, valid_unit};
use lmm_perfbench::workload::{Scale, Workload};

fn smoke(workload: Workload, trace: bool) {
    let cfg = RunConfig {
        workload,
        seed: 9,
        seconds: 2.0,
        trace,
        scale: Scale::SMOKE,
        min_beyond: 0,
        trace_out: None,
    };
    let report = run(&cfg).unwrap_or_else(|e| panic!("{} failed: {e}", workload.name()));
    assert!(
        report.correct,
        "{}: {:?}",
        workload.name(),
        report.check_failures
    );
    assert!(report.attempted > 0);
    assert_eq!(
        report.failed,
        0,
        "{}: {}",
        workload.name(),
        report.provenance
    );
    let want: &[(&str, &str)] = if trace { &PER_LAYER } else { &END_TO_END };
    let got: Vec<(&str, &str)> = report.metrics.iter().map(|m| (m.name, m.unit)).collect();
    assert_eq!(got, want, "{}: metric list", workload.name());
    for m in &report.metrics {
        assert!(
            m.value.is_finite(),
            "{} {}: {}",
            workload.name(),
            m.name,
            m.value
        );
    }
    if !trace {
        for m in &report.metrics {
            assert!(m.value > 0.0, "{} {} is zero", workload.name(), m.name);
        }
    }
    for key in [
        "\"seed\": 9",
        "\"host_threads\"",
        "\"rates_hz\"",
        "\"fresh_probe_resolution_us\"",
        "\"why\"",
    ] {
        assert!(report.provenance.contains(key), "provenance lacks {key}");
    }
}

#[test]
fn serve_read_smoke() {
    smoke(Workload::ServeRead, false);
    smoke(Workload::ServeRead, true);
}

#[test]
fn churn_fresh_smoke() {
    smoke(Workload::ChurnFresh, false);
    smoke(Workload::ChurnFresh, true);
}

#[test]
fn cluster_smoke() {
    smoke(Workload::Cluster, false);
    smoke(Workload::Cluster, true);
}

#[test]
fn rank_batch_smoke() {
    smoke(Workload::RankBatch, false);
    smoke(Workload::RankBatch, true);
}

#[test]
fn metric_lists_are_well_formed() {
    let mut seen = std::collections::HashSet::new();
    for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
        assert!(valid_metric_name(name), "{name}");
        assert!(valid_unit(unit), "{unit}");
        assert!(seen.insert(*name), "{name} listed twice");
    }
    assert_eq!(END_TO_END[0], ("setup_s", "s"));
}

/// `BENCHMARK.json` names every workload with its reason and every metric
/// with its unit, and nothing else.
#[test]
fn benchmark_json_matches_the_benchmark() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let compact: String = json.split_whitespace().collect::<Vec<_>>().join(" ");
    for w in Workload::ALL {
        let entry = format!("{{\"name\": \"{}\", \"why\": \"{}\"}}", w.name(), w.why());
        assert!(compact.contains(&entry), "BENCHMARK.json lacks {entry}");
        assert!(w.why().len() <= 200);
    }
    for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
        let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
        assert!(compact.contains(&entry), "BENCHMARK.json lacks {entry}");
    }
    let listed = compact.matches("\"name\": ").count();
    assert_eq!(
        listed,
        Workload::ALL.len() + END_TO_END.len() + PER_LAYER.len()
    );
}
