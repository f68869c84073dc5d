//! Tiny-size runs of every workload: each must pass its own output
//! checks and emit exactly the metrics `BENCHMARK.json` names, with their
//! units; the exact counts must repeat from run to run.
//!
//! Everything runs in one test function because the traced run switches
//! the process-global kernel profiler on and off.

use pms_bench_e2e::bench::{run, Metric, Options, Outcome, LAYERS};
use pms_bench_e2e::cells::{Size, Spec, WorkloadKind};
use pms_trace::Json;

fn declared(section: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("read BENCHMARK.json");
    let doc = Json::parse(&text).expect("BENCHMARK.json parses");
    let Some(Json::Array(items)) = doc.get(section) else {
        panic!("BENCHMARK.json has no {section} list");
    };
    items
        .iter()
        .map(|m| {
            let field = |k| {
                m.get(k)
                    .and_then(Json::as_str)
                    .expect("name and unit")
                    .to_string()
            };
            (field("name"), field("unit"))
        })
        .collect()
}

fn tiny(workload: WorkloadKind, trace: bool) -> Outcome {
    run(&Options {
        workload,
        seed: 5,
        seconds: 0.0,
        trace,
        size: Size::Tiny,
    })
}

fn names_units(metrics: &[Metric]) -> Vec<(String, String)> {
    metrics
        .iter()
        .map(|m| (m.name.clone(), m.unit.to_string()))
        .collect()
}

fn value(out: &Outcome, name: &str) -> f64 {
    out.metrics
        .iter()
        .find(|m| m.name == name)
        .unwrap_or_else(|| panic!("no metric {name}"))
        .value
}

#[test]
fn every_workload_emits_every_metric_and_repeats_its_counts() {
    let end_to_end = declared("end_to_end");
    let per_layer = declared("per_layer");
    for w in WorkloadKind::ALL {
        let e2e = tiny(w, false);
        assert!(e2e.correct(), "{}: output checks failed", w.name());
        assert!(e2e.attempted > 0);
        let mut got = names_units(&e2e.metrics);
        let mut want = end_to_end.clone();
        got.sort();
        want.sort();
        assert_eq!(got, want, "{}: end-to-end metrics", w.name());
        for m in &e2e.metrics {
            assert!(m.value > 0.0, "{}: {} is {}", w.name(), m.name, m.value);
        }

        let traced = tiny(w, true);
        assert!(
            traced.correct(),
            "{}: traced output checks failed",
            w.name()
        );
        assert_eq!(
            names_units(&traced.metrics),
            per_layer,
            "{}: per-layer metrics",
            w.name()
        );

        // Layer shares plus `other` account for the whole traced wall.
        let total: f64 = LAYERS
            .iter()
            .chain(["other"].iter())
            .map(|l| value(&traced, &format!("layer.{l}.share")))
            .sum();
        assert!(
            (total - 1.0).abs() < 1e-9,
            "{}: shares sum to {total}",
            w.name()
        );

        // Exact counts repeat across runs of the same seed.
        let again = tiny(w, true);
        for name in [
            "sched.passes",
            "sched.established",
            "predict.evictions",
            "trace.records",
            "route.calls",
            "admit.granted",
            "admit.rejected",
            "prof.sl_pass.calls",
            "prof.sl_pass.words",
        ] {
            assert_eq!(
                value(&traced, name),
                value(&again, name),
                "{}: {name} differs between runs",
                w.name()
            );
        }
        let spans = traced.spans.as_deref().expect("traced run keeps spans");
        assert!(spans.lines().count() > 0);
    }
}

#[test]
fn inputs_follow_the_seed() {
    for w in WorkloadKind::ALL {
        let spec = Spec::new(w, Size::Tiny);
        let table = |seed| {
            let inputs = spec.inputs(seed);
            let mut all: Vec<(usize, usize)> = Vec::new();
            for wl in &inputs.workloads {
                all.extend(wl.message_table().iter().map(|m| (m.src, m.dst)));
            }
            (all, inputs.stream.len())
        };
        assert_eq!(table(7), table(7), "{}: same seed, same inputs", w.name());
        assert_ne!(table(7).0, table(8).0, "{}: seed is ignored", w.name());
    }
}
