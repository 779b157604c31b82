//! The benchmark's own tests, at a tiny size: simulated metrics repeat
//! bit-for-bit, every correctness check passes, and the metrics each mode
//! prints are exactly the ones `BENCHMARK.json` declares.

use perfbench::spec::{Sizes, Workload};
use perfbench::{measure, measure_layers, Outcome, Plan};

/// The seed the workloads were tuned on, and one held out from tuning.
const SEEDS: [u64; 2] = [42, 1_000_003];

/// Metrics of the paper's cost model: no wall-clock input, so equal seeds
/// must give equal bits.
const SIMULATED: [&str; 4] = ["hit_rate", "speedup", "response_mean_sim_ms", "response_p99_sim_ms"];

fn tiny() -> Plan {
    Plan { sizes: Sizes::tiny(), seconds: 0.0 }
}

/// Metric names of one `BENCHMARK.json` section, in file order.
fn declared(section: &str) -> Vec<String> {
    let json = include_str!("../../BENCHMARK.json");
    let start = json.find(&format!("\"{section}\"")).expect("section present");
    let body = &json[start..];
    let body = &body[..body.find(']').expect("section is a list")];
    body.split("\"name\": \"").skip(1).map(|s| s[..s.find('"').unwrap()].to_string()).collect()
}

/// The median residual response, printed as a note.
fn p50(out: &Outcome) -> f64 {
    let note = out.notes.iter().find_map(|n| n.strip_prefix("response_p50_sim_ms ")).unwrap();
    note.parse().unwrap()
}

fn names(out: &Outcome) -> Vec<String> {
    out.metrics.iter().map(|m| m.name.to_string()).collect()
}

#[test]
fn simulated_metrics_repeat_bit_for_bit() {
    for workload in Workload::ALL {
        for seed in SEEDS {
            let a = measure(workload, seed, &tiny());
            let b = measure(workload, seed, &tiny());
            for out in [&a, &b] {
                assert_eq!(out.failed, 0, "{} seed {seed}: {:?}", workload.name(), out.notes);
                assert!(out.attempted > 0);
            }
            assert_eq!(p50(&a).to_bits(), p50(&b).to_bits(), "{} seed {seed}", workload.name());
            for name in SIMULATED {
                let (x, y) = (a.get(name).unwrap(), b.get(name).unwrap());
                assert!(x > 0.0, "{} seed {seed}: {name} is {x}", workload.name());
                assert_eq!(x.to_bits(), y.to_bits(), "{} seed {seed}: {name}", workload.name());
            }
        }
    }
}

#[test]
fn end_to_end_metrics_match_the_declaration() {
    let out = measure(Workload::RevisitLung, SEEDS[0], &tiny());
    assert_eq!(names(&out), declared("end_to_end"));
    assert!(out.metrics.iter().all(|m| m.value.is_finite() && m.value > 0.0), "{:?}", out.metrics);
}

#[test]
fn traced_runs_pass_every_check_and_declare_every_layer() {
    let want = declared("per_layer");
    for workload in Workload::ALL {
        let out = measure_layers(workload, SEEDS[1], &tiny());
        assert_eq!(out.failed, 0, "{}: {:?}", workload.name(), out.notes);
        assert_eq!(names(&out), want, "{}", workload.name());
        assert!(out.metrics.iter().all(|m| m.value.is_finite()), "{:?}", out.metrics);
    }
}

#[test]
fn result_line_is_one_json_object() {
    let out = measure(Workload::FleetRoads, SEEDS[0], &tiny());
    let line = out.json();
    assert!(!line.contains('\n'));
    assert!(line.starts_with("{\"correct\": true, \"attempted\": "), "{line}");
    for name in declared("end_to_end") {
        assert!(line.contains(&format!("\"{name}\": {{\"value\": ")), "{name} missing: {line}");
    }
}
