//! # perfbench
//!
//! The SCOUT engine's benchmark: three workloads, each run in its own
//! process, driven only through the engine crates' public APIs.
//!
//! * [`measure`] (`--trace 0`) — the end-to-end metrics: set-up time,
//!   closed-loop queries per wall second, the simulated hit rate, speedup
//!   over `NoPrefetch`, mean and p99 residual response, and peak RSS.
//! * [`measure_layers`] (`--trace 1`) — the per-layer ledger: every layer
//!   timed from outside by calling its public functions one at a time
//!   ([`trace`]), plus the session and multi-session engine paths.
//!
//! Both modes check their outputs ([`check`]) and count every wrong query
//! as failed. Simulated metrics depend only on the seed, never on timing.

pub mod check;
pub mod run;
pub mod spec;
pub mod stats;
pub mod trace;

use check::{fleet_width_guard, range_query_oracle, same_sim};
use run::{direct_pass, engine_pass, replay_pass, EngineRun, ReplayTimes};
use scout_sim::Session;
use spec::{secs, Bench, Sizes, Workload};
use stats::{mean, median, peak_rss_mb, percentile, ratio, Sim};
use std::time::Instant;
use trace::{traced_pass, Ledger};

/// Fewest measured passes (end-to-end) or repeats (traced) of a run,
/// however short its `seconds`.
const MIN_PASSES: usize = 3;
/// Set-ups before the first pass (the end-to-end run also sets up again
/// between passes); the fastest of them is reported.
const SETUP_REPEATS: usize = 5;

/// How much work one run does.
#[derive(Debug, Clone, Copy)]
pub struct Plan {
    /// Input sizes.
    pub sizes: Sizes,
    /// Wall seconds the measured loop runs for.
    pub seconds: f64,
}

impl Plan {
    /// The measured configuration for a `seconds`-long run.
    pub fn full(seconds: f64) -> Plan {
        Plan { sizes: Sizes::full(), seconds }
    }
}

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name, as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// A run's result: its metrics and how many queries ran and failed.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// Metrics in report order.
    pub metrics: Vec<Metric>,
    /// Queries attempted, every pass and check included.
    pub attempted: u64,
    /// Queries that failed to serve or failed a correctness check.
    pub failed: u64,
    /// Human-readable notes printed ahead of the result line.
    pub notes: Vec<String>,
}

impl Outcome {
    /// Records a metric; a value that is not a finite number fails the run.
    fn push(&mut self, name: &'static str, value: f64, unit: &'static str) {
        if !value.is_finite() {
            self.notes.push(format!("check failed: {name} is {value}"));
            self.failed += 1;
        }
        self.metrics.push(Metric { name, value, unit });
    }

    /// The value of metric `name`.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics.iter().find(|m| m.name == name).map(|m| m.value)
    }

    /// Counts a pass's queries as attempted and its failed serves.
    fn ran(&mut self, sim: &Sim) {
        self.attempted += sim.totals.queries;
        self.failed += sim.totals.failed;
    }

    /// Renders the result line: one JSON object.
    pub fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                // JSON has no NaN or infinity; `push` already failed the run.
                let value = if m.value.is_finite() { m.value } else { 0.0 };
                format!("\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}", m.name, m.unit)
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0 && self.attempted > 0,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Builds the workload `SETUP_REPEATS` times from the same seed, keeping
/// the last build. Returns it with the per-repeat set-up times.
fn set_up(
    workload: Workload,
    seed: u64,
    plan: &Plan,
) -> (Bench, Vec<Session>, Vec<spec::SetupTimes>, Vec<f64>) {
    let mut walls = Vec::new();
    let mut parts = Vec::new();
    let mut built = None;
    for _ in 0..SETUP_REPEATS {
        // Free the previous build first, so peak RSS is one workload's.
        drop(built.take());
        let t = Instant::now();
        let (bench, sessions) = Bench::setup(workload, plan.sizes, seed);
        walls.push(secs(t));
        parts.push(bench.setup);
        built = Some((bench, sessions));
    }
    let (bench, sessions) = built.expect("at least one set-up ran");
    (bench, sessions, parts, walls)
}

/// One untraced pass of the workload's own path: `run_sequence` per
/// stream, or the fleet through the width-1 engine. `sessions` are
/// consumed by the fleet (fresh ones are built, untimed, when empty).
/// Returns the results and the pass's timed wall seconds.
fn untraced_pass(bench: &Bench, sessions: Vec<Session>) -> (Sim, f64) {
    if bench.workload.is_fleet() {
        let sessions = if sessions.is_empty() { bench.sessions(false) } else { sessions };
        let (sim, run) = engine_pass(bench, sessions, 1);
        (sim, run.wall_s)
    } else {
        direct_pass(bench, false)
    }
}

/// The end-to-end run (`--trace 0`).
pub fn measure(workload: Workload, seed: u64, plan: &Plan) -> Outcome {
    let mut out = Outcome::default();
    let (mut bench, mut sessions, _, mut setup_walls) = set_up(workload, seed, plan);

    // The NoPrefetch baseline, outside the timed region.
    let baseline = if workload.is_fleet() {
        engine_pass(&bench, bench.sessions(true), 1).0
    } else {
        direct_pass(&bench, true).0
    };
    out.ran(&baseline);

    // Closed loop: each client issues its next query when the previous
    // one completes; passes repeat until `seconds` have passed, rebuilds
    // included. Between passes the workload is set up again from scratch (untimed
    // for throughput), so set-up is sampled across the whole run rather
    // than in one burst at its start, and every rebuild must reproduce
    // the first pass exactly.
    let mut walls: Vec<f64> = Vec::new();
    let started = Instant::now();
    let mut first: Option<Sim> = None;
    loop {
        let (sim, wall) = untraced_pass(&bench, std::mem::take(&mut sessions));
        walls.push(wall);
        out.ran(&sim);
        match &first {
            None => first = Some(sim),
            Some(f) => out.failed += same_sim("pass against the first pass", f, &sim, true),
        }
        if walls.len() >= MIN_PASSES && secs(started) >= plan.seconds {
            break;
        }
        drop(bench);
        let t = Instant::now();
        (bench, sessions) = Bench::setup(workload, plan.sizes, seed);
        setup_walls.push(secs(t));
    }
    let sim = first.expect("at least one pass ran");
    // Peak RSS of the measured workload, before the checks below run.
    let rss_mb = peak_rss_mb();

    // Correctness checks, outside the timed region.
    let (checked, wrong) = range_query_oracle(&bench);
    out.attempted += checked;
    out.failed += wrong;
    let traced = traced_pass(&bench, &mut Ledger::default());
    out.ran(&traced);
    out.failed += same_sim("traced driver against the untraced run", &sim, &traced, true);
    if workload.is_fleet() {
        let (ran, failed) = fleet_width_guard(&bench);
        out.attempted += ran;
        out.failed += failed;
    }

    // The fastest set-up and the fastest whole pass. Contention from other
    // tenants of the host only ever slows a run down, and it comes in
    // phases seconds to minutes long; the fastest sample is the program's
    // speed with the least interference. (Per-run medians of the same
    // code moved by up to 28 % between two sets of runs.)
    let fastest = |v: &[f64]| v.iter().copied().fold(f64::INFINITY, f64::min);
    out.push("setup_s", fastest(&setup_walls), "s");
    out.push("queries_per_s", ratio(sim.totals.queries as f64, fastest(&walls)), "1/s");
    out.push("hit_rate", sim.totals.hit_rate(), "ratio");
    out.push("speedup", ratio(baseline.totals.response_us, sim.totals.response_us), "x");
    out.push(
        "response_mean_sim_ms",
        ratio(sim.totals.response_us, sim.totals.queries as f64) / 1e3,
        "ms",
    );
    out.push("response_p99_sim_ms", sim.p99_us / 1e3, "ms");
    out.push("peak_rss_mb", rss_mb, "MB");
    out.notes.push(format!(
        "{}: {} queries per pass, pass rates {:?} q/s, set-up {:?} s",
        workload.name(),
        sim.totals.queries,
        walls.iter().map(|w| (sim.totals.queries as f64 / w).round()).collect::<Vec<_>>(),
        setup_walls,
    ));
    // The median query of the fleet is served wholly from the cache on
    // every seed (5 pages x 10 us of page processing), so p50 is printed
    // here rather than gated as a metric.
    out.notes.push(format!("response_p50_sim_ms {}", sim.p50_us / 1e3));
    out.notes.push(format!(
        "failed_ratio {} ({} of {} queries; oracle checked {checked} queries)",
        ratio(out.failed as f64, out.attempted as f64),
        out.failed,
        out.attempted
    ));
    out
}

/// The traced run (`--trace 1`): the per-layer ledger.
pub fn measure_layers(workload: Workload, seed: u64, plan: &Plan) -> Outcome {
    let mut out = Outcome::default();
    let (bench, mut sessions, setup_parts, _) = set_up(workload, seed, plan);
    let fleet = workload.is_fleet();
    let queries = bench.queries() as f64;

    let mut ledger = Ledger::default();
    let mut replay = ReplayTimes::default();
    let (mut untraced_walls, mut traced_walls, mut engine_walls) = (vec![], vec![], vec![]);
    let mut replay_walls = vec![];
    let mut width2 = vec![];
    let (mut steals, mut rounds) = (0, 0);
    let started = Instant::now();
    let mut reference: Option<Sim> = None;
    while width2.len() < MIN_PASSES || secs(started) < plan.seconds {
        // The untraced pass (for the fleet: the width-1 engine).
        let (sim, wall) = untraced_pass(&bench, std::mem::take(&mut sessions));
        out.ran(&sim);
        untraced_walls.push(wall);
        let reference = *reference.get_or_insert(sim);
        out.failed += same_sim("untraced pass against the first", &reference, &sim, true);
        if fleet {
            engine_walls.push(wall);
        } else {
            let (sim, run) = engine_pass(&bench, Vec::new(), 1);
            out.ran(&sim);
            out.failed += same_sim("engine against run_sequence", &reference, &sim, false);
            engine_walls.push(run.wall_s);
        }

        let before = ledger.wall_s;
        let sim = traced_pass(&bench, &mut ledger);
        out.ran(&sim);
        out.failed += same_sim("traced driver against the untraced run", &reference, &sim, true);
        traced_walls.push(ledger.wall_s - before);

        let before = replay.wall_s;
        let sim = replay_pass(&bench, &mut replay);
        out.ran(&sim);
        out.failed += same_sim("session replay against the untraced run", &reference, &sim, true);
        replay_walls.push(replay.wall_s - before);

        // The width-2 engine. Only the fleet has sessions to interleave;
        // a single-client workload runs one session per engine call, so
        // there its figures only time starting a width-2 crew. The fleet's
        // width invariance is checked under the guard configuration below.
        let sessions2 = if fleet { bench.sessions(false) } else { Vec::new() };
        let (sim, EngineRun { wall_s, steals: s, rounds: r }) = engine_pass(&bench, sessions2, 2);
        out.ran(&sim);
        width2.push(ratio(*engine_walls.last().expect("pushed above"), wall_s));
        steals += s;
        rounds += r;
    }

    if fleet {
        let (ran, failed) = fleet_width_guard(&bench);
        out.attempted += ran;
        out.failed += failed;
    }

    let n = ledger.queries as f64;
    let layer = |out: &mut Outcome, name: &'static str, p95: &'static str, v: &[f64]| {
        out.push(name, mean(v), "us");
        out.push(p95, percentile(&mut v.to_vec(), 95.0), "us");
    };
    layer(&mut out, "index.walk_us", "index.walk_us.p95", &ledger.walk_us);
    layer(&mut out, "index.filter_us", "index.filter_us.p95", &ledger.filter_us);
    out.push("index.objects_tested", ledger.objects_tested as f64 / n, "count/query");
    out.push(
        "index.filter_selectivity",
        ratio(ledger.result_objects as f64, ledger.objects_tested as f64),
        "ratio",
    );
    layer(&mut out, "index.window_walk_us", "index.window_walk_us.p95", &ledger.window_walk_us);
    layer(&mut out, "storage.serve_us", "storage.serve_us.p95", &ledger.serve_us);
    layer(&mut out, "storage.window_io_us", "storage.window_io_us.p95", &ledger.window_io_us);
    out.push("storage.evictions", ledger.evictions as f64 / n, "count/query");
    out.push("storage.prefetch_pages", ledger.prefetch_pages as f64 / n, "count/query");
    out.push("storage.disk_reads", ledger.disk_reads as f64 / n, "count/query");
    out.push(
        "storage.prefetch_useful_ratio",
        ratio(ledger.useful_prefetches as f64, ledger.prefetch_pages as f64),
        "ratio",
    );
    layer(&mut out, "prefetch.observe_us", "prefetch.observe_us.p95", &ledger.observe_us);
    layer(&mut out, "prefetch.plan_us", "prefetch.plan_us.p95", &ledger.plan_us);
    out.push("core.graph_vertices", ledger.graph_vertices as f64 / n, "count/query");
    out.push(
        "core.incremental_ratio",
        ratio(ledger.graph_incremental as f64, ledger.graph_builds as f64),
        "ratio",
    );
    layer(&mut out, "sim.serve_observe_us", "sim.serve_observe_us.p95", &replay.serve_observe_us);
    layer(&mut out, "sim.finish_window_us", "sim.finish_window_us.p95", &replay.finish_window_us);
    out.push(
        "sim.engine_overhead_us",
        (median(&engine_walls) - median(&replay_walls)) / queries * 1e6,
        "us",
    );
    let w2 = median(&width2);
    let (lo, hi) = width2.iter().fold((f64::MAX, f64::MIN), |(l, h), &v| (l.min(v), h.max(v)));
    out.push("sim.width2_speedup", w2, "x");
    out.push("sim.width2_speedup.spread", ratio(hi - lo, w2), "ratio");
    out.push("sim.steals_per_round", ratio(steals as f64, rounds as f64), "count");
    let gen: Vec<f64> = setup_parts.iter().map(|p| p.generate_s).collect();
    let bulk: Vec<f64> = setup_parts.iter().map(|p| p.bulk_load_s).collect();
    out.push("synth.generate_s", median(&gen), "s");
    out.push("index.bulk_load_s", median(&bulk), "s");
    let untraced_us = median(&untraced_walls) / queries * 1e6;
    out.push("trace.query_us", median(&traced_walls) / queries * 1e6, "us");
    out.push("trace.untraced_query_us", untraced_us, "us");
    out.push(
        "trace.overhead_ratio",
        ratio(median(&traced_walls), median(&untraced_walls)),
        "ratio",
    );

    out.notes.push(format!(
        "{}: {} repeats of {} queries; width-2 speedups {:?}",
        workload.name(),
        width2.len(),
        bench.queries(),
        width2
    ));
    for (name, v) in [
        ("index.filter_us", mean(&ledger.filter_us)),
        ("prefetch.observe_us", mean(&ledger.observe_us)),
    ] {
        out.notes.push(format!(
            "{name} is {:.3} of the untraced per-query wall ({untraced_us:.1} us)",
            v / untraced_us
        ));
    }
    out.notes.push(format!(
        "failed_ratio {} ({} of {} queries)",
        ratio(out.failed as f64, out.attempted as f64),
        out.failed,
        out.attempted
    ));
    out
}
