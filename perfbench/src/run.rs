//! The untraced run paths: the engine exactly as a user drives it.
//!
//! * [`direct_pass`] — single-client workloads through `run_sequence`,
//!   one fresh prefetcher and cold cache per stream.
//! * [`engine_pass`] — the multi-session engine
//!   (`MultiSessionExecutor::run`, work-stealing at a given width). The
//!   fleet runs as one engine call; single-client workloads run one
//!   single-session fleet per stream, which is `run_sequence`'s semantics
//!   over the engine's code path.
//! * [`replay_pass`] — a benchmark-driven width-1 round loop calling
//!   `Session::serve_observe` / `finish_window` directly, timing each
//!   call. Its wall time against the engine's isolates the engine's own
//!   scheduling overhead.

use crate::spec::{secs, Bench};
use crate::stats::{Sim, SimTotals};
use scout_sim::{run_sequence, NoPrefetch, Prefetcher, SequenceTrace, Session};
use scout_storage::{ShardedCache, SharedClock};
use std::time::Instant;

/// Adds one client's sequence trace to `totals`, its residuals to
/// `residuals`.
fn absorb(trace: &SequenceTrace, totals: &mut SimTotals, residuals: &mut Vec<f64>) {
    let mut t = SimTotals { queries: trace.queries.len() as u64, ..Default::default() };
    for q in &trace.queries {
        t.pages_total += q.pages_total as u64;
        t.pages_hit += q.pages_hit as u64;
        t.failed += u64::from(q.outcome.is_failed());
        residuals.push(q.residual_us);
    }
    t.response_us = trace.queries.iter().map(|q| q.residual_us).sum();
    totals.add(&t);
}

/// One pass of the single-client path; `baseline` swaps in `NoPrefetch`.
/// Returns the results and the wall seconds spent in `run_sequence`.
pub fn direct_pass(bench: &Bench, baseline: bool) -> (Sim, f64) {
    let ctx = bench.ctx();
    let mut totals = SimTotals::default();
    let mut residuals = Vec::with_capacity(bench.queries());
    let mut wall_s = 0.0;
    for id in 0..bench.clients() {
        let mut prefetcher: Box<dyn Prefetcher> =
            if baseline { Box::new(NoPrefetch) } else { bench.prefetcher(id) };
        let t = Instant::now();
        let trace = run_sequence(&ctx, prefetcher.as_mut(), bench.stream_of(id), &bench.exec);
        wall_s += secs(t);
        absorb(&trace, &mut totals, &mut residuals);
    }
    (Sim::new(totals, &mut residuals), wall_s)
}

/// What one engine pass produced besides its simulated results.
#[derive(Debug, Clone, Copy, Default)]
pub struct EngineRun {
    /// Wall seconds inside `MultiSessionExecutor::run`.
    pub wall_s: f64,
    /// Work-stealing steals.
    pub steals: u64,
    /// Scheduler rounds.
    pub rounds: u64,
}

/// One pass through the multi-session engine at crew width `workers`.
/// `sessions` are the fleet's sessions (ignored, and built here one per
/// stream, for single-client workloads). Only the `run` calls are timed.
/// Percentiles are exact for the fleet (one report) and 0 otherwise.
pub fn engine_pass(bench: &Bench, sessions: Vec<Session>, workers: usize) -> (Sim, EngineRun) {
    let ctx = bench.ctx();
    let engine = bench.engine(workers);
    let mut run = EngineRun::default();
    let mut totals = SimTotals::default();
    let fleets: Vec<Vec<Session>> = if bench.workload.is_fleet() {
        vec![sessions]
    } else {
        (0..bench.clients())
            .map(|id| vec![Session::new(id, bench.prefetcher(id), bench.stream_of(id).to_vec())])
            .collect()
    };
    let mut sim = Sim::default();
    for fleet in fleets {
        let t = Instant::now();
        let report = engine.run(&ctx, fleet);
        run.wall_s += secs(t);
        if let Some(s) = &report.scheduler {
            run.steals += s.steals;
            run.rounds += s.rounds;
        }
        totals.add(&SimTotals {
            queries: report.sessions.iter().map(|s| s.queries as u64).sum(),
            pages_total: report.total_pages(),
            pages_hit: report.total_pages_hit(),
            response_us: report.total_response_us(),
            failed: report
                .sessions
                .iter()
                .filter_map(|s| s.faults.as_ref())
                .map(|f| f.failed_queries)
                .sum(),
        });
        sim.p50_us = report.residual.p50;
        sim.p99_us = report.residual.p99;
    }
    if !bench.workload.is_fleet() {
        sim.p50_us = 0.0;
        sim.p99_us = 0.0;
    }
    sim.totals = totals;
    (sim, run)
}

/// Per-call wall times of a replay pass, µs per query.
#[derive(Debug, Clone, Default)]
pub struct ReplayTimes {
    /// `Session::serve_observe` per query.
    pub serve_observe_us: Vec<f64>,
    /// `Session::finish_window` per query.
    pub finish_window_us: Vec<f64>,
    /// Wall seconds of the whole pass (session construction excluded).
    pub wall_s: f64,
}

/// One benchmark-driven width-1 round loop over every client group:
/// round *i* serves every session's query *i*, then runs every session's
/// window — the engine's bulk-synchronous order — over a `ShardedCache`
/// shaped like the engine's.
pub fn replay_pass(bench: &Bench, times: &mut ReplayTimes) -> Sim {
    let ctx = bench.ctx();
    let mut totals = SimTotals::default();
    let mut residuals = Vec::with_capacity(bench.queries());
    for group in bench.groups() {
        let mut sessions: Vec<Session> = group
            .iter()
            .map(|&id| Session::new(id, bench.prefetcher(id), bench.stream_of(id).to_vec()))
            .collect();
        let t = Instant::now();
        let cache = ShardedCache::new(bench.exec.cache_pages, bench.shards());
        let clock = SharedClock::new();
        for s in &mut sessions {
            s.begin(&bench.exec, Some(clock.clone()));
        }
        let mut active: Vec<usize> = (0..sessions.len()).collect();
        while !active.is_empty() {
            for &i in &active {
                let c = Instant::now();
                sessions[i].serve_observe(&ctx, &mut &cache, &bench.exec);
                times.serve_observe_us.push(c.elapsed().as_secs_f64() * 1e6);
            }
            for &i in &active {
                let c = Instant::now();
                sessions[i].finish_window(&ctx, &mut &cache, &bench.exec);
                times.finish_window_us.push(c.elapsed().as_secs_f64() * 1e6);
            }
            active.retain(|&i| !sessions[i].is_done());
        }
        times.wall_s += secs(t);
        for s in sessions {
            absorb(&s.into_trace().1, &mut totals, &mut residuals);
        }
    }
    Sim::new(totals, &mut residuals)
}
