//! Correctness checks. Each returns the number of queries it found wrong;
//! the caller adds them to the run's `failed` count.

use crate::spec::Bench;
use crate::stats::{Sim, SimTotals};
use scout_geometry::intersect::shape_intersects_aabb;
use scout_sim::{ExecutorConfig, MultiSessionConfig, MultiSessionExecutor, Schedule};

/// Queries per run whose `range_query` object set is compared with a
/// linear scan over every object.
pub const ORACLE_SAMPLES: usize = 24;

/// Compares `range_query` with an independent linear scan (an AABB
/// pre-test, then the exact `shape_intersects_aabb`) on queries sampled
/// evenly across the workload. Returns `(checked, mismatched)`.
pub fn range_query_oracle(bench: &Bench) -> (u64, u64) {
    let ctx = bench.ctx();
    let all: Vec<_> = bench.streams.iter().flatten().collect();
    let step = (all.len() / ORACLE_SAMPLES).max(1);
    let mut checked = 0;
    let mut wrong = 0;
    for region in all.iter().step_by(step).take(ORACLE_SAMPLES) {
        let aabb = region.aabb();
        let mut got: Vec<u32> =
            ctx.index.range_query(ctx.objects, region).objects.iter().map(|o| o.0).collect();
        got.sort_unstable();
        let want: Vec<u32> = bench
            .dataset
            .objects
            .iter()
            .filter(|o| o.aabb().intersects(aabb) && shape_intersects_aabb(&o.shape, aabb))
            .map(|o| o.id.0)
            .collect();
        checked += 1;
        if got != want {
            eprintln!(
                "check failed: range_query returned {} objects, the linear scan {}",
                got.len(),
                want.len()
            );
            wrong += 1;
        }
    }
    (checked, wrong)
}

/// Compares two passes' simulated results — totals always, per-query
/// percentiles when `percentiles` (both sides computed them). A mismatch
/// fails every query of the pass. Returns the queries counted as failed.
pub fn same_sim(what: &str, expect: &Sim, got: &Sim, percentiles: bool) -> u64 {
    let same = if percentiles { expect == got } else { expect.totals == got.totals };
    if same {
        0
    } else {
        eprintln!("check failed: {what}: expected {expect:?}, got {got:?}");
        got.totals.queries.max(expect.totals.queries)
    }
}

/// Compares the result pages served from the cache at crew widths 1 and
/// 2. A mismatch fails every query of the pass.
pub fn same_pages_hit(what: &str, width1: &SimTotals, width2: &SimTotals) -> u64 {
    if width1.pages_hit == width2.pages_hit && width1.pages_total == width2.pages_total {
        0
    } else {
        eprintln!(
            "check failed: {what}: width 1 hit {}/{} pages, width 2 {}/{}",
            width1.pages_hit, width1.pages_total, width2.pages_hit, width2.pages_total
        );
        width2.queries
    }
}

/// Window ratio of the fleet's width guard: a budget of a million times
/// the query's own read time, so every window covers its session's whole
/// plan. With that and no evictions, cache membership at each serve phase
/// is a set, the union of all earlier inserts, so pages-hit cannot depend
/// on how a wider crew interleaves sessions (DESIGN.md §5 rule 2, §10).
/// While any budget binds, interleaving changes which pages a window
/// reaches: at ratio 8 a few windows per fleet still bind, and width 2
/// then misses a page or two that width 1 hits.
pub const GUARD_WINDOW_RATIO: f64 = 1e6;

/// The fleet's width-invariance contract: its sessions through the
/// engine at crew widths 1 and 2 under the guard configuration must hit
/// the same result pages. Returns `(queries run, queries failed)`.
pub fn fleet_width_guard(bench: &Bench) -> (u64, u64) {
    let ctx = bench.ctx();
    let exec = ExecutorConfig { window_ratio: GUARD_WINDOW_RATIO, ..bench.exec };
    let totals = |workers| {
        let report = MultiSessionExecutor::new(MultiSessionConfig {
            exec,
            shards: bench.shards(),
            schedule: Schedule::WorkStealing { workers },
            ..Default::default()
        })
        .run(&ctx, bench.sessions(false));
        SimTotals {
            queries: report.sessions.iter().map(|s| s.queries as u64).sum(),
            pages_total: report.total_pages(),
            pages_hit: report.total_pages_hit(),
            ..Default::default()
        }
    };
    let (narrow, wide) = (totals(1), totals(2));
    let failed = same_pages_hit("fleet width guard", &narrow, &wide);
    (narrow.queries + wide.queries, failed)
}
