//! The traced driver: the engine's per-query timeline re-driven from the
//! benchmark, one public call per layer, each timed from outside.
//!
//! For every query, in the program's order: index (`pages_in_region` on
//! the query box, then `range_query`), cache/disk (`PageCache::access`,
//! `DiskModel::read_page_retrying`), observe (`observe_with_scratch`),
//! then — after every client in the round has been served, the engine's
//! bulk-synchronous order — plan (`Prefetcher::plan`) and the window
//! (`pages_in_region` on `Region` requests; `contains`, `peek_read_us`,
//! `try_read_page`, `insert` per page). The simulated arithmetic mirrors
//! the engine's, so a traced pass must reproduce the untraced totals
//! exactly; the caller checks that.

use crate::spec::{secs, Bench};
use crate::stats::{Sim, SimTotals};
use scout_geometry::QueryRegion;
use scout_sim::{PrefetchRequest, Prefetcher, QueryScratch, SimContext};
use scout_storage::{DiskModel, PageCache, PageId, PrefetchCache, ShardedCache};
use std::collections::HashSet;
use std::time::Instant;

/// Per-query samples (µs) and per-pass counts of the traced layers.
#[derive(Debug, Clone, Default)]
pub struct Ledger {
    /// `pages_in_region` on the query box.
    pub walk_us: Vec<f64>,
    /// `range_query` minus the walk: the per-object exact filter.
    pub filter_us: Vec<f64>,
    /// Result-page serving: the reference read-out plus cache/disk.
    pub serve_us: Vec<f64>,
    /// `observe_with_scratch`.
    pub observe_us: Vec<f64>,
    /// `plan`.
    pub plan_us: Vec<f64>,
    /// `pages_in_region` on the plan's `Region` requests.
    pub window_walk_us: Vec<f64>,
    /// The window's per-page cache/disk calls.
    pub window_io_us: Vec<f64>,
    /// Objects on result pages (each tested by the filter).
    pub objects_tested: u64,
    /// Objects the filter kept.
    pub result_objects: u64,
    /// Pages the window's inserts evicted.
    pub evictions: u64,
    /// Pages prefetched.
    pub prefetch_pages: u64,
    /// Device reads: demand misses plus prefetches.
    pub disk_reads: u64,
    /// Result pages served from the cache.
    pub pages_hit: u64,
    /// Prefetched pages that served at least one later query.
    pub useful_prefetches: u64,
    /// Prefetched pages of the current cache group not yet served.
    unhit: HashSet<PageId>,
    /// Σ result-graph vertices reported by `observe`.
    pub graph_vertices: u64,
    /// Graph builds repaired incrementally / all graph builds.
    pub graph_incremental: u64,
    /// All graph builds.
    pub graph_builds: u64,
    /// Queries traced.
    pub queries: u64,
    /// Wall seconds of the traced passes.
    pub wall_s: f64,
}

/// Microseconds since `t`.
fn us(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e6
}

/// One traced client: its prefetcher, disk head, scratch arena and the
/// window budget left open between the round's two phases.
struct Client<'a> {
    prefetcher: Box<dyn Prefetcher>,
    disk: DiskModel,
    scratch: QueryScratch,
    regions: &'a [QueryRegion],
    /// Open window budget, µs; `None` between queries or after a failure.
    budget: Option<f64>,
    residuals: Vec<f64>,
    totals: SimTotals,
}

/// Runs one traced pass over the workload's client groups with its own
/// prefetchers, each group over its own cache: the fleet's sharded cache,
/// or `run_sequence`'s private LRU. Returns the simulated results.
pub fn traced_pass(bench: &Bench, ledger: &mut Ledger) -> Sim {
    let ctx = bench.ctx();
    let mut totals = SimTotals::default();
    let mut residuals = Vec::with_capacity(bench.queries());
    for group in bench.groups() {
        let mut clients: Vec<Client<'_>> = group
            .iter()
            .map(|&id| {
                let mut prefetcher = bench.prefetcher(id);
                prefetcher.reset();
                Client {
                    prefetcher,
                    disk: DiskModel::new(bench.exec.disk),
                    scratch: QueryScratch::new(),
                    regions: bench.stream_of(id),
                    budget: None,
                    residuals: Vec::new(),
                    totals: SimTotals::default(),
                }
            })
            .collect();
        ledger.unhit.clear();
        let t = Instant::now();
        if bench.workload.is_fleet() {
            let mut cache = ShardedCache::new(bench.exec.cache_pages, bench.shards());
            drive(&ctx, bench, &mut clients, &mut cache, ledger);
        } else {
            let mut cache = PrefetchCache::new(bench.exec.cache_pages);
            drive(&ctx, bench, &mut clients, &mut cache, ledger);
        }
        ledger.wall_s += secs(t);
        for c in clients {
            if let Some(counters) = c.prefetcher.graph_cache_counters() {
                ledger.graph_incremental += counters.incremental;
                ledger.graph_builds += counters.total();
            }
            let mut t = c.totals;
            t.response_us = c.residuals.iter().sum();
            totals.add(&t);
            residuals.extend_from_slice(&c.residuals);
        }
    }
    Sim::new(totals, &mut residuals)
}

/// The round loop over one cache.
fn drive<C: PageCache>(
    ctx: &SimContext<'_>,
    bench: &Bench,
    clients: &mut [Client<'_>],
    cache: &mut C,
    ledger: &mut Ledger,
) {
    let rounds = clients.iter().map(|c| c.regions.len()).max().unwrap_or(0);
    for round in 0..rounds {
        for c in clients.iter_mut().filter(|c| round < c.regions.len()) {
            serve(ctx, bench, c, round, cache, ledger);
        }
        for c in clients.iter_mut() {
            window(ctx, c, cache, ledger);
        }
    }
}

/// Timeline phases 1–2 for one query: index, cache/disk, observe.
fn serve<C: PageCache>(
    ctx: &SimContext<'_>,
    bench: &Bench,
    c: &mut Client<'_>,
    round: usize,
    cache: &mut C,
    ledger: &mut Ledger,
) {
    let exec = &bench.exec;
    let region = &c.regions[round];
    ledger.queries += 1;
    c.totals.queries += 1;

    let t = Instant::now();
    let walked = ctx.index.pages_in_region(region.aabb());
    let walk = us(t);
    std::hint::black_box(&walked);
    let t = Instant::now();
    let result = ctx.index.range_query(ctx.objects, region);
    let query = us(t);
    ledger.walk_us.push(walk);
    ledger.filter_us.push(query - walk);
    ledger.objects_tested +=
        result.pages.iter().map(|&p| ctx.index.layout().page(p).objects.len() as u64).sum::<u64>();
    ledger.result_objects += result.objects.len() as u64;

    let t = Instant::now();
    // The paper's d: the whole result read from a fresh head.
    let d_ref_us: f64 = {
        let mut fresh = DiskModel::new(exec.disk);
        result.pages.iter().map(|&p| fresh.read_page(p)).sum()
    };
    let mut residual = 0.0;
    let mut failed = false;
    let mut deadline = exec.faults.retry.deadline_us;
    for &page in &result.pages {
        if cache.access(page) {
            c.totals.pages_hit += 1;
            ledger.pages_hit += 1;
            ledger.useful_prefetches += u64::from(ledger.unhit.remove(&page));
        } else {
            match c.disk.read_page_retrying(page, &exec.faults.retry, &mut deadline) {
                Ok(t) => {
                    residual += t;
                    ledger.disk_reads += 1;
                }
                Err(f) => {
                    residual += f.latency_us;
                    failed = true;
                    break;
                }
            }
        }
    }
    residual += result.pages.len() as f64 * exec.costs.page_process_us;
    ledger.serve_us.push(us(t));
    c.totals.pages_total += result.pages.len() as u64;
    c.residuals.push(residual);
    if failed {
        c.totals.failed += 1;
        return;
    }

    let t = Instant::now();
    let stats = c.prefetcher.observe_with_scratch(ctx, region, &result, &mut c.scratch);
    ledger.observe_us.push(us(t));
    ledger.graph_vertices += stats.graph_vertices as u64;
    let graph_build_us = exec.costs.graph_build_us(&stats.cpu);
    let prediction_us = exec.costs.prediction_us(&stats.cpu);
    let delay = if c.prefetcher.overlaps_prediction() {
        0.0
    } else {
        (graph_build_us - residual).max(0.0) + prediction_us
    };
    c.budget = Some((exec.window_ratio * d_ref_us - delay).max(0.0));
}

/// Timeline phase 3 for one client: plan, then the prefetch window until
/// its budget runs out.
fn window<C: PageCache>(
    ctx: &SimContext<'_>,
    c: &mut Client<'_>,
    cache: &mut C,
    ledger: &mut Ledger,
) {
    let Some(mut budget) = c.budget.take() else {
        return;
    };
    let t = Instant::now();
    let plan = c.prefetcher.plan(ctx);
    ledger.plan_us.push(us(t));

    let t = Instant::now();
    let mut walk = 0.0;
    'window: for request in plan.requests {
        let pages = match request {
            PrefetchRequest::Region(r) => {
                let w = Instant::now();
                let pages = ctx.index.pages_in_region(r.aabb());
                walk += us(w);
                pages
            }
            PrefetchRequest::Pages(p) | PrefetchRequest::GapPages(p) => p,
        };
        for page in pages {
            if cache.contains(page) {
                continue;
            }
            if c.disk.peek_read_us(page) > budget {
                break 'window;
            }
            match c.disk.try_read_page(page, 0) {
                Ok(t) => {
                    budget -= t;
                    if let Some(victim) = cache.insert(page) {
                        ledger.evictions += 1;
                        ledger.unhit.remove(&victim);
                    }
                    ledger.unhit.insert(page);
                    ledger.prefetch_pages += 1;
                    ledger.disk_reads += 1;
                }
                Err(f) => {
                    budget -= f.latency_us;
                    c.disk.note_dropped_prefetch();
                    if budget <= 0.0 {
                        break 'window;
                    }
                }
            }
        }
    }
    ledger.window_io_us.push(us(t) - walk);
    ledger.window_walk_us.push(walk);
}
