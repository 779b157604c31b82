//! The three workloads: what each one generates, how its clients are
//! grouped over caches, and which prefetcher serves them.
//!
//! Each workload's dataset is generated from a fixed seed; its query
//! streams are drawn from the `--seed` argument. The engine only ever
//! receives the generated dataset and query streams.

use scout_core::Scout;
use scout_geometry::QueryRegion;
use scout_index::{RTree, SpatialIndex};
use scout_predict::HybridPrefetcher;
use scout_sim::workloads::revisit_loop;
use scout_sim::{
    ExecutorConfig, MultiSessionConfig, MultiSessionExecutor, Prefetcher, Schedule, Session,
    SimContext,
};
use scout_synth::{
    generate_lung, generate_neurons, generate_roads, generate_sequences, Dataset, LungParams,
    NeuronParams, RoadParams, SequenceParams,
};
use std::time::Instant;

/// R-tree page capacity (objects per page) for every workload.
pub const PAGE_CAPACITY: usize = 32;
/// Prefetch-window ratio `r = u/d` for every workload.
pub const WINDOW_RATIO: f64 = 1.6;
/// Seed of every workload's dataset.
pub const DATASET_SEED: u64 = 42;
/// Shards of the fleet's shared cache.
pub const FLEET_SHARDS: usize = 16;

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// One SCOUT client following neuron fibres; the object filter dominates.
    FollowNeuron,
    /// One SCOUT+Markov client looping a lung tour under cache pressure;
    /// prediction and eviction dominate.
    RevisitLung,
    /// A width-1 work-stealing fleet of short SCOUT sessions on a road grid;
    /// the engine's round loop and the shared cache dominate.
    FleetRoads,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] =
        [Workload::FollowNeuron, Workload::RevisitLung, Workload::FleetRoads];

    /// The command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::FollowNeuron => "follow-neuron",
            Workload::RevisitLung => "revisit-lung",
            Workload::FleetRoads => "fleet-roads",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// True for the multi-session workload.
    pub fn is_fleet(self) -> bool {
        self == Workload::FleetRoads
    }
}

/// Input sizes. `full` is what the benchmark measures; `tiny` keeps the
/// same shape at a size the determinism tests can run twice in seconds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sizes {
    /// Neuron objects (follow-neuron).
    pub neuron_objects: usize,
    /// Guided sequences (follow-neuron).
    pub neuron_streams: usize,
    /// Airway generations (revisit-lung).
    pub lung_generations: usize,
    /// `revisit_loop` streams (revisit-lung).
    pub lung_streams: usize,
    /// Road grid side (fleet-roads).
    pub road_grid: usize,
    /// Distinct query streams the fleet's sessions draw from.
    pub road_pool: usize,
    /// Fleet sessions (fleet-roads).
    pub road_sessions: usize,
}

impl Sizes {
    /// The measured sizes. Every workload has at least 1 000 queries a
    /// pass, so the nearest-rank p99 has at least ten samples beyond it,
    /// and enough streams that seed-to-seed spread in the simulated
    /// metrics stays under a tenth. Passes are kept short (seconds or
    /// less) so that a run holds many of them.
    pub fn full() -> Sizes {
        Sizes {
            neuron_objects: 300_000,
            neuron_streams: 64,
            lung_generations: 11,
            lung_streams: 128,
            road_grid: 192,
            road_pool: 256,
            road_sessions: 500,
        }
    }

    /// A miniature of every workload (tests only).
    pub fn tiny() -> Sizes {
        Sizes {
            neuron_objects: 6_000,
            neuron_streams: 3,
            lung_generations: 5,
            lung_streams: 2,
            road_grid: 20,
            road_pool: 6,
            road_sessions: 40,
        }
    }
}

/// Queries per `revisit_loop` tour and laps per stream.
const LUNG_TOUR: usize = 12;
const LUNG_LAPS: usize = 4;
/// Queries per fleet session.
const ROAD_QUERIES: usize = 8;
/// Objects per query on the lung and road datasets (the adaptive sizing
/// rule: the volume holding this many objects at mean density).
const OBJECTS_PER_QUERY: f64 = 250.0;
/// Lung prefetch cache: smaller than a tour's working set, so the LRU
/// evicts on every window.
const LUNG_CACHE_PAGES: usize = 192;

/// Wall-clock cost of the set-up steps the ledger reports, seconds.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupTimes {
    /// Dataset generation.
    pub generate_s: f64,
    /// R-tree bulk load.
    pub bulk_load_s: f64,
}

/// A built workload: dataset, index and query streams.
pub struct Bench {
    /// Which workload this is.
    pub workload: Workload,
    /// The sizes it was built at.
    pub sizes: Sizes,
    /// The generated dataset.
    pub dataset: Dataset,
    /// The R-tree serving every query.
    pub rtree: RTree,
    /// Distinct query streams. Single-client workloads run each stream as
    /// its own client over a cold cache; the fleet's sessions draw from
    /// this pool round-robin.
    pub streams: Vec<Vec<QueryRegion>>,
    /// Per-client execution environment.
    pub exec: ExecutorConfig,
    /// What set-up cost.
    pub setup: SetupTimes,
}

/// Seconds elapsed since `t`.
pub fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

impl Bench {
    /// Generates the workload's inputs from `seed` (without fleet
    /// sessions; see [`Bench::setup`]).
    pub fn build(workload: Workload, sizes: Sizes, seed: u64) -> Bench {
        let mut setup = SetupTimes::default();
        let t = Instant::now();
        // The dataset is part of the workload's definition, like a fixed
        // benchmark database: seed-to-seed changes in airway or road
        // structure would otherwise swamp every simulated metric. The
        // seed draws the query streams; fleet sessions are seeded by id.
        let dataset = match workload {
            Workload::FollowNeuron => generate_neurons(
                &NeuronParams::with_target_objects(sizes.neuron_objects),
                DATASET_SEED,
            ),
            Workload::RevisitLung => generate_lung(
                &LungParams { generations: sizes.lung_generations, ..LungParams::default() },
                DATASET_SEED,
            ),
            Workload::FleetRoads => generate_roads(
                &RoadParams { grid_n: sizes.road_grid, ..RoadParams::default() },
                DATASET_SEED,
            ),
        };
        setup.generate_s = secs(t);

        let t = Instant::now();
        let rtree = RTree::bulk_load_with_capacity(&dataset.objects, PAGE_CAPACITY);
        setup.bulk_load_s = secs(t);

        let stream_seed = seed ^ 0x5EED_57AE_A115_0001;
        let sized = SequenceParams {
            volume: OBJECTS_PER_QUERY / dataset.density(),
            ..SequenceParams::sensitivity_default()
        };
        let streams: Vec<Vec<QueryRegion>> = match workload {
            Workload::FollowNeuron => generate_sequences(
                &dataset,
                &SequenceParams::sensitivity_default(),
                sizes.neuron_streams,
                stream_seed,
            )
            .into_iter()
            .map(|s| s.regions)
            .collect(),
            Workload::RevisitLung => (0..sizes.lung_streams as u64)
                .map(|i| {
                    revisit_loop(
                        &dataset,
                        &sized,
                        LUNG_TOUR,
                        LUNG_LAPS,
                        // A golden-ratio stride, so that nearby `--seed`
                        // values share no stream seeds.
                        stream_seed.wrapping_add(i.wrapping_mul(0x9E37_79B9_7F4A_7C15)),
                    )
                })
                .collect(),
            Workload::FleetRoads => generate_sequences(
                &dataset,
                &SequenceParams { length: ROAD_QUERIES, ..sized },
                sizes.road_pool,
                stream_seed,
            )
            .into_iter()
            .map(|s| s.regions)
            .collect(),
        };

        let pages = rtree.layout().page_count();
        let cache_pages = match workload {
            // Holds every page: no evictions.
            Workload::FollowNeuron => pages,
            Workload::RevisitLung => LUNG_CACHE_PAGES,
            // Every shard can hold the whole layout, so no shard can ever
            // evict however skewed the page hash is (the eviction-free
            // precondition of the width-invariance contract).
            Workload::FleetRoads => pages * FLEET_SHARDS,
        };
        let exec = ExecutorConfig { window_ratio: WINDOW_RATIO, cache_pages, ..Default::default() };
        Bench { workload, sizes, dataset, rtree, streams, exec, setup }
    }

    /// The workload's whole set-up: inputs plus, for the fleet, the first
    /// batch of sessions (single-client workloads have none).
    pub fn setup(workload: Workload, sizes: Sizes, seed: u64) -> (Bench, Vec<Session>) {
        let bench = Bench::build(workload, sizes, seed);
        let sessions = if workload.is_fleet() { bench.sessions(false) } else { Vec::new() };
        (bench, sessions)
    }

    /// The context every prefetcher sees: objects, R-tree, bounds and the
    /// explicit adjacency when the dataset has one.
    pub fn ctx(&self) -> SimContext<'_> {
        let ctx = SimContext::new(&self.dataset.objects, &self.rtree, self.dataset.bounds);
        match &self.dataset.adjacency {
            Some(adj) => ctx.with_adjacency(adj),
            None => ctx,
        }
    }

    /// Number of clients: one per stream, or one per fleet session.
    pub fn clients(&self) -> usize {
        if self.workload.is_fleet() {
            self.sizes.road_sessions
        } else {
            self.streams.len()
        }
    }

    /// The query stream of client `id`.
    pub fn stream_of(&self, id: usize) -> &[QueryRegion] {
        &self.streams[id % self.streams.len()]
    }

    /// Total queries one pass over the workload issues.
    pub fn queries(&self) -> usize {
        (0..self.clients()).map(|id| self.stream_of(id).len()).sum()
    }

    /// Client groups sharing one cache: the whole fleet, or each
    /// single-client stream alone over a cold cache.
    pub fn groups(&self) -> Vec<Vec<usize>> {
        if self.workload.is_fleet() {
            vec![(0..self.clients()).collect()]
        } else {
            (0..self.clients()).map(|id| vec![id]).collect()
        }
    }

    /// Shards of a group's cache.
    pub fn shards(&self) -> usize {
        if self.workload.is_fleet() {
            FLEET_SHARDS
        } else {
            1
        }
    }

    /// The workload's prefetcher for client `id`.
    pub fn prefetcher(&self, id: usize) -> Box<dyn Prefetcher> {
        match self.workload {
            Workload::FollowNeuron => Box::new(Scout::with_defaults()),
            Workload::RevisitLung => Box::new(HybridPrefetcher::with_defaults()),
            Workload::FleetRoads => Box::new(Scout::with_seed(id as u64)),
        }
    }

    /// One session per client, in id order, with the workload's
    /// prefetchers (or `NoPrefetch` for the baseline).
    pub fn sessions(&self, baseline: bool) -> Vec<Session> {
        (0..self.clients())
            .map(|id| {
                let p: Box<dyn Prefetcher> =
                    if baseline { Box::new(scout_sim::NoPrefetch) } else { self.prefetcher(id) };
                Session::new(id, p, self.stream_of(id).to_vec())
            })
            .collect()
    }

    /// The multi-session engine at crew width `workers`, over the
    /// workload's shared-cache configuration.
    pub fn engine(&self, workers: usize) -> MultiSessionExecutor {
        MultiSessionExecutor::new(MultiSessionConfig {
            exec: self.exec,
            shards: self.shards(),
            schedule: Schedule::WorkStealing { workers },
            ..Default::default()
        })
    }
}
