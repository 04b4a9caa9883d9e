//! `derand_lifts`: the deterministic stage on large lifts of small bases.
//!
//! Eight fixed connected bases with five to seven nodes, greedily 2-hop
//! colored, each lifted twenty times by random connected lifts. The
//! bases do not depend on the seed, so every seed pays for the same eight
//! canonical searches; the seed draws the lifts. A pass runs the
//! exhaustive (minimal-assignment) search on one thread against a fresh
//! store (cold: one miss per base, hits after), reopens the store, warms
//! it, and runs again (warm: hits only). Warm outputs must equal cold
//! outputs byte for byte.
//!
//! Each phase runs the body of `derandomize_batch` — one `Derandomizer`
//! over the instances on a one-thread `BatchScheduler` — with a host-speed
//! sample after each instance, inside the job: the speed changes within a
//! phase, and samples taken only between phases left the scaled pass times
//! spread by 24%.

use std::sync::Arc;
use std::time::{Duration, Instant};

use anonet_algorithms::mis::RandomizedMis;
use anonet_algorithms::problems::MisProblem;
use anonet_batch::{BatchOutcome, BatchScheduler, PersistentDerandCache};
use anonet_core::{DerandomizedRun, Derandomizer, SearchStrategy};
use anonet_graph::coloring::greedy_two_hop_coloring;
use anonet_graph::lift::random_connected_lift;
use anonet_graph::{canonical, generators, LabeledGraph};
use anonet_obs::{names, MemoryRecorder, SharedRecorder};
use anonet_runtime::{ExecConfig, Problem};
use anonet_views::{canonical_order, quotient, ViewMode};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use crate::speed;
use crate::{derandomized_bytes, remove_dir, scratch_dir, span_s, Layers, Pass, Scale, Workload};

/// The paper's rule: the minimal successful assignment.
const STRATEGY: SearchStrategy = SearchStrategy::Exhaustive { max_total_bits: 24 };

/// Seed of the base graphs; fixed so that every workload seed searches
/// the same quotients.
const BASE_SEED: u64 = 1;

type Instance = LabeledGraph<((), u32)>;

/// The inputs: colored lifts, and their uncolored graphs for validation.
pub struct DerandLifts {
    instances: Vec<Instance>,
    plain: Vec<LabeledGraph<()>>,
}

/// One instance's run, and the host-speed sample taken after it.
type Job = (DerandomizedRun<bool>, (f64, Duration));

/// One store lifetime: open, optionally warm, derandomize every instance,
/// flush.
struct Phase {
    outcome: BatchOutcome<Job>,
    open_s: f64,
    warm_s: f64,
    flush_s: f64,
    recovered_records: u64,
    cache: anonet_batch::CacheStats,
    disk_bytes: u64,
}

impl Phase {
    /// Time the phase's jobs spent on speed samples.
    fn sampling(&self) -> Duration {
        self.outcome.results.iter().filter_map(|r| r.ok()).map(|(_, (_, spent))| *spent).sum()
    }
}

impl DerandLifts {
    fn phase(
        &self,
        dir: &std::path::Path,
        warm: bool,
        recorder: Option<&SharedRecorder>,
    ) -> Result<Phase, String> {
        let start = Instant::now();
        let pdc = PersistentDerandCache::open(dir).map_err(|e| e.to_string())?;
        let open_s = start.elapsed().as_secs_f64();
        let recovered_records = pdc.store_stats().recovered_records;
        let start = Instant::now();
        if warm {
            pdc.warm(usize::MAX).map_err(|e| e.to_string())?;
        }
        let warm_s = start.elapsed().as_secs_f64();
        let before = pdc.cache_stats();
        let mut derandomizer = Derandomizer::new(RandomizedMis::new())
            .with_strategy(STRATEGY)
            .with_config(ExecConfig::default())
            .with_cache(Arc::clone(pdc.cache()));
        let mut scheduler = BatchScheduler::with_threads(1);
        if let Some(rec) = recorder {
            derandomizer = derandomizer.with_recorder(Arc::clone(rec));
            scheduler = scheduler.with_recorder(Arc::clone(rec));
        }
        let outcome = scheduler.run(&self.instances, |_, instance| {
            derandomizer.run(instance).map(|run| (run, speed::sample()))
        });
        let start = Instant::now();
        pdc.flush().map_err(|e| e.to_string())?;
        let flush_s = start.elapsed().as_secs_f64();
        let cache = pdc.cache_stats().delta_from(&before).map_err(|e| format!("{e:?}"))?;
        Ok(Phase {
            outcome,
            open_s,
            warm_s,
            flush_s,
            recovered_records,
            cache,
            disk_bytes: pdc.store_stats().disk_bytes,
        })
    }
}

impl Workload for DerandLifts {
    fn setup(seed: u64, scale: Scale) -> Result<Self, String> {
        let (base_sizes, lifts, step): (&[usize], usize, usize) = match scale {
            Scale::Full => (&[5, 5, 6, 6, 6, 7, 7, 7], 20, 64),
            Scale::Smoke => (&[5, 6], 2, 2),
        };
        let mut base_rng = ChaCha8Rng::seed_from_u64(BASE_SEED);
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut instances = Vec::new();
        let mut plain = Vec::new();
        for &n in base_sizes {
            // At least two independent cycles, so random lifts of any
            // multiplicity are connected with high probability.
            let base = loop {
                let g =
                    generators::gnp_connected(n, 0.5, &mut base_rng).map_err(|e| e.to_string())?;
                if g.edge_count() > n {
                    break g;
                }
            };
            let labels: Vec<((), u32)> =
                greedy_two_hop_coloring(&base).labels().iter().map(|&c| ((), c)).collect();
            for k in 1..=lifts {
                let lift = random_connected_lift(&base, k * step, 50, &mut rng)
                    .map_err(|e| e.to_string())?;
                plain.push(lift.graph().with_uniform_label(()));
                instances.push(lift.lift_labels(&labels).map_err(|e| e.to_string())?);
            }
        }
        Ok(DerandLifts { instances, plain })
    }

    fn pass(&self, recorder: Option<&Arc<MemoryRecorder>>) -> Result<Pass, String> {
        let shared: Option<SharedRecorder> = recorder.map(|r| Arc::clone(r) as SharedRecorder);
        let dir = scratch_dir("lifts")?;
        let start = Instant::now();
        let cold = self.phase(&dir, false, shared.as_ref())?;
        let warm = self.phase(&dir, true, shared.as_ref())?;
        let elapsed = start.elapsed();
        remove_dir(&dir)?;

        // Each input is attempted twice, cold then warm; instances are in
        // that order. Latency is the job's time in the scheduler, less the
        // speed sample it ends with, plus its validation.
        let n = self.instances.len();
        let mut pass = Pass { attempted: 2 * n as u64, ..Pass::default() };
        let (mut quotient_nodes, mut nodes) = (0usize, 0usize);
        for phase in [&cold, &warm] {
            for (i, result) in phase.outcome.results.iter().enumerate() {
                let job_time = phase.outcome.stats.job_times.get(i).copied().unwrap_or_default();
                let check = Instant::now();
                let mut bytes = Vec::new();
                let mut kernel = f64::NAN;
                let mut job = job_time;
                if let Some((run, (k, spent))) = result.ok() {
                    (kernel, job) = (*k, job_time.saturating_sub(*spent));
                    if MisProblem.is_valid_output(&self.plain[i], &run.outputs) {
                        derandomized_bytes(&mut bytes, run);
                        quotient_nodes += run.quotient_nodes;
                        nodes += self.plain[i].node_count();
                    }
                }
                let latency = (job + check.elapsed()).as_secs_f64() * 1e3;
                pass.latencies_ms.push(if bytes.is_empty() { f64::INFINITY } else { latency });
                pass.kernels.push(kernel);
                pass.outputs.push(bytes);
            }
        }
        let (cold_bytes, warm_bytes) = pass.outputs.split_at(n);
        pass.failed = cold_bytes
            .iter()
            .zip(warm_bytes)
            .map(|(c, w)| u64::from(c.is_empty()) + u64::from(w.is_empty() || w != c))
            .sum();
        pass.wall = elapsed.saturating_sub(cold.sampling() + warm.sampling());
        let wall = pass.wall;
        if let Some(rec) = recorder {
            let snap = rec.snapshot();
            let derandomize = span_s(&snap, names::SPAN_DERANDOMIZE);
            let phases = [&cold, &warm];
            let sum = |f: &dyn Fn(&Phase) -> f64| phases.iter().map(|p| f(p)).sum::<f64>();
            let hits = sum(&|p| p.cache.assignment_hits as f64);
            let misses = sum(&|p| p.cache.assignment_misses as f64);
            let busy = sum(&|p| (p.outcome.stats.busy - p.sampling()).as_secs_f64());
            let batch_wall = sum(&|p| (p.outcome.stats.wall - p.sampling()).as_secs_f64());
            let store_s = sum(&|p| p.open_s + p.warm_s + p.flush_s);
            pass.layers = Layers::from([
                ("views.quotient_s", span_s(&snap, names::SPAN_VIEWS)),
                ("views.order_s", span_s(&snap, names::SPAN_FACTOR)),
                ("views.classes_per_node", quotient_nodes as f64 / nodes.max(1) as f64),
                ("core.derandomize_s", derandomize),
                ("core.search_s", span_s(&snap, names::SPAN_SEARCH)),
                ("core.search_attempts", snap.counter(names::SEARCH_ATTEMPTS) as f64),
                ("cache.hits", hits),
                ("cache.misses", misses),
                ("cache.hit_rate", hits / (hits + misses).max(1.0)),
                ("cache.bytes", cold.cache.bytes as f64),
                ("cache.disk_errors", sum(&|p| p.cache.disk_errors as f64)),
                ("store.open_s", sum(&|p| p.open_s)),
                ("store.warm_s", warm.warm_s),
                ("store.flush_s", sum(&|p| p.flush_s)),
                ("store.disk_bytes", warm.disk_bytes as f64),
                ("store.recovered_records", warm.recovered_records as f64),
                ("batch.busy_s", busy),
                ("batch.parallel_efficiency", busy / batch_wall.max(1e-12)),
                ("other_s", wall.as_secs_f64() - derandomize - store_s),
            ]);
        }
        Ok(pass)
    }

    /// Canonical encoding has no span: build each instance's quotient and
    /// canonical order, and time `encode_with_order` alone.
    fn probe(&self) -> Result<Layers, String> {
        let (mut encode_s, mut encode_bytes) = (Duration::ZERO, 0usize);
        for instance in &self.instances {
            let q = quotient(instance, ViewMode::Portless).map_err(|e| e.to_string())?;
            let order =
                canonical_order(q.graph(), ViewMode::Portless).map_err(|e| e.to_string())?;
            let start = Instant::now();
            let key = std::hint::black_box(canonical::encode_with_order(q.graph(), &order));
            encode_s += start.elapsed();
            encode_bytes += key.len();
        }
        Ok(Layers::from([
            ("graph.encode_s", encode_s.as_secs_f64()),
            ("graph.encode_bytes", encode_bytes as f64),
        ]))
    }
}
