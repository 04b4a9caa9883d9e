//! `pipeline_random`: the full Theorem-1 pipeline on random graphs.
//!
//! Half the jobs are `G(n, 6/n)` conditioned on connectivity, half are
//! random 3-regular graphs, one of each for 52 sizes `n` spaced
//! geometrically from 128 to 1024. Random graphs
//! refine to the discrete partition, so the quotient is the whole graph:
//! stage 1 (the randomized 2-hop coloring) dominates, every quotient is new,
//! and the cache and store only take writes. Each pass opens a fresh
//! persistent cache, runs every job through `run_pipeline_cached` on two
//! scheduler threads, validates each output and flushes the store.

use std::sync::Arc;
use std::time::{Duration, Instant};

use anonet_algorithms::mis::RandomizedMis;
use anonet_algorithms::problems::MisProblem;
use anonet_algorithms::two_hop_coloring::TwoHopColoring;
use anonet_batch::{BatchScheduler, PersistentDerandCache};
use anonet_core::pipeline::{run_pipeline_cached, run_pipeline_observed, PipelineRun};
use anonet_core::SearchStrategy;
use anonet_graph::coloring::is_two_hop_coloring;
use anonet_graph::{canonical, generators, LabeledGraph};
use anonet_obs::{names, MemoryRecorder, SharedRecorder};
use anonet_runtime::{ExecConfig, Oblivious, Problem, RngSource};
use anonet_views::{canonical_order, quotient, ViewMode};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

use crate::speed;
use crate::{derandomized_bytes, remove_dir, scratch_dir, span_s, Layers, Pass, Scale, Workload};

/// Scheduler threads.
const THREADS: usize = 2;

/// The inputs: `(network, stage-1 seed)` jobs.
pub struct PipelineRandom {
    jobs: Vec<(LabeledGraph<()>, u64)>,
}

/// One job's bytes, latency in seconds, run, and host-speed sample.
type Outcome = (Vec<u8>, f64, PipelineRun<bool>, (f64, Duration));

impl PipelineRandom {
    /// Runs one job and validates it, then samples the host speed on the
    /// same worker thread.
    fn job(
        net: &LabeledGraph<()>,
        seed: u64,
        cache: &Arc<anonet_batch::DerandCache>,
        recorder: Option<&SharedRecorder>,
    ) -> Result<Outcome, String> {
        let start = Instant::now();
        let alg = RandomizedMis::new();
        let strategy = SearchStrategy::default();
        let config = ExecConfig::default();
        let run = match recorder {
            None => run_pipeline_cached(&alg, net, seed, strategy, &config, Some(cache)),
            Some(rec) => {
                run_pipeline_observed(&alg, net, seed, strategy, &config, Some(cache), rec)
            }
        }
        .map_err(|e| e.to_string())?;
        if !MisProblem.is_valid_output(net, &run.outputs) {
            return Err("invalid MIS".into());
        }
        let colored = net.graph().with_labels(run.coloring.clone()).map_err(|e| e.to_string())?;
        if !is_two_hop_coloring(&colored) {
            return Err("stage 1 is not a 2-hop coloring".into());
        }
        let latency = start.elapsed().as_secs_f64();
        let mut bytes = Vec::new();
        for color in &run.coloring {
            bytes.extend_from_slice(&(color.len() as u64).to_le_bytes());
            bytes.extend(color.iter().map(u8::from));
        }
        derandomized_bytes(&mut bytes, &run.deterministic);
        Ok((bytes, latency, run, speed::sample()))
    }
}

impl Workload for PipelineRandom {
    fn setup(seed: u64, scale: Scale) -> Result<Self, String> {
        // `sizes` even sizes, spaced geometrically from `min` to `max`, one
        // job of each kind per size. With a few distinct sizes the latencies
        // would form clusters, and a percentile on a gap between two of them
        // moves with one job more or less on either side.
        let (min, max, sizes) = match scale {
            Scale::Full => (128.0, 1024.0, 52),
            Scale::Smoke => (16.0, 32.0, 2),
        };
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut jobs = Vec::new();
        let ratio: f64 = max / min;
        for i in 0..sizes {
            // Even, so that a 3-regular graph on `n` nodes exists.
            let n =
                2 * (min * ratio.powf(f64::from(i) / f64::from(sizes - 1)) / 2.0).round() as usize;
            let gnp = generators::gnp_connected(n, 6.0 / n as f64, &mut rng)
                .map_err(|e| e.to_string())?;
            jobs.push((gnp.with_uniform_label(()), rng.gen()));
            let regular =
                generators::random_regular(n, 3, 100, &mut rng).map_err(|e| e.to_string())?;
            jobs.push((regular.with_uniform_label(()), rng.gen()));
        }
        Ok(PipelineRandom { jobs })
    }

    fn pass(&self, recorder: Option<&Arc<MemoryRecorder>>) -> Result<Pass, String> {
        let shared: Option<SharedRecorder> = recorder.map(|r| Arc::clone(r) as SharedRecorder);
        let dir = scratch_dir("pipeline")?;
        let start = Instant::now();
        let pdc = PersistentDerandCache::open(&dir).map_err(|e| e.to_string())?;
        let open_s = start.elapsed().as_secs_f64();
        let mut scheduler = BatchScheduler::with_threads(THREADS);
        if let Some(rec) = &shared {
            scheduler = scheduler.with_recorder(Arc::clone(rec));
        }
        let cache = pdc.cache();
        let outcome = scheduler
            .run(&self.jobs, |_, (net, seed)| Self::job(net, *seed, cache, shared.as_ref()));
        let flush_start = Instant::now();
        pdc.flush().map_err(|e| e.to_string())?;
        let flush_s = flush_start.elapsed().as_secs_f64();
        let elapsed = start.elapsed();

        let mut pass = Pass { attempted: self.jobs.len() as u64, ..Pass::default() };
        let (mut quotient_nodes, mut nodes) = (0usize, 0usize);
        let mut sampling = Duration::ZERO;
        for (result, (net, _)) in outcome.results.iter().zip(&self.jobs) {
            match result.ok() {
                Some((bytes, latency, run, (kernel, spent))) => {
                    sampling += *spent;
                    pass.kernels.push(*kernel);
                    pass.outputs.push(bytes.clone());
                    pass.latencies_ms.push(latency * 1e3);
                    quotient_nodes += run.deterministic.quotient_nodes;
                    nodes += net.node_count();
                }
                None => {
                    pass.failed += 1;
                    pass.kernels.push(f64::NAN);
                    pass.latencies_ms.push(f64::INFINITY);
                    pass.outputs.push(Vec::new());
                }
            }
        }
        // Samples ran on both workers, in parallel with the other's jobs.
        pass.wall = elapsed.saturating_sub(sampling / THREADS as u32);
        let wall = pass.wall;
        if let Some(rec) = recorder {
            let snap = rec.snapshot();
            let cache = pdc.cache_stats();
            let stats = &outcome.stats;
            let coloring = span_s(&snap, names::SPAN_COLORING);
            let derandomize = span_s(&snap, names::SPAN_DERANDOMIZE);
            let busy = stats.busy.saturating_sub(sampling).as_secs_f64();
            let lookups = cache.assignment_hits + cache.assignment_misses;
            pass.layers = Layers::from([
                ("runtime.coloring_s", coloring),
                ("runtime.coloring_rounds", snap.counter(names::ENGINE_ROUNDS) as f64),
                ("runtime.bits_drawn", snap.counter(names::ENGINE_BITS_DRAWN) as f64),
                ("views.quotient_s", span_s(&snap, names::SPAN_VIEWS)),
                ("views.order_s", span_s(&snap, names::SPAN_FACTOR)),
                ("views.classes_per_node", quotient_nodes as f64 / nodes.max(1) as f64),
                ("core.derandomize_s", derandomize),
                ("core.search_s", span_s(&snap, names::SPAN_SEARCH)),
                ("core.search_attempts", snap.counter(names::SEARCH_ATTEMPTS) as f64),
                ("cache.hits", cache.assignment_hits as f64),
                ("cache.misses", cache.assignment_misses as f64),
                ("cache.hit_rate", cache.assignment_hits as f64 / lookups.max(1) as f64),
                ("cache.bytes", cache.bytes as f64),
                ("cache.disk_errors", cache.disk_errors as f64),
                ("store.open_s", open_s),
                ("store.flush_s", flush_s),
                ("store.disk_bytes", pdc.store_stats().disk_bytes as f64),
                ("batch.busy_s", busy),
                (
                    "batch.parallel_efficiency",
                    busy / (wall.as_secs_f64() * THREADS as f64).max(1e-12),
                ),
                (
                    "other_s",
                    wall.as_secs_f64() * THREADS as f64 - coloring - derandomize - open_s - flush_s,
                ),
            ]);
        }
        drop(pdc);
        remove_dir(&dir)?;
        Ok(pass)
    }

    /// Canonical encoding has no span: color each job, build its quotient
    /// and canonical order, and time `encode_with_order` alone.
    fn probe(&self) -> Result<Layers, String> {
        let (mut encode_s, mut encode_bytes) = (0.0, 0usize);
        for (net, seed) in &self.jobs {
            let stage1 = anonet_runtime::run(
                &Oblivious(TwoHopColoring::new()),
                net,
                &mut RngSource::seeded(*seed),
                &ExecConfig::default(),
            )
            .map_err(|e| e.to_string())?;
            let colored =
                net.graph().with_labels(stage1.outputs_unwrapped()).map_err(|e| e.to_string())?;
            let instance = net.zip(&colored).map_err(|e| e.to_string())?;
            let q = quotient(&instance, ViewMode::Portless).map_err(|e| e.to_string())?;
            let order =
                canonical_order(q.graph(), ViewMode::Portless).map_err(|e| e.to_string())?;
            let start = Instant::now();
            let key = std::hint::black_box(canonical::encode_with_order(q.graph(), &order));
            encode_s += start.elapsed().as_secs_f64();
            encode_bytes += key.len();
        }
        Ok(Layers::from([
            ("graph.encode_s", encode_s),
            ("graph.encode_bytes", encode_bytes as f64),
        ]))
    }
}
