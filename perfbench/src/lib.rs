//! End-to-end benchmark of the Theorem-1 system.
//!
//! Three workloads drive the public API from one process:
//!
//! * [`pipeline`] — `pipeline_random`: the full pipeline (randomized 2-hop
//!   coloring, then the deterministic stage) on random graphs whose
//!   quotient is the whole graph, two scheduler threads, a fresh
//!   persistent cache per pass;
//! * [`lifts`] — `derand_lifts`: the deterministic stage alone on large
//!   lifts of a few small bases, a cold pass on a fresh store, then a warm
//!   pass after reopening it;
//! * [`astar`] — `astar_lifts`: the paper's literal `A_*` on lifts of the
//!   cyclic bases with at most four nodes.
//!
//! Every workload is a closed loop: one caller, the next instance starts
//! when the previous one returns. A run sets the inputs up several times
//! (reporting the median set-up time), runs one warm-up pass, then repeats
//! measured passes until the requested time is spent. Every output is
//! validated; every pass must reproduce the warm-up pass byte for byte.
//!
//! The traced run ([`run`] with `trace = true`) alternates untraced and
//! traced passes. Traced passes attach a [`MemoryRecorder`] and read the
//! spans and counters the program already emits; layers without spans are
//! timed around their public entry points by the workload's `probe`.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use anonet_obs::{Json, MemoryRecorder};

pub mod astar;
pub mod lifts;
pub mod pipeline;
pub mod speed;

/// The workloads, by name.
pub const WORKLOADS: [&str; 3] = ["pipeline_random", "derand_lifts", "astar_lifts"];

/// The seed used when none is given. The held-out seed is in the README.
pub const DEFAULT_SEED: u64 = 1;

/// Set-up runs at least this many times; `setup_s` is the median.
const SETUP_MIN_REPS: usize = 3;

/// ...and repeats, up to [`SETUP_MAX_REPS`], until this much time is spent.
const SETUP_MIN_SECONDS: f64 = 1.0;

/// Cap on set-up repetitions.
const SETUP_MAX_REPS: usize = 50;

/// End-to-end metrics `(name, unit)`, printed by untraced runs.
pub const END_TO_END: [(&str, &str); 5] = [
    ("instances_per_s", "1/s"),
    ("instance_ms_p50", "ms"),
    ("instance_ms_p90", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
];

/// Per-layer metrics `(name, unit)`, printed by traced runs. Times and
/// counts are per traced pass; a layer a workload never enters reads 0.
pub const PER_LAYER: [(&str, &str); 36] = [
    ("runtime.coloring_s", "s"),
    ("runtime.coloring_rounds", "count"),
    ("runtime.bits_drawn", "count"),
    ("views.quotient_s", "s"),
    ("views.order_s", "s"),
    ("views.classes_per_node", "ratio"),
    ("graph.encode_s", "s"),
    ("graph.encode_bytes", "bytes"),
    ("core.derandomize_s", "s"),
    ("core.search_s", "s"),
    ("core.search_attempts", "count"),
    ("cache.hits", "count"),
    ("cache.misses", "count"),
    ("cache.hit_rate", "ratio"),
    ("cache.bytes", "bytes"),
    ("cache.disk_errors", "count"),
    ("store.open_s", "s"),
    ("store.warm_s", "s"),
    ("store.flush_s", "s"),
    ("store.disk_bytes", "bytes"),
    ("store.recovered_records", "count"),
    ("batch.busy_s", "s"),
    ("batch.parallel_efficiency", "ratio"),
    ("astar.run_s", "s"),
    ("astar.update_graph_s", "s"),
    ("astar.update_output_s", "s"),
    ("astar.update_bits_s", "s"),
    ("astar.phases", "count"),
    ("astar.equivalent_rounds", "count"),
    ("astar.pool_hit_rate", "ratio"),
    ("candidates.pool_s", "s"),
    ("obs.trace_overhead", "ratio"),
    ("other_s", "s"),
    ("pass.wall_s", "s"),
    ("host.speed", "ratio"),
    ("run.error_rate", "ratio"),
];

/// How large a workload's inputs are.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    /// The benchmark's sizes.
    Full,
    /// Tiny inputs, for the smoke tests.
    Smoke,
}

/// One run's parameters.
#[derive(Clone, Copy, Debug)]
pub struct Config {
    /// Workload seed: the same seed gives the same inputs.
    pub seed: u64,
    /// Measured time, after set-up and the warm-up pass.
    pub seconds: f64,
    /// Input size.
    pub scale: Scale,
    /// `true` for the traced run (per-layer metrics).
    pub trace: bool,
}

/// Layer metrics of one pass, by [`PER_LAYER`] name.
pub type Layers = BTreeMap<&'static str, f64>;

/// One pass of a workload over all of its instances.
#[derive(Debug, Default)]
pub struct Pass {
    /// Wall time of the pass, not counting speed sampling.
    pub wall: Duration,
    /// Per-instance latency, call to validated output, in milliseconds, in
    /// instance order (infinite where the instance returned no output).
    pub latencies_ms: Vec<f64>,
    /// Instances attempted.
    pub attempted: u64,
    /// Instances that failed, panicked or gave an invalid output.
    pub failed: u64,
    /// Canonical bytes of each instance's result, in instance order; a
    /// failed instance contributes an empty entry.
    pub outputs: Vec<Vec<u8>>,
    /// Layer metrics; filled by traced passes only.
    pub layers: Layers,
    /// Host-speed kernel time sampled right after each instance, in
    /// instance order (not finite where the instance failed). Sampling time
    /// is not part of [`Pass::wall`] or of the latencies.
    pub kernels: Vec<f64>,
}

impl Pass {
    /// The factors that scale each instance's latency to the reference
    /// speed (see [`speed`]).
    fn factors(&self) -> Vec<f64> {
        speed::local_factors(&self.kernels)
    }

    /// The factor that scales the pass's wall time: the instances'
    /// factors, weighted by their latencies.
    fn wall_factor(&self) -> f64 {
        let (mut weighted, mut weight) = (0.0, 0.0);
        for (latency, factor) in self.latencies_ms.iter().zip(self.factors()) {
            if latency.is_finite() {
                weighted += latency * factor;
                weight += latency;
            }
        }
        if weight > 0.0 {
            weighted / weight
        } else {
            1.0
        }
    }
}

/// A workload whose inputs are set up and can be run pass after pass.
pub trait Workload: Sized {
    /// Generates the inputs from `seed`.
    ///
    /// # Errors
    ///
    /// Generator failures.
    fn setup(seed: u64, scale: Scale) -> Result<Self, String>;

    /// Runs every instance once. With a recorder the pass is traced and
    /// fills [`Pass::layers`].
    ///
    /// # Errors
    ///
    /// Failures outside any single instance (the store cannot be opened).
    fn pass(&self, recorder: Option<&Arc<MemoryRecorder>>) -> Result<Pass, String>;

    /// Layer metrics timed around public entry points that have no span,
    /// measured once per traced run outside the timed passes.
    ///
    /// # Errors
    ///
    /// As [`Workload::pass`].
    fn probe(&self) -> Result<Layers, String>;
}

/// A finished run: what the last output line reports.
#[derive(Debug)]
pub struct Report {
    /// Instances attempted across all passes.
    pub attempted: u64,
    /// Instances that failed, panicked, gave an invalid output, or differed
    /// from the warm-up pass.
    pub failed: u64,
    /// `(name, value, unit)` of every printed metric.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// Traced runs: whether every traced pass reproduced the untraced
    /// outputs byte for byte.
    pub traced_matches_untraced: Option<bool>,
}

impl Report {
    /// Failed instances over attempted instances.
    pub fn error_rate(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    /// `true` when every output was valid and reproducible.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.traced_matches_untraced != Some(false)
    }

    /// The value of one metric.
    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metrics.iter().find(|m| m.0 == name).map(|m| m.1)
    }

    /// The result line: `correct`, `attempted`, `failed`, `metrics`.
    pub fn to_json(&self) -> Json {
        let metrics = self.metrics.iter().map(|&(name, value, unit)| {
            (name, Json::obj([("value", Json::Num(value)), ("unit", Json::str(unit))]))
        });
        Json::obj([
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::from(self.attempted)),
            ("failed", Json::from(self.failed)),
            ("metrics", Json::obj(metrics)),
        ])
    }
}

/// Runs `workload` under `cfg`.
///
/// # Errors
///
/// An unknown workload name, or a failure outside any single instance.
pub fn run(workload: &str, cfg: &Config) -> Result<Report, String> {
    match workload {
        "pipeline_random" => measure::<pipeline::PipelineRandom>(cfg),
        "derand_lifts" => measure::<lifts::DerandLifts>(cfg),
        "astar_lifts" => measure::<astar::AstarLifts>(cfg),
        other => Err(format!("unknown workload {other:?}; known: {}", WORKLOADS.join(", "))),
    }
}

/// Running totals of the passes of one run.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
}

impl Tally {
    /// Adds `pass`, counting every instance whose bytes differ from the
    /// warm-up pass `reference` as failed; returns the pass's successes.
    fn add(&mut self, pass: &Pass, reference: &[Vec<u8>]) -> u64 {
        let diverged = pass
            .outputs
            .iter()
            .zip(reference)
            .filter(|(out, want)| !out.is_empty() && out != want)
            .count() as u64
            + reference.len().abs_diff(pass.outputs.len()) as u64;
        let failed = (pass.failed + diverged).min(pass.attempted);
        self.attempted += pass.attempted;
        self.failed += failed;
        pass.attempted - failed
    }
}

fn measure<W: Workload>(cfg: &Config) -> Result<Report, String> {
    let mut setup_times: Vec<f64> = Vec::new();
    let mut workload = None;
    while setup_times.len() < SETUP_MIN_REPS
        || (setup_times.iter().sum::<f64>() < SETUP_MIN_SECONDS
            && setup_times.len() < SETUP_MAX_REPS)
    {
        let start = Instant::now();
        let w = W::setup(cfg.seed, cfg.scale)?;
        setup_times.push(start.elapsed().as_secs_f64() * speed::factor_now());
        workload = Some(std::hint::black_box(w));
    }
    let workload = workload.ok_or("no set-up ran")?;

    let mut tally = Tally::default();
    let warmup = workload.pass(None)?;
    tally.add(&warmup, &warmup.outputs);
    let reference = warmup.outputs;

    // Every time below is scaled to the reference speed (`speed`),
    // and every figure is a median over passes.
    let budget = Duration::from_secs_f64(cfg.seconds.max(0.0));
    let start = Instant::now();
    if !cfg.trace {
        let mut rates = Vec::new();
        let mut latencies: Vec<Vec<f64>> = vec![Vec::new(); reference.len()];
        loop {
            let pass = workload.pass(None)?;
            let ok = tally.add(&pass, &reference);
            rates.push(ok as f64 / (pass.wall.as_secs_f64() * pass.wall_factor()).max(1e-9));
            let factors = pass.factors();
            for ((samples, latency), factor) in
                latencies.iter_mut().zip(&pass.latencies_ms).zip(factors)
            {
                if latency.is_finite() {
                    samples.push(latency * factor);
                }
            }
            if start.elapsed() >= budget {
                break;
            }
        }
        let mut per_instance: Vec<f64> = latencies
            .iter_mut()
            .filter(|samples| !samples.is_empty())
            .map(|samples| percentile(samples, 0.5))
            .collect();
        let metrics = vec![
            ("instances_per_s", percentile(&mut rates, 0.5), "1/s"),
            ("instance_ms_p50", percentile(&mut per_instance, 0.50), "ms"),
            ("instance_ms_p90", percentile(&mut per_instance, 0.90), "ms"),
            ("setup_s", percentile(&mut setup_times, 0.5), "s"),
            ("peak_rss_mib", peak_rss_mib(), "MiB"),
        ];
        return Ok(Report {
            attempted: tally.attempted,
            failed: tally.failed,
            metrics,
            traced_matches_untraced: None,
        });
    }

    // Traced run: alternate untraced and traced passes. Layer metrics are
    // raw means over traced passes; the overhead compares scaled walls.
    let recorder = Arc::new(MemoryRecorder::new());
    let (mut untraced_walls, mut traced_walls, mut raw_walls) =
        (Vec::new(), Vec::new(), Vec::new());
    let mut factors = Vec::new();
    let mut sums = Layers::new();
    let mut traced_matches = true;
    loop {
        let plain = workload.pass(None)?;
        tally.add(&plain, &reference);
        untraced_walls.push(plain.wall.as_secs_f64() * plain.wall_factor());

        recorder.reset();
        let traced = workload.pass(Some(&recorder))?;
        tally.add(&traced, &reference);
        traced_matches &= traced.outputs == plain.outputs;
        traced_walls.push(traced.wall.as_secs_f64() * traced.wall_factor());
        raw_walls.push(traced.wall.as_secs_f64());
        factors.extend([plain.wall_factor(), traced.wall_factor()]);
        for (name, value) in &traced.layers {
            *sums.entry(name).or_default() += value;
        }
        if start.elapsed() >= budget {
            break;
        }
    }
    let traced_passes = traced_walls.len() as f64;
    let mut layers: Layers = sums.into_iter().map(|(k, v)| (k, v / traced_passes)).collect();
    layers.extend(workload.probe()?);
    let overhead = percentile(&mut traced_walls, 0.5) / percentile(&mut untraced_walls, 0.5);
    layers.insert("obs.trace_overhead", overhead);
    layers.insert("pass.wall_s", percentile(&mut raw_walls, 0.5));
    layers.insert("host.speed", percentile(&mut factors, 0.5));
    layers.insert("run.error_rate", tally.failed as f64 / tally.attempted.max(1) as f64);

    let metrics = PER_LAYER
        .iter()
        .map(|&(name, unit)| (name, layers.get(name).copied().unwrap_or(0.0), unit))
        .collect();
    Ok(Report {
        attempted: tally.attempted,
        failed: tally.failed,
        metrics,
        traced_matches_untraced: Some(traced_matches),
    })
}

/// The `q`-quantile of `values` (nearest rank; 0 when empty).
pub fn percentile(values: &mut [f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(f64::total_cmp);
    let rank = ((q * values.len() as f64).ceil() as usize).clamp(1, values.len());
    values[rank - 1]
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Where the run happened and what built it, for the provenance line.
pub fn provenance(workload: &str, cfg: &Config) -> Json {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|rest| rest.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let nproc = std::thread::available_parallelism().map_or(1, usize::from);
    Json::obj([(
        "provenance",
        Json::obj([
            ("workload", Json::str(workload)),
            ("seed", Json::from(cfg.seed)),
            ("seconds", Json::Num(cfg.seconds)),
            ("trace", Json::Bool(cfg.trace)),
            ("nproc", Json::from(nproc)),
            ("cpu", Json::str(cpu)),
            ("rustc", Json::str(env!("PERFBENCH_RUSTC"))),
            ("profile", Json::str(env!("PERFBENCH_PROFILE"))),
            ("commit", Json::str(env!("PERFBENCH_COMMIT"))),
        ]),
    )])
}

/// A fresh, empty scratch directory for one store lifetime, under
/// `.perfbench-tmp/` in the working directory.
///
/// # Errors
///
/// The directory cannot be cleared or created.
pub fn scratch_dir(tag: &str) -> Result<std::path::PathBuf, String> {
    use std::sync::atomic::{AtomicU64, Ordering};
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let dir = std::path::Path::new(".perfbench-tmp").join(format!(
        "{}-{tag}-{}",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ));
    remove_dir(&dir)?;
    std::fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    Ok(dir)
}

/// Removes `dir` and everything under it; a missing directory is fine.
///
/// # Errors
///
/// Any other I/O failure.
pub fn remove_dir(dir: &std::path::Path) -> Result<(), String> {
    match std::fs::remove_dir_all(dir) {
        Err(e) if e.kind() != std::io::ErrorKind::NotFound => {
            Err(format!("removing {}: {e}", dir.display()))
        }
        _ => Ok(()),
    }
}

/// Seconds of a span leaf summed over all its paths.
pub(crate) fn span_s(snap: &anonet_obs::MemorySnapshot, leaf: &str) -> f64 {
    snap.span_total(leaf).total.as_secs_f64()
}

/// Appends the canonical bytes of a derandomized run: outputs, quotient
/// shape, search accounting and the selected tapes.
pub(crate) fn derandomized_bytes(out: &mut Vec<u8>, run: &anonet_core::DerandomizedRun<bool>) {
    out.extend(run.outputs.iter().map(|&b| u8::from(b)));
    for field in [run.quotient_nodes, run.multiplicity, run.simulation_rounds, run.attempts] {
        out.extend_from_slice(&(field as u64).to_le_bytes());
    }
    for tape in run.assignment.tapes() {
        out.extend_from_slice(&(tape.len() as u64).to_le_bytes());
        out.extend(tape.iter().map(u8::from));
    }
}
