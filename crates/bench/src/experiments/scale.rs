//! E21 — the million-node core measured: arena-backed view encoding
//! against the recursive [`ViewTree`] reference, the incremental
//! [`RefinementEngine`] against the retained from-scratch [`Refinement`],
//! and the node-order-commit parallel drivers at 1/2/8 threads — on
//! deterministic pseudo-randomly colored cycles from 10³ to 10⁶ nodes.
//!
//! The workload is a *beacon cycle*: every 40th node carries a beacon
//! label, the rest are blank. Refinement separates nodes by their offset
//! profile relative to the beacons, so stabilization takes ~`PERIOD / 2`
//! rounds while the stable partition never exceeds `PERIOD` classes —
//! independent of `n`. A from-scratch recomputation therefore pays the
//! full `rounds × n` cost on every relabeling, while the incremental
//! engine re-refines only the classes an update actually splits and
//! renumbers on the 40-class quotient: the regime it is built for. (A
//! *discrete* stable partition is the engine's worst case — renumbering
//! degenerates to a full trajectory replay — which is why the bounded
//! quotient matters here, not just asymptotics.) Each mutation phase
//! monotonically refines one beacon offset (all `n/40` nodes at that
//! offset get a fresh tag), mirroring a coloring stage handing refined
//! colors to the pipeline.
//!
//! Three gates, asserted by the `scale` CI job from `BENCH_scale.json`:
//!
//! * `byte_identical` — encodings and stable partitions at 1, 2, and 8
//!   threads are bit-for-bit equal (digests compared), and the arena
//!   byte-matches the recursive reference on sampled nodes.
//! * `incremental_matches` — the engine's canonical ids equal the
//!   from-scratch ids after every mutation phase.
//! * `speedup_ok` — incremental updates are ≥ 5× faster than retained
//!   from-scratch recomputation at the 10⁵ tier.
//!
//! Memory curves use retained bytes as the peak-RSS proxy (the
//! structures' own accounting; no platform RSS probing): full-history
//! [`Refinement`] vs the two-round [`BoundedRefinement`] vs the engine.
//!
//! `ANONET_SCALE_MAX_N` caps the size sweep (CI runs 10⁵; the 10⁶ tier is
//! the nightly default).

use std::time::{Duration, Instant};

use anonet_batch::{parallel_canonical_encodings, parallel_stable_partition, BatchScheduler};
use anonet_graph::{generators, Graph, LabeledGraph, NodeId};
use anonet_views::{
    canonical_view_encoding, BoundedRefinement, Refinement, RefinementEngine, ViewMode, ViewTree,
};

use crate::experiments::{common::tick, ExpResult};
use crate::table::{secs, Json};
use crate::Table;

/// Thread counts the parallel encoding/refinement sweep runs at.
pub const THREAD_SWEEP: &[usize] = &[1, 2, 8];

/// Depth of the sampled arena-vs-recursive encoding comparison.
const SAMPLE_DEPTH: usize = 3;
/// Depth of the all-nodes parallel encoding sweep (kept shallow so the
/// 10⁶ tier stays tractable).
const SWEEP_DEPTH: usize = 2;
/// Nodes sampled for the arena-vs-recursive comparison.
const SAMPLE_CAP: usize = 256;
/// Monotone relabeling phases per size.
const MUTATION_PHASES: usize = 6;
/// Beacon spacing; must divide every size tier so the coloring is
/// perfectly periodic (an uneven wrap seam would act as a unique defect
/// and blow the stable partition up to Θ(n) classes).
const PERIOD: usize = 40;

/// The default size sweep; `ANONET_SCALE_MAX_N` truncates it.
pub fn sizes() -> Vec<usize> {
    let cap = std::env::var("ANONET_SCALE_MAX_N")
        .ok()
        .and_then(|s| s.parse::<usize>().ok())
        .unwrap_or(1_000_000);
    [1_000usize, 10_000, 100_000, 1_000_000].into_iter().filter(|&n| n <= cap).collect()
}

/// The size-`n` workload: a cycle with a beacon label every [`PERIOD`]
/// nodes, `(beacon?, tag 0)` labels. `n` must be a multiple of the
/// period.
fn workload(n: usize) -> ExpResult<(Graph, Vec<(u32, u32)>)> {
    if n == 0 || !n.is_multiple_of(PERIOD) {
        return Err(
            format!("scale workload size {n} is not a positive multiple of {PERIOD}").into()
        );
    }
    let graph = generators::cycle(n)?;
    let labels: Vec<(u32, u32)> = (0..n).map(|i| (u32::from(i % PERIOD == 0), 0)).collect();
    Ok((graph, labels))
}

/// Applies phase `phase` (1-based): every node at beacon offset `phase`
/// gets that phase's fresh tag — a strict refinement of the previous
/// labeling (offsets `1..=phase` never re-merge), so the engine's
/// monotone fast path is what gets measured.
fn mutate(labels: &mut [(u32, u32)], phase: usize) {
    for (i, l) in labels.iter_mut().enumerate() {
        if i % PERIOD == phase {
            l.1 = phase as u32;
        }
    }
}

/// FNV-1a over a sequence of byte strings (length-prefixed, so the digest
/// commits to the per-node framing, not just the concatenation).
fn digest(encodings: &[Vec<u8>]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |b: u8| {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    };
    for e in encodings {
        for b in (e.len() as u64).to_be_bytes() {
            eat(b);
        }
        for &b in e {
            eat(b);
        }
    }
    h
}

/// One size tier, fully measured.
#[derive(Clone, Debug)]
pub struct ScaleRow {
    /// Node count.
    pub n: usize,
    /// Nodes in the arena-vs-recursive sample.
    pub sampled: usize,
    /// Arena time for the sampled depth-3 encodings.
    pub arena_encode: Duration,
    /// Recursive [`ViewTree`] time for the same sample.
    pub recursive_encode: Duration,
    /// Initial [`RefinementEngine::new`] (one full refinement).
    pub engine_build: Duration,
    /// Σ engine updates over the mutation phases.
    pub incremental_total: Duration,
    /// Σ retained from-scratch [`Refinement::compute`] over the phases.
    pub fromscratch_total: Duration,
    /// Σ [`BoundedRefinement::compute`] (the flat round kernel) over the
    /// same phases.
    pub bounded_total: Duration,
    /// Refinement rounds the from-scratch path executed, all phases.
    pub rounds_total: usize,
    /// Stabilization depth after the final phase.
    pub stabilization_depth: usize,
    /// Stable classes after the final phase.
    pub class_count: usize,
    /// Engine retained bytes / node (peak-RSS proxy).
    pub engine_bytes_per_node: f64,
    /// Full-history retained bytes / node.
    pub full_bytes_per_node: f64,
    /// Bounded (two-round) retained bytes / node.
    pub bounded_bytes_per_node: f64,
    /// `(threads, wall)` of the all-nodes parallel encoding sweep.
    pub threaded_encode: Vec<(usize, Duration)>,
    /// Digest of the all-nodes encodings (equal at every thread count).
    pub encoding_digest: u64,
    /// Encodings and partitions identical at 1/2/8 threads, and the
    /// arena byte-matched the recursive reference on the sample.
    pub byte_identical: bool,
    /// Engine ids equaled from-scratch ids after every phase.
    pub incremental_matches: bool,
    /// Flat-kernel classes and depth equaled from-scratch after every
    /// phase.
    pub bounded_matches: bool,
}

impl ScaleRow {
    /// From-scratch time / incremental time over the mutation phases.
    pub fn refine_speedup(&self) -> f64 {
        self.fromscratch_total.as_secs_f64()
            / self.incremental_total.as_secs_f64().max(f64::EPSILON)
    }

    /// Refinement rounds per second sustained by the from-scratch path.
    pub fn rounds_per_sec(&self) -> f64 {
        self.rounds_total as f64 / self.fromscratch_total.as_secs_f64().max(f64::EPSILON)
    }
}

/// The whole E21 measurement.
#[derive(Clone, Debug)]
pub struct ScaleMeasurement {
    /// One row per size tier, ascending.
    pub rows: Vec<ScaleRow>,
}

impl ScaleMeasurement {
    /// Every tier's identity gate held.
    pub fn byte_identical(&self) -> bool {
        self.rows.iter().all(|r| r.byte_identical)
    }

    /// Every tier's incremental ≡ from-scratch gate held.
    pub fn incremental_matches(&self) -> bool {
        self.rows.iter().all(|r| r.incremental_matches)
    }

    /// Every tier's flat kernel ≡ from-scratch gate held.
    pub fn bounded_matches(&self) -> bool {
        self.rows.iter().all(|r| r.bounded_matches)
    }

    /// The gating tier: 10⁵ when present (the acceptance criterion),
    /// otherwise the largest measured.
    pub fn gate_row(&self) -> Option<&ScaleRow> {
        self.rows.iter().find(|r| r.n == 100_000).or_else(|| self.rows.last())
    }

    /// ≥ 5× incremental speedup at the gating tier.
    pub fn speedup_ok(&self) -> bool {
        self.gate_row().is_some_and(|r| r.refine_speedup() >= 5.0)
    }
}

/// Measures one size tier.
fn measure_size(n: usize) -> ExpResult<ScaleRow> {
    let (graph, mut labels) = workload(n)?;
    let g = LabeledGraph::new(graph.clone(), labels.clone())?;

    // Arena vs recursive reference on a deterministic node sample.
    let sampled = n.min(SAMPLE_CAP);
    let stride = (n / sampled).max(1);
    let sample: Vec<NodeId> = (0..sampled).map(|k| NodeId::new((k * stride) % n)).collect();
    let mut byte_identical = true;

    let t0 = Instant::now();
    let recursive: Vec<Vec<u8>> = sample
        .iter()
        .map(|&v| Ok(ViewTree::build(&g, v, SAMPLE_DEPTH)?.canonical_encoding()))
        .collect::<ExpResult<_>>()?;
    let recursive_encode = t0.elapsed();

    let t0 = Instant::now();
    let arena: Vec<Vec<u8>> = sample
        .iter()
        .map(|&v| Ok(canonical_view_encoding(&g, v, SAMPLE_DEPTH)?))
        .collect::<ExpResult<_>>()?;
    let arena_encode = t0.elapsed();
    byte_identical &= arena == recursive;

    // Incremental engine vs retained from-scratch over monotone phases.
    let t0 = Instant::now();
    let mut engine = RefinementEngine::new(&g, ViewMode::Portless);
    let engine_build = t0.elapsed();

    let mut incremental_total = Duration::ZERO;
    let mut fromscratch_total = Duration::ZERO;
    let mut bounded_total = Duration::ZERO;
    let mut rounds_total = 0usize;
    let mut incremental_matches = true;
    let mut bounded_matches = true;
    let mut full_bytes = 0usize;
    for phase in 1..=MUTATION_PHASES {
        mutate(&mut labels, phase);
        let g2 = LabeledGraph::new(graph.clone(), labels.clone())?;

        let t0 = Instant::now();
        engine.update(&g2);
        incremental_total += t0.elapsed();

        let t0 = Instant::now();
        let reference = Refinement::compute(&g2, ViewMode::Portless);
        fromscratch_total += t0.elapsed();
        // `depth + 1` key-construction passes ran: one per refining
        // round plus the pass that certified stability.
        rounds_total += reference.stabilization_depth() + 1;
        full_bytes = reference.retained_bytes();

        incremental_matches &= engine.classes() == reference.classes()
            && engine.stabilization_depth() == reference.stabilization_depth();

        let t0 = Instant::now();
        let bounded = BoundedRefinement::compute(&g2, ViewMode::Portless);
        bounded_total += t0.elapsed();
        bounded_matches &= bounded.classes() == reference.classes()
            && bounded.stabilization_depth() == reference.stabilization_depth();
    }
    let g_final = LabeledGraph::new(graph.clone(), labels.clone())?;
    let bounded = BoundedRefinement::compute(&g_final, ViewMode::Portless);
    let stabilization_depth = bounded.stabilization_depth();
    let class_count = bounded.class_count();

    // Parallel sweeps: digests must agree at every thread count, and the
    // stable partition from the parallel driver must equal the bounded
    // reference.
    let mut threaded_encode = Vec::new();
    let mut encoding_digest = 0u64;
    for (i, &threads) in THREAD_SWEEP.iter().enumerate() {
        let sched = BatchScheduler::with_threads(threads);
        let t0 = Instant::now();
        let encs = parallel_canonical_encodings(&sched, &g_final, SWEEP_DEPTH)?;
        threaded_encode.push((threads, t0.elapsed()));
        let d = digest(&encs);
        drop(encs);
        if i == 0 {
            encoding_digest = d;
        } else {
            byte_identical &= d == encoding_digest;
        }
        let (classes, depth) = parallel_stable_partition(&sched, &g_final, ViewMode::Portless);
        byte_identical &= classes == bounded.classes() && depth == stabilization_depth;
    }

    Ok(ScaleRow {
        n,
        sampled,
        arena_encode,
        recursive_encode,
        engine_build,
        incremental_total,
        fromscratch_total,
        bounded_total,
        rounds_total,
        stabilization_depth,
        class_count,
        engine_bytes_per_node: engine.retained_bytes() as f64 / n as f64,
        full_bytes_per_node: full_bytes as f64 / n as f64,
        bounded_bytes_per_node: bounded.retained_bytes() as f64 / n as f64,
        threaded_encode,
        encoding_digest,
        byte_identical,
        incremental_matches,
        bounded_matches,
    })
}

/// Measures the given size tiers (ascending order recommended).
///
/// # Errors
///
/// Propagates workload construction and view errors — all regressions on
/// this workload.
pub fn measure_sizes(tiers: &[usize]) -> ExpResult<ScaleMeasurement> {
    let rows = tiers.iter().map(|&n| measure_size(n)).collect::<ExpResult<_>>()?;
    Ok(ScaleMeasurement { rows })
}

/// Measures the default (env-capped) sweep.
///
/// # Errors
///
/// As [`measure_sizes`].
pub fn measure() -> ExpResult<ScaleMeasurement> {
    measure_sizes(&sizes())
}

fn round3(x: f64) -> f64 {
    (x * 1e3).round() / 1e3
}

/// Builds `BENCH_scale.json` through the shared serializer.
pub fn to_json(m: &ScaleMeasurement) -> String {
    let tiers = m.rows.iter().map(|r| {
        let threaded = Json::obj(
            r.threaded_encode.iter().map(|&(t, d)| (format!("threads_{t}_secs"), secs(d))),
        );
        Json::obj([
            ("n", Json::from(r.n)),
            ("sampled", Json::from(r.sampled)),
            ("arena_encode_secs", secs(r.arena_encode)),
            ("recursive_encode_secs", secs(r.recursive_encode)),
            ("engine_build_secs", secs(r.engine_build)),
            ("incremental_secs", secs(r.incremental_total)),
            ("fromscratch_secs", secs(r.fromscratch_total)),
            ("bounded_secs", secs(r.bounded_total)),
            ("refine_speedup", Json::Num(round3(r.refine_speedup()))),
            ("rounds_total", Json::from(r.rounds_total)),
            ("rounds_per_sec", Json::Num(round3(r.rounds_per_sec()))),
            ("stabilization_depth", Json::from(r.stabilization_depth)),
            ("class_count", Json::from(r.class_count)),
            ("engine_bytes_per_node", Json::Num(round3(r.engine_bytes_per_node))),
            ("full_bytes_per_node", Json::Num(round3(r.full_bytes_per_node))),
            ("bounded_bytes_per_node", Json::Num(round3(r.bounded_bytes_per_node))),
            ("threaded", threaded),
            ("encoding_digest", Json::str(format!("{:016x}", r.encoding_digest))),
            ("byte_identical", Json::from(r.byte_identical)),
            ("incremental_matches", Json::from(r.incremental_matches)),
            ("bounded_matches", Json::from(r.bounded_matches)),
        ])
    });
    Json::obj([
        ("experiment", Json::str("scale")),
        ("byte_identical", Json::from(m.byte_identical())),
        ("incremental_matches", Json::from(m.incremental_matches())),
        ("bounded_matches", Json::from(m.bounded_matches())),
        ("speedup_ok", Json::from(m.speedup_ok())),
        ("gate_speedup", Json::Num(round3(m.gate_row().map_or(0.0, ScaleRow::refine_speedup)))),
        ("tiers", Json::arr(tiers)),
    ])
    .pretty()
}

/// Renders the E21 report and writes `BENCH_scale.json` to the working
/// directory.
///
/// # Errors
///
/// Propagates measurement errors; artifact I/O failing is an error too.
pub fn report() -> ExpResult<String> {
    let m = measure()?;

    let mut table = Table::new(
        "E21 / million-node core — arena encoding, incremental refinement, and the \
         1/2/8-thread sweep on beacon cycles (period 40)",
        &[
            "n",
            "arena",
            "recursive",
            "incr (6ph)",
            "scratch (6ph)",
            "flat (6ph)",
            "speedup",
            "rounds/s",
            "B/node eng",
            "B/node full",
            "identical",
        ],
    );
    for r in &m.rows {
        table.row(vec![
            r.n.to_string(),
            format!("{:.2?}", r.arena_encode),
            format!("{:.2?}", r.recursive_encode),
            format!("{:.2?}", r.incremental_total),
            format!("{:.2?}", r.fromscratch_total),
            format!("{:.2?}", r.bounded_total),
            format!("{:.1}x", r.refine_speedup()),
            format!("{:.0}", r.rounds_per_sec()),
            format!("{:.1}", r.engine_bytes_per_node),
            format!("{:.1}", r.full_bytes_per_node),
            tick(r.byte_identical && r.incremental_matches && r.bounded_matches),
        ]);
    }

    let json = to_json(&m);
    std::fs::write("BENCH_scale.json", &json)?;

    let gate = m.gate_row().map_or(0.0, ScaleRow::refine_speedup);
    Ok(format!(
        "{table}\n\
         incremental speedup at the gating tier: {gate:.1}x (gate ≥ 5x: {fast_ok})\n\
         byte-identical encodings and partitions at 1/2/8 threads: {ident_ok}\n\
         incremental ≡ from-scratch after every phase: {incr_ok}\n\
         flat kernel ≡ from-scratch after every phase: {bounded_ok}\n\
         wrote BENCH_scale.json\n",
        fast_ok = tick(m.speedup_ok()),
        ident_ok = tick(m.byte_identical()),
        incr_ok = tick(m.incremental_matches()),
        bounded_ok = tick(m.bounded_matches()),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_tiers_pass_every_identity_gate() {
        let m = measure_sizes(&[80, 320]).unwrap();
        assert_eq!(m.rows.len(), 2);
        assert!(m.byte_identical(), "thread sweep or arena diverged");
        assert!(m.incremental_matches(), "engine diverged from from-scratch");
        assert!(m.bounded_matches(), "flat kernel diverged from from-scratch");
        for r in &m.rows {
            assert!(r.rounds_total >= MUTATION_PHASES, "each phase runs at least one pass");
            assert!(r.class_count >= PERIOD / 2, "the beacon offset structure must survive");
            assert!(r.engine_bytes_per_node > 0.0);
            // The whole point of the bounded mode: it retains less than
            // the full history on a multi-round workload.
            assert!(r.bounded_bytes_per_node <= r.full_bytes_per_node);
        }
    }

    #[test]
    fn mutations_are_monotone_for_the_engine() {
        // The engine must report zero rebuilds after the build: every
        // phase is a strict refinement on unchanged topology.
        let (graph, mut labels) = workload(200).unwrap();
        let g = LabeledGraph::new(graph.clone(), labels.clone()).unwrap();
        let mut engine = RefinementEngine::new(&g, ViewMode::Portless);
        for phase in 1..=MUTATION_PHASES {
            mutate(&mut labels, phase);
            let g2 = LabeledGraph::new(graph.clone(), labels.clone()).unwrap();
            engine.update(&g2);
        }
        assert_eq!(engine.stats().rebuilds, 1, "only the initial build");
        assert_eq!(engine.stats().incremental_updates, MUTATION_PHASES as u64);
    }

    #[test]
    fn json_parses_and_carries_the_schema() {
        let m = measure_sizes(&[80]).unwrap();
        let json = to_json(&m);
        let v = Json::parse(&json).unwrap();
        assert_eq!(v.get("experiment").unwrap().as_str(), Some("scale"));
        assert_eq!(v.get("byte_identical").unwrap().as_bool(), Some(true));
        assert_eq!(v.get("incremental_matches").unwrap().as_bool(), Some(true));
        let tiers = v.get("tiers").unwrap().items().unwrap();
        assert_eq!(tiers.len(), 1);
        let t = &tiers[0];
        assert_eq!(t.get("n").unwrap().as_f64(), Some(80.0));
        assert_eq!(t.get("encoding_digest").unwrap().as_str().unwrap().len(), 16);
        assert!(t.get("threaded").unwrap().get("threads_8_secs").unwrap().as_f64().is_some());
    }

    #[test]
    fn size_sweep_respects_the_env_cap() {
        // Read-only check of the parsing contract on the default.
        let tiers = sizes();
        assert!(!tiers.is_empty());
        assert!(tiers.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn digest_commits_to_framing() {
        let a = vec![vec![1u8, 2], vec![3u8]];
        let b = vec![vec![1u8], vec![2u8, 3]];
        assert_ne!(digest(&a), digest(&b));
    }
}
