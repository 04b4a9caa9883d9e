//! E21 — the million-node core checked: layered view ids against the
//! [`ViewTree`] reference, and the flat [`BoundedRefinement`] kernel
//! against the retained full-history [`Refinement`] — on deterministic
//! beacon-labeled cycles from 10³ to 10⁶ nodes.
//!
//! The workload is a *beacon cycle*: every 40th node carries a beacon
//! label, the rest are blank. Refinement separates nodes by their offset
//! profile relative to the beacons, so stabilization takes ~`PERIOD / 2`
//! rounds while the stable partition never exceeds `PERIOD` classes —
//! independent of `n` — and every recomputation pays the full
//! `rounds × n` cost. Each mutation phase monotonically refines one
//! beacon offset (all `n/40` nodes at that offset get a fresh tag),
//! mirroring a coloring stage handing refined colors to the pipeline,
//! and both engines recompute from scratch.
//!
//! Two gates, asserted by the `scale` CI job from `BENCH_scale.json`,
//! which also pins every tier's `encoding_digest` (the all-node depth-2
//! [`ViewTree`] encodings), `stabilization_depth`, `class_count` and
//! `rounds_total` to the committed file:
//!
//! * `view_ids_match` — on sampled nodes,
//!   [`ViewIds`](anonet_views::ViewIds) gives two nodes equal depth-3 ids
//!   iff their [`ViewTree`] encodings are equal.
//! * `bounded_matches` — the flat kernel's classes and depth equal the
//!   full-history reference after every mutation phase.
//!
//! Memory curves use retained bytes as the peak-RSS proxy (the
//! structures' own accounting; no platform RSS probing): full-history
//! [`Refinement`] vs the two-round [`BoundedRefinement`].
//!
//! `ANONET_SCALE_MAX_N` caps the size sweep (CI runs 10⁵; the 10⁶ tier is
//! the nightly default).

use std::time::{Duration, Instant};

use anonet_graph::{generators, Graph, LabeledGraph, NodeId};
use anonet_testkit::check_view_ids;
use anonet_views::{BoundedRefinement, Refinement, ViewMode, ViewTree};

use crate::experiments::{common::tick, ExpResult};
use crate::table::{secs, Json};
use crate::Table;

/// Depth of the sampled view-id partition check.
const SAMPLE_DEPTH: usize = 3;
/// Depth of the all-nodes encoding sweep (kept shallow so the 10⁶ tier
/// stays tractable).
const SWEEP_DEPTH: usize = 2;
/// Nodes sampled for the view-id partition check.
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
/// labeling (offsets `1..=phase` never re-merge).
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
    /// Nodes in the view-id sample.
    pub sampled: usize,
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
    /// Full-history retained bytes / node.
    pub full_bytes_per_node: f64,
    /// Bounded (two-round) retained bytes / node.
    pub bounded_bytes_per_node: f64,
    /// Digest of the all-nodes encodings, in node order.
    pub encoding_digest: u64,
    /// Layered view ids partitioned the sample as [`ViewTree`] bytes do.
    pub view_ids_match: bool,
    /// Flat-kernel classes and depth equaled from-scratch after every
    /// phase.
    pub bounded_matches: bool,
}

impl ScaleRow {
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
    /// Every tier's view-id gate held.
    pub fn view_ids_match(&self) -> bool {
        self.rows.iter().all(|r| r.view_ids_match)
    }

    /// Every tier's flat kernel ≡ from-scratch gate held.
    pub fn bounded_matches(&self) -> bool {
        self.rows.iter().all(|r| r.bounded_matches)
    }
}

/// Measures one size tier.
fn measure_size(n: usize) -> ExpResult<ScaleRow> {
    let (graph, mut labels) = workload(n)?;
    let g = LabeledGraph::new(graph.clone(), labels.clone())?;

    // Layered view ids vs `ViewTree` bytes on a deterministic node sample.
    let sampled = n.min(SAMPLE_CAP);
    let stride = (n / sampled).max(1);
    let sample = (0..sampled).map(|k| NodeId::new((k * stride) % n));
    let view_ids_match = check_view_ids(&g, SAMPLE_DEPTH, sample).is_ok();

    // Flat kernel vs retained full history over monotone phases.
    let mut fromscratch_total = Duration::ZERO;
    let mut bounded_total = Duration::ZERO;
    let mut rounds_total = 0usize;
    let mut bounded_matches = true;
    let mut full_bytes = 0usize;
    for phase in 1..=MUTATION_PHASES {
        mutate(&mut labels, phase);
        let g2 = LabeledGraph::new(graph.clone(), labels.clone())?;

        let t0 = Instant::now();
        let reference = Refinement::compute(&g2, ViewMode::Portless);
        fromscratch_total += t0.elapsed();
        // `depth + 1` key-construction passes ran: one per refining
        // round plus the pass that certified stability.
        rounds_total += reference.stabilization_depth() + 1;
        full_bytes = reference.retained_bytes();

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

    let encs: Vec<Vec<u8>> = g_final
        .graph()
        .nodes()
        .map(|v| Ok(ViewTree::build(&g_final, v, SWEEP_DEPTH)?.canonical_encoding()))
        .collect::<anonet_views::Result<_>>()?;
    let encoding_digest = digest(&encs);

    Ok(ScaleRow {
        n,
        sampled,
        fromscratch_total,
        bounded_total,
        rounds_total,
        stabilization_depth,
        class_count,
        full_bytes_per_node: full_bytes as f64 / n as f64,
        bounded_bytes_per_node: bounded.retained_bytes() as f64 / n as f64,
        encoding_digest,
        view_ids_match,
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
        Json::obj([
            ("n", Json::from(r.n)),
            ("sampled", Json::from(r.sampled)),
            ("fromscratch_secs", secs(r.fromscratch_total)),
            ("bounded_secs", secs(r.bounded_total)),
            ("rounds_total", Json::from(r.rounds_total)),
            ("rounds_per_sec", Json::Num(round3(r.rounds_per_sec()))),
            ("stabilization_depth", Json::from(r.stabilization_depth)),
            ("class_count", Json::from(r.class_count)),
            ("full_bytes_per_node", Json::Num(round3(r.full_bytes_per_node))),
            ("bounded_bytes_per_node", Json::Num(round3(r.bounded_bytes_per_node))),
            ("encoding_digest", Json::str(format!("{:016x}", r.encoding_digest))),
            ("view_ids_match", Json::from(r.view_ids_match)),
            ("bounded_matches", Json::from(r.bounded_matches)),
        ])
    });
    Json::obj([
        ("experiment", Json::str("scale")),
        ("view_ids_match", Json::from(m.view_ids_match())),
        ("bounded_matches", Json::from(m.bounded_matches())),
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
        "E21 / million-node core — layered view ids and the flat refinement kernel \
         on beacon cycles (period 40)",
        &[
            "n",
            "scratch (6ph)",
            "flat (6ph)",
            "rounds/s",
            "B/node full",
            "B/node flat",
            "identical",
        ],
    );
    for r in &m.rows {
        table.row(vec![
            r.n.to_string(),
            format!("{:.2?}", r.fromscratch_total),
            format!("{:.2?}", r.bounded_total),
            format!("{:.0}", r.rounds_per_sec()),
            format!("{:.1}", r.full_bytes_per_node),
            format!("{:.1}", r.bounded_bytes_per_node),
            tick(r.view_ids_match && r.bounded_matches),
        ]);
    }

    let json = to_json(&m);
    std::fs::write("BENCH_scale.json", &json)?;

    Ok(format!(
        "{table}\n\
         view ids ≡ ViewTree encodings on the sample: {ident_ok}\n\
         flat kernel ≡ from-scratch after every phase: {bounded_ok}\n\
         wrote BENCH_scale.json\n",
        ident_ok = tick(m.view_ids_match()),
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
        assert!(m.view_ids_match(), "view ids diverged from ViewTree encodings");
        assert!(m.bounded_matches(), "flat kernel diverged from from-scratch");
        for r in &m.rows {
            assert!(r.rounds_total >= MUTATION_PHASES, "each phase runs at least one pass");
            assert!(r.class_count >= PERIOD / 2, "the beacon offset structure must survive");
            // The whole point of the bounded mode: it retains less than
            // the full history on a multi-round workload.
            assert!(r.bounded_bytes_per_node <= r.full_bytes_per_node);
        }
    }

    #[test]
    fn json_parses_and_carries_the_schema() {
        let m = measure_sizes(&[80]).unwrap();
        let json = to_json(&m);
        let v = Json::parse(&json).unwrap();
        assert_eq!(v.get("experiment").unwrap().as_str(), Some("scale"));
        assert_eq!(v.get("view_ids_match").unwrap().as_bool(), Some(true));
        assert_eq!(v.get("bounded_matches").unwrap().as_bool(), Some(true));
        let tiers = v.get("tiers").unwrap().items().unwrap();
        assert_eq!(tiers.len(), 1);
        let t = &tiers[0];
        assert_eq!(t.get("n").unwrap().as_f64(), Some(80.0));
        assert_eq!(t.get("encoding_digest").unwrap().as_str().unwrap().len(), 16);
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
