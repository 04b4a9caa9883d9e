//! E16 — the observability layer checked: per-family stage-1 engine
//! metrics bridged through `anonet-obs`, per-round message and bit
//! curves across graph families, the merged metric histograms, and one
//! representative run streamed as JSONL.
//!
//! [`report`] writes two artifacts: `BENCH_obs.json` (via the shared
//! [`Json`] serializer, like E15), a pure function of the code, and
//! `BENCH_obs_trace.jsonl`, one streamed JSON line per metric event of a
//! representative run (its timestamps vary; its line count does not).
//! What observing costs is a unit-test bound here (the no-op recorder
//! stays within 1.25x of the un-instrumented pipeline) and `perfbench`'s
//! `obs.trace_overhead`, not a field of the report.

use std::collections::BTreeMap;
use std::sync::Arc;

use anonet_algorithms::mis::RandomizedMis;
use anonet_algorithms::two_hop_coloring::TwoHopColoring;
use anonet_core::pipeline::run_pipeline_observed;
use anonet_core::SearchStrategy;
use anonet_graph::generators;
use anonet_obs::{names, Histogram, JsonlRecorder, MemoryRecorder, MemorySnapshot, SharedRecorder};
use anonet_runtime::{run, ExecConfig, Oblivious, RngSource};

use crate::experiments::{common::tick, ExpResult, Family};
use crate::table::Json;
use crate::Table;

/// Seed shared by every run of the experiment (the curves are
/// deterministic given it).
pub const SEED: u64 = 7;

/// The families profiled (a subset of [`Family::standard`] — the issue
/// floor is three; we run four shapes: cycle, path, torus, Petersen).
pub const FAMILY_NAMES: &[&str] = &["cycle-12", "path-12", "torus-3x4", "petersen"];

/// One profiled family: bridged engine metrics plus per-round curves.
#[derive(Clone, Debug)]
pub struct ObsRow {
    /// Family name.
    pub family: String,
    /// Nodes.
    pub n: usize,
    /// Rounds of the randomized coloring stage.
    pub rounds: u64,
    /// Messages delivered in stage 1.
    pub messages: u64,
    /// Message payload bytes delivered in stage 1.
    pub message_bytes: u64,
    /// Random bits drawn (all of them in stage 1).
    pub bits_drawn: u64,
    /// Quotient size seen by the deterministic stage.
    pub quotient: usize,
    /// View-refinement stabilization depth.
    pub view_depth: u64,
    /// Messages delivered in each round of stage 1.
    pub messages_per_round: Vec<usize>,
    /// Active nodes per round of stage 1 — each draws one bit per round,
    /// so this *is* the bits-drawn curve.
    pub bits_per_round: Vec<usize>,
    /// The full recorder snapshot of the observed pipeline run.
    pub snapshot: MemorySnapshot,
}

fn families() -> Vec<Family> {
    Family::standard(SEED).into_iter().filter(|f| FAMILY_NAMES.contains(&f.name)).collect()
}

/// Profiles the pipeline on every family.
///
/// # Errors
///
/// Propagates pipeline errors — any failure is a regression.
pub fn measure() -> ExpResult<Vec<ObsRow>> {
    let alg = RandomizedMis::new();
    let config = ExecConfig::default();
    let strategy = SearchStrategy::default();

    // Per-family observed pipeline runs + standalone stage-1 curves.
    let mut rows = Vec::new();
    for family in families() {
        let net = family.graph.with_uniform_label(());
        let rec = Arc::new(MemoryRecorder::new());
        let shared: SharedRecorder = rec.clone();
        let pipe = run_pipeline_observed(&alg, &net, SEED, strategy, &config, None, &shared)?;
        let snapshot = rec.snapshot();

        // The curves come from re-running stage 1 alone with the same
        // seed — deterministic, so the totals match the bridged counters
        // (the test pins this down).
        let stage1 =
            run(&Oblivious(TwoHopColoring::new()), &net, &mut RngSource::seeded(SEED), &config)?;

        rows.push(ObsRow {
            family: family.name.to_string(),
            n: net.node_count(),
            rounds: snapshot.counter(names::ENGINE_ROUNDS),
            messages: snapshot.counter(names::ENGINE_MESSAGES),
            message_bytes: snapshot.counter(names::ENGINE_MESSAGE_BYTES),
            bits_drawn: snapshot.counter(names::ENGINE_BITS_DRAWN),
            quotient: pipe.deterministic.quotient_nodes,
            view_depth: snapshot
                .histogram(names::DERAND_VIEW_DEPTH)
                .and_then(|h| h.max())
                .unwrap_or(0),
            messages_per_round: stage1.messages_per_round().to_vec(),
            bits_per_round: stage1.active_per_round().to_vec(),
            snapshot,
        });
    }

    Ok(rows)
}

/// Streams one representative observed run (Petersen) through `rec` and
/// returns the run's output count, so callers can point the JSONL stream
/// at a file or a buffer.
///
/// # Errors
///
/// Propagates pipeline errors.
pub fn trace_representative(rec: &SharedRecorder) -> ExpResult<usize> {
    let net = generators::petersen().with_uniform_label(());
    let pipe = run_pipeline_observed(
        &RandomizedMis::new(),
        &net,
        SEED,
        SearchStrategy::default(),
        &ExecConfig::default(),
        None,
        rec,
    )?;
    Ok(pipe.outputs.len())
}

/// Histograms merged across the per-family snapshots — the quantile
/// surfacing both the JSON artifact and the report table draw from.
pub fn merged_histograms(rows: &[ObsRow]) -> BTreeMap<String, Histogram> {
    let mut merged: BTreeMap<String, Histogram> = BTreeMap::new();
    for r in rows {
        for (name, h) in r.snapshot.histograms() {
            merged.entry(name.to_string()).or_default().merge(h);
        }
    }
    merged
}

/// Builds `BENCH_obs.json` through the shared serializer.
pub fn to_json(rows: &[ObsRow], trace_lines: usize) -> String {
    let families = rows.iter().map(|r| {
        Json::obj([
            ("name", Json::str(&r.family)),
            ("n", Json::from(r.n)),
            ("rounds", Json::from(r.rounds)),
            ("messages", Json::from(r.messages)),
            ("message_bytes", Json::from(r.message_bytes)),
            ("bits_drawn", Json::from(r.bits_drawn)),
            ("quotient_nodes", Json::from(r.quotient)),
            ("view_depth", Json::from(r.view_depth)),
            ("messages_per_round", Json::arr(r.messages_per_round.iter().map(|&v| Json::from(v)))),
            ("bits_per_round", Json::arr(r.bits_per_round.iter().map(|&v| Json::from(v)))),
        ])
    });
    let histograms = Json::obj(merged_histograms(rows).into_iter().map(|(name, h)| {
        let (p50, p90, p99) = h.quantiles().unwrap_or((0, 0, 0));
        (
            name,
            Json::obj([
                ("count", Json::from(h.count())),
                ("p50", Json::from(p50)),
                ("p90", Json::from(p90)),
                ("p99", Json::from(p99)),
                ("max", Json::from(h.max().unwrap_or(0))),
            ]),
        )
    }));
    Json::obj([
        ("experiment", Json::str("obs")),
        ("seed", Json::from(SEED)),
        ("histograms", histograms),
        ("families", Json::arr(families)),
        ("trace_lines", Json::from(trace_lines)),
    ])
    .pretty()
}

/// Renders the E16 report and writes `BENCH_obs.json` plus
/// `BENCH_obs_trace.jsonl` to the working directory.
///
/// # Errors
///
/// Propagates measurement errors; artifact I/O failing is an error too.
pub fn report() -> ExpResult<String> {
    let rows = measure()?;

    let mut fam_table = Table::new(
        "E16 / observability — stage-1 engine metrics per family (MIS pipeline, bridged \
         through anonet-obs)",
        &["family", "n", "rounds", "msgs", "bytes", "bits", "|V*|", "depth", "curves"],
    );
    for r in &rows {
        fam_table.row(vec![
            r.family.clone(),
            r.n.to_string(),
            r.rounds.to_string(),
            r.messages.to_string(),
            r.message_bytes.to_string(),
            r.bits_drawn.to_string(),
            r.quotient.to_string(),
            r.view_depth.to_string(),
            tick(
                r.messages_per_round.iter().sum::<usize>() as u64 == r.messages
                    && r.bits_per_round.iter().sum::<usize>() as u64 == r.bits_drawn,
            ),
        ]);
    }

    let mut hist_table = Table::new(
        "E16 / observability — histogram quantiles (bucket upper bounds, merged across \
         families)",
        &["histogram", "n", "p50", "p90", "p99", "max"],
    );
    for (name, h) in merged_histograms(&rows) {
        let (p50, p90, p99) = h.quantiles().unwrap_or((0, 0, 0));
        hist_table.row(vec![
            name,
            h.count().to_string(),
            p50.to_string(),
            p90.to_string(),
            p99.to_string(),
            h.max().unwrap_or(0).to_string(),
        ]);
    }

    // Stream the representative run's metric events as JSONL.
    let jsonl = Arc::new(JsonlRecorder::create("BENCH_obs_trace.jsonl")?);
    let shared: SharedRecorder = jsonl.clone();
    trace_representative(&shared)?;
    jsonl.flush()?;
    let trace = std::fs::read_to_string("BENCH_obs_trace.jsonl")?;
    let mut trace_lines = 0usize;
    for line in trace.lines() {
        Json::parse(line).map_err(|e| format!("bad trace line: {e}"))?;
        trace_lines += 1;
    }

    let json = to_json(&rows, trace_lines);
    std::fs::write("BENCH_obs.json", &json)?;

    Ok(format!(
        "{fam_table}\n{hist_table}\n\
         wrote BENCH_obs.json and BENCH_obs_trace.jsonl ({trace_lines} trace lines)\n"
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::common::petersen_overhead;

    #[test]
    fn curves_match_bridged_counters() {
        let rows = measure().unwrap();
        assert_eq!(rows.len(), FAMILY_NAMES.len());
        for r in &rows {
            // The standalone stage-1 re-run is seed-deterministic, so its
            // per-round curves must sum to the bridged totals.
            assert_eq!(
                r.messages_per_round.iter().sum::<usize>() as u64,
                r.messages,
                "{}: message curve disagrees with engine.messages",
                r.family
            );
            assert_eq!(
                r.bits_per_round.iter().sum::<usize>() as u64,
                r.bits_drawn,
                "{}: bit curve disagrees with engine.bits_drawn",
                r.family
            );
            assert_eq!(r.messages_per_round.len() as u64, r.rounds);
            assert!(r.bits_drawn >= r.n as u64);
            // Depth can legitimately be 0 (colors already stable), but the
            // derandomizer must have sampled it exactly once.
            assert_eq!(
                r.snapshot.histogram(names::DERAND_VIEW_DEPTH).unwrap().count(),
                1,
                "{}: view depth not sampled",
                r.family
            );
            assert!(r.quotient >= 1 && r.quotient <= r.n);
        }
    }

    #[test]
    fn every_run_spans_each_pipeline_phase() {
        for r in &measure().unwrap() {
            for phase in [
                names::SPAN_COLORING,
                names::SPAN_VIEWS,
                names::SPAN_FACTOR,
                names::SPAN_SEARCH,
                names::SPAN_LIFT,
            ] {
                assert!(r.snapshot.span_total(phase).count > 0, "{}: no {phase} span", r.family);
            }
        }
    }

    #[test]
    fn noop_overhead_is_small() {
        // Min-of-N keeps scheduler noise out; the bound leaves headroom
        // for a 1-core CI box.
        let overhead = petersen_overhead(SEED, &anonet_obs::noop());
        assert!(overhead < 1.25, "noop-observed pipeline {overhead}x slower than plain");
    }

    #[test]
    fn two_measurements_render_the_same_bytes() {
        assert_eq!(to_json(&measure().unwrap(), 45), to_json(&measure().unwrap(), 45));
        let lines = || {
            let (rec, buf) = JsonlRecorder::buffered();
            trace_representative(&(Arc::new(rec) as SharedRecorder)).unwrap();
            buf.parsed_lines().unwrap().len()
        };
        assert_eq!(lines(), lines(), "the trace's line count is deterministic");
    }

    #[test]
    fn json_parses_and_carries_the_schema() {
        let json = to_json(&measure().unwrap(), 123);
        let v = Json::parse(&json).unwrap();
        assert_eq!(v.get("experiment").unwrap().as_str(), Some("obs"));
        let depth = v.get("histograms").unwrap().get("derand.view_depth").unwrap();
        assert!(depth.get("p99").unwrap().as_f64().is_some(), "quantiles surfaced");
        assert_eq!(depth.get("count").unwrap().as_f64(), Some(FAMILY_NAMES.len() as f64));
        assert_eq!(v.get("trace_lines").unwrap().as_f64(), Some(123.0));
        let fams = v.get("families").unwrap().items().unwrap();
        assert_eq!(fams.len(), FAMILY_NAMES.len());
        let first = &fams[0];
        assert!(first.get("messages_per_round").unwrap().items().unwrap().len() > 1);
        assert!(first.get("bits_per_round").unwrap().items().unwrap().len() > 1);
    }

    #[test]
    fn representative_trace_streams_parseable_lines() {
        let (rec, buf) = JsonlRecorder::buffered();
        let shared: SharedRecorder = Arc::new(rec);
        let outputs = trace_representative(&shared).unwrap();
        assert_eq!(outputs, 10); // Petersen
        let lines = buf.parsed_lines().unwrap();
        assert!(!lines.is_empty());
        // Span events carry paths; the pipeline root must be among them.
        assert!(lines.iter().any(|l| {
            l.get("ev").and_then(|e| e.as_str()) == Some("span")
                && l.get("path").and_then(|p| p.as_str()) == Some("pipeline")
        }));
        // Counter events carry the engine metrics.
        assert!(lines.iter().any(|l| {
            l.get("ev").and_then(|e| e.as_str()) == Some("counter")
                && l.get("name").and_then(|n| n.as_str()) == Some("engine.bits_drawn")
        }));
    }
}
