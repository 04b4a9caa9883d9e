//! E20 — the trace toolchain checked: the always-on flight ring and
//! the round trip of a causal trace through `anonet-trace`.
//!
//! First, [`FLIGHT_RUNS`] Petersen pipelines record into one
//! [`FlightRecorder`] ring, which must capture their events and, under
//! its never-block rule, drop none at this load.
//!
//! Then the end-to-end toolchain gate: a smoke soak campaign streamed
//! through the JSONL recorder, parsed back by `anonet-trace`, and pushed
//! through all four analyses. The trace must be one causal tree —
//! exactly one root (`soak_campaign`), zero orphans — with every cell
//! span carrying its `tc1:` replay string, a Perfetto export that
//! re-parses, folded stacks, and a critical path rooted at the campaign.
//!
//! [`report`] fails on an orphan span, and writes `BENCH_trace.json`
//! (counts and flags, a pure function of the code) and the campaign's
//! raw trace as `BENCH_trace_campaign.jsonl` (CI feeds the latter to the
//! `anonet-trace` binary). The critical path's length follows the
//! heaviest span at each level, so it is checked, not recorded; what
//! tracing costs is a unit-test bound (no-op within 1.25x, flight ring
//! within 4x of the un-instrumented pipeline).

use std::sync::Arc;

use anonet_algorithms::mis::RandomizedMis;
use anonet_core::pipeline::run_pipeline_observed;
use anonet_core::SearchStrategy;
use anonet_graph::generators;
use anonet_obs::{names, FlightRecorder, JsonlRecorder, SharedRecorder};
use anonet_runtime::ExecConfig;
use anonet_soak::{run_campaign_observed, CampaignConfig};
use anonet_trace::{critical, flame, perfetto, Trace};

use crate::experiments::{common::tick, ExpResult};
use crate::table::Json;
use crate::Table;

/// Seed shared with E16, so both observe the same Petersen pipeline.
pub const SEED: u64 = 7;

/// Petersen pipelines recorded into one flight ring.
pub const FLIGHT_RUNS: usize = 5;

/// The whole E20 measurement.
#[derive(Clone, Debug)]
pub struct TraceMeasurement {
    /// Events the flight ring held after the runs.
    pub flight_captured: u64,
    /// Events the ring discarded under its never-block rule.
    pub flight_dropped: u64,
    /// Spans in the campaign trace.
    pub spans: usize,
    /// Root spans (must be 1: `soak_campaign`).
    pub roots: usize,
    /// Orphaned spans (must be 0 in a live trace).
    pub orphans: usize,
    /// Attr lines without a span (must be 0 in a live trace).
    pub detached_attrs: usize,
    /// `soak_cell` spans found (smoke grid: 3).
    pub cells: usize,
    /// Every cell span carried a `tc1:` replay attribute.
    pub replay_on_cells: bool,
    /// `"X"` events in the Perfetto export (== spans).
    pub perfetto_events: usize,
    /// Distinct folded stacks.
    pub flame_stacks: usize,
    /// Critical-path chain length (root → leaf; which leaf depends on
    /// timing, so it is not written to the report).
    pub critical_chain: usize,
    /// The campaign's raw JSONL trace (written out by [`report`]).
    pub campaign_jsonl: String,
}

/// Runs the flight ring and the traced campaign.
///
/// # Errors
///
/// Propagates pipeline/campaign/parse errors — any failure is a
/// regression.
pub fn measure() -> ExpResult<TraceMeasurement> {
    let alg = RandomizedMis::new();
    let strategy = SearchStrategy::default();
    let config = ExecConfig::default();
    let net = generators::petersen().with_uniform_label(());

    let ring = Arc::new(FlightRecorder::new());
    let flight_rec: SharedRecorder = ring.clone();
    for _ in 0..FLIGHT_RUNS {
        run_pipeline_observed(&alg, &net, SEED, strategy, &config, None, &flight_rec)?;
    }

    // The traced campaign, streamed as JSONL and parsed back.
    let (jsonl, buf) = JsonlRecorder::buffered();
    let jsonl = Arc::new(jsonl);
    let shared: SharedRecorder = jsonl.clone();
    run_campaign_observed(&CampaignConfig::smoke(), &shared)?;
    drop(shared);
    drop(jsonl);
    let campaign_jsonl = buf.contents();
    let trace = Trace::parse(&campaign_jsonl).map_err(|e| e.to_string())?;

    let cells: Vec<_> = trace.spans.iter().filter(|s| s.name == names::SPAN_SOAK_CELL).collect();
    let replay_on_cells = !cells.is_empty()
        && cells.iter().all(|c| {
            c.attr("replay").and_then(Json::as_str).is_some_and(|r| r.starts_with("tc1:"))
        });

    let exported = perfetto::export(&trace);
    let reparsed = Json::parse(&exported.pretty()).map_err(|e| format!("perfetto export: {e}"))?;
    let perfetto_events = reparsed
        .get("traceEvents")
        .and_then(Json::items)
        .map(|events| {
            events.iter().filter(|e| e.get("ph").and_then(Json::as_str) == Some("X")).count()
        })
        .unwrap_or(0);

    Ok(TraceMeasurement {
        flight_captured: ring.recorded(),
        flight_dropped: ring.dropped(),
        spans: trace.spans.len(),
        roots: trace.roots().len(),
        orphans: trace.orphans().len(),
        detached_attrs: trace.detached_attrs,
        cells: cells.len(),
        replay_on_cells,
        perfetto_events,
        flame_stacks: flame::folded_stacks(&trace).len(),
        critical_chain: critical::critical_path(&trace).chain.len(),
        campaign_jsonl,
    })
}

/// E20's invariant: every span of the campaign trace kept its parent.
///
/// # Errors
///
/// Reports the orphan count.
pub fn check(m: &TraceMeasurement) -> ExpResult<()> {
    if m.orphans > 0 {
        return Err(format!("the campaign trace has {} orphan span(s)", m.orphans).into());
    }
    Ok(())
}

/// Builds `BENCH_trace.json` through the shared serializer.
pub fn to_json(m: &TraceMeasurement) -> String {
    Json::obj([
        ("experiment", Json::str("trace")),
        ("seed", Json::from(SEED)),
        ("flight_captured", Json::from(m.flight_captured)),
        ("flight_dropped", Json::from(m.flight_dropped)),
        ("spans", Json::from(m.spans)),
        ("roots", Json::from(m.roots)),
        ("orphans", Json::from(m.orphans)),
        ("detached_attrs", Json::from(m.detached_attrs)),
        ("cells", Json::from(m.cells)),
        ("replay_on_cells", Json::from(m.replay_on_cells)),
        ("perfetto_events", Json::from(m.perfetto_events)),
        ("flame_stacks", Json::from(m.flame_stacks)),
    ])
    .pretty()
}

/// Renders the E20 report and writes `BENCH_trace.json` plus the raw
/// campaign trace `BENCH_trace_campaign.jsonl`.
///
/// # Errors
///
/// Propagates measurement errors and a failed [`check`]; artifact I/O
/// failing is an error too.
pub fn report() -> ExpResult<String> {
    let m = measure()?;
    check(&m)?;

    let mut table = Table::new(
        "E20 / trace — campaign trace through the anonet-trace toolchain (smoke grid)",
        &["check", "value", "ok"],
    );
    table.row(vec!["one causal root".into(), m.roots.to_string(), tick(m.roots == 1)]);
    table.row(vec!["orphan spans".into(), m.orphans.to_string(), tick(m.orphans == 0)]);
    table.row(vec![
        "detached attrs".into(),
        m.detached_attrs.to_string(),
        tick(m.detached_attrs == 0),
    ]);
    table.row(vec!["cells w/ tc1: replay".into(), m.cells.to_string(), tick(m.replay_on_cells)]);
    table.row(vec![
        "perfetto X events".into(),
        m.perfetto_events.to_string(),
        tick(m.perfetto_events == m.spans),
    ]);
    table.row(vec![
        "critical chain".into(),
        format!("{} steps", m.critical_chain),
        tick(m.critical_chain >= 2),
    ]);

    std::fs::write("BENCH_trace_campaign.jsonl", &m.campaign_jsonl)?;
    std::fs::write("BENCH_trace.json", to_json(&m))?;

    Ok(format!(
        "{table}\n\
         flight ring over {FLIGHT_RUNS} pipelines: {cap} captured / {drop} dropped\n\
         wrote BENCH_trace.json and BENCH_trace_campaign.jsonl ({spans} spans, {stacks} \
         folded stacks)\n",
        cap = m.flight_captured,
        drop = m.flight_dropped,
        spans = m.spans,
        stacks = m.flame_stacks,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::common::petersen_overhead;
    use std::sync::OnceLock;

    /// One measurement shared by the tests.
    fn measured() -> &'static TraceMeasurement {
        static M: OnceLock<TraceMeasurement> = OnceLock::new();
        M.get_or_init(|| measure().unwrap())
    }

    #[test]
    fn campaign_trace_is_one_tree_and_survives_the_toolchain() {
        let m = measured();
        assert_eq!(m.roots, 1, "exactly one causal root");
        assert_eq!(m.orphans, 0, "no spans lost their parent");
        assert_eq!(m.detached_attrs, 0);
        assert_eq!(m.cells, 3, "smoke grid is three cells");
        assert!(m.replay_on_cells, "every cell span carries its tc1: replay");
        assert_eq!(m.perfetto_events, m.spans, "export covers every span");
        assert!(m.flame_stacks >= 3);
        assert!(m.critical_chain >= 2, "chain descends below the campaign root");
        assert!(m.flight_captured > 0, "the ring saw the pipeline events");
        assert_eq!(m.flight_dropped, 0);
        check(m).unwrap();
    }

    #[test]
    fn overheads_stay_bounded() {
        // Min-of-N keeps scheduler noise out; the bounds leave headroom
        // for a 1-core CI box.
        let noop = petersen_overhead(SEED, &anonet_obs::noop());
        assert!(noop < 1.25, "noop path {noop}x slower than plain");
        let flight = petersen_overhead(SEED, &(Arc::new(FlightRecorder::new()) as SharedRecorder));
        assert!(flight < 4.0, "flight ring {flight}x slower than plain");
    }

    #[test]
    fn two_measurements_render_the_same_bytes() {
        assert_eq!(to_json(&measure().unwrap()), to_json(measured()));
    }

    #[test]
    fn an_orphan_span_fails_the_check() {
        let m = TraceMeasurement { orphans: 1, ..measured().clone() };
        assert!(check(&m).unwrap_err().to_string().contains("1 orphan span"));
    }

    #[test]
    fn json_parses_and_carries_the_schema() {
        let v = Json::parse(&to_json(measured())).unwrap();
        assert_eq!(v.get("experiment").unwrap().as_str(), Some("trace"));
        for key in ["roots", "orphans", "cells", "replay_on_cells", "perfetto_events"] {
            assert!(v.get(key).is_some(), "schema key `{key}` present");
        }
        assert_eq!(v.get("orphans").unwrap().as_f64(), Some(0.0));
    }
}
