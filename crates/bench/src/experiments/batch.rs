//! E15 — the batch engine and the content-addressed derandomization
//! cache: sweep 8 lifts per base over two cyclic bases, run the
//! deterministic stage (a) sequentially with no cache and (b) on the
//! batch scheduler with a shared [`DerandCache`], and verify the outputs
//! are identical bit for bit while the cached batch collapses each lift
//! family's canonical search (paper, Lemma 3: one search per quotient
//! class) into a single miss plus replays.
//!
//! [`report`] fails unless every row is byte-identical, and writes
//! `BENCH_batch.json`: the rows and the cache counters, a pure function
//! of the code. The cached batch runs on [`THREADS`] workers, and the
//! file is the same at 1, 2 and 4: single-flight misses keep the
//! counters free of races, while which row of a family claims its miss
//! first is left to the scheduler and so is not recorded.

use std::sync::Arc;

use anonet_algorithms::mis::RandomizedMis;
use anonet_algorithms::problems::MisProblem;
use anonet_batch::{BatchScheduler, CacheStats, DerandCache};
use anonet_core::batch::derandomize_batch;
use anonet_core::{DerandomizedRun, SearchStrategy};
use anonet_graph::lift::cyclic_cycle_lift;
use anonet_graph::LabeledGraph;
use anonet_runtime::{ExecConfig, Problem};

use crate::experiments::{common::tick, ExpResult};
use crate::table::Json;
use crate::Table;

/// Lift multiplicities swept per base (8 lifts each, m = 2..=9).
pub const MULTIPLICITIES: std::ops::RangeInclusive<usize> = 2..=9;

/// Worker threads of the cached batch.
pub const THREADS: usize = 2;

/// One instance of the sweep: a lift of one of the cyclic bases.
#[derive(Clone, Debug)]
pub struct BatchRow {
    /// Base graph name (`C3` or `C4`).
    pub base: &'static str,
    /// Lift multiplicity.
    pub m: usize,
    /// Nodes of the lifted instance.
    pub n: usize,
    /// Quotient size seen by the derandomizer (must equal the base size).
    pub quotient: usize,
    /// The two runs agree on every recorded field, byte for byte.
    pub identical: bool,
    /// The derandomized output is a valid MIS of the lift.
    pub valid: bool,
}

/// The totals of the sweep.
#[derive(Clone, Debug)]
pub struct BatchSummary {
    /// Instances swept.
    pub jobs: usize,
    /// Cache accounting for the batch window.
    pub cache: CacheStats,
    /// Every instance's cached run matched its uncached run byte for byte.
    pub all_identical: bool,
}

/// One batch instance: base-family name, multiplicity, colored lift.
pub(crate) type LiftInstance = (&'static str, usize, LabeledGraph<((), u32)>);

/// The sweep's instances, C3 lifts then C4 lifts (E18 runs the same).
pub(crate) fn lift_families() -> ExpResult<Vec<LiftInstance>> {
    let mut instances = Vec::new();
    for (name, base_n) in [("C3", 3usize), ("C4", 4usize)] {
        let labels: Vec<((), u32)> = (0..base_n).map(|i| ((), i as u32 + 1)).collect();
        for m in MULTIPLICITIES {
            let lift = cyclic_cycle_lift(base_n, m)?;
            instances.push((name, m, lift.lift_labels(&labels)?));
        }
    }
    Ok(instances)
}

/// A canonical byte serialization of a run's observable fields, so
/// "identical outputs" is checked at the byte level rather than through
/// `PartialEq` shortcuts (E18 reuses this for its cold/warm differential).
pub(crate) fn run_bytes(run: &DerandomizedRun<bool>) -> Vec<u8> {
    let mut out = Vec::new();
    for &b in &run.outputs {
        out.push(b as u8);
    }
    out.extend_from_slice(&(run.quotient_nodes as u64).to_le_bytes());
    out.extend_from_slice(&(run.multiplicity as u64).to_le_bytes());
    out.extend_from_slice(&(run.simulation_rounds as u64).to_le_bytes());
    out.extend_from_slice(&(run.attempts as u64).to_le_bytes());
    for tape in run.assignment.tapes() {
        out.extend_from_slice(&(tape.len() as u64).to_le_bytes());
        for bit in tape.iter() {
            out.push(bit as u8);
        }
    }
    out
}

/// Runs the sweep: sequential-uncached baseline, then the cache-enabled
/// batch on `threads` workers, with the paper's exhaustive
/// (minimal-assignment) search so the work a hit saves is the full
/// `2^(|V_*|·t)` enumeration.
///
/// # Errors
///
/// Propagates lift-construction and derandomization errors.
pub fn measure_with(threads: usize) -> ExpResult<(Vec<BatchRow>, BatchSummary)> {
    let instances = lift_families()?;
    let graphs: Vec<LabeledGraph<((), u32)>> =
        instances.iter().map(|(_, _, g)| g.clone()).collect();
    let alg = RandomizedMis::new();
    let strategy = SearchStrategy::Exhaustive { max_total_bits: 24 };
    let config = ExecConfig::default();

    // Baseline: every instance pays for its own exhaustive search.
    let baseline =
        derandomize_batch(&alg, &graphs, strategy, &config, &BatchScheduler::with_threads(1), None);

    // The engine under test: a shared cache on a fixed worker pool.
    let cache = Arc::new(DerandCache::new());
    let scheduler = BatchScheduler::with_threads(threads);
    let batch = derandomize_batch(&alg, &graphs, strategy, &config, &scheduler, Some(&cache));

    let mut rows = Vec::new();
    for (i, (name, m, g)) in instances.iter().enumerate() {
        let seq = baseline.results[i].ok().ok_or("baseline job failed")?;
        let par = batch.results[i].ok().ok_or("batch job failed")?;
        let plain = g.map_labels(|_| ());
        rows.push(BatchRow {
            base: name,
            m: *m,
            n: g.node_count(),
            quotient: par.quotient_nodes,
            identical: run_bytes(seq) == run_bytes(par),
            valid: MisProblem.is_valid_output(&plain, &par.outputs),
        });
    }

    let summary = BatchSummary {
        jobs: rows.len(),
        cache: batch.stats.cache.ok_or("cache stats missing")?,
        all_identical: rows.iter().all(|r| r.identical),
    };
    Ok((rows, summary))
}

/// [`measure_with`] on [`THREADS`] workers.
///
/// # Errors
///
/// As [`measure_with`].
pub fn measure() -> ExpResult<(Vec<BatchRow>, BatchSummary)> {
    measure_with(THREADS)
}

/// E15's invariant: the cached batch reproduced every uncached run byte
/// for byte.
///
/// # Errors
///
/// Names the first row whose runs differ.
pub fn check(rows: &[BatchRow]) -> ExpResult<()> {
    match rows.iter().find(|r| !r.identical) {
        Some(r) => Err(format!("{} m={}: cached run differs from uncached", r.base, r.m).into()),
        None => Ok(()),
    }
}

/// Builds the machine-readable summary through the workspace's shared
/// JSON serializer ([`crate::table::Json`] — the dependency policy keeps
/// serde out, and every experiment shares this one code path).
pub fn to_json(rows: &[BatchRow], s: &BatchSummary) -> String {
    let row_objs = rows.iter().map(|r| {
        Json::obj([
            ("base", Json::str(r.base)),
            ("m", Json::from(r.m)),
            ("n", Json::from(r.n)),
            ("quotient", Json::from(r.quotient)),
            ("identical", Json::from(r.identical)),
            ("valid", Json::from(r.valid)),
        ])
    });
    Json::obj([
        ("experiment", Json::str("batch")),
        ("jobs", Json::from(s.jobs)),
        ("byte_identical", Json::from(s.all_identical)),
        (
            "cache",
            Json::obj([
                ("quotient_entries", Json::from(s.cache.quotient_entries)),
                ("assignment_entries", Json::from(s.cache.assignment_entries)),
                ("assignment_hits", Json::from(s.cache.assignment_hits)),
                ("assignment_misses", Json::from(s.cache.assignment_misses)),
                ("hit_rate", Json::Num((s.cache.hit_rate() * 1e4).round() / 1e4)),
                ("bytes", Json::from(s.cache.bytes)),
                // Persistence counters: all zero here (E15 runs
                // memory-only); E18 exercises the disk tier.
                ("disk_hits", Json::from(s.cache.disk_hits)),
                ("disk_misses", Json::from(s.cache.disk_misses)),
                ("disk_errors", Json::from(s.cache.disk_errors)),
            ]),
        ),
        ("rows", Json::arr(row_objs)),
    ])
    .pretty()
}

/// Renders the E15 report and writes `BENCH_batch.json` to the working
/// directory.
///
/// # Errors
///
/// Propagates measurement errors and a failed [`check`]; the JSON write
/// failing is an error too.
pub fn report() -> ExpResult<String> {
    let (rows, summary) = measure()?;
    check(&rows)?;
    let mut t = Table::new(
        "E15 / batch engine — sequential uncached vs concurrent batch with the s(G_*) cache \
         (MIS, exhaustive minimal-assignment search)",
        &["base", "m", "n", "|V*|", "identical", "valid"],
    );
    for r in &rows {
        t.row(vec![
            r.base.to_string(),
            r.m.to_string(),
            r.n.to_string(),
            r.quotient.to_string(),
            tick(r.identical),
            tick(r.valid),
        ]);
    }
    std::fs::write("BENCH_batch.json", to_json(&rows, &summary))?;
    Ok(format!(
        "{t}\n{jobs} jobs, cached batch on {THREADS} threads\n{cache}\n\
         byte-identical outputs: {ident}\nwrote BENCH_batch.json\n",
        jobs = summary.jobs,
        cache = summary.cache.render(),
        ident = tick(summary.all_identical),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_is_identical_and_cache_hits() {
        let (rows, summary) = measure().unwrap();
        // 8 lifts per base, two bases.
        assert_eq!(rows.len(), 16);
        assert!(summary.all_identical);
        assert!(check(&rows).is_ok());
        assert!(rows.iter().all(|r| r.valid));
        // One miss per base family, hits everywhere else.
        assert_eq!(summary.cache.assignment_misses, 2);
        assert_eq!(summary.cache.assignment_hits, 14);
        assert!(summary.cache.hit_rate() > 0.8);
        // Quotients collapse to the bases.
        assert!(rows.iter().all(|r| r.quotient == if r.base == "C3" { 3 } else { 4 }));
    }

    #[test]
    fn the_report_is_the_same_at_one_two_and_four_threads() {
        let render = |threads| {
            let (rows, summary) = measure_with(threads).unwrap();
            to_json(&rows, &summary)
        };
        let one = render(1);
        assert_eq!(render(2), one);
        assert_eq!(render(4), one);
        assert_eq!(render(THREADS), one, "two measurements render the same bytes");
    }

    #[test]
    fn a_differing_row_fails_the_check() {
        let (mut rows, _) = measure().unwrap();
        rows[9].identical = false;
        let err = check(&rows).unwrap_err().to_string();
        assert!(err.contains("C4 m=3"), "{err}");
    }

    #[test]
    fn json_parses_and_carries_the_schema() {
        let (rows, summary) = measure().unwrap();
        let json = to_json(&rows, &summary);
        // The artifact must re-parse through the shared serializer.
        let v = Json::parse(&json).unwrap();
        assert_eq!(v.get("experiment").unwrap().as_str(), Some("batch"));
        assert_eq!(v.get("jobs").unwrap().as_f64(), Some(16.0));
        assert_eq!(v.get("byte_identical").unwrap().as_bool(), Some(true));
        let cache = v.get("cache").unwrap();
        assert_eq!(cache.get("assignment_misses").unwrap().as_f64(), Some(2.0));
        let parsed_rows = v.get("rows").unwrap().items().unwrap();
        assert_eq!(parsed_rows.len(), 16);
        assert_eq!(parsed_rows[0].get("base").unwrap().as_str(), Some("C3"));
    }
}
