//! E17 — the `Update-Graph` engine checked: the memoized `A_*` fast path
//! (candidate-pool memo, interned view encodings, C2 selection indexes)
//! against the literal Figure-3 reference, on the Figure-2 workload (the
//! colored C3 ⪯ C6 ⪯ C12 tower).
//!
//! The reference rebuilds the candidate pool and rescans C2/C3 per node
//! per phase, although the pool depends only on `(p_capped, universe)`
//! and color classes share universes exactly. This experiment counts
//! what the memo does — pool hits and builds, candidates and quotients,
//! C2 lookups and hits, candidate steps — and checks the part that
//! matters: byte-identity of every run against the reference. How much
//! faster the memo is lives in `perfbench`'s `astar_lifts` workload.
//!
//! [`report`] fails unless every run is byte-identical, the pool memo
//! hits, and C12's fibres share candidate steps (`candidate_steps <
//! c2_hits`); it writes `BENCH_astar.json` (shared [`Json`] serializer),
//! a pure function of the code.

use anonet_algorithms::mis::RandomizedMis;
use anonet_algorithms::problems::MisProblem;
use anonet_core::astar::{run_astar_observed, run_astar_reference, AStarConfig, AStarRun};
use anonet_obs::{names, MemoryRecorder};
use anonet_runtime::Problem;

use crate::experiments::{common::tick, ExpResult, Family};
use crate::table::Json;
use crate::Table;

/// One tower instance, both engines measured.
#[derive(Clone, Debug)]
pub struct AstarRow {
    /// Cycle length.
    pub n: usize,
    /// Phases until convergence (identical for both engines).
    pub phases_used: usize,
    /// Pool-memo hits of the fast run.
    pub pool_hits: u64,
    /// Pool-memo misses (pools actually built).
    pub pool_misses: u64,
    /// Candidates in the pools built, after C3.
    pub pool_candidates: u64,
    /// Candidate quotients the selection indexes built.
    pub pool_quotients: u64,
    /// C2 index lookups / lookups that found a candidate.
    pub c2_lookups: u64,
    /// C2 lookups that selected a candidate.
    pub c2_hits: u64,
    /// Update-Output/Update-Bits steps of the fast run (its
    /// `update_bits` span count): one per distinct candidate selected in
    /// a phase, so below `c2_hits` wherever fibres share a candidate.
    pub candidate_steps: u64,
    /// The fast run equals the reference on every field.
    pub byte_identical: bool,
}

/// The whole E17 measurement.
#[derive(Clone, Debug)]
pub struct AstarMeasurement {
    /// Per-instance rows (C3, C6, C12).
    pub rows: Vec<AstarRow>,
}

impl AstarMeasurement {
    /// `true` iff the fast engine agreed with the reference on every field
    /// of every instance.
    pub fn byte_identical(&self) -> bool {
        self.rows.iter().all(|r| r.byte_identical)
    }

    /// Pool requests served from the memo, across all instances.
    pub fn pool_hits(&self) -> u64 {
        self.rows.iter().map(|r| r.pool_hits).sum()
    }

    /// Pools actually built, across all instances.
    pub fn pool_misses(&self) -> u64 {
        self.rows.iter().map(|r| r.pool_misses).sum()
    }

    /// `hits / (hits + misses)`.
    pub fn pool_hit_rate(&self) -> f64 {
        let total = (self.pool_hits() + self.pool_misses()) as f64;
        self.pool_hits() as f64 / total.max(f64::EPSILON)
    }
}

/// Field-by-field equality of two runs (outputs, phases, rounds, output
/// phases, final bitstrings).
fn runs_equal<O: PartialEq>(a: &AStarRun<O>, b: &AStarRun<O>) -> bool {
    a.outputs == b.outputs
        && a.phases_used == b.phases_used
        && a.equivalent_rounds == b.equivalent_rounds
        && a.output_phase == b.output_phase
        && a.final_bits == b.final_bits
}

/// Runs both engines over the Figure-2 tower.
///
/// # Errors
///
/// Propagates `A_*` errors and reports invalid MIS outputs — both are
/// regressions on this workload.
pub fn measure() -> ExpResult<AstarMeasurement> {
    let alg = RandomizedMis::new();
    let cfg = AStarConfig::default();
    let mut rows = Vec::new();

    for (n, colored) in Family::figure2_tower() {
        let instance = colored.map_labels(|&c| ((), c));

        let reference = run_astar_reference(&alg, &MisProblem, &instance, &cfg)?;
        let fast_rec = MemoryRecorder::new();
        let fast = run_astar_observed(&alg, &MisProblem, &instance, &cfg, &fast_rec)?;
        let byte_identical = runs_equal(&fast, &reference);

        let plain = instance.map_labels(|_| ());
        if !MisProblem.is_valid_output(&plain, &fast.outputs) {
            return Err(format!("A_* produced an invalid MIS on C{n}").into());
        }

        let fast_snap = fast_rec.snapshot();
        rows.push(AstarRow {
            n,
            phases_used: reference.phases_used,
            pool_hits: fast_snap.counter(names::ASTAR_POOL_HIT),
            pool_misses: fast_snap.counter(names::ASTAR_POOL_MISS),
            pool_candidates: fast_snap.counter(names::ASTAR_POOL_CANDIDATES),
            pool_quotients: fast_snap.counter(names::ASTAR_POOL_QUOTIENTS),
            c2_lookups: fast_snap.counter(names::ASTAR_C2_LOOKUPS),
            c2_hits: fast_snap.counter(names::ASTAR_C2_HITS),
            candidate_steps: fast_snap.span_total(names::SPAN_UPDATE_BITS).count,
            byte_identical,
        });
    }

    Ok(AstarMeasurement { rows })
}

/// E17's invariants: every fast run equals the reference, the pool memo
/// hits, and on the multiplicity-4 tower (C12, the last row) a fibre's
/// nodes share one candidate step, so the engine runs fewer steps than
/// nodes select candidates.
///
/// # Errors
///
/// Names the invariant that failed.
pub fn check(m: &AstarMeasurement) -> ExpResult<()> {
    if let Some(r) = m.rows.iter().find(|r| !r.byte_identical) {
        return Err(format!("C{}: fast A_* diverged from the reference", r.n).into());
    }
    if m.pool_hits() == 0 {
        return Err("the pool memo never hit on the tower workload".into());
    }
    let c12 = m.rows.last().ok_or("no tower instance measured")?;
    if c12.candidate_steps >= c12.c2_hits {
        return Err(format!(
            "C{}: {} candidate steps for {} C2 hits",
            c12.n, c12.candidate_steps, c12.c2_hits
        )
        .into());
    }
    Ok(())
}

fn round3(x: f64) -> f64 {
    (x * 1e3).round() / 1e3
}

/// Builds `BENCH_astar.json` through the shared serializer.
pub fn to_json(m: &AstarMeasurement) -> String {
    let instances = m.rows.iter().map(|r| {
        Json::obj([
            ("n", Json::from(r.n)),
            ("phases_used", Json::from(r.phases_used)),
            ("pool_hits", Json::from(r.pool_hits)),
            ("pool_misses", Json::from(r.pool_misses)),
            ("pool_candidates", Json::from(r.pool_candidates)),
            ("pool_quotients", Json::from(r.pool_quotients)),
            ("c2_lookups", Json::from(r.c2_lookups)),
            ("c2_hits", Json::from(r.c2_hits)),
            ("candidate_steps", Json::from(r.candidate_steps)),
            ("byte_identical", Json::from(r.byte_identical)),
        ])
    });
    Json::obj([
        ("experiment", Json::str("astar")),
        ("byte_identical", Json::from(m.byte_identical())),
        ("pool_hits", Json::from(m.pool_hits())),
        ("pool_misses", Json::from(m.pool_misses())),
        ("pool_hit_rate", Json::Num(round3(m.pool_hit_rate()))),
        ("instances", Json::arr(instances)),
    ])
    .pretty()
}

/// Renders the E17 report and writes `BENCH_astar.json` to the working
/// directory.
///
/// # Errors
///
/// Propagates measurement errors and a failed [`check`]; artifact I/O
/// failing is an error too.
pub fn report() -> ExpResult<String> {
    let m = measure()?;
    check(&m)?;

    let mut table = Table::new(
        "E17 / Update-Graph engine — memoized A_* vs the literal Figure-3 reference \
         (MIS on the colored C3/C6/C12 tower)",
        &["n", "phases", "pool h/m", "cands/quots", "steps/hits", "identical"],
    );
    for r in &m.rows {
        table.row(vec![
            format!("C{}", r.n),
            r.phases_used.to_string(),
            format!("{}/{}", r.pool_hits, r.pool_misses),
            format!("{}/{}", r.pool_candidates, r.pool_quotients),
            format!("{}/{}", r.candidate_steps, r.c2_hits),
            tick(r.byte_identical),
        ]);
    }

    let json = to_json(&m);
    std::fs::write("BENCH_astar.json", &json)?;

    Ok(format!(
        "{table}\n\
         pool hit rate {rate:.0}% ({hits} hits / {misses} builds)\n\
         byte-identical across engines: {ident_ok}\n\
         wrote BENCH_astar.json\n",
        rate = m.pool_hit_rate() * 100.0,
        hits = m.pool_hits(),
        misses = m.pool_misses(),
        ident_ok = tick(m.byte_identical()),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::OnceLock;

    /// One measurement shared by the tests (the reference engine is slow).
    fn measured() -> &'static AstarMeasurement {
        static M: OnceLock<AstarMeasurement> = OnceLock::new();
        M.get_or_init(|| measure().unwrap())
    }

    #[test]
    fn engines_agree_and_the_memo_earns_its_keep() {
        let m = measured();
        assert_eq!(m.rows.len(), 3);
        check(m).unwrap();
        for r in &m.rows {
            // Same-phase nodes share universes on colored cycles: at most
            // 3 color classes, so at least 3/4 of requests hit on C12.
            assert!(r.c2_lookups >= r.c2_hits);
            assert!(r.candidate_steps <= r.c2_hits);
            assert!(r.pool_quotients <= r.pool_candidates);
            assert!(r.phases_used >= 1);
        }
        // C12 shares pools across its 12 nodes; the hit rate must clear
        // the 2-in-3 mark overall (C3 contributes the worst case).
        assert!(
            m.pool_hit_rate() > 0.5,
            "pool hit rate {:.2} too low for color-class workloads",
            m.pool_hit_rate()
        );
    }

    #[test]
    fn two_measurements_render_the_same_bytes() {
        assert_eq!(to_json(&measure().unwrap()), to_json(measured()));
    }

    #[test]
    fn each_broken_invariant_fails_the_check() {
        let m = measured();
        let mut diverged = m.clone();
        diverged.rows[1].byte_identical = false;
        assert!(check(&diverged).unwrap_err().to_string().contains("C6: fast A_* diverged"));
        let mut no_hits = m.clone();
        no_hits.rows.iter_mut().for_each(|r| r.pool_hits = 0);
        assert!(check(&no_hits).unwrap_err().to_string().contains("never hit"));
        let mut per_node = m.clone();
        per_node.rows[2].candidate_steps = per_node.rows[2].c2_hits;
        assert!(check(&per_node).unwrap_err().to_string().contains("C12: 36 candidate steps"));
    }

    #[test]
    fn json_parses_and_carries_the_schema() {
        let json = to_json(measured());
        let v = Json::parse(&json).unwrap();
        assert_eq!(v.get("experiment").unwrap().as_str(), Some("astar"));
        assert_eq!(v.get("byte_identical").unwrap().as_bool(), Some(true));
        assert!(v.get("pool_hit_rate").unwrap().as_f64().unwrap() > 0.0);
        let instances = v.get("instances").unwrap().items().unwrap();
        assert_eq!(instances.len(), 3);
        let c12 = &instances[2];
        assert_eq!(c12.get("n").unwrap().as_f64(), Some(12.0));
        assert!(c12.get("pool_hits").unwrap().as_f64().unwrap() > 0.0);
    }
}
