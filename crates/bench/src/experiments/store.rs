//! E18 — the persistent derandomization store, measured: run the E15
//! lift-family workload twice against one on-disk store, as two cache
//! *lifecycles* standing in for two processes. The first ("cold") opens
//! a fresh store and pays one canonical search per base family, writing
//! through to disk; the second ("warm") reopens the store — replaying
//! the open-time segment scan a real restart would — preloads via
//! `warm()`, and must answer **every** lookup from cache, strictly
//! beating the cold hit rate while producing byte-identical outputs.
//!
//! [`report`] fails unless both hold, and emits `BENCH_store.json` (the
//! counters of both lifecycles and the disk tier, a pure function of
//! the code) and, as the CI artifact, the store's own accounting at
//! `target/store-report.json` (both written through the shared
//! `anonet_obs::Json` serializer).

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use anonet_algorithms::mis::RandomizedMis;
use anonet_batch::{BatchScheduler, CacheStats, PersistentDerandCache};
use anonet_core::batch::derandomize_batch;
use anonet_core::SearchStrategy;
use anonet_graph::LabeledGraph;
use anonet_runtime::ExecConfig;

use crate::experiments::batch::{lift_families, run_bytes};
use crate::experiments::{common::tick, ExpResult};
use crate::table::Json;
use crate::Table;

/// One cache lifecycle over the workload ("process" in the two-process
/// cold/warm protocol).
#[derive(Clone, Debug)]
pub struct StorePhase {
    /// `"cold"` or `"warm"`.
    pub name: &'static str,
    /// Entries preloaded by `warm()` before the run (0 for cold).
    pub warmed: usize,
    /// Cache accounting for the run window.
    pub cache: CacheStats,
    /// Records the store recovered during this lifecycle's open.
    pub recovered_records: u64,
}

/// The E18 summary.
#[derive(Clone, Debug)]
pub struct StoreSummary {
    /// Jobs per phase.
    pub jobs: usize,
    /// The cold (first-process) phase.
    pub cold: StorePhase,
    /// The warm (second-process) phase.
    pub warm: StorePhase,
    /// Warm outputs are byte-identical to cold outputs, job by job.
    pub identical: bool,
    /// `warm.cache.hit_rate() > cold.cache.hit_rate()` — the acceptance
    /// gate.
    pub warm_strictly_better: bool,
    /// Disk-tier accounting after both phases.
    pub disk: anonet_store::StoreStats,
}

/// One lifecycle: open the store at `dir`, optionally warm, run the
/// whole workload on the batch scheduler, flush, and report.
fn run_phase(
    dir: &std::path::Path,
    name: &'static str,
    do_warm: bool,
    graphs: &[LabeledGraph<((), u32)>],
) -> ExpResult<(StorePhase, Vec<Vec<u8>>, anonet_store::StoreStats)> {
    let pdc = PersistentDerandCache::open(dir)?;
    let opened = pdc.store_stats();
    let warmed = if do_warm { pdc.warm(usize::MAX)? } else { 0 };
    let before = pdc.cache_stats();
    let alg = RandomizedMis::new();
    let strategy = SearchStrategy::Exhaustive { max_total_bits: 24 };
    let config = ExecConfig::default();
    // One worker: each larger multiplicity of a known quotient appends a
    // record, so the order in which a family's lifts reach the store
    // decides `recovered_records` and `disk_bytes`.
    let scheduler = BatchScheduler::with_threads(1);
    let cache = Arc::clone(pdc.cache());
    let outcome = derandomize_batch(&alg, graphs, strategy, &config, &scheduler, Some(&cache));
    let mut outputs = Vec::with_capacity(graphs.len());
    for result in &outcome.results {
        let run = result.ok().ok_or("store phase job failed")?;
        outputs.push(run_bytes(run));
    }
    pdc.flush()?;
    let phase = StorePhase {
        name,
        warmed,
        cache: pdc.cache_stats().delta_from(&before)?,
        recovered_records: opened.recovered_records,
    };
    let disk = pdc.store_stats();
    Ok((phase, outputs, disk))
}

/// Runs the two-process protocol against a throwaway store directory.
///
/// # Errors
///
/// Propagates store, lift-construction, and derandomization errors.
pub fn measure() -> ExpResult<StoreSummary> {
    // One directory per call: tests measure concurrently in one process.
    static CALLS: AtomicUsize = AtomicUsize::new(0);
    let call = CALLS.fetch_add(1, Ordering::Relaxed);
    let dir =
        std::env::temp_dir().join(format!("anonet-bench-store-{}-{call}", std::process::id()));
    // A stale directory would let the cold phase warm-start and skew the
    // measurement, so anything but "already absent" is a hard error.
    if let Err(e) = std::fs::remove_dir_all(&dir) {
        if e.kind() != std::io::ErrorKind::NotFound {
            return Err(format!("clearing scratch store {}: {e}", dir.display()).into());
        }
    }
    let graphs: Vec<_> = lift_families()?.into_iter().map(|(_, _, g)| g).collect();

    let (cold, cold_out, _) = run_phase(&dir, "cold", false, &graphs)?;
    // Second lifecycle: fresh memory, the disk tier carries everything.
    let (warm, warm_out, disk) = run_phase(&dir, "warm", true, &graphs)?;
    let summary = StoreSummary {
        jobs: graphs.len(),
        identical: cold_out == warm_out,
        warm_strictly_better: warm.cache.hit_rate() > cold.cache.hit_rate(),
        cold,
        warm,
        disk,
    };
    if let Err(e) = std::fs::remove_dir_all(&dir) {
        eprintln!("anonet-bench: could not remove scratch store {}: {e}", dir.display());
    }
    Ok(summary)
}

/// E18's invariants: the warm lifecycle reproduced the cold outputs byte
/// for byte and strictly beat its hit rate.
///
/// # Errors
///
/// Names the invariant that failed.
pub fn check(s: &StoreSummary) -> ExpResult<()> {
    if !s.identical {
        return Err("warm outputs differ from cold outputs".into());
    }
    if !s.warm_strictly_better {
        return Err("the warm start did not beat the cold hit rate".into());
    }
    Ok(())
}

fn phase_json(p: &StorePhase) -> Json {
    Json::obj([
        ("name", Json::str(p.name)),
        ("warmed_entries", Json::from(p.warmed)),
        ("recovered_records", Json::from(p.recovered_records)),
        ("assignment_hits", Json::from(p.cache.assignment_hits)),
        ("assignment_misses", Json::from(p.cache.assignment_misses)),
        ("disk_hits", Json::from(p.cache.disk_hits)),
        ("disk_misses", Json::from(p.cache.disk_misses)),
        ("disk_errors", Json::from(p.cache.disk_errors)),
        ("hit_rate", Json::Num((p.cache.hit_rate() * 1e4).round() / 1e4)),
    ])
}

/// Builds the `BENCH_store.json` payload.
pub fn to_json(s: &StoreSummary) -> String {
    Json::obj([
        ("experiment", Json::str("store")),
        ("jobs", Json::from(s.jobs)),
        ("cold", phase_json(&s.cold)),
        ("warm", phase_json(&s.warm)),
        ("byte_identical", Json::from(s.identical)),
        ("warm_strictly_better", Json::from(s.warm_strictly_better)),
        (
            "disk",
            Json::obj([
                ("live_records", Json::from(s.disk.live_records)),
                ("live_bytes", Json::from(s.disk.live_bytes as usize)),
                ("disk_bytes", Json::from(s.disk.disk_bytes as usize)),
                ("segments", Json::from(s.disk.segments)),
                ("appends", Json::from(s.disk.appends)),
                ("torn_truncations", Json::from(s.disk.torn_truncations)),
            ]),
        ),
    ])
    .pretty()
}

/// Renders the E18 report; writes `BENCH_store.json` and the store's
/// accounting artifact `target/store-report.json`.
///
/// # Errors
///
/// Propagates measurement errors and a failed [`check`]; either JSON
/// write failing is an error.
pub fn report() -> ExpResult<String> {
    let summary = measure()?;
    check(&summary)?;
    let mut t = Table::new(
        "E18 / persistent store — cold first process vs warm-started second process \
         (MIS over the C3/C4 lift families, one on-disk store)",
        &["phase", "warmed", "hits", "misses", "disk hits", "hit rate"],
    );
    for p in [&summary.cold, &summary.warm] {
        t.row(vec![
            p.name.to_string(),
            p.warmed.to_string(),
            p.cache.assignment_hits.to_string(),
            p.cache.assignment_misses.to_string(),
            p.cache.disk_hits.to_string(),
            format!("{:.1}%", 100.0 * p.cache.hit_rate()),
        ]);
    }
    std::fs::write("BENCH_store.json", to_json(&summary))?;
    // The store's own accounting, re-measured against a fresh reopen of
    // nothing: report the final disk stats via the shared serializer.
    let disk_report = Json::obj([
        ("live_records", Json::from(summary.disk.live_records)),
        ("live_bytes", Json::from(summary.disk.live_bytes as usize)),
        ("dead_bytes", Json::from(summary.disk.dead_bytes as usize)),
        ("disk_bytes", Json::from(summary.disk.disk_bytes as usize)),
        ("segments", Json::from(summary.disk.segments)),
        ("shards", Json::from(summary.disk.shards)),
        ("appends", Json::from(summary.disk.appends)),
        ("recovered_records", Json::from(summary.disk.recovered_records)),
        ("torn_truncations", Json::from(summary.disk.torn_truncations)),
    ])
    .pretty();
    std::fs::create_dir_all("target")?;
    std::fs::write("target/store-report.json", disk_report)?;
    Ok(format!(
        "{t}\n{jobs} jobs per phase; cold {ch:.1}% hits, \
         warm {wh:.1}% hits (warmed {wn} entries from disk)\n\
         byte-identical outputs: {ident}; warm strictly better: {better}\n\
         wrote BENCH_store.json and target/store-report.json\n",
        t = t,
        jobs = summary.jobs,
        ch = 100.0 * summary.cold.cache.hit_rate(),
        wh = 100.0 * summary.warm.cache.hit_rate(),
        wn = summary.warm.warmed,
        ident = tick(summary.identical),
        better = tick(summary.warm_strictly_better),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn warm_process_strictly_beats_cold() {
        let s = measure().unwrap();
        assert_eq!(s.jobs, 16);
        assert!(s.identical, "warm outputs must match cold outputs byte for byte");
        // Cold: one miss per base family (C3, C4), disk also cold.
        assert_eq!(s.cold.cache.assignment_misses, 2);
        assert_eq!(s.cold.cache.assignment_hits, 14);
        assert_eq!(s.cold.cache.disk_hits, 0);
        assert_eq!(s.cold.cache.disk_errors, 0);
        assert_eq!(s.cold.warmed, 0);
        // Warm: everything answered from the preloaded cache.
        assert!(s.warm.warmed >= 2, "warm() must preload both base families");
        assert_eq!(s.warm.cache.assignment_misses, 0);
        assert_eq!(s.warm.cache.assignment_hits, 16);
        assert_eq!(s.warm.cache.disk_errors, 0);
        // The second open replayed the first lifecycle's records.
        assert!(s.warm.recovered_records >= 4);
        assert!(s.warm_strictly_better);
        assert!(check(&s).is_ok());
        assert!(s.warm.cache.hit_rate() == 1.0);
        assert!((s.cold.cache.hit_rate() - 0.875).abs() < 1e-12);
    }

    #[test]
    fn two_measurements_render_the_same_bytes() {
        assert_eq!(to_json(&measure().unwrap()), to_json(&measure().unwrap()));
    }

    #[test]
    fn a_broken_invariant_fails_the_check() {
        let s = measure().unwrap();
        let differs = StoreSummary { identical: false, ..s.clone() };
        assert!(check(&differs).unwrap_err().to_string().contains("differ"));
        let no_better = StoreSummary { warm_strictly_better: false, ..s };
        assert!(check(&no_better).unwrap_err().to_string().contains("hit rate"));
    }

    #[test]
    fn json_parses_and_gates_are_visible() {
        let s = measure().unwrap();
        let v = Json::parse(&to_json(&s)).unwrap();
        assert_eq!(v.get("experiment").unwrap().as_str(), Some("store"));
        assert_eq!(v.get("warm_strictly_better").unwrap().as_bool(), Some(true));
        assert_eq!(v.get("byte_identical").unwrap().as_bool(), Some(true));
        let warm = v.get("warm").unwrap();
        assert_eq!(warm.get("assignment_misses").unwrap().as_f64(), Some(0.0));
        assert!(
            warm.get("hit_rate").unwrap().as_f64().unwrap()
                > v.get("cold").unwrap().get("hit_rate").unwrap().as_f64().unwrap()
        );
    }
}
