//! The perf-regression sentinel: diff a fresh [`SoakReport`] against the
//! committed baseline.
//!
//! Two kinds of comparison, matching the two kinds of cell field:
//!
//! * **Exact invariants** — `cases`, `quotient_nodes`, `byte_identical`,
//!   `warm_hits`, `warm_misses`, `messages`, `message_bytes`. These are
//!   pure functions of the campaign config (the warm pass answers every
//!   job from cache at any thread count), so any difference is a real
//!   behavior change, not noise, and fails the check outright. The cold
//!   hit/miss split is deliberately *not* gated: concurrent cold misses
//!   of one fresh quotient race benignly at `threads > 1`.
//! * **Timing** — absolute walls are machine-dependent, so the sentinel
//!   compares each cell's *share* of the campaign's total cell wall,
//!   which cancels machine speed. A cell whose share moved by more than
//!   the noise band (default ±15%, relative) **and** by more than an
//!   absolute slack ([`SHARE_SLACK`] points of the total) in either
//!   direction is flagged; cells below a floor share (0.5%) are skipped
//!   as pure noise. The two-sided test catches speedups too — a cell
//!   getting "faster" because it stopped doing its work is a bug.
//!
//! Every regression carries the cell's `tc1:…` replay string, so a
//! failing gate is one `cargo run -p anonet-testkit -- replay <tc1:…>`
//! away from a local reproduction. Structural drift (cells added or
//! removed by a grid change, a missing baseline) is reported as *notes*,
//! not failures — the gate degrades gracefully while the baseline is
//! regenerated.

use std::collections::BTreeMap;
use std::fmt;

use crate::campaign::{CellReport, SoakReport};

/// Default relative noise band for wall-share comparisons (±15%).
pub const DEFAULT_BAND: f64 = 0.15;

/// Cells whose baseline wall share is below this floor are too small to
/// measure reliably; their timing is not gated.
pub const MIN_SHARE: f64 = 0.005;

/// Absolute share slack: a cell's share must also move by at least this
/// many points of the total before it is flagged. Sub-millisecond cells
/// jitter by tens of percent *relative* from pure timer noise — and
/// cells near 1% of the total have been observed to double from a
/// single scheduler stall — so a real regression (one cell suddenly
/// dominating the campaign) must move absolute share far past this.
pub const SHARE_SLACK: f64 = 0.02;

/// One gated difference between the current report and the baseline.
#[derive(Clone, Debug, PartialEq)]
pub struct Regression {
    /// Cell coordinate id (empty for campaign-level regressions such as
    /// oracle failures carry their cell instead).
    pub cell: String,
    /// `tc1:…` replay string reproducing the cell.
    pub replay: String,
    /// The field that regressed (e.g. `warm_hits`, `wall_share`).
    pub field: String,
    /// Baseline value, rendered.
    pub baseline: String,
    /// Current value, rendered.
    pub current: String,
    /// Human-readable explanation.
    pub detail: String,
}

impl fmt::Display for Regression {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: {} {} -> {} ({}) [replay: {}]",
            self.cell, self.field, self.baseline, self.current, self.detail, self.replay
        )
    }
}

/// The sentinel's verdict: regressions fail the gate, notes do not.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct DiffOutcome {
    /// Gated differences; non-empty fails the check.
    pub regressions: Vec<Regression>,
    /// Structural observations that do not fail the gate (new cells,
    /// missing cells, absent headline files).
    pub notes: Vec<String>,
}

impl DiffOutcome {
    /// `true` when the gate passes.
    pub fn passed(&self) -> bool {
        self.regressions.is_empty()
    }

    fn push(
        &mut self,
        cell: &CellReport,
        field: &str,
        baseline: impl fmt::Display,
        current: impl fmt::Display,
        detail: impl Into<String>,
    ) {
        self.regressions.push(Regression {
            cell: cell.id.clone(),
            replay: cell.replay.clone(),
            field: field.into(),
            baseline: baseline.to_string(),
            current: current.to_string(),
            detail: detail.into(),
        });
    }
}

fn exact(
    out: &mut DiffOutcome,
    cur: &CellReport,
    field: &str,
    base_v: impl fmt::Display + PartialEq<u64> + Copy,
    cur_v: u64,
) {
    if base_v != cur_v {
        out.push(cur, field, base_v, cur_v, "exact-match invariant changed");
    }
}

/// Diffs `current` against `baseline` under the given relative noise
/// `band` for wall shares. Oracle failures in `current` always regress.
pub fn diff(current: &SoakReport, baseline: &SoakReport, band: f64) -> DiffOutcome {
    let mut out = DiffOutcome::default();

    if current.base_seed != baseline.base_seed || current.reps != baseline.reps {
        out.notes.push(format!(
            "config drift: baseline seed/reps = {:#x}/{}, current = {:#x}/{} — exact \
             invariants are only meaningful on matching configs",
            baseline.base_seed, baseline.reps, current.base_seed, current.reps
        ));
    }

    for f in &current.failures {
        out.regressions.push(Regression {
            cell: f.cell.clone(),
            replay: f.replay.clone(),
            field: format!("oracle:{}", f.oracle),
            baseline: "pass".into(),
            current: "fail".into(),
            detail: f.detail.clone(),
        });
    }

    let base_cells: BTreeMap<&str, &CellReport> =
        baseline.cells.iter().map(|c| (c.id.as_str(), c)).collect();
    let cur_cells: BTreeMap<&str, &CellReport> =
        current.cells.iter().map(|c| (c.id.as_str(), c)).collect();

    for id in base_cells.keys() {
        if !cur_cells.contains_key(*id) {
            out.notes.push(format!("cell `{id}` is in the baseline but not the current run"));
        }
    }
    for id in cur_cells.keys() {
        if !base_cells.contains_key(*id) {
            out.notes.push(format!("cell `{id}` is new (not in the baseline)"));
        }
    }

    // Wall shares over the *common* cells only, so a truncated or
    // re-gridded run compares apples to apples.
    let common: Vec<(&CellReport, &CellReport)> = baseline
        .cells
        .iter()
        .filter_map(|b| cur_cells.get(b.id.as_str()).map(|c| (b, *c)))
        .collect();
    let base_total: f64 = common.iter().map(|(b, _)| b.warm_wall.as_secs_f64()).sum();
    let cur_total: f64 = common.iter().map(|(_, c)| c.warm_wall.as_secs_f64()).sum();

    for (base, cur) in &common {
        exact(&mut out, cur, "cases", base.cases, cur.cases);
        exact(&mut out, cur, "quotient_nodes", base.quotient_nodes, cur.quotient_nodes);
        exact(&mut out, cur, "warm_hits", base.warm_hits, cur.warm_hits);
        exact(&mut out, cur, "warm_misses", base.warm_misses, cur.warm_misses);
        exact(&mut out, cur, "messages", base.messages, cur.messages);
        exact(&mut out, cur, "message_bytes", base.message_bytes, cur.message_bytes);
        if base.byte_identical != cur.byte_identical {
            out.push(
                cur,
                "byte_identical",
                base.byte_identical,
                cur.byte_identical,
                "warm replay no longer reproduces the cold pass byte for byte",
            );
        }

        if base_total <= 0.0 || cur_total <= 0.0 {
            continue;
        }
        let base_share = base.warm_wall.as_secs_f64() / base_total;
        let cur_share = cur.warm_wall.as_secs_f64() / cur_total;
        if base_share < MIN_SHARE {
            continue;
        }
        let deviation = (cur_share - base_share) / base_share;
        if deviation.abs() > band && (cur_share - base_share).abs() > SHARE_SLACK {
            out.push(
                cur,
                "wall_share",
                format!("{:.4}", base_share),
                format!("{:.4}", cur_share),
                format!(
                    "cell's share of campaign wall moved {:+.1}% (band ±{:.0}%)",
                    deviation * 100.0,
                    band * 100.0
                ),
            );
        }
    }

    out
}

/// Renders an outcome for terminal output.
pub fn render(outcome: &DiffOutcome) -> String {
    let mut out = String::new();
    for note in &outcome.notes {
        out.push_str(&format!("note: {note}\n"));
    }
    if outcome.passed() {
        out.push_str("soak gate: PASS\n");
    } else {
        out.push_str(&format!("soak gate: FAIL ({} regressions)\n", outcome.regressions.len()));
        for r in &outcome.regressions {
            out.push_str(&format!("  {r}\n"));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::OracleFailure;
    use std::time::Duration;

    /// Four equal-wall cells: each holds a 25% share, so perturbing one
    /// by +30% moves shares well past the 15% band while the untouched
    /// cells stay inside it.
    fn fixture() -> SoakReport {
        let cell = |i: usize| CellReport {
            id: format!("family=cycle,n={},color=greedy,lift=1,adv=fair,threads=1", i + 3),
            replay: format!("tc1:family=cycle,n={},seed={},color=greedy,lift=1,adv=fair", i + 3, i),
            cases: 2,
            quotient_nodes: 3,
            byte_identical: true,
            cold_hits: 1,
            cold_misses: 1,
            warm_hits: 2,
            warm_misses: 0,
            disk_hits: 0,
            messages: 10 + i as u64,
            message_bytes: 80 + i as u64,
            wall: Duration::from_millis(10),
            warm_wall: Duration::from_millis(10),
            job_wall_median: Duration::from_millis(5),
            job_wall_p95: Duration::from_millis(9),
            update_graph: Duration::from_micros(100),
        };
        SoakReport {
            base_seed: 0xA11CE,
            reps: 2,
            budget_secs: None,
            truncated: false,
            cells: (0..4).map(cell).collect(),
            skipped: vec![],
            failures: vec![],
            total_wall: Duration::from_millis(40),
        }
    }

    #[test]
    fn identity_diff_passes_clean() {
        let report = fixture();
        let outcome = diff(&report, &report, DEFAULT_BAND);
        assert!(outcome.passed(), "identity diff must pass: {:?}", outcome.regressions);
        assert!(outcome.notes.is_empty(), "identity diff must be silent: {:?}", outcome.notes);
    }

    /// Satellite check: a +30% wall perturbation on one cell is flagged
    /// as exactly that cell, with its replay string, and nothing else.
    #[test]
    fn sentinel_flags_exactly_the_perturbed_cell() {
        let baseline = fixture();
        let mut current = fixture();
        current.cells[2].warm_wall = Duration::from_millis(13); // +30%
        let outcome = diff(&current, &baseline, DEFAULT_BAND);
        assert!(!outcome.passed());
        assert_eq!(
            outcome.regressions.len(),
            1,
            "only the perturbed cell: {:?}",
            outcome.regressions
        );
        let r = &outcome.regressions[0];
        assert_eq!(r.cell, baseline.cells[2].id);
        assert_eq!(r.replay, baseline.cells[2].replay);
        assert_eq!(r.replay, "tc1:family=cycle,n=5,seed=2,color=greedy,lift=1,adv=fair");
        assert_eq!(r.field, "wall_share");
    }

    /// Satellite check: flipping `byte_identical` fails the gate even
    /// though no timing moved.
    #[test]
    fn sentinel_flags_byte_identity_flips() {
        let baseline = fixture();
        let mut current = fixture();
        current.cells[1].byte_identical = false;
        let outcome = diff(&current, &baseline, DEFAULT_BAND);
        assert_eq!(outcome.regressions.len(), 1);
        let r = &outcome.regressions[0];
        assert_eq!(r.field, "byte_identical");
        assert_eq!(r.cell, baseline.cells[1].id);
        assert_eq!(r.replay, baseline.cells[1].replay);
    }

    #[test]
    fn sentinel_flags_warm_hit_count_changes() {
        let baseline = fixture();
        let mut current = fixture();
        current.cells[0].warm_hits = 1;
        current.cells[0].warm_misses = 1;
        let outcome = diff(&current, &baseline, DEFAULT_BAND);
        let fields: Vec<&str> = outcome.regressions.iter().map(|r| r.field.as_str()).collect();
        assert!(fields.contains(&"warm_hits"));
        assert!(fields.contains(&"warm_misses"));
    }

    #[test]
    fn oracle_failures_always_regress() {
        let baseline = fixture();
        let mut current = fixture();
        current.failures.push(OracleFailure {
            cell: current.cells[0].id.clone(),
            replay: current.cells[0].replay.clone(),
            oracle: "renumbering-invariance".into(),
            detail: "outputs differ at node 1".into(),
        });
        let outcome = diff(&current, &baseline, DEFAULT_BAND);
        assert_eq!(outcome.regressions.len(), 1);
        assert_eq!(outcome.regressions[0].field, "oracle:renumbering-invariance");
        assert!(outcome.regressions[0].replay.starts_with("tc1:"));
    }

    /// Timer jitter on micro-cells: a share move that is large
    /// relatively but under the absolute slack is not flagged.
    #[test]
    fn micro_cell_jitter_stays_inside_the_slack() {
        let mut baseline = fixture();
        let mut current = fixture();
        // 100 equal micro-cells: each share ~1%; ±30% relative jitter on
        // one cell moves its share by ~0.3 points — inside the slack.
        for r in [&mut baseline, &mut current] {
            for (i, c) in r.cells.iter_mut().enumerate() {
                c.id = format!("cell-{i}");
                c.warm_wall = Duration::from_micros(100);
            }
            for i in 4..100 {
                let mut c = r.cells[0].clone();
                c.id = format!("cell-{i}");
                r.cells.push(c);
            }
        }
        current.cells[7].warm_wall = Duration::from_micros(130);
        let outcome = diff(&current, &baseline, DEFAULT_BAND);
        assert!(outcome.passed(), "micro jitter is not gated: {:?}", outcome.regressions);

        // A real blowup (50x) on the same micro-cell still fails.
        current.cells[7].warm_wall = Duration::from_micros(5000);
        let outcome = diff(&current, &baseline, DEFAULT_BAND);
        assert_eq!(outcome.regressions.len(), 1);
        assert_eq!(outcome.regressions[0].cell, "cell-7");
    }

    #[test]
    fn uniform_slowdown_cancels_out() {
        let baseline = fixture();
        let mut current = fixture();
        for c in &mut current.cells {
            c.warm_wall *= 3; // same machine-speed factor everywhere
        }
        let outcome = diff(&current, &baseline, DEFAULT_BAND);
        assert!(
            outcome.passed(),
            "uniform slowdown is not a regression: {:?}",
            outcome.regressions
        );
    }

    #[test]
    fn structural_drift_is_notes_not_failure() {
        let baseline = fixture();
        let mut current = fixture();
        let dropped = current.cells.pop().expect("fixture has cells");
        let outcome = diff(&current, &baseline, DEFAULT_BAND);
        assert!(outcome.passed());
        assert!(outcome.notes.iter().any(|n| n.contains(&dropped.id)));

        let outcome = diff(&baseline, &current, DEFAULT_BAND);
        assert!(outcome.passed());
        assert!(outcome.notes.iter().any(|n| n.contains("new")));
    }
}
