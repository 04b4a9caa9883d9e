//! # anonet-bench
//!
//! Experiment harness regenerating every figure and theorem of
//! *"Anonymous Networks: Randomization = 2-Hop Coloring"* (PODC 2014).
//!
//! The paper is a theory paper: its artifacts are Figures 1–3 and the
//! theorem/lemma structure, not empirical tables. Each experiment module
//! regenerates one artifact programmatically and/or validates one claim
//! empirically, printing the tables recorded in `EXPERIMENTS.md`:
//!
//! | Id | Module | Paper artifact |
//! |----|--------|----------------|
//! | E1 | [`experiments::fig1`] | Figure 1 (depth-3 local view in colored C6) |
//! | E2 | [`experiments::fig2`] | Figure 2 (C12 ⪰ C6 ⪰ C3 factorization) |
//! | E3 | [`experiments::thm1_faithful`] | Figure 3 / Theorem 1 (`A_*`) |
//! | E4 | [`experiments::thm1_pipeline`] | Theorem 1 end-to-end pipeline |
//! | E5 | [`experiments::thm2`] | Theorem 2 (`A_∞`) |
//! | E6 | [`experiments::norris`] | Theorem 3 (Norris depth bound) |
//! | E7 | [`experiments::lemmas`] | Lemmas 2–4 (unique prime factor) |
//! | E8 | [`experiments::lifting`] | Fact 1 / lifting lemma |
//! | E9 | [`experiments::agreement`] | `A_*` ≡ practical derandomizer |
//! | E10 | [`experiments::twohop`] | The Las-Vegas 2-hop coloring stage |
//! | E11 | [`experiments::gran`] | GRAN members & the leader-election gap |
//! | E12 | [`experiments::khop`] | k-hop coloring for k > 2 ∉ GRAN |
//! | E13 | [`experiments::distributed`] | message-level derandomizer (extension) |
//! | E14 | [`experiments::montecarlo`] | the Monte-Carlo / Las-Vegas gap |
//! | E15 | [`experiments::batch`] | batch engine + s(G_*) cache (Lemma 3 operationalized) |
//! | E16 | [`experiments::obs`] | observability layer: bridged engine counters, curves, histograms |
//! | E17 | [`experiments::astar`] | fast Update-Graph engine: pool memo, interning, fast ≡ reference |
//! | E18 | [`experiments::store`] | persistent store: cold vs warm-start across processes |
//! | E19 | [`experiments::soak`] | seeded soak campaign + the `BENCH_soak.json` regression baseline |
//! | E20 | [`experiments::trace`] | causal tracing: the flight ring + the anonet-trace round trip |
//! | E21 | [`experiments::scale`] | million-node core: layered view ids vs `ViewTree` bytes, flat refinement kernel vs the full-history reference |
//!
//! Run them with `cargo run -p anonet-bench --bin report -- <id>... | all`.
//! E15–E18, E20 and E21 write `BENCH_*.json` files that record counts,
//! flags and digests only, so CI regenerates them and diffs them against
//! the committed copies. Timing lives in `perfbench/`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiments;
mod table;

pub use table::{Json, Table};

/// All experiment ids, in presentation order.
pub const EXPERIMENT_IDS: &[&str] = &[
    "fig1",
    "fig2",
    "thm1-faithful",
    "thm1-pipeline",
    "thm2",
    "norris",
    "lemmas",
    "lifting",
    "agreement",
    "twohop",
    "gran",
    "khop",
    "message-level",
    "montecarlo",
    "batch",
    "obs",
    "astar",
    "store",
    "soak",
    "trace",
    "scale",
];

/// Runs one experiment by id, returning its rendered report.
///
/// # Errors
///
/// Returns a boxed error if the experiment fails (they should not; every
/// failure is a reproduction regression) or the id is unknown.
pub fn run_experiment(id: &str) -> Result<String, Box<dyn std::error::Error>> {
    match id {
        "fig1" => experiments::fig1::report(),
        "fig2" => experiments::fig2::report(),
        "thm1-faithful" => experiments::thm1_faithful::report(),
        "thm1-pipeline" => experiments::thm1_pipeline::report(),
        "thm2" => experiments::thm2::report(),
        "norris" => experiments::norris::report(),
        "lemmas" => experiments::lemmas::report(),
        "lifting" => experiments::lifting::report(),
        "agreement" => experiments::agreement::report(),
        "twohop" => experiments::twohop::report(),
        "gran" => experiments::gran::report(),
        "khop" => experiments::khop::report(),
        "message-level" => experiments::distributed::report(),
        "montecarlo" => experiments::montecarlo::report(),
        "batch" => experiments::batch::report(),
        "obs" => experiments::obs::report(),
        "astar" => experiments::astar::report(),
        "store" => experiments::store::report(),
        "soak" => experiments::soak::report(),
        "trace" => experiments::trace::report(),
        "scale" => experiments::scale::report(),
        other => Err(format!("unknown experiment id {other:?}; known: {EXPERIMENT_IDS:?}").into()),
    }
}
