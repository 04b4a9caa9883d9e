//! Differential oracles tying the paper's three faces of derandomization
//! together: the engineering-grade [`Derandomizer`], the infinity-model
//! `A_∞` ([`solve_infinity`](crate::infinity::solve_infinity)), and the
//! literal `A_*` ([`run_astar`](crate::astar::run_astar)).
//!
//! Each oracle returns `Ok` when the two sides agree and a
//! [`CoreError::ConformanceMismatch`](crate::CoreError::ConformanceMismatch)
//! naming the oracle and the first disagreeing node otherwise. They are
//! the core entry points of `anonet-testkit`, but are plain library
//! functions — usable from any test or experiment.

use anonet_graph::{BitString, Label, LabeledGraph};
use anonet_runtime::Problem;
use anonet_runtime::{run, BitAssignment, ExecConfig, Oblivious, ObliviousAlgorithm, TapeSource};
use anonet_views::{quotient, ViewMode};

use crate::astar::{run_astar, run_astar_reference, AStarConfig, AStarRun};
use crate::derandomizer::{DerandomizedRun, Derandomizer};
use crate::error::CoreError;
use crate::infinity::solve_infinity;
use crate::search::SearchStrategy;
use crate::Result;

fn mismatch(oracle: &str, detail: String) -> CoreError {
    CoreError::ConformanceMismatch { oracle: oracle.to_string(), detail }
}

/// **View-graph agreement** — the general form of `A_* ≡ A_∞`.
///
/// The quotient of a 2-hop colored instance is itself a 2-hop colored
/// *prime* instance, and the derandomizer is a pure function of views; so
/// derandomizing the instance and derandomizing its own quotient
/// presentation must select the same canonical simulation, giving
///
/// ```text
/// derand(I).outputs[v] == derand(G_*).outputs[class_of(v)]   for all v.
/// ```
///
/// Unlike the exhaustive `A_∞` differential this holds for **every**
/// algorithm and strategy (including ones whose tapes are too long to
/// enumerate), which is what makes it the workhorse oracle.
///
/// Returns the instance's own run on success, so callers can chain
/// further oracles without re-deriving it.
///
/// # Errors
///
/// Any [`Derandomizer::run`] error, or
/// [`CoreError::ConformanceMismatch`] on disagreement.
pub fn view_graph_agreement<A, C>(
    alg: &A,
    instance: &LabeledGraph<(A::Input, C)>,
    strategy: SearchStrategy,
    config: &ExecConfig,
) -> Result<DerandomizedRun<A::Output>>
where
    A: ObliviousAlgorithm + Clone,
    A::Input: Label,
    C: Label,
{
    let q = quotient(instance, ViewMode::Portless)?;
    let d = Derandomizer::new(alg.clone()).with_strategy(strategy).with_config(*config);
    let full = d.run(instance)?;
    let on_quotient = d.run(q.graph())?;
    for (v, &c) in q.class_of().iter().enumerate() {
        if full.outputs[v] != on_quotient.outputs[c.index()] {
            return Err(mismatch(
                "view-graph-agreement",
                format!(
                    "node {v} (class {}): instance output {:?} != quotient output {:?}",
                    c.index(),
                    full.outputs[v],
                    on_quotient.outputs[c.index()]
                ),
            ));
        }
    }
    Ok(full)
}

/// **Randomized replay** — the lifting lemma as an executable check.
///
/// Lifts the derandomizer's canonical quotient assignment along the
/// projection to a full-instance tape, replays the *randomized* algorithm
/// on the real network with that tape, and demands byte-equal outputs.
/// This ties the derandomizer to the live engine: the canonical
/// simulation is not just internally consistent, it is a genuine
/// execution of `A_R` that the runtime reproduces.
///
/// # Errors
///
/// [`CoreError::ConformanceMismatch`] if the replay fails to complete or
/// disagrees with `drun.outputs`.
pub fn replay_on_full_instance<A, C>(
    alg: &A,
    instance: &LabeledGraph<(A::Input, C)>,
    drun: &DerandomizedRun<A::Output>,
    config: &ExecConfig,
) -> Result<()>
where
    A: ObliviousAlgorithm + Clone,
    A::Input: Label,
    C: Label,
{
    let q = quotient(instance, ViewMode::Portless)?;
    let tapes: Vec<BitString> = q
        .class_of()
        .iter()
        .map(|&c| drun.assignment.tape(c).cloned().unwrap_or_default())
        .collect();
    let mut source = TapeSource::new(BitAssignment::new(tapes));
    let inputs = instance.map_labels(|(i, _)| i.clone());
    let exec = run(&Oblivious(alg.clone()), &inputs, &mut source, config)?;
    if !exec.is_successful() {
        return Err(mismatch(
            "randomized-replay",
            format!("lifted tape replay did not complete: status {:?}", exec.status()),
        ));
    }
    let outputs = exec.outputs_unwrapped();
    for (v, (got, want)) in outputs.iter().zip(drun.outputs.iter()).enumerate() {
        if got != want {
            return Err(mismatch(
                "randomized-replay",
                format!("node {v}: replayed output {got:?} != derandomized output {want:?}"),
            ));
        }
    }
    Ok(())
}

/// **`A_* ≡ A_∞`, literally** — the paper-exact differential.
///
/// Runs the faithful phase-structured `A_*` (Figure 3) and the
/// infinity-model `A_∞` (exhaustive minimal assignment) on the same
/// instance and demands identical outputs. Feasible only where both are:
/// tiny quotients (3–4 nodes) and short tapes, i.e. MIS/matching-class
/// algorithms — use [`view_graph_agreement`] everywhere else.
///
/// Returns the agreed outputs.
///
/// # Errors
///
/// Budget errors from either side, or [`CoreError::ConformanceMismatch`].
pub fn astar_infinity_agreement<A, P, C>(
    alg: &A,
    problem: &P,
    instance: &LabeledGraph<(A::Input, C)>,
    astar_cfg: &AStarConfig,
    max_total_bits: usize,
) -> Result<Vec<A::Output>>
where
    A: ObliviousAlgorithm + Clone,
    A::Input: Label,
    P: Problem<Input = A::Input>,
    C: Label,
{
    let astar = run_astar(alg, problem, instance, astar_cfg)?;
    let inf = solve_infinity(alg, instance, max_total_bits, &astar_cfg.sim_config)?;
    for (v, (a, b)) in astar.outputs.iter().zip(inf.outputs.iter()).enumerate() {
        if a != b {
            return Err(mismatch(
                "astar-infinity",
                format!("node {v}: A_* output {a:?} != A_infinity output {b:?}"),
            ));
        }
    }
    Ok(astar.outputs)
}

/// **Fast `A_*` ≡ reference `A_*`** — the memoized engine against the
/// literal Figure-3 enumeration, byte-for-byte.
///
/// Runs [`run_astar_reference`] and [`run_astar`] and demands equality of
/// *every* observable field of the run — outputs, output phases, phase
/// count, equivalent rounds, and the final bitstrings at byte level. One
/// engine erroring while the other succeeds is a mismatch; both erroring propagates the reference's error (the suite
/// treats budget errors as out-of-scope, mismatches as failures).
///
/// Returns the agreed run.
///
/// # Errors
///
/// Budget/view errors when both engines fail, or
/// [`CoreError::ConformanceMismatch`] (oracle `astar-fast-vs-reference`).
pub fn astar_fast_reference_agreement<A, P, C>(
    alg: &A,
    problem: &P,
    instance: &LabeledGraph<(A::Input, C)>,
    astar_cfg: &AStarConfig,
) -> Result<AStarRun<A::Output>>
where
    A: ObliviousAlgorithm + Clone,
    A::Input: Label,
    P: Problem<Input = A::Input>,
    C: Label,
{
    const ORACLE: &str = "astar-fast-vs-reference";
    let reference = run_astar_reference(alg, problem, instance, astar_cfg);
    let fast = run_astar(alg, problem, instance, astar_cfg);
    let (reference, fast) = match (reference, fast) {
        (Ok(r), Ok(f)) => (r, f),
        (Err(e), Err(_)) => return Err(e),
        (Ok(_), Err(e)) => {
            return Err(mismatch(ORACLE, format!("fast engine failed, reference succeeded: {e}")));
        }
        (Err(e), Ok(_)) => {
            return Err(mismatch(ORACLE, format!("reference failed, fast engine succeeded: {e}")));
        }
    };
    compare_astar_runs(ORACLE, &fast, &reference)?;
    Ok(fast)
}

/// Byte-level equality of the fast run `got` and the reference run
/// `want`, every field.
fn compare_astar_runs<O: PartialEq + std::fmt::Debug>(
    oracle: &str,
    got: &AStarRun<O>,
    want: &AStarRun<O>,
) -> Result<()> {
    for (v, (a, b)) in got.outputs.iter().zip(want.outputs.iter()).enumerate() {
        if a != b {
            return Err(mismatch(
                oracle,
                format!("fast: node {v} output {a:?} != reference output {b:?}"),
            ));
        }
    }
    if got.output_phase != want.output_phase {
        return Err(mismatch(
            oracle,
            format!(
                "fast: output phases {:?} != reference {:?}",
                got.output_phase, want.output_phase
            ),
        ));
    }
    if got.phases_used != want.phases_used || got.equivalent_rounds != want.equivalent_rounds {
        return Err(mismatch(
            oracle,
            format!(
                "fast: phases/rounds ({}, {}) != reference ({}, {})",
                got.phases_used, got.equivalent_rounds, want.phases_used, want.equivalent_rounds
            ),
        ));
    }
    if got.final_bits != want.final_bits {
        return Err(mismatch(
            oracle,
            format!("fast: final bits {:?} != reference {:?}", got.final_bits, want.final_bits),
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use anonet_algorithms::coloring::RandomizedColoring;
    use anonet_algorithms::mis::RandomizedMis;
    use anonet_algorithms::problems::MisProblem;
    use anonet_graph::{coloring, generators};

    fn lifted_c3(m: usize) -> LabeledGraph<((), u32)> {
        let l = anonet_graph::lift::cyclic_cycle_lift(3, m).unwrap();
        l.lift_labels(&[((), 1u32), ((), 2), ((), 3)]).unwrap()
    }

    #[test]
    fn view_graph_agreement_holds_for_mis_and_coloring() {
        let cfg = ExecConfig::default();
        for m in 1..=4 {
            let inst = lifted_c3(m);
            view_graph_agreement(&RandomizedMis::new(), &inst, SearchStrategy::default(), &cfg)
                .unwrap();
            view_graph_agreement(
                &RandomizedColoring::new(),
                &inst,
                SearchStrategy::default(),
                &cfg,
            )
            .unwrap();
        }
        // Also on a trivial-quotient (prime) instance.
        let g = generators::petersen();
        let inst = g.with_uniform_label(()).zip(&coloring::greedy_two_hop_coloring(&g)).unwrap();
        view_graph_agreement(
            &RandomizedMis::new(),
            &inst,
            SearchStrategy::default(),
            &ExecConfig::default(),
        )
        .unwrap();
    }

    #[test]
    fn replay_reproduces_derandomized_outputs() {
        let cfg = ExecConfig::default();
        let inst = lifted_c3(5);
        let drun = Derandomizer::new(RandomizedMis::new()).run(&inst).unwrap();
        replay_on_full_instance(&RandomizedMis::new(), &inst, &drun, &cfg).unwrap();
    }

    #[test]
    fn replay_detects_forged_outputs() {
        let cfg = ExecConfig::default();
        let inst = lifted_c3(2);
        let mut drun = Derandomizer::new(RandomizedMis::new()).run(&inst).unwrap();
        drun.outputs[0] = !drun.outputs[0];
        let err = replay_on_full_instance(&RandomizedMis::new(), &inst, &drun, &cfg).unwrap_err();
        assert!(matches!(err, CoreError::ConformanceMismatch { ref oracle, .. }
            if oracle == "randomized-replay"));
        assert!(err.to_string().contains("randomized-replay"));
    }

    #[test]
    fn fast_reference_agreement_holds_on_a_lifted_cycle() {
        // C6 as a 2-lift of the colored triangle: nontrivial fibers, a
        // 3-node quotient, and two distinct universes per phase.
        let run = astar_fast_reference_agreement(
            &RandomizedMis::new(),
            &MisProblem,
            &lifted_c3(2),
            &AStarConfig::default(),
        )
        .unwrap();
        assert_eq!(run.outputs.len(), 6);
    }

    #[test]
    fn astar_matches_infinity_on_small_quotients() {
        let outputs = astar_infinity_agreement(
            &RandomizedMis::new(),
            &MisProblem,
            &lifted_c3(3),
            &AStarConfig::default(),
            24,
        )
        .unwrap();
        assert_eq!(outputs.iter().filter(|&&b| b).count(), 3);
    }
}
