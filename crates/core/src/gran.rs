//! GRAN — *Genuinely solvable by Randomized algorithms in Anonymous
//! Networks* (paper, Section 1.1).
//!
//! A problem `Π` is in GRAN when both `Π` itself and the decision problem
//! `Δ_Π` ("is this labeled graph an instance of `Π`?") have Las-Vegas
//! anonymous solutions. This module packages that pair ([`Gran`]) and
//! implements the observation that makes `A_*`'s condition C3 decidable:
//! a Las-Vegas decider can be *derandomized by simulation* — enumerate
//! bit tapes until one produces outputs everywhere; any successful
//! Las-Vegas run is correct, so its verdict can be trusted
//! ([`decide_by_simulation`]).

use anonet_graph::{Label, LabeledGraph, NodeId};
use anonet_runtime::{
    run, BitAssignment, DecisionOutput, ExecConfig, Oblivious, ObliviousAlgorithm, Problem,
    TapeSource,
};

use crate::error::CoreError;
use crate::search::first_extension;
use crate::Result;

/// A GRAN membership witness: the problem `Π`, a Las-Vegas solver for it,
/// and a Las-Vegas decider for `Δ_Π`.
#[derive(Clone, Debug)]
pub struct Gran<P, S, D> {
    /// The problem specification.
    pub problem: P,
    /// A Las-Vegas anonymous algorithm solving `Π`.
    pub solver: S,
    /// A Las-Vegas anonymous algorithm solving `Δ_Π`.
    pub decider: D,
}

impl<P, S, D> Gran<P, S, D>
where
    P: Problem,
    S: ObliviousAlgorithm<Input = P::Input, Output = P::Output>,
    D: ObliviousAlgorithm<Input = P::Input, Output = DecisionOutput> + Clone,
    P::Input: Label,
{
    /// Bundles the three witnesses.
    pub fn new(problem: P, solver: S, decider: D) -> Self {
        Gran { problem, solver, decider }
    }

    /// Decides instance membership deterministically by simulating the
    /// decider (see [`decide_by_simulation`]).
    ///
    /// # Errors
    ///
    /// Propagates the search-budget error if no simulation succeeds.
    pub fn decide(
        &self,
        g: &LabeledGraph<P::Input>,
        max_total_bits: usize,
        config: &ExecConfig,
    ) -> Result<bool> {
        decide_by_simulation(&self.decider, g, max_total_bits, config)
    }
}

/// Derandomizes a Las-Vegas decider on one labeled graph: enumerates bit
/// assignments in the canonical order (length first, then lexicographic
/// in node-id order — any fixed order suffices here because this runs on
/// an explicitly given graph, not inside an anonymous node) and returns
/// the verdict of the first successful simulation.
///
/// Correctness: a Las-Vegas algorithm's *every* successful execution
/// produces a valid output, so the first successful simulation's verdict
/// is authoritative — this is exactly why `A_*` can check condition C3.
///
/// # Errors
///
/// [`CoreError::SearchBudgetExceeded`] when `n·t` exceeds
/// `max_total_bits` (or reaches 64) without a successful simulation.
pub fn decide_by_simulation<D>(
    decider: &D,
    g: &LabeledGraph<D::Input>,
    max_total_bits: usize,
    config: &ExecConfig,
) -> Result<bool>
where
    D: ObliviousAlgorithm<Output = DecisionOutput> + Clone,
    D::Input: Label,
{
    let n = g.node_count();
    let order: Vec<NodeId> = g.graph().nodes().collect();
    let empty = BitAssignment::empty(n);
    for t in 1.. {
        if n * t > max_total_bits {
            return Err(CoreError::SearchBudgetExceeded { quotient_nodes: n, max_total_bits });
        }
        if let Some((assignment, _)) =
            first_extension(decider, g, &empty, t, &order, config, max_total_bits)?
        {
            let mut src = TapeSource::new(assignment);
            let exec = run(&Oblivious(decider.clone()), g, &mut src, config)?;
            return Ok(exec.outputs().iter().all(|o| *o == Some(DecisionOutput::Yes)));
        }
    }
    unreachable!("the loop over t only exits via return")
}

/// The trivial decider for problems whose instance set is *every*
/// connected labeled graph (MIS, coloring, 2-hop coloring): all nodes
/// immediately answer Yes. Deterministic, one round.
#[derive(Clone, Copy, Debug, Default)]
pub struct TrivialDecider<I> {
    _marker: std::marker::PhantomData<fn() -> I>,
}

impl<I> TrivialDecider<I> {
    /// Creates the decider.
    pub fn new() -> Self {
        TrivialDecider { _marker: std::marker::PhantomData }
    }
}

impl<I: Label + std::fmt::Debug> ObliviousAlgorithm for TrivialDecider<I> {
    type Input = I;
    type Message = ();
    type Output = DecisionOutput;
    type State = ();

    fn init(&self, _input: &I, _degree: usize) {}
    fn broadcast(&self, _state: &()) -> Option<()> {
        None
    }
    fn step(
        &self,
        _state: (),
        _round: usize,
        _received: &[&()],
        _bit: bool,
        actions: &mut Actions<DecisionOutput>,
    ) {
        actions.output(DecisionOutput::Yes);
        actions.halt();
    }
}

use anonet_runtime::Actions;

/// GRAN witness for maximal independent set: the Las-Vegas solver plus
/// the trivial decider (every connected graph is an instance).
pub fn mis_witness() -> Gran<
    anonet_algorithms::problems::MisProblem,
    anonet_algorithms::mis::RandomizedMis,
    TrivialDecider<()>,
> {
    Gran::new(
        anonet_algorithms::problems::MisProblem,
        anonet_algorithms::mis::RandomizedMis::new(),
        TrivialDecider::new(),
    )
}

/// GRAN witness for greedy proper coloring.
pub fn coloring_witness() -> Gran<
    anonet_algorithms::problems::GreedyColoringProblem,
    anonet_algorithms::coloring::RandomizedColoring,
    TrivialDecider<()>,
> {
    Gran::new(
        anonet_algorithms::problems::GreedyColoringProblem,
        anonet_algorithms::coloring::RandomizedColoring::new(),
        TrivialDecider::new(),
    )
}

/// GRAN witness for 2-hop coloring — the paper's central problem.
pub fn two_hop_witness() -> Gran<
    anonet_algorithms::problems::TwoHopColoringProblem,
    anonet_algorithms::two_hop_coloring::TwoHopColoring,
    TrivialDecider<()>,
> {
    Gran::new(
        anonet_algorithms::problems::TwoHopColoringProblem,
        anonet_algorithms::two_hop_coloring::TwoHopColoring::new(),
        TrivialDecider::new(),
    )
}

/// GRAN witness for maximal matching on 2-hop colored instances: the
/// decider is the distributed 2-hop coloring verifier — instance
/// membership is exactly "the inputs 2-hop color the graph".
pub fn matching_witness() -> Gran<
    anonet_algorithms::matching::MatchingProblem,
    anonet_algorithms::matching::RandomizedMatching<u32>,
    anonet_algorithms::verify::TwoHopColoringVerifier<u32>,
> {
    Gran::new(
        anonet_algorithms::matching::MatchingProblem,
        anonet_algorithms::matching::RandomizedMatching::new(),
        anonet_algorithms::verify::TwoHopColoringVerifier::new(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use anonet_algorithms::mis::RandomizedMis;
    use anonet_algorithms::problems::MisProblem;
    use anonet_graph::generators;

    /// Deterministic decider for "every node is labeled 7": one round of
    /// local checking (no communication even needed; included to exercise
    /// the simulation path).
    #[derive(Clone, Debug)]
    struct AllSevens;

    impl ObliviousAlgorithm for AllSevens {
        type Input = u32;
        type Message = ();
        type Output = DecisionOutput;
        type State = u32;

        fn init(&self, input: &u32, _degree: usize) -> u32 {
            *input
        }
        fn broadcast(&self, _state: &u32) -> Option<()> {
            None
        }
        fn step(
            &self,
            state: u32,
            _round: usize,
            _received: &[&()],
            _bit: bool,
            actions: &mut Actions<DecisionOutput>,
        ) -> u32 {
            actions.output(if state == 7 { DecisionOutput::Yes } else { DecisionOutput::No });
            actions.halt();
            state
        }
    }

    #[test]
    fn decide_by_simulation_returns_correct_verdicts() {
        let yes = generators::cycle(4).unwrap().with_uniform_label(7u32);
        let no = generators::cycle(4).unwrap().with_labels(vec![7, 7, 8, 7]).unwrap();
        let cfg = ExecConfig::default();
        assert!(decide_by_simulation(&AllSevens, &yes, 16, &cfg).unwrap());
        assert!(!decide_by_simulation(&AllSevens, &no, 16, &cfg).unwrap());
    }

    /// A decider that wastes one random bit per node before answering Yes
    /// — exercises the tape enumeration.
    #[derive(Clone, Debug)]
    struct CoinThenYes;

    impl ObliviousAlgorithm for CoinThenYes {
        type Input = u32;
        type Message = ();
        type Output = DecisionOutput;
        type State = bool;

        fn init(&self, _input: &u32, _degree: usize) -> bool {
            false
        }
        fn broadcast(&self, _state: &bool) -> Option<()> {
            None
        }
        fn step(
            &self,
            _state: bool,
            round: usize,
            _received: &[&()],
            bit: bool,
            actions: &mut Actions<DecisionOutput>,
        ) -> bool {
            // Answer in round 2 only if round 1's coin was heads;
            // otherwise keep flipping (Las-Vegas delay).
            if round >= 2 || bit {
                actions.output(DecisionOutput::Yes);
                actions.halt();
            }
            bit
        }
    }

    #[test]
    fn simulation_search_handles_randomized_deciders() {
        let g = generators::path(3).unwrap().with_uniform_label(0u32);
        assert!(decide_by_simulation(&CoinThenYes, &g, 12, &ExecConfig::default()).unwrap());
    }

    #[test]
    fn budget_is_enforced() {
        /// Never outputs: no simulation ever succeeds.
        #[derive(Clone, Debug)]
        struct Mute;
        impl ObliviousAlgorithm for Mute {
            type Input = u32;
            type Message = ();
            type Output = DecisionOutput;
            type State = ();
            fn init(&self, _: &u32, _: usize) {}
            fn broadcast(&self, _: &()) -> Option<()> {
                None
            }
            fn step(&self, _: (), _: usize, _: &[&()], _: bool, _: &mut Actions<DecisionOutput>) {}
        }
        let g = generators::path(2).unwrap().with_uniform_label(0u32);
        let err = decide_by_simulation(&Mute, &g, 6, &ExecConfig::with_max_rounds(10)).unwrap_err();
        assert!(matches!(err, CoreError::SearchBudgetExceeded { .. }));
    }

    #[test]
    fn code_spaces_of_64_bits_exceed_any_budget() {
        let g = generators::cycle(64).unwrap().with_uniform_label(7u32);
        let err = decide_by_simulation(&AllSevens, &g, 100, &ExecConfig::default()).unwrap_err();
        assert_eq!(
            err,
            CoreError::SearchBudgetExceeded { quotient_nodes: 64, max_total_bits: 100 }
        );
    }

    #[test]
    fn witnesses_decide_membership_correctly() {
        let cfg = ExecConfig::default();
        // Unit-instance problems: everything is an instance.
        let g = generators::cycle(5).unwrap().with_uniform_label(());
        assert!(mis_witness().decide(&g, 16, &cfg).unwrap());
        assert!(coloring_witness().decide(&g, 16, &cfg).unwrap());
        assert!(two_hop_witness().decide(&g, 16, &cfg).unwrap());

        // Matching: instance iff the inputs 2-hop color the graph. The
        // decider's verdict must agree with the problem's predicate.
        use anonet_runtime::Problem;
        let w = matching_witness();
        let colored = anonet_graph::coloring::greedy_two_hop_coloring(&generators::petersen());
        assert!(w.decide(&colored, 40, &cfg).unwrap());
        assert!(w.problem.is_instance(&colored));
        let bad = generators::cycle(4).unwrap().with_labels(vec![1u32, 2, 1, 2]).unwrap();
        assert!(!w.decide(&bad, 16, &cfg).unwrap());
        assert!(!w.problem.is_instance(&bad));
    }

    #[test]
    fn gran_bundle_composes() {
        /// Trivial decider: every connected graph is a MIS instance.
        #[derive(Clone, Debug)]
        struct AlwaysYes;
        impl ObliviousAlgorithm for AlwaysYes {
            type Input = ();
            type Message = ();
            type Output = DecisionOutput;
            type State = ();
            fn init(&self, _: &(), _: usize) {}
            fn broadcast(&self, _: &()) -> Option<()> {
                None
            }
            fn step(
                &self,
                _: (),
                _: usize,
                _: &[&()],
                _: bool,
                actions: &mut Actions<DecisionOutput>,
            ) {
                actions.output(DecisionOutput::Yes);
                actions.halt();
            }
        }
        let gran = Gran::new(MisProblem, RandomizedMis::new(), AlwaysYes);
        let g = generators::cycle(5).unwrap().with_uniform_label(());
        assert!(gran.decide(&g, 16, &ExecConfig::default()).unwrap());
        assert!(gran.problem.is_instance(&g));
    }
}
