//! The message-level derandomizer: Theorem 1's deterministic stage as an
//! honest anonymous message-passing algorithm with **polynomial-size
//! messages**.
//!
//! The faithful `A_*` ([`crate::astar`]) needs no global knowledge but
//! pays for it with a doubly-exponential candidate search; the white-box
//! [`Derandomizer`](crate::derandomizer) is fast but lives on the
//! simulator side. This module closes the triangle: given a known upper
//! bound `N ≥ n` in every node's input (the classic *prior knowledge*
//! model the paper's related work discusses — Yamashita–Kameda, Boldi–
//! Vigna), the deterministic stage runs as a real protocol:
//!
//! 1. **Gather** (rounds `1 .. 2N+1`): nodes exchange *closed folded
//!    views* ([`FoldedView`]) — DAG-compressed exact views of `O(n·d·Δ)`
//!    size instead of `Δ^d` trees — extending depth by one per round;
//! 2. **Reconstruct**: from the depth-`(2N+2)` closed view, each node
//!    reads off the finite view graph `G_*` and its own class
//!    ([`FoldedView::quotient_at_level`]);
//! 3. **Simulate & lift**: each node runs the same canonical successful
//!    simulation of `A_R` on `G_*` locally and outputs its class's
//!    result.
//!
//! All three steps are functions of the gathered view, so every node
//! computes the same quotient and the same simulation (the paper's
//! Lemma 1), and the outputs equal the white-box derandomizer's — the
//! test suite asserts byte-for-byte agreement.
//!
//! Dropping the bound `N` is exactly what `A_*`'s candidate/bit machinery
//! is for: without it, early reconstructions can be *spuriously*
//! consistent (a periodically colored long path looks locally like a
//! small cycle), so a bound-free protocol must keep outputs consistent
//! via locked-in bit prefixes rather than quotient certainty.

use std::marker::PhantomData;

use anonet_graph::Label;
use anonet_runtime::{Actions, ExecConfig, ObliviousAlgorithm};
use anonet_views::{canonical_order, FoldedView, ViewMode};

use crate::search::{canonical_successful_simulation, SearchStrategy};

/// Local state of [`BoundedDerandomizer`].
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct BoundedState<I, C> {
    label: (I, C),
    bound: usize,
    view: FoldedView<(I, C)>,
    done: bool,
}

impl<I: Label, C: Label> BoundedState<I, C> {
    /// Depth of the currently gathered view.
    pub fn view_depth(&self) -> usize {
        self.view.depth()
    }
}

/// Theorem 1's deterministic stage as a message-passing algorithm with
/// folded-view messages; requires an upper bound `N ≥ n` in the input.
///
/// * **Input**: `((inner input, 2-hop color), N)`.
/// * **Output**: the derandomized output of the wrapped Las-Vegas
///   algorithm.
///
/// Deterministic: ignores its random bits. With a correct bound, outputs
/// equal the white-box [`Derandomizer`](crate::Derandomizer) under the
/// same [`SearchStrategy`]; with an *under*-estimated bound the protocol
/// may output inconsistently (garbage in, garbage out — see the module
/// docs for why the bound is load-bearing).
#[derive(Clone, Debug)]
pub struct BoundedDerandomizer<A, C> {
    alg: A,
    strategy: SearchStrategy,
    sim_config: ExecConfig,
    _marker: PhantomData<fn() -> C>,
}

impl<A, C> BoundedDerandomizer<A, C>
where
    A: ObliviousAlgorithm + Clone,
    A::Input: Label,
    C: Label,
{
    /// Wraps a Las-Vegas algorithm with the default (seeded) strategy.
    pub fn new(alg: A) -> Self {
        BoundedDerandomizer {
            alg,
            strategy: SearchStrategy::default(),
            sim_config: ExecConfig::default(),
            _marker: PhantomData,
        }
    }

    /// Overrides the canonical-simulation search strategy.
    pub fn with_strategy(mut self, strategy: SearchStrategy) -> Self {
        self.strategy = strategy;
        self
    }

    /// Attempts reconstruction + simulation on the current view; returns
    /// the node's output on success.
    fn try_solve(&self, state: &BoundedState<A::Input, C>) -> Option<A::Output> {
        let depth = state.view.depth();
        // Reconstruction level mirroring quotient_at_level's contract:
        // within a depth-d view use level (d - 2) / 2.
        let level = (depth.saturating_sub(2)) / 2;
        let (quotient, own) = state.view.quotient_at_level(level).ok()?;
        let order = canonical_order(&quotient, ViewMode::Portless).ok()?;
        let j = quotient.map_labels(|(i, _c)| i.clone());
        let sim =
            canonical_successful_simulation(&self.alg, &j, &order, self.strategy, &self.sim_config)
                .ok()?;
        sim.execution.output(own).cloned()
    }
}

impl<A, C> ObliviousAlgorithm for BoundedDerandomizer<A, C>
where
    A: ObliviousAlgorithm + Clone,
    A::Input: Label,
    C: Label,
{
    type Input = ((A::Input, C), usize);
    type Message = FoldedView<(A::Input, C)>;
    type Output = A::Output;
    type State = BoundedState<A::Input, C>;

    fn init(&self, input: &Self::Input, _degree: usize) -> Self::State {
        let (label, bound) = input.clone();
        BoundedState { view: FoldedView::leaf(label.clone()), label, bound, done: false }
    }

    fn broadcast(&self, state: &Self::State) -> Option<Self::Message> {
        (!state.done).then(|| state.view.clone())
    }

    fn step(
        &self,
        mut state: Self::State,
        _round: usize,
        received: &[&Self::Message],
        _bit: bool,
        actions: &mut Actions<Self::Output>,
    ) -> Self::State {
        if state.done {
            return state;
        }
        // Gather: extend by the neighbors' views plus the own view (the
        // self-loop of the *closed* view construction).
        let mut children = received.to_vec();
        children.push(&state.view);
        state.view = FoldedView::extend(state.label.clone(), &children);

        // From depth 2N+2 on, attempt reconstruction + simulation.
        if state.view.depth() >= 2 * state.bound + 2 {
            if let Some(output) = self.try_solve(&state) {
                actions.output(output);
                actions.halt();
                state.done = true;
            }
        }
        state
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::derandomizer::Derandomizer;
    use anonet_algorithms::mis::RandomizedMis;
    use anonet_algorithms::problems::MisProblem;
    use anonet_graph::{generators, LabeledGraph};
    use anonet_runtime::{run, Oblivious, Problem, Status, ZeroSource};

    fn colored_cycle(n: usize) -> LabeledGraph<((), u32)> {
        let labels: Vec<((), u32)> = (0..n).map(|i| ((), (i % 3) as u32 + 1)).collect();
        generators::cycle(n).unwrap().with_labels(labels).unwrap()
    }

    fn run_bounded(
        inst: &LabeledGraph<((), u32)>,
        bound: usize,
        strategy: SearchStrategy,
    ) -> anonet_runtime::Execution<Oblivious<BoundedDerandomizer<RandomizedMis, u32>>> {
        let with_bound = inst.map_labels(|l| (*l, bound));
        let alg = BoundedDerandomizer::<RandomizedMis, u32>::new(RandomizedMis::new())
            .with_strategy(strategy);
        run(&Oblivious(alg), &with_bound, &mut ZeroSource, &ExecConfig::default()).unwrap()
    }

    #[test]
    fn message_level_matches_white_box_derandomizer() {
        for n in [3usize, 6, 9, 12] {
            let inst = colored_cycle(n);
            let strategy = SearchStrategy::Exhaustive { max_total_bits: 24 };
            let exec = run_bounded(&inst, n, strategy);
            assert_eq!(exec.status(), Status::Completed, "n = {n}");
            assert!(exec.is_successful());
            let white_box =
                Derandomizer::new(RandomizedMis::new()).with_strategy(strategy).run(&inst).unwrap();
            assert_eq!(exec.outputs_unwrapped(), white_box.outputs, "n = {n}");
        }
    }

    #[test]
    fn outputs_are_valid_and_deterministic() {
        let inst = colored_cycle(12);
        let a = run_bounded(&inst, 12, SearchStrategy::default());
        let b = run_bounded(&inst, 12, SearchStrategy::default());
        assert_eq!(a.outputs(), b.outputs());
        let plain = inst.map_labels(|_| ());
        assert!(MisProblem.is_valid_output(&plain, &a.outputs_unwrapped()));
    }

    #[test]
    fn terminates_in_two_n_plus_one_rounds() {
        let inst = colored_cycle(6);
        let exec = run_bounded(&inst, 6, SearchStrategy::default());
        assert_eq!(exec.rounds(), 2 * 6 + 1);
    }

    #[test]
    fn loose_bounds_still_work() {
        // N may overestimate n; the protocol just gathers longer.
        let inst = colored_cycle(6);
        let exec = run_bounded(&inst, 10, SearchStrategy::default());
        assert!(exec.is_successful());
        let plain = inst.map_labels(|_| ());
        assert!(MisProblem.is_valid_output(&plain, &exec.outputs_unwrapped()));
    }

    #[test]
    fn works_on_lifts_with_nontrivial_quotients() {
        let l = anonet_graph::lift::cyclic_cycle_lift(3, 4).unwrap();
        let inst = l.lift_labels(&[((), 1u32), ((), 2), ((), 3)]).unwrap();
        let exec = run_bounded(&inst, 12, SearchStrategy::default());
        assert!(exec.is_successful());
        let outs = exec.outputs_unwrapped();
        // Fibers agree (views equal) and the result is a valid MIS.
        for (v, &img) in l.projection().iter().enumerate() {
            for (w, &img2) in l.projection().iter().enumerate() {
                if img == img2 {
                    assert_eq!(outs[v], outs[w]);
                }
            }
        }
        let plain = inst.map_labels(|_| ());
        assert!(MisProblem.is_valid_output(&plain, &outs));
    }

    #[test]
    fn works_on_prime_instances() {
        // All-distinct colors: the quotient is the graph itself; the
        // protocol effectively rebuilds the entire network from views.
        let inst = generators::cycle(5)
            .unwrap()
            .with_labels((0..5).map(|i| ((), i as u32)).collect())
            .unwrap();
        let exec = run_bounded(&inst, 5, SearchStrategy::default());
        assert!(exec.is_successful());
        let plain = inst.map_labels(|_| ());
        assert!(MisProblem.is_valid_output(&plain, &exec.outputs_unwrapped()));
    }
}
