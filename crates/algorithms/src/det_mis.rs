//! Deterministic anonymous MIS **given a coloring** — the problem-specific
//! deterministic stage of the paper's Theorem-1 decomposition, hand-rolled
//! for MIS.
//!
//! A 2-hop coloring (in fact any proper 1-hop coloring) totally orders
//! each node against its neighbors, so the classic "local minima join"
//! rule works deterministically: iterate (status exchange → join → retire)
//! with joins going to active nodes whose color is smaller than all active
//! neighbors' colors. In every iteration the minimum-colored active node
//! of each active component joins, so at most `n` iterations are needed;
//! no randomness is consumed.
//!
//! Together with [`TwoHopColoring`](crate::two_hop_coloring::TwoHopColoring)
//! this gives the two-stage pipeline of the paper's abstract:
//! *generic randomized preprocessing, then problem-specific deterministic
//! solving* — without going through the general simulation of `A_*`.

use std::marker::PhantomData;

use anonet_graph::Label;
use anonet_runtime::{Actions, ObliviousAlgorithm};

/// Contest status (mirrors [`crate::mis::MisStatus`], kept separate so the
/// two algorithms' message types stay independent).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub enum DetMisStatus {
    /// Still competing.
    Active,
    /// Entered the MIS.
    Joined,
    /// Has a neighbor in the MIS.
    Retired,
}

/// Messages exchanged by [`DeterministicMis`].
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub enum DetMisMessage<C> {
    /// Phase 1: my color and whether I am still active.
    Color(C, bool),
    /// Phase 2: whether I joined this iteration.
    Join(bool),
    /// Phase 3: my settled status.
    Status(DetMisStatus),
}

/// Local state of [`DeterministicMis`].
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct DetMisState<C> {
    color: C,
    status: DetMisStatus,
    outgoing: DetMisMessage<C>,
}

/// Deterministic anonymous MIS on properly colored inputs.
///
/// * **Input**: the node's color (any [`Label`] with a total order; the
///   Theorem-1 pipeline feeds the bitstring colors produced by the
///   randomized 2-hop coloring stage). The input labeling must be a
///   proper 1-hop coloring; a 2-hop coloring qualifies.
/// * **Output**: `true` iff the node is in the MIS.
///
/// Ignores its random bits entirely — it is a deterministic algorithm in
/// the paper's sense.
#[derive(Clone, Copy, Debug, Default)]
pub struct DeterministicMis<C> {
    _marker: PhantomData<fn() -> C>,
}

impl<C> DeterministicMis<C> {
    /// Creates the algorithm.
    pub fn new() -> Self {
        DeterministicMis { _marker: PhantomData }
    }
}

impl<C: Label> ObliviousAlgorithm for DeterministicMis<C> {
    type Input = C;
    type Message = DetMisMessage<C>;
    type Output = bool;
    type State = DetMisState<C>;

    fn init(&self, input: &C, _degree: usize) -> DetMisState<C> {
        DetMisState {
            color: input.clone(),
            status: DetMisStatus::Active,
            outgoing: DetMisMessage::Color(input.clone(), true),
        }
    }

    fn broadcast(&self, state: &DetMisState<C>) -> Option<DetMisMessage<C>> {
        Some(state.outgoing.clone())
    }

    fn step(
        &self,
        mut state: DetMisState<C>,
        round: usize,
        received: &[&DetMisMessage<C>],
        _bit: bool,
        actions: &mut Actions<bool>,
    ) -> DetMisState<C> {
        match round % 3 {
            // Phase 2 (receive colors, decide join).
            2 => {
                if state.status == DetMisStatus::Active {
                    let locally_minimal = received.iter().all(|m| match m {
                        DetMisMessage::Color(c, active) => !active || state.color < *c,
                        _ => true,
                    });
                    if locally_minimal {
                        state.status = DetMisStatus::Joined;
                        actions.output(true);
                    }
                }
                state.outgoing = DetMisMessage::Join(state.status == DetMisStatus::Joined);
            }
            // Phase 3 (receive joins, retire).
            0 => {
                if state.status == DetMisStatus::Active
                    && received.iter().any(|m| matches!(m, DetMisMessage::Join(true)))
                {
                    state.status = DetMisStatus::Retired;
                    actions.output(false);
                }
                state.outgoing = DetMisMessage::Status(state.status);
            }
            // Phase 1 (receive statuses, re-announce color, maybe halt).
            1 => {
                if round > 1 {
                    let neighbors_settled = received.iter().all(|m| {
                        matches!(
                            m,
                            DetMisMessage::Status(DetMisStatus::Joined | DetMisStatus::Retired)
                        )
                    });
                    if state.status != DetMisStatus::Active && neighbors_settled {
                        actions.halt();
                    }
                }
                state.outgoing =
                    DetMisMessage::Color(state.color.clone(), state.status == DetMisStatus::Active);
            }
            _ => unreachable!("round % 3 is exhaustive"),
        }
        state
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problems::MisProblem;
    use anonet_graph::{coloring, generators, Graph, LabeledGraph};
    use anonet_runtime::{run, ExecConfig, Oblivious, Problem, Status, ZeroSource};

    fn solve(net: &LabeledGraph<u32>) -> Vec<bool> {
        let exec = run(
            &Oblivious(DeterministicMis::<u32>::new()),
            net,
            &mut ZeroSource,
            &ExecConfig::default(),
        )
        .unwrap();
        assert_eq!(exec.status(), Status::Completed);
        exec.outputs_unwrapped()
    }

    fn assert_valid_mis(g: &Graph, output: &[bool]) {
        let net = g.with_uniform_label(());
        assert!(MisProblem.is_valid_output(&net, output), "invalid MIS: {output:?}");
    }

    #[test]
    fn solves_on_greedy_colored_graphs() {
        let graphs = vec![
            generators::cycle(7).unwrap(),
            generators::path(10).unwrap(),
            generators::petersen(),
            generators::grid(4, 3, false).unwrap(),
            generators::complete(5).unwrap(),
        ];
        for g in graphs {
            let colored = coloring::greedy_two_hop_coloring(&g);
            let output = solve(&colored);
            assert_valid_mis(&g, &output);
        }
    }

    #[test]
    fn is_deterministic() {
        let g = generators::petersen();
        let colored = coloring::greedy_two_hop_coloring(&g);
        assert_eq!(solve(&colored), solve(&colored));
    }

    #[test]
    fn smallest_color_always_joins() {
        let g = generators::path(4).unwrap();
        let net = g.with_labels(vec![2u32, 0, 1, 3]).unwrap();
        let out = solve(&net);
        assert!(out[1], "the globally minimal color must join");
        assert!(!out[0] && !out[2], "its neighbors must retire");
        assert!(out[3], "maximality forces the far end in");
    }

    #[test]
    fn works_with_bitstring_colors() {
        use anonet_graph::BitString;
        let g = generators::cycle(5).unwrap();
        // 5-cycle needs all-distinct 2-hop colors.
        let labels: Vec<BitString> = (0..5).map(|i| BitString::from_value(i as u64, 3)).collect();
        let net = g.with_labels(labels).unwrap();
        let exec = run(
            &Oblivious(DeterministicMis::<BitString>::new()),
            &net,
            &mut ZeroSource,
            &ExecConfig::default(),
        )
        .unwrap();
        assert!(exec.is_successful());
        assert_valid_mis(&g, &exec.outputs_unwrapped());
    }
}
