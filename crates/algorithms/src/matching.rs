//! Las-Vegas anonymous maximal matching on 2-hop colored instances — a
//! fourth GRAN member, chosen because its outputs are *relational*
//! (who is matched with whom) and still derandomize cleanly: a matching
//! of the quotient lifts edge-by-edge along fibers (each node has exactly
//! one neighbor in any adjacent fiber, by the local isomorphism).
//!
//! # Protocol
//!
//! Nodes address each other by color (the paper's Section 1.3 remark —
//! colors replace ports). Iterations of three rounds, for active nodes:
//!
//! 1. **Propose** — draw a bit; on 1, propose to the active neighbor with
//!    the smallest color;
//! 2. **Accept** — a node that drew 0 accepts the smallest-colored
//!    proposer and announces the match (a proposer never accepts, which
//!    keeps the matching symmetric);
//! 3. **Settle** — matched nodes retire; everyone re-announces status.
//!
//! Two adjacent active nodes match with probability ≥ 1/4 per iteration,
//! so the algorithm terminates with probability 1; the output is always a
//! maximal matching.
//!
//! * **Input**: the node's color under a 2-hop coloring.
//! * **Output**: `Some(partner color)` or `None` (unmatched, with no
//!   unmatched neighbor).

use std::marker::PhantomData;

use anonet_graph::{Label, LabeledGraph};
use anonet_runtime::{Actions, ObliviousAlgorithm, Problem};

/// Messages of [`RandomizedMatching`].
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub enum MatchingMessage<C> {
    /// Phase 1: `(my color, am I still active, my proposal target)`.
    Propose(C, bool, Option<C>),
    /// Phase 2: `(my color, the proposer I accept)`.
    Accept(C, Option<C>),
    /// Phase 3: `(my color, am I still active)`.
    Status(C, bool),
}

/// Contest state of one node.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct MatchingState<C> {
    color: C,
    /// `None` while undecided; `Some(None)` = definitively unmatched;
    /// `Some(Some(c))` = matched with the neighbor colored `c`.
    outcome: Option<Option<C>>,
    /// My proposal target this iteration (while active).
    proposal: Option<C>,
    /// Did I propose this iteration? (Proposers never accept.)
    proposing: bool,
    outgoing: MatchingMessage<C>,
}

/// The Las-Vegas anonymous maximal matching algorithm.
#[derive(Clone, Copy, Debug, Default)]
pub struct RandomizedMatching<C> {
    _marker: PhantomData<fn() -> C>,
}

impl<C> RandomizedMatching<C> {
    /// Creates the algorithm.
    pub fn new() -> Self {
        RandomizedMatching { _marker: PhantomData }
    }
}

impl<C: Label> ObliviousAlgorithm for RandomizedMatching<C> {
    type Input = C;
    type Message = MatchingMessage<C>;
    type Output = Option<C>;
    type State = MatchingState<C>;

    fn init(&self, input: &C, degree: usize) -> Self::State {
        let mut state = MatchingState {
            color: input.clone(),
            outcome: None,
            proposal: None,
            proposing: false,
            outgoing: MatchingMessage::Status(input.clone(), true),
        };
        if degree == 0 {
            // Isolated node: unmatched, trivially maximal.
            state.outcome = Some(None);
        }
        state
    }

    fn broadcast(&self, state: &Self::State) -> Option<Self::Message> {
        Some(state.outgoing.clone())
    }

    fn step(
        &self,
        mut state: Self::State,
        round: usize,
        received: &[&Self::Message],
        bit: bool,
        actions: &mut Actions<Option<C>>,
    ) -> Self::State {
        let active = state.outcome.is_none();
        match round % 3 {
            // Received statuses; draw the coin and maybe propose.
            1 => {
                if active {
                    let target = received
                        .iter()
                        .filter_map(|m| match m {
                            MatchingMessage::Status(c, true) => Some(c.clone()),
                            _ => None,
                        })
                        .min();
                    state.proposing = bit && target.is_some();
                    state.proposal = if state.proposing { target } else { None };
                } else {
                    state.proposing = false;
                    state.proposal = None;
                }
                state.outgoing =
                    MatchingMessage::Propose(state.color.clone(), active, state.proposal.clone());
            }
            // Received proposals; non-proposers accept the best one.
            2 => {
                let mut accepted = None;
                if active && !state.proposing {
                    accepted = received
                        .iter()
                        .filter_map(|m| match m {
                            MatchingMessage::Propose(c, true, Some(target))
                                if *target == state.color =>
                            {
                                Some(c.clone())
                            }
                            _ => None,
                        })
                        .min();
                    if let Some(partner) = &accepted {
                        state.outcome = Some(Some(partner.clone()));
                        actions.output(Some(partner.clone()));
                    }
                }
                state.outgoing = MatchingMessage::Accept(state.color.clone(), accepted);
            }
            // Received acceptances; proposers learn their fate.
            0 => {
                if active && state.proposing {
                    let matched = received.iter().any(|m| {
                        matches!(m, MatchingMessage::Accept(_, Some(acc)) if *acc == state.color)
                    });
                    if matched {
                        let partner = state.proposal.clone().expect("proposers have targets");
                        state.outcome = Some(Some(partner.clone()));
                        actions.output(Some(partner));
                    }
                }
                // A node whose neighbors are all decided can settle as
                // unmatched in the next status phase; defer to phase 1 via
                // the status exchange below.
                state.outgoing =
                    MatchingMessage::Status(state.color.clone(), state.outcome.is_none());
            }
            _ => unreachable!("round % 3 is exhaustive"),
        }

        // Settlement: on status phases (the messages received at phase 1
        // of the *next* iteration), an active node with no active
        // neighbors becomes definitively unmatched; decided nodes with
        // all-decided neighborhoods halt.
        if round % 3 == 1 && round > 1 {
            let any_active_neighbor =
                received.iter().any(|m| matches!(m, MatchingMessage::Status(_, true)));
            if state.outcome.is_none() && !any_active_neighbor {
                state.outcome = Some(None);
                actions.output(None);
                // Correct the outgoing message: we are no longer active.
                state.outgoing = MatchingMessage::Propose(state.color.clone(), false, None);
            }
            if state.outcome.is_some() && !any_active_neighbor {
                actions.halt();
            }
        }
        if round == 1 && state.outcome == Some(None) {
            // Isolated node: output immediately and halt.
            actions.output(None);
            actions.halt();
        }
        state
    }
}

/// The maximal matching problem on 2-hop colored instances: outputs name
/// partner *colors*; valid iff the induced edge set is a matching (mutual,
/// adjacent) and maximal (no edge between two unmatched nodes).
#[derive(Clone, Copy, Debug, Default)]
pub struct MatchingProblem;

impl Problem for MatchingProblem {
    type Input = u32;
    type Output = Option<u32>;

    fn is_instance(&self, instance: &LabeledGraph<u32>) -> bool {
        anonet_graph::coloring::is_two_hop_coloring(instance)
    }

    fn is_valid_output(&self, instance: &LabeledGraph<u32>, output: &[Option<u32>]) -> bool {
        let g = instance.graph();
        if output.len() != g.node_count() {
            return false;
        }
        for v in g.nodes() {
            // anonet-lint: allow(anonymity, reason = "is_valid_output is a global-observer verifier, not node-local algorithm code")
            match &output[v.index()] {
                Some(partner_color) => {
                    // The partner must be an actual neighbor, matched back.
                    let Some(&u) =
                        g.neighbors(v).iter().find(|&&u| instance.label(u) == partner_color)
                    else {
                        return false;
                    };
                    // anonet-lint: allow(anonymity, reason = "is_valid_output is a global-observer verifier, not node-local algorithm code")
                    if output[u.index()] != Some(*instance.label(v)) {
                        return false;
                    }
                }
                None => {
                    // Maximality: no unmatched neighbor.
                    // anonet-lint: allow(anonymity, reason = "is_valid_output is a global-observer verifier, not node-local algorithm code")
                    if g.neighbors(v).iter().any(|&u| output[u.index()].is_none()) {
                        return false;
                    }
                }
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use anonet_graph::{coloring, generators, Graph};
    use anonet_runtime::{run, ExecConfig, Oblivious, RngSource, Status};

    fn solve(g: &Graph, seed: u64) -> Vec<Option<u32>> {
        let net = coloring::greedy_two_hop_coloring(g);
        let exec = run(
            &Oblivious(RandomizedMatching::<u32>::new()),
            &net,
            &mut RngSource::seeded(seed),
            &ExecConfig::default(),
        )
        .unwrap();
        assert_eq!(exec.status(), Status::Completed, "did not complete on {g}");
        assert!(exec.is_successful());
        let out = exec.outputs_unwrapped();
        assert!(MatchingProblem.is_valid_output(&net, &out), "invalid matching on {g}: {out:?}");
        out
    }

    #[test]
    fn matches_on_standard_families() {
        for g in [
            generators::cycle(8).unwrap(),
            generators::path(7).unwrap(),
            generators::petersen(),
            generators::grid(3, 4, false).unwrap(),
            generators::star(6).unwrap(),
            generators::complete(5).unwrap(),
        ] {
            for seed in 0..4 {
                solve(&g, seed);
            }
        }
    }

    #[test]
    fn p2_always_matches_its_only_edge() {
        let g = generators::path(2).unwrap();
        for seed in 0..5 {
            let out = solve(&g, seed);
            assert!(out[0].is_some() && out[1].is_some());
        }
    }

    #[test]
    fn single_node_is_unmatched() {
        let g = Graph::builder(1).build().unwrap();
        assert_eq!(solve(&g, 0), vec![None]);
    }

    #[test]
    fn star_matches_exactly_one_leaf() {
        let g = generators::star(6).unwrap();
        let out = solve(&g, 3);
        assert!(out[0].is_some());
        assert_eq!(out.iter().filter(|o| o.is_some()).count(), 2);
    }

    #[test]
    fn reproducible_per_seed() {
        let g = generators::grid(3, 3, false).unwrap();
        assert_eq!(solve(&g, 11), solve(&g, 11));
    }

    #[test]
    fn problem_rejects_asymmetric_outputs() {
        let g = generators::path(3).unwrap();
        let net = g.with_labels(vec![10u32, 20, 30]).unwrap();
        // 0 claims 20, but 1 claims 30: asymmetric.
        assert!(!MatchingProblem.is_valid_output(&net, &[Some(20), Some(30), Some(20)]));
        // Valid: 0–1 matched, 2 unmatched but its neighbor is matched.
        assert!(MatchingProblem.is_valid_output(&net, &[Some(20), Some(10), None]));
        // Invalid: 1 and 2 both unmatched though adjacent.
        assert!(!MatchingProblem.is_valid_output(&net, &[None, None, None]));
    }
}
