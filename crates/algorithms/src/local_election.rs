//! k-local election (paper, Section 1.3, citing Métivier–Saheb–Zemmari):
//! electing *local* leaders that are unique only up to distance `k`.
//!
//! Given a 2-hop coloring, the nodes whose color is minimal within their
//! `k`-ball form a clean local-leader set for `k ≤ 2`:
//!
//! * **k-independence** — two leaders are more than `k` hops apart:
//!   if `d(u, v) ≤ k ≤ 2`, each lies in the other's ball, so mutual
//!   minimality forces `c(u) = c(v)`, impossible within 2 hops of each
//!   other under a 2-hop coloring;
//! * **non-emptiness** — the globally minimal color is always a leader.
//!
//! For `k > 2` the same construction breaks down for exactly the reason
//! the paper's Section 1.2 highlights: colors may repeat at distance
//! `> 2`, and in fact *no* anonymous algorithm can elect `k`-local
//! leaders in general (experiment E12's lifting certificate). This module
//! is therefore restricted to `k ∈ {1, 2}` — the frontier the paper draws.
//!
//! The protocol floods the color *set* of the `k`-ball for `k` rounds
//! (sets suffice for minima, sidestepping the self-exclusion issue of
//! multiset gathering) and outputs `true` iff the node's own color is the
//! strict minimum.

use std::collections::BTreeSet;
use std::marker::PhantomData;

use anonet_graph::{distance, Label, LabeledGraph, NodeId};
use anonet_runtime::{Actions, ObliviousAlgorithm, Problem};

/// Local state of [`KLocalElection`]: the colors seen within the rounds
/// elapsed so far.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct KLocalState<C: Ord> {
    own: C,
    seen: BTreeSet<C>,
}

/// The k-local election algorithm (`k ∈ {1, 2}`) on properly 2-hop
/// colored inputs. Deterministic; `k + 1` rounds.
///
/// * **Input**: the node's color under a 2-hop coloring.
/// * **Output**: `true` iff the node's color is minimal in its `k`-ball.
#[derive(Clone, Copy, Debug)]
pub struct KLocalElection<C> {
    k: usize,
    _marker: PhantomData<fn() -> C>,
}

impl<C> KLocalElection<C> {
    /// Creates the algorithm for radius `k`.
    ///
    /// # Panics
    ///
    /// Panics for `k = 0` or `k > 2` — the construction is only sound up
    /// to the 2-hop coloring's reach (see the module docs).
    pub fn new(k: usize) -> Self {
        assert!((1..=2).contains(&k), "k-local election requires k in {{1, 2}}, got {k}");
        KLocalElection { k, _marker: PhantomData }
    }

    /// The radius.
    pub fn k(&self) -> usize {
        self.k
    }
}

impl<C: Label> ObliviousAlgorithm for KLocalElection<C> {
    type Input = C;
    type Message = BTreeSet<C>;
    type Output = bool;
    type State = KLocalState<C>;

    fn init(&self, input: &C, _degree: usize) -> Self::State {
        KLocalState { own: input.clone(), seen: BTreeSet::from([input.clone()]) }
    }

    fn broadcast(&self, state: &Self::State) -> Option<Self::Message> {
        Some(state.seen.clone())
    }

    fn step(
        &self,
        mut state: Self::State,
        round: usize,
        received: &[&Self::Message],
        _bit: bool,
        actions: &mut Actions<bool>,
    ) -> Self::State {
        // After round r, `seen` = colors within r hops.
        if round <= self.k {
            for set in received {
                state.seen.extend(set.iter().cloned());
            }
        }
        if round == self.k {
            let min = state.seen.iter().next().expect("own color is present");
            actions.output(*min == state.own);
            actions.halt();
        }
        state
    }
}

/// The k-local minima problem specification: outputs must mark exactly
/// the nodes whose input color is minimal within their `k`-ball. Valid
/// instances are 2-hop colored graphs.
#[derive(Clone, Copy, Debug)]
pub struct KLocalMinimaProblem {
    /// The ball radius.
    pub k: usize,
}

impl KLocalMinimaProblem {
    fn expected<C: Label>(&self, instance: &LabeledGraph<C>) -> Vec<bool> {
        instance
            .graph()
            .nodes()
            .map(|v| {
                distance::ball(instance.graph(), v, self.k)
                    .into_iter()
                    .all(|u| instance.label(v) <= instance.label(u))
            })
            .collect()
    }
}

impl Problem for KLocalMinimaProblem {
    type Input = u32;
    type Output = bool;

    fn is_instance(&self, instance: &LabeledGraph<u32>) -> bool {
        anonet_graph::coloring::is_two_hop_coloring(instance)
    }

    fn is_valid_output(&self, instance: &LabeledGraph<u32>, output: &[bool]) -> bool {
        output == self.expected(instance)
    }
}

/// Centralized reference: the expected k-ball minima of a colored graph.
pub fn k_ball_minima<C: Label>(instance: &LabeledGraph<C>, k: usize) -> Vec<NodeId> {
    instance
        .graph()
        .nodes()
        .filter(|&v| {
            distance::ball(instance.graph(), v, k)
                .into_iter()
                .all(|u| instance.label(v) <= instance.label(u))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use anonet_graph::{coloring, generators, Graph};
    use anonet_runtime::{run, ExecConfig, Oblivious, ZeroSource};

    fn solve(net: &LabeledGraph<u32>, k: usize) -> Vec<bool> {
        let exec = run(
            &Oblivious(KLocalElection::<u32>::new(k)),
            net,
            &mut ZeroSource,
            &ExecConfig::default(),
        )
        .unwrap();
        assert!(exec.is_successful());
        assert_eq!(exec.rounds(), k);
        exec.outputs_unwrapped()
    }

    fn check(g: &Graph, k: usize) {
        let net = coloring::greedy_two_hop_coloring(g);
        let output = solve(&net, k);
        let problem = KLocalMinimaProblem { k };
        assert!(problem.is_instance(&net));
        assert!(problem.is_valid_output(&net, &output), "wrong minima on {g} at k={k}");
        // k-independence and non-emptiness.
        let leaders = k_ball_minima(&net, k);
        assert!(!leaders.is_empty());
        for &u in &leaders {
            for &v in &leaders {
                if u != v {
                    let d = anonet_graph::distance::distance(g, u, v).unwrap();
                    assert!(d > k, "leaders {u}, {v} at distance {d} <= {k}");
                }
            }
        }
    }

    #[test]
    fn elects_on_standard_families() {
        for g in [
            generators::cycle(9).unwrap(),
            generators::path(8).unwrap(),
            generators::petersen(),
            generators::grid(3, 4, false).unwrap(),
            generators::hypercube(3).unwrap(),
        ] {
            check(&g, 1);
            check(&g, 2);
        }
    }

    #[test]
    fn globally_minimal_color_always_leads() {
        let g = generators::cycle(7).unwrap();
        let net = coloring::greedy_two_hop_coloring(&g);
        let min_node = g.nodes().min_by_key(|&v| net.label(v)).unwrap();
        for k in 1..=2 {
            assert!(solve(&net, k)[min_node.index()]);
        }
    }

    #[test]
    #[should_panic(expected = "k in {1, 2}")]
    fn k_three_is_rejected() {
        let _ = KLocalElection::<u32>::new(3);
    }

    #[test]
    fn invalid_colorings_are_not_instances() {
        let g = generators::cycle(4).unwrap().with_labels(vec![1u32, 2, 1, 2]).unwrap();
        assert!(!KLocalMinimaProblem { k: 2 }.is_instance(&g));
    }
}
