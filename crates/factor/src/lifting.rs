//! Fact 1 and the lifting lemma, executable.
//!
//! If `G' ⪯_f G`, then (Fact 1) every node `v` of `G` has the same local
//! views as `f(v)`, and — the lifting lemma — every execution of an
//! anonymous algorithm on `G'` *lifts* to an execution on `G`: give each
//! product node the random bits of its image and the two executions agree
//! node-by-node, round-by-round.
//!
//! Two flavours are provided, matching the two soundness regimes:
//!
//! * [`run_lifted_oblivious`] — any factorizing map, but the algorithm
//!   must be port-oblivious ([`ObliviousAlgorithm`]);
//! * [`run_lifted_port_preserving`] — arbitrary port-sensitive
//!   [`Algorithm`]s, but the map must preserve port numbers (graph lifts
//!   built by `anonet-graph` do).
//!
//! Both functions *verify* the agreement as they go and report the first
//! divergence as an error, so they double as executable proofs of the
//! lemma on concrete instances.

use anonet_graph::{Label, LabeledGraph, NodeId};
use anonet_runtime::{
    run, Algorithm, BitAssignment, ExecConfig, Execution, Oblivious, ObliviousAlgorithm, TapeSource,
};
use anonet_views::ViewTree;

use crate::error::FactorError;
use crate::map::FactorizingMap;
use crate::Result;

/// Pulls a bit assignment on the factor back along `f`: product node `v`
/// receives the tape of `f(v)`.
pub fn pull_back_assignment(map: &FactorizingMap, b: &BitAssignment) -> BitAssignment {
    let tapes = map.images().iter().map(|&c| b.tape(c).cloned().unwrap_or_default()).collect();
    BitAssignment::new(tapes)
}

/// The two executions produced by a verified lift.
#[derive(Debug)]
pub struct LiftedPair<A: Algorithm> {
    /// The execution on the product graph (lifted bits).
    pub product: Execution<A>,
    /// The execution on the factor graph (original bits).
    pub factor: Execution<A>,
}

/// Runs `alg` on the factor under `assignment` and on the product under
/// the pulled-back assignment, verifying node-by-node agreement of states
/// (every round) and outputs.
///
/// # Errors
///
/// [`FactorError::LiftDiverged`] with the first diverging node/round;
/// runtime errors from either execution.
pub fn run_lifted_oblivious<A>(
    alg: &A,
    product: &LabeledGraph<A::Input>,
    factor: &LabeledGraph<A::Input>,
    map: &FactorizingMap,
    assignment: &BitAssignment,
    config: &ExecConfig,
) -> Result<LiftedPair<Oblivious<A>>>
where
    A: ObliviousAlgorithm + Clone,
    A::Input: Label,
{
    let wrapped = Oblivious(alg.clone());
    run_and_compare(&wrapped, product, factor, map, assignment, config)
}

/// Like [`run_lifted_oblivious`] but for arbitrary port-sensitive
/// algorithms; requires (and checks) that `map` preserves port numbers.
///
/// # Errors
///
/// [`FactorError::NotPortPreserving`] if the map does not qualify;
/// otherwise as [`run_lifted_oblivious`].
pub fn run_lifted_port_preserving<A>(
    alg: &A,
    product: &LabeledGraph<A::Input>,
    factor: &LabeledGraph<A::Input>,
    map: &FactorizingMap,
    assignment: &BitAssignment,
    config: &ExecConfig,
) -> Result<LiftedPair<A>>
where
    A: Algorithm + Clone,
    A::Input: Label,
{
    map.require_port_preserving(product, factor)?;
    run_and_compare(alg, product, factor, map, assignment, config)
}

fn run_and_compare<A>(
    alg: &A,
    product: &LabeledGraph<A::Input>,
    factor: &LabeledGraph<A::Input>,
    map: &FactorizingMap,
    assignment: &BitAssignment,
    config: &ExecConfig,
) -> Result<LiftedPair<A>>
where
    A: Algorithm,
    A::Input: Label,
{
    let recording = ExecConfig { record_states: true, ..*config };
    let mut factor_src = TapeSource::new(assignment.clone());
    let factor_exec = run(alg, factor, &mut factor_src, &recording)?;
    let mut product_src = TapeSource::new(pull_back_assignment(map, assignment));
    let product_exec = run(alg, product, &mut product_src, &recording)?;

    // Round-by-round state agreement.
    let rounds = product_exec.rounds().max(factor_exec.rounds());
    for r in 0..=rounds {
        let (Some(ps), Some(fs)) = (product_exec.states_at(r), factor_exec.states_at(r)) else {
            continue;
        };
        for v in product.graph().nodes() {
            if ps[v.index()] != fs[map.image(v).index()] {
                return Err(FactorError::LiftDiverged { node: v, round: r });
            }
        }
    }
    // Output agreement.
    for v in product.graph().nodes() {
        if product_exec.output(v) != factor_exec.output(map.image(v)) {
            return Err(FactorError::LiftDiverged { node: v, round: rounds + 1 });
        }
    }
    Ok(LiftedPair { product: product_exec, factor: factor_exec })
}

/// Verifies the paper's Fact 1 on a concrete instance: for every product
/// node `v`, the explicit depth-`d` views of `v` and `f(v)` are equal.
///
/// # Errors
///
/// Returns [`FactorError::LiftDiverged`] naming the first node whose view
/// differs (round = the depth), or a views error if the trees are too big.
pub fn verify_fact1<L: Label>(
    product: &LabeledGraph<L>,
    factor: &LabeledGraph<L>,
    map: &FactorizingMap,
    depth: usize,
) -> Result<()> {
    for v in product.graph().nodes() {
        let tv = ViewTree::build(product, v, depth)?.canonicalize();
        let tf = ViewTree::build(factor, map.image(v), depth)?.canonicalize();
        if tv.encoded() != tf.encoded() {
            return Err(FactorError::LiftDiverged { node: v, round: depth });
        }
    }
    Ok(())
}

/// Lifts factor outputs to the product: `o(v) = o'(f(v))`. This is how the
/// derandomizer turns a quotient simulation into real outputs.
pub fn lift_outputs<O: Clone>(map: &FactorizingMap, factor_outputs: &[O]) -> Vec<O> {
    map.images().iter().map(|&c| factor_outputs[c.index()].clone()).collect()
}

/// Nodes of the product grouped by image — the fibers, in factor-node
/// order. Useful for experiments asserting "equal-view nodes got equal
/// outputs".
pub fn fibers(map: &FactorizingMap) -> Vec<Vec<NodeId>> {
    (0..map.factor_nodes()).map(|c| map.fiber(NodeId::new(c))).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use anonet_graph::{generators, BitString};
    use anonet_runtime::Actions;

    fn c3() -> LabeledGraph<u32> {
        generators::cycle(3).unwrap().with_labels(vec![1, 2, 3]).unwrap()
    }

    fn lifted(m: usize) -> (LabeledGraph<u32>, FactorizingMap) {
        let l = anonet_graph::lift::cyclic_cycle_lift(3, m).unwrap();
        let product = l.lift_labels(&[1, 2, 3]).unwrap();
        let images: Vec<usize> = l.projection().iter().map(|v| v.index()).collect();
        let map = FactorizingMap::new(&product, &c3(), images).unwrap();
        (product, map)
    }

    /// Tracks the multiset of (color, bit) pairs seen; outputs after 3 rounds.
    #[derive(Clone, Debug)]
    struct Gossip;

    impl ObliviousAlgorithm for Gossip {
        type Input = u32;
        type Message = (u32, bool);
        type Output = Vec<(u32, bool)>;
        type State = (u32, bool, Vec<(u32, bool)>);

        fn init(&self, input: &u32, _degree: usize) -> Self::State {
            (*input, false, Vec::new())
        }
        fn broadcast(&self, state: &Self::State) -> Option<Self::Message> {
            Some((state.0, state.1))
        }
        fn step(
            &self,
            mut state: Self::State,
            round: usize,
            received: &[&Self::Message],
            bit: bool,
            actions: &mut Actions<Self::Output>,
        ) -> Self::State {
            state.1 = bit;
            state.2.extend(received.iter().map(|&&m| m));
            state.2.sort();
            if round == 3 {
                actions.output(state.2.clone());
                actions.halt();
            }
            state
        }
    }

    #[test]
    fn fact1_holds_on_lifts() {
        let (product, map) = lifted(4);
        verify_fact1(&product, &c3(), &map, 5).unwrap();
    }

    #[test]
    fn oblivious_lift_agrees() {
        let (product, map) = lifted(3);
        let b = BitAssignment::new(vec![
            "1010".parse::<BitString>().unwrap(),
            "0110".parse().unwrap(),
            "1100".parse().unwrap(),
        ]);
        let pair = run_lifted_oblivious(&Gossip, &product, &c3(), &map, &b, &ExecConfig::default())
            .unwrap();
        assert!(pair.product.is_successful());
        assert!(pair.factor.is_successful());
        // Outputs constant on fibers.
        for fiber in fibers(&map) {
            let first = pair.product.output(fiber[0]);
            assert!(fiber.iter().all(|&v| pair.product.output(v) == first));
        }
    }

    #[test]
    fn port_preserving_lift_agrees_for_port_sensitive_algorithms() {
        /// A deliberately port-sensitive algorithm: forwards the message
        /// received on port 0 only.
        #[derive(Clone, Debug)]
        struct PortZeroChain;

        impl Algorithm for PortZeroChain {
            type Input = u32;
            type Message = u32;
            type Output = u32;
            type State = (u32, usize);

            fn init(&self, input: &u32, _degree: usize) -> Self::State {
                (*input, 0)
            }
            fn compose(&self, state: &Self::State, port: anonet_graph::Port) -> Option<u32> {
                (port.index() == 0).then_some(state.0)
            }
            fn step(
                &self,
                state: Self::State,
                round: usize,
                inbox: &anonet_runtime::Inbox<u32>,
                _bit: bool,
                actions: &mut Actions<u32>,
            ) -> Self::State {
                let carried = inbox.get(anonet_graph::Port::new(0)).copied().unwrap_or(state.0);
                if round == 4 {
                    actions.output(carried);
                    actions.halt();
                }
                (carried, round)
            }
        }

        let (product, map) = lifted(4);
        let b = BitAssignment::uniform(3, &"00000".parse::<BitString>().unwrap());
        let pair = run_lifted_port_preserving(
            &PortZeroChain,
            &product,
            &c3(),
            &map,
            &b,
            &ExecConfig::default(),
        )
        .unwrap();
        assert!(pair.product.is_successful());
    }

    #[test]
    fn non_port_preserving_map_is_rejected_for_port_sensitive_lifts() {
        #[derive(Clone, Debug)]
        struct Quiet;
        impl Algorithm for Quiet {
            type Input = u32;
            type Message = ();
            type Output = ();
            type State = ();
            fn init(&self, _: &u32, _: usize) {}
            fn compose(&self, _: &(), _: anonet_graph::Port) -> Option<()> {
                None
            }
            fn step(
                &self,
                _: (),
                _: usize,
                _: &anonet_runtime::Inbox<()>,
                _: bool,
                a: &mut Actions<()>,
            ) {
                a.output(());
                a.halt();
            }
        }
        // The hand-written C6 → C3 map is not port-preserving.
        let c6 = generators::cycle(6).unwrap().with_labels(vec![1u32, 2, 3, 1, 2, 3]).unwrap();
        let map = FactorizingMap::new(&c6, &c3(), vec![0, 1, 2, 0, 1, 2]).unwrap();
        let b = BitAssignment::uniform(3, &"0".parse::<BitString>().unwrap());
        let err = run_lifted_port_preserving(&Quiet, &c6, &c3(), &map, &b, &ExecConfig::default())
            .unwrap_err();
        assert!(matches!(err, FactorError::NotPortPreserving { .. }));
    }

    #[test]
    fn pull_back_respects_fibers() {
        let (_, map) = lifted(2);
        let b = BitAssignment::new(vec![
            "1".parse::<BitString>().unwrap(),
            "0".parse().unwrap(),
            "11".parse().unwrap(),
        ]);
        let lifted_b = pull_back_assignment(&map, &b);
        assert_eq!(lifted_b.len(), 6);
        for v in 0..6 {
            let v = NodeId::new(v);
            assert_eq!(lifted_b.tape(v), b.tape(map.image(v)));
        }
    }

    #[test]
    fn lift_outputs_follows_map() {
        let (_, map) = lifted(2);
        let outs = lift_outputs(&map, &[10u8, 20, 30]);
        for (v, o) in outs.iter().enumerate() {
            assert_eq!(*o, [10u8, 20, 30][map.image(NodeId::new(v)).index()]);
        }
    }
}
