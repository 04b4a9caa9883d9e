//! Port-oblivious algorithms: the derandomizable class.
//!
//! The paper's views (Section 1.1) record node labels but not port
//! numbers, and its Section 1.3 remark notes that "port numbers are not
//! necessary under the assumption of randomized algorithms … by including
//! the sender's color in every message missing port numbers can be
//! emulated". Lifting an execution from the (portless) view quotient `G_*`
//! back to `G` is sound precisely for algorithms whose behaviour does not
//! depend on port numbers. [`ObliviousAlgorithm`] makes that property
//! *structural*: a node broadcasts one message to all neighbors and
//! receives the **sorted multiset** of its neighbors' messages, so port
//! information cannot leak into the state even by accident.
//!
//! Use [`Oblivious`] to run such an algorithm under the general
//! port-numbered [`Algorithm`](crate::Algorithm) runtime.

use std::fmt::Debug;

use anonet_graph::Port;

use crate::algorithm::{Actions, Algorithm, Inbox};

/// An anonymous algorithm that cannot observe port numbers.
///
/// Each round a node broadcasts at most one message to all of its
/// neighbors and steps on the *sorted multiset* of received messages.
/// Every `ObliviousAlgorithm` is an [`Algorithm`] via the [`Oblivious`]
/// adapter; the converse is false, and exactly this gap is what a 2-hop
/// coloring closes (sender colors identify edges).
pub trait ObliviousAlgorithm {
    /// Input label type.
    type Input: Clone + Debug;
    /// Broadcast message type; `Ord` so the received multiset has a
    /// canonical presentation.
    type Message: Clone + Ord + Debug;
    /// Irrevocable output type.
    type Output: Clone + Eq + Debug;
    /// Per-node state.
    type State: Clone + Eq + Debug;

    /// Initial state from the input label and degree.
    fn init(&self, input: &Self::Input, degree: usize) -> Self::State;

    /// The message broadcast to **all** neighbors this round, if any.
    fn broadcast(&self, state: &Self::State) -> Option<Self::Message>;

    /// State transition. `received` holds one reference per neighbor that
    /// broadcast this round, sorted ascending by the messages they point
    /// to. The messages are the senders' own broadcasts, shared by all of
    /// their receivers; clone what must outlive the step.
    fn step(
        &self,
        state: Self::State,
        round: usize,
        received: &[&Self::Message],
        bit: bool,
        actions: &mut Actions<Self::Output>,
    ) -> Self::State;
}

/// Adapter running an [`ObliviousAlgorithm`] under the port-numbered
/// runtime: composes each broadcast once for all ports, and sorts
/// references to the received messages before stepping.
///
/// # Example
///
/// ```
/// use anonet_graph::generators;
/// use anonet_runtime::{run, Actions, ExecConfig, Oblivious, ObliviousAlgorithm, ZeroSource};
///
/// /// Counts the neighbors that share the node's input label.
/// #[derive(Debug)]
/// struct TwinCount;
///
/// impl ObliviousAlgorithm for TwinCount {
///     type Input = u32;
///     type Message = u32;
///     type Output = usize;
///     type State = u32;
///
///     fn init(&self, input: &u32, _degree: usize) -> u32 { *input }
///     fn broadcast(&self, state: &u32) -> Option<u32> { Some(*state) }
///     fn step(&self, state: u32, _round: usize, received: &[&u32], _bit: bool,
///             actions: &mut Actions<usize>) -> u32 {
///         actions.output(received.iter().filter(|&&&m| m == state).count());
///         actions.halt();
///         state
///     }
/// }
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let net = generators::cycle(4)?.with_labels(vec![7u32, 7, 7, 8])?;
/// let exec = run(&Oblivious(TwinCount), &net, &mut ZeroSource, &ExecConfig::default())?;
/// assert_eq!(exec.outputs_unwrapped(), vec![1, 2, 1, 0]);
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Copy, Debug, Default)]
pub struct Oblivious<A>(pub A);

/// Inboxes up to this size are sorted in a stack buffer.
const STACK_DEGREE: usize = 16;

impl<A> Oblivious<A> {
    /// The wrapped oblivious algorithm.
    pub fn inner(&self) -> &A {
        &self.0
    }

    /// Unwraps the adapter.
    pub fn into_inner(self) -> A {
        self.0
    }
}

impl<A: ObliviousAlgorithm> Algorithm for Oblivious<A> {
    type Input = A::Input;
    type Message = A::Message;
    type Output = A::Output;
    type State = A::State;

    fn init(&self, input: &Self::Input, degree: usize) -> Self::State {
        self.0.init(input, degree)
    }

    fn compose(&self, state: &Self::State, _port: Port) -> Option<Self::Message> {
        self.0.broadcast(state)
    }

    fn compose_round(
        &self,
        state: &Self::State,
        _degree: usize,
        out: &mut Vec<Option<Self::Message>>,
    ) {
        out.push(self.0.broadcast(state));
    }

    fn step(
        &self,
        state: Self::State,
        round: usize,
        inbox: &Inbox<'_, Self::Message>,
        bit: bool,
        actions: &mut Actions<Self::Output>,
    ) -> Self::State {
        // Sort the references on the stack up to `STACK_DEGREE` messages,
        // every slot starting as the first; larger inboxes use a `Vec`.
        let mut messages = inbox.iter().map(|(_, m)| m);
        let Some(first) = messages.next() else {
            return self.0.step(state, round, &[], bit, actions);
        };
        if inbox.len() > STACK_DEGREE {
            let mut received: Vec<&Self::Message> =
                std::iter::once(first).chain(messages).collect();
            received.sort();
            return self.0.step(state, round, &received, bit, actions);
        }
        let mut stack = [first; STACK_DEGREE];
        let count = 1 + stack[1..].iter_mut().zip(messages).map(|(slot, m)| *slot = m).count();
        let received = &mut stack[..count];
        received.sort();
        self.0.step(state, round, received, bit, actions)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{run, ExecConfig};
    use crate::randomness::ZeroSource;
    use anonet_graph::{generators, Graph};

    /// Broadcasts the input label once; outputs the sorted neighbor labels.
    #[derive(Debug)]
    struct NeighborLabels;

    impl ObliviousAlgorithm for NeighborLabels {
        type Input = u32;
        type Message = u32;
        type Output = Vec<u32>;
        type State = u32;

        fn init(&self, input: &u32, _degree: usize) -> u32 {
            *input
        }
        fn broadcast(&self, state: &u32) -> Option<u32> {
            Some(*state)
        }
        fn step(
            &self,
            state: u32,
            _round: usize,
            received: &[&u32],
            _bit: bool,
            actions: &mut Actions<Vec<u32>>,
        ) -> u32 {
            actions.output(received.iter().map(|&&m| m).collect());
            actions.halt();
            state
        }
    }

    #[test]
    fn received_multiset_is_sorted_and_port_independent() {
        // Two different port orders around the center of a star: the
        // oblivious algorithm must produce identical outputs.
        let g1 = Graph::from_edges(4, &[(0, 1), (0, 2), (0, 3)]).unwrap();
        let g2 = Graph::from_edges(4, &[(0, 3), (0, 1), (0, 2)]).unwrap();
        let l1 = g1.with_labels(vec![0u32, 30, 10, 20]).unwrap();
        let l2 = g2.with_labels(vec![0u32, 30, 10, 20]).unwrap();
        let e1 =
            run(&Oblivious(NeighborLabels), &l1, &mut ZeroSource, &ExecConfig::default()).unwrap();
        let e2 =
            run(&Oblivious(NeighborLabels), &l2, &mut ZeroSource, &ExecConfig::default()).unwrap();
        assert_eq!(e1.output(anonet_graph::NodeId::new(0)), Some(&vec![10, 20, 30]));
        assert_eq!(e1.outputs(), e2.outputs());
    }

    #[test]
    fn multiset_keeps_duplicates() {
        let net = generators::star(4).unwrap().with_labels(vec![1u32, 5, 5, 5]).unwrap();
        let e =
            run(&Oblivious(NeighborLabels), &net, &mut ZeroSource, &ExecConfig::default()).unwrap();
        assert_eq!(e.output(anonet_graph::NodeId::new(0)), Some(&vec![5, 5, 5]));
    }

    #[test]
    fn multiset_is_sorted_on_both_sides_of_the_stack_degree() {
        for leaves in [STACK_DEGREE, STACK_DEGREE + 1, 2 * STACK_DEGREE] {
            let labels: Vec<u32> =
                std::iter::once(0).chain((1..=leaves as u32).map(|i| i * 7 % 11)).collect();
            let net = generators::star(leaves + 1).unwrap().with_labels(labels.clone()).unwrap();
            let e = run(&Oblivious(NeighborLabels), &net, &mut ZeroSource, &ExecConfig::default())
                .unwrap();
            let mut want = labels[1..].to_vec();
            want.sort();
            assert_eq!(e.output(anonet_graph::NodeId::new(0)), Some(&want), "{leaves} leaves");
        }
    }

    #[test]
    fn inner_access() {
        let o = Oblivious(NeighborLabels);
        let _: &NeighborLabels = o.inner();
        let _: NeighborLabels = o.into_inner();
    }
}
