//! The [`Algorithm`] trait: what an anonymous node can do.

use std::fmt::Debug;

use anonet_graph::Port;

/// An anonymous message-passing algorithm (paper, Section 1.1).
///
/// Every node executes the same algorithm; a node's only inputs are its
/// input label, its degree, the messages arriving on its ports, and one
/// random bit per round. There are **no identifiers** and no global
/// knowledge — anything else an algorithm "knows" must travel in messages.
///
/// # Round structure
///
/// In round `r` (rounds are numbered from 1) each non-halted node:
///
/// 1. composes an optional message for each of its ports from its current
///    state ([`Algorithm::compose`], or [`Algorithm::compose_round`] for
///    all ports at once);
/// 2. the runtime delivers all messages along edges, by reference: every
///    receiver reads the message its sender composed, and nothing is
///    copied;
/// 3. steps its state given the round number, its inbox, and one random
///    bit ([`Algorithm::step`]), possibly writing its irrevocable output
///    and/or halting through [`Actions`].
///
/// # Determinism requirement
///
/// Every method must be a **pure function** of its arguments: the entire
/// derandomization machinery (simulations induced by prescribed bit
/// assignments, execution lifting) relies on replaying executions
/// bit-for-bit. Do not read clocks, global RNGs, or other ambient state.
///
/// A *deterministic* anonymous algorithm is simply one that ignores the
/// `bit` argument.
pub trait Algorithm {
    /// Input label type (what `i(v)` carries).
    type Input: Clone + Debug;
    /// Message type exchanged on edges.
    type Message: Clone + Eq + Debug;
    /// Irrevocable output type.
    type Output: Clone + Eq + Debug;
    /// Per-node local state. `Eq` is required so executions can be
    /// compared node-by-node (the lifting-lemma experiments do exactly
    /// that).
    type State: Clone + Eq + Debug;

    /// Initial state of a node with the given input label and degree.
    ///
    /// The paper assumes the input label always includes the degree; the
    /// runtime passes the degree explicitly so input types need not
    /// duplicate it.
    fn init(&self, input: &Self::Input, degree: usize) -> Self::State;

    /// The message to send on `port` this round, or `None` for silence.
    fn compose(&self, state: &Self::State, port: Port) -> Option<Self::Message>;

    /// Composes all of this round's outgoing messages into `out`, which
    /// the engine hands over empty and reuses from round to round.
    ///
    /// Push either one entry per port, in port order, or a **single**
    /// entry that goes out unchanged on every port (for a node of degree
    /// one the two readings agree). The default composes per port through
    /// [`Algorithm::compose`]. A sender whose message cannot depend on the
    /// port, such as [`Oblivious`](crate::Oblivious), pushes one entry: the
    /// engine then composes each broadcast once and every receiver reads
    /// it by reference.
    fn compose_round(
        &self,
        state: &Self::State,
        degree: usize,
        out: &mut Vec<Option<Self::Message>>,
    ) {
        out.extend((0..degree).map(|p| self.compose(state, Port::new(p))));
    }

    /// State transition at the end of a round.
    ///
    /// `round` is 1-indexed. `bit` is this round's random bit — exactly
    /// one per round, per the paper's normalization. The state is moved in
    /// and out, never cloned; `inbox` borrows the messages the neighbors
    /// composed this round, which live until every node has stepped.
    fn step(
        &self,
        state: Self::State,
        round: usize,
        inbox: &Inbox<'_, Self::Message>,
        bit: bool,
        actions: &mut Actions<Self::Output>,
    ) -> Self::State;
}

/// The messages a node received this round, indexed by its own ports.
///
/// Each slot borrows the message its sender composed; a broadcast read by
/// `deg` receivers exists once. `None` on a port means the neighbor sent
/// nothing (or has halted).
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Inbox<'a, M> {
    slots: Vec<Option<&'a M>>,
}

impl<'a, M> Inbox<'a, M> {
    /// Builds an inbox from explicit per-port slots. Useful for unit
    /// testing algorithms in isolation and for adapters (such as the
    /// color-based port emulation) that reconstruct port-indexed
    /// deliveries from other message formats.
    pub fn from_slots(slots: Vec<Option<&'a M>>) -> Self {
        Inbox { slots }
    }

    /// The slots, handed back for reuse once the inbox is done.
    pub(crate) fn into_slots(self) -> Vec<Option<&'a M>> {
        self.slots
    }

    /// The message received on `port`, if any.
    ///
    /// # Panics
    ///
    /// Panics if `port` is out of range for this node's degree.
    pub fn get(&self, port: Port) -> Option<&'a M> {
        self.slots[port.index()]
    }

    /// Number of ports (= the node's degree).
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// `true` if the node has no ports (single-node graph).
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Iterates over `(port, message)` pairs for ports that received one.
    pub fn iter(&self) -> impl Iterator<Item = (Port, &'a M)> + '_ {
        self.slots.iter().enumerate().filter_map(|(p, m)| m.map(|m| (Port::new(p), m)))
    }

    /// `true` if every port received a message.
    pub fn is_full(&self) -> bool {
        self.slots.iter().all(Option::is_some)
    }
}

/// Effects a node can produce during [`Algorithm::step`].
#[derive(Debug)]
pub struct Actions<O> {
    pub(crate) output: Option<O>,
    pub(crate) output_written: bool,
    pub(crate) halt: bool,
}

impl<O: Clone + Eq> Actions<O> {
    pub(crate) fn new(existing_output: Option<O>) -> Self {
        Actions { output: existing_output, output_written: false, halt: false }
    }

    /// Writes the node's irrevocable output.
    ///
    /// Writing the *same* value again is a no-op; writing a different
    /// value is an algorithm bug that the runtime reports as
    /// [`RuntimeError::OutputConflict`](crate::RuntimeError::OutputConflict).
    pub fn output(&mut self, value: O) {
        match &self.output {
            Some(existing) if *existing != value => {
                self.output_written = true; // flag conflict; engine checks
                self.output = Some(value);
            }
            Some(_) => {}
            None => {
                self.output = Some(value);
            }
        }
    }

    /// Halts the node: it will neither send nor receive from the next
    /// round on. Halting is independent of producing an output, but a
    /// well-formed Las-Vegas algorithm outputs before (or when) halting.
    pub fn halt(&mut self) {
        self.halt = true;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inbox_access() {
        let inbox = Inbox::from_slots(vec![Some(&1u8), None, Some(&3)]);
        assert_eq!(inbox.len(), 3);
        assert!(!inbox.is_empty());
        assert_eq!(inbox.get(Port::new(0)), Some(&1));
        assert_eq!(inbox.get(Port::new(1)), None);
        assert!(!inbox.is_full());
        let pairs: Vec<(Port, &u8)> = inbox.iter().collect();
        assert_eq!(pairs, vec![(Port::new(0), &1), (Port::new(2), &3)]);
    }

    #[test]
    fn actions_idempotent_output() {
        let mut a: Actions<u8> = Actions::new(None);
        a.output(5);
        a.output(5);
        assert_eq!(a.output, Some(5));
        assert!(!a.output_written);
    }

    #[test]
    fn actions_conflicting_output_flags() {
        let mut a: Actions<u8> = Actions::new(Some(5));
        a.output(6);
        assert!(a.output_written);
    }

    #[test]
    fn actions_halt() {
        let mut a: Actions<u8> = Actions::new(None);
        assert!(!a.halt);
        a.halt();
        assert!(a.halt);
    }
}
