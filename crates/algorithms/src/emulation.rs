//! Port emulation via colors — the paper's Section 1.3 remark, executable:
//! *"by including the sender's color in every message missing port
//! numbers can be emulated."*
//!
//! [`VirtualPorts`] runs an arbitrary **port-sensitive**
//! [`Algorithm`] on top of the port-oblivious transport, provided the
//! input carries a 2-hop coloring:
//!
//! * round 1 exchanges colors; each node sorts its neighbors' colors
//!   (distinct, by the coloring) and uses the ranks as *virtual ports*;
//! * every subsequent round broadcasts one packet containing the sender's
//!   color and a list of `(recipient color, payload)` entries — the
//!   2-hop property guarantees that within any neighborhood, recipient
//!   colors identify recipients uniquely;
//! * receivers map the sender's color back to a virtual port and feed the
//!   wrapped algorithm a perfectly ordinary port-indexed inbox.
//!
//! The emulation is exact: the wrapped algorithm behaves as if it ran
//! directly on the graph whose port numbering sorts each adjacency list
//! by neighbor color (one round later). This is why restricting the
//! derandomization machinery to port-oblivious algorithms loses no
//! power on 2-hop colored instances.

use anonet_graph::Label;
use anonet_runtime::{Actions, Algorithm, Inbox, ObliviousAlgorithm};

/// A packet of the emulated transport.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub enum VpMessage<C, M> {
    /// Round 1: the sender's color.
    Hello(C),
    /// Later rounds: the sender's color plus directed payloads.
    Data {
        /// The sender's color (determines the receiver's virtual port).
        sender: C,
        /// `(recipient color, payload)` entries, one per virtual port the
        /// inner algorithm sent on.
        directed: Vec<(C, M)>,
    },
}

/// Local state of [`VirtualPorts`].
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct VpState<C, S> {
    color: C,
    /// Neighbor colors sorted ascending — index = virtual port.
    neighbor_colors: Option<Vec<C>>,
    inner: S,
}

impl<C, S> VpState<C, S> {
    /// The wrapped algorithm's current state.
    pub fn inner(&self) -> &S {
        &self.inner
    }
}

/// Runs a port-sensitive algorithm over color-emulated ports (requires a
/// 2-hop colored input; behaviour is unspecified otherwise).
///
/// * **Input**: `(inner input, color)`.
/// * **Output**: the inner algorithm's output, one emulated round per
///   real round after the color exchange.
#[derive(Clone, Copy, Debug, Default)]
pub struct VirtualPorts<A, C> {
    inner: A,
    _marker: std::marker::PhantomData<fn() -> C>,
}

impl<A, C> VirtualPorts<A, C> {
    /// Wraps a port-sensitive algorithm.
    pub fn new(inner: A) -> Self {
        VirtualPorts { inner, _marker: std::marker::PhantomData }
    }
}

impl<A, C> ObliviousAlgorithm for VirtualPorts<A, C>
where
    A: Algorithm<Input = ()>,
    C: Label,
    A::Message: Ord,
{
    type Input = ((), C);
    type Message = VpMessage<C, A::Message>;
    type Output = A::Output;
    type State = VpState<C, A::State>;

    fn init(&self, input: &Self::Input, degree: usize) -> Self::State {
        VpState {
            color: input.1.clone(),
            neighbor_colors: None,
            inner: self.inner.init(&(), degree),
        }
    }

    fn broadcast(&self, state: &Self::State) -> Option<Self::Message> {
        match &state.neighbor_colors {
            None => Some(VpMessage::Hello(state.color.clone())),
            Some(colors) => {
                let directed: Vec<(C, A::Message)> = colors
                    .iter()
                    .enumerate()
                    .filter_map(|(p, c)| {
                        self.inner
                            .compose(&state.inner, anonet_graph::Port::new(p))
                            .map(|m| (c.clone(), m))
                    })
                    .collect();
                Some(VpMessage::Data { sender: state.color.clone(), directed })
            }
        }
    }

    fn step(
        &self,
        mut state: Self::State,
        round: usize,
        received: &[&Self::Message],
        bit: bool,
        actions: &mut Actions<Self::Output>,
    ) -> Self::State {
        match &state.neighbor_colors {
            None => {
                let mut colors: Vec<C> = received
                    .iter()
                    .filter_map(|m| match m {
                        VpMessage::Hello(c) => Some(c.clone()),
                        VpMessage::Data { .. } => None,
                    })
                    .collect();
                colors.sort();
                state.neighbor_colors = Some(colors);
            }
            Some(colors) => {
                let mut slots: Vec<Option<&A::Message>> = vec![None; colors.len()];
                for m in received {
                    if let VpMessage::Data { sender, directed } = m {
                        if let Ok(port) = colors.binary_search(sender) {
                            for (addr, payload) in directed {
                                if *addr == state.color {
                                    slots[port] = Some(payload);
                                }
                            }
                        }
                    }
                }
                let inbox = Inbox::from_slots(slots);
                // The inner algorithm runs one round behind the transport.
                state.inner = self.inner.step(state.inner, round - 1, &inbox, bit, actions);
            }
        }
        state
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use anonet_graph::{coloring, generators, Graph, NodeId, Port};
    use anonet_runtime::{run, ExecConfig, Oblivious, ZeroSource};

    /// A deliberately port-sensitive probe: in round 1 every node sends
    /// its port index on each port; it outputs the sorted list of
    /// (own port, received value) pairs — a full fingerprint of the local
    /// port structure.
    #[derive(Clone, Copy, Debug)]
    struct PortProbe;

    impl Algorithm for PortProbe {
        type Input = ();
        type Message = u32;
        type Output = Vec<(u32, u32)>;
        type State = ();

        fn init(&self, _input: &(), _degree: usize) {}
        fn compose(&self, _state: &(), port: Port) -> Option<u32> {
            Some(port.index() as u32)
        }
        fn step(
            &self,
            _state: (),
            _round: usize,
            inbox: &Inbox<u32>,
            _bit: bool,
            actions: &mut Actions<Vec<(u32, u32)>>,
        ) {
            let mut pairs: Vec<(u32, u32)> =
                inbox.iter().map(|(p, m)| (p.index() as u32, *m)).collect();
            pairs.sort();
            actions.output(pairs);
            actions.halt();
        }
    }

    /// The graph whose port numbering sorts each adjacency list by
    /// neighbor color — the reference the emulation must reproduce.
    fn color_sorted_ports(g: &Graph, colors: &[u32]) -> Graph {
        let adj: Vec<Vec<NodeId>> = g
            .nodes()
            .map(|v| {
                let mut nbrs: Vec<NodeId> = g.neighbors(v).to_vec();
                nbrs.sort_by_key(|u| colors[u.index()]);
                nbrs
            })
            .collect();
        Graph::from_adjacency(adj).expect("same topology, new ports")
    }

    #[test]
    fn emulated_ports_match_color_sorted_real_ports() {
        for g in [
            generators::cycle(7).unwrap(),
            generators::petersen(),
            generators::grid(3, 3, false).unwrap(),
        ] {
            let colored = coloring::greedy_two_hop_coloring(&g);
            let colors = colored.labels().to_vec();

            // Reference: PortProbe directly on the color-sorted graph.
            let reference_net = color_sorted_ports(&g, &colors).with_uniform_label(());
            let reference =
                run(&PortProbe, &reference_net, &mut ZeroSource, &ExecConfig::default()).unwrap();

            // Emulated: VirtualPorts over the oblivious transport.
            let net = g.with_labels(colors.iter().map(|&c| ((), c)).collect::<Vec<_>>()).unwrap();
            let emulated = run(
                &Oblivious(VirtualPorts::<_, u32>::new(PortProbe)),
                &net,
                &mut ZeroSource,
                &ExecConfig::default(),
            )
            .unwrap();

            assert_eq!(emulated.outputs(), reference.outputs(), "mismatch on {g}");
            // One extra round for the color exchange.
            assert_eq!(emulated.rounds(), reference.rounds() + 1);
        }
    }

    /// Multi-round port sensitivity: forward the port-0 message along for
    /// three rounds, then output it.
    #[derive(Clone, Copy, Debug)]
    struct Chain;

    impl Algorithm for Chain {
        type Input = ();
        type Message = u32;
        type Output = u32;
        type State = u32;

        fn init(&self, _input: &(), _degree: usize) -> u32 {
            1
        }
        fn compose(&self, state: &u32, port: Port) -> Option<u32> {
            (port.index() == 0).then_some(*state)
        }
        fn step(
            &self,
            state: u32,
            round: usize,
            inbox: &Inbox<u32>,
            _bit: bool,
            actions: &mut Actions<u32>,
        ) -> u32 {
            let carried = inbox.get(Port::new(0)).copied().unwrap_or(state) * 3 + 1;
            if round == 3 {
                actions.output(carried);
                actions.halt();
            }
            carried
        }
    }

    #[test]
    fn multi_round_emulation_is_exact() {
        let g = generators::cycle(6).unwrap();
        let colored = coloring::greedy_two_hop_coloring(&g);
        let colors = colored.labels().to_vec();

        let reference_net = color_sorted_ports(&g, &colors).with_uniform_label(());
        let reference =
            run(&Chain, &reference_net, &mut ZeroSource, &ExecConfig::default()).unwrap();

        let net = g.with_labels(colors.iter().map(|&c| ((), c)).collect::<Vec<_>>()).unwrap();
        let emulated = run(
            &Oblivious(VirtualPorts::<_, u32>::new(Chain)),
            &net,
            &mut ZeroSource,
            &ExecConfig::default(),
        )
        .unwrap();
        assert_eq!(emulated.outputs(), reference.outputs());
    }
}
