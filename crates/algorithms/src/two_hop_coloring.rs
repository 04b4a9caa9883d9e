//! The Las-Vegas anonymous 2-hop coloring algorithm — the generic
//! randomized preprocessing stage of the paper's Theorem 1.
//!
//! # Protocol
//!
//! Every undecided node grows a random bitstring *color*, one bit per
//! round. Each round every node broadcasts `(color, decided,
//! last-seen neighbor table)`, so a node sees its neighbors' states
//! fresh and its 2-hop neighbors' states two rounds stale. A node
//! **decides** (freezes and outputs its color) as soon as no *clash*
//! remains possible, where for a node with current color `a`:
//!
//! * an undecided peer with (possibly stale) color `b` clashes iff `b` is
//!   a prefix of `a` — undecided colors only grow, and once two colors
//!   differ at a position they differ forever;
//! * a decided peer with final color `b` clashes iff `a` is a prefix of
//!   `b` — the node's own future colors extend `a` and could hit `b`.
//!
//! Distance-2 peers are seen through neighbor tables without identities —
//! anonymous nodes cannot tell *which* table entry is themselves. The
//! algorithm uses the paper's Section 1.3 observation that port numbers
//! (and identities) are unnecessary: a node always occupies **exactly
//! one** entry of each neighbor's table, and it knows precisely what that
//! entry says (its own state two rounds ago). A clashing table entry is
//! therefore *really someone else* unless it equals the node's own stale
//! state with multiplicity one.
//!
//! Termination is Las-Vegas: any persisting clash requires fresh random
//! bits to keep coinciding, which happens with probability zero in the
//! limit. The output is **always** a valid 2-hop coloring (the decision
//! rule is sound, not probabilistic).

use std::sync::Arc;

use anonet_graph::BitString;
use anonet_runtime::{Actions, ObliviousAlgorithm};

/// A peer's state as carried in messages: `(color, decided)`.
type PeerState = (BitString, bool);

/// The Las-Vegas anonymous 2-hop coloring algorithm.
///
/// * **Input**: anything (ignored); the problem is solvable on every
///   connected graph, which is what makes it the universal preprocessing
///   stage.
/// * **Output**: a [`BitString`] color such that the output labeling is a
///   2-hop coloring of the network.
///
/// # Example
///
/// ```
/// use anonet_graph::{coloring, generators, BitString, LabeledGraph};
/// use anonet_runtime::{run, ExecConfig, Oblivious, RngSource};
/// use anonet_algorithms::two_hop_coloring::TwoHopColoring;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let net = generators::petersen().with_uniform_label(());
/// let exec = run(
///     &Oblivious(TwoHopColoring::new()),
///     &net,
///     &mut RngSource::seeded(7),
///     &ExecConfig::default(),
/// )?;
/// assert!(exec.is_successful());
/// let colored: LabeledGraph<BitString> =
///     net.graph().with_labels(exec.outputs_unwrapped())?;
/// assert!(coloring::is_two_hop_coloring(&colored));
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Copy, Debug, Default)]
pub struct TwoHopColoring;

impl TwoHopColoring {
    /// Creates the algorithm.
    pub fn new() -> Self {
        TwoHopColoring
    }
}

/// Local state of [`TwoHopColoring`].
///
/// Equality and `Debug` read the model state only: the spare relay buffer
/// is an allocation kept for reuse, not something the node knows.
#[derive(Clone)]
pub struct TwoHopState {
    /// Current color (frozen once decided).
    color: BitString,
    /// Whether the color is final.
    decided: bool,
    /// The node's own broadcast state from two rounds ago — what its entry
    /// in a neighbor's current table says.
    stale_self: PeerState,
    /// The node's own broadcast state from one round ago (becomes
    /// `stale_self` next round).
    prev_self: PeerState,
    /// Neighbor states received last round (to be relayed this round),
    /// shared by every message that relays them.
    table: Arc<[PeerState]>,
    /// The table relayed the round before, kept to be refilled. By this
    /// node's next step the engine has dropped every message that shared
    /// it, so it is unique again unless a state snapshot holds it.
    spare: Arc<[PeerState]>,
}

impl PartialEq for TwoHopState {
    fn eq(&self, other: &Self) -> bool {
        self.color == other.color
            && self.decided == other.decided
            && self.stale_self == other.stale_self
            && self.prev_self == other.prev_self
            && self.table == other.table
    }
}

impl Eq for TwoHopState {}

impl std::fmt::Debug for TwoHopState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TwoHopState")
            .field("color", &self.color)
            .field("decided", &self.decided)
            .field("stale_self", &self.stale_self)
            .field("prev_self", &self.prev_self)
            .field("table", &self.table)
            .finish()
    }
}

impl TwoHopState {
    /// The current color (final iff [`TwoHopState::is_decided`]).
    pub fn color(&self) -> &BitString {
        &self.color
    }

    /// Whether the node has decided.
    pub fn is_decided(&self) -> bool {
        self.decided
    }
}

/// Message: own `(color, decided)` plus the relayed table of last-seen
/// neighbor states (the 2-hop information channel). The table is shared,
/// so a broadcast copies no peer state.
type Message = (PeerState, Arc<[PeerState]>);

/// Does a peer in state `peer` clash with an undecided node whose current
/// color is `a`? See the module docs for the case analysis.
fn clashes(a: &BitString, peer: &PeerState) -> bool {
    let (b, decided) = peer;
    if *decided {
        a.is_prefix_of(b)
    } else {
        b.is_prefix_of(a)
    }
}

impl ObliviousAlgorithm for TwoHopColoring {
    type Input = ();
    type Message = Message;
    type Output = BitString;
    type State = TwoHopState;

    fn init(&self, _input: &(), _degree: usize) -> TwoHopState {
        let empty: PeerState = (BitString::new(), false);
        TwoHopState {
            color: BitString::new(),
            decided: false,
            stale_self: empty.clone(),
            prev_self: empty,
            table: Arc::default(),
            spare: Arc::default(),
        }
    }

    fn broadcast(&self, state: &TwoHopState) -> Option<Message> {
        Some(((state.color.clone(), state.decided), Arc::clone(&state.table)))
    }

    fn step(
        &self,
        mut state: TwoHopState,
        _round: usize,
        received: &[&Message],
        bit: bool,
        actions: &mut Actions<BitString>,
    ) -> TwoHopState {
        // What this node just broadcast becomes "one round ago"; what was
        // one round ago becomes "two rounds ago" (= its entry in the
        // tables arriving next round... i.e. the tables arriving NOW were
        // composed from states two rounds ago, which is the *current*
        // `stale_self` after this shift).
        let broadcast_now: PeerState = (state.color.clone(), state.decided);
        state.stale_self = std::mem::replace(&mut state.prev_self, broadcast_now);

        if !state.decided {
            let mut clash = false;
            // Direct neighbors: fresh states.
            for (peer, _table) in received {
                if clashes(&state.color, peer) {
                    clash = true;
                    break;
                }
            }
            // Distance-2 peers: table entries, with self-exclusion by
            // multiplicity counting. In each table this node occupies
            // exactly one entry, equal to `stale_self`.
            if !clash {
                'outer: for (_, table) in received {
                    if table.is_empty() {
                        // Tables are still warming up: no 2-hop info yet
                        // means this node cannot certify safety. (Only
                        // happens in round 1, when colors are all ε and a
                        // direct clash fires anyway; kept for robustness.)
                        clash = true;
                        break;
                    }
                    let mut self_budget = 1usize; // skip own entry once
                    for entry in table.iter() {
                        if *entry == state.stale_self && self_budget > 0 {
                            self_budget -= 1;
                            continue;
                        }
                        if clashes(&state.color, entry) {
                            clash = true;
                            break 'outer;
                        }
                    }
                }
            }
            if clash {
                state.color.push(bit);
            } else {
                state.decided = true;
                actions.output(state.color.clone());
            }
        }

        // Refresh the relay table with this round's fresh neighbor states.
        // `received` is sorted by `(peer, table)`, so the peers already
        // come in order. The spare is refilled in place when it is unique
        // and the number of broadcasting neighbors has not changed.
        match Arc::get_mut(&mut state.spare).filter(|t| t.len() == received.len()) {
            Some(slots) => {
                for (slot, (peer, _)) in slots.iter_mut().zip(received) {
                    slot.clone_from(peer);
                }
            }
            None => state.spare = received.iter().map(|(peer, _)| peer.clone()).collect(),
        }
        std::mem::swap(&mut state.table, &mut state.spare);
        debug_assert!(state.table.is_sorted());

        // Halting: decided, and every still-active neighbor reports a
        // fully decided 1-hop and 2-hop picture. Silent (halted) neighbors
        // only halt after observing the same, so they are decided too.
        if state.decided {
            let all_done = received
                .iter()
                .all(|(peer, table)| peer.1 && !table.is_empty() && table.iter().all(|(_, d)| *d));
            if all_done {
                actions.halt();
            }
        }
        state
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use anonet_graph::coloring::is_two_hop_coloring;
    use anonet_graph::{generators, Graph, LabeledGraph};
    use anonet_runtime::{run, ExecConfig, Execution, Oblivious, RngSource, Status};

    fn color_graph(g: &Graph, seed: u64) -> Execution<Oblivious<TwoHopColoring>> {
        let net = g.with_uniform_label(());
        run(
            &Oblivious(TwoHopColoring::new()),
            &net,
            &mut RngSource::seeded(seed),
            &ExecConfig::default(),
        )
        .expect("execution must not error")
    }

    fn assert_valid_two_hop(g: &Graph, exec: &Execution<Oblivious<TwoHopColoring>>) {
        assert_eq!(exec.status(), Status::Completed);
        assert!(exec.is_successful());
        let colored: LabeledGraph<BitString> = g.with_labels(exec.outputs_unwrapped()).unwrap();
        assert!(is_two_hop_coloring(&colored), "invalid 2-hop coloring on {g}");
    }

    #[test]
    fn colors_cycles() {
        for n in [3usize, 4, 5, 6, 10, 17] {
            let g = generators::cycle(n).unwrap();
            for seed in 0..5 {
                assert_valid_two_hop(&g, &color_graph(&g, seed));
            }
        }
    }

    #[test]
    fn colors_varied_families() {
        let graphs = vec![
            generators::path(9).unwrap(),
            generators::complete(6).unwrap(),
            generators::star(8).unwrap(),
            generators::petersen(),
            generators::hypercube(3).unwrap(),
            generators::grid(3, 4, false).unwrap(),
        ];
        for g in graphs {
            for seed in 0..3 {
                assert_valid_two_hop(&g, &color_graph(&g, seed));
            }
        }
    }

    #[test]
    fn single_node_decides_immediately() {
        let g = Graph::builder(1).build().unwrap();
        let exec = color_graph(&g, 1);
        assert!(exec.is_successful());
        // With no neighbors there are no clashes: the empty color suffices
        // and the node halts in round 1.
        assert_eq!(exec.rounds(), 1);
    }

    #[test]
    fn is_reproducible_per_seed() {
        let g = generators::petersen();
        let a = color_graph(&g, 99);
        let b = color_graph(&g, 99);
        assert_eq!(a.outputs(), b.outputs());
        assert_eq!(a.rounds(), b.rounds());
    }

    #[test]
    fn different_seeds_usually_differ() {
        let g = generators::petersen();
        let a = color_graph(&g, 1);
        let b = color_graph(&g, 2);
        assert_ne!(a.outputs(), b.outputs());
    }

    #[test]
    fn the_spare_relay_buffer_is_not_model_state() {
        let a = TwoHopColoring.init(&(), 2);
        let mut b = a.clone();
        b.spare = vec![("0110".parse().unwrap(), true); 3].into();
        assert_eq!(a, b);
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
        b.table = Arc::clone(&b.spare);
        assert_ne!(a, b);
    }

    #[test]
    fn rounds_stay_reasonable() {
        // Colors need ~log(local competition) bits; wildly long runs would
        // indicate a liveness bug.
        let g = generators::grid(5, 5, false).unwrap();
        let exec = color_graph(&g, 3);
        assert!(exec.rounds() < 200, "took {} rounds", exec.rounds());
    }

    #[test]
    fn works_on_random_trees_and_gnp() {
        use rand::SeedableRng;
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(5);
        for _ in 0..3 {
            let t = generators::random_tree(20, &mut rng).unwrap();
            assert_valid_two_hop(&t, &color_graph(&t, 11));
            let g = generators::gnp_connected(15, 0.2, &mut rng).unwrap();
            assert_valid_two_hop(&g, &color_graph(&g, 12));
        }
    }
}
