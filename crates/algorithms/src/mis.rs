//! Las-Vegas anonymous maximal independent set (paper, Section 1:
//! "the extensively studied MIS problem is solvable in an anonymous
//! network only if random bits are available").
//!
//! # Protocol
//!
//! The classic coin-tossing MIS, phrased for one random bit per round.
//! Iterations of three rounds:
//!
//! 1. **Toss** — every active node draws a bit and broadcasts it;
//! 2. **Join** — a node that drew 1 while all its active neighbors drew 0
//!    joins the MIS and announces it;
//! 3. **Retire** — active neighbors of joiners leave the contest and
//!    announce that, letting everyone track who is still active.
//!
//! Every iteration, an active component has positive probability of
//! producing a joiner (e.g. exactly one node tossing 1), so the algorithm
//! terminates with probability 1; the output is always independent and
//! maximal by construction (Las-Vegas).

use anonet_runtime::{Actions, ObliviousAlgorithm};

/// Where a node stands in the contest.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub enum MisStatus {
    /// Still competing.
    Active,
    /// Entered the MIS.
    Joined,
    /// Has a neighbor in the MIS.
    Retired,
}

/// Messages exchanged: the phase tag keeps lockstep explicit.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub enum MisMessage {
    /// Phase 1: my coin for this iteration (only active nodes toss).
    Toss(bool),
    /// Phase 2: whether I joined this iteration.
    Join(bool),
    /// Phase 3: my status after retirement propagation.
    Status(MisStatus),
}

/// Local state of [`RandomizedMis`].
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct MisState {
    status: MisStatus,
    /// My coin this iteration (while active).
    coin: bool,
    /// Number of neighbors known to be still active.
    active_neighbors: usize,
    /// Pending message for the next compose.
    outgoing: MisMessage,
    /// Whether every neighbor has settled (for halting).
    neighbors_settled: bool,
}

impl MisState {
    /// Current status.
    pub fn status(&self) -> MisStatus {
        self.status
    }
}

/// The Las-Vegas anonymous MIS algorithm.
///
/// * **Input**: ignored (`()`).
/// * **Output**: `true` iff the node is in the MIS; the output set is
///   always independent and maximal.
///
/// # Example
///
/// ```
/// use anonet_graph::generators;
/// use anonet_runtime::{run, ExecConfig, Oblivious, RngSource};
/// use anonet_algorithms::{mis::RandomizedMis, problems::MisProblem};
/// use anonet_runtime::Problem;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let net = generators::cycle(8)?.with_uniform_label(());
/// let exec = run(&Oblivious(RandomizedMis::new()), &net,
///                &mut RngSource::seeded(3), &ExecConfig::default())?;
/// assert!(MisProblem.is_valid_output(&net, &exec.outputs_unwrapped()));
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Copy, Debug, Default)]
pub struct RandomizedMis;

impl RandomizedMis {
    /// Creates the algorithm.
    pub fn new() -> Self {
        RandomizedMis
    }
}

impl ObliviousAlgorithm for RandomizedMis {
    type Input = ();
    type Message = MisMessage;
    type Output = bool;
    type State = MisState;

    fn init(&self, _input: &(), degree: usize) -> MisState {
        MisState {
            status: MisStatus::Active,
            coin: false,
            active_neighbors: degree,
            outgoing: MisMessage::Toss(false), // overwritten before use
            neighbors_settled: false,
        }
    }

    fn broadcast(&self, state: &MisState) -> Option<MisMessage> {
        Some(state.outgoing.clone())
    }

    fn step(
        &self,
        mut state: MisState,
        round: usize,
        received: &[&MisMessage],
        bit: bool,
        actions: &mut Actions<bool>,
    ) -> MisState {
        // Rounds are 1-indexed; round 1 is a warm-up in which the
        // placeholder Toss(false) messages circulate and every node draws
        // its first real coin for the iteration starting at round 2.
        match round % 3 {
            1 => {
                // Prepare phase 1 of the next iteration: toss.
                if state.status == MisStatus::Active {
                    state.coin = bit;
                    state.outgoing = MisMessage::Toss(state.coin);
                } else {
                    state.outgoing = MisMessage::Status(state.status);
                }
            }
            2 => {
                // Received the tosses; decide joining.
                if state.status == MisStatus::Active {
                    let someone_active_tossed_one =
                        received.iter().any(|m| matches!(m, MisMessage::Toss(true)));
                    if state.coin && !someone_active_tossed_one {
                        state.status = MisStatus::Joined;
                        actions.output(true);
                    }
                }
                state.outgoing = MisMessage::Join(state.status == MisStatus::Joined);
            }
            0 => {
                // Received the join announcements; retire.
                if state.status == MisStatus::Active
                    && received.iter().any(|m| matches!(m, MisMessage::Join(true)))
                {
                    state.status = MisStatus::Retired;
                    actions.output(false);
                }
                state.outgoing = MisMessage::Status(state.status);
            }
            _ => unreachable!("round % 3 is exhaustive"),
        }

        // Settlement tracking: in the status phase everyone reports; halt
        // once this node and all neighbors are settled.
        if round % 3 == 1 && round > 1 {
            // The messages received this round are Status reports.
            state.neighbors_settled = received
                .iter()
                .all(|m| matches!(m, MisMessage::Status(MisStatus::Joined | MisStatus::Retired)));
            if state.status != MisStatus::Active && state.neighbors_settled {
                actions.halt();
            }
        }
        state
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problems::MisProblem;
    use anonet_graph::{generators, Graph};
    use anonet_runtime::{run, ExecConfig, Oblivious, Problem, RngSource, Status};

    fn solve(g: &Graph, seed: u64) -> Vec<bool> {
        let net = g.with_uniform_label(());
        let exec = run(
            &Oblivious(RandomizedMis::new()),
            &net,
            &mut RngSource::seeded(seed),
            &ExecConfig::default(),
        )
        .unwrap();
        assert_eq!(exec.status(), Status::Completed);
        assert!(exec.is_successful());
        exec.outputs_unwrapped()
    }

    fn assert_valid_mis(g: &Graph, output: &[bool]) {
        let net = g.with_uniform_label(());
        assert!(MisProblem.is_valid_output(&net, output), "invalid MIS on {g}: {output:?}");
    }

    #[test]
    fn solves_cycles() {
        for n in [3usize, 4, 7, 12] {
            let g = generators::cycle(n).unwrap();
            for seed in 0..5 {
                assert_valid_mis(&g, &solve(&g, seed));
            }
        }
    }

    #[test]
    fn solves_varied_families() {
        let graphs = vec![
            generators::path(10).unwrap(),
            generators::complete(5).unwrap(),
            generators::star(9).unwrap(),
            generators::petersen(),
            generators::grid(4, 4, false).unwrap(),
        ];
        for g in graphs {
            for seed in 0..3 {
                assert_valid_mis(&g, &solve(&g, seed));
            }
        }
    }

    #[test]
    fn complete_graph_mis_is_single_node() {
        let g = generators::complete(6).unwrap();
        let out = solve(&g, 4);
        assert_eq!(out.iter().filter(|&&b| b).count(), 1);
    }

    #[test]
    fn single_node_joins() {
        let g = Graph::builder(1).build().unwrap();
        assert_eq!(solve(&g, 0), vec![true]);
    }

    #[test]
    fn reproducible_per_seed() {
        let g = generators::petersen();
        assert_eq!(solve(&g, 42), solve(&g, 42));
    }
}
