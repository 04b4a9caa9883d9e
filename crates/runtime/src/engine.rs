//! The synchronous execution engine.

use anonet_graph::{Label, LabeledGraph, NodeId, Port};

use crate::adversary::{FairScheduler, RoundAdversary};
use crate::algorithm::{Actions, Algorithm, Inbox};
use crate::error::RuntimeError;
use crate::randomness::RandomSource;
use crate::{recycle, Result};

/// Configuration for a single execution.
#[derive(Clone, Copy, Debug)]
pub struct ExecConfig {
    /// Hard cap on the number of rounds; executions that reach it stop
    /// with [`Status::MaxRounds`]. Defaults to `100_000`.
    pub max_rounds: usize,
    /// Record the full per-round state history (round 0 = initial states).
    /// Needed by the lifting-lemma experiments; costs memory. Defaults to
    /// `false`.
    pub record_states: bool,
    /// Record a structured [`Event`](crate::Event) log (sends, outputs,
    /// halts). Defaults to `false`.
    pub record_events: bool,
}

impl Default for ExecConfig {
    fn default() -> Self {
        ExecConfig { max_rounds: 100_000, record_states: false, record_events: false }
    }
}

impl ExecConfig {
    /// Config with a custom round cap.
    pub fn with_max_rounds(max_rounds: usize) -> Self {
        ExecConfig { max_rounds, ..Default::default() }
    }

    /// Enables state recording.
    pub fn recording(mut self) -> Self {
        self.record_states = true;
        self
    }

    /// Enables event tracing.
    pub fn tracing(mut self) -> Self {
        self.record_events = true;
        self
    }
}

/// How an execution ended.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Status {
    /// Every node halted.
    Completed,
    /// Some active node's [`RandomSource`] ran out of bits — the
    /// prescribed simulation ended (paper: a `t`-round simulation).
    OutOfBits,
    /// The round cap was reached with active nodes remaining.
    MaxRounds,
}

/// The result of executing an [`Algorithm`] on a network.
#[derive(Clone, Debug)]
pub struct Execution<A: Algorithm> {
    outputs: Vec<Option<A::Output>>,
    output_rounds: Vec<Option<usize>>,
    halt_rounds: Vec<Option<usize>>,
    final_states: Vec<A::State>,
    state_history: Option<Vec<Vec<A::State>>>,
    rounds: usize,
    messages_sent: usize,
    message_bytes: usize,
    messages_per_round: Vec<usize>,
    active_per_round: Vec<usize>,
    events: Option<Vec<crate::Event>>,
    bits_consumed: usize,
    status: Status,
}

impl<A: Algorithm> Execution<A> {
    /// The irrevocable outputs, indexed by node (`None` = never produced).
    pub fn outputs(&self) -> &[Option<A::Output>] {
        &self.outputs
    }

    /// The output of one node.
    pub fn output(&self, v: NodeId) -> Option<&A::Output> {
        self.outputs[v.index()].as_ref()
    }

    /// `true` iff **every** node produced an output — the paper's notion
    /// of a *successful* simulation (Section 2.2).
    pub fn is_successful(&self) -> bool {
        self.outputs.iter().all(Option::is_some)
    }

    /// Unwraps the outputs of a successful execution.
    ///
    /// # Panics
    ///
    /// Panics if some node produced no output; check
    /// [`Execution::is_successful`] first.
    pub fn outputs_unwrapped(&self) -> Vec<A::Output> {
        // anonet-lint: allow(panic-hygiene, reason = "documented panicking accessor; callers check is_successful first")
        self.outputs.iter().map(|o| o.clone().expect("execution was not successful")).collect()
    }

    /// The round in which each node wrote its output.
    pub fn output_rounds(&self) -> &[Option<usize>] {
        &self.output_rounds
    }

    /// The round in which each node halted.
    pub fn halt_rounds(&self) -> &[Option<usize>] {
        &self.halt_rounds
    }

    /// Final per-node states.
    pub fn final_states(&self) -> &[A::State] {
        &self.final_states
    }

    /// Per-node states after `round` (0 = initial), if recording was on.
    pub fn states_at(&self, round: usize) -> Option<&[A::State]> {
        self.state_history.as_ref()?.get(round).map(Vec::as_slice)
    }

    /// Number of rounds executed.
    pub fn rounds(&self) -> usize {
        self.rounds
    }

    /// Total messages delivered across the execution.
    pub fn messages_sent(&self) -> usize {
        self.messages_sent
    }

    /// Nominal message volume: `size_of::<A::Message>()` per delivered
    /// message. This is a model-level count, not the bytes the engine
    /// copied — a broadcast is composed once and read by reference, and
    /// heap data behind the message is not counted.
    pub fn message_bytes(&self) -> usize {
        self.message_bytes
    }

    /// Messages delivered in each round (index 0 = round 1).
    pub fn messages_per_round(&self) -> &[usize] {
        &self.messages_per_round
    }

    /// Number of non-halted nodes at the start of each round.
    pub fn active_per_round(&self) -> &[usize] {
        &self.active_per_round
    }

    /// The structured event log, if tracing was enabled.
    pub fn events(&self) -> Option<&[crate::Event]> {
        self.events.as_deref()
    }

    /// Renders the traced events as an ASCII timeline (empty without
    /// tracing).
    pub fn timeline(&self) -> String {
        self.events.as_deref().map(crate::trace::timeline_text).unwrap_or_default()
    }

    /// Total random bits consumed (one per active node per round).
    pub fn bits_consumed(&self) -> usize {
        self.bits_consumed
    }

    /// How the execution ended.
    pub fn status(&self) -> Status {
        self.status
    }
}

/// Executes `alg` on the network `net` (a connected labeled graph whose
/// labels are the nodes' inputs), drawing bits from `source`.
///
/// # Errors
///
/// * [`RuntimeError::InvalidNetwork`] if the graph is not connected (the
///   model only defines executions on connected graphs);
/// * [`RuntimeError::OutputConflict`] if a node overwrites its output.
pub fn run<A, S>(
    alg: &A,
    net: &LabeledGraph<A::Input>,
    source: &mut S,
    config: &ExecConfig,
) -> Result<Execution<A>>
where
    A: Algorithm,
    A::Input: Label,
    S: RandomSource + ?Sized,
{
    run_with_adversary(alg, net, source, config, &mut FairScheduler)
}

/// [`run`] under an explicit [`RoundAdversary`] controlling the within-round
/// sweep orders (delivery and wakeup). Rounds are simultaneous in the
/// model, so outputs must not depend on the adversary — divergence under
/// different adversaries is an engine or algorithm bug.
///
/// # Errors
///
/// As [`run`], plus [`RuntimeError::InvalidSchedule`] if the adversary
/// emits something that is not a permutation of the node set.
pub fn run_with_adversary<A, S>(
    alg: &A,
    net: &LabeledGraph<A::Input>,
    source: &mut S,
    config: &ExecConfig,
    adversary: &mut (impl RoundAdversary + ?Sized),
) -> Result<Execution<A>>
where
    A: Algorithm,
    A::Input: Label,
    S: RandomSource + ?Sized,
{
    let g = net.graph();
    if !g.is_connected() {
        return Err(RuntimeError::InvalidNetwork { reason: "graph is not connected".into() });
    }
    let n = g.node_count();

    // States live in `Option` slots so `step` can move them out and back
    // in; outside the step loop every slot holds a state.
    let mut states: Vec<Option<A::State>> =
        g.nodes().map(|v| Some(alg.init(net.label(v), g.degree(v)))).collect();
    let mut outputs: Vec<Option<A::Output>> = vec![None; n];
    let mut output_rounds: Vec<Option<usize>> = vec![None; n];
    let mut halt_rounds: Vec<Option<usize>> = vec![None; n];
    let mut halted = vec![false; n];
    let mut active = n;
    let mut history: Option<Vec<Vec<A::State>>> =
        config.record_states.then(|| vec![snapshot(&states)]);

    let mut events: Option<Vec<crate::Event>> = config.record_events.then(Vec::new);
    let message_size = std::mem::size_of::<A::Message>();
    let mut messages_sent = 0usize;
    let mut message_bytes = 0usize;
    let mut messages_per_round: Vec<usize> = Vec::new();
    let mut active_per_round: Vec<usize> = Vec::new();
    let mut bits_consumed = 0usize;
    let mut rounds = 0usize;
    // One reusable outgoing buffer per node, filled by `compose_round`:
    // a single entry for a uniform sender, one per port otherwise.
    let mut outgoing: Vec<Vec<Option<A::Message>>> = vec![Vec::new(); n];
    // Only active nodes' bits are read, and each round writes all of them.
    let mut bits: Vec<bool> = vec![false; n];
    let mut seen = OrderStamps::new(n);
    // The inbox slot buffer, kept empty between rounds: each round's
    // slots borrow that round's outgoing buffers.
    let mut spare_slots: Vec<Option<&'static ()>> = Vec::new();

    let status = loop {
        if active == 0 {
            break Status::Completed;
        }
        let round = rounds + 1;
        if round > config.max_rounds {
            break Status::MaxRounds;
        }

        // Draw this round's bits for active nodes first: if any tape is
        // exhausted, the prescribed simulation ends *before* this round.
        let mut exhausted = false;
        for v in g.nodes() {
            if halted[v.index()] {
                continue;
            }
            match source.bit(v, round) {
                Some(b) => bits[v.index()] = b,
                None => {
                    exhausted = true;
                    break;
                }
            }
        }
        if exhausted {
            break Status::OutOfBits;
        }

        active_per_round.push(active);
        let round_message_base = messages_sent;

        // Compose, in the adversary's delivery order. Every node composes
        // against the same pre-round state snapshot into its own buffer,
        // so the order cannot change the delivered messages — the
        // adversary only gets to prove that. A halted node's buffer stays
        // empty: its neighbors hear silence.
        let order = adversary.compose_order(n, round);
        seen.check(&order, round, "compose")?;
        for &i in &order {
            let out = &mut outgoing[i];
            out.clear();
            if halted[i] {
                continue;
            }
            let Some(state) = states[i].as_ref() else {
                continue;
            };
            let v = NodeId::new(i);
            let degree = g.degree(v);
            alg.compose_round(state, degree, out);
            let sent = |p| crate::Event::MessageSent {
                round,
                from: v,
                port: Port::new(p),
                bytes: message_size,
            };
            match out.as_slice() {
                // A broadcast: `degree` sends, counted in one addition.
                [Some(_)] => {
                    messages_sent += degree;
                    message_bytes += degree * message_size;
                    if let Some(ev) = events.as_mut() {
                        ev.extend((0..degree).map(sent));
                    }
                }
                // Per port, or a silent uniform sender.
                per_port => {
                    for (p, m) in per_port.iter().take(degree).enumerate() {
                        if m.is_none() {
                            continue;
                        }
                        messages_sent += 1;
                        message_bytes += message_size;
                        if let Some(ev) = events.as_mut() {
                            ev.push(sent(p));
                        }
                    }
                }
            }
        }

        // Deliver and step, in the adversary's wakeup order. A node's
        // inbox borrows its neighbors' buffers, which nobody writes until
        // the next round, and each node writes only its own slots, so
        // this order is equally inert. One slot buffer serves every inbox
        // of the run.
        let order = adversary.step_order(n, round);
        seen.check(&order, round, "step")?;
        let mut slots: Vec<Option<&A::Message>> = recycle(std::mem::take(&mut spare_slots));
        for &i in &order {
            if halted[i] {
                continue;
            }
            let Some(state) = states[i].take() else {
                continue;
            };
            let v = NodeId::new(i);
            bits_consumed += 1;
            if let Some(ev) = events.as_mut() {
                ev.push(crate::Event::BitsDrawn { round, node: v, count: 1 });
            }
            slots.clear();
            for (p, u) in g.neighbors(v).iter().enumerate() {
                slots.push(sent_on(&outgoing[u.index()], || g.reverse_port(v, Port::new(p))));
            }
            let inbox = Inbox::from_slots(slots);
            let had_output = outputs[i].is_some();
            let mut actions: Actions<A::Output> = Actions::new(outputs[i].take());
            states[i] = Some(alg.step(state, round, &inbox, bits[i], &mut actions));
            slots = inbox.into_slots();
            if actions.output_written {
                return Err(RuntimeError::OutputConflict { node: v, round });
            }
            if !had_output && actions.output.is_some() {
                output_rounds[i] = Some(round);
                if let Some(ev) = events.as_mut() {
                    ev.push(crate::Event::OutputSet { round, node: v });
                }
            }
            outputs[i] = actions.output;
            if actions.halt {
                halted[i] = true;
                active -= 1;
                halt_rounds[i] = Some(round);
                if let Some(ev) = events.as_mut() {
                    ev.push(crate::Event::Halted { round, node: v });
                }
            }
        }

        spare_slots = recycle(slots);
        rounds = round;
        messages_per_round.push(messages_sent - round_message_base);
        if let Some(h) = history.as_mut() {
            h.push(snapshot(&states));
        }
    };

    Ok(Execution {
        outputs,
        output_rounds,
        halt_rounds,
        final_states: states.into_iter().flatten().collect(),
        state_history: history,
        rounds,
        messages_sent,
        message_bytes,
        messages_per_round,
        active_per_round,
        events,
        bits_consumed,
        status,
    })
}

/// The message a sender's `compose_round` buffer carries on one of its
/// ports: nothing from a silent (halted) sender, the single entry of a
/// uniform sender, else the entry of that port. Only the last case
/// computes the port.
fn sent_on<M>(out: &[Option<M>], port: impl FnOnce() -> Port) -> Option<&M> {
    match out {
        [] => None,
        [uniform] => uniform.as_ref(),
        per_port => per_port.get(port().index())?.as_ref(),
    }
}

/// Clones the states of every node, for the recorded history.
fn snapshot<S: Clone>(states: &[Option<S>]) -> Vec<S> {
    states.iter().flatten().cloned().collect()
}

/// Validates adversary-supplied orders as permutations of `0..n`, in
/// place: `stamp[v] == epoch` marks node `v` as seen by the current check,
/// and each check starts a fresh epoch, so the buffer is never cleared.
struct OrderStamps {
    stamp: Vec<u64>,
    epoch: u64,
}

impl OrderStamps {
    fn new(n: usize) -> Self {
        OrderStamps { stamp: vec![0; n], epoch: 0 }
    }

    /// Checks `order`; the error names the phase, the round and the first
    /// offending entry, never the whole order.
    fn check(&mut self, order: &[usize], round: usize, phase: &str) -> Result<()> {
        let n = self.stamp.len();
        let invalid = |what: String| {
            Err(RuntimeError::InvalidSchedule {
                round,
                reason: format!("{phase} order is not a permutation of 0..{n}: {what}"),
            })
        };
        if order.len() != n {
            return invalid(format!("it has {} entries", order.len()));
        }
        self.epoch += 1;
        for (k, &v) in order.iter().enumerate() {
            match self.stamp.get_mut(v) {
                None => return invalid(format!("entry {k} is {v}, out of range")),
                Some(s) if *s == self.epoch => {
                    return invalid(format!("entry {k} repeats node {v}"));
                }
                Some(s) => *s = self.epoch,
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::assignment::BitAssignment;
    use crate::randomness::{RngSource, TapeSource, ZeroSource};
    use anonet_graph::{generators, BitString, Graph};

    /// Each node floods the maximum input label it has seen; after `k`
    /// rounds it outputs that maximum and halts.
    #[derive(Debug)]
    struct FloodMax {
        k: usize,
    }

    impl Algorithm for FloodMax {
        type Input = u32;
        type Message = u32;
        type Output = u32;
        type State = (u32, usize); // (max seen, rounds done)

        fn init(&self, input: &u32, _degree: usize) -> Self::State {
            (*input, 0)
        }

        fn compose(&self, state: &Self::State, _port: Port) -> Option<u32> {
            Some(state.0)
        }

        fn step(
            &self,
            state: Self::State,
            round: usize,
            inbox: &Inbox<u32>,
            _bit: bool,
            actions: &mut Actions<u32>,
        ) -> Self::State {
            let max = inbox.iter().map(|(_, m)| *m).fold(state.0, u32::max);
            if round == self.k {
                actions.output(max);
                actions.halt();
            }
            (max, round)
        }
    }

    /// Outputs the node's first random bit as 0/1, then halts.
    #[derive(Debug)]
    struct FirstBit;

    impl Algorithm for FirstBit {
        type Input = u32;
        type Message = ();
        type Output = u8;
        type State = ();

        fn init(&self, _input: &u32, _degree: usize) {}
        fn compose(&self, _state: &(), _port: Port) -> Option<()> {
            None
        }
        fn step(
            &self,
            _state: (),
            _round: usize,
            _inbox: &Inbox<()>,
            bit: bool,
            actions: &mut Actions<u8>,
        ) {
            actions.output(u8::from(bit));
            actions.halt();
        }
    }

    #[test]
    fn flood_max_reaches_everyone_when_k_covers_diameter() {
        let g = generators::path(6).unwrap();
        let net = g.with_labels(vec![3u32, 1, 4, 1, 5, 9]).unwrap();
        let exec = run(&FloodMax { k: 5 }, &net, &mut ZeroSource, &ExecConfig::default()).unwrap();
        assert_eq!(exec.status(), Status::Completed);
        assert!(exec.is_successful());
        assert_eq!(exec.outputs_unwrapped(), vec![9; 6]);
        assert_eq!(exec.rounds(), 5);
        // 2 endpoints with degree 1, 4 middle nodes with degree 2, 5 rounds.
        assert_eq!(exec.messages_sent(), 5 * (2 + 4 * 2));
        assert_eq!(exec.message_bytes(), 5 * (2 + 4 * 2) * std::mem::size_of::<u32>());
        assert_eq!(exec.bits_consumed(), 30);
    }

    #[test]
    fn flood_max_partial_when_k_too_small() {
        let g = generators::path(6).unwrap();
        let net = g.with_labels(vec![9u32, 1, 1, 1, 1, 1]).unwrap();
        let exec = run(&FloodMax { k: 2 }, &net, &mut ZeroSource, &ExecConfig::default()).unwrap();
        // Node 5 is 5 hops from the 9; after 2 rounds it has only seen 1s.
        assert_eq!(exec.output(NodeId::new(5)), Some(&1));
        assert_eq!(exec.output(NodeId::new(1)), Some(&9));
    }

    #[test]
    fn prescribed_tapes_replay_exactly() {
        let g = generators::cycle(3).unwrap();
        let net = g.with_uniform_label(0u32);
        let tapes =
            vec!["1".parse::<BitString>().unwrap(), "0".parse().unwrap(), "1".parse().unwrap()];
        let mut src = TapeSource::new(BitAssignment::new(tapes));
        let exec = run(&FirstBit, &net, &mut src, &ExecConfig::default()).unwrap();
        assert!(exec.is_successful());
        assert_eq!(exec.outputs_unwrapped(), vec![1, 0, 1]);
    }

    #[test]
    fn exhausted_tape_ends_simulation() {
        let g = generators::cycle(3).unwrap();
        let net = g.with_uniform_label(0u32);
        let mut src = TapeSource::new(BitAssignment::empty(3));
        let exec = run(&FirstBit, &net, &mut src, &ExecConfig::default()).unwrap();
        assert_eq!(exec.status(), Status::OutOfBits);
        assert!(!exec.is_successful());
        assert_eq!(exec.rounds(), 0);
    }

    #[test]
    fn never_halting_hits_round_cap() {
        struct Forever;
        impl Algorithm for Forever {
            type Input = u32;
            type Message = ();
            type Output = ();
            type State = ();
            fn init(&self, _: &u32, _: usize) {}
            fn compose(&self, _: &(), _: Port) -> Option<()> {
                None
            }
            fn step(&self, _: (), _: usize, _: &Inbox<()>, _: bool, _: &mut Actions<()>) {}
        }
        let net = generators::cycle(3).unwrap().with_uniform_label(0u32);
        let exec = run(&Forever, &net, &mut ZeroSource, &ExecConfig::with_max_rounds(17)).unwrap();
        assert_eq!(exec.status(), Status::MaxRounds);
        assert_eq!(exec.rounds(), 17);
    }

    #[test]
    fn output_conflict_is_an_error() {
        #[derive(Debug)]
        struct Flipper;
        impl Algorithm for Flipper {
            type Input = u32;
            type Message = ();
            type Output = usize;
            type State = ();
            fn init(&self, _: &u32, _: usize) {}
            fn compose(&self, _: &(), _: Port) -> Option<()> {
                None
            }
            fn step(
                &self,
                _: (),
                round: usize,
                _: &Inbox<()>,
                _: bool,
                actions: &mut Actions<usize>,
            ) {
                actions.output(round); // different every round
            }
        }
        let net = generators::cycle(3).unwrap().with_uniform_label(0u32);
        let err = run(&Flipper, &net, &mut ZeroSource, &ExecConfig::default()).unwrap_err();
        assert!(matches!(err, RuntimeError::OutputConflict { round: 2, .. }));
    }

    #[test]
    fn disconnected_networks_are_rejected() {
        let g = Graph::from_edges(4, &[(0, 1), (2, 3)]).unwrap();
        let net = g.with_uniform_label(0u32);
        let err = run(&FirstBit, &net, &mut ZeroSource, &ExecConfig::default()).unwrap_err();
        assert!(matches!(err, RuntimeError::InvalidNetwork { .. }));
    }

    #[test]
    fn state_history_is_recorded_when_asked() {
        let g = generators::path(3).unwrap();
        let net = g.with_labels(vec![1u32, 2, 3]).unwrap();
        let cfg = ExecConfig::default().recording();
        let exec = run(&FloodMax { k: 2 }, &net, &mut ZeroSource, &cfg).unwrap();
        // Round 0 = initial states.
        assert_eq!(exec.states_at(0).unwrap(), &[(1, 0), (2, 0), (3, 0)]);
        // After round 1 everyone has seen direct neighbors.
        assert_eq!(exec.states_at(1).unwrap(), &[(2, 1), (3, 1), (3, 1)]);
        assert_eq!(exec.states_at(2).unwrap(), &[(3, 2), (3, 2), (3, 2)]);
        assert!(exec.states_at(3).is_none());
        // Without the flag there is no history.
        let exec2 = run(&FloodMax { k: 2 }, &net, &mut ZeroSource, &ExecConfig::default()).unwrap();
        assert!(exec2.states_at(0).is_none());
    }

    #[test]
    fn event_tracing_records_sends_outputs_halts() {
        let g = generators::path(3).unwrap();
        let net = g.with_labels(vec![1u32, 2, 3]).unwrap();
        let cfg = ExecConfig::default().tracing();
        let exec = run(&FloodMax { k: 2 }, &net, &mut ZeroSource, &cfg).unwrap();
        let events = exec.events().unwrap();
        let sends = events.iter().filter(|e| matches!(e, crate::Event::MessageSent { .. })).count();
        assert_eq!(sends, exec.messages_sent());
        let sent_bytes: usize = events
            .iter()
            .filter_map(|e| match e {
                crate::Event::MessageSent { bytes, .. } => Some(*bytes),
                _ => None,
            })
            .sum();
        assert_eq!(sent_bytes, exec.message_bytes());
        let bits: usize = events
            .iter()
            .filter_map(|e| match e {
                crate::Event::BitsDrawn { count, .. } => Some(*count),
                _ => None,
            })
            .sum();
        assert_eq!(bits, exec.bits_consumed());
        let outputs = events.iter().filter(|e| matches!(e, crate::Event::OutputSet { .. })).count();
        assert_eq!(outputs, 3);
        let timeline = exec.timeline();
        assert!(timeline.contains("round   1:"));
        assert!(timeline.contains("halt:"));
        // Without tracing there is no log and the timeline is empty.
        let plain = run(&FloodMax { k: 2 }, &net, &mut ZeroSource, &ExecConfig::default()).unwrap();
        assert!(plain.events().is_none());
        assert!(plain.timeline().is_empty());
    }

    #[test]
    fn executions_are_reproducible_per_seed() {
        let net = generators::cycle(7).unwrap().with_uniform_label(0u32);
        let e1 = run(&FirstBit, &net, &mut RngSource::seeded(9), &ExecConfig::default()).unwrap();
        let e2 = run(&FirstBit, &net, &mut RngSource::seeded(9), &ExecConfig::default()).unwrap();
        assert_eq!(e1.outputs(), e2.outputs());
    }

    /// Las-Vegas coin: a node outputs (and halts) only in a round where
    /// its bit comes up 1 — under an all-zeros source it stays active
    /// forever.
    #[derive(Clone, Copy, Debug)]
    struct CoinHalt;

    impl Algorithm for CoinHalt {
        type Input = u32;
        type Message = ();
        type Output = usize;
        type State = ();

        fn init(&self, _: &u32, _: usize) {}
        fn compose(&self, _: &(), _: Port) -> Option<()> {
            None
        }
        fn step(
            &self,
            _: (),
            round: usize,
            _: &Inbox<()>,
            bit: bool,
            actions: &mut Actions<usize>,
        ) {
            if bit {
                actions.output(round);
                actions.halt();
            }
        }
    }

    #[test]
    fn round_cap_hits_with_active_las_vegas_nodes() {
        // Negative path for ExecConfig::max_rounds: nodes are still active
        // (not merely non-halted-but-done) when the cap strikes.
        let net = generators::cycle(4).unwrap().with_uniform_label(0u32);
        let exec = run(&CoinHalt, &net, &mut ZeroSource, &ExecConfig::with_max_rounds(23)).unwrap();
        assert_eq!(exec.status(), Status::MaxRounds);
        assert_eq!(exec.rounds(), 23);
        assert!(!exec.is_successful());
        assert!(exec.outputs().iter().all(Option::is_none));
        assert!(exec.halt_rounds().iter().all(Option::is_none));
        assert_eq!(exec.active_per_round().last(), Some(&4));
        // The same algorithm under live randomness completes well within
        // the default cap — the cap, not the algorithm, ended the run above.
        let live = run(&CoinHalt, &net, &mut RngSource::seeded(3), &ExecConfig::default()).unwrap();
        assert_eq!(live.status(), Status::Completed);
    }

    #[test]
    fn outputs_are_invariant_under_adversaries() {
        use crate::adversary::{ReverseScheduler, ShuffledScheduler, SkewedScheduler};
        let g = generators::wheel(7).unwrap();
        let net = g.with_labels((0..7u32).map(|i| i * 3 % 5).collect()).unwrap();
        let tapes = BitAssignment::new(
            (0..7).map(|i| BitString::from_value(i as u64, 8)).collect::<Vec<_>>(),
        );
        let fair = run(
            &FloodMax { k: 4 },
            &net,
            &mut TapeSource::new(tapes.clone()),
            &ExecConfig::default(),
        )
        .unwrap();
        let mut adversaries: Vec<Box<dyn crate::adversary::RoundAdversary>> = vec![
            Box::new(ReverseScheduler),
            Box::new(SkewedScheduler { stride: 2 }),
            Box::new(ShuffledScheduler::new(99)),
        ];
        for adv in &mut adversaries {
            let exec = run_with_adversary(
                &FloodMax { k: 4 },
                &net,
                &mut TapeSource::new(tapes.clone()),
                &ExecConfig::default(),
                adv.as_mut(),
            )
            .unwrap();
            assert_eq!(exec.outputs(), fair.outputs(), "{} diverged", adv.name());
            assert_eq!(exec.rounds(), fair.rounds());
            assert_eq!(exec.messages_sent(), fair.messages_sent());
        }
    }

    #[test]
    fn live_rng_draws_are_schedule_invariant() {
        // RngSource bits depend on call order; the engine draws them in
        // canonical node order regardless of the adversary, so outputs of
        // bit-dependent algorithms stay schedule independent too.
        use crate::adversary::ShuffledScheduler;
        let net = generators::cycle(6).unwrap().with_uniform_label(0u32);
        let fair =
            run(&FirstBit, &net, &mut RngSource::seeded(11), &ExecConfig::default()).unwrap();
        let shuffled = run_with_adversary(
            &FirstBit,
            &net,
            &mut RngSource::seeded(11),
            &ExecConfig::default(),
            &mut ShuffledScheduler::new(5),
        )
        .unwrap();
        assert_eq!(shuffled.outputs(), fair.outputs());
    }

    #[test]
    fn malformed_schedules_are_rejected() {
        struct Bad;
        impl crate::adversary::RoundAdversary for Bad {
            fn step_order(&mut self, n: usize, _round: usize) -> Vec<usize> {
                vec![0; n] // not a permutation
            }
        }
        let net = generators::cycle(3).unwrap().with_uniform_label(0u32);
        let err = run_with_adversary(
            &FloodMax { k: 2 },
            &net,
            &mut ZeroSource,
            &ExecConfig::default(),
            &mut Bad,
        )
        .unwrap_err();
        assert!(matches!(err, RuntimeError::InvalidSchedule { round: 1, .. }));
        assert!(err.to_string().contains("permutation"));
    }

    /// Fair in both phases, except that `bad_round`'s orders pass through
    /// `spoil`.
    struct Spoiled {
        bad_round: usize,
        phase: &'static str,
        spoil: fn(&mut Vec<usize>),
    }

    impl Spoiled {
        fn order(&self, phase: &str, n: usize, round: usize) -> Vec<usize> {
            let mut order: Vec<usize> = (0..n).collect();
            if round == self.bad_round && phase == self.phase {
                (self.spoil)(&mut order);
            }
            order
        }
    }

    impl crate::adversary::RoundAdversary for Spoiled {
        fn compose_order(&mut self, n: usize, round: usize) -> Vec<usize> {
            self.order("compose", n, round)
        }
        fn step_order(&mut self, n: usize, round: usize) -> Vec<usize> {
            self.order("step", n, round)
        }
    }

    /// Runs a 5-round flood on a 200-node cycle under `adversary` and
    /// returns its schedule error.
    fn schedule_error(adversary: &mut Spoiled) -> (usize, String) {
        let net = generators::cycle(200).unwrap().with_uniform_label(0u32);
        let err = run_with_adversary(
            &FloodMax { k: 5 },
            &net,
            &mut ZeroSource,
            &ExecConfig::default(),
            adversary,
        )
        .unwrap_err();
        let RuntimeError::InvalidSchedule { round, .. } = err else {
            panic!("expected a schedule error, got {err}");
        };
        let text = err.to_string();
        assert!(text.contains("permutation"), "{text}");
        assert!(text.contains(adversary.phase), "{text}");
        // The message names one entry; it never lists the order.
        assert!(text.len() < 120, "{text}");
        (round, text)
    }

    #[test]
    fn a_repeat_after_valid_rounds_is_caught_in_its_round() {
        // Rounds 1 and 2 stamp every node twice; round 3's step order
        // repeats node 0 in its last entry.
        let mut adv =
            Spoiled { bad_round: 3, phase: "step", spoil: |o| *o.last_mut().unwrap() = 0 };
        let (round, text) = schedule_error(&mut adv);
        assert_eq!(round, 3);
        assert!(text.contains("entry 199 repeats node 0"), "{text}");
    }

    #[test]
    fn wrong_length_orders_are_rejected() {
        let mut short = Spoiled { bad_round: 2, phase: "compose", spoil: |o| _ = o.pop() };
        let (round, text) = schedule_error(&mut short);
        assert_eq!(round, 2);
        assert!(text.contains("199 entries"), "{text}");
        let mut long = Spoiled { bad_round: 1, phase: "step", spoil: |o| o.push(0) };
        assert_eq!(schedule_error(&mut long).0, 1);
    }

    #[test]
    fn out_of_range_entries_are_rejected() {
        let mut adv = Spoiled { bad_round: 4, phase: "compose", spoil: |o| o[7] = 200 };
        let (round, text) = schedule_error(&mut adv);
        assert_eq!(round, 4);
        assert!(text.contains("entry 7 is 200, out of range"), "{text}");
    }

    #[test]
    fn single_node_graph_executes() {
        let g = Graph::builder(1).build().unwrap();
        let net = g.with_uniform_label(5u32);
        let exec = run(&FloodMax { k: 1 }, &net, &mut ZeroSource, &ExecConfig::default()).unwrap();
        assert_eq!(exec.outputs_unwrapped(), vec![5]);
    }
}
