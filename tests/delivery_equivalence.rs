//! Differential test: uniform delivery ≡ per-port delivery.
//!
//! `Oblivious<A>` composes one broadcast per node and round, and the engine
//! hands every receiver a reference to it. [`PerPort`] wraps the same
//! adapter but keeps the default `compose_round`, so the engine composes
//! the message once per port, exactly as a port-aware algorithm does. The
//! two must produce identical executions — every field, under every
//! adversarial schedule, with state and event recording on.

use anonet::algorithms::coloring::RandomizedColoring;
use anonet::algorithms::emulation::VirtualPorts;
use anonet::algorithms::matching::RandomizedMatching;
use anonet::algorithms::mis::RandomizedMis;
use anonet::algorithms::two_hop_coloring::TwoHopColoring;
use anonet::graph::{coloring, generators, Graph, Label, LabeledGraph, Port};
use anonet::runtime::{
    run_with_adversary, Actions, Algorithm, ExecConfig, Execution, FairScheduler, Inbox, Oblivious,
    ObliviousAlgorithm, ReverseScheduler, RngSource, RoundAdversary, ShuffledScheduler,
    SkewedScheduler,
};
use rand::SeedableRng;

/// `Oblivious<A>` minus its single-broadcast `compose_round`: the engine
/// falls back to composing on every port.
struct PerPort<A>(Oblivious<A>);

impl<A: ObliviousAlgorithm> Algorithm for PerPort<A> {
    type Input = A::Input;
    type Message = A::Message;
    type Output = A::Output;
    type State = A::State;

    fn init(&self, input: &A::Input, degree: usize) -> A::State {
        self.0.init(input, degree)
    }

    fn compose(&self, state: &A::State, port: Port) -> Option<A::Message> {
        self.0.compose(state, port)
    }

    fn step(
        &self,
        state: A::State,
        round: usize,
        inbox: &Inbox<'_, A::Message>,
        bit: bool,
        actions: &mut Actions<A::Output>,
    ) -> A::State {
        self.0.step(state, round, inbox, bit, actions)
    }
}

/// A port-sensitive probe for `VirtualPorts`: for three rounds each node
/// sends a port-dependent digest of its state on every port and folds the
/// port-indexed inbox and its bit back into the state.
#[derive(Clone, Copy, Debug)]
struct PortMix;

impl Algorithm for PortMix {
    type Input = ();
    type Message = u64;
    type Output = u64;
    type State = u64;

    fn init(&self, _: &(), degree: usize) -> u64 {
        degree as u64
    }

    fn compose(&self, state: &u64, port: Port) -> Option<u64> {
        (port.index() % 3 != 2).then(|| state.wrapping_mul(31).wrapping_add(port.index() as u64))
    }

    fn step(
        &self,
        state: u64,
        round: usize,
        inbox: &Inbox<'_, u64>,
        bit: bool,
        actions: &mut Actions<u64>,
    ) -> u64 {
        let mixed = inbox.iter().fold(state.wrapping_mul(7) + u64::from(bit), |h, (p, m)| {
            h.rotate_left(5) ^ m.wrapping_mul(p.index() as u64 + 1)
        });
        if round == 3 {
            actions.output(mixed);
            actions.halt();
        }
        mixed
    }
}

fn families() -> Vec<(String, Graph)> {
    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(12);
    vec![
        ("petersen".into(), generators::petersen()),
        ("grid(4,4)".into(), generators::grid(4, 4, false).unwrap()),
        ("cycle(9)".into(), generators::cycle(9).unwrap()),
        ("star(6)".into(), generators::star(6).unwrap()),
        ("gnp(24,0.2)".into(), generators::gnp_connected(24, 0.2, &mut rng).unwrap()),
        ("3-regular(20)".into(), generators::random_regular(20, 3, 1000, &mut rng).unwrap()),
        ("single".into(), Graph::builder(1).build().unwrap()),
    ]
}

fn adversaries(seed: u64) -> Vec<Box<dyn RoundAdversary>> {
    vec![
        Box::new(FairScheduler),
        Box::new(ReverseScheduler),
        Box::new(SkewedScheduler { stride: 2 }),
        Box::new(ShuffledScheduler::new(seed)),
    ]
}

fn assert_same_execution<X, Y>(x: &Execution<X>, y: &Execution<Y>, case: &str)
where
    X: Algorithm,
    Y: Algorithm<Output = X::Output, State = X::State>,
{
    assert_eq!(x.outputs(), y.outputs(), "{case}: outputs");
    assert_eq!(x.output_rounds(), y.output_rounds(), "{case}: output rounds");
    assert_eq!(x.halt_rounds(), y.halt_rounds(), "{case}: halt rounds");
    assert_eq!(x.final_states(), y.final_states(), "{case}: final states");
    for r in 0..=x.rounds() + 1 {
        assert_eq!(x.states_at(r), y.states_at(r), "{case}: states after round {r}");
    }
    assert_eq!(x.events(), y.events(), "{case}: event log");
    assert_eq!(x.rounds(), y.rounds(), "{case}: rounds");
    assert_eq!(x.messages_sent(), y.messages_sent(), "{case}: messages");
    assert_eq!(x.message_bytes(), y.message_bytes(), "{case}: message bytes");
    assert_eq!(x.messages_per_round(), y.messages_per_round(), "{case}: messages per round");
    assert_eq!(x.active_per_round(), y.active_per_round(), "{case}: active per round");
    assert_eq!(x.bits_consumed(), y.bits_consumed(), "{case}: bits");
    assert_eq!(x.status(), y.status(), "{case}: status");
}

/// Runs `alg` both ways on `net` for seeds `0..3` under every adversary.
fn check<A>(name: &str, alg: A, graph: &str, net: &LabeledGraph<A::Input>)
where
    A: ObliviousAlgorithm + Clone,
    A::Input: Label,
{
    let cfg = ExecConfig::default().recording().tracing();
    for seed in 0..3 {
        for (mut adv_u, mut adv_p) in adversaries(seed).into_iter().zip(adversaries(seed)) {
            let case = format!("{name} on {graph}, seed {seed}, {}", adv_u.name());
            let uniform = Oblivious(alg.clone());
            let per_port = PerPort(Oblivious(alg.clone()));
            let x = run_with_adversary(
                &uniform,
                net,
                &mut RngSource::seeded(seed),
                &cfg,
                adv_u.as_mut(),
            )
            .unwrap();
            let y = run_with_adversary(
                &per_port,
                net,
                &mut RngSource::seeded(seed),
                &cfg,
                adv_p.as_mut(),
            )
            .unwrap();
            assert!(x.rounds() > 0, "{case}: nothing ran");
            assert_same_execution(&x, &y, &case);
        }
    }
}

#[test]
fn uniform_delivery_matches_per_port_delivery() {
    for (graph, g) in families() {
        let plain = g.with_uniform_label(());
        check("TwoHopColoring", TwoHopColoring::new(), &graph, &plain);
        check("RandomizedMis", RandomizedMis::new(), &graph, &plain);
        check("RandomizedColoring", RandomizedColoring::new(), &graph, &plain);

        let colors = coloring::greedy_two_hop_coloring(&g);
        check("RandomizedMatching", RandomizedMatching::<u32>::new(), &graph, &colors);
        let probe_net = colors.map_labels(|&c| ((), c));
        check("VirtualPorts<PortMix>", VirtualPorts::<_, u32>::new(PortMix), &graph, &probe_net);
    }
}
