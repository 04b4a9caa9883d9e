//! The canonical-search kernel against its literal definition.
//!
//! [`first_successful_extension`] must choose the same assignment, report
//! the same attempt count and fail with the same error as the loop that
//! builds every extension in canonical order and runs it from round 1.
//! It must also make exactly the `step` calls its checkpoint rule
//! predicts: for each code, the rounds from the first one whose bits
//! differ from the last simulated code's, unless that round lies past the
//! rounds the last simulation executed, in which case none.

use std::cell::Cell;
use std::rc::Rc;

use anonet_algorithms::mis::RandomizedMis;
use anonet_graph::{generators, BitString, Graph, LabeledGraph, NodeId};
use anonet_runtime::{
    first_successful_extension, run, Actions, BitAssignment, ExecConfig, Oblivious,
    ObliviousAlgorithm, RuntimeError, TapeSource,
};
use proptest::prelude::*;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// Counts the `step` calls of the algorithm it wraps; clones share the
/// count.
#[derive(Clone, Debug)]
struct Counted<A> {
    inner: A,
    steps: Rc<Cell<usize>>,
}

impl<A> Counted<A> {
    fn new(inner: A) -> Self {
        Counted { inner, steps: Rc::default() }
    }

    fn take(&self) -> usize {
        self.steps.replace(0)
    }
}

impl<A: ObliviousAlgorithm> ObliviousAlgorithm for Counted<A> {
    type Input = A::Input;
    type Message = A::Message;
    type Output = A::Output;
    type State = A::State;

    fn init(&self, input: &A::Input, degree: usize) -> A::State {
        self.inner.init(input, degree)
    }
    fn broadcast(&self, state: &A::State) -> Option<A::Message> {
        self.inner.broadcast(state)
    }
    fn step(
        &self,
        state: A::State,
        round: usize,
        received: &[&A::Message],
        bit: bool,
        actions: &mut Actions<A::Output>,
    ) -> A::State {
        self.steps.set(self.steps.get() + 1);
        self.inner.step(state, round, received, bit, actions)
    }
}

/// Outputs and halts in the first round it draws a `1`, after adding up
/// its neighbours' messages: halts before any round cap, at different
/// rounds on different nodes.
#[derive(Clone, Debug)]
struct HaltOnOne;

impl ObliviousAlgorithm for HaltOnOne {
    type Input = ();
    type Message = u32;
    type Output = u32;
    type State = u32;

    fn init(&self, _input: &(), degree: usize) -> u32 {
        degree as u32
    }
    fn broadcast(&self, state: &u32) -> Option<u32> {
        Some(*state % 5)
    }
    fn step(
        &self,
        state: u32,
        _round: usize,
        received: &[&u32],
        bit: bool,
        actions: &mut Actions<u32>,
    ) -> u32 {
        let state = state + received.iter().map(|&&m| m).sum::<u32>();
        if bit {
            actions.output(state);
            actions.halt();
        }
        state
    }
}

/// Outputs its round-2 bit, then in round 3 overwrites it with a
/// different value when its own bit and some neighbour's first bit are
/// `1`: an algorithm bug that `run` reports as `OutputConflict`.
#[derive(Clone, Debug)]
struct Overwriter;

impl ObliviousAlgorithm for Overwriter {
    type Input = ();
    type Message = bool;
    type Output = bool;
    type State = (bool, bool);

    fn init(&self, _input: &(), _degree: usize) -> (bool, bool) {
        (false, false)
    }
    fn broadcast(&self, state: &(bool, bool)) -> Option<bool> {
        Some(state.0)
    }
    fn step(
        &self,
        (first, second): (bool, bool),
        round: usize,
        received: &[&bool],
        bit: bool,
        actions: &mut Actions<bool>,
    ) -> (bool, bool) {
        match round {
            1 => (bit, second),
            2 => {
                actions.output(bit);
                (first, bit)
            }
            _ => {
                if bit && received.iter().any(|&&m| m) {
                    actions.output(!second);
                }
                actions.halt();
                (first, second)
            }
        }
    }
}

/// `base` extended by `code` in canonical order: node-major in `order`,
/// earlier rounds more significant.
fn extension(base: &BitAssignment, target: usize, order: &[NodeId], code: u64) -> BitAssignment {
    let total: usize =
        order.iter().map(|&v| target.saturating_sub(base.tapes()[v.index()].len())).sum();
    let mut tapes = base.tapes().to_vec();
    let mut shift = total;
    for &v in order {
        while tapes[v.index()].len() < target {
            shift -= 1;
            tapes[v.index()].push((code >> shift) & 1 == 1);
        }
    }
    BitAssignment::new(tapes)
}

/// The first round in which the two assignments give some node different
/// bits (both cover the same nodes with the same tape lengths).
fn first_difference(a: &BitAssignment, b: &BitAssignment) -> usize {
    a.tapes()
        .iter()
        .zip(b.tapes())
        .filter_map(|(x, y)| x.iter().zip(y.iter()).position(|(p, q)| p != q))
        .min()
        .map_or(usize::MAX, |i| i + 1)
}

/// The literal search: every extension built and run from round 1. Also
/// returns the `step` calls the checkpointed kernel should make.
type Literal = (Result<Option<(BitAssignment, usize)>, RuntimeError>, usize);

fn literal<A: ObliviousAlgorithm + Clone>(
    alg: &Counted<A>,
    j: &LabeledGraph<A::Input>,
    base: &BitAssignment,
    target: usize,
    order: &[NodeId],
    config: &ExecConfig,
) -> Literal
where
    A::Input: anonet_graph::Label,
{
    let total: usize =
        order.iter().map(|&v| target.saturating_sub(base.tapes()[v.index()].len())).sum();
    let mut expected_steps = 0;
    let mut last: Option<(BitAssignment, usize)> = None;
    for code in 0..1u64 << total {
        let ext = extension(base, target, order, code);
        let exec = match run(&Oblivious(alg.clone()), j, &mut TapeSource::new(ext.clone()), config)
        {
            Ok(exec) => exec,
            Err(e) => return (Err(e), expected_steps),
        };
        let from = last.as_ref().map_or(1, |(prev, _)| first_difference(prev, &ext));
        let executed = last.as_ref().map_or(0, |&(_, rounds)| rounds);
        if last.is_none() || from <= executed {
            expected_steps += exec.active_per_round().iter().skip(from - 1).sum::<usize>();
            last = Some((ext.clone(), exec.rounds()));
        }
        if exec.is_successful() {
            return (Ok(Some((ext, code as usize + 1))), expected_steps);
        }
    }
    (Ok(None), expected_steps)
}

/// Runs the kernel and the literal search on one input and compares
/// result, attempts, error and `step` calls.
fn agree<A: ObliviousAlgorithm + Clone>(
    alg: A,
    j: &LabeledGraph<A::Input>,
    base: &BitAssignment,
    target: usize,
    order: &[NodeId],
    config: &ExecConfig,
) -> Result<(), String>
where
    A::Input: anonet_graph::Label,
{
    let alg = Counted::new(alg);
    let (want, expected_steps) = literal(&alg, j, base, target, order, config);
    alg.take();
    let got = first_successful_extension(&alg, j, base, target, order, config);
    let steps = alg.take();
    if got != want {
        return Err(format!("kernel {got:?} != literal {want:?}"));
    }
    if let Ok(Some((found, _))) = &got {
        if !found.extends(base) {
            return Err(format!("{found} does not extend {base}"));
        }
    }
    if want.is_ok() && steps != expected_steps {
        return Err(format!(
            "kernel made {steps} step calls, the checkpoint rule {expected_steps}"
        ));
    }
    Ok(())
}

/// A random connected graph on `n` nodes, a random order of its nodes,
/// and random base tapes: each node's length anywhere from empty to two
/// past `target`, lengthened where needed to keep the search within
/// `max_bits` code bits.
fn instance(
    seed: u64,
    n: usize,
    target: usize,
    max_bits: usize,
) -> (Graph, Vec<NodeId>, BitAssignment) {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let g =
        generators::gnp_connected(n, f64::from(rng.gen_range(2u32..9)) / 10.0, &mut rng).unwrap();
    let mut order: Vec<NodeId> = g.nodes().collect();
    order.shuffle(&mut rng);
    let mut lens: Vec<usize> = (0..n).map(|_| rng.gen_range(0..=target + 2)).collect();
    while lens.iter().map(|&l| target.saturating_sub(l)).sum::<usize>() > max_bits {
        let v = rng.gen_range(0..n);
        lens[v] += 1;
    }
    let tapes = lens.iter().map(|&l| BitString::from_bits((0..l).map(|_| rng.gen()))).collect();
    (g, order, BitAssignment::new(tapes))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn kernel_matches_the_literal_search_on_mis(
        seed in 0u64..1_000_000, n in 1usize..=7, target in 1usize..=4
    ) {
        let (g, order, base) = instance(seed, n, target, 10);
        let j = g.with_uniform_label(());
        agree(RandomizedMis::new(), &j, &base, target, &order, &ExecConfig::default())?;
        let uniform = BitAssignment::empty(n);
        if n * target <= 10 {
            agree(RandomizedMis::new(), &j, &uniform, target, &order, &ExecConfig::default())?;
        }
    }

    #[test]
    fn kernel_matches_the_literal_search_when_nodes_halt_early(
        seed in 0u64..1_000_000, n in 1usize..=7, target in 1usize..=4
    ) {
        let (g, order, base) = instance(seed, n, target, 10);
        agree(HaltOnOne, &g.with_uniform_label(()), &base, target, &order, &ExecConfig::default())?;
    }

    #[test]
    fn kernel_reports_the_literal_output_conflict(
        seed in 0u64..1_000_000, n in 2usize..=7, target in 1usize..=4
    ) {
        let (g, order, base) = instance(seed, n, target, 10);
        agree(Overwriter, &g.with_uniform_label(()), &base, target, &order, &ExecConfig::default())?;
    }

    #[test]
    fn kernel_matches_the_literal_search_under_a_round_cap(
        seed in 0u64..1_000_000, n in 1usize..=7, target in 1usize..=4
    ) {
        let (g, order, base) = instance(seed, n, target, 10);
        let config = ExecConfig::with_max_rounds((seed % target as u64) as usize);
        let j = g.with_uniform_label(());
        agree(RandomizedMis::new(), &j, &base, target, &order, &config)?;
        agree(HaltOnOne, &j, &base, target, &order, &config)?;
    }
}

#[test]
fn the_literal_enumeration_follows_the_papers_order() {
    // Counting up must walk the canonical total order, whatever the node
    // order: the kernel is held to this enumeration.
    let order = [NodeId::new(2), NodeId::new(0), NodeId::new(1)];
    let base = BitAssignment::empty(3);
    let all: Vec<BitAssignment> = (0..1 << 6).map(|c| extension(&base, 2, &order, c)).collect();
    for w in all.windows(2) {
        assert_eq!(w[0].cmp_in_order(&w[1], &order), std::cmp::Ordering::Less);
    }
    assert!(all.iter().all(|a| a.is_uniform_length(2) && a.extends(&base)));
}

#[test]
fn output_conflicts_are_reached() {
    // Guards the conflict property above against testing nothing.
    let conflicts = (0..48u64)
        .filter(|&seed| {
            let (g, order, base) = instance(seed, 4, 3, 10);
            matches!(
                first_successful_extension(
                    &Overwriter,
                    &g.with_uniform_label(()),
                    &base,
                    3,
                    &order,
                    &ExecConfig::default()
                ),
                Err(RuntimeError::OutputConflict { .. })
            )
        })
        .count();
    assert!(conflicts > 0);
}

#[test]
fn disconnected_networks_are_rejected_like_run_rejects_them() {
    let g = Graph::from_edges(4, &[(0, 1), (2, 3)]).unwrap().with_uniform_label(());
    let order: Vec<NodeId> = g.graph().nodes().collect();
    let base = BitAssignment::empty(4);
    let err = first_successful_extension(
        &RandomizedMis::new(),
        &g,
        &base,
        2,
        &order,
        &ExecConfig::default(),
    )
    .unwrap_err();
    assert!(matches!(err, RuntimeError::InvalidNetwork { .. }));
    agree(RandomizedMis::new(), &g, &base, 2, &order, &ExecConfig::default()).unwrap();
}

#[test]
fn code_spaces_of_64_bits_or_more_are_rejected() {
    let j = generators::path(8).unwrap().with_uniform_label(());
    let order: Vec<NodeId> = j.graph().nodes().collect();
    let cfg = ExecConfig::default();
    let err = first_successful_extension(
        &RandomizedMis::new(),
        &j,
        &BitAssignment::empty(8),
        8,
        &order,
        &cfg,
    )
    .unwrap_err();
    assert_eq!(err, RuntimeError::SearchSpaceTooLarge { bits: 64 });
    // 63 bits are enumerable: the first extension already succeeds.
    let mut tapes = vec![BitString::new(); 8];
    tapes[0].push(false);
    let found =
        first_successful_extension(&Overwriter, &j, &BitAssignment::new(tapes), 8, &order, &cfg)
            .unwrap();
    assert_eq!(found.map(|(_, attempts)| attempts), Some(1));
}

#[test]
fn bad_orders_and_assignments_are_typed_errors() {
    let j = generators::cycle(3).unwrap().with_uniform_label(());
    let cfg = ExecConfig::default();
    let twice = [NodeId::new(0), NodeId::new(0), NodeId::new(1)];
    let err = first_successful_extension(&HaltOnOne, &j, &BitAssignment::empty(3), 1, &twice, &cfg)
        .unwrap_err();
    assert!(matches!(err, RuntimeError::InvalidOrder { .. }));
    let order: Vec<NodeId> = j.graph().nodes().collect();
    let err = first_successful_extension(&HaltOnOne, &j, &BitAssignment::empty(2), 1, &order, &cfg)
        .unwrap_err();
    assert_eq!(err, RuntimeError::AssignmentMismatch { assignment_nodes: 2, graph_nodes: 3 });
}
