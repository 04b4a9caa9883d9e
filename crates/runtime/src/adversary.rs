//! Pluggable round adversaries for the synchronous engine.
//!
//! The model's rounds are simultaneous: every active node composes its
//! messages against the *same* state snapshot, and every node steps on its
//! own slot only. The engine's results are therefore independent of the
//! order in which it happens to iterate nodes within a round — and that
//! independence is exactly the synchronizer reduction the Las-Vegas claims
//! lean on. A [`RoundAdversary`] turns the claim into a tripwire: it picks,
//! per round, the order in which the engine sweeps the live nodes through
//! the compose (delivery) phase and the step (wakeup) phase. Any
//! dependence of outputs on these orders is an engine or algorithm bug,
//! surfaced by running the same seed under different adversaries and
//! comparing.
//!
//! An adversary sees only the live set. Before each phase the engine fills
//! one buffer, reused for the whole run, with the round's live nodes in
//! ascending order, and the adversary reorders it in place. A round
//! therefore costs the adversary and the engine's check of its answer
//! `O(live)`, however many nodes have halted: [`FairScheduler`] leaves the
//! buffer as it is, [`ReverseScheduler`] reverses it,
//! [`SkewedScheduler`] rotates it, and [`ShuffledScheduler`] shuffles it.
//!
//! Random bits are *not* under adversary control: the engine draws them in
//! canonical node order at the start of the round, mirroring the paper's
//! "one bit per node per round" normalization (and keeping call-order
//! sensitive sources such as [`RngSource`](crate::RngSource) schedule
//! independent by construction).
//!
//! Worst-case *port* orderings are a property of the network presentation,
//! not the schedule; build them with
//! `anonet_graph::Graph::with_shuffled_ports` and friends.

/// A per-round schedule: in which order the engine visits the live nodes
/// during the compose (message delivery) and step (state transition)
/// phases.
///
/// Each method receives `order` holding the round's live nodes in
/// ascending order and must leave in it a permutation of those nodes. The
/// engine checks this and fails the execution with
/// [`RuntimeError::InvalidSchedule`](crate::RuntimeError::InvalidSchedule)
/// on a wrong length, an out-of-range entry, a repeat or a halted node,
/// naming the phase, the round and the first bad entry.
pub trait RoundAdversary {
    /// Reorders the live nodes into the order in which they compose and
    /// deliver their messages in `round` (1-indexed). Defaults to the fair
    /// (ascending) order: the buffer is left untouched.
    fn compose_order(&mut self, order: &mut Vec<usize>, round: usize) {
        let _ = (order, round);
    }

    /// Reorders the live nodes into the order in which they step (wake
    /// up) in `round` (1-indexed). Defaults to the fair (ascending) order.
    fn step_order(&mut self, order: &mut Vec<usize>, round: usize) {
        let _ = (order, round);
    }

    /// A short human-readable name for reports and replay encodings.
    fn name(&self) -> &'static str {
        "adversary"
    }
}

/// The fair scheduler: ascending node order in both phases. This is what
/// [`run`](crate::run) uses.
#[derive(Clone, Copy, Debug, Default)]
pub struct FairScheduler;

impl RoundAdversary for FairScheduler {
    fn name(&self) -> &'static str {
        "fair"
    }
}

/// Sweeps the live nodes in reverse order in both phases — the cheapest
/// non-identity delay-reordering.
#[derive(Clone, Copy, Debug, Default)]
pub struct ReverseScheduler;

impl RoundAdversary for ReverseScheduler {
    fn compose_order(&mut self, order: &mut Vec<usize>, _round: usize) {
        order.reverse();
    }

    fn step_order(&mut self, order: &mut Vec<usize>, _round: usize) {
        order.reverse();
    }

    fn name(&self) -> &'static str {
        "reverse"
    }
}

/// Skewed wakeups: each round starts its sweep at a different live node
/// (rotation by `round · stride` positions), so no node is consistently
/// first or last. Models a synchronizer that releases nodes in drifting
/// order.
#[derive(Clone, Copy, Debug)]
pub struct SkewedScheduler {
    /// Rotation advance per round.
    pub stride: usize,
}

impl Default for SkewedScheduler {
    fn default() -> Self {
        SkewedScheduler { stride: 1 }
    }
}

impl SkewedScheduler {
    fn shift(&self, live: usize, round: usize) -> usize {
        round.wrapping_mul(self.stride) % live.max(1)
    }
}

impl RoundAdversary for SkewedScheduler {
    fn compose_order(&mut self, order: &mut Vec<usize>, round: usize) {
        let by = self.shift(order.len(), round);
        order.rotate_left(by);
    }

    fn step_order(&mut self, order: &mut Vec<usize>, round: usize) {
        // Step in the opposite rotation, so the two phases disagree too.
        let by = self.shift(order.len(), round);
        order.rotate_right(by);
    }

    fn name(&self) -> &'static str {
        "skewed"
    }
}

/// A deterministic seeded shuffle of the live nodes, different in every
/// round and phase: the strongest delay-reordering short of exhaustive
/// order enumeration.
#[derive(Clone, Copy, Debug)]
pub struct ShuffledScheduler {
    key: u64,
}

impl ShuffledScheduler {
    /// Creates a shuffler keyed by `key`; the same key replays the same
    /// per-round orders.
    pub fn new(key: u64) -> Self {
        ShuffledScheduler { key }
    }
}

impl RoundAdversary for ShuffledScheduler {
    fn compose_order(&mut self, order: &mut Vec<usize>, round: usize) {
        keyed_shuffle(order, self.key ^ (round as u64).wrapping_mul(0x9E3779B97F4A7C15));
    }

    fn step_order(&mut self, order: &mut Vec<usize>, round: usize) {
        keyed_shuffle(order, self.key ^ (round as u64).wrapping_mul(0xD1B54A32D192ED03) ^ 0x5555);
    }

    fn name(&self) -> &'static str {
        "shuffled"
    }
}

/// Fisher–Yates driven by SplitMix64 — self-contained so adversaries stay
/// deterministic without threading an external RNG through the engine.
fn keyed_shuffle(order: &mut [usize], mut state: u64) {
    let mut next = move || {
        state = state.wrapping_add(0x9E3779B97F4A7C15);
        let mut x = state;
        x = (x ^ (x >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94D049BB133111EB);
        x ^ (x >> 31)
    };
    for i in (1..order.len()).rev() {
        let j = (next() % (i as u64 + 1)) as usize;
        order.swap(i, j);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The orders `adv` makes of the live set `live` in `round`.
    fn orders(adv: &mut dyn RoundAdversary, live: &[usize], round: usize) -> [Vec<usize>; 2] {
        let mut compose = live.to_vec();
        adv.compose_order(&mut compose, round);
        let mut step = live.to_vec();
        adv.step_order(&mut step, round);
        [compose, step]
    }

    #[test]
    fn all_schedulers_permute_the_live_set() {
        let mut adversaries: Vec<Box<dyn RoundAdversary>> = vec![
            Box::new(FairScheduler),
            Box::new(ReverseScheduler),
            Box::new(SkewedScheduler::default()),
            Box::new(SkewedScheduler { stride: 3 }),
            Box::new(ShuffledScheduler::new(7)),
        ];
        let sets: [&[usize]; 5] =
            [&[], &[4], &[0, 9], &[1, 2, 3, 5, 8, 13, 21], &[0, 1, 2, 3, 4, 5]];
        for adv in &mut adversaries {
            for live in sets {
                for round in 1..=20 {
                    for mut order in orders(adv.as_mut(), live, round) {
                        order.sort_unstable();
                        assert_eq!(order, live, "{}", adv.name());
                    }
                }
            }
        }
    }

    #[test]
    fn fair_leaves_the_buffer_untouched() {
        let live = [2, 3, 7, 11];
        assert_eq!(orders(&mut FairScheduler, &live, 5), [live.to_vec(), live.to_vec()]);
    }

    #[test]
    fn shuffled_is_deterministic_and_round_dependent() {
        let live: Vec<usize> = (0..9).collect();
        assert_eq!(
            orders(&mut ShuffledScheduler::new(42), &live, 3),
            orders(&mut ShuffledScheduler::new(42), &live, 3)
        );
        let differs = (1..50).any(|r| {
            orders(&mut ShuffledScheduler::new(42), &live, r)[0]
                != orders(&mut ShuffledScheduler::new(42), &live, r + 1)[0]
        });
        assert!(differs, "shuffles must vary across rounds");
    }

    #[test]
    fn skewed_rotates_the_start_of_the_live_set() {
        let mut s = SkewedScheduler::default();
        assert_eq!(orders(&mut s, &[0, 1, 2, 3], 1), [vec![1, 2, 3, 0], vec![3, 0, 1, 2]]);
        assert_eq!(orders(&mut s, &[0, 1, 2, 3], 2)[0], vec![2, 3, 0, 1]);
        // Halted nodes are not in the set, so the rotation skips them.
        assert_eq!(orders(&mut s, &[1, 5, 6], 4), [vec![5, 6, 1], vec![6, 1, 5]]);
    }

    #[test]
    fn reverse_reverses_the_live_set() {
        assert_eq!(orders(&mut ReverseScheduler, &[1, 5, 6], 1), [vec![6, 5, 1], vec![6, 5, 1]]);
    }

    #[test]
    fn names_are_distinct() {
        let names = [
            FairScheduler.name(),
            ReverseScheduler.name(),
            SkewedScheduler::default().name(),
            ShuffledScheduler::new(0).name(),
        ];
        let mut unique = names.to_vec();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), names.len());
    }
}
