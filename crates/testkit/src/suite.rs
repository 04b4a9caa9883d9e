//! The conformance suite runner: for each generated [`TestCase`], chain
//! every applicable oracle; on failure, greedily shrink to a locally
//! minimal case, write a replay artifact, and panic with the replay
//! string.

use std::cell::Cell;
use std::fmt::Debug;
use std::path::PathBuf;
use std::sync::Arc;

use anonet_batch::DerandCache;
use anonet_graph::lift::Perm;
use anonet_graph::{Label, LabeledGraph};
use anonet_runtime::{
    run, run_with_adversary, ExecConfig, Oblivious, ObliviousAlgorithm, Problem, RngSource, Status,
    ZeroSource,
};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use anonet_core::astar::AStarConfig;
use anonet_core::conformance::{
    astar_fast_reference_agreement, astar_infinity_agreement, replay_on_full_instance,
    view_graph_agreement,
};
use anonet_core::pipeline::run_pipeline;
use anonet_core::{CoreError, Derandomizer, SearchStrategy};
use anonet_obs::{bridge, names, MemoryRecorder};

use crate::gen::{self, Instance};
use crate::oracles::{check_view_ids, Failure};
use crate::testcase::{AdversaryKind, TestCase};

/// Environment-driven suite configuration.
///
/// * `ANONET_TESTKIT_SEED` — base seed of the case stream (default
///   `0xA11CE`);
/// * `ANONET_TESTKIT_CASES` — number of cases per suite (default: the
///   suite's own default);
/// * `ANONET_ADVERSARY` — `fair` / `reverse` / `skewed` / `shuffled`
///   forces one scheduler on every case; `mixed` (or unset) keeps the
///   per-case choice;
/// * `ANONET_TESTKIT_REPLAY` — a `tc1:…` replay string; the suite runs
///   exactly that case (no shrinking — the case is already minimal).
#[derive(Clone, Debug)]
pub struct Config {
    /// Base seed for [`TestCase::from_index`].
    pub seed: u64,
    /// Number of cases to run.
    pub cases: usize,
    /// Forced scheduler, if any.
    pub adversary: Option<AdversaryKind>,
    /// Single replay case, if any.
    pub replay: Option<TestCase>,
}

impl Config {
    /// Reads the configuration from the environment. Malformed variables
    /// panic — a misspelled suite configuration should never silently run
    /// the defaults. Unset and empty variables mean "default" (CI passes
    /// empty strings through its matrix).
    pub fn from_env(default_cases: usize) -> Config {
        let var = |name: &str| std::env::var(name).ok().filter(|v| !v.is_empty());
        let seed = match var("ANONET_TESTKIT_SEED") {
            Some(v) => v.parse().expect("ANONET_TESTKIT_SEED must be a u64"),
            None => 0xA11CE,
        };
        let cases = match var("ANONET_TESTKIT_CASES") {
            Some(v) => v.parse().expect("ANONET_TESTKIT_CASES must be a usize"),
            None => default_cases,
        };
        let adversary = match var("ANONET_ADVERSARY") {
            Some(v) if v == "mixed" => None,
            Some(v) => Some(v.parse().expect("ANONET_ADVERSARY must name a scheduler or 'mixed'")),
            None => None,
        };
        let replay = var("ANONET_TESTKIT_REPLAY")
            .map(|v| v.parse().expect("ANONET_TESTKIT_REPLAY must be a tc1:… string"));
        Config { seed, cases, adversary, replay }
    }
}

/// A metamorphic + differential conformance suite for one Las-Vegas
/// algorithm/problem pair.
///
/// `mk_input` maps an instance color to the node's input label (for
/// input-free problems it is `|_| ()`; the matching problem takes the
/// color itself as input).
pub struct Suite<A, P, F> {
    name: &'static str,
    alg: A,
    problem: P,
    mk_input: F,
    /// Largest quotient the literal `A_*` differential may enumerate
    /// (0 disables it). The enumeration cost is exponential in both the
    /// label universe and the tape length, so this stays tiny.
    astar_max_quotient: usize,
    /// Deterministic case guaranteed to pass the quotient gate, checked
    /// before the stream so the differential always runs at least once.
    astar_anchor: Option<&'static str>,
    /// Literal `A_*` runs spent so far in the current [`Suite::run`].
    astar_spent: Cell<usize>,
}

/// Literal `A_*` enumerations allowed per [`Suite::run`]: the anchor plus
/// at most one stream case that happens to clear the quotient gate.
const ASTAR_BUDGET: usize = 2;

impl<A, P, F> Suite<A, P, F>
where
    A: ObliviousAlgorithm + Clone + Sync,
    A::Input: Label + Sync,
    A::Output: Send,
    P: Problem<Input = A::Input, Output = A::Output>,
    F: Fn(u32) -> A::Input,
{
    /// Creates a suite.
    pub fn new(name: &'static str, alg: A, problem: P, mk_input: F) -> Self {
        Suite {
            name,
            alg,
            problem,
            mk_input,
            astar_max_quotient: 0,
            astar_anchor: None,
            astar_spent: Cell::new(0),
        }
    }

    /// Also runs the paper-exact `A_* ≡ A_∞` differential (the literal
    /// `run_astar` against the literal exhaustive `A_∞` enumeration) on
    /// cases with quotients of ≤ 3 view classes, budgeted to
    /// [`ASTAR_BUDGET`] runs per suite and anchored on a lifted triangle
    /// so it always fires. Enable only for short-tape algorithms (MIS):
    /// the enumeration is exponential in tape length.
    pub fn with_astar(mut self) -> Self {
        self.astar_max_quotient = 3;
        self.astar_anchor = Some("tc1:family=cycle,n=3,seed=1,color=greedy,lift=2,adv=reverse");
        self
    }

    /// Like [`Suite::with_astar`] but restricted to two-class quotients
    /// (a single colored edge and its lifts), for algorithms whose longer
    /// tapes make even a triangle enumeration explode (matching draws a
    /// proposal direction *and* an acceptance bit per phase).
    pub fn with_astar_tiny(mut self) -> Self {
        self.astar_max_quotient = 2;
        self.astar_anchor = Some("tc1:family=path,n=2,seed=1,color=greedy,lift=1,adv=skewed");
        self
    }

    fn inputs(&self, colors: &LabeledGraph<u32>) -> LabeledGraph<A::Input> {
        colors.map_labels(|&c| (self.mk_input)(c))
    }

    fn instance(&self, colors: &LabeledGraph<u32>) -> LabeledGraph<(A::Input, u32)> {
        self.inputs(colors).zip(colors).expect("same graph zips with itself")
    }

    /// Runs every oracle on one case.
    ///
    /// # Errors
    ///
    /// The first oracle violation, as a [`Failure`].
    pub fn check(&self, case: &TestCase) -> Result<(), Failure> {
        let inst: Instance =
            gen::build_instance(case).map_err(|e| Failure::new("generator", e.to_string()))?;
        let instance = self.instance(&inst.colors);
        let inputs = self.inputs(&inst.colors);
        let n = instance.node_count();
        let config = ExecConfig::default();
        let mut rng = ChaCha8Rng::seed_from_u64(case.seed ^ 0x7E57_CA5E_7E57_CA5E);

        // Differential 1 — the derandomizer agrees with itself on the
        // instance's own view graph (the general A_* ≡ A_∞ form).
        let drun = view_graph_agreement(&self.alg, &instance, SearchStrategy::default(), &config)
            .map_err(|e| Failure::new("view-graph-agreement", e.to_string()))?;

        if !self.problem.is_valid_output(&inputs, &drun.outputs) {
            return Err(Failure::new(
                "derandomized-validity",
                format!("derandomized outputs are not a valid solution: {:?}", drun.outputs),
            ));
        }

        // Differential 2 — the randomized engine replays the canonical
        // assignment to the same outputs (lifting lemma, executable).
        replay_on_full_instance(&self.alg, &instance, &drun, &config)
            .map_err(|e| Failure::new("randomized-replay", e.to_string()))?;

        // Metamorphic 1 — node renumbering: outputs follow the nodes.
        let perm = Perm::random(n, &mut rng);
        let renumbered = instance
            .renumber(&perm)
            .map_err(|e| Failure::new("renumbering-invariance", e.to_string()))?;
        let ren_run = Derandomizer::new(self.alg.clone())
            .run(&renumbered)
            .map_err(|e| Failure::new("renumbering-invariance", e.to_string()))?;
        for v in 0..n {
            if ren_run.outputs[perm.apply(v)] != drun.outputs[v] {
                return Err(Failure::new(
                    "renumbering-invariance",
                    format!(
                        "node {v} (renumbered {}): {:?} became {:?}",
                        perm.apply(v),
                        drun.outputs[v],
                        ren_run.outputs[perm.apply(v)]
                    ),
                ));
            }
        }

        // Metamorphic 2 — port re-permutation: the derandomizer is
        // portless end to end, so outputs must be byte-identical.
        let shuffled = instance.with_shuffled_ports(&mut rng);
        let shuf_run = Derandomizer::new(self.alg.clone())
            .run(&shuffled)
            .map_err(|e| Failure::new("port-invariance", e.to_string()))?;
        if shuf_run.outputs != drun.outputs {
            return Err(Failure::new(
                "port-invariance",
                format!("{:?} vs {:?} after port shuffle", drun.outputs, shuf_run.outputs),
            ));
        }

        // Differential — the view machinery against itself: layered view
        // ids partition the nodes exactly as `ViewTree` bytes do.
        check_view_ids(&instance, n.clamp(1, 3), instance.graph().nodes())?;
        // Metamorphic 3 — lift projection: derandomizing the lift is the
        // lift of derandomizing the base (Lemma 3 / Figure 2).
        if let (Some(projection), Some(base_colors)) = (&inst.projection, &inst.base_colors) {
            let base_run = Derandomizer::new(self.alg.clone())
                .run(&self.instance(base_colors))
                .map_err(|e| Failure::new("lift-projection", e.to_string()))?;
            for (v, &img) in projection.iter().enumerate() {
                if drun.outputs[v] != base_run.outputs[img.index()] {
                    return Err(Failure::new(
                        "lift-projection",
                        format!(
                            "lift node {v} got {:?} but its base node {} got {:?}",
                            drun.outputs[v],
                            img.index(),
                            base_run.outputs[img.index()]
                        ),
                    ));
                }
            }
        }

        // Adversarial — a seeded Las-Vegas run is schedule-invariant
        // (rounds are simultaneous; bit draws are canonical) and valid.
        let fair =
            run(&Oblivious(self.alg.clone()), &inputs, &mut RngSource::seeded(case.seed), &config)
                .map_err(|e| Failure::new("adversary-invariance", e.to_string()))?;
        let mut adversary = case.adversary.build(case.seed);
        let skewed = run_with_adversary(
            &Oblivious(self.alg.clone()),
            &inputs,
            &mut RngSource::seeded(case.seed),
            &config,
            adversary.as_mut(),
        )
        .map_err(|e| Failure::new("adversary-invariance", e.to_string()))?;
        if !fair.is_successful() || !skewed.is_successful() {
            return Err(Failure::new(
                "adversary-invariance",
                format!(
                    "seeded run did not complete (fair {:?}, adv {:?})",
                    fair.status(),
                    skewed.status()
                ),
            ));
        }
        let fair_outputs = fair.outputs_unwrapped();
        if fair_outputs != skewed.outputs_unwrapped() || fair.rounds() != skewed.rounds() {
            return Err(Failure::new(
                "adversary-invariance",
                format!("outputs or round counts diverged under adversary {}", case.adversary),
            ));
        }
        // Observability — the bridged engine metrics are schedule-
        // invariant: a seeded run's totals (messages, bytes, bits,
        // rounds) and per-round histograms must not depend on the
        // delivery schedule the adversary picked.
        let fair_rec = MemoryRecorder::new();
        bridge::record_execution(&fair_rec, &fair);
        let adv_rec = MemoryRecorder::new();
        bridge::record_execution(&adv_rec, &skewed);
        let (fair_snap, adv_snap) = (fair_rec.snapshot(), adv_rec.snapshot());
        for metric in [
            names::ENGINE_ROUNDS,
            names::ENGINE_MESSAGES,
            names::ENGINE_MESSAGE_BYTES,
            names::ENGINE_BITS_DRAWN,
        ] {
            if fair_snap.counter(metric) != adv_snap.counter(metric) {
                return Err(Failure::new(
                    "obs-invariance",
                    format!(
                        "{metric} diverged under adversary {}: fair {} vs adversarial {}",
                        case.adversary,
                        fair_snap.counter(metric),
                        adv_snap.counter(metric)
                    ),
                ));
            }
        }
        if fair_snap != adv_snap {
            return Err(Failure::new(
                "obs-invariance",
                format!(
                    "bridged metric snapshots diverged under adversary {}:\nfair:\n{}\nadversarial:\n{}",
                    case.adversary,
                    fair_snap.render(),
                    adv_snap.render()
                ),
            ));
        }
        if !self.problem.is_valid_output(&inputs, &fair_outputs) {
            return Err(Failure::new(
                "randomized-validity",
                format!("live seeded run produced an invalid solution: {fair_outputs:?}"),
            ));
        }

        // Negative — starved randomness must hit the round cap, with no
        // node tricked into an output (all-zero bits make no progress).
        if n >= 2 {
            let capped = ExecConfig::with_max_rounds(16);
            let starved = run(&Oblivious(self.alg.clone()), &inputs, &mut ZeroSource, &capped)
                .map_err(|e| Failure::new("round-cap", e.to_string()))?;
            if starved.status() != Status::MaxRounds || starved.is_successful() {
                return Err(Failure::new(
                    "round-cap",
                    format!(
                        "all-zero run ended with {:?} after {} rounds",
                        starved.status(),
                        starved.rounds()
                    ),
                ));
            }
        }

        // Differential 3 — a content-addressed cache changes work, never
        // outputs: miss then hit, byte-identical both times.
        let cache = Arc::new(DerandCache::new());
        let cached = Derandomizer::new(self.alg.clone()).with_cache(cache);
        let first =
            cached.run(&instance).map_err(|e| Failure::new("cache-consistency", e.to_string()))?;
        let second =
            cached.run(&instance).map_err(|e| Failure::new("cache-consistency", e.to_string()))?;
        if first.cache_hit || !second.cache_hit {
            return Err(Failure::new(
                "cache-consistency",
                format!(
                    "expected miss-then-hit, got {} then {}",
                    first.cache_hit, second.cache_hit
                ),
            ));
        }
        if first.outputs != drun.outputs || second.outputs != drun.outputs {
            return Err(Failure::new("cache-consistency", "cached outputs diverged".to_string()));
        }

        // Differential 4 — the full Theorem-1 pipeline (fresh randomized
        // coloring + derandomization) solves the problem on these inputs.
        let pipe = run_pipeline(&self.alg, &inputs, case.seed, SearchStrategy::default())
            .map_err(|e| Failure::new("pipeline-validity", e.to_string()))?;
        if !self.problem.is_valid_output(&inputs, &pipe.outputs) {
            return Err(Failure::new(
                "pipeline-validity",
                format!("pipeline outputs are not a valid solution: {:?}", pipe.outputs),
            ));
        }

        // Differential 5 (optional) — the literal A_* against the literal
        // exhaustive A_∞, where the enumeration is feasible (tiny
        // quotients AND small instances: A_* converges by phase ~2n), and
        // at most ASTAR_BUDGET times per run (the cost is exponential in
        // the label universe and the tape length, so one anchored hit plus
        // one stream hit is the whole point, not a sample).
        if drun.quotient_nodes <= self.astar_max_quotient
            && n <= 2 * self.astar_max_quotient
            && self.astar_spent.get() < ASTAR_BUDGET
        {
            self.astar_spent.set(self.astar_spent.get() + 1);
            match astar_infinity_agreement(
                &self.alg,
                &self.problem,
                &instance,
                &AStarConfig::default(),
                24,
            ) {
                Ok(_) => {}
                Err(e @ CoreError::ConformanceMismatch { .. }) => {
                    return Err(Failure::new("astar-infinity", e.to_string()));
                }
                // Budget exhaustion just means the case outgrew the
                // paper-exact enumeration — not a conformance failure.
                // anonet-lint: allow(error-swallow, reason = "budget exhaustion is the documented benign outcome; mismatches are caught by the arm above")
                Err(_) => {}
            }

            // Differential 6 — the memoized A_* engine against the literal
            // Figure-3 reference, byte-for-byte across every field of the
            // run.
            // Same gate and budget slot as differential 5: the reference
            // side is the expensive per-node enumeration.
            match astar_fast_reference_agreement(
                &self.alg,
                &self.problem,
                &instance,
                &AStarConfig::default(),
            ) {
                Ok(_) => {}
                Err(e @ CoreError::ConformanceMismatch { .. }) => {
                    return Err(Failure::new("astar-fast-vs-reference", e.to_string()));
                }
                // anonet-lint: allow(error-swallow, reason = "same budget-exhaustion contract as differential 5; mismatches are caught by the arm above")
                Err(_) => {}
            }
        }

        Ok(())
    }

    /// Walks the configured case stream, shrinking and reporting the
    /// first failure.
    ///
    /// # Panics
    ///
    /// Panics with a replay string when any case fails an oracle.
    pub fn run(&self, default_cases: usize) {
        self.astar_spent.set(0);
        let anchors: Vec<TestCase> = self
            .astar_anchor
            .iter()
            .map(|s| s.parse().expect("anchor strings are written in-crate"))
            .collect();
        run_harness(self.name, default_cases, &anchors, |case| self.check(case));
    }
}

/// Shared harness: replay / enumerate, shrink, persist, panic.
pub(crate) fn run_harness(
    name: &'static str,
    default_cases: usize,
    anchors: &[TestCase],
    check: impl Fn(&TestCase) -> Result<(), Failure>,
) {
    let config = Config::from_env(default_cases);
    if let Some(case) = &config.replay {
        let mut case = case.clone();
        if let Some(adv) = config.adversary {
            case.adversary = adv;
        }
        if let Err(failure) = check(&case) {
            report(name, &case, &failure);
        }
        return;
    }
    let stream = (0..config.cases).map(|index| TestCase::from_index(config.seed, index));
    for mut case in anchors.iter().cloned().chain(stream) {
        if let Some(adv) = config.adversary {
            case.adversary = adv;
        }
        if let Err(failure) = check(&case) {
            let (case, failure) = shrink_failure(case, failure, &check);
            report(name, &case, &failure);
        }
    }
}

/// Greedy shrink: repeatedly move to the first single-field
/// simplification that still fails, until none does.
fn shrink_failure(
    mut case: TestCase,
    mut failure: Failure,
    check: &impl Fn(&TestCase) -> Result<(), Failure>,
) -> (TestCase, Failure) {
    'outer: loop {
        for candidate in case.shrink() {
            if let Err(f) = check(&candidate) {
                case = candidate;
                failure = f;
                continue 'outer;
            }
        }
        return (case, failure);
    }
}

fn report(name: &str, case: &TestCase, failure: &Failure) -> ! {
    let replay = case.to_string();
    let text = format!(
        "suite:  {name}\noracle: {}\ndetail: {}\nreplay: ANONET_TESTKIT_REPLAY='{replay}' cargo test\n",
        failure.oracle, failure.detail
    );
    let dir = PathBuf::from("target").join("testkit-failures");
    if std::fs::create_dir_all(&dir).is_ok() {
        // Best-effort artifact; the panic below carries the same payload.
        // anonet-lint: allow(error-swallow, reason = "best-effort artifact; the panic below carries the identical payload")
        let _ = std::fs::write(dir.join(format!("{name}.txt")), &text);
    }
    panic!("conformance failure\n{text}");
}

impl<A: Debug, P: Debug, F> Debug for Suite<A, P, F> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Suite")
            .field("name", &self.name)
            .field("alg", &self.alg)
            .field("problem", &self.problem)
            .field("astar_max_quotient", &self.astar_max_quotient)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use anonet_algorithms::mis::RandomizedMis;
    use anonet_algorithms::problems::MisProblem;

    fn mis_suite() -> Suite<RandomizedMis, MisProblem, impl Fn(u32)> {
        Suite::new("mis-unit", RandomizedMis::new(), MisProblem, |_| ())
    }

    #[test]
    fn a_single_case_passes_every_oracle() {
        let case: TestCase =
            "tc1:family=cycle,n=4,seed=9,color=greedy,lift=2,adv=shuffled".parse().unwrap();
        mis_suite().check(&case).unwrap();
    }

    #[test]
    fn shrinking_descends_to_a_minimal_failure() {
        // A synthetic oracle failing iff n >= 4 under a non-fair
        // adversary: the shrinker must strip the irrelevant fields.
        let check = |case: &TestCase| -> Result<(), Failure> {
            if case.n >= 4 && case.adversary != AdversaryKind::Fair {
                Err(Failure::new("synthetic", "n too large"))
            } else {
                Ok(())
            }
        };
        let start: TestCase =
            "tc1:family=torus,n=9,seed=12,color=pipeline,lift=3,adv=shuffled".parse().unwrap();
        let failure = check(&start).unwrap_err();
        let (min_case, min_failure) = shrink_failure(start, failure, &check);
        assert_eq!(min_failure.oracle, "synthetic");
        // Fair would make it pass, so the adversary stays non-fair; all
        // other fields collapse to their minimal failing values.
        assert_ne!(min_case.adversary, AdversaryKind::Fair);
        assert_eq!(min_case.n, 4);
        assert_eq!(min_case.lift, 1);
        assert_eq!(min_case.seed, 0);
    }
}
