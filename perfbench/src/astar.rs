//! `astar_lifts`: the paper's literal `A_*` (Figure 3) on lifts.
//!
//! MIS on random connected lifts of the cyclic bases with at most four
//! nodes — K3, C4, the paw, the diamond and K4 — greedily 2-hop colored:
//! K3 at multiplicities 1 to 20, the paw, the diamond and K4 at 1 to 25,
//! and C4 at 1 to 6 only, since a C4 lift costs about 16 ms more per fibre
//! and twenty of them would take most of the pass. That is 101 instances,
//! and p90 (rank 91) falls among the largest lifts of the paw and the
//! diamond rather than on the gap below the C4 lifts. The seed draws the
//! lifts. Each instance runs `run_astar` on one thread; only this workload
//! enters the `astar`, `astar_cache` and `candidates` modules.

use std::sync::Arc;
use std::time::{Duration, Instant};

use anonet_algorithms::mis::RandomizedMis;
use anonet_algorithms::problems::MisProblem;
use anonet_core::astar::{run_astar, run_astar_observed, AStarConfig, AStarRun};
use anonet_core::candidates::candidate_pool;
use anonet_graph::coloring::greedy_two_hop_coloring;
use anonet_graph::lift::random_connected_lift;
use anonet_graph::{generators, Graph, LabeledGraph};
use anonet_obs::names;
use anonet_obs::MemoryRecorder;
use anonet_runtime::Problem;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use crate::{span_s, speed, Layers, Pass, Scale, Workload};

/// Largest candidate size `A_*` enumerates, and the probe's pool size.
const POOL_NODES: usize = 4;

type Instance = LabeledGraph<((), u32)>;

/// The inputs: colored lifts, their uncolored graphs, and each base's
/// label universe.
pub struct AstarLifts {
    instances: Vec<Instance>,
    plain: Vec<LabeledGraph<()>>,
    universes: Vec<Vec<((), u32)>>,
}

/// K3, C4, the paw, the diamond and K4, each with its largest
/// multiplicity at full scale.
fn cyclic_bases() -> Result<Vec<(Graph, usize)>, String> {
    let paw = Graph::from_edges(4, &[(0, 1), (0, 2), (1, 2), (2, 3)]);
    let diamond = Graph::from_edges(4, &[(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)]);
    [
        (generators::complete(3), 20),
        (generators::cycle(4), 6),
        (paw, 25),
        (diamond, 25),
        (generators::complete(4), 25),
    ]
    .into_iter()
    .map(|(g, max_m)| g.map(|g| (g, max_m)).map_err(|e| e.to_string()))
    .collect()
}

fn run_bytes(run: &AStarRun<bool>) -> Vec<u8> {
    let mut out: Vec<u8> = run.outputs.iter().map(|&b| u8::from(b)).collect();
    for field in [run.phases_used, run.equivalent_rounds].iter().chain(&run.output_phase) {
        out.extend_from_slice(&(*field as u64).to_le_bytes());
    }
    for bits in &run.final_bits {
        out.extend_from_slice(&(bits.len() as u64).to_le_bytes());
        out.extend(bits.iter().map(u8::from));
    }
    out
}

impl Workload for AstarLifts {
    fn setup(seed: u64, scale: Scale) -> Result<Self, String> {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let (mut instances, mut plain, mut universes) = (Vec::new(), Vec::new(), Vec::new());
        for (base, max_m) in cyclic_bases()? {
            let max_m = if scale == Scale::Smoke { 2 } else { max_m };
            let labels: Vec<((), u32)> =
                greedy_two_hop_coloring(&base).labels().iter().map(|&c| ((), c)).collect();
            let mut universe = labels.clone();
            universe.sort();
            universe.dedup();
            universes.push(universe);
            for m in 1..=max_m {
                // A random lift of a unicyclic base is connected with
                // probability 1/m, hence the generous retry budget.
                let lift =
                    random_connected_lift(&base, m, 1000, &mut rng).map_err(|e| e.to_string())?;
                plain.push(lift.graph().with_uniform_label(()));
                instances.push(lift.lift_labels(&labels).map_err(|e| e.to_string())?);
            }
        }
        Ok(AstarLifts { instances, plain, universes })
    }

    fn pass(&self, recorder: Option<&Arc<MemoryRecorder>>) -> Result<Pass, String> {
        let alg = RandomizedMis::new();
        let cfg = AStarConfig::default();
        let mut pass = Pass { attempted: self.instances.len() as u64, ..Pass::default() };
        let (mut phases, mut rounds) = (0usize, 0usize);
        let mut sampling = Duration::ZERO;
        let start = Instant::now();
        for (instance, plain) in self.instances.iter().zip(&self.plain) {
            let call = Instant::now();
            let run = match recorder {
                None => run_astar(&alg, &MisProblem, instance, &cfg),
                Some(rec) => run_astar_observed(&alg, &MisProblem, instance, &cfg, &**rec),
            };
            let valid = run.as_ref().is_ok_and(|r| MisProblem.is_valid_output(plain, &r.outputs));
            let latency = call.elapsed().as_secs_f64();
            pass.latencies_ms.push(if valid { latency * 1e3 } else { f64::INFINITY });
            let (kernel, spent) = speed::sample();
            pass.kernels.push(kernel);
            sampling += spent;
            match run {
                Ok(run) if valid => {
                    phases += run.phases_used;
                    rounds += run.equivalent_rounds;
                    pass.outputs.push(run_bytes(&run));
                }
                _ => {
                    pass.failed += 1;
                    pass.outputs.push(Vec::new());
                }
            }
        }
        pass.wall = start.elapsed().saturating_sub(sampling);
        if let Some(rec) = recorder {
            let snap = rec.snapshot();
            let astar = span_s(&snap, names::SPAN_ASTAR);
            let hits = snap.counter(names::ASTAR_POOL_HIT) as f64;
            let misses = snap.counter(names::ASTAR_POOL_MISS) as f64;
            pass.layers = Layers::from([
                ("astar.run_s", astar),
                ("astar.update_graph_s", span_s(&snap, names::SPAN_UPDATE_GRAPH)),
                ("astar.update_output_s", span_s(&snap, names::SPAN_UPDATE_OUTPUT)),
                ("astar.update_bits_s", span_s(&snap, names::SPAN_UPDATE_BITS)),
                ("astar.phases", phases as f64),
                ("astar.equivalent_rounds", rounds as f64),
                ("astar.pool_hit_rate", hits / (hits + misses).max(1.0)),
                ("other_s", pass.wall.as_secs_f64() - astar),
            ]);
        }
        Ok(pass)
    }

    /// Candidate enumeration has no span: time `candidate_pool` over each
    /// base's label universe.
    fn probe(&self) -> Result<Layers, String> {
        let start = Instant::now();
        for universe in &self.universes {
            let pool = candidate_pool(POOL_NODES, universe).map_err(|e| e.to_string())?;
            std::hint::black_box(pool);
        }
        Ok(Layers::from([("candidates.pool_s", start.elapsed().as_secs_f64())]))
    }
}
