//! Golden digests of the seeded generators that build the benchmark's
//! inputs.
//!
//! Each case hashes a generated graph's adjacency in port order (and, for
//! lifts, the projection) with FNV-1a. The values were captured from the
//! generators before `lift` stopped inverting a voltage per lift node and
//! `random_regular` stopped cloning its builder per edge, so any change to
//! a generator that alters a graph, its port numbering or the RNG draws it
//! makes fails here.

use anonet_graph::lift::random_connected_lift;
use anonet_graph::{generators, Graph, NodeId};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

fn fnv1a(h: u64, x: u64) -> u64 {
    x.to_le_bytes().iter().fold(h, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3))
}

/// Node count, then each node's degree and neighbours in port order.
fn adjacency_digest(g: &Graph) -> u64 {
    g.nodes().fold(fnv1a(FNV_OFFSET, g.node_count() as u64), |h, v| {
        let nbrs = g.neighbors(v);
        nbrs.iter().fold(fnv1a(h, nbrs.len() as u64), |h, u| fnv1a(h, u.index() as u64))
    })
}

fn projection_digest(h: u64, projection: &[NodeId]) -> u64 {
    projection.iter().fold(h, |h, v| fnv1a(h, v.index() as u64))
}

/// The `derand_lifts` bases: `gnp_connected(n, 0.5)` with more edges than
/// nodes, drawn in order from one seed-1 stream.
fn lift_bases() -> Vec<Graph> {
    let mut rng = ChaCha8Rng::seed_from_u64(1);
    [5, 5, 6, 6, 6, 7, 7, 7]
        .into_iter()
        .map(|n| loop {
            let g = generators::gnp_connected(n, 0.5, &mut rng).unwrap();
            if g.edge_count() > n {
                break g;
            }
        })
        .collect()
}

#[test]
fn random_connected_lifts_match_the_golden_digests() {
    // One digest per (base, multiplicity), bases in order, 64 then 1280.
    const GOLDEN: [u64; 16] = [
        8306033792153762990,
        9730880125093364698,
        1848907332353816998,
        1938463675712566738,
        16926743054850424466,
        13658340531161227135,
        2216584368513332766,
        12072980743032725443,
        10239853671928803782,
        8735371658706713239,
        5966760582307900514,
        583833113575796216,
        4000092992297417682,
        17012748647546725220,
        6744305248709973182,
        2020743881350437328,
    ];
    let mut rng = ChaCha8Rng::seed_from_u64(1);
    let mut got = Vec::new();
    for base in lift_bases() {
        for m in [64, 1280] {
            let lift = random_connected_lift(&base, m, 50, &mut rng).unwrap();
            got.push(projection_digest(adjacency_digest(lift.graph()), lift.projection()));
        }
    }
    assert_eq!(got, GOLDEN);
}

#[test]
fn random_regular_graphs_match_the_golden_digests() {
    const GOLDEN: [u64; 5] = [
        7863336976040683221,
        11262504213774253285,
        18335147516693285702,
        2819694746583391199,
        5334427598818403345,
    ];
    let mut rng = ChaCha8Rng::seed_from_u64(1);
    let got: Vec<u64> = [16, 128, 130, 512, 1024]
        .into_iter()
        .map(|n| adjacency_digest(&generators::random_regular(n, 3, 100, &mut rng).unwrap()))
        .collect();
    assert_eq!(got, GOLDEN);
}

#[test]
fn sparse_gnp_graphs_match_the_golden_digests() {
    const GOLDEN: [u64; 4] =
        [9932099704145893802, 8315721652288325351, 10363866908007851222, 3404507260811130253];
    let mut rng = ChaCha8Rng::seed_from_u64(1);
    let got: Vec<u64> = [128, 256, 512, 1024]
        .into_iter()
        .map(|n| adjacency_digest(&generators::gnp_connected(n, 6.0 / n as f64, &mut rng).unwrap()))
        .collect();
    assert_eq!(got, GOLDEN);
}
