//! Golden counters for the randomized stage 1 of Theorem 1.
//!
//! `TwoHopColoring` runs on a fixed set of graphs and seeds, and every
//! observable counter of the execution is pinned: rounds, messages
//! delivered, nominal message bytes, random bits consumed, and an FNV-1a
//! digest of the output colors. The values were captured before the engine
//! learned to compose a broadcast once and deliver it by reference, so any
//! change to how messages move through the engine that alters what an
//! execution observes fails here.

mod common;

use anonet::algorithms::two_hop_coloring::TwoHopColoring;
use anonet::graph::Graph;
use anonet::runtime::{run, ExecConfig, Oblivious, RngSource, Status};

/// `(rounds, messages_sent, message_bytes, bits_consumed, output digest)`.
type Counters = (usize, usize, usize, usize, u64);

fn fnv1a(bytes: impl IntoIterator<Item = u8>, mut h: u64) -> u64 {
    for b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

fn stage1(g: &Graph, seed: u64) -> Counters {
    let net = g.with_uniform_label(());
    let exec = run(
        &Oblivious(TwoHopColoring::new()),
        &net,
        &mut RngSource::seeded(seed),
        &ExecConfig::default(),
    )
    .expect("stage 1 runs on connected graphs");
    assert_eq!(exec.status(), Status::Completed);
    let digest = exec
        .outputs_unwrapped()
        .iter()
        .fold(0xcbf2_9ce4_8422_2325, |h, color| fnv1a(color.to_string().bytes().chain([b'|']), h));
    (exec.rounds(), exec.messages_sent(), exec.message_bytes(), exec.bits_consumed(), digest)
}

/// Captured from the engine that composed per port and cloned every
/// delivered message.
const GOLDEN: &[(&str, Counters)] = &[
    ("petersen/s0", (13, 387, 21672, 129, 4764640586778497273)),
    ("petersen/s1", (11, 327, 18312, 109, 11994452224013773519)),
    ("petersen/s2", (10, 300, 16800, 100, 15317398920817284970)),
    ("petersen/s3", (12, 357, 19992, 119, 8437984234623532985)),
    ("petersen/s4", (12, 357, 19992, 119, 13658217504091420745)),
    ("grid(5,5)", (11, 870, 48720, 270, 15985471133551140779)),
    ("cycle(17)", (9, 256, 14336, 128, 8551008631871209853)),
    ("gnp(64,0.1)", (15, 5481, 306936, 949, 15419712816688172330)),
    ("3-regular(128)", (12, 3972, 222432, 1324, 4787881338864210689)),
];

#[test]
fn two_hop_coloring_counters_match_the_golden_values() {
    let got: Vec<(String, Counters)> = common::stage1_cases()
        .into_iter()
        .map(|(name, g, seed)| (name, stage1(&g, seed)))
        .collect();
    assert_eq!(got.len(), GOLDEN.len());
    for ((name, c), (want_name, want)) in got.iter().zip(GOLDEN) {
        assert_eq!(name, want_name);
        assert_eq!(c, want, "{name}: (rounds, messages, bytes, bits, digest)");
    }
}
