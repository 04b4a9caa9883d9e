//! The packed `BitString` against a `Vec<bool>` model.
//!
//! Random operation sequences run on a few strings side by side with their
//! models, with lengths up to 200 so that strings cross the inline word
//! and the first tail word. After every operation each string must agree
//! with its model bit for bit, in its order relations, text and byte
//! encoding, and must equal and hash like the same bits built afresh.

use std::cmp::Ordering;
use std::hash::{BuildHasher, RandomState};

use anonet_graph::{BitString, Label};
use proptest::prelude::*;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

const MAX_LEN: usize = 200;

/// The unpacked encoding: the length, then the bits packed MSB first.
fn model_encode(bits: &[bool]) -> Vec<u8> {
    let mut out = (bits.len() as u64).to_be_bytes().to_vec();
    for chunk in bits.chunks(8) {
        out.push(chunk.iter().enumerate().fold(0, |b, (i, &x)| b | u8::from(x) << (7 - i)));
    }
    out
}

fn model_text(bits: &[bool]) -> String {
    match bits {
        [] => "ε".into(),
        _ => bits.iter().map(|&b| if b { '1' } else { '0' }).collect(),
    }
}

fn model_from_value(value: u64, len: usize) -> Vec<bool> {
    (0..len).rev().map(|i| i < 64 && (value >> i) & 1 == 1).collect()
}

fn random_bits(rng: &mut ChaCha8Rng, max: usize) -> Vec<bool> {
    let k = rng.gen_range(0..=max);
    (0..k).map(|_| rng.gen()).collect()
}

/// One random operation on slot `i`, applied to the string and its model.
fn step(rng: &mut ChaCha8Rng, slots: &mut [(BitString, Vec<bool>)], i: usize) {
    let j = rng.gen_range(0..slots.len());
    let (other, other_model) = slots[j].clone();
    let (s, m) = &mut slots[i];
    match rng.gen_range(0..9) {
        0..=2 => {
            let bit = rng.gen();
            s.push(bit);
            m.push(bit);
        }
        3 => assert_eq!(s.pop(), m.pop()),
        4 => {
            let len = rng.gen_range(0..=m.len() + 3);
            s.truncate(len);
            m.truncate(len);
        }
        5 => {
            let bits = random_bits(rng, 80);
            s.extend(bits.iter().copied());
            m.extend(bits);
        }
        6 => {
            *s = s.concat(&other);
            m.extend(other_model);
        }
        7 => {
            let (value, len) = (rng.gen(), rng.gen_range(0..=MAX_LEN));
            *s = BitString::from_value(value, len);
            *m = model_from_value(value, len);
        }
        _ => {
            let bits = random_bits(rng, MAX_LEN);
            *s = BitString::from_bits(bits.iter().copied());
            *m = bits;
        }
    }
    if m.len() > MAX_LEN {
        s.truncate(MAX_LEN);
        m.truncate(MAX_LEN);
    }
}

fn check(hasher: &RandomState, s: &BitString, m: &[bool]) -> Result<(), String> {
    prop_assert_eq!(s.len(), m.len());
    prop_assert_eq!(s.is_empty(), m.is_empty());
    for (k, &bit) in m.iter().enumerate() {
        prop_assert_eq!(s.get(k), Some(bit));
    }
    prop_assert_eq!(s.get(m.len()), None);
    prop_assert_eq!(s.iter().collect::<Vec<bool>>(), m);
    prop_assert_eq!(s.to_string(), model_text(m));
    prop_assert_eq!(s.to_string().parse::<BitString>(), Ok(s.clone()));
    prop_assert_eq!(s.encoded(), model_encode(m));
    if m.len() <= 64 {
        let value = m.iter().fold(0u64, |acc, &b| acc << 1 | u64::from(b));
        prop_assert_eq!(s.to_value(), value);
    }
    // The same bits built in one go: no spare tail words, no history.
    let fresh = BitString::from_bits(m.iter().copied());
    prop_assert_eq!(s, &fresh);
    prop_assert_eq!(s.cmp(&fresh), Ordering::Equal);
    prop_assert_eq!(hasher.hash_one(s), hasher.hash_one(&fresh));
    Ok(())
}

fn check_pair(
    hasher: &RandomState,
    (a, ma): &(BitString, Vec<bool>),
    (b, mb): &(BitString, Vec<bool>),
) -> Result<(), String> {
    prop_assert_eq!(a == b, ma == mb);
    prop_assert_eq!(a.cmp(b), ma.len().cmp(&mb.len()).then_with(|| ma.cmp(mb)));
    prop_assert_eq!(a.cmp_lex(b), ma.cmp(mb));
    prop_assert_eq!(a.is_prefix_of(b), mb.starts_with(ma));
    if ma == mb {
        prop_assert_eq!(hasher.hash_one(a), hasher.hash_one(b));
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn packed_bitstrings_follow_the_vec_model(seed in 0u64..u64::MAX, steps in 1usize..120) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let hasher = RandomState::new();
        let mut slots = vec![(BitString::new(), Vec::new()); 3];
        for _ in 0..steps {
            let i = rng.gen_range(0..slots.len());
            step(&mut rng, &mut slots, i);
            check(&hasher, &slots[i].0, &slots[i].1)?;
            for other in &slots {
                check_pair(&hasher, &slots[i], other)?;
                check_pair(&hasher, other, &slots[i])?;
            }
        }
    }
}

#[test]
fn equal_strings_from_different_histories_are_equal() {
    let hasher = RandomState::new();
    // 130 bits pushed one by one grow spare tail words; popping back to
    // 70 leaves them, and zeroed bits past the length.
    let mut grown = BitString::from_value(u64::MAX, 64);
    grown.extend(std::iter::repeat_n(true, 66));
    while grown.len() > 70 {
        grown.pop();
    }
    let direct = BitString::from_bits(std::iter::repeat_n(true, 70));
    assert_eq!(grown, direct);
    assert_eq!(hasher.hash_one(&grown), hasher.hash_one(&direct));
    assert_eq!(grown.encoded(), direct.encoded());
    grown.truncate(3);
    grown.push(false);
    assert_eq!(grown.to_string(), "1110");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Equal-length strings past one word that share their first 64 bits:
    /// only the tail can order them. Random operation sequences rarely
    /// build such pairs.
    #[test]
    fn long_strings_with_a_shared_head_order_by_their_tail(
        head in 0u64..u64::MAX,
        len in 65usize..=200,
        seed in 0u64..u64::MAX,
    ) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let hasher = RandomState::new();
        let prefix = model_from_value(head, 64);
        let mut models = Vec::new();
        for _ in 0..2 {
            let mut m = prefix.clone();
            m.extend((64..len).map(|_| rng.gen::<bool>()));
            models.push(m);
        }
        // A copy of the first that differs in one tail bit, and one that
        // is equal but built bit by bit.
        let mut flipped = models[0].clone();
        let k = rng.gen_range(64..len);
        flipped[k] = !flipped[k];
        models.push(flipped);
        let pairs: Vec<(BitString, Vec<bool>)> =
            models.into_iter().map(|m| (BitString::from_bits(m.iter().copied()), m)).collect();
        let mut pushed = BitString::new();
        pushed.extend(pairs[0].1.iter().copied());
        let pushed = (pushed, pairs[0].1.clone());
        for a in pairs.iter().chain([&pushed]) {
            for b in pairs.iter().chain([&pushed]) {
                check_pair(&hasher, a, b)?;
            }
        }
    }
}
