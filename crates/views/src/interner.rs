//! Hash-consing of canonical byte encodings.
//!
//! The `A_*` engine compares canonical view encodings constantly: the C2
//! condition asks whether a node's depth-`p` view occurs in a candidate,
//! the candidate-pool memo is keyed by the encoded label universe, and
//! `Update-Graph` tie-breaks by the `s(G_*)` encoding. All of those are
//! equality tests on `Vec<u8>` values that repeat massively across nodes
//! and phases. The [`Interner`] maps each distinct encoding to a dense
//! [`Sym`] so repeated comparisons and hash lookups cost one `u32`
//! instead of a byte-vector walk, and each distinct encoding is stored
//! exactly once.
//!
//! **Symbols are identity, not order.** [`Sym`]s are handed out in
//! first-seen order, so `Sym` comparisons must never replace the paper's
//! canonical byte orders (`s(G_*)`, the `Update-Graph` total order) — use
//! [`Interner::resolve`] and compare bytes when an *ordering* is needed.
//! Equality of symbols, however, is exactly equality of encodings.
//!
//! **One hasher.** Every table here hashes with [`FastHash`], a
//! deterministic Fx-style multiply-rotate hasher. Its users are the
//! tables of one run over one instance — the `A_*` memo (`anonet-core`'s
//! `AstarCache`) and the [`ViewIds`](crate::ViewIds) interners inside it —
//! whose keys are symbols, ids and encodings the run derived from its own
//! instance, so keys crafted to collide could slow only the run that was
//! handed them. Tables that outlive one instance and gather keys from
//! many callers' graphs (the derandomization cache, the store) keep std's
//! DoS-resistant `RandomState` and do not use this module.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// A deterministic Fx-style hasher: each word is folded in as
/// `(h.rotate_left(5) ^ word) · K`, eight bytes per step. Cheap on the
/// keys of the `A_*` memo (symbols, ids, universe bitsets, encodings of a
/// few dozen bytes); not resistant to crafted collisions, so only for
/// tables that live for one run over one instance (see the module docs).
#[derive(Clone, Copy, Default, Debug)]
pub struct FastHasher {
    hash: u64,
}

impl FastHasher {
    const K: u64 = 0xf135_7aea_2e62_a9c5;

    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(Self::K);
    }
}

impl Hasher for FastHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            let mut word = [0u8; 8];
            word.copy_from_slice(chunk);
            self.add(u64::from_le_bytes(word));
        }
        let tail = chunks.remainder();
        if !tail.is_empty() {
            // The tail's length is folded in, so a tail is never confused
            // with the same bytes followed by zeros.
            let mut word = [0u8; 8];
            word[..tail.len()].copy_from_slice(tail);
            self.add(u64::from_le_bytes(word) ^ ((tail.len() as u64) << 59));
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.add(u64::from(i));
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add(u64::from(i));
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add(i);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add(i as u64);
    }

    /// The high bits of the last product carry the most mixing; the
    /// rotation moves them down to the bits a table picks its bucket by.
    #[inline]
    fn finish(&self) -> u64 {
        self.hash.rotate_left(26)
    }
}

/// The [`BuildHasher`] of [`FastHasher`]: spell a map as
/// `HashMap<K, V, FastHash>` and build it with `HashMap::default()`.
pub type FastHash = BuildHasherDefault<FastHasher>;

/// An interned encoding: a dense handle that is equal iff the underlying
/// byte encodings are equal (within one [`Interner`]).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct Sym(u32);

impl Sym {
    /// The dense index of this symbol (first-seen order).
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// A hash-consing table for canonical byte encodings, hashing with
/// [`FastHash`] (see the module docs).
///
/// # Example
///
/// ```
/// use anonet_views::Interner;
///
/// let mut interner = Interner::new();
/// let a = interner.intern(b"view-encoding");
/// let b = interner.intern(b"view-encoding");
/// assert_eq!(a, b); // one symbol per distinct encoding
/// assert_eq!(interner.resolve(a), b"view-encoding");
/// assert_eq!(interner.sym(b"unseen"), None);
/// ```
#[derive(Clone, Debug, Default)]
pub struct Interner {
    lookup: HashMap<Box<[u8]>, Sym, FastHash>,
    entries: Vec<Box<[u8]>>,
}

impl Interner {
    /// An empty table.
    pub fn new() -> Self {
        Interner::default()
    }

    /// Interns `bytes`, returning its (new or existing) symbol.
    pub fn intern(&mut self, bytes: &[u8]) -> Sym {
        if let Some(&sym) = self.lookup.get(bytes) {
            return sym;
        }
        let sym = Sym(u32::try_from(self.entries.len()).expect("fewer than 2^32 encodings"));
        let boxed: Box<[u8]> = bytes.into();
        self.entries.push(boxed.clone());
        self.lookup.insert(boxed, sym);
        sym
    }

    /// Looks up the symbol of an already-interned encoding, without
    /// interning. Read-only, so safe to share across worker threads.
    pub fn sym(&self, bytes: &[u8]) -> Option<Sym> {
        self.lookup.get(bytes).copied()
    }

    /// The bytes behind a symbol.
    ///
    /// # Panics
    ///
    /// Panics if `sym` came from a different interner (index out of range).
    pub fn resolve(&self, sym: Sym) -> &[u8] {
        &self.entries[sym.index()]
    }

    /// Number of distinct encodings interned.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` iff nothing has been interned.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_is_idempotent_and_dense() {
        let mut t = Interner::new();
        let a = t.intern(b"alpha");
        let b = t.intern(b"beta");
        let a2 = t.intern(b"alpha");
        assert_eq!(a, a2);
        assert_ne!(a, b);
        assert_eq!(t.len(), 2);
        assert_eq!(a.index(), 0);
        assert_eq!(b.index(), 1);
    }

    #[test]
    fn resolve_round_trips() {
        let mut t = Interner::new();
        let syms: Vec<Sym> = (0u8..50).map(|i| t.intern(&[i, i, i])).collect();
        for (i, sym) in syms.iter().enumerate() {
            assert_eq!(t.resolve(*sym), &[i as u8, i as u8, i as u8]);
        }
    }

    #[test]
    fn sym_lookup_does_not_intern() {
        let mut t = Interner::new();
        assert!(t.is_empty());
        assert_eq!(t.sym(b"x"), None);
        assert!(t.is_empty());
        let s = t.intern(b"x");
        assert_eq!(t.sym(b"x"), Some(s));
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn a_fixed_key_stream_interns_to_pinned_symbols() {
        let mut t = Interner::new();
        let stream: [&[u8]; 9] =
            [b"", b"a", b"ab", b"a", b"abcdefghi", b"", b"abcdefgh", b"abcdefghi", b"b"];
        let syms: Vec<usize> = stream.iter().map(|k| t.intern(k).index()).collect();
        assert_eq!(syms, [0, 1, 2, 1, 3, 0, 4, 3, 5]);
        assert_eq!(t.len(), 6);
    }

    #[test]
    fn keys_differing_by_length_or_trailing_zeros_intern_apart() {
        let mut t = Interner::new();
        // Every prefix of nine zero bytes, and a few words padded by zeros
        // at each length up to two words: all distinct encodings.
        let mut keys: Vec<Vec<u8>> = (0..=9).map(|n| vec![0u8; n]).collect();
        for base in [&[1u8][..], &[1, 2, 3][..], &[9, 8, 7, 6, 5, 4, 3, 2][..]] {
            for pad in 0..=(16 - base.len()) {
                let mut key = base.to_vec();
                key.resize(base.len() + pad, 0);
                keys.push(key);
            }
        }
        let syms: Vec<Sym> = keys.iter().map(|k| t.intern(k)).collect();
        assert_eq!(t.len(), keys.len(), "two keys shared a symbol");
        for (key, sym) in keys.iter().zip(&syms) {
            assert_eq!(t.resolve(*sym), &key[..]);
            assert_eq!(t.sym(key), Some(*sym));
        }
    }

    #[test]
    fn fast_hash_maps_iterate_deterministically() {
        use std::hash::BuildHasher;
        let fill = || {
            let mut m: HashMap<u64, u64, FastHash> = HashMap::default();
            for k in 0..1000u64 {
                m.insert(k.wrapping_mul(0x9e37_79b9_7f4a_7c15), k);
            }
            m
        };
        let (a, b) = (fill(), fill());
        let order = |m: &HashMap<u64, u64, FastHash>| m.iter().map(|(&k, &v)| (k, v)).collect();
        let (order_a, order_b): (Vec<_>, Vec<_>) = (order(&a), order(&b));
        assert_eq!(order_a, order_b);
        // The hasher itself carries no per-instance state.
        let hash = |bytes: &[u8]| FastHash::default().hash_one(bytes);
        assert_ne!(hash(b"view"), hash(b"view\0"));
    }

    #[test]
    fn empty_encoding_is_a_valid_entry() {
        let mut t = Interner::new();
        let e = t.intern(b"");
        assert_eq!(t.resolve(e), b"");
        assert_eq!(t.intern(b""), e);
    }
}
