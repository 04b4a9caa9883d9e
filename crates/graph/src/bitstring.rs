//! Finite bitstrings — the paper's label domain.

use std::fmt;
use std::str::FromStr;

use crate::labels::Label;

/// A finite bitstring, the paper's canonical label domain (Section 1.1:
/// "we assume hereafter that all labels are finite bitstrings").
///
/// Bitstrings are ordered by the **shortlex** order: first by length, then
/// lexicographically. This makes the order total on strings of *different*
/// lengths as well, which is exactly what the paper's `Update-Bits`
/// machinery requires when comparing bit assignments of different phase
/// lengths (Section 2.2 extends the assignment order by `t₁ < t₂`).
///
/// # Example
///
/// ```
/// use anonet_graph::BitString;
///
/// let a: BitString = "010".parse().unwrap();
/// let b: BitString = "1".parse().unwrap();
/// // shortlex: all length-1 strings precede all length-3 strings
/// assert!(b < a);
/// assert_eq!(a.to_string(), "010");
/// ```
///
/// # Layout
///
/// Bits are packed most significant bit first into 64-bit words: bit `i`
/// sits at position `63 - i % 64` of word `i / 64`. Word 0 is stored
/// inline, so a bitstring of at most 64 bits — every color and most tapes —
/// clones without allocating; later words live in a boxed tail that may
/// hold zeroed spare words. Every bit at or beyond `len` is zero, so equal
/// strings have equal used words, whatever operations built them, and an
/// integer compare of two words is a lexicographic compare of their bits.
#[derive(Clone, Default)]
pub struct BitString {
    len: usize,
    head: u64,
    tail: Box<[u64]>,
}

/// The word mask of the first `bits` bits, `1 <= bits <= 64`.
fn high_mask(bits: usize) -> u64 {
    u64::MAX << (64 - bits)
}

impl BitString {
    /// Creates an empty bitstring.
    pub fn new() -> Self {
        BitString::default()
    }

    /// Creates a bitstring from an iterator of bits.
    pub fn from_bits<I: IntoIterator<Item = bool>>(bits: I) -> Self {
        let mut s = BitString::new();
        s.extend(bits);
        s
    }

    /// Creates a bitstring holding the `len` low-order bits of `value`,
    /// most significant bit first; beyond 64 bits, the leading bits are
    /// zero.
    ///
    /// # Example
    ///
    /// ```
    /// use anonet_graph::BitString;
    /// assert_eq!(BitString::from_value(5, 4).to_string(), "0101");
    /// ```
    pub fn from_value(value: u64, len: usize) -> Self {
        match len {
            0 => BitString::new(),
            1..=64 => BitString { len, head: value << (64 - len), tail: Box::default() },
            _ => (0..len).rev().map(|i| i < 64 && (value >> i) & 1 == 1).collect(),
        }
    }

    /// Number of bits.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` if the bitstring has no bits.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Word `w`, which holds bits `64w..64w+64`; zero past the tail.
    fn word(&self, w: usize) -> u64 {
        match w {
            0 => self.head,
            _ => self.tail.get(w - 1).copied().unwrap_or(0),
        }
    }

    fn word_mut(&mut self, w: usize) -> &mut u64 {
        match w {
            0 => &mut self.head,
            _ => &mut self.tail[w - 1],
        }
    }

    /// The tail words that hold bits below `len`.
    fn used_tail(&self) -> &[u64] {
        &self.tail[..self.len.saturating_sub(64).div_ceil(64)]
    }

    /// Returns bit `i`, or `None` if out of range.
    pub fn get(&self, i: usize) -> Option<bool> {
        (i < self.len).then(|| (self.word(i / 64) >> (63 - i % 64)) & 1 == 1)
    }

    /// Appends a bit.
    pub fn push(&mut self, bit: bool) {
        let w = self.len / 64;
        if w > self.tail.len() {
            // Grow the tail geometrically; spare words stay zero.
            let mut tail = vec![0; (2 * self.tail.len()).max(1)];
            tail[..self.tail.len()].copy_from_slice(&self.tail);
            self.tail = tail.into_boxed_slice();
        }
        *self.word_mut(w) |= u64::from(bit) << (63 - self.len % 64);
        self.len += 1;
    }

    /// Removes and returns the last bit.
    pub fn pop(&mut self) -> Option<bool> {
        let bit = self.get(self.len.checked_sub(1)?)?;
        self.truncate(self.len - 1);
        Some(bit)
    }

    /// Truncates to the first `len` bits (no-op if already shorter).
    pub fn truncate(&mut self, len: usize) {
        if len >= self.len {
            return;
        }
        let keep = len.div_ceil(64);
        for w in keep..self.len.div_ceil(64) {
            *self.word_mut(w) = 0;
        }
        if !len.is_multiple_of(64) {
            *self.word_mut(len / 64) &= high_mask(len % 64);
        }
        self.len = len;
    }

    /// Iterates over the bits.
    pub fn iter(&self) -> impl Iterator<Item = bool> + '_ {
        (0..self.len).map(|i| (self.word(i / 64) >> (63 - i % 64)) & 1 == 1)
    }

    /// `true` if `self` is a prefix of `other` (including equality).
    ///
    /// `Update-Bits` only ever *extends* a node's bitstring, so prefix
    /// queries are how the analysis (Lemma 9) relates phases.
    pub fn is_prefix_of(&self, other: &BitString) -> bool {
        // Bits of `self` past its length are zero, so masking `other`'s
        // last word down to them completes the test.
        let full = self.len / 64;
        other.len >= self.len
            && (0..full).all(|w| self.word(w) == other.word(w))
            && match self.len % 64 {
                0 => true,
                bits => self.word(full) == other.word(full) & high_mask(bits),
            }
    }

    /// Lexicographic comparison (`false < true`, a proper prefix first),
    /// the order of `[bool]` slices. Unlike [`Ord`], length does not come
    /// first.
    pub fn cmp_lex(&self, other: &BitString) -> std::cmp::Ordering {
        let common = self.len.min(other.len);
        for w in 0..common.div_ceil(64) {
            let mask = high_mask((common - 64 * w).min(64));
            let (a, b) = (self.word(w) & mask, other.word(w) & mask);
            if a != b {
                return a.cmp(&b);
            }
        }
        self.len.cmp(&other.len)
    }

    /// Returns a copy extended by the bits of `suffix`.
    pub fn concat(&self, suffix: &BitString) -> BitString {
        let mut s = self.clone();
        s.extend(suffix.iter());
        s
    }

    /// Interprets the bitstring as a big-endian integer.
    ///
    /// # Panics
    ///
    /// Panics if the bitstring is longer than 64 bits.
    pub fn to_value(&self) -> u64 {
        assert!(self.len <= 64, "bitstring too long for u64");
        match self.len {
            0 => 0,
            len => self.head >> (64 - len),
        }
    }
}

impl PartialEq for BitString {
    #[inline]
    fn eq(&self, other: &Self) -> bool {
        self.len == other.len
            && self.head == other.head
            && (self.len <= 64 || self.used_tail() == other.used_tail())
    }
}

impl Eq for BitString {}

impl std::hash::Hash for BitString {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.len.hash(state);
        self.head.hash(state);
        if self.len > 64 {
            self.used_tail().hash(state);
        }
    }
}

impl PartialOrd for BitString {
    #[inline]
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for BitString {
    /// Shortlex: length first, then lexicographic (`false < true`).
    ///
    /// `(len, head)` decides every pair unless both strings are longer
    /// than 64 bits and agree on their first word; only then is the tail
    /// read.
    #[inline]
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        match (self.len, self.head).cmp(&(other.len, other.head)) {
            std::cmp::Ordering::Equal if self.len > 64 => self.used_tail().cmp(other.used_tail()),
            order => order,
        }
    }
}

impl fmt::Debug for BitString {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "BitString(\"{self}\")")
    }
}

impl fmt::Display for BitString {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_empty() {
            return write!(f, "ε");
        }
        for b in self.iter() {
            write!(f, "{}", if b { '1' } else { '0' })?;
        }
        Ok(())
    }
}

/// Error returned when parsing a [`BitString`] from text fails.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct ParseBitStringError {
    offset: usize,
}

impl fmt::Display for ParseBitStringError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid bit character at offset {}", self.offset)
    }
}

impl std::error::Error for ParseBitStringError {}

impl FromStr for BitString {
    type Err = ParseBitStringError;

    /// Parses `"0"`/`"1"` characters; `"ε"` and the empty string parse to
    /// the empty bitstring.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        if s == "ε" {
            return Ok(BitString::new());
        }
        let mut bits = BitString::new();
        for (i, c) in s.chars().enumerate() {
            match c {
                '0' => bits.push(false),
                '1' => bits.push(true),
                _ => return Err(ParseBitStringError { offset: i }),
            }
        }
        Ok(bits)
    }
}

impl FromIterator<bool> for BitString {
    fn from_iter<I: IntoIterator<Item = bool>>(iter: I) -> Self {
        BitString::from_bits(iter)
    }
}

impl Extend<bool> for BitString {
    fn extend<I: IntoIterator<Item = bool>>(&mut self, iter: I) {
        for bit in iter {
            self.push(bit);
        }
    }
}

impl Label for BitString {
    fn encode(&self, out: &mut Vec<u8>) {
        (self.len as u64).encode(out);
        // The packed words, MSB first, cut to the bytes that hold bits;
        // the pad bits of the last byte are zero.
        let mut bytes = self.len.div_ceil(8);
        for w in std::iter::once(&self.head).chain(self.used_tail()) {
            let take = bytes.min(8);
            out.extend_from_slice(&w.to_be_bytes()[..take]);
            bytes -= take;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_pop_len() {
        let mut s = BitString::new();
        assert!(s.is_empty());
        s.push(true);
        s.push(false);
        assert_eq!(s.len(), 2);
        assert_eq!(s.get(0), Some(true));
        assert_eq!(s.get(1), Some(false));
        assert_eq!(s.get(2), None);
        assert_eq!(s.pop(), Some(false));
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn shortlex_order() {
        let parse = |s: &str| s.parse::<BitString>().unwrap();
        // length dominates
        assert!(parse("1") < parse("00"));
        // equal length: lexicographic
        assert!(parse("01") < parse("10"));
        assert!(parse("00") < parse("01"));
        // empty string is smallest
        assert!(BitString::new() < parse("0"));
    }

    #[test]
    fn from_value_roundtrip() {
        for v in 0..32u64 {
            let s = BitString::from_value(v, 5);
            assert_eq!(s.len(), 5);
            assert_eq!(s.to_value(), v);
        }
    }

    #[test]
    fn display_parse_roundtrip() {
        for text in ["0", "1", "0110", "111000111"] {
            let s: BitString = text.parse().unwrap();
            assert_eq!(s.to_string(), text);
        }
        assert_eq!(BitString::new().to_string(), "ε");
        assert_eq!("ε".parse::<BitString>().unwrap(), BitString::new());
        assert!("01x".parse::<BitString>().is_err());
    }

    #[test]
    fn prefix_relation() {
        let a: BitString = "01".parse().unwrap();
        let b: BitString = "0110".parse().unwrap();
        assert!(a.is_prefix_of(&b));
        assert!(a.is_prefix_of(&a));
        assert!(!b.is_prefix_of(&a));
        let c: BitString = "10".parse().unwrap();
        assert!(!c.is_prefix_of(&b));
    }

    #[test]
    fn concat_and_truncate() {
        let a: BitString = "01".parse().unwrap();
        let b: BitString = "10".parse().unwrap();
        let mut ab = a.concat(&b);
        assert_eq!(ab.to_string(), "0110");
        ab.truncate(3);
        assert_eq!(ab.to_string(), "011");
        ab.truncate(10);
        assert_eq!(ab.len(), 3);
    }

    #[test]
    fn encode_distinguishes_length() {
        // "0" vs "00": must encode differently even though packed bits agree.
        let mut e1 = Vec::new();
        let mut e2 = Vec::new();
        "0".parse::<BitString>().unwrap().encode(&mut e1);
        "00".parse::<BitString>().unwrap().encode(&mut e2);
        assert_ne!(e1, e2);
    }

    #[test]
    fn encode_is_injective_on_small_strings() {
        use std::collections::HashSet;
        let mut seen = HashSet::new();
        for len in 0..=9usize {
            for v in 0..(1u64 << len) {
                let s = BitString::from_value(v, len);
                let mut e = Vec::new();
                s.encode(&mut e);
                assert!(seen.insert(e), "collision for {s}");
            }
        }
    }
}
