//! Persistence for the derandomization cache: the assignment records
//! the disk tier holds, and the [`PersistentDerandCache`] bundle that
//! batch runs and pipelines plug in wherever an `Arc<DerandCache>` goes
//! today.
//!
//! The layering is strictly memory-first: [`DerandCache`] answers every
//! lookup it can from its table, and only on a memory miss reads the
//! store (outside the cache lock — the store shards have their own
//! locks). A disk hit is promoted into memory, so a key pays the disk
//! read once per process; fresh inserts write through, so the disk tier
//! only ever grows (first write wins on both tiers — every writer
//! computes the same canonical object). Store *errors* degrade
//! gracefully: the lookup is simply a miss, counted in
//! [`CacheStats::disk_errors`](crate::CacheStats), and the run proceeds
//! memory-only — persistence must never turn a working pipeline into a
//! failing one.
//!
//! On-disk layout: namespace 1 of one store holds the assignment
//! records, key `s(G_*) problem_bytes qkey_len:u32le` (self-delimiting
//! from the end; the first byte stays the quotient's, so one quotient's
//! assignments share a shard), value = the serialized
//! [`CachedAssignment`]. Namespace 0 held quotient sightings in earlier
//! stores; nothing reads it, so such stores open and warm unchanged and
//! their namespace-0 records are never served.

use std::path::Path;
use std::sync::Arc;

use anonet_graph::BitString;
use anonet_obs::Json;
use anonet_store::{Store, StoreConfig, StoreError, StoreStats};

use crate::cache::{CacheStats, CachedAssignment, DerandCache};
use crate::scheduler::BatchScheduler;

/// Store namespace for assignment records.
const NS_ASSIGNMENT: u8 = 1;

/// One assignment streamed out of the store by [`warm_scan`]:
/// `(problem, s(G_*), cached)`.
pub(crate) type WarmEntry = (String, Vec<u8>, CachedAssignment);

// ---------------------------------------------------------------------
// Record codecs (plain little-endian framing, like the store's own).

fn push_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn read_u64(bytes: &[u8], at: &mut usize) -> Result<u64, StoreError> {
    let end = at.checked_add(8).filter(|&e| e <= bytes.len()).ok_or_else(|| {
        StoreError::codec(format!("u64 field at {at} overruns {} byte value", bytes.len()))
    })?;
    let mut buf = [0u8; 8];
    buf.copy_from_slice(&bytes[*at..end]);
    *at = end;
    Ok(u64::from_le_bytes(buf))
}

fn encode_assignment(cached: &CachedAssignment) -> Vec<u8> {
    let mut out = Vec::new();
    push_u64(&mut out, cached.attempts as u64);
    push_u64(&mut out, cached.simulation_rounds as u64);
    push_u64(&mut out, cached.tapes.len() as u64);
    for tape in &cached.tapes {
        push_u64(&mut out, tape.len() as u64);
        let mut byte = 0u8;
        let mut filled = 0u8;
        for bit in tape.iter() {
            byte |= u8::from(bit) << filled;
            filled += 1;
            if filled == 8 {
                out.push(byte);
                byte = 0;
                filled = 0;
            }
        }
        if filled > 0 {
            out.push(byte);
        }
    }
    out
}

fn decode_assignment(bytes: &[u8]) -> Result<CachedAssignment, StoreError> {
    let mut at = 0;
    let attempts = read_u64(bytes, &mut at)? as usize;
    let simulation_rounds = read_u64(bytes, &mut at)? as usize;
    let tape_count = read_u64(bytes, &mut at)? as usize;
    let mut tapes = Vec::with_capacity(tape_count.min(1 << 16));
    for t in 0..tape_count {
        let bit_len = read_u64(bytes, &mut at)? as usize;
        let byte_len = bit_len.div_ceil(8);
        let end = at.checked_add(byte_len).filter(|&e| e <= bytes.len()).ok_or_else(|| {
            StoreError::codec(format!("tape {t} of {bit_len} bits overruns the value"))
        })?;
        let packed = &bytes[at..end];
        at = end;
        tapes.push(BitString::from_bits((0..bit_len).map(|i| packed[i / 8] >> (i % 8) & 1 == 1)));
    }
    if at != bytes.len() {
        return Err(StoreError::codec(format!(
            "assignment value has {} trailing bytes",
            bytes.len() - at
        )));
    }
    Ok(CachedAssignment { tapes, attempts, simulation_rounds })
}

/// The on-disk assignment key: `qkey ++ problem ++ qkey_len:u32le`.
/// Self-delimiting from the end, and its first byte is the quotient
/// key's, so assignments shard with their quotients.
fn assignment_disk_key(problem: &str, qkey: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(qkey.len() + problem.len() + 4);
    out.extend_from_slice(qkey);
    out.extend_from_slice(problem.as_bytes());
    out.extend_from_slice(&(qkey.len() as u32).to_le_bytes());
    out
}

fn split_assignment_disk_key(key: &[u8]) -> Result<(String, Vec<u8>), StoreError> {
    if key.len() < 4 {
        return Err(StoreError::codec("assignment key shorter than its length suffix"));
    }
    let mut len_buf = [0u8; 4];
    len_buf.copy_from_slice(&key[key.len() - 4..]);
    let qlen = u32::from_le_bytes(len_buf) as usize;
    let body = &key[..key.len() - 4];
    if qlen > body.len() {
        return Err(StoreError::codec(format!(
            "assignment key claims a {qlen} byte quotient but holds {}",
            body.len()
        )));
    }
    let problem = String::from_utf8(body[qlen..].to_vec())
        .map_err(|_| StoreError::codec("assignment key problem id is not UTF-8"))?;
    Ok((problem, body[..qlen].to_vec()))
}

/// Loads the assignment for `(problem, key)`, if the store holds one.
pub(crate) fn load_assignment(
    store: &Store,
    problem: &str,
    key: &[u8],
) -> Result<Option<CachedAssignment>, StoreError> {
    match store.get(NS_ASSIGNMENT, &assignment_disk_key(problem, key))? {
        Some(value) => Ok(Some(decode_assignment(&value)?)),
        None => Ok(None),
    }
}

/// Durably stores the assignment for `(problem, key)`.
pub(crate) fn store_assignment(
    store: &Store,
    problem: &str,
    key: &[u8],
    cached: &CachedAssignment,
) -> Result<(), StoreError> {
    store.put(NS_ASSIGNMENT, &assignment_disk_key(problem, key), &encode_assignment(cached))
}

/// Streams up to `limit` assignments (hottest first) for preloading a
/// fresh process's memory tier.
pub(crate) fn warm_scan(store: &Store, limit: usize) -> Result<Vec<WarmEntry>, StoreError> {
    let mut out = Vec::new();
    for (key, value) in store.warm_scan(NS_ASSIGNMENT, limit)? {
        let (problem, qkey) = split_assignment_disk_key(&key)?;
        out.push((problem, qkey, decode_assignment(&value)?));
    }
    Ok(out)
}

/// A [`DerandCache`] layered over a persistent [`Store`]: the drop-in
/// way to make `Derandomizer::with_cache`, `run_pipeline_cached`, and
/// the batch entry points survive process restarts.
///
/// # Example
///
/// ```
/// use anonet_batch::{CachedAssignment, PersistentDerandCache};
///
/// # fn main() -> Result<(), anonet_store::StoreError> {
/// let dir = std::env::temp_dir().join(format!("anonet-pdc-doc-{}", std::process::id()));
/// # let _ = std::fs::remove_dir_all(&dir);
/// let tapes = vec!["101".parse().unwrap()];
/// let cached = CachedAssignment { tapes, attempts: 2, simulation_rounds: 3 };
/// {
///     // First process: a miss, computed, written through to disk.
///     let pdc = PersistentDerandCache::open(&dir)?;
///     let claim = pdc.cache().lookup_or_claim("mis", b"qkey".to_vec()).unwrap_err();
///     pdc.cache().insert_assignment(claim, cached.clone());
///     pdc.flush()?;
/// }
/// // Second process: warm-started, the lookup is a disk-backed hit.
/// let pdc = PersistentDerandCache::open(&dir)?;
/// pdc.warm(1024)?;
/// assert_eq!(pdc.cache().lookup_assignment("mis", b"qkey"), Some(cached));
/// assert_eq!(pdc.cache().stats().assignment_hits, 1);
/// # std::fs::remove_dir_all(&dir).ok();
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct PersistentDerandCache {
    cache: Arc<DerandCache>,
    store: Arc<Store>,
}

impl PersistentDerandCache {
    /// Opens (or creates) the store at `dir` with default config and
    /// layers an unbounded memory cache over it.
    ///
    /// # Errors
    ///
    /// Store open/recovery errors.
    pub fn open(dir: impl AsRef<Path>) -> Result<Self, StoreError> {
        Self::open_with(StoreConfig::new(dir.as_ref()), None)
    }

    /// Opens with an explicit [`StoreConfig`] and an optional memory-tier
    /// entry capacity (the disk tier keeps evicted entries).
    ///
    /// # Errors
    ///
    /// Store open/recovery errors.
    pub fn open_with(cfg: StoreConfig, max_entries: Option<usize>) -> Result<Self, StoreError> {
        let store = Arc::new(Store::open(cfg)?);
        let cache = match max_entries {
            Some(max) => DerandCache::with_capacity(max),
            None => DerandCache::new(),
        };
        let cache = Arc::new(cache.with_store(Arc::clone(&store)));
        Ok(PersistentDerandCache { cache, store })
    }

    /// The layered cache — pass this wherever an `Arc<DerandCache>` goes
    /// (`Derandomizer::with_cache`, `pipeline_batch`, ...).
    pub fn cache(&self) -> &Arc<DerandCache> {
        &self.cache
    }

    /// Preloads up to `limit` hot disk entries into the memory tier.
    /// Returns how many entries were loaded.
    ///
    /// # Errors
    ///
    /// Store read errors (nothing is partially visible on error beyond
    /// the entries already promoted).
    pub fn warm(&self, limit: usize) -> Result<usize, StoreError> {
        self.cache.warm(limit)
    }

    /// Flushes the disk tier.
    ///
    /// # Errors
    ///
    /// Store I/O.
    pub fn flush(&self) -> Result<(), StoreError> {
        self.store.flush()
    }

    /// Compacts every shard sequentially; returns bytes reclaimed.
    ///
    /// # Errors
    ///
    /// The first shard failure.
    pub fn compact(&self) -> Result<u64, StoreError> {
        self.store.compact()
    }

    /// Compacts all shards concurrently on `scheduler` (shards lock
    /// independently, so this parallelizes cleanly). Returns total bytes
    /// reclaimed.
    ///
    /// # Errors
    ///
    /// The first shard failure (other shards still complete).
    pub fn compact_with(&self, scheduler: &BatchScheduler) -> Result<u64, StoreError> {
        let shards: Vec<usize> = (0..self.store.shard_count()).collect();
        let outcome = scheduler.run(&shards, |_, &s| self.store.compact_shard(s));
        let mut reclaimed = 0;
        let mut first_err: Option<String> = None;
        for result in &outcome.results {
            match result.ok() {
                Some(bytes) => reclaimed += *bytes,
                None => {
                    if first_err.is_none() {
                        first_err = Some(format!("{result:?}"));
                    }
                }
            }
        }
        match first_err {
            None => Ok(reclaimed),
            Some(detail) => Err(StoreError::codec(format!("shard compaction failed: {detail}"))),
        }
    }

    /// Disk-tier accounting.
    pub fn store_stats(&self) -> StoreStats {
        self.store.stats()
    }

    /// Memory-tier accounting (includes the `disk_*` counters).
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }

    /// The store's JSON report (shared `anonet_obs::Json` serializer).
    pub fn report_json(&self) -> Json {
        self.store.report_json()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> std::path::PathBuf {
        let dir =
            std::env::temp_dir().join(format!("anonet-persist-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn tape(bits: &str) -> BitString {
        bits.parse().unwrap()
    }

    fn sample() -> CachedAssignment {
        CachedAssignment {
            tapes: vec![tape("1011001"), tape(""), tape("111111110000000011")],
            attempts: 41,
            simulation_rounds: 9,
        }
    }

    #[test]
    fn assignment_codec_roundtrips() {
        let cached = sample();
        assert_eq!(decode_assignment(&encode_assignment(&cached)).unwrap(), cached);
        let empty = CachedAssignment { tapes: vec![], attempts: 0, simulation_rounds: 0 };
        assert_eq!(decode_assignment(&encode_assignment(&empty)).unwrap(), empty);
    }

    #[test]
    fn assignment_codec_rejects_malformed() {
        assert!(decode_assignment(&[1, 2, 3]).is_err());
        let mut good = encode_assignment(&sample());
        good.push(0); // trailing byte
        assert!(decode_assignment(&good).is_err());
        let mut huge = Vec::new();
        push_u64(&mut huge, 1);
        push_u64(&mut huge, 1);
        push_u64(&mut huge, 1);
        push_u64(&mut huge, u64::MAX); // impossible tape length
        assert!(decode_assignment(&huge).is_err());
    }

    #[test]
    fn disk_key_roundtrips_and_shards_with_quotient() {
        let qkey = vec![0xAB, 1, 2, 3];
        let dk = assignment_disk_key("mis|Fair|r64", &qkey);
        assert_eq!(dk[0], 0xAB); // first byte preserved for sharding
        let (problem, back) = split_assignment_disk_key(&dk).unwrap();
        assert_eq!(problem, "mis|Fair|r64");
        assert_eq!(back, qkey);
        assert!(split_assignment_disk_key(&[1, 2]).is_err());
    }

    #[test]
    fn records_roundtrip_through_a_real_store() {
        let dir = tmp("records");
        let store = Store::open(StoreConfig::new(&dir)).unwrap();
        let cached = sample();
        store_assignment(&store, "p", b"qk", &cached).unwrap();
        assert_eq!(load_assignment(&store, "p", b"qk").unwrap(), Some(cached.clone()));
        assert_eq!(load_assignment(&store, "other", b"qk").unwrap(), None);
        assert_eq!(warm_scan(&store, 16).unwrap(), vec![("p".to_string(), b"qk".to_vec(), cached)]);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_store_with_legacy_quotient_records_still_warms() {
        // Earlier stores also wrote a 16-byte quotient sighting
        // (`nodes:u64le multiplicity:u64le`) under namespace 0.
        let dir = tmp("legacy");
        let cached = sample();
        {
            let store = Store::open(StoreConfig::new(&dir)).unwrap();
            store.put(0, b"qk", &[3, 0, 0, 0, 0, 0, 0, 0, 2, 0, 0, 0, 0, 0, 0, 0]).unwrap();
            store_assignment(&store, "mis", b"qk", &cached).unwrap();
            store.flush().unwrap();
        }
        let pdc = PersistentDerandCache::open(&dir).unwrap();
        assert_eq!(pdc.store_stats().live_records, 2);
        assert_eq!(pdc.warm(1024).unwrap(), 1, "only the assignment is loaded");
        assert_eq!(pdc.cache().len(), 1);
        assert_eq!(pdc.cache().lookup_assignment("mis", b"qk"), Some(cached));
        let stats = pdc.cache_stats();
        assert_eq!((stats.assignment_hits, stats.disk_hits, stats.disk_errors), (1, 0, 0));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn persistent_cache_survives_reopen_and_warms() {
        let dir = tmp("pdc");
        let cached = sample();
        {
            let pdc = PersistentDerandCache::open(&dir).unwrap();
            let claim = pdc.cache().lookup_or_claim("mis", b"qk".to_vec()).unwrap_err();
            pdc.cache().insert_assignment(claim, cached.clone());
            pdc.flush().unwrap();
            let stats = pdc.cache_stats();
            assert_eq!(stats.disk_misses, 1);
            assert_eq!(stats.disk_hits, 0);
        }
        // Fresh process, cold memory: the disk tier answers.
        let pdc = PersistentDerandCache::open(&dir).unwrap();
        assert_eq!(pdc.cache().lookup_assignment("mis", b"qk"), Some(cached.clone()));
        let stats = pdc.cache_stats();
        assert_eq!(stats.disk_hits, 1);
        assert_eq!(stats.assignment_hits, 1);
        // Promoted: the second lookup is memory-only.
        assert_eq!(pdc.cache().lookup_assignment("mis", b"qk"), Some(cached.clone()));
        assert_eq!(pdc.cache_stats().disk_hits, 1);
        assert_eq!(pdc.cache_stats().assignment_hits, 2);

        // warm() preloads without touching hit counters.
        let pdc2 = PersistentDerandCache::open(&dir).unwrap();
        let loaded = pdc2.warm(1024).unwrap();
        assert_eq!(loaded, 1);
        let before = pdc2.cache_stats();
        assert_eq!(before.assignment_hits + before.assignment_misses, 0);
        assert_eq!(pdc2.cache().lookup_assignment("mis", b"qk"), Some(cached));
        let after = pdc2.cache_stats();
        assert_eq!(after.disk_hits, 0); // served from warmed memory
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn compact_with_scheduler_reclaims() {
        let dir = tmp("compact");
        let cfg = StoreConfig::new(&dir).with_shards(4).with_segment_bytes(256);
        let pdc = PersistentDerandCache::open_with(cfg, None).unwrap();
        for round in 0..20usize {
            // Same keys every round: 19/20 of the frames are dead.
            for k in 0..8u8 {
                let cached = CachedAssignment {
                    tapes: vec![tape("1010")],
                    attempts: round,
                    simulation_rounds: 1,
                };
                // Bypass first-write-wins by writing the store directly.
                store_assignment(&pdc.store, "p", &[k], &cached).unwrap();
            }
        }
        let before = pdc.store_stats();
        assert!(before.dead_bytes > 0);
        let reclaimed = pdc.compact_with(&BatchScheduler::with_threads(4)).unwrap();
        assert!(reclaimed > 0);
        assert_eq!(pdc.store_stats().dead_bytes, 0);
        assert_eq!(load_assignment(&pdc.store, "p", &[3]).unwrap().unwrap().attempts, 19);
        std::fs::remove_dir_all(&dir).ok();
    }
}
