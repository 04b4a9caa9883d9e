//! The content-addressed derandomization cache.
//!
//! The address of every entry is the canonical byte encoding `s(G_*)` of a
//! finite view graph (paper, Section 3.1): the quotient is encoded under
//! its canonical node order, so the key is **isomorphism-invariant** — two
//! 2-hop colored instances whose quotients are isomorphic as labeled
//! graphs produce the *same* key, and therefore share entries. By Lemma 3
//! that covers every pair of lifts of a common base.
//!
//! One table of **assignment entries**, keyed by `(problem-id, s(G_*))`:
//! the minimal successful [`BitAssignment`] of the canonical simulation,
//! with tapes stored **by canonical position** (index `p` holds the tape
//! of the `p`-th node in the canonical order on `V_*`) so they transfer
//! to any isomorphic presentation of the quotient, plus the attempt count
//! and simulation length needed to reproduce the full derandomizer
//! metadata on a hit. The key bytes *are* the serialized `G_*` (node
//! count, labels, adjacency under the canonical order), and by Lemma 3 a
//! lift is determined by its base, so nothing else about the quotient is
//! worth keeping.
//!
//! The table is a [`Mutex`]-guarded hash map. Lock poisoning is
//! deliberately ignored (`into_inner` on poison): a panicking job in a
//! batch must not take the cache down with it, and every value is updated
//! atomically under the lock, so a poisoned state is still consistent.
//!
//! Assignment misses are **single-flight**: the first lookup that misses
//! an address gets a [`SearchClaim`], and concurrent lookups of the same
//! address wait until the claim is released — by the insert of the
//! assignment, or because the holder gave up — instead of repeating the
//! search. The claim owns the address, and the set of live claims holds
//! only a 64-bit digest of it, so a miss holds its key once. Each
//! distinct address therefore counts exactly one miss however the jobs of
//! a batch interleave, so the accounting is as reproducible as the
//! outputs.
//!
//! Optionally, an `anonet-store` [`Store`] (see [`crate::persist`]) sits
//! beneath the table as a durable second tier: memory misses fall through
//! to it (outside the lock), disk hits are promoted into memory, and
//! fresh inserts write through. Store failures never fail a lookup — they
//! count as [`CacheStats::disk_errors`] and the cache runs memory-only.

use std::collections::{HashMap, HashSet};
use std::fmt;
use std::hash::BuildHasher;
use std::sync::{Arc, Condvar, Mutex};

use anonet_graph::BitString;
use anonet_graph::{Label, LabeledGraph};
use anonet_store::{Store, StoreError};
use anonet_views::{canonical_encoding, quotient, FastHash, ViewMode};

use crate::persist;

/// The canonical content address `s(G_*)` of a prime labeled graph (a view
/// quotient). Isomorphism-invariant: equal for isomorphic quotients.
///
/// # Errors
///
/// Propagates [`anonet_views::ViewError::NotDiscrete`] if `q` has repeated
/// views (i.e. is not actually a quotient / prime graph).
pub fn quotient_key<L: Label>(q: &LabeledGraph<L>) -> anonet_views::Result<Vec<u8>> {
    canonical_encoding(q, ViewMode::Portless)
}

/// The content address of a 2-hop colored **instance**: the key of its
/// quotient, `s(G_*)`. Two instances share a key iff their quotients are
/// isomorphic — in particular, all lifts of a common base share one key.
///
/// # Errors
///
/// Propagates quotient-construction errors if `g` is not 2-hop colored.
pub fn instance_key<L: Label>(g: &LabeledGraph<L>) -> anonet_views::Result<Vec<u8>> {
    quotient_key(quotient(g, ViewMode::Portless)?.graph())
}

/// A cached canonical simulation, returned by
/// [`DerandCache::lookup_assignment`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CachedAssignment {
    /// Tapes by canonical position: `tapes[p]` is the tape of the node at
    /// position `p` in the canonical order on `V_*`.
    pub tapes: Vec<BitString>,
    /// Simulations attempted when the entry was first computed.
    pub attempts: usize,
    /// Rounds of the successful canonical simulation.
    pub simulation_rounds: usize,
}

/// Approximate resident size of one assignment entry.
fn assignment_bytes(problem: &str, key: &[u8], cached: &CachedAssignment) -> usize {
    key.len()
        + problem.len()
        + cached.tapes.iter().map(|tape| tape.len().div_ceil(8)).sum::<usize>()
}

#[derive(Debug)]
struct AssignmentEntry {
    cached: CachedAssignment,
    bytes: usize,
    hits: u64,
    last_use: u64,
}

/// A cache address: the problem id and the key bytes `s(G_*)`.
type Address = (String, Vec<u8>);

/// The 64-bit digest that stands for an address in the claim set. Two
/// addresses with one digest only make one lookup wait for the other's
/// claim, so the set need not hold a second copy of the key.
fn digest(address: &Address) -> u64 {
    FastHash::default().hash_one(address)
}

#[derive(Debug, Default)]
struct Tables {
    assignments: HashMap<Address, AssignmentEntry>,
    /// Digests of the addresses held by a live [`SearchClaim`].
    claimed: HashSet<u64, FastHash>,
    assignment_hits: u64,
    assignment_misses: u64,
    evictions: u64,
    disk_hits: u64,
    disk_misses: u64,
    disk_errors: u64,
    clock: u64,
}

/// A point-in-time snapshot of cache accounting.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Distinct `(problem, quotient)` assignments stored.
    pub assignment_entries: usize,
    /// Assignment lookups that found an entry.
    pub assignment_hits: u64,
    /// Assignment lookups that found nothing.
    pub assignment_misses: u64,
    /// Entries dropped to respect the capacity bound.
    pub evictions: u64,
    /// Approximate resident payload size in bytes (keys + tapes).
    pub bytes: usize,
    /// Assignment lookups answered by the persistent tier (each also
    /// counts in [`assignment_hits`](CacheStats::assignment_hits); memory
    /// hits are `assignment_hits - disk_hits`).
    pub disk_hits: u64,
    /// Memory misses the persistent tier also missed.
    pub disk_misses: u64,
    /// Store calls that failed; the cache degraded to memory-only for
    /// that operation.
    pub disk_errors: u64,
}

impl CacheStats {
    /// Assignment-level hit rate in `[0, 1]`; `0` before any lookup.
    pub fn hit_rate(&self) -> f64 {
        let total = self.assignment_hits + self.assignment_misses;
        if total == 0 {
            0.0
        } else {
            self.assignment_hits as f64 / total as f64
        }
    }

    /// The accounting for a window that started at snapshot `before`:
    /// cumulative counters (hits, misses, evictions) are differenced,
    /// resident state (entries, bytes) keeps this snapshot's values.
    ///
    /// # Errors
    ///
    /// [`CounterRegression`] if any cumulative counter in `before` exceeds
    /// this snapshot's value. Cumulative counters are monotone within one
    /// cache lifetime, so a backwards counter means `before` belongs to a
    /// different (stale) lifecycle and the window delta is meaningless.
    pub fn delta_from(&self, before: &CacheStats) -> Result<CacheStats, CounterRegression> {
        fn window(
            counter: &'static str,
            after: u64,
            before: u64,
        ) -> Result<u64, CounterRegression> {
            after.checked_sub(before).ok_or(CounterRegression { counter, before, after })
        }
        Ok(CacheStats {
            assignment_entries: self.assignment_entries,
            bytes: self.bytes,
            assignment_hits: window(
                "assignment_hits",
                self.assignment_hits,
                before.assignment_hits,
            )?,
            assignment_misses: window(
                "assignment_misses",
                self.assignment_misses,
                before.assignment_misses,
            )?,
            evictions: window("evictions", self.evictions, before.evictions)?,
            disk_hits: window("disk_hits", self.disk_hits, before.disk_hits)?,
            disk_misses: window("disk_misses", self.disk_misses, before.disk_misses)?,
            disk_errors: window("disk_errors", self.disk_errors, before.disk_errors)?,
        })
    }

    /// One-line rendering for reports.
    pub fn render(&self) -> String {
        let disk = if self.disk_hits + self.disk_misses + self.disk_errors > 0 {
            format!(
                "; disk hits {} / memory hits {} / disk misses {}, {} disk error(s)",
                self.disk_hits,
                self.assignment_hits - self.disk_hits,
                self.disk_misses,
                self.disk_errors,
            )
        } else {
            String::new()
        };
        format!(
            "cache: {} assignment(s), {} B; \
             assignment hits {} / misses {} (hit rate {:.1}%), {} eviction(s){disk}",
            self.assignment_entries,
            self.bytes,
            self.assignment_hits,
            self.assignment_misses,
            100.0 * self.hit_rate(),
            self.evictions,
        )
    }
}

/// A cumulative counter moved backwards between the `before` snapshot and
/// the current one — the snapshots come from different cache lifecycles
/// (e.g. a baseline taken before the cache was reopened), so no window
/// delta exists. Returned by [`CacheStats::delta_from`] instead of a
/// silently wrapped or saturated difference.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CounterRegression {
    /// Name of the offending counter field.
    pub counter: &'static str,
    /// The counter's value in the `before` snapshot.
    pub before: u64,
    /// The counter's (smaller) value in the current snapshot.
    pub after: u64,
}

impl fmt::Display for CounterRegression {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "cache counter {} went backwards ({} -> {}): stale baseline snapshot",
            self.counter, self.before, self.after
        )
    }
}

impl std::error::Error for CounterRegression {}

/// A claimed assignment miss, from [`DerandCache::lookup_or_claim`]. It
/// owns the address the lookup was given, so a miss holds its key once.
///
/// The holder is the one caller searching this address; concurrent
/// lookups of it wait until the claim is released. Hand the found
/// assignment to [`DerandCache::insert_assignment`], which consumes the
/// claim and releases it after the insert, so the waiters hit it; dropping
/// the claim instead gives up.
#[must_use = "dropping the claim at once lets concurrent lookups search too"]
#[derive(Debug)]
pub struct SearchClaim<'a> {
    cache: &'a DerandCache,
    address: Address,
    digest: u64,
}

impl Drop for SearchClaim<'_> {
    fn drop(&mut self) {
        self.cache.lock().claimed.remove(&self.digest);
        self.cache.released.notify_all();
    }
}

/// Thread-safe, content-addressed store for derandomization artifacts.
///
/// Shared by wrapping in [`std::sync::Arc`]; every method takes `&self`.
///
/// # Example
///
/// ```
/// use anonet_batch::{CachedAssignment, DerandCache};
/// use anonet_graph::generators;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let cache = DerandCache::new();
/// // All lifts of the colored C3 share one content address.
/// let c3 = generators::cycle(3)?.with_labels(vec![1u32, 2, 3])?;
/// let c12 = generators::cycle(12)?
///     .with_labels(vec![1u32, 2, 3, 1, 2, 3, 1, 2, 3, 1, 2, 3])?;
/// let key = anonet_batch::instance_key(&c3)?;
/// assert_eq!(key, anonet_batch::instance_key(&c12)?);
/// let tapes = ["1", "01", "001"].iter().map(|t| t.parse()).collect::<Result<_, _>>()?;
/// let cached = CachedAssignment { tapes, attempts: 4, simulation_rounds: 2 };
/// let claim = cache.lookup_or_claim("mis", key.clone()).unwrap_err(); // a miss
/// cache.insert_assignment(claim, cached.clone());
/// // The C12 lift hits the entry its base stored.
/// assert_eq!(cache.lookup_assignment("mis", &anonet_batch::instance_key(&c12)?), Some(cached));
/// assert_eq!(cache.stats().assignment_entries, 1);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Default)]
pub struct DerandCache {
    tables: Mutex<Tables>,
    /// Signalled whenever a [`SearchClaim`] is released.
    released: Condvar,
    max_entries: Option<usize>,
    store: Option<Arc<Store>>,
}

impl DerandCache {
    /// An unbounded cache.
    pub fn new() -> Self {
        DerandCache::default()
    }

    /// A cache evicting least-recently-used entries beyond `max_entries`.
    pub fn with_capacity(max_entries: usize) -> Self {
        DerandCache { max_entries: Some(max_entries), ..DerandCache::default() }
    }

    /// Layers a durable [`Store`] beneath the memory table (built by
    /// [`crate::PersistentDerandCache`]). Capacity eviction only drops the
    /// memory copy — the disk tier keeps evicted entries.
    pub(crate) fn with_store(mut self, store: Arc<Store>) -> Self {
        self.store = Some(store);
        self
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Tables> {
        // A job that panicked mid-batch must not poison the whole cache;
        // all updates are atomic under the lock, so the state is sound.
        self.tables.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    /// Looks up the canonical simulation for `problem` on the quotient
    /// addressed by `key`: [`DerandCache::lookup_or_claim`] on a copy of
    /// the key, without keeping the claim on a miss.
    pub fn lookup_assignment(&self, problem: &str, key: &[u8]) -> Option<CachedAssignment> {
        self.lookup_or_claim(problem, key.to_vec()).ok()
    }

    /// Looks up the canonical simulation for `problem` on the quotient
    /// addressed by `key`. Clones the entry out so the lock is held only
    /// briefly. The key is moved into the address, and on a miss into the
    /// claim: no copy of it is made.
    ///
    /// A miss returns a [`SearchClaim`] on the address: the caller
    /// searches and hands what it finds to
    /// [`DerandCache::insert_assignment`], which releases the claim, or
    /// drops the claim to give up. While the claim lives, lookups of the
    /// same address from other threads wait, and then hit the inserted
    /// entry (or, if the holder gave up, one of them claims the address in
    /// turn).
    ///
    /// Memory answers first; with a store attached, a memory miss falls
    /// through to the disk tier (outside the lock), and a disk hit is
    /// promoted into memory so it pays the read once per process. A
    /// store error counts as a miss plus a
    /// [`disk_errors`](CacheStats::disk_errors) tick — persistence never
    /// fails a lookup.
    ///
    /// # Errors
    ///
    /// `Err` is the claim of a miss, not a failure.
    pub fn lookup_or_claim(
        &self,
        problem: &str,
        key: Vec<u8>,
    ) -> Result<CachedAssignment, SearchClaim<'_>> {
        let address = (problem.to_string(), key);
        let digest = digest(&address);
        {
            let mut t = self.lock();
            while t.claimed.contains(&digest) {
                t = self.released.wait(t).unwrap_or_else(|poisoned| poisoned.into_inner());
            }
            t.clock += 1;
            let now = t.clock;
            if let Some(entry) = t.assignments.get_mut(&address) {
                entry.hits += 1;
                entry.last_use = now;
                let cached = entry.cached.clone();
                t.assignment_hits += 1;
                return Ok(cached);
            }
            t.claimed.insert(digest);
            if self.store.is_none() {
                t.assignment_misses += 1;
            }
        }
        let mut claim = SearchClaim { cache: self, address, digest };
        let Some(store) = &self.store else { return Err(claim) };
        match persist::load_assignment(store, problem, &claim.address.1) {
            Ok(Some(cached)) => {
                let bytes = assignment_bytes(problem, &claim.address.1, &cached);
                let address = std::mem::take(&mut claim.address);
                let mut t = self.lock();
                t.clock += 1;
                let now = t.clock;
                t.assignment_hits += 1;
                t.disk_hits += 1;
                // or_insert: a warm scan may have loaded the entry.
                t.assignments.entry(address).or_insert(AssignmentEntry {
                    cached: cached.clone(),
                    bytes,
                    hits: 0,
                    last_use: now,
                });
                self.enforce_capacity(&mut t);
                Ok(cached)
            }
            Ok(None) => {
                let mut t = self.lock();
                t.assignment_misses += 1;
                t.disk_misses += 1;
                Err(claim)
            }
            Err(_) => {
                let mut t = self.lock();
                t.assignment_misses += 1;
                t.disk_errors += 1;
                Err(claim)
            }
        }
    }

    /// Stores the canonical simulation found for the address of `claim`,
    /// moving the claim's address into the table, then releases the
    /// claim. Tapes must be in canonical-position order. First write wins:
    /// an entry a warm scan loaded meanwhile is kept (both are the same
    /// canonical object, so this only stabilizes the per-entry hit
    /// counters). A fresh insert writes through to the store, if one is
    /// attached, before it enters memory.
    pub fn insert_assignment(&self, mut claim: SearchClaim<'_>, cached: CachedAssignment) {
        let (problem, key) = &claim.address;
        let bytes = assignment_bytes(problem, key, &cached);
        if let Some(store) = &self.store {
            let fresh = !self.lock().assignments.contains_key(&claim.address);
            if fresh && persist::store_assignment(store, problem, key, &cached).is_err() {
                self.lock().disk_errors += 1;
            }
        }
        let address = std::mem::take(&mut claim.address);
        {
            let mut t = self.lock();
            t.clock += 1;
            let now = t.clock;
            let entry = AssignmentEntry { cached, bytes, hits: 0, last_use: now };
            t.assignments.entry(address).or_insert(entry);
            self.enforce_capacity(&mut t);
        }
        drop(claim);
    }

    /// Preloads up to `limit` entries from the store into the memory
    /// table (no-op without a store). Hit/miss counters are untouched;
    /// already-resident entries keep their memory copy. Returns the
    /// number of entries loaded.
    ///
    /// # Errors
    ///
    /// Store read errors (nothing is loaded on error).
    pub fn warm(&self, limit: usize) -> Result<usize, StoreError> {
        let Some(store) = &self.store else { return Ok(0) };
        let entries = persist::warm_scan(store, limit)?;
        let mut t = self.lock();
        let mut loaded = 0;
        for (problem, key, cached) in entries {
            t.clock += 1;
            let now = t.clock;
            let bytes = assignment_bytes(&problem, &key, &cached);
            t.assignments.entry((problem, key)).or_insert_with(|| {
                loaded += 1;
                AssignmentEntry { cached, bytes, hits: 0, last_use: now }
            });
        }
        self.enforce_capacity(&mut t);
        Ok(loaded)
    }

    /// Drops everything, keeping cumulative hit/miss counters.
    pub fn clear(&self) {
        self.lock().assignments.clear();
    }

    /// Resident entries.
    pub fn len(&self) -> usize {
        self.lock().assignments.len()
    }

    /// `true` if no entries are resident.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// A snapshot of the accounting counters.
    pub fn stats(&self) -> CacheStats {
        let t = self.lock();
        CacheStats {
            assignment_entries: t.assignments.len(),
            assignment_hits: t.assignment_hits,
            assignment_misses: t.assignment_misses,
            evictions: t.evictions,
            disk_hits: t.disk_hits,
            disk_misses: t.disk_misses,
            disk_errors: t.disk_errors,
            bytes: t.assignments.values().map(|e| e.bytes).sum(),
        }
    }

    /// Per-entry accounting for the assignment table: `(problem, s(G_*)
    /// key, hits, bytes)`, sorted for deterministic output.
    pub fn assignment_accounting(&self) -> Vec<(String, Vec<u8>, u64, usize)> {
        let t = self.lock();
        let mut rows: Vec<_> = t
            .assignments
            .iter()
            .map(|((p, k), e)| (p.clone(), k.clone(), e.hits, e.bytes))
            .collect();
        rows.sort();
        rows
    }

    fn enforce_capacity(&self, t: &mut Tables) {
        let Some(max) = self.max_entries else { return };
        while t.assignments.len() > max {
            let Some(oldest) =
                t.assignments.iter().min_by_key(|(_, e)| e.last_use).map(|(k, _)| k.clone())
            else {
                return;
            };
            t.assignments.remove(&oldest);
            t.evictions += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use anonet_graph::generators;

    fn colored_cycle(n: usize) -> LabeledGraph<u32> {
        let labels: Vec<u32> = (0..n).map(|i| (i % 3) as u32 + 1).collect();
        generators::cycle(n).unwrap().with_labels(labels).unwrap()
    }

    fn tape(bits: &str) -> BitString {
        bits.parse().unwrap()
    }

    /// Claims the miss at `(problem, key)` and inserts `cached` there.
    fn fill(cache: &DerandCache, problem: &str, key: &[u8], cached: CachedAssignment) {
        let claim = cache.lookup_or_claim(problem, key.to_vec()).unwrap_err();
        cache.insert_assignment(claim, cached);
    }

    #[test]
    fn lifts_share_an_address() {
        let keys: Vec<Vec<u8>> =
            [3usize, 6, 9, 12].iter().map(|&n| instance_key(&colored_cycle(n)).unwrap()).collect();
        assert!(keys.windows(2).all(|w| w[0] == w[1]));
    }

    #[test]
    fn different_bases_have_different_addresses() {
        let c3 = instance_key(&colored_cycle(3)).unwrap();
        let c4 =
            instance_key(&generators::cycle(4).unwrap().with_labels(vec![1u32, 2, 3, 4]).unwrap())
                .unwrap();
        assert_ne!(c3, c4);
    }

    #[test]
    fn assignment_roundtrip_and_accounting() {
        let cache = DerandCache::new();
        let key = instance_key(&colored_cycle(6)).unwrap();
        let cached = CachedAssignment {
            tapes: vec![tape("101"), tape("011"), tape("000")],
            attempts: 7,
            simulation_rounds: 4,
        };
        fill(&cache, "mis", &key, cached.clone());
        assert_eq!(cache.lookup_assignment("mis", &key), Some(cached));
        // Different problem id: separate entry space.
        assert_eq!(cache.lookup_assignment("coloring", &key), None);
        let s = cache.stats();
        assert_eq!(s.assignment_entries, 1);
        assert_eq!(s.assignment_hits, 1);
        assert_eq!(s.assignment_misses, 2);
        assert!(s.bytes > key.len());
        assert!((s.hit_rate() - 1.0 / 3.0).abs() < 1e-12);
        let rows = cache.assignment_accounting();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].0, "mis");
        assert_eq!(rows[0].2, 1); // one per-entry hit
    }

    #[test]
    fn an_inserted_address_is_never_claimed_again() {
        let cache = DerandCache::new();
        let key = instance_key(&colored_cycle(3)).unwrap();
        let first = CachedAssignment { tapes: vec![tape("1")], attempts: 1, simulation_rounds: 1 };
        fill(&cache, "p", &key, first.clone());
        // The next lookup hits: no second claim, so no second insert.
        assert_eq!(cache.lookup_or_claim("p", key.clone()).ok(), Some(first));
        let s = cache.stats();
        assert_eq!((s.assignment_entries, s.assignment_misses, s.assignment_hits), (1, 1, 1));
    }

    #[test]
    fn capacity_evicts_lru() {
        let cache = DerandCache::with_capacity(2);
        let a = CachedAssignment { tapes: vec![tape("1")], attempts: 1, simulation_rounds: 1 };
        fill(&cache, "p", b"k1", a.clone());
        fill(&cache, "p", b"k2", a.clone());
        // Touch k1 so k2 is the LRU entry.
        assert!(cache.lookup_assignment("p", b"k1").is_some());
        fill(&cache, "p", b"k3", a.clone());
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.stats().evictions, 1);
        assert!(cache.lookup_assignment("p", b"k2").is_none());
        assert!(cache.lookup_assignment("p", b"k1").is_some());
        assert!(cache.lookup_assignment("p", b"k3").is_some());
    }

    #[test]
    fn clear_keeps_counters() {
        let cache = DerandCache::new();
        let a = CachedAssignment { tapes: vec![tape("1")], attempts: 1, simulation_rounds: 1 };
        fill(&cache, "p", b"k", a);
        assert!(cache.lookup_assignment("p", b"k").is_some());
        cache.clear();
        assert!(cache.is_empty());
        assert_eq!(cache.stats().assignment_hits, 1);
    }

    #[test]
    fn concurrent_use_is_consistent() {
        use std::sync::Arc;
        let cache = Arc::new(DerandCache::new());
        let key = instance_key(&colored_cycle(12)).unwrap();
        std::thread::scope(|scope| {
            for _ in 0..8 {
                let cache = Arc::clone(&cache);
                let key = key.clone();
                scope.spawn(move || {
                    for i in 0..50 {
                        if let Err(claim) = cache.lookup_or_claim("mis", key.clone()) {
                            cache.insert_assignment(
                                claim,
                                CachedAssignment {
                                    tapes: vec![tape("101"), tape("011"), tape("000")],
                                    attempts: 3,
                                    simulation_rounds: i + 1,
                                },
                            );
                        }
                    }
                });
            }
        });
        let s = cache.stats();
        assert_eq!(s.assignment_entries, 1);
        assert_eq!(s.assignment_hits + s.assignment_misses, 400);
        // Whoever inserted first won; the entry is internally consistent.
        let got = cache.lookup_assignment("mis", &key).unwrap();
        assert_eq!(got.tapes.len(), 3);
        assert_eq!(got.attempts, 3);
    }

    #[test]
    fn concurrent_misses_on_one_address_search_once() {
        let cache = DerandCache::new();
        let claim = cache.lookup_or_claim("mis", b"k".to_vec()).unwrap_err();
        std::thread::scope(|scope| {
            // Whether a waiter looks up before or after the insert, it
            // must hit: while the claim lives it waits for the holder.
            let waiters: Vec<_> = (0..4)
                .map(|_| scope.spawn(|| cache.lookup_or_claim("mis", b"k".to_vec()).ok()))
                .collect();
            cache.insert_assignment(
                claim,
                CachedAssignment { tapes: vec![tape("1")], attempts: 1, simulation_rounds: 1 },
            );
            for w in waiters {
                assert!(w.join().unwrap().is_some());
            }
        });
        let s = cache.stats();
        assert_eq!((s.assignment_misses, s.assignment_hits), (1, 4));
    }

    #[test]
    fn an_abandoned_claim_passes_to_the_next_lookup() {
        let cache = DerandCache::new();
        let claim = cache.lookup_or_claim("mis", b"k".to_vec()).unwrap_err();
        std::thread::scope(|scope| {
            let next = scope.spawn(|| cache.lookup_or_claim("mis", b"k".to_vec()).is_err());
            drop(claim); // the holder's search failed: nothing inserted
            assert!(next.join().unwrap());
        });
        assert_eq!(cache.stats().assignment_misses, 2);
        assert!(cache.lookup_assignment("mis", b"k").is_none(), "no claim outlives its holder");
    }

    #[test]
    fn delta_from_rejects_backwards_counters() {
        let after =
            CacheStats { assignment_hits: 5, assignment_misses: 2, ..CacheStats::default() };
        // A snapshot from a previous cache lifecycle.
        let stale = CacheStats { assignment_hits: 9, ..CacheStats::default() };
        let err = after.delta_from(&stale).unwrap_err();
        assert_eq!(err.counter, "assignment_hits");
        assert_eq!(err.before, 9);
        assert_eq!(err.after, 5);
        assert!(err.to_string().contains("assignment_hits"));
        assert!(err.to_string().contains("stale"));

        // The monotone window still diffs cleanly.
        let before =
            CacheStats { assignment_hits: 2, assignment_misses: 1, ..CacheStats::default() };
        let delta = after.delta_from(&before).unwrap();
        assert_eq!(delta.assignment_hits, 3);
        assert_eq!(delta.assignment_misses, 1);
        // Identity window: every cumulative counter is zero.
        let zero = after.delta_from(&after).unwrap();
        assert_eq!(zero.assignment_hits, 0);
        assert_eq!(zero.assignment_misses, 0);
        assert_eq!(zero.evictions, 0);
    }
}
