//! Memoized candidate pools and C2 selection indexes for `A_*`.
//!
//! The faithful driver in [`crate::astar`] is dominated by `Update-Graph`:
//! the reference path rebuilds the candidate pool, re-checks C3, and
//! re-quotients every candidate *per node per phase*, although the pool is
//! a pure function of `(p_capped, universe)` — the capped candidate size
//! and the label universe visible in the node's view. Nodes in the same
//! color class share their universe exactly, so on the bench workloads the
//! same pool is rebuilt `Θ(n)` times per phase.
//!
//! [`AstarCache`] works in three layers, the last two memoized:
//!
//! * **Universes** — each phase gives every distinct label of `I^p` a
//!   dense id in sorted label order and builds each node's label set as a
//!   `⌈L/64⌉`-word bitset in `radius` OR-sweeps over the graph,
//!   `U_r(v) = {ℓ(v)} ∪ ⋃_{u∈N(v)} U_{r−1}(u)`, which is the label set of
//!   `distance::ball(g, v, r)`. The bitsets are interned, and only each
//!   distinct one becomes a sorted universe with its encoding and pool key
//!   ([`AstarCache::phase_universes`]): the nodes of a fibre of a lift
//!   share it;
//! * **Pools** — keyed by `(p_capped, Sym(universe encoding))`, a pool
//!   entry stores every candidate that passes the node-independent gates
//!   (2-hop coloring, C3 instance check). The pool is enumerated by
//!   [`two_hop_colored_pool`], which never builds the labelings that fail
//!   the 2-hop gate and keeps one candidate per labeled-isomorphism class,
//!   the first in pool order: isomorphic candidates have the same views
//!   and tie on every gate and on the order, so the first of the class is
//!   the only one a C2 index could select (the argument is in
//!   [`two_hop_colored_pool`]'s docs). A candidate borrows its shape and
//!   keeps only its nodes' universe indexes; its marks are the universe
//!   entries' interned encodings, C3 is decided once per shape and
//!   input-label ids, and a [`LabeledGraph`] is built only for a
//!   candidate an index quotients or an error names;
//! * **Selection indexes** — per *view depth* `p`, a hash map from a
//!   depth-`p` view id to the minimal matching candidate's quotient and
//!   its matched node `v̂`, turning the reference's
//!   `O(|pool| · |candidate|)` C2 scan into one hash lookup per node.
//!   Quotients and the `(|V̂_*|, s(Ĝ_*))` ordering data are built only
//!   when an index needs them: the order on a candidate's first index
//!   collision, the quotient for each candidate an index entry names.
//!
//! **Layered view ids.** C2 asks only whether two depth-`p` views are
//! equal, never for their bytes, so views are compared through the
//! hash-consed layered ids of [`ViewIds`], computed in `p` sweeps over a
//! graph instead of one `Δ^p`-vertex tree per node. The **instance
//! interns**: [`AstarCache::view_ids`] sweeps it once per phase, interning
//! every key of every layer, and returns the [`PhaseViews`] that
//! [`AstarCache::ensure_pool`] requires, so no index of a phase is built
//! before that phase's instance ids exist. Candidates only **look up**
//! ([`ViewIds::lookup`]): a candidate node whose key misses has a view no
//! instance node has, and registers nothing. A view over the size budget
//! fails with the `ViewTooLarge` error of the explicit build at the same
//! node.
//!
//! The index must be keyed by the view depth and not only by `p_capped =
//! min(p, max_candidate_nodes)`: once `p` exceeds the candidate-size cap
//! the same `(p_capped, universe)` pool recurs at *different* view depths,
//! and depth-`p` views of the same node differ across depths. An index
//! keyed by the pool key alone — the literal reading of "memoize by
//! `(p, universe)`" — would silently miss every lookup after the first
//! depth seen.
//!
//! **Why the lookup is complete and faithful.** The node-dependent part of
//! `Update-Graph` is exactly C2 (a candidate node whose depth-`p` view
//! equals the node's); the 2-hop gate and C3 are properties of the
//! candidate alone, so filtering them at pool-build time is the same
//! per-node filter the reference applies. The reference's quotient gate
//! never drops a pool candidate: a 2-hop colored graph's quotient is
//! simple (the paper's Lemma 2, see [`quotient`]), so a failing quotient
//! here is an internal error. A candidate view equal to an instance
//! node's depth-`p` view has, layer by layer, only sub-views that some
//! instance node has at the same depth, and the instance sweep interned
//! each of them; so every key of that view resolves, and to the instance
//! node's id. The index of `(pool, p)` is built in phase `p`, after the
//! sweep, so every instance view finds exactly the candidates an
//! interning build would have registered for it. The reference selects,
//! scanning in pool order, the first candidate minimal under
//! `(|V̂_*|, s(Ĝ_*))` with `v̂` the *first* matching node; the index
//! reproduces both tie-breaks by iterating candidates in pool order,
//! registering only the first node per view id within a candidate, and
//! replacing an entry only on a strictly smaller `(node count, encoding)`
//! pair. Ids are used for equality and hashing only — orderings always
//! compare the canonical bytes `s(Ĝ_*)` (see [`anonet_views::Interner`]).
//!
//! Every map here lives for one run and is keyed by symbols, ids or
//! bitsets the run derived from its own instance, so all of them hash
//! with [`FastHash`], the deterministic hasher next to [`Interner`].

use std::collections::hash_map::Entry;
use std::collections::HashMap;

use anonet_graph::canonical::encode_with_order;
use anonet_graph::distance::BallScratch;
use anonet_graph::{BitString, Graph, Label, LabeledGraph, NodeId};
use anonet_obs::{names, Recorder};
use anonet_runtime::Problem;
use anonet_views::{
    quotient, FastHash, Interner, Sym, ViewIds, ViewLayers, ViewMode, ViewQuotient,
};

use crate::candidates::{label_shape, two_hop_colored_pool, ShapeLabelings};
use crate::error::CoreError;
use crate::Result;

/// The label type `A_*` works over: `((input, color), bitstring)`.
pub type CandidateLabel<I, C> = ((I, C), BitString);

/// A candidate's finite view graph `Ĝ_*`.
pub type CandidateQuotient<I, C> = ViewQuotient<CandidateLabel<I, C>>;

/// Key of a memoized pool: `(p_capped, interned universe encoding)`.
pub type PoolKey = (usize, Sym);

/// A candidate that survived the node-independent gates: its borrowed
/// shape, where its universe indexes start in the pool's `labels`, and,
/// once an index needs them, its quotient and ordering data.
struct PoolCandidate {
    /// The candidate's graph (C2 views are taken in it).
    shape: &'static Graph,
    /// Node `k` carries universe entry `labels[start + k]` of its pool.
    start: usize,
    /// The slot of its finite view graph `Ĝ_*` in the pool's quotients,
    /// once built.
    quotient: Option<usize>,
    /// `(|V̂_*|, s(Ĝ_*))` — the `Update-Graph` sort key, with the
    /// canonical encoding as bytes — once an index collision needed it.
    order: Option<(usize, Vec<u8>)>,
}

/// Depth-`p` C2 index: view id → position in `entries`, each entry a
/// `(quotient slot, v̂)` selection. Entries are listed in order of first
/// registration, so quotient slots never depend on hash order.
struct SelectionIndex {
    map: HashMap<Sym, usize, FastHash>,
    entries: Vec<(usize, NodeId)>,
}

impl SelectionIndex {
    /// The selection for view id `view`, if a candidate has that view.
    fn get(&self, view: Sym) -> Option<(usize, NodeId)> {
        self.map.get(&view).map(|&pos| self.entries[pos])
    }
}

/// A memoized pool with its per-depth selection indexes and the
/// quotients of the candidates those indexes name. Candidates borrow
/// the process-wide shapes.
struct PoolEntry<I: Label, C: Label> {
    /// The pool's universe, sorted.
    universe: Vec<CandidateLabel<I, C>>,
    /// Each universe entry's mark in the run's [`ViewIds`]: the first
    /// layer of the views of every candidate node that carries it.
    marks: Vec<Sym>,
    /// The candidates' universe indexes, node by node.
    labels: Vec<usize>,
    candidates: Vec<PoolCandidate>,
    quotients: Vec<CandidateQuotient<I, C>>,
    indexes: HashMap<usize, SelectionIndex, FastHash>,
}

/// The instance's depth-`p` view id per node, interned by
/// [`AstarCache::view_ids`]: the proof that the ids a depth-`depth` index
/// build looks candidates up against exist. A view over the size budget
/// carries the `ViewTooLarge` error of the explicit view build at that
/// node.
pub struct PhaseViews {
    depth: usize,
    ids: Vec<Result<Sym>>,
}

impl PhaseViews {
    /// Node `v`'s view id, or the error its explicit view build reports.
    pub fn id(&self, v: NodeId) -> Result<Sym> {
        self.ids[v.index()].clone()
    }
}

/// One phase's label universes, computed once per distinct universe by
/// [`AstarCache::phase_universes`].
pub struct PhaseUniverses<L> {
    /// Per node, the position of its universe in `distinct`.
    of_node: Vec<usize>,
    /// Per distinct universe: its sorted labels and the interned
    /// [`universe_encoding`] that keys its pools.
    distinct: Vec<(Vec<L>, Sym)>,
}

impl<L> PhaseUniverses<L> {
    /// Node `v`'s universe.
    pub fn of(&self, v: NodeId) -> Universe<'_, L> {
        let (labels, sym) = &self.distinct[self.of_node[v.index()]];
        Universe { labels, sym: *sym }
    }
}

/// A node's label universe: the sorted, deduplicated labels of its ball,
/// with the interned encoding that keys its pool in the [`AstarCache`]
/// that computed it.
#[derive(Debug)]
pub struct Universe<'a, L> {
    labels: &'a [L],
    sym: Sym,
}

impl<'a, L> Universe<'a, L> {
    /// The universe's labels, sorted and deduplicated.
    pub fn labels(&self) -> &'a [L] {
        self.labels
    }
}

/// The `A_*` memo for one run: candidate pools by `(p_capped, universe)`,
/// C2 selection indexes by view depth, and the interners behind universe
/// keys and view ids.
///
/// One cache serves one instance for the lifetime of a run; pools and the
/// interners are shared across all phases and nodes of that run.
pub struct AstarCache<I: Label, C: Label> {
    interner: Interner,
    views: ViewIds,
    pools: HashMap<PoolKey, PoolEntry<I, C>, FastHash>,
    hits: u64,
    misses: u64,
}

impl<I: Label, C: Label> Default for AstarCache<I, C> {
    fn default() -> Self {
        AstarCache {
            interner: Interner::new(),
            views: ViewIds::default(),
            pools: HashMap::default(),
            hits: 0,
            misses: 0,
        }
    }
}

impl<I: Label, C: Label> AstarCache<I, C> {
    /// An empty cache.
    pub fn new() -> Self {
        AstarCache::default()
    }

    /// Pool requests answered from the memo.
    pub fn pool_hits(&self) -> u64 {
        self.hits
    }

    /// Pool requests that had to build the pool.
    pub fn pool_misses(&self) -> u64 {
        self.misses
    }

    /// Every node's label universe for one phase: the labels of `I^p`
    /// within `distance::ball(g, v, radius)`, sorted and deduplicated —
    /// the reference's per-node computation — built once per distinct
    /// universe. Labels get dense ids in sorted order; each node's label
    /// set is a bitset over them, grown by `radius` OR-sweeps over its
    /// neighbours' sets (stopping early at a fixpoint); the bitsets are
    /// interned, and each distinct one is read out, in id order, into a
    /// sorted universe whose encoding is interned as its pool key.
    pub fn phase_universes(
        &mut self,
        ip: &LabeledGraph<CandidateLabel<I, C>>,
        radius: usize,
    ) -> PhaseUniverses<CandidateLabel<I, C>> {
        let g = ip.graph();
        let labels = ip.labels();
        let n = labels.len();
        // Dense ids in sorted label order.
        let mut by_label: Vec<usize> = (0..n).collect();
        by_label.sort_by(|&a, &b| labels[a].cmp(&labels[b]));
        let mut ids = vec![0usize; n];
        let mut sorted: Vec<&CandidateLabel<I, C>> = Vec::new();
        for &v in &by_label {
            if sorted.last() != Some(&&labels[v]) {
                sorted.push(&labels[v]);
            }
            ids[v] = sorted.len() - 1;
        }
        let words = sorted.len().div_ceil(64);
        let mut own = vec![0u64; n * words];
        for (v, &id) in ids.iter().enumerate() {
            own[v * words + id / 64] |= 1 << (id % 64);
        }
        let mut sets = own.clone();
        let mut next = vec![0u64; n * words];
        for _ in 0..radius {
            // `max(1)`: chunks may not be empty, and an empty graph has no rows.
            for (v, row) in g.nodes().zip(next.chunks_exact_mut(words.max(1))) {
                let at = v.index() * words;
                row.copy_from_slice(&own[at..at + words]);
                for u in g.neighbors(v) {
                    let at = u.index() * words;
                    for (word, &theirs) in row.iter_mut().zip(&sets[at..at + words]) {
                        *word |= theirs;
                    }
                }
            }
            std::mem::swap(&mut sets, &mut next);
            if sets == next {
                break;
            }
        }

        let mut seen: HashMap<&[u64], usize, FastHash> = HashMap::default();
        let mut distinct = Vec::new();
        let of_node = (0..n)
            .map(|v| {
                let set = &sets[v * words..(v + 1) * words];
                *seen.entry(set).or_insert_with(|| {
                    let mut universe = Vec::new();
                    for (w, &word) in set.iter().enumerate() {
                        let mut rest = word;
                        while rest != 0 {
                            universe.push(sorted[w * 64 + rest.trailing_zeros() as usize].clone());
                            rest &= rest - 1;
                        }
                    }
                    let sym = self.interner.intern(&universe_encoding(&universe));
                    distinct.push((universe, sym));
                    distinct.len() - 1
                })
            })
            .collect();
        PhaseUniverses { of_node, distinct }
    }

    /// Every node's depth-`depth` view id in `ip`, interning every mark
    /// and every layer key of the sweep. Call once per phase, before the
    /// [`ensure_pool`](AstarCache::ensure_pool) calls that take the
    /// result.
    pub fn view_ids(
        &mut self,
        ip: &LabeledGraph<CandidateLabel<I, C>>,
        depth: usize,
    ) -> PhaseViews {
        let layers = self.views.intern(ip, depth);
        let ids = ip
            .graph()
            .nodes()
            .map(|v| {
                layers
                    .id(ip.graph(), v)?
                    .ok_or_else(|| CoreError::internal("interning sweeps resolve every key"))
            })
            .collect();
        PhaseViews { depth, ids }
    }

    /// Returns the key of the pool for `(p_capped, universe)`, building
    /// the pool on first sight and the selection index at `views`' depth
    /// on the first sight of that depth. Records
    /// [`names::ASTAR_POOL_HIT`] / [`names::ASTAR_POOL_MISS`], on a miss
    /// the built pool's length as [`names::ASTAR_POOL_CANDIDATES`], and
    /// the quotients an index build adds as
    /// [`names::ASTAR_POOL_QUOTIENTS`].
    ///
    /// # Errors
    ///
    /// Enumeration-size errors from [`two_hop_colored_pool`] and view
    /// errors from candidate views.
    pub fn ensure_pool<P>(
        &mut self,
        problem: &P,
        p_capped: usize,
        views: &PhaseViews,
        universe: Universe<'_, CandidateLabel<I, C>>,
        rec: &dyn Recorder,
    ) -> Result<PoolKey>
    where
        P: Problem<Input = I>,
    {
        // Split borrows: pool builds intern marks into `ids`.
        let AstarCache { views: ids, pools, hits, misses, .. } = self;
        let key = (p_capped, universe.sym);
        let entry = match pools.entry(key) {
            Entry::Vacant(slot) => {
                *misses += 1;
                if rec.is_enabled() {
                    rec.counter(names::ASTAR_POOL_MISS, 1);
                }
                let labels = universe.labels;
                let pool = two_hop_colored_pool(p_capped, labels, |((_i, c), _b)| c)?;
                let entry = filter_pool(problem, labels, pool, ids)?;
                if rec.is_enabled() {
                    rec.counter(names::ASTAR_POOL_CANDIDATES, entry.candidates.len() as u64);
                }
                slot.insert(entry)
            }
            Entry::Occupied(slot) => {
                *hits += 1;
                if rec.is_enabled() {
                    rec.counter(names::ASTAR_POOL_HIT, 1);
                }
                slot.into_mut()
            }
        };
        if !entry.indexes.contains_key(&views.depth) {
            let built = entry.quotients.len();
            let index = entry.build_index(views.depth, ids)?;
            entry.indexes.insert(views.depth, index);
            if rec.is_enabled() {
                rec.counter(names::ASTAR_POOL_QUOTIENTS, (entry.quotients.len() - built) as u64);
            }
        }
        Ok(key)
    }

    /// The `Update-Graph` selection for a node whose depth-`depth` view id
    /// is `view`: the minimal candidate's quotient slot in pool `key`, its
    /// finite view graph, and the projection `v̊` of the matched node.
    /// Within one phase, `(key, slot)` identifies the candidate, so nodes
    /// that share it share Update-Output and Update-Bits. `None` when no
    /// candidate matches (the node skips this phase).
    pub fn select(
        &self,
        key: PoolKey,
        depth: usize,
        view: Sym,
    ) -> Option<(usize, &CandidateQuotient<I, C>, NodeId)> {
        let entry = self.pools.get(&key)?;
        let (slot, v_hat) = entry.indexes.get(&depth)?.get(view)?;
        let q = &entry.quotients[slot];
        Some((slot, q, q.project(v_hat)))
    }
}

/// The canonical byte encoding of a label universe (length-prefixed
/// concatenation of the labels' [`Label::encode`] forms). Injective on
/// sorted deduplicated universes, and — because the universe is derived
/// from a *ball's label set* — invariant under node renumbering and port
/// re-permutation of the instance.
pub fn universe_encoding<L: Label>(universe: &[L]) -> Vec<u8> {
    let mut out = Vec::new();
    (universe.len() as u64).encode(&mut out);
    for label in universe {
        label.encode(&mut out);
    }
    out
}

/// The per-node pool-memo keys `(p_capped, universe encoding)` of one
/// phase, computed directly from each node's ball (no cache) — the
/// literal per-node oracle for [`AstarCache::phase_universes`], and the
/// proptest surface for the memo-key invariance property: renumbering the
/// instance permutes this vector by the same permutation, and port
/// shuffles leave it untouched.
pub fn pool_keys<L: Label>(
    ip: &LabeledGraph<L>,
    p: usize,
    max_candidate_nodes: usize,
) -> Vec<(usize, Vec<u8>)> {
    let g = ip.graph();
    let mut scratch = BallScratch::new(g.node_count());
    g.nodes()
        .map(|v| {
            let mut universe: Vec<L> = scratch
                .ball(g, v, p.saturating_sub(1))
                .iter()
                .map(|&u| ip.label(u).clone())
                .collect();
            universe.sort();
            universe.dedup();
            (p.min(max_candidate_nodes), universe_encoding(&universe))
        })
        .collect()
}

/// Applies the node-independent `Update-Graph` gate that remains after
/// the 2-hop gate (the C3 instance check) to a pool of 2-hop colored
/// candidates over `universe`, in pool order, interning each universe
/// entry's mark into `views`.
///
/// C3 reads a candidate's shape and its nodes' inputs only, so it is
/// decided once per shape and vector of input-label ids: entry `i`'s id
/// is the first entry of the run of equal inputs that contains it (in a
/// sorted universe, all entries with its input). Equal ids imply equal
/// inputs, so a shared decision is the decision of every candidate that
/// shares it.
///
/// # Errors
///
/// A graph error if a labeling does not fit its shape.
fn filter_pool<I, C, P>(
    problem: &P,
    universe: &[CandidateLabel<I, C>],
    pool: Vec<ShapeLabelings>,
    views: &mut ViewIds,
) -> Result<PoolEntry<I, C>>
where
    I: Label,
    C: Label,
    P: Problem<Input = I>,
{
    let input = |i: usize| &universe[i].0 .0;
    let mut input_ids: Vec<usize> = Vec::with_capacity(universe.len());
    for i in 0..universe.len() {
        let first = match input_ids.last() {
            Some(&prev) if input(prev) == input(i) => prev,
            _ => i,
        };
        input_ids.push(first);
    }
    let mut entry = PoolEntry {
        universe: universe.to_vec(),
        marks: views.marks(universe),
        labels: Vec::new(),
        candidates: Vec::new(),
        quotients: Vec::new(),
        indexes: HashMap::default(),
    };
    let mut c3: HashMap<Box<[usize]>, bool, FastHash> = HashMap::default();
    let mut key: Vec<usize> = Vec::new();
    for group in pool {
        c3.clear();
        for labeling in group.labelings() {
            key.clear();
            key.extend(labeling.iter().map(|&i| input_ids[i]));
            let is_instance = match c3.get(key.as_slice()) {
                Some(&known) => known,
                None => {
                    // C3: the (î, ĉ) part is an instance of Π^c.
                    let inputs = key.iter().map(|&i| input(i).clone()).collect();
                    let known = problem.is_instance(&group.graph.with_labels(inputs)?);
                    c3.insert(key.as_slice().into(), known);
                    known
                }
            };
            if is_instance {
                entry.candidates.push(PoolCandidate {
                    shape: group.graph,
                    start: entry.labels.len(),
                    quotient: None,
                    order: None,
                });
                entry.labels.extend_from_slice(labeling);
            }
        }
    }
    Ok(entry)
}

impl<I: Label, C: Label> PoolEntry<I, C> {
    /// Candidate `idx` as a labeled graph: built only for the quotients
    /// and errors that need one.
    fn graph(&self, idx: usize) -> Result<LabeledGraph<CandidateLabel<I, C>>> {
        let cand = &self.candidates[idx];
        let labeling = &self.labels[cand.start..cand.start + cand.shape.node_count()];
        label_shape(cand.shape, labeling, &self.universe)
    }

    /// Builds the depth-`depth` C2 index, reproducing the reference
    /// scan's tie-breaks: candidates visited in pool order, only the
    /// first node per view id registered within a candidate, entries
    /// replaced only on strictly smaller `(node count, encoding bytes)`.
    /// Candidate views are looked up in `views`, never interned; a node
    /// whose view misses registers nothing. Ends by building the quotient
    /// of every candidate an entry names.
    fn build_index(&mut self, depth: usize, views: &ViewIds) -> Result<SelectionIndex> {
        let mut map: HashMap<Sym, usize, FastHash> = HashMap::default();
        // `(candidate index, v̂)` until the end, then `(quotient slot, v̂)`.
        let mut entries: Vec<(usize, NodeId)> = Vec::new();
        let mut layers = ViewLayers::default();
        let mut marks: Vec<Sym> = Vec::new();
        // Per candidate: each view id it has, with its first node (v̂).
        let mut firsts: Vec<(Sym, NodeId)> = Vec::new();
        for idx in 0..self.candidates.len() {
            let PoolCandidate { shape: g, start, .. } = self.candidates[idx];
            marks.clear();
            marks.extend(self.labels[start..start + g.node_count()].iter().map(|&i| self.marks[i]));
            views.lookup(g, &marks, depth, &mut layers);
            firsts.clear();
            for u in g.nodes() {
                if let Some(sym) = layers.id(g, u)? {
                    if firsts.iter().all(|&(seen, _)| seen != sym) {
                        firsts.push((sym, u));
                    }
                }
            }
            for &(sym, u) in &firsts {
                match map.entry(sym) {
                    Entry::Vacant(slot) => {
                        slot.insert(entries.len());
                        entries.push((idx, u));
                    }
                    Entry::Occupied(slot) => {
                        // Strictly-less replacement keeps the earliest
                        // minimal candidate, matching the reference's
                        // pool-order scan.
                        let entry = &mut entries[*slot.get()];
                        self.ensure_order(idx)?;
                        self.ensure_order(entry.0)?;
                        if self.candidates[idx].order < self.candidates[entry.0].order {
                            *entry = (idx, u);
                        }
                    }
                }
            }
        }
        for entry in &mut entries {
            entry.0 = self.quotient_slot(entry.0)?;
        }
        Ok(SelectionIndex { map, entries })
    }

    /// Candidate `idx`'s slot in `quotients`, building its quotient on
    /// first use.
    fn quotient_slot(&mut self, idx: usize) -> Result<usize> {
        if let Some(slot) = self.candidates[idx].quotient {
            return Ok(slot);
        }
        // Lemma 2: the quotient of a 2-hop colored graph is simple, and
        // every pool candidate is 2-hop colored.
        let q = quotient(&self.graph(idx)?, ViewMode::Portless).map_err(|e| {
            CoreError::internal(format!("a 2-hop colored candidate has no quotient: {e}"))
        })?;
        self.quotients.push(q);
        self.candidates[idx].quotient = Some(self.quotients.len() - 1);
        Ok(self.quotients.len() - 1)
    }

    /// Computes candidate `idx`'s `(|V̂_*|, s(Ĝ_*))` unless it is known.
    fn ensure_order(&mut self, idx: usize) -> Result<()> {
        if self.candidates[idx].order.is_none() {
            let slot = self.quotient_slot(idx)?;
            let q = self.quotients[slot].graph();
            let encoding = encode_with_order(q, &self.quotients[slot].canonical_order());
            self.candidates[idx].order = Some((q.node_count(), encoding));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use anonet_algorithms::problems::MisProblem;
    use anonet_graph::lift::random_connected_lift;
    use anonet_graph::{coloring, distance, generators};
    use anonet_obs::{MemoryRecorder, NoopRecorder};
    use anonet_views::{canonical_encoding, canonical_order, update_graph_cmp, ViewTree};
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    use crate::astar::{prepare_phase, AStarConfig};
    use crate::candidates::tests::{first_of_each_class, materialize};
    use crate::candidates::{candidate_pool, candidate_pool_all_presentations};

    type MisLabel = CandidateLabel<(), u32>;

    fn triangle_universe() -> Vec<MisLabel> {
        vec![
            (((), 1u32), BitString::new()),
            (((), 2), BitString::new()),
            (((), 3), BitString::new()),
        ]
    }

    fn triangle_ip() -> LabeledGraph<MisLabel> {
        generators::cycle(3).unwrap().with_labels(triangle_universe()).unwrap()
    }

    /// `labels` as a universe of `cache`, its encoding interned as
    /// [`AstarCache::phase_universes`] interns it.
    fn universe_in<'u, I: Label, C: Label>(
        cache: &mut AstarCache<I, C>,
        labels: &'u [CandidateLabel<I, C>],
    ) -> Universe<'u, CandidateLabel<I, C>> {
        Universe { labels, sym: cache.interner.intern(&universe_encoding(labels)) }
    }

    /// `graphs` as a pool over the sorted `universe` that holds all their
    /// labels: each graph its own shape group, its shape leaked to outlive
    /// the test as the process-wide shapes do.
    fn shaped<L: Label>(graphs: &[LabeledGraph<L>], universe: &[L]) -> Vec<ShapeLabelings> {
        graphs
            .iter()
            .map(|g| ShapeLabelings {
                graph: Box::leak(Box::new(g.graph().clone())),
                indices: g.labels().iter().map(|l| universe.binary_search(l).unwrap()).collect(),
            })
            .collect()
    }

    /// Candidate `idx`'s graph and its nodes' marks.
    fn candidate<I: Label, C: Label>(
        entry: &PoolEntry<I, C>,
        idx: usize,
    ) -> (LabeledGraph<CandidateLabel<I, C>>, Vec<Sym>) {
        let graph = entry.graph(idx).unwrap();
        let start = entry.candidates[idx].start;
        let marks = entry.labels[start..start + graph.node_count()]
            .iter()
            .map(|&i| entry.marks[i])
            .collect();
        (graph, marks)
    }

    /// `(node count, encoding, canonical position of v̊)` — everything the
    /// rest of `A_*` can observe about a selection.
    fn selection_fingerprint(
        q: &ViewQuotient<MisLabel>,
        v_star: NodeId,
    ) -> (usize, Vec<u8>, usize) {
        let order = canonical_order(q.graph(), ViewMode::Portless).unwrap();
        let pos = order.iter().position(|&x| x == v_star).unwrap();
        (q.graph().node_count(), canonical_encoding(q.graph(), ViewMode::Portless).unwrap(), pos)
    }

    /// The reference `Update-Graph` scan from `crate::astar`, verbatim.
    fn reference_select(
        pool: &[LabeledGraph<MisLabel>],
        view_v: &[u8],
        p: usize,
    ) -> Option<(ViewQuotient<MisLabel>, NodeId)> {
        let mut selected: Option<(ViewQuotient<MisLabel>, NodeId)> = None;
        for cand in pool {
            let mut v_hat = None;
            for u in cand.graph().nodes() {
                let enc = ViewTree::build(cand, u, p).unwrap().canonical_encoding();
                if enc == view_v {
                    v_hat = Some(u);
                    break;
                }
            }
            let Some(v_hat) = v_hat else { continue };
            let inputs_only = cand.map_labels(|((i, _c), _b)| *i);
            if !MisProblem.is_instance(&inputs_only) {
                continue;
            }
            let colors_only = cand.map_labels(|((_i, c), _b)| *c);
            if !coloring::is_two_hop_coloring(&colors_only) {
                continue;
            }
            let Ok(q) = quotient(cand, ViewMode::Portless) else { continue };
            let better = match &selected {
                None => true,
                Some((best, _)) => {
                    update_graph_cmp(q.graph(), best.graph(), ViewMode::Portless).unwrap()
                        == std::cmp::Ordering::Less
                }
            };
            if better {
                let v_star = q.project(v_hat);
                selected = Some((q, v_star));
            }
        }
        selected
    }

    #[test]
    fn indexed_selection_matches_the_reference_scan() {
        let ip = triangle_ip();
        let universe = triangle_universe();
        let mut cache: AstarCache<(), u32> = AstarCache::new();
        for p in 1..=3usize {
            let views = cache.view_ids(&ip, p);
            let u = universe_in(&mut cache, &universe);
            let key = cache.ensure_pool(&MisProblem, p.min(3), &views, u, &NoopRecorder).unwrap();
            let pool = candidate_pool(p.min(3), &universe).unwrap();
            for v in ip.graph().nodes() {
                let view_v = ViewTree::build(&ip, v, p).unwrap().canonical_encoding();
                let fast = cache.select(key, p, views.id(v).unwrap());
                let reference = reference_select(&pool, &view_v, p);
                match (fast, reference) {
                    (None, None) => {}
                    (Some((_, fq, fv)), Some((rq, rv))) => {
                        assert_eq!(
                            selection_fingerprint(fq, fv),
                            selection_fingerprint(&rq, rv),
                            "selection diverged at p={p}, v={v:?}"
                        );
                    }
                    (fast, reference) => panic!(
                        "selection presence diverged at p={p}, v={v:?}: fast={}, reference={}",
                        fast.is_some(),
                        reference.is_some()
                    ),
                }
            }
        }
    }

    /// Every view id `index` knows, with the fingerprint of its selection.
    fn selections(
        index: &SelectionIndex,
        entry: &PoolEntry<(), u32>,
    ) -> HashMap<Sym, (usize, Vec<u8>, usize)> {
        index
            .map
            .keys()
            .map(|&sym| {
                let (slot, v_hat) = index.get(sym).unwrap();
                let q = &entry.quotients[slot];
                (sym, selection_fingerprint(q, q.project(v_hat)))
            })
            .collect()
    }

    /// A universe of one to five distinct labels over three colors, with
    /// bitstrings of at most one bit, so that colors repeat across labels.
    fn small_universe(seed: u64) -> Vec<MisLabel> {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let len = rng.gen_range(1..=5usize);
        let mut universe: Vec<MisLabel> = (0..len).map(|_| small_label(&mut rng)).collect();
        universe.sort();
        universe.dedup();
        universe
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

        /// The dedups in `candidates` — shapes up to isomorphism, one
        /// labeling per automorphism orbit — must not move the
        /// Update-Graph selection: index the orbit pool and the literal
        /// all-presentations pool, and compare the selected candidate for
        /// every view either index knows. Every view of the full pool is
        /// interned first, as by an instance that has them all; both
        /// indexes look up in that one table, so equal ids are equal views.
        #[test]
        fn pool_selection_is_invariant_under_presentation_dedup(
            seed in 0u64..1_000_000,
            max_nodes in 1..=4usize,
            depth in 1..=6usize,
        ) {
            let universe = small_universe(seed);
            let mut views = ViewIds::new();
            let full: Vec<_> = candidate_pool_all_presentations(max_nodes, &universe)
                .unwrap()
                .into_iter()
                .filter(|cand| coloring::is_two_hop_coloring(&cand.map_labels(|((_i, c), _b)| *c)))
                .collect();
            for cand in &full {
                interned_ids(&mut views, cand, depth);
            }
            let deduped = two_hop_colored_pool(max_nodes, &universe, |((_i, c), _b)| c).unwrap();
            let mut deduped = filter_pool(&MisProblem, &universe, deduped, &mut views).unwrap();
            let full = shaped(&full, &universe);
            let mut full = filter_pool(&MisProblem, &universe, full, &mut views).unwrap();
            proptest::prop_assert!(full.candidates.len() >= deduped.candidates.len());

            let index_d = deduped.build_index(depth, &views).unwrap();
            let index_f = full.build_index(depth, &views).unwrap();

            let selections_d = selections(&index_d, &deduped);
            let selections_f = selections(&index_f, &full);
            proptest::prop_assert!(!selections_d.is_empty());
            proptest::prop_assert_eq!(selections_d, selections_f);
        }
    }

    #[test]
    fn cached_pools_are_hits_after_first_build() {
        let universe = triangle_universe();
        let mut cache: AstarCache<(), u32> = AstarCache::new();
        let u = universe_in(&mut cache, &universe);
        let depth3 = cache.view_ids(&triangle_ip(), 3);
        let k1 = cache.ensure_pool(&MisProblem, 3, &depth3, u, &NoopRecorder).unwrap();
        assert_eq!((cache.pool_hits(), cache.pool_misses()), (0, 1));
        let u = universe_in(&mut cache, &universe);
        let k2 = cache.ensure_pool(&MisProblem, 3, &depth3, u, &NoopRecorder).unwrap();
        assert_eq!(k1, k2);
        // Same pool at a deeper view depth: a hit plus a fresh index.
        let depth4 = cache.view_ids(&triangle_ip(), 4);
        let u = universe_in(&mut cache, &universe);
        let k3 = cache.ensure_pool(&MisProblem, 3, &depth4, u, &NoopRecorder).unwrap();
        assert_eq!(k1, k3);
        assert_eq!((cache.pool_hits(), cache.pool_misses()), (2, 1));
        // A different universe is a different pool.
        let other = vec![(((), 7u32), BitString::new())];
        let other = universe_in(&mut cache, &other);
        let k4 = cache.ensure_pool(&MisProblem, 3, &depth3, other, &NoopRecorder).unwrap();
        assert_ne!(k1, k4);
        assert_eq!(cache.pool_misses(), 2);
    }

    #[test]
    fn selection_indexes_are_per_depth() {
        // The same (p_capped, universe) pool serves different view depths
        // once p exceeds max_candidate_nodes; the C2 index must be keyed
        // by the depth, or lookups at later depths would all miss.
        let ip = triangle_ip();
        let universe = triangle_universe();
        let mut cache: AstarCache<(), u32> = AstarCache::new();
        let v = ip.graph().nodes().next().unwrap();
        for depth in 3..=5usize {
            let views = cache.view_ids(&ip, depth);
            let u = universe_in(&mut cache, &universe);
            let key = cache.ensure_pool(&MisProblem, 3, &views, u, &NoopRecorder).unwrap();
            assert!(
                cache.select(key, depth, views.id(v).unwrap()).is_some(),
                "depth-{depth} lookup missed although the triangle has a candidate"
            );
        }
        assert_eq!(cache.pool_misses(), 1, "one pool serves all three depths");
    }

    #[test]
    fn hoisted_universes_match_per_node_computation() {
        // The per-distinct-universe computation must agree with the
        // reference's literal per-node computation, labels and key bytes.
        let c6 = generators::cycle(6).unwrap();
        let labels: Vec<MisLabel> = (0..6)
            .map(|i| {
                let mut b = BitString::new();
                b.push(i % 2 == 0);
                (((), (i % 3 + 1) as u32), b)
            })
            .collect();
        let ip = c6.with_labels(labels).unwrap();
        let mut cache: AstarCache<(), u32> = AstarCache::new();
        for radius in 0..4usize {
            let hoisted = cache.phase_universes(&ip, radius);
            let mut distinct: Vec<Vec<MisLabel>> = Vec::new();
            for v in ip.graph().nodes() {
                let mut expected: Vec<MisLabel> = distance::ball(ip.graph(), v, radius)
                    .into_iter()
                    .map(|u| ip.label(u).clone())
                    .collect();
                expected.sort();
                expected.dedup();
                let universe = hoisted.of(v);
                assert_eq!(universe.labels(), &expected[..], "radius {radius}, node {v:?}");
                assert_eq!(
                    cache.interner.resolve(universe.sym),
                    &universe_encoding(&expected)[..],
                    "radius {radius}, node {v:?}"
                );
                if !distinct.contains(&expected) {
                    distinct.push(expected);
                }
            }
            // One universe is built per distinct label set.
            assert_eq!(hoisted.distinct.len(), distinct.len(), "radius {radius}");
        }
        // Recomputing a phase gives the same universes and pool keys.
        let (a, b) = (cache.phase_universes(&ip, 2), cache.phase_universes(&ip, 2));
        for v in ip.graph().nodes() {
            assert_eq!(a.of(v).labels(), b.of(v).labels());
            assert_eq!(a.of(v).sym, b.of(v).sym);
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

        /// The per-distinct-universe map equals the literal per-node
        /// universes: for every node and radius, the sorted, deduplicated
        /// labels of `distance::ball(g, v, r)`, with `pool_keys`'s
        /// encoding as the interned key. Random lifts carry random labels;
        /// a `wide` lift gives each of its more than 64 nodes its own
        /// label, so bitsets span several words. Radii run from 0 to one
        /// past the diameter.
        #[test]
        fn phase_universes_equal_the_literal_per_node_universes(
            seed in 0u64..1_000_000,
            wide in 0..2usize,
        ) {
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            let bases = [
                generators::complete(3).unwrap(),
                generators::cycle(4).unwrap(),
                Graph::from_edges(4, &[(0, 1), (0, 2), (1, 2), (2, 3)]).unwrap(),
                generators::complete(4).unwrap(),
            ];
            let base = &bases[rng.gen_range(0..bases.len())];
            let m = if wide == 1 { rng.gen_range(22..=40usize) } else { rng.gen_range(1..=6usize) };
            let lift = random_connected_lift(base, m, 1000, &mut rng).unwrap();
            let n = lift.graph().node_count();
            let labels: Vec<MisLabel> = (0..n)
                .map(|v| {
                    if wide == 1 {
                        let bits = BitString::from_bits((0..8).map(|k| (v >> k) & 1 == 1));
                        (((), (v % 4 + 1) as u32), bits)
                    } else {
                        small_label(&mut rng)
                    }
                })
                .collect();
            let ip = lift.graph().with_labels(labels).unwrap();
            let g = ip.graph();
            let diameter = distance::diameter(g).unwrap();
            let mut cache: AstarCache<(), u32> = AstarCache::new();
            let mut widest = 0usize;
            for radius in 0..=diameter + 1 {
                let hoisted = cache.phase_universes(&ip, radius);
                let keys = pool_keys(&ip, radius + 1, usize::MAX);
                for v in g.nodes() {
                    let mut expected: Vec<MisLabel> =
                        distance::ball(g, v, radius).into_iter().map(|u| ip.label(u).clone()).collect();
                    expected.sort();
                    expected.dedup();
                    widest = widest.max(expected.len());
                    let universe = hoisted.of(v);
                    proptest::prop_assert_eq!(universe.labels(), &expected[..], "radius {}, node {:?}", radius, v);
                    proptest::prop_assert_eq!(cache.interner.resolve(universe.sym), &keys[v.index()].1[..]);
                }
            }
            if wide == 1 {
                proptest::prop_assert!(widest > 64, "a wide lift spans more than one word");
            }
        }
    }

    #[test]
    fn pool_keys_follow_renumbering_and_ignore_ports() {
        use anonet_graph::lift::Perm;
        let ip = triangle_ip();
        let keys = pool_keys(&ip, 2, 4);
        let perm = Perm::shift(3);
        let renumbered = ip.renumber(&perm).unwrap();
        let keys_r = pool_keys(&renumbered, 2, 4);
        for v in 0..3 {
            assert_eq!(keys[v], keys_r[perm.apply(v)], "memo key did not follow node {v}");
        }
        let mut rng = ChaCha8Rng::seed_from_u64(0xA57A);
        let shuffled = ip.with_shuffled_ports(&mut rng);
        assert_eq!(keys, pool_keys(&shuffled, 2, 4), "memo keys saw port numbering");
    }

    /// Interns `g`'s depth-`depth` view ids, as the instance's sweep in
    /// [`AstarCache::view_ids`] does.
    fn interned_ids(
        views: &mut ViewIds,
        g: &LabeledGraph<MisLabel>,
        depth: usize,
    ) -> Vec<Option<Sym>> {
        let layers = views.intern(g, depth);
        g.graph().nodes().map(|v| layers.id(g.graph(), v).unwrap()).collect()
    }

    /// The C2 index as built when candidates interned their own views:
    /// every C3 candidate of `pool` quotiented and ordered up front, every
    /// key of every candidate interned into `views`, the same pool-order
    /// tie-breaks. Maps each view id to its selection's fingerprint.
    fn interning_selections(
        pool: Vec<LabeledGraph<MisLabel>>,
        depth: usize,
        views: &mut ViewIds,
    ) -> HashMap<Sym, (usize, Vec<u8>, usize)> {
        let cands: Vec<_> = pool
            .into_iter()
            .filter(|cand| MisProblem.is_instance(&cand.map_labels(|((i, _c), _b)| *i)))
            .map(|cand| {
                let q = quotient(&cand, ViewMode::Portless).unwrap();
                let order =
                    (q.graph().node_count(), encode_with_order(q.graph(), &q.canonical_order()));
                (cand, q, order)
            })
            .collect();
        let mut map: HashMap<Sym, (usize, NodeId)> = HashMap::new();
        for (idx, (cand, _, order)) in cands.iter().enumerate() {
            let ids = interned_ids(views, cand, depth);
            let mut seen = Vec::new();
            for u in cand.graph().nodes() {
                let sym = ids[u.index()].unwrap();
                if seen.contains(&sym) {
                    continue;
                }
                seen.push(sym);
                let best = map.entry(sym).or_insert((idx, u));
                if *order < cands[best.0].2 {
                    *best = (idx, u);
                }
            }
        }
        map.into_iter()
            .map(|(sym, (idx, v_hat))| {
                let q = &cands[idx].1;
                (sym, selection_fingerprint(q, q.project(v_hat)))
            })
            .collect()
    }

    /// A label from three colors and bitstrings of at most one bit, so
    /// that equal views are common.
    fn small_label(rng: &mut ChaCha8Rng) -> MisLabel {
        let mut b = BitString::new();
        if rng.gen_bool(0.5) {
            b.push(rng.gen_bool(0.5));
        }
        (((), rng.gen_range(1..=3u32)), b)
    }

    /// A random lift of K3, C4, the paw or K4 with lifted labels.
    fn random_lift(seed: u64) -> LabeledGraph<MisLabel> {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let bases = [
            generators::complete(3).unwrap(),
            generators::cycle(4).unwrap(),
            Graph::from_edges(4, &[(0, 1), (0, 2), (1, 2), (2, 3)]).unwrap(),
            generators::complete(4).unwrap(),
        ];
        let base = &bases[rng.gen_range(0..bases.len())];
        let m = rng.gen_range(2..=4usize);
        let lift = random_connected_lift(base, m, 1000, &mut rng).unwrap();
        let labels: Vec<MisLabel> = (0..base.node_count()).map(|_| small_label(&mut rng)).collect();
        lift.lift_labels(&labels).unwrap()
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

        /// The lookup index selects what the interning index selected:
        /// one phase prepared on a random lift (instance ids interned,
        /// then pools and their lookup indexes), and for every node the
        /// selection from the pool's index equals the one an interning
        /// build of the same pool gives for the node's view id.
        #[test]
        fn lookup_index_selects_like_the_interning_index(
            seed in 0u64..1_000_000,
            depth in 1..=6usize,
        ) {
            let ip = random_lift(seed);
            let cfg = AStarConfig::default();
            let mut cache: AstarCache<(), u32> = AstarCache::new();
            let plan = prepare_phase(&mut cache, &MisProblem, &ip, depth, &cfg, &NoopRecorder).unwrap();
            let universes = cache.phase_universes(&ip, depth - 1);
            let mut oracle: HashMap<PoolKey, HashMap<Sym, _>> = HashMap::new();
            let mut hits = 0usize;
            for v in ip.graph().nodes() {
                let key = plan.keys[v.index()];
                let by_interning = oracle.entry(key).or_insert_with(|| {
                    let labels = universes.of(v).labels();
                    let pool = two_hop_colored_pool(key.0, labels, |((_i, c), _b)| c).unwrap();
                    interning_selections(materialize(&pool, labels), depth, &mut cache.views)
                });
                let id = plan.views.id(v).unwrap();
                let want = by_interning.get(&id).cloned();
                let got = cache.select(key, depth, id).map(|(_, q, v_star)| selection_fingerprint(q, v_star));
                hits += usize::from(got.is_some());
                proptest::prop_assert_eq!(got, want, "node {:?} at depth {}", v, depth);
            }
            // Depth 1 selects every node's one-node candidate. From depth
            // 4 on, a 2-hop colored lift selects at every node: its base
            // (at most four nodes, diameter at most 2) is a candidate in
            // every node's pool, with every node's view.
            let colored = coloring::is_two_hop_coloring(&ip.map_labels(|((_i, c), _b)| *c));
            if depth == 1 || (colored && depth >= 4) {
                proptest::prop_assert_eq!(hits, ip.node_count(), "depth {}", depth);
            }
        }
    }

    #[test]
    fn oversized_instance_views_fail_like_the_explicit_build() {
        // The star K_{1,1415} at depth 4: the hub's view has 2,005,056
        // vertices, over the budget; each leaf's has 2,832. The hub is
        // node 2, so two passing nodes precede the first failing one.
        const LEAVES: usize = 1415;
        let edges: Vec<(usize, usize)> = (0..=LEAVES).filter(|&x| x != 2).map(|x| (2, x)).collect();
        let star = Graph::from_edges(LEAVES + 1, &edges).unwrap();
        let labels = (0..=LEAVES).map(|i| (((), i as u32), BitString::new())).collect();
        let ip = star.with_labels(labels).unwrap();
        let depth = 4;
        let mut cache: AstarCache<(), u32> = AstarCache::new();
        let ids = cache.view_ids(&ip, depth);
        let failing: Vec<usize> =
            (0..=LEAVES).filter(|&v| ids.id(NodeId::new(v)).is_err()).collect();
        assert_eq!(failing, vec![2], "only the hub is over the budget");
        // The literal per-node build fixes the error value and which node
        // fails first; the run surfaces the first failure in node order.
        for v in (0..=2).map(NodeId::new) {
            let explicit = ViewTree::build(&ip, v, depth).map(|_| ()).map_err(CoreError::from);
            match (ids.id(v), explicit) {
                (Err(e), Err(want)) => assert_eq!(e, want, "node {v:?}"),
                (Ok(_), Ok(_)) => {}
                (got, want) => panic!("node {v:?}: layered {got:?}, explicit {want:?}"),
            }
        }
    }

    #[test]
    fn oversized_candidate_views_fail_like_the_explicit_build() {
        // K6 with six colors has a depth-10 view of 2,441,406 vertices
        // (over the budget) and a depth-9 view of 488,281 (under it). The
        // index build must report the error of the first failing
        // candidate node in pool order, exactly as the explicit build did.
        let path: MisLabel = (((), 1u32), BitString::new());
        let p2 = generators::path(2)
            .unwrap()
            .with_labels(vec![path.clone(), (((), 2), BitString::new())])
            .unwrap();
        let k6 = generators::complete(6)
            .unwrap()
            .with_labels((1..=6u32).map(|c| (((), c), BitString::new())).collect())
            .unwrap();
        // The budget check sees every candidate node, whether or not its
        // view resolves: here none does, as the instance table is empty.
        let mut views = ViewIds::new();
        let graphs = [p2.clone(), k6.clone()];
        let universe: Vec<MisLabel> = k6.labels().to_vec();
        let pool = shaped(&graphs, &universe);
        let mut entry = filter_pool(&MisProblem, &universe, pool, &mut views).unwrap();
        assert_eq!(entry.candidates.len(), 2);
        assert!(entry.build_index(9, &views).is_ok());
        let want: CoreError = ViewTree::build(&k6, NodeId::new(0), 10).unwrap_err().into();
        assert!(ViewTree::build(&p2, NodeId::new(0), 10).is_ok());
        assert_eq!(entry.build_index(10, &views).err(), Some(want));
    }

    #[test]
    fn pruned_pools_filter_like_the_full_pool() {
        // The pool builder skips labelings that fail the 2-hop gate and
        // keeps one labeling per labeled-isomorphism class; what
        // filter_pool keeps of it must be what it keeps of the full pool
        // filtered by that gate, each candidate isomorphic to an earlier
        // one dropped: same candidates, same order, same data, with the
        // lazy (node count, encoding) forced on every candidate.
        let mut universe = triangle_universe();
        universe.push((((), 1u32), BitString::from_bits([true])));
        universe.sort();
        let mut views = ViewIds::new();
        let pruned = two_hop_colored_pool(4, &universe, |((_i, c), _b)| c).unwrap();
        let mut pruned = filter_pool(&MisProblem, &universe, pruned, &mut views).unwrap();
        let full = candidate_pool(4, &universe)
            .unwrap()
            .into_iter()
            .filter(|cand| coloring::is_two_hop_coloring(&cand.map_labels(|((_i, c), _b)| *c)))
            .collect();
        let full = first_of_each_class(full);
        let mut full =
            filter_pool(&MisProblem, &universe, shaped(&full, &universe), &mut views).unwrap();
        let summary = |entry: &mut PoolEntry<(), u32>| -> Vec<_> {
            (0..entry.candidates.len())
                .map(|idx| {
                    entry.ensure_order(idx).unwrap();
                    let (graph, marks) = candidate(entry, idx);
                    (graph, marks, entry.candidates[idx].order.clone())
                })
                .collect()
        };
        assert!(!pruned.candidates.is_empty());
        assert_eq!(summary(&mut pruned), summary(&mut full));
    }

    /// `Π^c` instances whose nodes of input 1 are independent: C3 reads
    /// both the inputs and the shape.
    struct OnesIndependent;

    impl Problem for OnesIndependent {
        type Input = u8;
        type Output = u8;

        fn is_instance(&self, g: &LabeledGraph<u8>) -> bool {
            g.graph().edges().all(|e| *g.label(e.u) != 1 || *g.label(e.v) != 1)
        }

        fn is_valid_output(&self, _instance: &LabeledGraph<u8>, _output: &[u8]) -> bool {
            true
        }
    }

    /// One to six distinct labels, inputs in `0..2`, colors in `1..=4`,
    /// bitstrings of at most one bit, sorted: inputs repeat across colors.
    fn input_universe(seed: u64) -> Vec<CandidateLabel<u8, u32>> {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let len = rng.gen_range(1..=6usize);
        let mut universe: Vec<_> = (0..len)
            .map(|_| {
                let (_, b) = small_label(&mut rng);
                ((rng.gen_range(0..2u8), rng.gen_range(1..=4u32)), b)
            })
            .collect();
        universe.sort();
        universe.dedup();
        universe
    }

    #[test]
    fn borrowed_candidates_materialize_to_the_literal_pool() {
        // The borrowed (shape, indices) candidates of a pool entry, built
        // as graphs, are exactly the pool of graphs the builder used to
        // return (the 2-hop filtered candidate pool, one per class), in
        // order, each node marked with its label's interned encoding.
        let mut universe = triangle_universe();
        universe.push((((), 1u32), BitString::from_bits([true])));
        universe.push((((), 4u32), BitString::from_bits([false])));
        universe.sort();
        for max_nodes in 1..=4 {
            let mut views = ViewIds::new();
            let pool = two_hop_colored_pool(max_nodes, &universe, |((_i, c), _b)| c).unwrap();
            let entry = filter_pool(&MisProblem, &universe, pool, &mut views).unwrap();
            let literal = first_of_each_class(
                candidate_pool(max_nodes, &universe)
                    .unwrap()
                    .into_iter()
                    .filter(|g| coloring::is_two_hop_coloring(&g.map_labels(|((_i, c), _b)| *c)))
                    .collect(),
            );
            let got: Vec<_> =
                (0..entry.candidates.len()).map(|idx| candidate(&entry, idx)).collect();
            let want: Vec<_> = literal
                .into_iter()
                .map(|g| {
                    let m = views.marks(g.labels());
                    (g, m)
                })
                .collect();
            assert!(!got.is_empty());
            assert_eq!(got, want, "{max_nodes} nodes");
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

        /// C3 decided once per shape and input-label ids keeps exactly the
        /// candidates that `is_instance` on each candidate's own inputs
        /// keeps, on a problem whose answer depends on both.
        #[test]
        fn memoized_c3_agrees_with_per_candidate_is_instance(
            seed in 0u64..1_000_000,
            max_nodes in 1..=4usize,
        ) {
            let universe = input_universe(seed);
            let pool = two_hop_colored_pool(max_nodes, &universe, |((_i, c), _b)| c).unwrap();
            let literal = materialize(&pool, &universe);
            let entry = filter_pool(&OnesIndependent, &universe, pool, &mut ViewIds::new()).unwrap();
            let got: Vec<_> = (0..entry.candidates.len()).map(|idx| entry.graph(idx).unwrap()).collect();
            let want: Vec<_> = literal
                .into_iter()
                .filter(|g| OnesIndependent.is_instance(&g.map_labels(|((i, _c), _b)| *i)))
                .collect();
            proptest::prop_assert_eq!(got, want);
        }
    }

    #[test]
    fn pool_builds_count_their_candidates() {
        let universe = triangle_universe();
        let rec = MemoryRecorder::new();
        let mut cache: AstarCache<(), u32> = AstarCache::new();
        let u = universe_in(&mut cache, &universe);
        let views = cache.view_ids(&triangle_ip(), 3);
        let key = cache.ensure_pool(&MisProblem, 3, &views, u, &rec).unwrap();
        let entry = &cache.pools[&key];
        let built = entry.candidates.len();
        assert_eq!(built, 10);
        assert_eq!(rec.snapshot().counter(names::ASTAR_POOL_CANDIDATES), built as u64);
        // Only the candidates the depth-3 index names are quotiented: the
        // triangle, whose views are the instance's, and the three one-node
        // candidates, whose view at any depth is a depth-1 view the
        // instance's sweep interned.
        assert_eq!(entry.quotients.len(), 4);
        assert_eq!(rec.snapshot().counter(names::ASTAR_POOL_QUOTIENTS), 4);
        assert!(entry.quotients.len() <= built);
        // A hit builds no pool, so the candidate counter stays; the fresh
        // depth-4 index names only candidates depth 3 already quotiented.
        let views = cache.view_ids(&triangle_ip(), 4);
        let u = universe_in(&mut cache, &universe);
        cache.ensure_pool(&MisProblem, 3, &views, u, &rec).unwrap();
        assert_eq!(rec.snapshot().counter(names::ASTAR_POOL_CANDIDATES), built as u64);
        assert_eq!(rec.snapshot().counter(names::ASTAR_POOL_QUOTIENTS), 4);
    }
}
