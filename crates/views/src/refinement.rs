//! Color refinement: the linear-time equivalent of view equality.
//!
//! Classic fact (implicit in the paper's use of Norris [39]): two nodes
//! have equal depth-`(k+1)` local views iff `k` rounds of color refinement
//! place them in the same class. Refinement partitions only ever get
//! finer, so they stabilize after at most `n - 1` rounds — the
//! finite-depth phenomenon that Section 3 of the paper exploits.
//!
//! Two engines share the round semantics:
//!
//! * [`Refinement`] — the literal full-history reference: retains every
//!   round (`O(n·rounds)` memory) and builds each round from
//!   [`round_keys`] and [`assign_dense_classes`]. It is kept as the test
//!   oracle for the other and as E21's from-scratch baseline.
//! * [`BoundedRefinement`] — identical classes and depth, but retains
//!   only the last two rounds plus the stable partition, and builds each
//!   round with one flat, allocation-free kernel. The engine behind
//!   quotients, the canonical order, Norris reports, and everything that
//!   reads only the stable partition.

use std::collections::BTreeMap;

use anonet_graph::{Graph, Label, LabeledGraph, NodeId};

/// Which notion of view equivalence to compute.
///
/// See the crate docs for the full discussion; in short:
/// [`ViewMode::Portless`] is the paper's literal definition, while
/// [`ViewMode::PortAware`] additionally distinguishes port structure and
/// is what lifting arbitrary port-sensitive algorithms requires.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default)]
pub enum ViewMode {
    /// Views record node labels only (paper, Section 1.1). This is the
    /// paper-exact notion and the default: the derandomization machinery
    /// pairs it with *port-oblivious* algorithms, which by the paper's
    /// Section 1.3 remark lose no power on 2-hop colored graphs.
    #[default]
    Portless,
    /// Views additionally record, for each port `p`, the port through
    /// which the neighbor reached via `p` sees this node. Strictly finer
    /// than [`ViewMode::Portless`] (port numberings can break symmetry);
    /// used by the experiments that study the effect of ports.
    PortAware,
}

/// One node's composite key for a refinement round: its previous class
/// and its neighbor multiset/vector of `(previous class, reverse port)`.
type RoundKey = (u32, Vec<(u32, u32)>);

/// The canonical round-0 partition: dense class ids assigned by sorted
/// label encodings. [`BoundedRefinement`] computes the same ids from one
/// flat encoding buffer.
fn initial_label_classes<L: Label>(g: &LabeledGraph<L>) -> Vec<u32> {
    let keys0: Vec<Vec<u8>> = g.graph().nodes().map(|v| g.label(v).encoded()).collect();
    assign_dense_classes(&keys0)
}

/// Every node's refinement key for one round, given the previous
/// round's classes. Under [`ViewMode::Portless`] the neighbor list is
/// sorted into a multiset; under [`ViewMode::PortAware`] it stays in port
/// order and carries reverse ports.
fn round_keys<L: Label>(g: &LabeledGraph<L>, prev: &[u32], mode: ViewMode) -> Vec<RoundKey> {
    let graph = g.graph();
    graph
        .nodes()
        .map(|v| {
            let mut nbrs: Vec<(u32, u32)> = graph
                .neighbors(v)
                .iter()
                .enumerate()
                .map(|(p, &u)| {
                    let rev = match mode {
                        ViewMode::Portless => 0,
                        ViewMode::PortAware => {
                            graph.reverse_port(v, anonet_graph::Port::new(p)).index() as u32
                        }
                    };
                    (prev[u.index()], rev)
                })
                .collect();
            if mode == ViewMode::Portless {
                // Neighbor multiset, not port vector.
                nbrs.sort_unstable();
            }
            (prev[v.index()], nbrs)
        })
        .collect()
}

/// Sorts keys and assigns dense canonical ids by sorted order.
fn assign_dense_classes<K: Ord>(keys: &[K]) -> Vec<u32> {
    let mut sorted: Vec<&K> = keys.iter().collect();
    sorted.sort();
    sorted.dedup();
    let index: BTreeMap<&K, u32> =
        sorted.into_iter().enumerate().map(|(i, k)| (k, i as u32)).collect();
    keys.iter().map(|k| index[k]).collect()
}

fn class_count_of(classes: &[u32]) -> usize {
    let mut seen: Vec<u32> = classes.to_vec();
    seen.sort_unstable();
    seen.dedup();
    seen.len()
}

/// The result of running color refinement to stability, retaining the
/// full per-round history — the literal reference implementation.
///
/// Class identifiers are *canonical*: they are assigned by sorting the
/// refinement keys, so isomorphic labeled graphs receive identical class
/// structures — which is what lets every node of an anonymous network
/// compute the same quotient independently.
///
/// Each round is built literally, from one `round_keys` vector and one
/// `assign_dense_classes` map. This type is an oracle: tests pin
/// [`BoundedRefinement`] to it, and E21 times it as the from-scratch
/// baseline. Production code uses
/// [`BoundedRefinement`], which computes the same classes and depth with
/// `O(n)` memory and no per-node allocation.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Refinement {
    /// `history[k][v]` = class of node `v` after `k` rounds (`k = 0` is
    /// the initial label/degree partition). The last entry is stable.
    history: Vec<Vec<u32>>,
    mode: ViewMode,
}

impl Refinement {
    /// Runs refinement on `g` until the partition stabilizes.
    pub fn compute<L: Label>(g: &LabeledGraph<L>, mode: ViewMode) -> Self {
        let n = g.node_count();

        // Round 0: labels only — so that `classes_at(k)` matches equality
        // of depth-(k+1) views exactly. (Degrees are picked up at round 1
        // as the neighbor-multiset size; the paper's convention that
        // labels include degrees makes the two initial partitions coincide
        // on its instances anyway.)
        let mut history = vec![initial_label_classes(g)];

        loop {
            let prev = history.last().expect("history is non-empty");
            let prev_count = class_count_of(prev);
            let keys = round_keys(g, prev, mode);
            let next = assign_dense_classes(&keys);
            let next_count = class_count_of(&next);
            // Refinement only splits classes, so equal counts ⇒ equal
            // partitions ⇒ stable.
            if next_count == prev_count {
                break;
            }
            history.push(next);
            if history.len() > n + 1 {
                unreachable!("refinement must stabilize within n rounds");
            }
        }

        Refinement { history, mode }
    }

    /// The stable classes, indexed by node.
    pub fn classes(&self) -> &[u32] {
        self.history.last().expect("history is non-empty")
    }

    /// The classes after `k` rounds, if `k` does not exceed the
    /// stabilization depth (the partition no longer changes past it).
    pub fn classes_at(&self, k: usize) -> Option<&[u32]> {
        self.history.get(k).map(Vec::as_slice)
    }

    /// The classes after `k` rounds for any `k`, clamping past stability.
    pub fn classes_at_clamped(&self, k: usize) -> &[u32] {
        let k = k.min(self.history.len() - 1);
        &self.history[k]
    }

    /// Number of stable classes (`|V_∞|` — the size of the paper's
    /// infinite view graph).
    pub fn class_count(&self) -> usize {
        class_count_of(self.classes())
    }

    /// Number of refinement rounds until stability.
    ///
    /// Norris' theorem (paper, Theorem 3) corresponds to the bound
    /// `stabilization_depth() ≤ n - 1`.
    pub fn stabilization_depth(&self) -> usize {
        self.history.len() - 1
    }

    /// `true` iff every node is alone in its class — i.e. all depth-∞
    /// views are distinct (Lemma 4: the graph is prime).
    pub fn is_discrete(&self) -> bool {
        self.class_count() == self.history[0].len()
    }

    /// The mode this refinement was computed under.
    pub fn mode(&self) -> ViewMode {
        self.mode
    }

    /// The stable partition as explicit groups of nodes, ordered by
    /// canonical class id.
    pub fn partition(&self) -> Vec<Vec<NodeId>> {
        partition_of(self.classes(), self.class_count())
    }

    /// The per-round class history of a node — a lexicographic sort key
    /// that totally orders nodes with distinct views in an
    /// isomorphism-invariant way (the canonical order of Section 2.1).
    pub fn history_key(&self, v: NodeId) -> Vec<u32> {
        self.history.iter().map(|round| round[v.index()]).collect()
    }

    /// `true` iff `u` and `v` have equal depth-`(k+1)` local views.
    pub fn view_equal_at(&self, u: NodeId, v: NodeId, k: usize) -> bool {
        let classes = self.classes_at_clamped(k);
        classes[u.index()] == classes[v.index()]
    }

    /// Approximate retained memory — `history` entries only. Compared
    /// against [`BoundedRefinement::retained_bytes`] by E21's RSS proxy.
    pub fn retained_bytes(&self) -> usize {
        self.history.iter().map(|round| round.capacity() * std::mem::size_of::<u32>()).sum()
    }
}

fn partition_of(classes: &[u32], count: usize) -> Vec<Vec<NodeId>> {
    let mut groups: Vec<Vec<NodeId>> = vec![Vec::new(); count];
    for (v, &c) in classes.iter().enumerate() {
        groups[c as usize].push(NodeId::new(v));
    }
    groups
}

/// Sorts the nodes by their flat key slices and numbers them densely in
/// sorted order; returns the class count. Node `v`'s key is
/// `keys[offsets[v]..offsets[v + 1]]`, so `offsets` has `n + 1` entries.
///
/// Slices compare lexicographically, element by element and shorter
/// prefix first — exactly as the label encodings they flatten — so the
/// ids equal [`assign_dense_classes`] on the unflattened keys. `order` is
/// scratch; `ids` is overwritten.
fn dense_ids_flat<T: Ord>(
    keys: &[T],
    offsets: &[usize],
    order: &mut Vec<u32>,
    ids: &mut Vec<u32>,
) -> usize {
    let n = offsets.len() - 1;
    let key = |v: u32| &keys[offsets[v as usize]..offsets[v as usize + 1]];
    order.clear();
    order.extend(0..n as u32);
    order.sort_unstable_by(|&a, &b| key(a).cmp(key(b)));
    ids.clear();
    ids.resize(n, 0);
    let mut count = 0usize;
    let mut last: Option<&[T]> = None;
    for &v in order.iter() {
        let k = key(v);
        if last != Some(k) {
            count += 1;
            last = Some(k);
        }
        ids[v as usize] = (count - 1) as u32;
    }
    count
}

/// The reused buffers of [`BoundedRefinement`]'s round kernel: one flat
/// `u32` key buffer whose per-node slice layout is fixed by the degrees,
/// the node order the buckets permute, and the bucket bounds.
///
/// A [`RoundKey`] starts with the node's previous class, so the global
/// sorted key order is the previous classes in id order, each sorted by
/// the rest of its key. A round therefore counting-sorts the nodes into
/// one bucket per previous class and keys only the rest: node `v`'s slice
/// holds its neighbor classes, sorted under [`ViewMode::Portless`] (the
/// reverse ports of [`round_keys`] are all 0 there, so dropping them
/// preserves the order), and `(class, reverse port)` pairs interleaved in
/// port order under [`ViewMode::PortAware`], whose reverse ports are
/// written once.
struct RoundKernel {
    mode: ViewMode,
    /// Node `v`'s key is `keys[stride·a..stride·b]` for its half-edges
    /// `a..b`: one `u32` per port under [`ViewMode::Portless`], two under
    /// [`ViewMode::PortAware`].
    keys: Vec<u32>,
    order: Vec<u32>,
    bucket_ends: Vec<usize>,
}

impl RoundKernel {
    fn new(graph: &Graph, mode: ViewMode, order: Vec<u32>) -> Self {
        let mut keys = vec![0u32; stride(mode) * 2 * graph.edge_count()];
        if mode == ViewMode::PortAware {
            for v in graph.nodes() {
                for (p, half_edge) in graph.half_edges(v).enumerate() {
                    let rev = graph.reverse_port(v, anonet_graph::Port::new(p));
                    keys[2 * half_edge + 1] = rev.index() as u32;
                }
            }
        }
        RoundKernel { mode, keys, order, bucket_ends: Vec::new() }
    }

    /// Writes node `v`'s key (less its previous class) from `prev`.
    fn write_key(&mut self, graph: &Graph, prev: &[u32], v: usize) {
        let v = NodeId::new(v);
        let key = &mut self.keys[key_range(graph, self.mode, v)];
        let nbrs = graph.neighbors(v);
        match self.mode {
            ViewMode::Portless => {
                for (slot, &u) in key.iter_mut().zip(nbrs) {
                    *slot = prev[u.index()];
                }
                key.sort_unstable();
            }
            ViewMode::PortAware => {
                for (pair, &u) in key.chunks_exact_mut(2).zip(nbrs) {
                    pair[0] = prev[u.index()];
                }
            }
        }
    }

    /// One refinement round from `prev`, which has `prev_count` classes,
    /// into `next`; returns the class count of `next`.
    ///
    /// A singleton bucket keeps one id and builds no key. A bucket whose
    /// keys all equal its first member's stays one class unsorted. Only
    /// mixed buckets sort.
    fn round(
        &mut self,
        graph: &Graph,
        prev: &[u32],
        prev_count: usize,
        next: &mut Vec<u32>,
    ) -> usize {
        let n = prev.len();
        // Counting sort by previous class. After the fill, bucket `c` is
        // `order[bucket_ends[c - 1]..bucket_ends[c]]` (from 0 for `c = 0`).
        self.bucket_ends.clear();
        self.bucket_ends.resize(prev_count, 0);
        for &c in prev {
            self.bucket_ends[c as usize] += 1;
        }
        let mut start = 0;
        for end in self.bucket_ends.iter_mut() {
            (start, *end) = (start + *end, start);
        }
        self.order.clear();
        self.order.resize(n, 0);
        for (v, &c) in prev.iter().enumerate() {
            let end = &mut self.bucket_ends[c as usize];
            self.order[*end] = v as u32;
            *end += 1;
        }

        next.clear();
        next.resize(n, 0);
        let mut count = 0u32;
        let mut lo = 0;
        for c in 0..prev_count {
            let hi = self.bucket_ends[c];
            if hi - lo > 1 {
                for i in lo..hi {
                    let v = self.order[i] as usize;
                    self.write_key(graph, prev, v);
                }
            }
            let (keys, mode) = (&self.keys, self.mode);
            let key = |v: u32| &keys[key_range(graph, mode, NodeId::from(v))];
            let bucket = &mut self.order[lo..hi];
            lo = hi;
            let uniform = bucket.len() == 1 || {
                let first = key(bucket[0]);
                bucket[1..].iter().all(|&v| key(v) == first)
            };
            if uniform {
                for &v in bucket.iter() {
                    next[v as usize] = count;
                }
            } else {
                bucket.sort_unstable_by(|&a, &b| key(a).cmp(key(b)));
                let mut last = key(bucket[0]);
                for &v in bucket.iter() {
                    let k = key(v);
                    if k != last {
                        count += 1;
                        last = k;
                    }
                    next[v as usize] = count;
                }
            }
            count += 1;
        }
        count as usize
    }
}

/// `u32`s per port in a [`RoundKernel`] key.
fn stride(mode: ViewMode) -> usize {
    match mode {
        ViewMode::Portless => 1,
        ViewMode::PortAware => 2,
    }
}

/// Node `v`'s slice of a [`RoundKernel`]'s keys: its half-edges, scaled
/// by the stride.
fn key_range(graph: &Graph, mode: ViewMode, v: NodeId) -> std::ops::Range<usize> {
    let half_edges = graph.half_edges(v);
    stride(mode) * half_edges.start..stride(mode) * half_edges.end
}

/// Every label encoded once into one byte buffer, with `n + 1` offsets
/// delimiting node `v`'s encoding — the flat round-0 keys.
fn encode_labels<L: Label>(g: &LabeledGraph<L>) -> (Vec<u8>, Vec<usize>) {
    let mut bytes = Vec::new();
    let mut offsets = Vec::with_capacity(g.node_count() + 1);
    offsets.push(0);
    for v in g.graph().nodes() {
        g.label(v).encode(&mut bytes);
        offsets.push(bytes.len());
    }
    (bytes, offsets)
}

/// Color refinement with bounded memory: identical classes, class count,
/// and stabilization depth as [`Refinement::compute`], retaining only the
/// last two rounds (the stable partition and its predecessor) instead of
/// the whole `O(n·rounds)` history.
///
/// This is the fix for the `Refinement` memory blow-up: on a uniform
/// path, full history is `Θ(n²/2)` integers; this is `2n`. Each round
/// runs on one flat key buffer that is allocated once per call, and the
/// class count falls out of the dense-id scan instead of a re-sort.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct BoundedRefinement {
    /// The round before stability (equals `stable` when depth is 0).
    penultimate: Vec<u32>,
    /// The stable partition — canonical ids, as in [`Refinement`].
    stable: Vec<u32>,
    class_count: usize,
    depth: usize,
    mode: ViewMode,
}

impl BoundedRefinement {
    /// Runs refinement on `g` until stability, keeping two rounds.
    pub fn compute<L: Label>(g: &LabeledGraph<L>, mode: ViewMode) -> Self {
        let (labels, label_offsets) = encode_labels(g);
        Self::compute_flat(g.graph(), &labels, &label_offsets, mode)
    }

    /// The refinement proper, from the flat label encodings. Not generic
    /// over the label type, so it is compiled once, here.
    fn compute_flat(graph: &Graph, labels: &[u8], label_offsets: &[usize], mode: ViewMode) -> Self {
        let n = graph.node_count();
        let mut order = Vec::with_capacity(n);
        let mut stable = Vec::with_capacity(n);
        // Round 0: labels only, as in `Refinement`.
        let mut class_count = dense_ids_flat(labels, label_offsets, &mut order, &mut stable);
        let mut kernel = RoundKernel::new(graph, mode, order);
        let mut penultimate = Vec::new();
        let mut next = Vec::with_capacity(n);
        let mut depth = 0usize;
        // A discrete partition cannot split, so the certifying round that
        // `Refinement` runs on it would change nothing.
        while class_count < n {
            let next_count = kernel.round(graph, &stable, class_count, &mut next);
            // Refinement only splits classes, so equal counts ⇒ equal
            // partitions ⇒ stable.
            if next_count == class_count {
                break;
            }
            std::mem::swap(&mut penultimate, &mut stable);
            std::mem::swap(&mut stable, &mut next);
            class_count = next_count;
            depth += 1;
            if depth > n {
                unreachable!("refinement must stabilize within n rounds");
            }
        }
        if depth == 0 {
            penultimate = stable.clone();
        }
        BoundedRefinement { penultimate, stable, class_count, depth, mode }
    }

    /// The stable classes, indexed by node — equal to
    /// [`Refinement::classes`].
    pub fn classes(&self) -> &[u32] {
        &self.stable
    }

    /// The round-`(depth-1)` classes (the stable partition itself at
    /// depth 0) — the "last two rounds" the bounded mode retains.
    pub fn penultimate_classes(&self) -> &[u32] {
        &self.penultimate
    }

    /// Number of stable classes.
    pub fn class_count(&self) -> usize {
        self.class_count
    }

    /// Rounds until stability — equal to
    /// [`Refinement::stabilization_depth`].
    pub fn stabilization_depth(&self) -> usize {
        self.depth
    }

    /// `true` iff all views are distinct (the graph is prime).
    pub fn is_discrete(&self) -> bool {
        self.class_count == self.stable.len()
    }

    /// The mode this refinement was computed under.
    pub fn mode(&self) -> ViewMode {
        self.mode
    }

    /// The stable partition as explicit groups, ordered by class id.
    pub fn partition(&self) -> Vec<Vec<NodeId>> {
        partition_of(&self.stable, self.class_count())
    }

    /// Approximate retained memory — two rounds, regardless of depth.
    pub fn retained_bytes(&self) -> usize {
        (self.penultimate.capacity() + self.stable.capacity()) * std::mem::size_of::<u32>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::view_tree::ViewTree;
    use anonet_graph::{generators, Graph};

    fn fig1_c6() -> LabeledGraph<u32> {
        generators::cycle(6).unwrap().with_labels(vec![1u32, 2, 3, 1, 2, 3]).unwrap()
    }

    #[test]
    fn colored_c6_has_three_classes() {
        let r = Refinement::compute(&fig1_c6(), ViewMode::Portless);
        assert_eq!(r.class_count(), 3);
        let c = r.classes();
        assert_eq!(c[0], c[3]);
        assert_eq!(c[1], c[4]);
        assert_eq!(c[2], c[5]);
        assert_ne!(c[0], c[1]);
    }

    #[test]
    fn uniform_cycle_is_one_class() {
        let g = generators::cycle(7).unwrap().with_uniform_label(0u8);
        let r = Refinement::compute(&g, ViewMode::Portless);
        assert_eq!(r.class_count(), 1);
        assert!(!r.is_discrete());
    }

    #[test]
    fn port_numberings_can_break_symmetry() {
        // The cycle generator wires port 0 toward the successor for every
        // node except the last, whose ports are swapped — a genuinely
        // asymmetric port numbering. Portless views cannot see it; the
        // port-aware refinement splits the single class.
        let g = generators::cycle(7).unwrap().with_uniform_label(0u8);
        let portless = Refinement::compute(&g, ViewMode::Portless);
        let aware = Refinement::compute(&g, ViewMode::PortAware);
        assert_eq!(portless.class_count(), 1);
        assert!(aware.class_count() > 1);
    }

    #[test]
    fn path_refinement_is_discrete_up_to_mirror() {
        // P5 with uniform labels: refinement distinguishes by distance to
        // the ends, but the mirror symmetry survives: classes {0,4},{1,3},{2}.
        let g = generators::path(5).unwrap().with_uniform_label(0u8);
        let r = Refinement::compute(&g, ViewMode::Portless);
        assert_eq!(r.class_count(), 3);
        let c = r.classes();
        assert_eq!(c[0], c[4]);
        assert_eq!(c[1], c[3]);
        assert_ne!(c[0], c[1]);
        assert_ne!(c[1], c[2]);
    }

    #[test]
    fn refinement_matches_explicit_views() {
        // classes_at(k) must equal depth-(k+1) view equality, node pair by
        // node pair — the standard refinement/view correspondence.
        let graphs = vec![
            fig1_c6(),
            generators::path(6).unwrap().with_uniform_label(0u32),
            generators::petersen().with_degree_labels(),
            Graph::from_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 1)])
                .unwrap()
                .with_uniform_label(0u32),
        ];
        for g in graphs {
            let r = Refinement::compute(&g, ViewMode::Portless);
            let n = g.node_count();
            for k in 0..=r.stabilization_depth() {
                let views: Vec<ViewTree<u32>> = (0..n)
                    .map(|v| ViewTree::build(&g, NodeId::new(v), k + 1).unwrap().canonicalize())
                    .collect();
                for u in 0..n {
                    for v in 0..n {
                        let by_view = views[u].encoded() == views[v].encoded();
                        let by_ref = r.view_equal_at(NodeId::new(u), NodeId::new(v), k);
                        assert_eq!(by_view, by_ref, "mismatch at depth {k} for nodes {u},{v}");
                    }
                }
            }
        }
    }

    #[test]
    fn stabilization_within_n_minus_one() {
        let graphs: Vec<LabeledGraph<u32>> = vec![
            generators::path(9).unwrap().with_uniform_label(0u32),
            generators::cycle(8).unwrap().with_uniform_label(0u32),
            generators::petersen().with_uniform_label(0u32),
            fig1_c6(),
        ];
        for g in graphs {
            for mode in [ViewMode::Portless, ViewMode::PortAware] {
                let r = Refinement::compute(&g, mode);
                assert!(
                    r.stabilization_depth() <= g.node_count().saturating_sub(1),
                    "depth {} exceeds n-1",
                    r.stabilization_depth()
                );
            }
        }
    }

    #[test]
    fn port_aware_is_at_least_as_fine() {
        for g in [fig1_c6(), generators::petersen().with_uniform_label(0u32)] {
            let portless = Refinement::compute(&g, ViewMode::Portless);
            let aware = Refinement::compute(&g, ViewMode::PortAware);
            assert!(aware.class_count() >= portless.class_count());
            // Same port-aware class ⇒ same portless class.
            let n = g.node_count();
            for u in 0..n {
                for v in 0..n {
                    if aware.classes()[u] == aware.classes()[v] {
                        assert_eq!(portless.classes()[u], portless.classes()[v]);
                    }
                }
            }
        }
    }

    #[test]
    fn history_keys_are_distinct_exactly_when_discrete() {
        let ids = generators::petersen().with_labels((0..10u32).collect()).unwrap();
        let r = Refinement::compute(&ids, ViewMode::Portless);
        assert!(r.is_discrete());
        let mut keys: Vec<Vec<u32>> = (0..10).map(|v| r.history_key(NodeId::new(v))).collect();
        keys.sort();
        keys.dedup();
        assert_eq!(keys.len(), 10);
    }

    #[test]
    fn canonical_ids_are_isomorphism_invariant() {
        // The same colored cycle presented with rotated node names must
        // yield the same multiset of (class id, label) pairs.
        let a = fig1_c6();
        let rot = generators::cycle(6).unwrap().with_labels(vec![3u32, 1, 2, 3, 1, 2]).unwrap();
        let ra = Refinement::compute(&a, ViewMode::Portless);
        let rb = Refinement::compute(&rot, ViewMode::Portless);
        let mut pa: Vec<(u32, u32)> =
            (0..6).map(|v| (ra.classes()[v], *a.label(NodeId::new(v)))).collect();
        let mut pb: Vec<(u32, u32)> =
            (0..6).map(|v| (rb.classes()[v], *rot.label(NodeId::new(v)))).collect();
        pa.sort();
        pb.sort();
        assert_eq!(pa, pb);
    }

    #[test]
    fn partition_groups_match_classes() {
        let g = generators::path(5).unwrap().with_uniform_label(0u8);
        let r = Refinement::compute(&g, ViewMode::Portless);
        let groups = r.partition();
        assert_eq!(groups.len(), 3);
        assert_eq!(groups.iter().map(Vec::len).sum::<usize>(), 5);
        // Mirror pairs share a group.
        let find = |v: usize| groups.iter().position(|grp| grp.contains(&NodeId::new(v))).unwrap();
        assert_eq!(find(0), find(4));
        assert_eq!(find(1), find(3));
        assert_ne!(find(0), find(2));
    }

    #[test]
    fn classes_at_and_clamping() {
        let g = generators::path(6).unwrap().with_uniform_label(0u8);
        let r = Refinement::compute(&g, ViewMode::Portless);
        assert!(r.classes_at(0).is_some());
        assert!(r.classes_at(r.stabilization_depth()).is_some());
        assert!(r.classes_at(r.stabilization_depth() + 1).is_none());
        assert_eq!(r.classes_at_clamped(999), r.classes());
    }

    // ---- bounded mode ---------------------------------------------------

    fn test_graphs() -> Vec<LabeledGraph<u32>> {
        vec![
            fig1_c6(),
            generators::path(9).unwrap().with_uniform_label(0u32),
            generators::cycle(8).unwrap().with_uniform_label(0u32),
            generators::petersen().with_uniform_label(0u32),
            generators::petersen().with_labels((0..10u32).collect()).unwrap(),
            generators::grid(3, 4, false).unwrap().with_uniform_label(0u32),
            generators::hypercube(3).unwrap().with_uniform_label(0u32),
            Graph::from_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 1)])
                .unwrap()
                .with_uniform_label(0u32),
        ]
    }

    #[test]
    fn bounded_matches_full_exactly() {
        for g in test_graphs() {
            for mode in [ViewMode::Portless, ViewMode::PortAware] {
                let full = Refinement::compute(&g, mode);
                let bounded = BoundedRefinement::compute(&g, mode);
                assert_eq!(bounded.classes(), full.classes(), "{mode:?}");
                assert_eq!(bounded.class_count(), full.class_count());
                assert_eq!(bounded.stabilization_depth(), full.stabilization_depth());
                assert_eq!(bounded.is_discrete(), full.is_discrete());
                assert_eq!(bounded.partition(), full.partition());
                assert_eq!(
                    bounded.penultimate_classes(),
                    full.classes_at_clamped(full.stabilization_depth().saturating_sub(1))
                );
            }
        }
    }

    #[test]
    fn bounded_memory_beats_full_history_on_paths() {
        // The uniform path is the O(n·rounds) worst case the bounded mode
        // exists for.
        let g = generators::path(40).unwrap().with_uniform_label(0u32);
        let full = Refinement::compute(&g, ViewMode::Portless);
        let bounded = BoundedRefinement::compute(&g, ViewMode::Portless);
        assert!(full.stabilization_depth() > 10);
        assert!(bounded.retained_bytes() < full.retained_bytes() / 4);
    }
}
