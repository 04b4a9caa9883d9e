//! Generators for the graph families used across the experiments.
//!
//! All generators return **connected simple** graphs (the paper's model
//! only considers those) or an error when the parameters make that
//! impossible. Randomized generators take an explicit `Rng` so every
//! experiment is reproducible from a seed.

// anonet-lint: allow-file(randomness, reason = "seeded instance generators build experiment inputs, not pipeline state")
use rand::seq::SliceRandom;
use rand::Rng;

use crate::error::GraphError;
use crate::graph::{Graph, GraphBuilder};
use crate::Result;

/// The cycle `C_n` (`n ≥ 3`), nodes in ring order.
///
/// # Errors
///
/// Returns [`GraphError::InvalidParameter`] for `n < 3`.
pub fn cycle(n: usize) -> Result<Graph> {
    if n < 3 {
        return Err(GraphError::InvalidParameter {
            reason: format!("cycle requires n >= 3, got {n}"),
        });
    }
    let mut b = GraphBuilder::new(n);
    for i in 0..n {
        b = b.edge(i, (i + 1) % n)?;
    }
    b.build()
}

/// The path `P_n` (`n ≥ 1`), nodes in line order.
///
/// # Errors
///
/// Returns [`GraphError::InvalidParameter`] for `n = 0`.
pub fn path(n: usize) -> Result<Graph> {
    if n == 0 {
        return Err(GraphError::InvalidParameter { reason: "path requires n >= 1".into() });
    }
    let mut b = GraphBuilder::new(n);
    for i in 1..n {
        b = b.edge(i - 1, i)?;
    }
    b.build()
}

/// The complete graph `K_n` (`n ≥ 1`).
///
/// # Errors
///
/// Returns [`GraphError::InvalidParameter`] for `n = 0`.
pub fn complete(n: usize) -> Result<Graph> {
    if n == 0 {
        return Err(GraphError::InvalidParameter { reason: "complete requires n >= 1".into() });
    }
    let mut b = GraphBuilder::new(n);
    for u in 0..n {
        for v in (u + 1)..n {
            b = b.edge(u, v)?;
        }
    }
    b.build()
}

/// The star `K_{1,n-1}` (`n ≥ 2`): node 0 is the center.
///
/// # Errors
///
/// Returns [`GraphError::InvalidParameter`] for `n < 2`.
pub fn star(n: usize) -> Result<Graph> {
    if n < 2 {
        return Err(GraphError::InvalidParameter { reason: "star requires n >= 2".into() });
    }
    let mut b = GraphBuilder::new(n);
    for v in 1..n {
        b = b.edge(0, v)?;
    }
    b.build()
}

/// The `w × h` grid; with `wrap = true`, the torus (requires `w, h ≥ 3`
/// when wrapping, so no parallel edges arise).
///
/// Node `(x, y)` has index `y * w + x`.
///
/// # Errors
///
/// Returns [`GraphError::InvalidParameter`] if a side is zero, or when
/// wrapping with a side `< 3`.
pub fn grid(w: usize, h: usize, wrap: bool) -> Result<Graph> {
    if w == 0 || h == 0 {
        return Err(GraphError::InvalidParameter { reason: "grid sides must be >= 1".into() });
    }
    if wrap && (w < 3 || h < 3) {
        return Err(GraphError::InvalidParameter {
            reason: "torus requires both sides >= 3 to stay simple".into(),
        });
    }
    if !wrap && w == 1 && h == 1 {
        return GraphBuilder::new(1).build();
    }
    let idx = |x: usize, y: usize| y * w + x;
    let mut b = GraphBuilder::new(w * h);
    for y in 0..h {
        for x in 0..w {
            if x + 1 < w {
                b = b.edge(idx(x, y), idx(x + 1, y))?;
            } else if wrap {
                b = b.edge(idx(x, y), idx(0, y))?;
            }
            if y + 1 < h {
                b = b.edge(idx(x, y), idx(x, y + 1))?;
            } else if wrap {
                b = b.edge(idx(x, y), idx(x, 0))?;
            }
        }
    }
    b.build()
}

/// The `d`-dimensional hypercube `Q_d` (`d ≥ 1`), `2^d` nodes.
///
/// # Errors
///
/// Returns [`GraphError::InvalidParameter`] for `d = 0` or `d > 20`.
pub fn hypercube(d: usize) -> Result<Graph> {
    if d == 0 || d > 20 {
        return Err(GraphError::InvalidParameter {
            reason: format!("hypercube requires 1 <= d <= 20, got {d}"),
        });
    }
    let n = 1usize << d;
    let mut b = GraphBuilder::new(n);
    for v in 0..n {
        for bit in 0..d {
            let u = v ^ (1 << bit);
            if v < u {
                b = b.edge(v, u)?;
            }
        }
    }
    b.build()
}

/// The wheel `W_n`: a hub (node 0) connected to every node of an outer
/// `(n-1)`-cycle (`n ≥ 4`).
///
/// # Errors
///
/// Returns [`GraphError::InvalidParameter`] for `n < 4`.
pub fn wheel(n: usize) -> Result<Graph> {
    if n < 4 {
        return Err(GraphError::InvalidParameter {
            reason: format!("wheel requires n >= 4, got {n}"),
        });
    }
    let rim = n - 1;
    let mut b = GraphBuilder::new(n);
    for i in 0..rim {
        b = b.edge(1 + i, 1 + (i + 1) % rim)?;
        b = b.edge(0, 1 + i)?;
    }
    b.build()
}

/// The complete bipartite graph `K_{a,b}` (`a, b ≥ 1`); the first `a`
/// nodes form one side.
///
/// # Errors
///
/// Returns [`GraphError::InvalidParameter`] if a side is empty.
pub fn complete_bipartite(a: usize, b: usize) -> Result<Graph> {
    if a == 0 || b == 0 {
        return Err(GraphError::InvalidParameter { reason: "both sides must be non-empty".into() });
    }
    let mut builder = GraphBuilder::new(a + b);
    for u in 0..a {
        for v in 0..b {
            builder = builder.edge(u, a + v)?;
        }
    }
    builder.build()
}

/// The circulant graph `C_n(offsets)`: node `i` is adjacent to
/// `i ± o mod n` for each offset `o`. Offsets must be distinct, in
/// `1..=n/2`, and produce a connected graph (offset 1 suffices).
///
/// # Errors
///
/// Returns [`GraphError::InvalidParameter`] for bad offsets and
/// [`GraphError::Disconnected`] if the chosen offsets do not connect.
pub fn circulant(n: usize, offsets: &[usize]) -> Result<Graph> {
    if n < 3 {
        return Err(GraphError::InvalidParameter { reason: "circulant requires n >= 3".into() });
    }
    let mut sorted = offsets.to_vec();
    sorted.sort_unstable();
    sorted.dedup();
    if sorted.len() != offsets.len() || sorted.iter().any(|&o| o == 0 || o > n / 2) {
        return Err(GraphError::InvalidParameter {
            reason: format!("offsets must be distinct and within 1..={}", n / 2),
        });
    }
    let mut b = GraphBuilder::new(n);
    for i in 0..n {
        for &o in &sorted {
            let j = (i + o) % n;
            // Each undirected edge once: skip the mirrored insertion
            // (for o = n/2 with even n, i + o and i - o coincide).
            match b.clone().edge(i, j) {
                Ok(nb) => b = nb,
                Err(GraphError::ParallelEdge { .. }) => {}
                Err(e) => return Err(e),
            }
        }
    }
    b.build()
}

/// The Petersen graph (10 nodes, 3-regular, diameter 2).
pub fn petersen() -> Graph {
    let mut b = GraphBuilder::new(10);
    // outer 5-cycle 0..4, inner 5-star 5..9, spokes i -- i+5
    for i in 0..5 {
        b = b.edge(i, (i + 1) % 5).expect("static edges are valid");
        b = b.edge(5 + i, 5 + (i + 2) % 5).expect("static edges are valid");
        b = b.edge(i, i + 5).expect("static edges are valid");
    }
    b.build().expect("the Petersen graph is connected")
}

/// A uniformly random labeled tree on `n ≥ 1` nodes (via Prüfer sequences).
///
/// # Errors
///
/// Returns [`GraphError::InvalidParameter`] for `n = 0`.
pub fn random_tree<R: Rng + ?Sized>(n: usize, rng: &mut R) -> Result<Graph> {
    if n == 0 {
        return Err(GraphError::InvalidParameter { reason: "tree requires n >= 1".into() });
    }
    if n == 1 {
        return GraphBuilder::new(1).build();
    }
    if n == 2 {
        return GraphBuilder::new(2).edge(0, 1)?.build();
    }
    // Prüfer decoding.
    let prufer: Vec<usize> = (0..n - 2).map(|_| rng.gen_range(0..n)).collect();
    let mut degree = vec![1usize; n];
    for &v in &prufer {
        degree[v] += 1;
    }
    let mut b = GraphBuilder::new(n);
    let mut used = vec![false; n];
    for &v in &prufer {
        let leaf = (0..n).find(|&u| degree[u] == 1 && !used[u]).expect("a leaf always exists");
        b = b.edge(leaf, v)?;
        used[leaf] = true;
        degree[leaf] -= 1;
        degree[v] -= 1;
    }
    let remaining: Vec<usize> = (0..n).filter(|&u| !used[u] && degree[u] == 1).collect();
    debug_assert_eq!(remaining.len(), 2);
    b = b.edge(remaining[0], remaining[1])?;
    b.build()
}

/// A connected Erdős–Rényi graph: sample `G(n, p)` and, if disconnected,
/// add one uniformly random edge between distinct components until
/// connected. `n ≥ 1`, `0 ≤ p ≤ 1`.
///
/// # Errors
///
/// Returns [`GraphError::InvalidParameter`] for `n = 0` or `p ∉ [0, 1]`.
pub fn gnp_connected<R: Rng + ?Sized>(n: usize, p: f64, rng: &mut R) -> Result<Graph> {
    if n == 0 {
        return Err(GraphError::InvalidParameter { reason: "gnp requires n >= 1".into() });
    }
    if !(0.0..=1.0).contains(&p) {
        return Err(GraphError::InvalidParameter {
            reason: format!("p must lie in [0, 1], got {p}"),
        });
    }
    let mut adj = vec![std::collections::BTreeSet::new(); n];
    for u in 0..n {
        for v in (u + 1)..n {
            if rng.gen_bool(p) {
                adj[u].insert(v);
                adj[v].insert(u);
            }
        }
    }
    // Union-find to stitch components together.
    let mut parent: Vec<usize> = (0..n).collect();
    fn find(parent: &mut Vec<usize>, x: usize) -> usize {
        if parent[x] != x {
            let root = find(parent, parent[x]);
            parent[x] = root;
        }
        parent[x]
    }
    for (u, nbrs) in adj.iter().enumerate() {
        for &v in nbrs {
            let (ru, rv) = (find(&mut parent, u), find(&mut parent, v));
            if ru != rv {
                parent[ru] = rv;
            }
        }
    }
    loop {
        let roots: Vec<usize> = (0..n).filter(|&v| find(&mut parent, v) == v).collect();
        if roots.len() <= 1 {
            break;
        }
        // Connect two random nodes in different components.
        let a = rng.gen_range(0..n);
        let b = rng.gen_range(0..n);
        let (ra, rb) = (find(&mut parent, a), find(&mut parent, b));
        if ra != rb && !adj[a].contains(&b) {
            adj[a].insert(b);
            adj[b].insert(a);
            parent[ra] = rb;
        }
    }
    let mut builder = GraphBuilder::new(n);
    for (u, nbrs) in adj.iter().enumerate() {
        for &v in nbrs {
            if u < v {
                builder = builder.edge(u, v)?;
            }
        }
    }
    builder.build()
}

/// A random `d`-regular connected graph on `n` nodes via the pairing
/// (configuration) model with rejection, retrying up to `max_tries` times.
///
/// # Errors
///
/// Returns [`GraphError::InvalidParameter`] if `n·d` is odd, `d ≥ n`, or
/// `d = 0` with `n > 1`; returns [`GraphError::RetriesExhausted`] if no
/// simple connected pairing is found within the budget.
pub fn random_regular<R: Rng + ?Sized>(
    n: usize,
    d: usize,
    max_tries: usize,
    rng: &mut R,
) -> Result<Graph> {
    if n == 0 {
        return Err(GraphError::InvalidParameter {
            reason: "random_regular requires n >= 1".into(),
        });
    }
    if n == 1 && d == 0 {
        return GraphBuilder::new(1).build();
    }
    if d == 0 || d >= n || !(n * d).is_multiple_of(2) {
        return Err(GraphError::InvalidParameter {
            reason: format!(
                "no simple {d}-regular graph on {n} nodes (need d < n, n*d even, d >= 1)"
            ),
        });
    }
    for _ in 0..max_tries {
        // Half-edges: d copies of each node, shuffled and paired.
        let mut stubs: Vec<usize> = (0..n).flat_map(|v| std::iter::repeat_n(v, d)).collect();
        stubs.shuffle(rng);
        let graph = stubs
            .chunks(2)
            .try_fold(GraphBuilder::new(n), |b, pair| b.edge(pair[0], pair[1]))
            .and_then(GraphBuilder::build);
        if let Ok(g) = graph {
            return Ok(g);
        }
    }
    Err(GraphError::RetriesExhausted {
        what: format!("a connected {d}-regular graph on {n} nodes"),
        attempts: max_tries,
    })
}

/// The generator families, reified for structured instance generation
/// (the testkit's seeded DSL iterates over these).
///
/// Each family knows how to [`sample`](Family::sample) a **connected**
/// graph of roughly `n` nodes from an explicit RNG, clamping `n` into the
/// family's feasible range — a total function on `n ≥ 1`, so sweeps never
/// have to special-case parameter validity.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum Family {
    /// [`cycle`] (`n` clamped to ≥ 3).
    Cycle,
    /// [`path`].
    Path,
    /// [`complete`] (`n` clamped to ≤ 8 to keep instances small).
    Complete,
    /// [`star`] (`n` clamped to ≥ 2).
    Star,
    /// [`grid`] without wrapping, sides near `√n`.
    Grid,
    /// [`grid`] with wrapping (torus), sides clamped to ≥ 3.
    Torus,
    /// [`hypercube`] with `d = ⌈log₂ n⌉` clamped to `1..=4`.
    Hypercube,
    /// [`wheel`] (`n` clamped to ≥ 4).
    Wheel,
    /// [`complete_bipartite`] with sides `⌈n/2⌉` and `⌊n/2⌋`.
    Bipartite,
    /// [`circulant`] with offsets `{1, 2}` (`n` clamped to ≥ 5).
    Circulant,
    /// [`petersen`] (ignores `n`).
    Petersen,
    /// [`random_tree`].
    Tree,
    /// [`gnp_connected`] with `p = 0.4` (`n` clamped to ≥ 2).
    Gnp,
    /// [`random_regular`] with `d = 3` (`n` clamped to an even value ≥ 4).
    Regular,
}

impl Family {
    /// Every family, in the order sweeps iterate them.
    pub const ALL: [Family; 14] = [
        Family::Cycle,
        Family::Path,
        Family::Complete,
        Family::Star,
        Family::Grid,
        Family::Torus,
        Family::Hypercube,
        Family::Wheel,
        Family::Bipartite,
        Family::Circulant,
        Family::Petersen,
        Family::Tree,
        Family::Gnp,
        Family::Regular,
    ];

    /// The family's stable lowercase name (used by replay encodings).
    pub fn name(self) -> &'static str {
        match self {
            Family::Cycle => "cycle",
            Family::Path => "path",
            Family::Complete => "complete",
            Family::Star => "star",
            Family::Grid => "grid",
            Family::Torus => "torus",
            Family::Hypercube => "hypercube",
            Family::Wheel => "wheel",
            Family::Bipartite => "bipartite",
            Family::Circulant => "circulant",
            Family::Petersen => "petersen",
            Family::Tree => "tree",
            Family::Gnp => "gnp",
            Family::Regular => "regular",
        }
    }

    /// Samples a connected graph of roughly `n` nodes (`n ≥ 1`; each
    /// family clamps into its feasible range, so the exact node count may
    /// differ — read it off the result).
    ///
    /// Deterministic given the RNG state; deterministic families ignore
    /// the RNG entirely.
    ///
    /// # Errors
    ///
    /// Only the propagated generator errors that the clamps cannot rule
    /// out (e.g. [`GraphError::RetriesExhausted`] from
    /// [`random_regular`], which is practically unreachable at `d = 3`).
    pub fn sample<R: Rng + ?Sized>(self, n: usize, rng: &mut R) -> Result<Graph> {
        let n = n.max(1);
        match self {
            Family::Cycle => cycle(n.max(3)),
            Family::Path => path(n),
            Family::Complete => complete(n.min(8)),
            Family::Star => star(n.max(2)),
            Family::Grid => {
                let w = (1..).find(|w| w * w >= n).expect("squares are unbounded");
                grid(w, n.div_ceil(w).max(1), false)
            }
            Family::Torus => {
                let w = 3usize;
                grid(w, (n.div_ceil(w)).max(3), true)
            }
            Family::Hypercube => {
                let d = (1..).find(|d| 1usize << d >= n).expect("powers are unbounded");
                hypercube(d.clamp(1, 4))
            }
            Family::Wheel => wheel(n.max(4)),
            Family::Bipartite => complete_bipartite(n.div_ceil(2), (n / 2).max(1)),
            Family::Circulant => circulant(n.max(5), &[1, 2]),
            Family::Petersen => Ok(petersen()),
            Family::Tree => random_tree(n, rng),
            Family::Gnp => gnp_connected(n.max(2), 0.4, rng),
            Family::Regular => {
                let n = if n < 4 {
                    4
                } else {
                    n + n % 2 // 3-regular needs n·d even
                };
                random_regular(n, 3, 200, rng)
            }
        }
    }
}

impl std::str::FromStr for Family {
    type Err = GraphError;

    fn from_str(s: &str) -> Result<Self> {
        Family::ALL
            .into_iter()
            .find(|f| f.name() == s)
            .ok_or_else(|| GraphError::InvalidParameter { reason: format!("unknown family {s:?}") })
    }
}

impl std::fmt::Display for Family {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn families_sample_connected_graphs_for_all_small_n() {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        for family in Family::ALL {
            for n in 1..=13 {
                let g = family
                    .sample(n, &mut rng)
                    .unwrap_or_else(|e| panic!("{family} failed at n={n}: {e}"));
                assert!(g.is_connected(), "{family} produced a disconnected graph at n={n}");
                assert!(g.node_count() >= 1);
            }
        }
    }

    #[test]
    fn family_names_roundtrip() {
        for family in Family::ALL {
            assert_eq!(family.name().parse::<Family>().unwrap(), family);
        }
        assert!("triangle".parse::<Family>().is_err());
    }

    #[test]
    fn family_sampling_is_deterministic_per_rng_state() {
        let a = Family::Gnp.sample(9, &mut ChaCha8Rng::seed_from_u64(5)).unwrap();
        let b = Family::Gnp.sample(9, &mut ChaCha8Rng::seed_from_u64(5)).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn cycle_shape() {
        let g = cycle(6).unwrap();
        assert_eq!(g.node_count(), 6);
        assert_eq!(g.edge_count(), 6);
        assert!(g.nodes().all(|v| g.degree(v) == 2));
        assert!(cycle(2).is_err());
    }

    #[test]
    fn path_shape() {
        let g = path(5).unwrap();
        assert_eq!(g.edge_count(), 4);
        assert_eq!(g.degree(crate::NodeId::new(0)), 1);
        assert_eq!(g.degree(crate::NodeId::new(2)), 2);
        assert!(path(0).is_err());
    }

    #[test]
    fn complete_shape() {
        let g = complete(5).unwrap();
        assert_eq!(g.edge_count(), 10);
        assert!(g.nodes().all(|v| g.degree(v) == 4));
    }

    #[test]
    fn star_shape() {
        let g = star(5).unwrap();
        assert_eq!(g.degree(crate::NodeId::new(0)), 4);
        assert_eq!(g.edge_count(), 4);
    }

    #[test]
    fn grid_and_torus() {
        let g = grid(3, 4, false).unwrap();
        assert_eq!(g.node_count(), 12);
        assert_eq!(g.edge_count(), 3 * 3 + 2 * 4); // vertical + horizontal
        let t = grid(3, 3, true).unwrap();
        assert!(t.nodes().all(|v| t.degree(v) == 4));
        assert!(grid(2, 3, true).is_err());
    }

    #[test]
    fn hypercube_shape() {
        let g = hypercube(4).unwrap();
        assert_eq!(g.node_count(), 16);
        assert!(g.nodes().all(|v| g.degree(v) == 4));
        assert!(hypercube(0).is_err());
    }

    #[test]
    fn wheel_shape() {
        let g = wheel(7).unwrap();
        assert_eq!(g.node_count(), 7);
        assert_eq!(g.degree(crate::NodeId::new(0)), 6);
        for v in 1..7 {
            assert_eq!(g.degree(crate::NodeId::new(v)), 3);
        }
        assert!(wheel(3).is_err());
    }

    #[test]
    fn complete_bipartite_shape() {
        let g = complete_bipartite(3, 4).unwrap();
        assert_eq!(g.node_count(), 7);
        assert_eq!(g.edge_count(), 12);
        assert_eq!(g.degree(crate::NodeId::new(0)), 4);
        assert_eq!(g.degree(crate::NodeId::new(3)), 3);
        assert!(complete_bipartite(0, 3).is_err());
    }

    #[test]
    fn circulant_shapes() {
        // C_8(1) is the cycle.
        let g = circulant(8, &[1]).unwrap();
        assert_eq!(g.edge_count(), 8);
        // C_8(1, 2): 4-regular.
        let g = circulant(8, &[1, 2]).unwrap();
        assert!(g.nodes().all(|v| g.degree(v) == 4));
        // n/2 offset on even n gives a perfect-matching chord set.
        let g = circulant(6, &[1, 3]).unwrap();
        assert!(g.nodes().all(|v| g.degree(v) == 3));
        assert!(circulant(6, &[0]).is_err());
        assert!(circulant(6, &[4]).is_err());
        assert!(circulant(6, &[1, 1]).is_err());
    }

    #[test]
    fn circulants_are_vertex_transitive_in_views() {
        // Every node of a circulant has the same portless view: one class.
        let g = circulant(9, &[1, 2]).unwrap().with_uniform_label(0u8);
        // (Cross-crate check lives in anonet-views; here assert regularity.)
        assert!(g.graph().nodes().all(|v| g.graph().degree(v) == 4));
    }

    #[test]
    fn petersen_is_three_regular() {
        let g = petersen();
        assert_eq!(g.node_count(), 10);
        assert_eq!(g.edge_count(), 15);
        assert!(g.nodes().all(|v| g.degree(v) == 3));
    }

    #[test]
    fn random_tree_is_a_tree() {
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        for n in [1usize, 2, 3, 10, 40] {
            let g = random_tree(n, &mut rng).unwrap();
            assert_eq!(g.node_count(), n);
            assert_eq!(g.edge_count(), n.saturating_sub(1));
            assert!(g.is_connected());
        }
    }

    #[test]
    fn gnp_is_connected() {
        let mut rng = ChaCha8Rng::seed_from_u64(11);
        for &(n, p) in &[(1usize, 0.5), (10, 0.0), (20, 0.1), (20, 0.5)] {
            let g = gnp_connected(n, p, &mut rng).unwrap();
            assert_eq!(g.node_count(), n);
            assert!(g.is_connected());
        }
        assert!(gnp_connected(5, 1.5, &mut rng).is_err());
    }

    #[test]
    fn random_regular_is_regular_and_connected() {
        let mut rng = ChaCha8Rng::seed_from_u64(13);
        let g = random_regular(12, 3, 200, &mut rng).unwrap();
        assert!(g.nodes().all(|v| g.degree(v) == 3));
        assert!(g.is_connected());
    }

    #[test]
    fn random_regular_rejects_impossible() {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        assert!(random_regular(5, 3, 10, &mut rng).is_err()); // odd n*d
        assert!(random_regular(4, 4, 10, &mut rng).is_err()); // d >= n
    }

    #[test]
    fn generators_are_deterministic_per_seed() {
        let g1 = random_tree(15, &mut ChaCha8Rng::seed_from_u64(5)).unwrap();
        let g2 = random_tree(15, &mut ChaCha8Rng::seed_from_u64(5)).unwrap();
        assert_eq!(g1, g2);
    }
}
