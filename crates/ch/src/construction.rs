//! CH preprocessing: node ordering and contraction.
//!
//! Performance notes for planar-like road networks:
//!
//! * priorities use *dirty versioning* — a queue entry is re-evaluated only
//!   if a neighbor was contracted since it was pushed;
//! * the contraction endgame forms a near-clique of size ≈ treewidth; once
//!   a vertex's live degree passes [`SKIP_WITNESS_DEGREE`] witness searches
//!   are pointless (they nearly always fail inside the core) and all
//!   pairwise shortcuts are added directly. Extra shortcuts never hurt
//!   correctness — every shortcut weight is a real path length — they only
//!   trade a little query time for a lot of build time.

use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap};

use kspin_graph::csr::row_slice;
use kspin_graph::{weight_add, Graph, Labels, VertexId, Weight, INFINITY};

/// Above this live degree, contraction skips witness searches.
const SKIP_WITNESS_DEGREE: usize = 24;

/// Tuning knobs for contraction.
#[derive(Debug, Clone)]
pub struct ChConfig {
    /// Settled-vertex budget per witness search. Larger → fewer unnecessary
    /// shortcuts, slower build.
    pub witness_budget: usize,
    /// Hop limit per witness search.
    pub witness_hops: usize,
}

impl Default for ChConfig {
    fn default() -> Self {
        ChConfig {
            witness_budget: 50,
            witness_hops: 5,
        }
    }
}

/// A built hierarchy: every vertex has a rank, and `upward` holds all edges
/// (original + shortcuts) from lower- to higher-ranked endpoints. On an
/// undirected graph the same upward graph serves both search directions.
#[derive(Debug, Clone)]
pub struct ContractionHierarchy {
    rank: Vec<u32>,
    up_offsets: Vec<u32>,
    up_targets: Vec<VertexId>,
    up_weights: Vec<Weight>,
    num_shortcuts: usize,
}

impl ContractionHierarchy {
    /// Contracts `graph` into a hierarchy.
    pub fn build(graph: &Graph, config: &ChConfig) -> Self {
        Contractor::new(graph, config).contract_all()
    }

    /// Number of vertices.
    pub fn num_vertices(&self) -> usize {
        self.rank.len()
    }

    /// Contraction rank of `v` (0 = contracted first / least important).
    #[inline]
    pub fn rank(&self, v: VertexId) -> u32 {
        // PANIC-OK: rank is sized num_vertices at build; v is a graph vertex.
        self.rank[v as usize]
    }

    /// Upward edges of `v`: neighbors with strictly higher rank.
    #[inline]
    pub fn upward(&self, v: VertexId) -> impl Iterator<Item = (VertexId, Weight)> + '_ {
        let targets = row_slice(&self.up_offsets, &self.up_targets, v as usize);
        let weights = row_slice(&self.up_offsets, &self.up_weights, v as usize);
        targets.iter().copied().zip(weights.iter().copied())
    }

    /// Shortcut edges added during contraction.
    pub fn num_shortcuts(&self) -> usize {
        self.num_shortcuts
    }

    /// Translates the hierarchy onto a renumbered graph: every stored
    /// vertex id goes through `r` while each vertex keeps its contraction
    /// rank, so node order and query results are bit-identical to the
    /// unpermuted hierarchy. Build-time only.
    pub fn relabel(&self, r: &kspin_graph::Relabeling) -> ContractionHierarchy {
        let n = self.rank.len();
        assert_eq!(n, r.len(), "relabeling size mismatch");
        let mut rank = vec![0u32; n];
        for v in 0..n as VertexId {
            rank[r.to_local(v) as usize] = self.rank[v as usize];
        }
        let mut directed: Vec<(VertexId, VertexId, Weight)> =
            Vec::with_capacity(self.up_targets.len());
        for u in 0..n as VertexId {
            for (t, w) in self.upward(u) {
                directed.push((r.to_local(u), r.to_local(t), w));
            }
        }
        directed.sort_unstable();
        let mut deg = vec![0u32; n + 1];
        for &(lo, _, _) in &directed {
            deg[lo as usize + 1] += 1;
        }
        for i in 0..n {
            deg[i + 1] += deg[i];
        }
        let up_offsets = deg;
        let mut up_targets = vec![0; directed.len()];
        let mut up_weights = vec![0; directed.len()];
        let mut cursor = up_offsets.clone();
        for (lo, hi, w) in directed {
            let c = &mut cursor[lo as usize];
            up_targets[*c as usize] = hi;
            up_weights[*c as usize] = w;
            *c += 1;
        }
        ContractionHierarchy {
            rank,
            up_offsets,
            up_targets,
            up_weights,
            num_shortcuts: self.num_shortcuts,
        }
    }

    /// Total directed upward edges.
    pub fn num_upward_edges(&self) -> usize {
        self.up_targets.len()
    }

    /// Approximate index size in bytes.
    pub fn size_bytes(&self) -> usize {
        self.rank.len() * 4 + self.up_offsets.len() * 4 + self.up_targets.len() * 8
    }

    /// Borrowed views of the raw arrays — `(rank, up_offsets, up_targets,
    /// up_weights, num_shortcuts)` — the snapshot serialization boundary.
    pub fn flat_parts(&self) -> (&[u32], &[u32], &[VertexId], &[Weight], usize) {
        (
            &self.rank,
            &self.up_offsets,
            &self.up_targets,
            &self.up_weights,
            self.num_shortcuts,
        )
    }

    /// Reassembles a hierarchy from its raw arrays, verbatim, validating
    /// the CSR shape and that `rank` is a permutation of `0..n` (the
    /// invariants the upward-search indexing relies on).
    ///
    /// # Errors
    /// A description of the first violated invariant.
    pub fn from_flat_parts(
        rank: Vec<u32>,
        up_offsets: Vec<u32>,
        up_targets: Vec<VertexId>,
        up_weights: Vec<Weight>,
        num_shortcuts: usize,
    ) -> Result<ContractionHierarchy, String> {
        let n = rank.len();
        if up_offsets.len() != n + 1 {
            return Err(format!(
                "up_offsets holds {} entries for {n} vertices",
                up_offsets.len()
            ));
        }
        if up_targets.len() != up_weights.len() {
            return Err(format!(
                "up_targets/up_weights length mismatch: {} vs {}",
                up_targets.len(),
                up_weights.len()
            ));
        }
        if u32::try_from(up_targets.len()).is_err() {
            return Err(format!(
                "upward edge count {} exceeds u32",
                up_targets.len()
            ));
        }
        if up_offsets.first() != Some(&0) || up_offsets.last() != Some(&(up_targets.len() as u32)) {
            return Err("up_offsets must start at 0 and end at the edge count".into());
        }
        if up_offsets.windows(2).any(|w| w[0] > w[1]) {
            return Err("up_offsets must be monotone non-decreasing".into());
        }
        if up_targets.iter().any(|&t| t as usize >= n) {
            return Err(format!("an upward target is out of range {n}"));
        }
        let mut seen = vec![false; n];
        for &r in &rank {
            match seen.get_mut(r as usize) {
                Some(slot) if !*slot => *slot = true,
                _ => {
                    return Err(format!(
                        "rank {r} out of range or repeated — not a permutation"
                    ))
                }
            }
        }
        // Upward edges must point strictly up the hierarchy; both upward
        // searches of a query rely on it.
        for v in 0..n {
            let lo = up_offsets[v] as usize;
            let hi = up_offsets[v + 1] as usize;
            if up_targets[lo..hi]
                .iter()
                .any(|&t| rank[t as usize] <= rank[v])
            {
                return Err(format!("vertex {v} has a non-upward edge"));
            }
        }
        Ok(ContractionHierarchy {
            rank,
            up_offsets,
            up_targets,
            up_weights,
            num_shortcuts,
        })
    }
}

/// Working state for one contraction run. Every per-vertex array is sized
/// `n`, and every vertex id that reaches an index — a queue entry, an
/// adjacency key, an edge endpoint — comes from the input graph, so is `< n`.
struct Contractor<'a> {
    config: &'a ChConfig,
    /// Dynamic adjacency of the not-yet-contracted "core" graph.
    /// Contracted vertices are physically unlinked, so every entry is live.
    /// Ordered maps: witness searches and shortcut insertion walk them, and
    /// ties (equal distances at different hop counts, shortcuts inserted
    /// earlier in the same contraction) make the outcome depend on the walk
    /// order — in key order one input always builds one hierarchy.
    adj: Vec<BTreeMap<VertexId, Weight>>,
    contracted: Vec<bool>,
    deleted_neighbors: Vec<u32>,
    rank: Vec<u32>,
    /// All upward edges discovered so far as (from, to, weight).
    edges: Vec<(VertexId, VertexId, Weight)>,
    num_shortcuts: usize,
    // Witness-search scratch.
    witness: Labels,
    wheap: BinaryHeap<(Reverse<Weight>, u32, VertexId)>,
}

impl<'a> Contractor<'a> {
    fn new(graph: &Graph, config: &'a ChConfig) -> Self {
        let n = graph.num_vertices();
        let mut adj: Vec<BTreeMap<VertexId, Weight>> = vec![BTreeMap::new(); n];
        for (v, row) in adj.iter_mut().enumerate() {
            row.extend(graph.neighbors(v as VertexId));
        }
        Contractor {
            config,
            adj,
            contracted: vec![false; n],
            deleted_neighbors: vec![0; n],
            rank: vec![0; n],
            edges: Vec::new(),
            num_shortcuts: 0,
            witness: Labels::new(n),
            wheap: BinaryHeap::new(),
        }
    }

    fn contract_all(mut self) -> ContractionHierarchy {
        let n = self.adj.len();
        // Record original edges before contraction mutates adjacency.
        for u in 0..n {
            for (&v, &w) in &self.adj[u] {
                if (u as VertexId) < v {
                    self.edges.push((u as VertexId, v, w));
                }
            }
        }

        // Dirty-versioned lazy priority queue (see module docs).
        let mut version = vec![0u32; n];
        let mut queue: BinaryHeap<(Reverse<i64>, u32, VertexId)> = (0..n as VertexId)
            .map(|v| (Reverse(self.priority(v)), 0, v))
            .collect();
        let mut next_rank = 0u32;
        while let Some((Reverse(_), ver, v)) = queue.pop() {
            if self.contracted[v as usize] {
                continue;
            }
            if ver != version[v as usize] {
                let fresh = self.priority(v);
                queue.push((Reverse(fresh), version[v as usize], v));
                continue;
            }
            let neighbors: Vec<VertexId> = self.adj[v as usize].keys().copied().collect();
            for &u in &neighbors {
                version[u as usize] = version[u as usize].wrapping_add(1);
            }
            self.contract(v);
            self.rank[v as usize] = next_rank;
            next_rank += 1;
        }

        // Assemble the upward CSR.
        let rank = self.rank;
        let mut deg = vec![0u32; n + 1];
        let mut directed: Vec<(VertexId, VertexId, Weight)> = Vec::with_capacity(self.edges.len());
        for &(u, v, w) in &self.edges {
            let (lo, hi) = if rank[u as usize] < rank[v as usize] {
                (u, v)
            } else {
                (v, u)
            };
            directed.push((lo, hi, w));
        }
        // Deduplicate parallel upward edges, keeping the minimum weight.
        directed.sort_unstable();
        directed.dedup_by(|next, prev| next.0 == prev.0 && next.1 == prev.1);
        for &(lo, _, _) in &directed {
            deg[lo as usize + 1] += 1;
        }
        for i in 0..n {
            deg[i + 1] += deg[i];
        }
        let up_offsets = deg;
        let mut up_targets = vec![0; directed.len()];
        let mut up_weights = vec![0; directed.len()];
        let mut cursor = up_offsets.clone();
        for (lo, hi, w) in directed {
            let c = &mut cursor[lo as usize];
            up_targets[*c as usize] = hi;
            up_weights[*c as usize] = w;
            *c += 1;
        }
        ContractionHierarchy {
            rank,
            up_offsets,
            up_targets,
            up_weights,
            num_shortcuts: self.num_shortcuts,
        }
    }

    /// Priority = edge difference + deleted neighbors (standard heuristic).
    fn priority(&mut self, v: VertexId) -> i64 {
        let (shortcuts, removed) = self.simulate(v);
        shortcuts as i64 - removed as i64 + self.deleted_neighbors[v as usize] as i64
    }

    /// Counts the shortcuts contracting `v` would add, without mutating.
    fn simulate(&mut self, v: VertexId) -> (usize, usize) {
        let deg = self.adj[v as usize].len();
        if deg > SKIP_WITNESS_DEGREE {
            // Endgame core: assume every pair needs a shortcut.
            return (deg * deg.saturating_sub(1) / 2, deg);
        }
        let neighbors: Vec<(VertexId, Weight)> =
            self.adj[v as usize].iter().map(|(&u, &w)| (u, w)).collect();
        let mut shortcuts = 0;
        for i in 0..neighbors.len() {
            let (u, wu) = neighbors[i];
            for &(t, wt) in &neighbors[i + 1..] {
                if !self.has_witness(u, t, weight_add(wu, wt), v) {
                    shortcuts += 1;
                }
            }
        }
        (shortcuts, neighbors.len())
    }

    fn contract(&mut self, v: VertexId) {
        let neighbors: Vec<(VertexId, Weight)> =
            self.adj[v as usize].iter().map(|(&u, &w)| (u, w)).collect();
        let skip_witness = neighbors.len() > SKIP_WITNESS_DEGREE;
        for i in 0..neighbors.len() {
            let (u, wu) = neighbors[i];
            for &(t, wt) in &neighbors[i + 1..] {
                let via = weight_add(wu, wt);
                if skip_witness || !self.has_witness(u, t, via, v) {
                    self.insert_shortcut(u, t, via);
                }
            }
        }
        self.contracted[v as usize] = true;
        for &(u, _) in &neighbors {
            self.adj[u as usize].remove(&v);
            self.deleted_neighbors[u as usize] += 1;
        }
        self.adj[v as usize] = BTreeMap::new();
    }

    fn insert_shortcut(&mut self, u: VertexId, t: VertexId, w: Weight) {
        if w >= INFINITY {
            // Only paths that already read as unreachable could use it, and
            // a saturated sum must not leave a one-sided adjacency entry.
            return;
        }
        let e = self.adj[u as usize].entry(t).or_insert(Weight::MAX);
        if w < *e {
            *e = w;
            self.adj[t as usize].insert(u, w);
            self.edges.push((u, t, w));
            self.num_shortcuts += 1;
        }
    }

    /// Bounded Dijkstra from `u` toward `t` in the core graph minus
    /// `excluded`; returns true if a path of length ≤ `limit` exists, in
    /// which case the shortcut u–v–t is unnecessary.
    fn has_witness(&mut self, u: VertexId, t: VertexId, limit: Weight, excluded: VertexId) -> bool {
        self.witness.reset();
        self.wheap.clear();
        self.wheap.push((Reverse(0), 0, u));
        self.witness.set(u, 0);
        let mut settled = 0;
        while let Some((Reverse(d), hops, x)) = self.wheap.pop() {
            if d > limit || settled >= self.config.witness_budget {
                return false;
            }
            if d > self.witness.get(x) {
                continue; // a stale entry: x was improved after this push
            }
            if x == t {
                return d <= limit;
            }
            settled += 1;
            if hops as usize >= self.config.witness_hops {
                continue;
            }
            for (&y, &w) in &self.adj[x as usize] {
                if y == excluded {
                    continue;
                }
                let nd = weight_add(d, w);
                if nd <= limit && nd < self.witness.get(y) {
                    self.witness.set(y, nd);
                    self.wheap.push((Reverse(nd), hops + 1, y));
                }
            }
        }
        false
    }
}
