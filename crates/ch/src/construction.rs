//! CH preprocessing: node ordering and contraction.
//!
//! The node order is that of Geisberger et al. [10]: the next vertex to
//! contract is the one of least `2 · edge difference + deleted neighbours +
//! level`. The edge difference (shortcuts added minus edges removed) keeps
//! the hierarchy sparse; the deleted-neighbour count and the level (the
//! depth of the hierarchy already built below a vertex) spread contraction
//! evenly over the network, so no region is contracted into a tall tower
//! while another waits. Depth is what a query pays for: every upward search
//! settles the whole upward closure of its start.
//!
//! Performance notes for planar-like road networks:
//!
//! * priorities use *dirty versioning* — a queue entry is re-evaluated only
//!   if a neighbor was contracted since it was pushed;
//! * a witness search settles at most [`WITNESS_BUDGET`] vertices over
//!   paths of at most [`WITNESS_HOPS`] edges. A search that gives up adds
//!   a shortcut a witness would have made unnecessary, and every needless
//!   shortcut widens the upward closures that queries search;
//! * the contraction endgame forms a near-clique of size ≈ treewidth; once
//!   a vertex's live degree passes [`SKIP_WITNESS_DEGREE`] witness searches
//!   are pointless (inside the core they fail) and all pairwise shortcuts
//!   are added directly. Extra shortcuts never hurt correctness — every
//!   shortcut weight is a real path length;
//! * a priority costs one witness search per neighbor, toward all later
//!   neighbors at once, not one per pair — the answers are exactly the
//!   pairwise ones (see [`WitnessSearch::witnessed`]);
//! * adjacency rows are key-sorted vectors: the same walk order as an
//!   ordered map, scanned contiguously.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use kspin_graph::csr::row_slice;
use kspin_graph::{weight_add, Graph, Labels, VertexId, Weight, INFINITY};

/// Above this live degree, contraction skips witness searches.
///
/// Under the current node order and witness limits, generated road
/// networks of 10k–100k vertices build the same hierarchy to the bit with
/// this limit removed: above it every pair needs its shortcut anyway. It
/// only saves build time: at 100k, removing it slowed the build from 3.26
/// to 3.45 s and from 3.34 to 3.59 s on two networks (2-vCPU guest).
const SKIP_WITNESS_DEGREE: usize = 24;

/// Settled-vertex budget of one witness search. With [`WITNESS_HOPS`] it
/// is the knee of a sweep on generated road networks: on a 30k network
/// 50 / 5 left the mean upward closure at 884.5 arcs and 200 / 8 at 395.3
/// (100k: 4,919 → 887). Unbounded searches build 25–47 % slower and
/// change a random-pair query's heap work by only +2 to −8 %.
const WITNESS_BUDGET: usize = 200;

/// Hop limit of one witness search (see [`WITNESS_BUDGET`]).
const WITNESS_HOPS: usize = 8;

/// The contraction takes no settings; the type stays so that
/// [`ContractionHierarchy::build`] keeps its signature. Braced, not a unit
/// struct, so that callers' `ChConfig::default()` stays lint-clean.
#[derive(Debug, Clone, Default)]
pub struct ChConfig {}

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
    pub fn build(graph: &Graph, _config: &ChConfig) -> Self {
        let (rank, up_offsets, up_targets, up_weights) = Contractor::new(graph).contract_all();
        let num_shortcuts = count_shortcuts(graph, &up_offsets, &up_targets);
        ContractionHierarchy {
            rank,
            up_offsets,
            up_targets,
            up_weights,
            num_shortcuts,
        }
    }

    /// Number of vertices.
    pub fn num_vertices(&self) -> usize {
        self.rank.len()
    }

    /// Contraction rank of `v` (0 = contracted first / least important).
    #[inline]
    #[expect(
        clippy::indexing_slicing,
        reason = "rank is sized num_vertices at build; v is a graph vertex"
    )]
    pub fn rank(&self, v: VertexId) -> u32 {
        self.rank[v as usize]
    }

    /// Upward edges of `v`: neighbors with strictly higher rank.
    #[inline]
    pub fn upward(&self, v: VertexId) -> impl Iterator<Item = (VertexId, Weight)> + '_ {
        let targets = row_slice(&self.up_offsets, &self.up_targets, v as usize);
        let weights = row_slice(&self.up_offsets, &self.up_weights, v as usize);
        targets.iter().copied().zip(weights.iter().copied())
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

    /// Reassembles the hierarchy of `graph` from its raw arrays, verbatim,
    /// validating the CSR shape, that `rank` is a permutation of `0..n`
    /// for the graph's `n` (the invariants the upward-search indexing
    /// relies on). The shortcut count is not an input: it is counted from
    /// the upward arcs, as [`Self::build`] counts it.
    ///
    /// # Errors
    /// A description of the first violated invariant.
    pub fn from_flat_parts(
        graph: &Graph,
        rank: Vec<u32>,
        up_offsets: Vec<u32>,
        up_targets: Vec<VertexId>,
        up_weights: Vec<Weight>,
    ) -> Result<ContractionHierarchy, String> {
        let n = rank.len();
        if n != graph.num_vertices() {
            return Err(format!(
                "rank holds {n} entries for a {}-vertex graph",
                graph.num_vertices()
            ));
        }
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
        #[expect(
            clippy::indexing_slicing,
            reason = "windows(2) yields two-element slices"
        )]
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
        #[expect(
            clippy::indexing_slicing,
            reason = "checked above: up_offsets holds n + 1 monotone fences ending at the \
                      target count, every target is < n, and rank holds n entries"
        )]
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
        let num_shortcuts = count_shortcuts(graph, &up_offsets, &up_targets);
        Ok(ContractionHierarchy {
            rank,
            up_offsets,
            up_targets,
            up_weights,
            num_shortcuts,
        })
    }
}

/// The hierarchy's shortcuts: its upward arcs whose endpoints no road
/// edge joins. A shortcut between road neighbours, lighter than their
/// edge, replaced that edge's arc and is not counted.
fn count_shortcuts(graph: &Graph, up_offsets: &[u32], up_targets: &[VertexId]) -> usize {
    let (offsets, targets, _, _) = graph.csr_parts();
    (0..up_offsets.len().saturating_sub(1))
        .map(|v| {
            let road = row_slice(offsets, targets, v);
            row_slice(up_offsets, up_targets, v)
                .iter()
                .filter(|t| road.binary_search(t).is_err())
                .count()
        })
        .sum()
}

/// Working state for one contraction run. Every per-vertex array is sized
/// `n`, and every vertex id that reaches an index — a queue entry, an
/// adjacency key, an edge endpoint — comes from the input graph, so is `< n`.
struct Contractor {
    /// Dynamic adjacency of the not-yet-contracted "core" graph: one
    /// key-sorted `(neighbor, weight)` row per vertex. Contracted vertices
    /// are physically unlinked, so every entry is live. Key order matters:
    /// witness searches and shortcut insertion walk the rows, and ties
    /// (equal distances at different hop counts, shortcuts inserted earlier
    /// in the same contraction) make the outcome depend on the walk order —
    /// in key order one input always builds one hierarchy.
    adj: Vec<Vec<(VertexId, Weight)>>,
    contracted: Vec<bool>,
    deleted_neighbors: Vec<u32>,
    /// Depth of each vertex in the hierarchy built so far: 0 at the start,
    /// and one more than its deepest contracted neighbour after that.
    level: Vec<u32>,
    rank: Vec<u32>,
    /// All upward edges discovered so far as (from, to, weight).
    edges: Vec<(VertexId, VertexId, Weight)>,
    witness: WitnessSearch,
}

#[expect(
    clippy::indexing_slicing,
    clippy::integer_division_remainder_used,
    reason = "build time: see Contractor; the one division is by the constant 2"
)]
impl Contractor {
    fn new(graph: &Graph) -> Self {
        let n = graph.num_vertices();
        let mut adj: Vec<Vec<(VertexId, Weight)>> = vec![Vec::new(); n];
        for (v, row) in adj.iter_mut().enumerate() {
            row.extend(graph.neighbors(v as VertexId));
            // A repeated key keeps its last weight, as extending a map did.
            row.sort_by_key(|&(k, _)| k);
            row.dedup_by(|next, kept| {
                let repeated = next.0 == kept.0;
                if repeated {
                    kept.1 = next.1;
                }
                repeated
            });
        }
        Contractor {
            adj,
            contracted: vec![false; n],
            deleted_neighbors: vec![0; n],
            level: vec![0; n],
            rank: vec![0; n],
            edges: Vec::new(),
            witness: WitnessSearch {
                labels: Labels::new(n),
                heap: BinaryHeap::new(),
                pending: Vec::new(),
            },
        }
    }

    /// Contracts every vertex; returns the hierarchy's `(rank, up_offsets,
    /// up_targets, up_weights)`.
    fn contract_all(mut self) -> (Vec<u32>, Vec<u32>, Vec<VertexId>, Vec<Weight>) {
        let n = self.adj.len();
        // Record original edges before contraction mutates adjacency.
        for u in 0..n {
            for &(v, w) in &self.adj[u] {
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
            for &(u, _) in &self.adj[v as usize] {
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
        (rank, up_offsets, up_targets, up_weights)
    }

    /// Priority = 2 · edge difference + deleted neighbours + level (module
    /// docs); the least is contracted next.
    fn priority(&mut self, v: VertexId) -> i64 {
        let (shortcuts, removed) = self.simulate(v);
        2 * (shortcuts as i64 - removed as i64)
            + i64::from(self.deleted_neighbors[v as usize])
            + i64::from(self.level[v as usize])
    }

    /// Counts the shortcuts contracting `v` would add, without mutating:
    /// one witness search per neighbor, toward all later neighbors at once.
    fn simulate(&mut self, v: VertexId) -> (usize, usize) {
        let row = &self.adj[v as usize];
        let deg = row.len();
        if deg > SKIP_WITNESS_DEGREE {
            // Endgame core: assume every pair needs a shortcut.
            return (deg * deg.saturating_sub(1) / 2, deg);
        }
        let mut shortcuts = 0;
        for (i, &(u, wu)) in row.iter().enumerate() {
            let later = &row[i + 1..];
            let targets = later.iter().map(|&(t, wt)| (t, weight_add(wu, wt)));
            let witnessed =
                self.witness
                    .witnessed(&self.adj, WITNESS_BUDGET, WITNESS_HOPS, u, targets, v);
            shortcuts += later.len() - witnessed;
        }
        (shortcuts, deg)
    }

    fn contract(&mut self, v: VertexId) {
        // No search below reads v's row — v is every search's excluded
        // vertex — so it is unlinked up front.
        let row = std::mem::take(&mut self.adj[v as usize]);
        let skip_witness = row.len() > SKIP_WITNESS_DEGREE;
        for (i, &(u, wu)) in row.iter().enumerate() {
            for &(t, wt) in &row[i + 1..] {
                let via = weight_add(wu, wt);
                // One target per search here: the shortcuts inserted between
                // pairs change the graph the next pair is searched in.
                if skip_witness
                    || self.witness.witnessed(
                        &self.adj,
                        WITNESS_BUDGET,
                        WITNESS_HOPS,
                        u,
                        [(t, via)],
                        v,
                    ) == 0
                {
                    self.insert_shortcut(u, t, via);
                }
            }
        }
        self.contracted[v as usize] = true;
        let below = self.level[v as usize] + 1;
        for &(u, _) in &row {
            let nbrs = &mut self.adj[u as usize];
            if let Ok(i) = row_pos(nbrs, v) {
                nbrs.remove(i);
            }
            self.deleted_neighbors[u as usize] += 1;
            let level = &mut self.level[u as usize];
            *level = (*level).max(below);
        }
    }

    fn insert_shortcut(&mut self, u: VertexId, t: VertexId, w: Weight) {
        if w >= INFINITY {
            // Only paths that already read as unreachable could use it, and
            // a saturated sum must not leave a one-sided adjacency entry.
            return;
        }
        let row = &mut self.adj[u as usize];
        match row_pos(row, t) {
            Ok(i) if w >= row[i].1 => return,
            Ok(i) => row[i].1 = w,
            Err(i) => row.insert(i, (t, w)),
        }
        let back = &mut self.adj[t as usize];
        match row_pos(back, u) {
            Ok(i) => back[i].1 = w,
            Err(i) => back.insert(i, (u, w)),
        }
        self.edges.push((u, t, w));
    }
}

/// Where `key` sits in a key-sorted row, or where it would be inserted.
fn row_pos(row: &[(VertexId, Weight)], key: VertexId) -> Result<usize, usize> {
    row.binary_search_by_key(&key, |&(k, _)| k)
}

/// Scratch of the bounded witness Dijkstra.
struct WitnessSearch {
    labels: Labels,
    heap: BinaryHeap<(Reverse<Weight>, u32, VertexId)>,
    /// The targets not answered yet, key-sorted, with their limits.
    pending: Vec<(VertexId, Weight)>,
}

impl WitnessSearch {
    /// Dijkstra from `u` in the core graph minus `excluded`, settling at
    /// most `budget` vertices over paths of at most `max_hops` edges, asked
    /// about every `(t, limit)` of `targets` (key-sorted) at once; returns
    /// how many `t` it reaches by a path of length ≤ their `limit` — for
    /// each, the shortcut u–`excluded`–t is unnecessary.
    ///
    /// Every target gets exactly the answer a search for it alone would
    /// give. Pops come in key order, and a search whose push bound is
    /// L′ ≥ L pops exactly the entries ≤ L of the L-bounded search, in the
    /// same order, before any other: an extra entry is > L, so it neither
    /// precedes one ≤ L nor decides a comparison with one. The
    /// single-target search is therefore a prefix of this one, and its
    /// settled count (hence the budget) and hop counts are read off that
    /// prefix. The bound is the largest limit still pending, and a target
    /// once answered is settled like any other vertex — to the other
    /// targets' searches it is one.
    fn witnessed(
        &mut self,
        adj: &[Vec<(VertexId, Weight)>],
        budget: usize,
        max_hops: usize,
        u: VertexId,
        targets: impl IntoIterator<Item = (VertexId, Weight)>,
        excluded: VertexId,
    ) -> usize {
        self.pending.clear();
        self.pending.extend(targets);
        let Some(mut limit) = self.pending.iter().map(|&(_, l)| l).max() else {
            return 0;
        };
        self.labels.reset();
        self.heap.clear();
        self.heap.push((Reverse(0), 0, u));
        self.labels.set(u, 0);
        let mut settled = 0;
        let mut found = 0;
        while let Some((Reverse(d), hops, x)) = self.heap.pop() {
            if d > limit || settled >= budget {
                break; // every pending target: no witness
            }
            if d > self.labels.get(x) {
                continue; // a stale entry: x was improved after this push
            }
            if let Ok(i) = row_pos(&self.pending, x) {
                let (_, target_limit) = self.pending.remove(i);
                found += usize::from(d <= target_limit);
                match self.pending.iter().map(|&(_, l)| l).max() {
                    Some(l) => limit = l,
                    None => break,
                }
            }
            settled += 1;
            if hops as usize >= max_hops {
                continue;
            }
            #[expect(
                clippy::indexing_slicing,
                reason = "adj holds a row per vertex of the graph x comes from"
            )]
            for &(y, w) in &adj[x as usize] {
                if y == excluded {
                    continue;
                }
                let nd = weight_add(d, w);
                if nd <= limit && nd < self.labels.get(y) {
                    self.labels.set(y, nd);
                    self.heap.push((Reverse(nd), hops + 1, y));
                }
            }
        }
        found
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kspin_graph::GraphBuilder;

    /// SplitMix64, so every case is a pure function of its index.
    struct Rng(u64);

    impl Rng {
        fn below(&mut self, n: u64) -> u64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            (z ^ (z >> 31)) % n
        }
    }

    /// A witness search's `(budget, hops)` limits.
    type Limits = (usize, usize);

    fn witnessed(
        c: &mut Contractor,
        (budget, max_hops): Limits,
        u: VertexId,
        targets: &[(VertexId, Weight)],
        excluded: VertexId,
    ) -> usize {
        c.witness.witnessed(
            &c.adj,
            budget,
            max_hops,
            u,
            targets.iter().copied(),
            excluded,
        )
    }

    #[test]
    fn one_multi_target_search_answers_every_target_like_its_own_search() {
        let unbounded: Limits = (usize::MAX, usize::MAX);
        // How often a single-target answer was decided by the budget, by
        // the hop limit, and by a path of length exactly the limit.
        let (mut by_budget, mut by_hops, mut at_limit) = (0, 0, 0);
        for case in 0..300 {
            let mut rng = Rng(case);
            let n = 6 + rng.below(14);
            let mut b = GraphBuilder::new(n as usize);
            for _ in 0..n + rng.below(3 * n) {
                // Weights 1–3: equal distances, hence heap ties, everywhere.
                b.add_edge(
                    rng.below(n) as VertexId,
                    rng.below(n) as VertexId,
                    1 + rng.below(3) as Weight,
                );
            }
            let g = b.build();
            let limits: Limits = (rng.below(12) as usize, rng.below(5) as usize);
            let mut c = Contractor::new(&g);
            let excluded = rng.below(n) as VertexId;
            for u in (0..n as VertexId).filter(|&u| u != excluded) {
                let targets: Vec<(VertexId, Weight)> = (0..n as VertexId)
                    .filter(|&t| t != u && t != excluded)
                    .map(|t| (t, rng.below(9) as Weight))
                    .collect();
                let single: Vec<usize> = targets
                    .iter()
                    .map(|&target| witnessed(&mut c, limits, u, &[target], excluded))
                    .collect();
                // Every suffix (what `simulate` asks) and both interleaved
                // halves: one search counts what the searches alone count.
                for k in 0..targets.len() {
                    assert_eq!(
                        witnessed(&mut c, limits, u, &targets[k..], excluded),
                        single[k..].iter().sum::<usize>(),
                        "case {case}, source {u}, targets {:?}",
                        &targets[k..]
                    );
                }
                for parity in 0..2 {
                    let (half, want): (Vec<(VertexId, Weight)>, Vec<usize>) = targets
                        .iter()
                        .zip(&single)
                        .skip(parity)
                        .step_by(2)
                        .map(|(&target, &found)| (target, found))
                        .unzip();
                    assert_eq!(
                        witnessed(&mut c, limits, u, &half, excluded),
                        want.into_iter().sum::<usize>(),
                        "case {case}, source {u}, targets {half:?}"
                    );
                }
                for (&(t, limit), &found) in targets.iter().zip(&single) {
                    let free = witnessed(&mut c, unbounded, u, &[(t, limit)], excluded);
                    if found == 0 && free == 1 {
                        let any_budget = (usize::MAX, limits.1);
                        if witnessed(&mut c, any_budget, u, &[(t, limit)], excluded) == 1 {
                            by_budget += 1;
                        } else {
                            by_hops += 1;
                        }
                    }
                    if free == 1
                        && limit > 0
                        && witnessed(&mut c, unbounded, u, &[(t, limit - 1)], excluded) == 0
                    {
                        at_limit += 1;
                    }
                }
            }
        }
        assert!(
            by_budget > 0 && by_hops > 0 && at_limit > 0,
            "cases must exhaust budgets ({by_budget}) and hop limits ({by_hops}) \
             and find witnesses of length exactly the limit ({at_limit})"
        );
    }
}
