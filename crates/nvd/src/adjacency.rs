//! The generator adjacency graph of an NVD.
//!
//! Nodes are Voronoi generators (objects); an edge connects two generators
//! whose Voronoi node sets touch via a road-network edge. Observation 2a:
//! this graph has `O(|inv(t)|)` size with small constant average degree, and
//! it is *all* that LazyReheap (Algorithm 4) needs — the `O(|V|)` owner
//! table can be discarded.

/// Adjacency lists over generator indices `0..m`.
#[derive(Debug, Clone, Default)]
pub struct AdjacencyGraph {
    lists: Vec<Vec<u32>>,
}

impl AdjacencyGraph {
    /// Creates an adjacency graph over `m` generators with no edges.
    pub fn new(m: usize) -> Self {
        AdjacencyGraph {
            lists: vec![Vec::new(); m],
        }
    }

    /// Number of generators.
    pub fn num_nodes(&self) -> usize {
        self.lists.len()
    }

    /// Number of undirected adjacency edges.
    pub fn num_edges(&self) -> usize {
        self.lists.iter().map(Vec::len).sum::<usize>() / 2
    }

    /// Adds an undirected adjacency unless already present.
    pub fn add(&mut self, a: u32, b: u32) {
        if a == b {
            return;
        }
        if !self.lists[a as usize].contains(&b) {
            self.lists[a as usize].push(b);
            self.lists[b as usize].push(a);
        }
    }

    /// Appends a fresh isolated node (used when lazily inserting objects)
    /// and returns its index.
    pub fn push_node(&mut self) -> u32 {
        self.lists.push(Vec::new());
        (self.lists.len() - 1) as u32
    }

    /// Generators adjacent to `a`.
    #[inline]
    pub fn adjacent(&self, a: u32) -> &[u32] {
        // PANIC-OK: a is a generator id < lists.len() — ids are only minted
        // by the builder and push_node, both of which size the list first.
        &self.lists[a as usize]
    }

    /// Size in bytes.
    pub fn size_bytes(&self) -> usize {
        self.lists.iter().map(|l| l.len() * 4 + 24).sum()
    }

    /// Flattens the lists into `(offsets, data)` CSR form — the snapshot
    /// serialization boundary. Neighbor order is preserved verbatim so a
    /// flatten → rebuild round trip is the identity.
    pub fn flat_parts(&self) -> (Vec<u32>, Vec<u32>) {
        let mut offsets = Vec::with_capacity(self.lists.len() + 1);
        offsets.push(0u32);
        let mut data = Vec::new();
        for l in &self.lists {
            data.extend_from_slice(l);
            offsets.push(data.len() as u32);
        }
        (offsets, data)
    }

    /// Rebuilds the nested lists from flattened CSR form, preserving
    /// neighbor order exactly. Only the offsets' shape is checked here:
    /// ranges, simplicity and symmetry of the entries are
    /// [`Self::validate_symmetric`]'s audit, which the one caller on the
    /// load path runs once on the assembled NVD
    /// ([`crate::ApproxNvd::from_snapshot_parts`]).
    ///
    /// # Errors
    /// Malformed offsets.
    pub fn from_flat(offsets: &[u32], data: &[u32]) -> Result<Self, String> {
        if offsets.is_empty() {
            return Err("adjacency offsets must hold m + 1 entries, got 0".into());
        }
        if u32::try_from(data.len()).is_err() {
            return Err(format!("adjacency edge count {} exceeds u32", data.len()));
        }
        if offsets.first() != Some(&0) || offsets.last() != Some(&(data.len() as u32)) {
            return Err("adjacency offsets must start at 0 and end at the edge count".into());
        }
        if offsets.windows(2).any(|w| w[0] > w[1]) {
            return Err("adjacency offsets must be monotone non-decreasing".into());
        }
        let lists = offsets
            .windows(2)
            .map(|w| data[w[0] as usize..w[1] as usize].to_vec())
            .collect();
        Ok(AdjacencyGraph { lists })
    }

    /// Invariant audit: every list entry is in range, no self-loops, no
    /// duplicates, and every edge has its reverse (the graph is undirected
    /// by construction — Observation 2a relies on it). Returns each
    /// violation as a human-readable string.
    pub fn validate_symmetric(&self) -> Result<(), Vec<String>> {
        let mut errs = Vec::new();
        let n = self.lists.len();
        for (a, list) in self.lists.iter().enumerate() {
            let a = a as u32;
            for (i, &b) in list.iter().enumerate() {
                if b as usize >= n {
                    errs.push(format!("adjacency {a}→{b}: node {b} out of range (n={n})"));
                    continue;
                }
                if b == a {
                    errs.push(format!("adjacency self-loop at node {a}"));
                }
                if list[..i].contains(&b) {
                    errs.push(format!("duplicate adjacency {a}→{b}"));
                }
                if !self.lists[b as usize].contains(&a) {
                    errs.push(format!("asymmetric adjacency: {a}→{b} has no reverse edge"));
                }
            }
        }
        if errs.is_empty() {
            Ok(())
        } else {
            Err(errs)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_is_symmetric_and_idempotent() {
        let mut a = AdjacencyGraph::new(3);
        a.add(0, 1);
        a.add(1, 0);
        a.add(0, 1);
        assert_eq!(a.num_edges(), 1);
        assert_eq!(a.adjacent(0), &[1]);
        assert_eq!(a.adjacent(1), &[0]);
        assert!(a.adjacent(2).is_empty());
    }

    #[test]
    fn self_loops_ignored() {
        let mut a = AdjacencyGraph::new(2);
        a.add(1, 1);
        assert_eq!(a.num_edges(), 0);
    }

    #[test]
    fn push_node_grows_graph() {
        let mut a = AdjacencyGraph::new(1);
        let n = a.push_node();
        assert_eq!(n, 1);
        a.add(0, n);
        assert_eq!(a.adjacent(n), &[0]);
        assert_eq!(a.num_nodes(), 2);
    }
}
