//! FS-FBS (Jiang, Fu & Wong [2]): Boolean kNN over 2-hop labels.
//!
//! FS-FBS keeps a forward 2-hop label per vertex and, for each hub, a
//! *backward label*: the distance-sorted list of vertices whose label
//! contains the hub. A BkNN query merges the backward labels of the query's
//! hubs lazily, popping candidate vertices in exact-distance order.
//!
//! Keyword handling is the aggregation weak spot the paper highlights (§8):
//!
//! * **Frequent keywords** — each backward entry carries a *bit-array hash*
//!   (here: a 64-bit signature of the keywords of the object at that
//!   vertex). Hash collisions create false positives, each costing a wasted
//!   verification.
//! * **Infrequent keywords** — no ordered access exists: FS-FBS computes
//!   label distances to *every* object in the inverted list, with no early
//!   termination.
//!
//! The 2-hop labels come from [`kspin_hl`] (see DESIGN.md §3 on the label
//! substitution); the crate adds the backward merge, signatures, and the
//! frequent/infrequent split.

// Float ordering goes through `OrderedWeight`: `partial_cmp` is on the
// clippy.toml method list, with the clock and thread calls.
#![deny(clippy::disallowed_methods)]

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashSet};

use kspin_graph::{Graph, VertexId, Weight};
use kspin_hl::{BackwardLabels, HubLabels};
use kspin_text::{Corpus, ObjectId, TermId};

/// The frequent/infrequent split: keywords with `|inv(t)|` above this are
/// "frequent" and served by the signature-filtered backward scan; the rest
/// take the scan-the-whole-inverted-list path. The paper notes this
/// threshold must be tuned experimentally — a weakness in itself; every
/// comparison here runs at this one value.
const FREQUENCY_THRESHOLD: usize = 16;

/// Hashes a keyword into its signature bit.
#[inline]
fn term_bit(t: TermId) -> u64 {
    1u64 << ((t as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 58)
}

/// The FS-FBS index.
pub struct FsFbs<'a> {
    corpus: &'a Corpus,
    labels: &'a HubLabels,
    backward: BackwardLabels,
    /// Per backward entry (arena-aligned with `backward`): the keyword
    /// signature of the object at that vertex (0 = no object).
    signatures: Vec<u64>,
}

impl<'a> FsFbs<'a> {
    /// Builds the backward labels and per-entry signatures.
    pub fn build(graph: &Graph, corpus: &'a Corpus, labels: &'a HubLabels) -> Self {
        let backward = labels.invert();
        let mut signatures = vec![0u64; backward.num_entries()];
        for h in 0..graph.num_vertices() as VertexId {
            let off = backward.entry_offset(h);
            let (vs, _) = backward.of(h);
            for (i, &v) in vs.iter().enumerate() {
                if let Some(o) = corpus.object_at(v) {
                    let mut sig = 0u64;
                    for p in corpus.doc(o) {
                        sig |= term_bit(p.term);
                    }
                    signatures[off + i] = sig;
                }
            }
        }
        FsFbs {
            corpus,
            labels,
            backward,
            signatures,
        }
    }

    /// Boolean kNN: exact results, sorted by ascending distance.
    pub fn bknn(
        &self,
        q: VertexId,
        k: usize,
        terms: &[TermId],
        conjunctive: bool,
    ) -> Vec<(ObjectId, Weight)> {
        let mut uniq = terms.to_vec();
        uniq.sort_unstable();
        uniq.dedup();
        if k == 0 || uniq.is_empty() {
            return Vec::new();
        }
        let all_infrequent = uniq
            .iter()
            .all(|&t| self.corpus.inv_len(t) <= FREQUENCY_THRESHOLD);
        if all_infrequent {
            self.bknn_infrequent(q, k, &uniq, conjunctive)
        } else {
            self.bknn_backward_scan(q, k, &uniq, conjunctive)
        }
    }

    /// Frequent path: lazy k-way merge over the query hubs' backward
    /// labels, with the signature filter in front of verification.
    fn bknn_backward_scan(
        &self,
        q: VertexId,
        k: usize,
        terms: &[TermId],
        conjunctive: bool,
    ) -> Vec<(ObjectId, Weight)> {
        let (q_hubs, q_dists) = self.labels.label(q);
        let q_sig: u64 = terms.iter().map(|&t| term_bit(t)).fold(0, |a, b| a | b);

        // Merge state: one cursor per query hub, keyed by dq(hub) + entry
        // distance. The first pop of each vertex carries its exact distance
        // (2-hop cover property).
        let mut merge: BinaryHeap<(Reverse<Weight>, u32)> = BinaryHeap::new();
        let mut cursor: Vec<u32> = vec![0; q_hubs.len()];
        for (i, (&h, &dq)) in q_hubs.iter().zip(q_dists).enumerate() {
            let (_, ds) = self.backward.of(h);
            if !ds.is_empty() {
                merge.push((Reverse(dq + ds[0]), i as u32));
            }
        }

        let mut seen: HashSet<VertexId> = HashSet::new();
        let mut out = Vec::with_capacity(k);
        while let Some((Reverse(d), i)) = merge.pop() {
            let i = i as usize;
            let h = q_hubs[i];
            let (vs, ds) = self.backward.of(h);
            let pos = cursor[i] as usize;
            let v = vs[pos];
            let sig = self.signatures[self.backward.entry_offset(h) + pos];
            cursor[i] += 1;
            if (pos + 1) < vs.len() {
                merge.push((Reverse(q_dists[i] + ds[pos + 1]), i as u32));
            }
            if seen.insert(v) {
                // Signature filter: conjunctive needs every query bit set
                // (collisions → false positives, verified below), while
                // disjunctive needs any.
                let pass = if conjunctive {
                    sig & q_sig == q_sig
                } else {
                    sig & q_sig != 0
                };
                if pass {
                    if let Some(o) = self.corpus.object_at(v) {
                        let ok = if conjunctive {
                            self.corpus.contains_all(o, terms)
                        } else {
                            self.corpus.contains_any(o, terms)
                        };
                        if ok {
                            // First pop of v ⇒ d is the exact distance.
                            out.push((o, d));
                            if out.len() == k {
                                break;
                            }
                        }
                    }
                }
            }
        }
        out
    }

    /// Infrequent path: no ordered access — compute label distances to the
    /// whole candidate list and sort (the §8 criticism: "it is not possible
    /// to terminate without evaluating the entire list").
    fn bknn_infrequent(
        &self,
        q: VertexId,
        k: usize,
        terms: &[TermId],
        conjunctive: bool,
    ) -> Vec<(ObjectId, Weight)> {
        let candidates: Vec<ObjectId> = if conjunctive {
            let driver = terms
                .iter()
                .copied()
                .min_by_key(|&t| self.corpus.inv_len(t))
                .expect("non-empty terms");
            self.corpus
                .inverted(driver)
                .iter()
                .map(|p| p.object)
                .filter(|&o| self.corpus.contains_all(o, terms))
                .collect()
        } else {
            let mut set: Vec<ObjectId> = terms
                .iter()
                .flat_map(|&t| self.corpus.inverted(t).iter().map(|p| p.object))
                .collect();
            set.sort_unstable();
            set.dedup();
            set
        };
        let mut scored: Vec<(ObjectId, Weight)> = candidates
            .into_iter()
            .map(|o| (o, self.labels.distance(q, self.corpus.vertex_of(o))))
            .collect();
        scored.sort_unstable_by_key(|&(o, d)| (d, o));
        scored.truncate(k);
        scored
    }

    /// Index size in bytes: backward labels + signatures (the forward
    /// labels are shared with the distance module and reported separately).
    pub fn size_bytes(&self) -> usize {
        self.backward.size_bytes() + self.signatures.len() * 8
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kspin_ch::{ChConfig, ContractionHierarchy};
    use kspin_graph::generate::{road_network, RoadNetworkConfig};
    use kspin_graph::Dijkstra;
    use kspin_text::generate::{corpus as gen_corpus, CorpusConfig};

    struct Fixture {
        graph: Graph,
        corpus: Corpus,
        labels: HubLabels,
    }

    fn fixture(n: usize, seed: u64) -> Fixture {
        let graph = road_network(&RoadNetworkConfig::new(n, seed));
        let mut cc = CorpusConfig::new(graph.num_vertices(), seed ^ 3);
        cc.object_fraction = 0.08;
        let (corpus, _) = gen_corpus(&cc);
        let ch = ContractionHierarchy::build(&graph, &ChConfig::default());
        let labels = HubLabels::build(&ch);
        Fixture {
            graph,
            corpus,
            labels,
        }
    }

    fn oracle(
        f: &Fixture,
        q: VertexId,
        k: usize,
        terms: &[TermId],
        conjunctive: bool,
    ) -> Vec<Weight> {
        let mut dij = Dijkstra::new(f.graph.num_vertices());
        dij.sssp(&f.graph, q);
        let space = dij.space();
        let mut want: Vec<Weight> = (0..f.corpus.num_objects() as ObjectId)
            .filter(|&o| {
                if conjunctive {
                    f.corpus.contains_all(o, terms)
                } else {
                    f.corpus.contains_any(o, terms)
                }
            })
            .filter_map(|o| space.distance(f.corpus.vertex_of(o)))
            .collect();
        want.sort_unstable();
        want.truncate(k);
        want
    }

    #[test]
    fn frequent_path_matches_oracle() {
        let f = fixture(700, 301);
        let fs = FsFbs::build(&f.graph, &f.corpus, &f.labels);
        // Terms 0 and 1 are the most frequent by construction.
        for q in [2u32, 345, 650] {
            for conj in [false, true] {
                let got = fs.bknn(q, 5, &[0, 1], conj);
                let gd: Vec<Weight> = got.iter().map(|&(_, d)| d).collect();
                assert_eq!(gd, oracle(&f, q, 5, &[0, 1], conj), "q={q} conj={conj}");
            }
        }
    }

    #[test]
    fn infrequent_path_matches_oracle() {
        let f = fixture(700, 303);
        let fs = FsFbs::build(&f.graph, &f.corpus, &f.labels);
        let rare = (0..f.corpus.num_terms() as TermId)
            .find(|&t| (1..=3).contains(&f.corpus.inv_len(t)))
            .expect("no rare term");
        for q in [7u32, 123] {
            let got = fs.bknn(q, 5, &[rare], false);
            let gd: Vec<Weight> = got.iter().map(|&(_, d)| d).collect();
            assert_eq!(gd, oracle(&f, q, 5, &[rare], false));
        }
    }

    #[test]
    fn mixed_frequency_terms_use_backward_scan_correctly() {
        let f = fixture(700, 305);
        let fs = FsFbs::build(&f.graph, &f.corpus, &f.labels);
        let rare = (0..f.corpus.num_terms() as TermId)
            .find(|&t| (1..=3).contains(&f.corpus.inv_len(t)))
            .expect("no rare term");
        for conj in [false, true] {
            let got = fs.bknn(50, 5, &[0, rare], conj);
            let gd: Vec<Weight> = got.iter().map(|&(_, d)| d).collect();
            assert_eq!(gd, oracle(&f, 50, 5, &[0, rare], conj), "conj={conj}");
        }
    }

    #[test]
    fn signatures_cover_object_keywords() {
        let f = fixture(400, 307);
        let fs = FsFbs::build(&f.graph, &f.corpus, &f.labels);
        // Every object's own keyword bits are set in every backward entry
        // pointing at its vertex — no false negatives.
        for o in (0..f.corpus.num_objects() as ObjectId).step_by(7) {
            let v = f.corpus.vertex_of(o);
            let (hubs, _) = f.labels.label(v);
            for &h in hubs {
                let (vs, _) = fs.backward.of(h);
                let pos = vs.iter().position(|&x| x == v).expect("entry exists");
                let sig = fs.signatures[fs.backward.entry_offset(h) + pos];
                for p in f.corpus.doc(o) {
                    assert_ne!(sig & term_bit(p.term), 0, "missing bit for term {}", p.term);
                }
            }
        }
    }

    #[test]
    fn zero_k_and_empty_terms() {
        let f = fixture(300, 309);
        let fs = FsFbs::build(&f.graph, &f.corpus, &f.labels);
        assert!(fs.bknn(0, 0, &[0], false).is_empty());
        assert!(fs.bknn(0, 5, &[], false).is_empty());
    }
}
