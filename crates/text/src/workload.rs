//! Query workload construction following §7.1.
//!
//! The paper builds query keyword vectors by (1) choosing popular seed
//! terms, (2) picking an object containing the seed term, and (3) extending
//! the vector with further keywords of that object, "ensuring combinations
//! of query keywords are correlated because they exist for a real-world
//! object". Each vector is then paired with uniformly sampled query
//! vertices.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

use kspin_graph::VertexId;

use crate::corpus::{Corpus, TermId};

/// Parameters for workload construction.
#[derive(Debug, Clone)]
pub struct WorkloadConfig {
    /// Seed keywords ("hotel", "restaurant", …) — must be contained in at
    /// least one object each.
    pub seed_terms: Vec<TermId>,
    /// Objects sampled per seed term (paper: 10).
    pub objects_per_term: usize,
    /// Query vertices sampled per vector (paper: 100).
    pub vertices_per_vector: usize,
    /// RNG seed.
    pub seed: u64,
}

/// One benchmark query: a keyword vector and a query vertex.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Query {
    pub vertex: VertexId,
    pub terms: Vec<TermId>,
}

/// Builds correlated keyword vectors of exactly `len` terms.
///
/// Vectors shorter than `len` can occur only when an object's document has
/// fewer than `len` distinct keywords; such objects are skipped, so every
/// returned vector has exactly `len` distinct terms and the seed term first.
#[expect(
    clippy::indexing_slicing,
    reason = "workload generation: a sampled index is below the list it indexes"
)]
pub fn query_vectors(corpus: &Corpus, config: &WorkloadConfig, len: usize) -> Vec<Vec<TermId>> {
    assert!(len >= 1);
    let mut rng = StdRng::seed_from_u64(config.seed ^ (len as u64).wrapping_mul(0x9e37_79b9));
    let mut vectors = Vec::new();
    for &seed_term in &config.seed_terms {
        let inv = corpus.inverted(seed_term);
        if inv.is_empty() {
            continue;
        }
        let mut produced = 0;
        let mut attempts = 0;
        while produced < config.objects_per_term && attempts < config.objects_per_term * 20 {
            attempts += 1;
            let o = inv[rng.gen_range(0..inv.len())].object;
            let mut others: Vec<TermId> = corpus
                .doc(o)
                .iter()
                .map(|p| p.term)
                .filter(|&t| t != seed_term)
                .collect();
            if others.len() + 1 < len {
                continue;
            }
            others.shuffle(&mut rng);
            let mut vector = Vec::with_capacity(len);
            vector.push(seed_term);
            vector.extend(others.into_iter().take(len - 1));
            produced += 1;
            vectors.push(vector);
        }
    }
    vectors
}

/// Parameters for the Zipf-skewed hot-keyword serving workload.
#[derive(Debug, Clone)]
pub struct ZipfWorkloadConfig {
    /// Queries to generate.
    pub num_queries: usize,
    /// Distinct keywords per query.
    pub terms_per_query: usize,
    /// Zipf exponent over keyword popularity ranks — §6 Obs. 1's skew.
    /// Higher concentrates the load on fewer hot keywords.
    pub zipf_exponent: f64,
    /// Query vertices are drawn from a pre-sampled pool of this size
    /// rather than the whole graph, so `(keyword, source cell)` pairs
    /// recur across queries the way real traffic hot-spots do.
    pub hot_vertex_pool: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for ZipfWorkloadConfig {
    fn default() -> Self {
        ZipfWorkloadConfig {
            num_queries: 1000,
            terms_per_query: 2,
            zipf_exponent: 1.0,
            hot_vertex_pool: 64,
            seed: 0x5e47,
        }
    }
}

/// Builds a serving workload whose keyword choices follow a Zipf
/// distribution over *popularity ranks* (keywords ordered by inverted-list
/// length, most frequent first) and whose vertices come from a small hot
/// pool — the §6 Obs. 1 traffic shape: a few frequent keywords asked from
/// a few places. Deterministic in `config.seed`.
#[expect(
    clippy::indexing_slicing,
    reason = "workload generation: a sampled index is below the list it indexes"
)]
pub fn zipf_queries(
    corpus: &Corpus,
    config: &ZipfWorkloadConfig,
    num_vertices: usize,
) -> Vec<Query> {
    assert!(config.terms_per_query >= 1);
    assert!(config.hot_vertex_pool >= 1);
    let mut rng = StdRng::seed_from_u64(config.seed);
    // Popularity ranking: rank 0 = most frequent keyword.
    let mut by_freq: Vec<TermId> = (0..corpus.num_terms() as TermId)
        .filter(|&t| corpus.inv_len(t) > 0)
        .collect();
    by_freq.sort_by_key(|&t| (std::cmp::Reverse(corpus.inv_len(t)), t));
    assert!(
        by_freq.len() >= config.terms_per_query,
        "corpus has too few used keywords for the requested vector length"
    );
    let zipf = crate::generate::ZipfSampler::new(by_freq.len(), config.zipf_exponent);
    let pool: Vec<VertexId> = (0..config.hot_vertex_pool)
        .map(|_| rng.gen_range(0..num_vertices) as VertexId)
        .collect();
    let mut out = Vec::with_capacity(config.num_queries);
    let mut terms = Vec::with_capacity(config.terms_per_query);
    while out.len() < config.num_queries {
        terms.clear();
        while terms.len() < config.terms_per_query {
            let t = by_freq[zipf.sample(&mut rng)];
            if !terms.contains(&t) {
                terms.push(t);
            }
        }
        out.push(Query {
            vertex: pool[rng.gen_range(0..pool.len())],
            terms: terms.clone(),
        });
    }
    out
}

/// Uniformly samples query vertices.
pub fn query_vertices(num_vertices: usize, count: usize, seed: u64) -> Vec<VertexId> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..count)
        .map(|_| rng.gen_range(0..num_vertices) as VertexId)
        .collect()
}

/// Full §7.1 workload: the cross product of keyword vectors of length `len`
/// and uniformly sampled vertices.
pub fn queries(
    corpus: &Corpus,
    config: &WorkloadConfig,
    num_vertices: usize,
    len: usize,
) -> Vec<Query> {
    let vectors = query_vectors(corpus, config, len);
    let vertices = query_vertices(
        num_vertices,
        config.vertices_per_vector,
        config.seed ^ 0xdead_beef,
    );
    let mut out = Vec::with_capacity(vectors.len() * vertices.len());
    for vector in &vectors {
        for &v in &vertices {
            out.push(Query {
                vertex: v,
                terms: vector.clone(),
            });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate::{corpus as gen_corpus, CorpusConfig};

    fn setup() -> (Corpus, WorkloadConfig) {
        let (c, _) = gen_corpus(&CorpusConfig::new(10_000, 21));
        let cfg = WorkloadConfig {
            seed_terms: vec![0, 1, 2, 3, 4],
            objects_per_term: 5,
            vertices_per_vector: 3,
            seed: 77,
        };
        (c, cfg)
    }

    #[test]
    fn vectors_have_requested_length_and_distinct_terms() {
        let (c, cfg) = setup();
        for len in 1..=4 {
            let vs = query_vectors(&c, &cfg, len);
            assert!(!vs.is_empty(), "no vectors of length {len}");
            for v in &vs {
                assert_eq!(v.len(), len);
                let mut s = v.clone();
                s.sort_unstable();
                s.dedup();
                assert_eq!(s.len(), len, "duplicate terms in {v:?}");
            }
        }
    }

    #[test]
    fn vectors_are_correlated_with_a_real_object() {
        let (c, cfg) = setup();
        for v in query_vectors(&c, &cfg, 3) {
            // Some object must contain all terms of the vector (it was built
            // from one).
            let any = (0..c.num_objects() as u32).any(|o| c.contains_all(o, &v));
            assert!(any, "vector {v:?} matches no object");
        }
    }

    #[test]
    fn seed_term_leads_every_vector() {
        let (c, cfg) = setup();
        for v in query_vectors(&c, &cfg, 2) {
            assert!(cfg.seed_terms.contains(&v[0]));
        }
    }

    #[test]
    fn full_workload_is_cross_product() {
        let (c, cfg) = setup();
        let qs = queries(&c, &cfg, 10_000, 2);
        let vs = query_vectors(&c, &cfg, 2);
        assert_eq!(qs.len(), vs.len() * cfg.vertices_per_vector);
        for q in &qs {
            assert!((q.vertex as usize) < 10_000);
        }
    }

    #[test]
    fn workload_is_deterministic() {
        let (c, cfg) = setup();
        assert_eq!(queries(&c, &cfg, 10_000, 2), queries(&c, &cfg, 10_000, 2));
    }

    #[test]
    fn missing_seed_terms_are_skipped() {
        let (c, mut cfg) = setup();
        cfg.seed_terms = vec![TermId::MAX - 1];
        assert!(query_vectors(&c, &cfg, 2).is_empty());
    }

    #[test]
    fn zipf_workload_shape_and_determinism() {
        let (c, _) = setup();
        let cfg = ZipfWorkloadConfig {
            num_queries: 200,
            terms_per_query: 2,
            hot_vertex_pool: 8,
            ..ZipfWorkloadConfig::default()
        };
        let qs = zipf_queries(&c, &cfg, 10_000);
        assert_eq!(qs.len(), 200);
        let mut vertices: Vec<VertexId> = qs.iter().map(|q| q.vertex).collect();
        vertices.sort_unstable();
        vertices.dedup();
        assert!(vertices.len() <= 8, "vertices must come from the hot pool");
        for q in &qs {
            assert_eq!(q.terms.len(), 2);
            assert_ne!(q.terms[0], q.terms[1]);
            for &t in &q.terms {
                assert!(c.inv_len(t) > 0, "sampled an unused keyword");
            }
        }
        assert_eq!(qs, zipf_queries(&c, &cfg, 10_000));
    }

    #[test]
    fn zipf_workload_is_head_heavy() {
        let (c, _) = setup();
        let cfg = ZipfWorkloadConfig {
            num_queries: 400,
            terms_per_query: 1,
            zipf_exponent: 1.0,
            hot_vertex_pool: 4,
            seed: 9,
        };
        let qs = zipf_queries(&c, &cfg, 10_000);
        // Obs. 1 shape: the single most-drawn keyword should account for a
        // clearly super-uniform share of the queries.
        let mut counts = std::collections::BTreeMap::new();
        for q in &qs {
            *counts.entry(q.terms[0]).or_insert(0usize) += 1;
        }
        let max = counts.values().copied().max().unwrap();
        let uniform = qs.len() / counts.len().max(1);
        assert!(
            max > 2 * uniform.max(1),
            "head keyword drawn {max} times, uniform share {uniform} — not Zipf-skewed"
        );
    }
}
