//! Zipfian keyword corpus generator.
//!
//! Substitutes the OSM-extracted POI keywords of Table 2 (DESIGN.md §3,
//! substitution 1). The generator reproduces the statistical properties the
//! paper's techniques rely on:
//!
//! * keyword frequencies follow Zipf's law with α ≈ 1 (Observation 1);
//! * |O| ≈ 4.5 % of |V| and ≈ 4–5 keyword occurrences per object,
//!   matching the Table 2 ratios;
//! * objects sit on distinct road-network vertices.

use rand::rngs::StdRng;
use rand::seq::index::sample;
use rand::{Rng, SeedableRng};

use kspin_graph::VertexId;

use crate::corpus::{Corpus, CorpusBuilder, TermId};
use crate::vocab::Vocabulary;

/// Parameters of the synthetic keyword dataset.
#[derive(Debug, Clone)]
pub struct CorpusConfig {
    /// Number of road-network vertices objects may occupy.
    pub num_vertices: usize,
    /// Fraction of vertices hosting an object. Table 2 default ≈ 0.045.
    pub object_fraction: f64,
    /// Vocabulary size `|W|`.
    pub num_terms: usize,
    /// Mean document length (keyword occurrences per object). Default 4.5.
    pub mean_doc_len: f64,
    /// Zipf exponent α. Default 1.0 (classic Zipf, per Observation 1).
    pub zipf_exponent: f64,
    /// RNG seed.
    pub seed: u64,
}

impl CorpusConfig {
    /// Table-2-like defaults for a network with `num_vertices` vertices.
    pub fn new(num_vertices: usize, seed: u64) -> Self {
        CorpusConfig {
            num_vertices,
            object_fraction: 0.045,
            // The seed terms are always in the vocabulary; the formula
            // already gives more from two vertices up.
            num_terms: (((num_vertices as f64).powf(0.62) * 4.0).ceil() as usize)
                .max(SEED_TERM_NAMES.len()),
            mean_doc_len: 4.5,
            zipf_exponent: 1.0,
            seed,
        }
    }
}

/// Zipf sampler over ranks `0..n` with `P(r) ∝ 1/(r+1)^α`, via a
/// pre-computed CDF and binary search.
#[derive(Debug, Clone)]
pub struct ZipfSampler {
    cdf: Vec<f64>,
}

impl ZipfSampler {
    /// Builds the sampler for `n` ranks with exponent `alpha`.
    pub fn new(n: usize, alpha: f64) -> Self {
        assert!(n > 0, "Zipf sampler needs at least one rank");
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for r in 0..n {
            acc += 1.0 / ((r + 1) as f64).powf(alpha);
            cdf.push(acc);
        }
        let total = acc;
        for c in &mut cdf {
            *c /= total;
        }
        ZipfSampler { cdf }
    }

    /// Draws one rank.
    pub fn sample<R: Rng>(&self, rng: &mut R) -> usize {
        let u: f64 = rng.gen();
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
    }
}

/// Draws from Poisson(λ) by Knuth's product method — fine for the small λ
/// used for document lengths.
fn poisson<R: Rng>(rng: &mut R, lambda: f64) -> usize {
    let l = (-lambda).exp();
    let mut k = 0usize;
    let mut p = 1.0;
    loop {
        p *= rng.gen::<f64>();
        if p <= l {
            return k;
        }
        k += 1;
    }
}

/// Popular seed terms used by the §7.1 workload; the generator aliases them
/// to the five most frequent Zipf ranks so "hotel" really is a frequent
/// keyword, exactly as in the paper's setup.
pub const SEED_TERM_NAMES: [&str; 5] = ["hotel", "restaurant", "supermarket", "bank", "school"];

/// Generates a corpus and its vocabulary.
///
/// Term ids coincide with Zipf ranks, so `inv_len` is (stochastically)
/// non-increasing in term id — handy for the keyword-density experiment
/// (Fig. 13). Objects are placed on uniformly sampled distinct vertices.
pub fn corpus(config: &CorpusConfig) -> (Corpus, Vocabulary) {
    assert!(config.num_vertices > 0, "need a non-empty vertex set");
    assert!(
        (0.0..=1.0).contains(&config.object_fraction),
        "object_fraction must be in [0, 1]"
    );
    assert!(config.num_terms >= SEED_TERM_NAMES.len());
    let mut rng = StdRng::seed_from_u64(config.seed);

    let mut vocab = Vocabulary::new();
    for (rank, name) in SEED_TERM_NAMES.iter().enumerate() {
        let id = vocab.intern(name);
        debug_assert_eq!(id as usize, rank);
    }
    for rank in SEED_TERM_NAMES.len()..config.num_terms {
        vocab.intern(&format!("kw{rank:06}"));
    }

    let num_objects = ((config.num_vertices as f64) * config.object_fraction)
        .round()
        .max(1.0) as usize;
    let zipf = ZipfSampler::new(config.num_terms, config.zipf_exponent);
    let vertices = sample(&mut rng, config.num_vertices, num_objects);

    let mut builder = CorpusBuilder::new();
    let mut doc = Vec::new();
    for v in vertices.iter() {
        doc.clear();
        let len = 1 + poisson(&mut rng, (config.mean_doc_len - 1.0).max(0.0));
        for _ in 0..len {
            let t = zipf.sample(&mut rng) as TermId;
            // Occasional repeated keywords give non-trivial tf weights.
            let f = match rng.gen::<f64>() {
                x if x < 0.05 => 3,
                x if x < 0.20 => 2,
                _ => 1,
            };
            doc.push((t, f));
        }
        builder.add_object(v as VertexId, &doc);
    }
    (builder.build(), vocab)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generates_table2_like_ratios() {
        let cfg = CorpusConfig::new(20_000, 99);
        let (c, v) = corpus(&cfg);
        let n_obj = c.num_objects() as f64;
        assert!((n_obj / 20_000.0 - 0.045).abs() < 0.005);
        let occ_per_obj = c.total_occurrences() as f64 / n_obj;
        assert!(
            (3.0..6.5).contains(&occ_per_obj),
            "occurrences/object {occ_per_obj}"
        );
        assert_eq!(v.len(), cfg.num_terms);
    }

    #[test]
    fn is_deterministic() {
        let cfg = CorpusConfig::new(5_000, 7);
        let (c1, _) = corpus(&cfg);
        let (c2, _) = corpus(&cfg);
        assert_eq!(c1.num_objects(), c2.num_objects());
        for o in 0..c1.num_objects() as u32 {
            assert_eq!(c1.vertex_of(o), c2.vertex_of(o));
            assert_eq!(c1.doc(o), c2.doc(o));
        }
    }

    #[test]
    fn inverted_list_sizes_are_zipf_like() {
        let (c, _) = corpus(&CorpusConfig::new(50_000, 13));
        // The most frequent keyword should dwarf the median keyword, and the
        // long tail should dominate: ≥ 70 % of *used* keywords should have
        // |inv(t)| ≤ 5 (Observation 1 predicts ~80 % for true Zipf).
        let mut sizes: Vec<usize> = (0..c.num_terms() as TermId)
            .map(|t| c.inv_len(t))
            .filter(|&s| s > 0)
            .collect();
        sizes.sort_unstable_by(|a, b| b.cmp(a));
        assert!(sizes[0] > 50 * sizes[sizes.len() / 2]);
        let small = sizes.iter().filter(|&&s| s <= 5).count();
        assert!(
            small as f64 / sizes.len() as f64 > 0.7,
            "only {small}/{} keywords have inv ≤ 5",
            sizes.len()
        );
    }

    #[test]
    fn seed_terms_are_frequent() {
        let (c, v) = corpus(&CorpusConfig::new(30_000, 4));
        let hotel = v.get("hotel").unwrap();
        // Rank 0 must be among the most frequent keywords.
        let max_inv = (0..c.num_terms() as TermId)
            .map(|t| c.inv_len(t))
            .max()
            .unwrap();
        assert!(c.inv_len(hotel) * 2 >= max_inv);
        assert!(c.inv_len(hotel) > 100);
    }

    #[test]
    fn zipf_sampler_prefers_low_ranks() {
        let z = ZipfSampler::new(1000, 1.0);
        let mut rng = StdRng::seed_from_u64(1);
        let mut counts = [0usize; 2];
        for _ in 0..10_000 {
            let r = z.sample(&mut rng);
            if r == 0 {
                counts[0] += 1;
            } else if r == 1 {
                counts[1] += 1;
            }
        }
        // P(rank 0) ≈ 2 × P(rank 1) under α = 1.
        let ratio = counts[0] as f64 / counts[1] as f64;
        assert!((1.6..2.6).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn tiny_corpus_works() {
        let mut cfg = CorpusConfig::new(10, 0);
        cfg.object_fraction = 0.5;
        cfg.num_terms = 8;
        let (c, _) = corpus(&cfg);
        assert_eq!(c.num_objects(), 5);
    }
}
