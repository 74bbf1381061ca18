//! Objects, documents and inverted lists with pre-computed impacts.

use kspin_graph::VertexId;

/// Dense object (POI) identifier within a [`Corpus`].
pub type ObjectId = u32;

/// Dense keyword identifier (see [`crate::Vocabulary`]).
pub type TermId = u32;

/// One `(term, frequency)` entry of an object's document, with its
/// pre-computed impact `λ_{t,o}` (Eq. 3 — impacts are query-independent, so
/// the paper computes them offline).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DocPosting {
    pub term: TermId,
    pub freq: u32,
    pub impact: f64,
}

/// One entry of a keyword's inverted list `inv(t)`: an object and its
/// impact `λ_{t,o}`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct InvPosting {
    pub object: ObjectId,
    pub impact: f64,
}

/// A spatial keyword dataset: objects on vertices, documents, inverted
/// lists, and offline-computed impact statistics.
///
/// Immutable after construction — dynamic updates (§6.2) are handled at the
/// index layer, which keeps its own overlay of inserted/deleted objects.
///
/// Documents and inverted lists are stored *flat*: one pooled posting
/// array each, sliced through `u32` offset tables. Accessors hand out the
/// same `&[DocPosting]` / `&[InvPosting]` slices as before, but the whole
/// corpus is now four cache-dense arrays — the layout the snapshot format
/// serializes verbatim.
#[derive(Debug, Clone)]
pub struct Corpus {
    vertex_of: Vec<VertexId>,
    /// `(vertex, object)` for every object, sorted by vertex.
    object_at: Vec<(VertexId, ObjectId)>,
    /// `doc_offsets[o]..doc_offsets[o + 1]` slices `docs` for object `o`.
    doc_offsets: Vec<u32>,
    docs: Vec<DocPosting>,
    /// `inv_offsets[t]..inv_offsets[t + 1]` slices `inverted` for term `t`.
    inv_offsets: Vec<u32>,
    inverted: Vec<InvPosting>,
    max_impact: Vec<f64>,
    total_occurrences: u64,
}

impl Corpus {
    /// Number of objects `|O|`.
    pub fn num_objects(&self) -> usize {
        self.vertex_of.len()
    }

    /// Number of distinct keywords `|W|` (including any ids with empty
    /// inverted lists).
    pub fn num_terms(&self) -> usize {
        self.inv_offsets.len() - 1
    }

    /// Total keyword occurrences `|doc(V)|` (sum of document lengths).
    pub fn total_occurrences(&self) -> u64 {
        self.total_occurrences
    }

    /// The road-network vertex hosting object `o`.
    #[inline]
    #[expect(
        clippy::indexing_slicing,
        reason = "o is an object id < num_objects, and vertex_of holds a vertex per object"
    )]
    pub fn vertex_of(&self, o: ObjectId) -> VertexId {
        self.vertex_of[o as usize]
    }

    /// The object on vertex `v`, if any.
    #[inline]
    pub fn object_at(&self, v: VertexId) -> Option<ObjectId> {
        let i = self.object_at.binary_search_by_key(&v, |&(x, _)| x).ok()?;
        #[expect(
            clippy::indexing_slicing,
            reason = "i is the index binary_search found"
        )]
        let (_, o) = self.object_at[i];
        Some(o)
    }

    /// Document of `o`, sorted by term id.
    #[inline]
    #[expect(
        clippy::indexing_slicing,
        reason = "o is an object id < num_objects, and doc_offsets holds num_objects + 1 \
                  monotone fences ending at docs.len() (from_parts checks a decoded corpus)"
    )]
    pub fn doc(&self, o: ObjectId) -> &[DocPosting] {
        let lo = self.doc_offsets[o as usize] as usize;
        let hi = self.doc_offsets[o as usize + 1] as usize;
        &self.docs[lo..hi]
    }

    /// Inverted list `inv(t)`, sorted by object id. Empty for term ids the
    /// corpus has never seen (queries may mention words no object carries).
    #[inline]
    #[expect(
        clippy::indexing_slicing,
        reason = "inv_offsets are monotone fences ending at inverted.len(), as invert makes them"
    )]
    pub fn inverted(&self, t: TermId) -> &[InvPosting] {
        match (
            self.inv_offsets.get(t as usize),
            self.inv_offsets.get(t as usize + 1),
        ) {
            (Some(&lo), Some(&hi)) => &self.inverted[lo as usize..hi as usize],
            _ => &[],
        }
    }

    /// `|inv(t)|` — the keyword's frequency in Observation 1's sense.
    #[inline]
    pub fn inv_len(&self, t: TermId) -> usize {
        self.inverted(t).len()
    }

    /// Maximum impact `λ_{t,max}` over all objects containing `t`
    /// (Algorithm 2 uses this in the pseudo lower-bound). Zero for unused
    /// terms.
    #[inline]
    pub fn max_impact(&self, t: TermId) -> f64 {
        self.max_impact.get(t as usize).copied().unwrap_or(0.0)
    }

    /// Whether object `o`'s document contains `t`.
    pub fn contains(&self, o: ObjectId, t: TermId) -> bool {
        self.doc(o).binary_search_by_key(&t, |p| p.term).is_ok()
    }

    /// Whether `o` contains *all* of `terms` (conjunctive criterion).
    pub fn contains_all(&self, o: ObjectId, terms: &[TermId]) -> bool {
        terms.iter().all(|&t| self.contains(o, t))
    }

    /// Whether `o` contains *any* of `terms` (disjunctive criterion).
    pub fn contains_any(&self, o: ObjectId, terms: &[TermId]) -> bool {
        terms.iter().any(|&t| self.contains(o, t))
    }

    /// Approximate memory footprint in bytes (documents + inverted lists).
    pub fn size_bytes(&self) -> usize {
        let posting = std::mem::size_of::<DocPosting>();
        self.docs.len() * posting
            + self.inverted.len() * posting
            + (self.doc_offsets.len() + self.inv_offsets.len()) * 4
            + self.vertex_of.len() * 4
            + self.max_impact.len() * 8
    }

    /// Borrowed views of the flat storage — `(vertex_of, doc_offsets,
    /// docs)` — the snapshot serialization boundary. Inverted lists,
    /// impacts statistics and the vertex→object map are all derivable from
    /// these three arrays (and are re-derived deterministically on load).
    pub fn flat_parts(&self) -> (&[VertexId], &[u32], &[DocPosting]) {
        (&self.vertex_of, &self.doc_offsets, &self.docs)
    }

    /// Reassembles a corpus from its flat columns, copying stored impact
    /// bits verbatim (no recomputation, so a reloaded corpus scores
    /// bit-identically) and re-deriving the inverted lists, per-term
    /// impact maxima and the vertex→object map exactly
    /// as [`CorpusBuilder::build`] does.
    ///
    /// # Errors
    /// A description of the first violated invariant: non-monotone or
    /// mis-sized offsets, column length mismatches, empty documents,
    /// unsorted document terms, non-positive frequencies or impacts, or a
    /// vertex hosting two objects.
    pub fn from_parts(
        vertex_of: Vec<VertexId>,
        doc_offsets: Vec<u32>,
        terms: &[TermId],
        freqs: &[u32],
        impacts: &[f64],
    ) -> Result<Corpus, String> {
        let num_objects = vertex_of.len();
        if doc_offsets.len() != num_objects + 1 {
            return Err(format!(
                "doc_offsets holds {} entries for {num_objects} objects",
                doc_offsets.len()
            ));
        }
        if terms.len() != freqs.len() || terms.len() != impacts.len() {
            return Err(format!(
                "posting columns disagree: {} terms, {} freqs, {} impacts",
                terms.len(),
                freqs.len(),
                impacts.len()
            ));
        }
        if doc_offsets.first() != Some(&0) || doc_offsets.last() != Some(&(terms.len() as u32)) {
            return Err("doc_offsets must start at 0 and end at the posting count".into());
        }
        if u32::try_from(terms.len()).is_err() {
            return Err(format!("posting count {} exceeds u32 offsets", terms.len()));
        }
        #[expect(
            clippy::indexing_slicing,
            reason = "windows(2) yields two-element slices"
        )]
        if doc_offsets.windows(2).any(|w| w[0] > w[1]) {
            return Err("doc_offsets must be monotone non-decreasing".into());
        }
        let mut docs = Vec::with_capacity(terms.len());
        let mut total_occurrences = 0u64;
        let mut num_terms = 0usize;
        #[expect(
            clippy::indexing_slicing,
            reason = "checked above: doc_offsets holds num_objects + 1 monotone fences ending \
                      at the posting count, the length of all three columns"
        )]
        for o in 0..num_objects {
            let lo = doc_offsets[o] as usize;
            let hi = doc_offsets[o + 1] as usize;
            if lo == hi {
                return Err(format!("object {o} has an empty document"));
            }
            for i in lo..hi {
                let (term, freq, impact) = (terms[i], freqs[i], impacts[i]);
                if i > lo && terms[i - 1] >= term {
                    return Err(format!("object {o} document terms not strictly ascending"));
                }
                if freq == 0 {
                    return Err(format!("object {o} carries a zero frequency"));
                }
                if !(impact.is_finite() && impact > 0.0) {
                    return Err(format!("object {o} carries a non-positive impact {impact}"));
                }
                num_terms = num_terms.max(term as usize + 1);
                total_occurrences += u64::from(freq);
                docs.push(DocPosting { term, freq, impact });
            }
        }
        let object_at = objects_by_vertex(&vertex_of);
        if first_repeat(&object_at).is_some() {
            return Err("a vertex hosts more than one object".into());
        }
        let (inv_offsets, inverted, max_impact) = invert(&docs, &doc_offsets, num_terms);
        Ok(Corpus {
            vertex_of,
            object_at,
            doc_offsets,
            docs,
            inv_offsets,
            inverted,
            max_impact,
            total_occurrences,
        })
    }
}

/// `(vertex_of[o], o)` for every object `o`, sorted by vertex.
fn objects_by_vertex(vertex_of: &[VertexId]) -> Vec<(VertexId, ObjectId)> {
    let mut column: Vec<(VertexId, ObjectId)> = vertex_of.iter().copied().zip(0..).collect();
    column.sort_unstable();
    column
}

/// The first object, by id, placed at a vertex an earlier object holds, as
/// `(vertex, object)`, in an [`objects_by_vertex`] column.
#[expect(
    clippy::indexing_slicing,
    reason = "windows(2) yields two-element slices"
)]
fn first_repeat(object_at: &[(VertexId, ObjectId)]) -> Option<(VertexId, ObjectId)> {
    object_at
        .windows(2)
        .filter(|w| w[0].0 == w[1].0)
        .map(|w| w[1])
        .min_by_key(|&(_, o)| o)
}

/// Derives the flat inverted lists (counting sort by term, objects kept in
/// ascending order) and per-term impact maxima from the flat documents.
#[expect(
    clippy::indexing_slicing,
    reason = "build time: every posting's term is < num_terms, the per-term tables hold \
              num_terms (+ 1 fence) entries, and doc_offsets are the documents' fences"
)]
fn invert(
    docs: &[DocPosting],
    doc_offsets: &[u32],
    num_terms: usize,
) -> (Vec<u32>, Vec<InvPosting>, Vec<f64>) {
    let mut inv_offsets = vec![0u32; num_terms + 1];
    for p in docs {
        inv_offsets[p.term as usize + 1] += 1;
    }
    for t in 0..num_terms {
        inv_offsets[t + 1] += inv_offsets[t];
    }
    let mut next: Vec<u32> = inv_offsets[..num_terms].to_vec();
    let mut inverted = vec![
        InvPosting {
            object: 0,
            impact: 0.0
        };
        docs.len()
    ];
    let mut max_impact = vec![0.0f64; num_terms];
    for o in 0..doc_offsets.len().saturating_sub(1) {
        let lo = doc_offsets[o] as usize;
        let hi = doc_offsets[o + 1] as usize;
        for p in &docs[lo..hi] {
            let t = p.term as usize;
            inverted[next[t] as usize] = InvPosting {
                object: o as ObjectId,
                impact: p.impact,
            };
            next[t] += 1;
            if p.impact > max_impact[t] {
                max_impact[t] = p.impact;
            }
        }
    }
    (inv_offsets, inverted, max_impact)
}

/// Builder for [`Corpus`]. Objects are added one at a time; impacts are
/// computed when [`CorpusBuilder::build`] runs.
#[derive(Debug, Default)]
pub struct CorpusBuilder {
    vertex_of: Vec<VertexId>,
    raw_docs: Vec<Vec<(TermId, u32)>>,
    num_terms: usize,
}

impl CorpusBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds an object at `vertex` whose document is `terms` (term, freq)
    /// pairs. Duplicate terms accumulate their frequencies. Returns the new
    /// object's id.
    ///
    /// # Panics
    /// If the document is empty or a frequency is zero. A second object at
    /// one vertex is refused by [`CorpusBuilder::build`].
    pub fn add_object(&mut self, vertex: VertexId, terms: &[(TermId, u32)]) -> ObjectId {
        assert!(!terms.is_empty(), "object documents must be non-empty");
        let mut doc: Vec<(TermId, u32)> = Vec::with_capacity(terms.len());
        let mut sorted = terms.to_vec();
        sorted.sort_unstable_by_key(|&(t, _)| t);
        for (t, f) in sorted {
            assert!(f > 0, "term frequencies must be positive");
            match doc.last_mut() {
                Some((lt, lf)) if *lt == t => *lf += f,
                _ => doc.push((t, f)),
            }
            self.num_terms = self.num_terms.max(t as usize + 1);
        }
        let id = self.vertex_of.len() as ObjectId;
        self.vertex_of.push(vertex);
        self.raw_docs.push(doc);
        id
    }

    /// Finalizes the corpus, computing impacts `λ_{t,o} = w_{t,o} / ‖w_o‖`
    /// with `w_{t,o} = 1 + ln f_{t,o}` per Eq. (2)/(3). Storage is flat:
    /// documents pool into one posting array behind per-object offsets and
    /// the inverted lists are derived by a counting sort over it.
    ///
    /// # Panics
    /// If two objects share a vertex (the paper places at most one object
    /// per vertex, `O ⊆ V`).
    #[expect(clippy::panic, reason = "the documented panic")]
    pub fn build(self) -> Corpus {
        match self.try_build() {
            Ok(corpus) => corpus,
            Err((vertex, _)) => panic!("vertex {vertex} already hosts an object"),
        }
    }

    /// [`CorpusBuilder::build`], or the vertex and id of the first object
    /// (by id) added at a vertex an earlier object holds. The check reads
    /// the `(vertex, object)` column the corpus sorts anyway.
    pub(crate) fn try_build(self) -> Result<Corpus, (VertexId, ObjectId)> {
        let object_at = objects_by_vertex(&self.vertex_of);
        if let Some(repeat) = first_repeat(&object_at) {
            return Err(repeat);
        }
        let num_objects = self.vertex_of.len();
        let mut doc_offsets = Vec::with_capacity(num_objects + 1);
        doc_offsets.push(0u32);
        let mut docs: Vec<DocPosting> = Vec::new();
        let mut total_occurrences = 0u64;

        for raw in self.raw_docs {
            let norm: f64 = raw
                .iter()
                .map(|&(_, f)| {
                    let w = 1.0 + (f as f64).ln();
                    w * w
                })
                .sum::<f64>()
                .sqrt();
            for (term, freq) in raw {
                total_occurrences += freq as u64;
                let impact = (1.0 + (freq as f64).ln()) / norm;
                docs.push(DocPosting { term, freq, impact });
            }
            doc_offsets.push(docs.len() as u32);
        }
        let (inv_offsets, inverted, max_impact) = invert(&docs, &doc_offsets, self.num_terms);

        Ok(Corpus {
            object_at,
            vertex_of: self.vertex_of,
            doc_offsets,
            docs,
            inv_offsets,
            inverted,
            max_impact,
            total_occurrences,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Builds the running-example-style corpus: three objects with
    /// overlapping keyword sets.
    fn sample() -> Corpus {
        let mut b = CorpusBuilder::new();
        // terms: 0 = thai, 1 = restaurant, 2 = takeaway
        b.add_object(10, &[(0, 1), (1, 1)]);
        b.add_object(20, &[(1, 2)]);
        b.add_object(30, &[(0, 1), (2, 3)]);
        b.build()
    }

    #[test]
    fn counts_and_lookup() {
        let c = sample();
        assert_eq!(c.num_objects(), 3);
        assert_eq!(c.num_terms(), 3);
        assert_eq!(c.total_occurrences(), 1 + 1 + 2 + 1 + 3);
        assert_eq!(c.vertex_of(1), 20);
        assert_eq!(c.object_at(30), Some(2));
        assert_eq!(c.object_at(99), None);
    }

    #[test]
    fn inverted_lists_match_documents() {
        let c = sample();
        let objs: Vec<_> = c.inverted(0).iter().map(|p| p.object).collect();
        assert_eq!(objs, vec![0, 2]);
        assert_eq!(c.inv_len(1), 2);
        assert_eq!(c.inv_len(2), 1);
    }

    #[test]
    fn containment_predicates() {
        let c = sample();
        assert!(c.contains(0, 0));
        assert!(!c.contains(1, 0));
        assert!(c.contains_all(0, &[0, 1]));
        assert!(!c.contains_all(0, &[0, 2]));
        assert!(c.contains_any(1, &[0, 1]));
        assert!(!c.contains_any(1, &[0, 2]));
    }

    #[test]
    fn impacts_are_normalized_per_document() {
        let c = sample();
        for o in 0..c.num_objects() as ObjectId {
            let norm: f64 = c.doc(o).iter().map(|p| p.impact * p.impact).sum();
            assert!((norm - 1.0).abs() < 1e-9, "object {o} norm {norm}");
        }
    }

    #[test]
    fn single_term_document_has_unit_impact() {
        let c = sample();
        // Object 1 has only term 1 (freq 2): impact must be exactly 1.
        assert!((c.doc(1)[0].impact - 1.0).abs() < 1e-12);
    }

    #[test]
    fn max_impact_is_max_over_inverted_list() {
        let c = sample();
        for t in 0..c.num_terms() as TermId {
            let expect = c
                .inverted(t)
                .iter()
                .map(|p| p.impact)
                .fold(0.0f64, f64::max);
            assert_eq!(c.max_impact(t), expect);
        }
    }

    #[test]
    fn duplicate_terms_accumulate() {
        let mut b = CorpusBuilder::new();
        b.add_object(1, &[(5, 1), (5, 2)]);
        let c = b.build();
        assert_eq!(
            c.doc(0),
            &[DocPosting {
                term: 5,
                freq: 3,
                impact: 1.0
            }]
        );
    }

    #[test]
    #[should_panic(expected = "vertex 1 already hosts")]
    fn duplicate_vertex_rejected() {
        let mut b = CorpusBuilder::new();
        b.add_object(1, &[(0, 1)]);
        b.add_object(1, &[(1, 1)]);
        b.build();
    }

    #[test]
    fn the_first_repeat_by_id_is_named() {
        let mut b = CorpusBuilder::new();
        for v in [9, 4, 7, 4, 9, 7] {
            b.add_object(v, &[(0, 1)]);
        }
        // Objects 3, 4 and 5 repeat a vertex; 3 comes first.
        assert_eq!(b.try_build().err(), Some((4, 3)));
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn empty_document_rejected() {
        let mut b = CorpusBuilder::new();
        b.add_object(1, &[]);
    }
}
