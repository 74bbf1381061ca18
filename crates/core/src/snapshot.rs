//! Engine-level snapshot codecs: mapping K-SPIN structures onto the flat
//! section format of [`kspin_snapshot`].
//!
//! This module knows how the engine's structures — CSR graph, corpus
//! posting columns, the Keyword Separated Index with its per-term
//! ρ-approximate NVDs, ALT landmark tables and the CH upward graph —
//! flatten into the section registry of
//! [`kspin_snapshot::format::section`]. Each `encode_*` appends its
//! sections to a [`SnapshotWriter`] in ascending id order; each
//! `decode_*` copies the sections back out of a validated
//! [`SnapshotFile`] and reassembles the structure through its crate's
//! validating `from_*_parts` constructor, so a checksum-valid but
//! logically corrupt file yields a structured [`SnapshotError`] rather
//! than a panic or a broken engine.
//!
//! Encoding is canonical: a structure always produces the same sections
//! with the same contents, index sections are written even when empty,
//! and pooled per-term arrays are concatenated in term-slot order. Save →
//! load → save is therefore byte-identical (test-enforced at the
//! workspace level).
//!
//! The full-system composition (vocabulary, `SnapshotExtras`, the
//! `KspinSystem` save/load entry points) lives in the root `kspin`
//! crate's `snapshot` module, which builds on these codecs.

#![deny(
    clippy::as_conversions,
    clippy::arithmetic_side_effects,
    clippy::indexing_slicing
)]

pub use kspin_snapshot::{
    format, FormatError, SectionLabel, SectionView, SnapshotError, SnapshotFile, SnapshotWriter,
};

use crate::index::{local_map, BuildStats, KeywordIndex, KeywordNvd, KspinIndex, Row};
use kspin_graph::morton::MortonSpace;
use kspin_graph::{Graph, Point};
use kspin_nvd::{AdjacencyGraph, ApproxNvd, SymmetryAudit};
use kspin_snapshot::format::section;
use kspin_text::{Corpus, TermId};

/// A cursor over one pooled section's decoded elements. Per-term slices
/// are taken off the front in term-slot order; [`Pool::finish`] then
/// proves the section holds no trailing elements, so pooled sections are
/// consumed exactly.
struct Pool<'a, T> {
    id: u32,
    data: &'a [T],
    cursor: usize,
}

impl<'a, T> Pool<'a, T> {
    fn new(id: u32, data: &'a [T]) -> Self {
        Pool {
            id,
            data,
            cursor: 0,
        }
    }

    /// The next `len` elements, or a structured error naming the section
    /// when the pool runs dry (a length section lying about its pools).
    fn take_n(&mut self, len: usize) -> Result<&'a [T], SnapshotError> {
        let end = self
            .cursor
            .checked_add(len)
            .ok_or_else(|| SnapshotError::decode(self.id, "pool length overflows"))?;
        let s = self.data.get(self.cursor..end).ok_or_else(|| {
            SnapshotError::decode(
                self.id,
                format!(
                    "pool exhausted: wanted {len} elements at {} of {}",
                    self.cursor,
                    self.data.len()
                ),
            )
        })?;
        self.cursor = end;
        Ok(s)
    }

    fn finish(self) -> Result<(), SnapshotError> {
        if self.cursor == self.data.len() {
            Ok(())
        } else {
            Err(SnapshotError::decode(
                self.id,
                format!(
                    "pool of {} elements consumed only up to {}",
                    self.data.len(),
                    self.cursor
                ),
            ))
        }
    }
}

impl<T: Copy> Pool<'_, T> {
    /// The next single element.
    fn take1(&mut self) -> Result<T, SnapshotError> {
        let s = self.take_n(1)?;
        s.first().copied().ok_or_else(|| {
            SnapshotError::decode(self.id, "pool yielded an empty single-element slice")
        })
    }
}

fn decoded_usize(id: u32, what: &str, v: u64) -> Result<usize, SnapshotError> {
    usize::try_from(v)
        .map_err(|_| SnapshotError::decode(id, format!("{what} {v} does not fit in usize")))
}

// ---------------------------------------------------------------------
// Graph (sections 1-4)
// ---------------------------------------------------------------------

/// Appends the road graph's CSR arrays and coordinates.
pub fn encode_graph(w: &mut SnapshotWriter, g: &Graph) {
    let (offsets, targets, weights, coords) = g.csr_parts();
    w.put_u32s(section::GRAPH_OFFSETS, offsets);
    w.put_u32s(section::GRAPH_TARGETS, targets);
    w.put_u32s(section::GRAPH_WEIGHTS, weights);
    let interleaved: Vec<u32> = coords
        .iter()
        .flat_map(|p| [p.x.cast_unsigned(), p.y.cast_unsigned()])
        .collect();
    w.put_u32s(section::GRAPH_COORDS, &interleaved);
}

/// Reassembles the road graph through [`Graph::from_csr_parts`].
///
/// # Errors
/// Missing/mistyped sections, an odd coordinate array, or any violated
/// CSR invariant.
pub fn decode_graph(f: &SnapshotFile<'_>) -> Result<Graph, SnapshotError> {
    let offsets = f.u32s(section::GRAPH_OFFSETS)?;
    let targets = f.u32s(section::GRAPH_TARGETS)?;
    let weights = f.u32s(section::GRAPH_WEIGHTS)?;
    let interleaved = f.u32s(section::GRAPH_COORDS)?;
    let (pairs, odd) = interleaved.as_chunks::<2>();
    if !odd.is_empty() {
        return Err(SnapshotError::decode(
            section::GRAPH_COORDS,
            format!("interleaved coordinate count {} is odd", interleaved.len()),
        ));
    }
    let coords: Vec<Point> = pairs
        .iter()
        .map(|&[x, y]| Point {
            x: x.cast_signed(),
            y: y.cast_signed(),
        })
        .collect();
    Graph::from_csr_parts(offsets, targets, weights, coords)
        .map_err(|e| SnapshotError::decode(section::GRAPH_OFFSETS, e))
}

// ---------------------------------------------------------------------
// Corpus (sections 10-14)
// ---------------------------------------------------------------------

/// Appends the corpus's flat posting columns.
pub fn encode_corpus(w: &mut SnapshotWriter, c: &Corpus) {
    let (vertex_of, doc_offsets, docs) = c.flat_parts();
    w.put_u32s(section::CORPUS_VERTEX_OF, vertex_of);
    w.put_u32s(section::CORPUS_DOC_OFFSETS, doc_offsets);
    let terms: Vec<u32> = docs.iter().map(|p| p.term).collect();
    let freqs: Vec<u32> = docs.iter().map(|p| p.freq).collect();
    let impacts: Vec<f64> = docs.iter().map(|p| p.impact).collect();
    w.put_u32s(section::CORPUS_DOC_TERMS, &terms);
    w.put_u32s(section::CORPUS_DOC_FREQS, &freqs);
    w.put_f64s(section::CORPUS_DOC_IMPACTS, &impacts);
}

/// Reassembles the corpus through [`Corpus::from_parts`], copying stored
/// impact bits verbatim so a reloaded corpus scores bit-identically.
/// `num_vertices` comes from the decoded graph: every object must sit on
/// one of its vertices.
///
/// # Errors
/// Missing/mistyped sections, mismatched posting columns, an object off
/// the graph, or any violated corpus invariant.
pub fn decode_corpus(f: &SnapshotFile<'_>, num_vertices: usize) -> Result<Corpus, SnapshotError> {
    let vertex_of = f.u32s(section::CORPUS_VERTEX_OF)?;
    if let Some(&v) = vertex_of
        .iter()
        .find(|&&v| usize::try_from(v).map_or(true, |v| v >= num_vertices))
    {
        return Err(SnapshotError::decode(
            section::CORPUS_VERTEX_OF,
            format!("object placed on vertex {v} of a {num_vertices}-vertex graph"),
        ));
    }
    let doc_offsets = f.u32s(section::CORPUS_DOC_OFFSETS)?;
    let terms = f.u32s(section::CORPUS_DOC_TERMS)?;
    let freqs = f.u32s(section::CORPUS_DOC_FREQS)?;
    let impacts = f.f64s(section::CORPUS_DOC_IMPACTS)?;
    if terms.len() != freqs.len() || terms.len() != impacts.len() {
        return Err(SnapshotError::decode(
            section::CORPUS_DOC_TERMS,
            format!(
                "posting columns disagree: {} terms, {} freqs, {} impacts",
                terms.len(),
                freqs.len(),
                impacts.len()
            ),
        ));
    }
    Corpus::from_parts(vertex_of, doc_offsets, &terms, &freqs, &impacts)
        .map_err(|e| SnapshotError::decode(section::CORPUS_DOC_OFFSETS, e))
}

// ---------------------------------------------------------------------
// Keyword Separated Index (sections 30-52)
// ---------------------------------------------------------------------

/// Appends the Keyword Separated Index: scalar metadata, the per-slot
/// kind table, the pooled NVD arrays and the pooled object tables, in
/// term-slot order. All thirteen sections are written even when their
/// pools are empty, so logical content maps one-to-one onto sections
/// (canonical). No section holds a vertex: the corpus places every object.
#[allow(
    clippy::as_conversions,
    reason = "encode half: trusted in-memory values"
)]
pub fn encode_index(w: &mut SnapshotWriter, index: &KspinIndex) {
    let entries = index.snapshot_entries();
    let stats = index.stats();

    let mut kinds = Vec::with_capacity(entries.len());
    let mut lens: Vec<u32> = Vec::new();
    let mut objects: Vec<u32> = Vec::new();
    let mut deleted: Vec<u8> = Vec::new();
    let mut nvd_scalars: Vec<u64> = Vec::new();
    let mut nvd_lens: Vec<u32> = Vec::new();
    let mut nvd_starts: Vec<u32> = Vec::new();
    let mut nvd_cand_offsets: Vec<u32> = Vec::new();
    let mut nvd_cands: Vec<u32> = Vec::new();
    let mut nvd_max_radius: Vec<u32> = Vec::new();
    let mut nvd_adj_offsets: Vec<u32> = Vec::new();
    let mut nvd_adj_data: Vec<u32> = Vec::new();

    for entry in entries {
        let Some(e) = entry else {
            kinds.push(0u8);
            continue;
        };
        lens.push(e.rows.len() as u32);
        objects.extend(e.rows.iter().map(|r| r.object));
        deleted.extend(e.rows.iter().map(|r| u8::from(r.deleted)));
        let Some(nvd) = &e.nvd else {
            kinds.push(1u8);
            continue;
        };
        kinds.push(2u8);
        let p = nvd.apx.snapshot_parts();
        let (min, scale_x, scale_y) = p.space.to_parts();
        nvd_scalars.extend_from_slice(&[
            u64::from(min.x as u32),
            u64::from(min.y as u32),
            scale_x.to_bits(),
            scale_y.to_bits(),
        ]);
        let (adj_offsets, adj_data) = p.adjacency.flat_parts();
        nvd_lens.extend_from_slice(&[
            p.starts.len() as u32,
            p.cand_offsets.len() as u32,
            p.cands.len() as u32,
            p.max_radius.len() as u32,
            adj_data.len() as u32,
        ]);
        nvd_starts.extend_from_slice(p.starts);
        nvd_cand_offsets.extend_from_slice(p.cand_offsets);
        nvd_cands.extend_from_slice(p.cands);
        nvd_max_radius.extend_from_slice(p.max_radius);
        nvd_adj_offsets.extend_from_slice(&adj_offsets);
        nvd_adj_data.extend_from_slice(&adj_data);
    }

    w.put_u64s(
        section::INDEX_META,
        &[
            index.rho() as u64,
            entries.len() as u64,
            stats.nvd_terms as u64,
            stats.small_terms as u64,
            index.list_max() as u64,
        ],
    );
    w.put_bytes(section::INDEX_TERM_KINDS, &kinds);
    w.put_u64s(section::NVD_SCALARS, &nvd_scalars);
    w.put_u32s(section::NVD_LENS, &nvd_lens);
    w.put_u32s(section::NVD_STARTS, &nvd_starts);
    w.put_u32s(section::NVD_CAND_OFFSETS, &nvd_cand_offsets);
    w.put_u32s(section::NVD_CANDS, &nvd_cands);
    w.put_u32s(section::NVD_MAX_RADIUS, &nvd_max_radius);
    w.put_u32s(section::NVD_ADJ_OFFSETS, &nvd_adj_offsets);
    w.put_u32s(section::NVD_ADJ_DATA, &nvd_adj_data);
    w.put_u32s(section::KEYWORD_LENS, &lens);
    w.put_u32s(section::KEYWORD_OBJECTS, &objects);
    w.put_bytes(section::KEYWORD_DELETED, &deleted);
}

struct NvdPools<'a> {
    scalars: Pool<'a, u64>,
    lens: Pool<'a, u32>,
    starts: Pool<'a, u32>,
    cand_offsets: Pool<'a, u32>,
    cands: Pool<'a, u32>,
    max_radius: Pool<'a, u32>,
    adj_offsets: Pool<'a, u32>,
    adj_data: Pool<'a, u32>,
}

fn len_field(id: u32, what: &str, v: u32) -> Result<usize, SnapshotError> {
    decoded_usize(id, what, u64::from(v))
}

/// Keyword `t`'s table: its `objects`, each placed on its vertex in
/// `corpus`, with their deletion `flags` (a byte each, 0 or 1). A built
/// table holds every object once, each in the corpus with `t` in its
/// document, and the query loops rely on that: their dedup set is sized to the
/// corpus, and a repeated object would survive its own deletion. So a
/// decoded table must prove it, for either keyword kind. `holder[o]` is
/// the last keyword that listed `o`, so a repeat finds `t` there.
fn table(
    corpus: &Corpus,
    t: TermId,
    objects: &[u32],
    flags: &[u8],
    holder: &mut [TermId],
) -> Result<Vec<Row>, SnapshotError> {
    if let Some(&b) = flags.iter().find(|&&b| b > 1) {
        return Err(SnapshotError::decode(
            section::KEYWORD_DELETED,
            format!("flag byte {b} is neither 0 nor 1"),
        ));
    }
    let refuse = |o: u32, what: &str| {
        SnapshotError::decode(
            section::KEYWORD_OBJECTS,
            format!("keyword {t} holds object {o}, {what}"),
        )
    };
    for &o in objects {
        let last = usize::try_from(o)
            .ok()
            .and_then(|i| holder.get_mut(i))
            .ok_or_else(|| refuse(o, "which is not in the corpus"))?;
        if std::mem::replace(last, t) == t {
            return Err(refuse(o, "twice"));
        }
        if !corpus.contains(o, t) {
            return Err(refuse(o, "whose document lacks it"));
        }
    }
    Ok(objects
        .iter()
        .zip(flags)
        .map(|(&object, &flag)| Row {
            object,
            vertex: corpus.vertex_of(object),
            deleted: flag == 1,
        })
        .collect())
}

/// The next NVD of the pools, over a keyword of `objects` objects: the
/// adjacency graph has one node per object. `audit` is the adjacency
/// audit's scratch, shared by every NVD of the file.
fn decode_one_nvd(
    p: &mut NvdPools<'_>,
    objects: usize,
    audit: &mut SymmetryAudit,
) -> Result<ApproxNvd, SnapshotError> {
    use section::*;
    let &[s_min_x, s_min_y, s_scale_x, s_scale_y] = p.scalars.take_n(4)? else {
        return Err(SnapshotError::decode(
            NVD_SCALARS,
            "scalar pool slice is not 4 wide",
        ));
    };
    let &[l_starts, l_cand_offsets, l_cands, l_gens, l_adj_edges] = p.lens.take_n(5)? else {
        return Err(SnapshotError::decode(
            NVD_LENS,
            "length pool slice is not 5 wide",
        ));
    };

    let min_x = u32::try_from(s_min_x)
        .map_err(|_| SnapshotError::decode(NVD_SCALARS, "min_x exceeds 32 bits"))?;
    let min_y = u32::try_from(s_min_y)
        .map_err(|_| SnapshotError::decode(NVD_SCALARS, "min_y exceeds 32 bits"))?;
    let min = Point {
        x: min_x.cast_signed(),
        y: min_y.cast_signed(),
    };
    let space = MortonSpace::from_parts(min, f64::from_bits(s_scale_x), f64::from_bits(s_scale_y))
        .map_err(|e| SnapshotError::decode(NVD_SCALARS, e))?;

    let starts_len = len_field(NVD_LENS, "starts length", l_starts)?;
    let cand_offsets_len = len_field(NVD_LENS, "cand_offsets length", l_cand_offsets)?;
    let cands_len = len_field(NVD_LENS, "cands length", l_cands)?;
    let gens = len_field(NVD_LENS, "generator count", l_gens)?;
    let adj_edges = len_field(NVD_LENS, "adjacency edge count", l_adj_edges)?;

    let leaf_fences = starts_len
        .checked_add(1)
        .ok_or_else(|| SnapshotError::decode(NVD_LENS, "leaf count overflows"))?;
    if cand_offsets_len != leaf_fences {
        return Err(SnapshotError::decode(
            NVD_LENS,
            format!("{cand_offsets_len} cand offsets for {starts_len} leaves"),
        ));
    }

    let starts = p.starts.take_n(starts_len)?.to_vec();
    let cand_offsets = p.cand_offsets.take_n(cand_offsets_len)?.to_vec();
    let cands = p.cands.take_n(cands_len)?.to_vec();
    let max_radius = p.max_radius.take_n(gens)?.to_vec();
    let adj_fences = objects
        .checked_add(1)
        .ok_or_else(|| SnapshotError::decode(NVD_LENS, "adjacency node count overflows"))?;
    let adj_offsets = p.adj_offsets.take_n(adj_fences)?;
    let adj_data = p.adj_data.take_n(adj_edges)?;
    let adjacency = AdjacencyGraph::from_flat(adj_offsets, adj_data)
        .map_err(|e| SnapshotError::decode(NVD_ADJ_OFFSETS, e))?;

    ApproxNvd::from_snapshot_parts(
        space,
        starts,
        cand_offsets,
        cands,
        max_radius,
        adjacency,
        audit,
    )
    .map_err(|e| SnapshotError::decode(NVD_SCALARS, e))
}

/// Reassembles the Keyword Separated Index: every pooled section is
/// consumed exactly (term-slot order, [`Pool::finish`] proves no
/// trailing elements), per-NVD structure goes through
/// [`ApproxNvd::from_snapshot_parts`]'s full structural audit, and the
/// stored term counts are checked against a recount. Every keyword's
/// objects are checked against `corpus` (the decoded one), which also
/// places them: each must exist there, once per keyword, with the
/// keyword in its document.
///
/// # Errors
/// Missing/mistyped sections or any violated index invariant; on error
/// no partially-initialized index escapes.
pub fn decode_index(f: &SnapshotFile<'_>, corpus: &Corpus) -> Result<KspinIndex, SnapshotError> {
    use section::*;
    let meta = f.u64s(INDEX_META)?;
    let &[m_rho, m_slots, m_nvd_terms, m_small_terms, m_list_max] = meta.as_slice() else {
        return Err(SnapshotError::decode(
            INDEX_META,
            format!("index meta holds {} scalars, expected 5", meta.len()),
        ));
    };
    let rho = decoded_usize(INDEX_META, "rho", m_rho)?;
    if rho == 0 {
        return Err(SnapshotError::decode(INDEX_META, "rho must be at least 1"));
    }
    let list_max = decoded_usize(INDEX_META, "list threshold", m_list_max)?;
    if list_max < rho {
        return Err(SnapshotError::decode(
            INDEX_META,
            format!("list threshold {list_max} is below rho {rho}"),
        ));
    }
    let term_slots = decoded_usize(INDEX_META, "term slot count", m_slots)?;
    let kinds = f.bytes(INDEX_TERM_KINDS)?;
    if kinds.len() != term_slots {
        return Err(SnapshotError::decode(
            INDEX_TERM_KINDS,
            format!("{} kind bytes for {term_slots} term slots", kinds.len()),
        ));
    }

    let nvd_scalars = f.u64s(NVD_SCALARS)?;
    let nvd_lens = f.u32s(NVD_LENS)?;
    let nvd_starts = f.u32s(NVD_STARTS)?;
    let nvd_cand_offsets = f.u32s(NVD_CAND_OFFSETS)?;
    let nvd_cands = f.u32s(NVD_CANDS)?;
    let nvd_max_radius = f.u32s(NVD_MAX_RADIUS)?;
    let nvd_adj_offsets = f.u32s(NVD_ADJ_OFFSETS)?;
    let nvd_adj_data = f.u32s(NVD_ADJ_DATA)?;
    let keyword_lens = f.u32s(KEYWORD_LENS)?;
    let keyword_objects = f.u32s(KEYWORD_OBJECTS)?;
    let keyword_deleted = f.bytes(KEYWORD_DELETED)?;

    let mut nvd = NvdPools {
        scalars: Pool::new(NVD_SCALARS, &nvd_scalars),
        lens: Pool::new(NVD_LENS, &nvd_lens),
        starts: Pool::new(NVD_STARTS, &nvd_starts),
        cand_offsets: Pool::new(NVD_CAND_OFFSETS, &nvd_cand_offsets),
        cands: Pool::new(NVD_CANDS, &nvd_cands),
        max_radius: Pool::new(NVD_MAX_RADIUS, &nvd_max_radius),
        adj_offsets: Pool::new(NVD_ADJ_OFFSETS, &nvd_adj_offsets),
        adj_data: Pool::new(NVD_ADJ_DATA, &nvd_adj_data),
    };
    let mut lens_pool = Pool::new(KEYWORD_LENS, &keyword_lens);
    let mut objects_pool = Pool::new(KEYWORD_OBJECTS, &keyword_objects);
    let mut deleted_pool = Pool::new(KEYWORD_DELETED, keyword_deleted);

    let mut entries: Vec<Option<KeywordIndex>> = Vec::with_capacity(kinds.len());
    let mut holder = vec![TermId::MAX; corpus.num_objects()];
    let mut audit = SymmetryAudit::default();
    for (slot, &kind) in kinds.iter().enumerate() {
        if kind == 0 {
            entries.push(None);
            continue;
        }
        if kind > 2 {
            return Err(SnapshotError::decode(
                INDEX_TERM_KINDS,
                format!("unknown term kind byte {kind}"),
            ));
        }
        let t = TermId::try_from(slot)
            .map_err(|_| SnapshotError::decode(INDEX_TERM_KINDS, "term slot exceeds u32"))?;
        let len = len_field(KEYWORD_LENS, "keyword object count", lens_pool.take1()?)?;
        let objects = objects_pool.take_n(len)?;
        let flags = deleted_pool.take_n(len)?;
        let rows = table(corpus, t, objects, flags, &mut holder)?;
        let nvd = if kind == 2 {
            let apx = decode_one_nvd(&mut nvd, len, &mut audit)?;
            // The split is by the build-time count, which inserts do not
            // move: an NVD over that few generators was never built.
            if apx.num_original() <= list_max {
                return Err(SnapshotError::decode(
                    INDEX_TERM_KINDS,
                    format!(
                        "keyword {t} has an NVD built over {} generators, at or under the \
                         list threshold {list_max}",
                        apx.num_original()
                    ),
                ));
            }
            Some(Box::new(KeywordNvd {
                apx,
                local_of: local_map(&rows),
            }))
        } else {
            None
        };
        entries.push(Some(KeywordIndex { rows, nvd }));
    }

    nvd.scalars.finish()?;
    nvd.lens.finish()?;
    nvd.starts.finish()?;
    nvd.cand_offsets.finish()?;
    nvd.cands.finish()?;
    nvd.max_radius.finish()?;
    nvd.adj_offsets.finish()?;
    nvd.adj_data.finish()?;
    lens_pool.finish()?;
    objects_pool.finish()?;
    deleted_pool.finish()?;

    let nvd_count = kinds.iter().filter(|&&k| k == 2).count();
    let small_count = kinds.iter().filter(|&&k| k == 1).count();
    #[expect(
        clippy::as_conversions,
        reason = "usize → u64 widening of in-memory counters, lossless on every supported target"
    )]
    if m_nvd_terms != nvd_count as u64 || m_small_terms != small_count as u64 {
        return Err(SnapshotError::decode(
            INDEX_META,
            format!(
                "meta claims {m_nvd_terms}/{m_small_terms} nvd/small terms, \
                 kinds table holds {nvd_count}/{small_count}"
            ),
        ));
    }
    let stats = BuildStats {
        nvd_terms: nvd_count,
        small_terms: small_count,
        build_seconds: 0.0,
    };
    Ok(KspinIndex::from_snapshot_parts(
        rho, list_max, entries, stats,
    ))
}

// ---------------------------------------------------------------------
// ALT (sections 60-61)
// ---------------------------------------------------------------------

/// Appends the ALT landmark set and distance table.
pub fn encode_alt(w: &mut SnapshotWriter, alt: &kspin_alt::AltIndex) {
    let (landmarks, _num_vertices, dist) = alt.flat_parts();
    w.put_u32s(section::ALT_LANDMARKS, landmarks);
    w.put_u32s(section::ALT_DIST, dist);
}

/// Reassembles the ALT index. `num_vertices` comes from the decoded
/// graph (the table is `vertices × landmarks`, vertex-major: one row of
/// landmark distances per vertex).
///
/// # Errors
/// Missing/mistyped sections or an inconsistent table shape.
pub fn decode_alt(
    f: &SnapshotFile<'_>,
    num_vertices: usize,
) -> Result<kspin_alt::AltIndex, SnapshotError> {
    let landmarks = f.u32s(section::ALT_LANDMARKS)?;
    let dist = f.u32s(section::ALT_DIST)?;
    kspin_alt::AltIndex::from_flat_parts(landmarks, num_vertices, dist)
        .map_err(|e| SnapshotError::decode(section::ALT_DIST, e))
}

// ---------------------------------------------------------------------
// Contraction hierarchy (sections 70-74, optional)
// ---------------------------------------------------------------------

/// Appends the CH node order and upward adjacency.
#[allow(
    clippy::as_conversions,
    reason = "encode half: trusted in-memory values"
)]
pub fn encode_ch(w: &mut SnapshotWriter, ch: &kspin_ch::ContractionHierarchy) {
    let (rank, up_offsets, up_targets, up_weights, num_shortcuts) = ch.flat_parts();
    w.put_u64s(section::CH_META, &[num_shortcuts as u64]);
    w.put_u32s(section::CH_RANK, rank);
    w.put_u32s(section::CH_UP_OFFSETS, up_offsets);
    w.put_u32s(section::CH_UP_TARGETS, up_targets);
    w.put_u32s(section::CH_UP_WEIGHTS, up_weights);
}

/// Reassembles the CH of `graph` when present, `Ok(None)` when the
/// snapshot was saved without one.
///
/// # Errors
/// Mistyped/partial CH sections or any violated CH invariant (rank not
/// a permutation of the graph's vertices, non-upward edges, a shortcut
/// count the upward arcs do not give).
pub fn decode_ch(
    f: &SnapshotFile<'_>,
    graph: &kspin_graph::Graph,
) -> Result<Option<kspin_ch::ContractionHierarchy>, SnapshotError> {
    use section::*;
    if !f.has(CH_META) {
        return Ok(None);
    }
    let meta = f.u64s(CH_META)?;
    let &[m_shortcuts] = meta.as_slice() else {
        return Err(SnapshotError::decode(
            CH_META,
            format!("ch meta holds {} scalars, expected 1", meta.len()),
        ));
    };
    let num_shortcuts = decoded_usize(CH_META, "shortcut count", m_shortcuts)?;
    let rank = f.u32s(CH_RANK)?;
    let up_offsets = f.u32s(CH_UP_OFFSETS)?;
    let up_targets = f.u32s(CH_UP_TARGETS)?;
    let up_weights = f.u32s(CH_UP_WEIGHTS)?;
    let ch = kspin_ch::ContractionHierarchy::from_flat_parts(
        graph, rank, up_offsets, up_targets, up_weights,
    )
    .map_err(|e| SnapshotError::decode(CH_RANK, e))?;
    let (.., counted) = ch.flat_parts();
    if counted != num_shortcuts {
        return Err(SnapshotError::decode(
            CH_META,
            format!(
                "shortcut count {num_shortcuts}, but {counted} upward arcs join no road neighbours"
            ),
        ));
    }
    Ok(Some(ch))
}

#[cfg(test)]
#[allow(
    clippy::as_conversions,
    clippy::arithmetic_side_effects,
    clippy::indexing_slicing,
    reason = "test fixtures: trusted in-memory values"
)]
mod tests {
    use super::*;
    use crate::index::KspinConfig;
    use kspin_graph::{GraphBuilder, VertexId as V};
    use kspin_text::CorpusBuilder;

    fn grid_graph(side: u32) -> Graph {
        let mut b = GraphBuilder::new((side * side) as usize);
        for y in 0..side {
            for x in 0..side {
                b.set_coord(
                    y * side + x,
                    Point {
                        x: x as i32 * 100,
                        y: y as i32 * 100,
                    },
                );
            }
        }
        for y in 0..side {
            for x in 0..side {
                let v = y * side + x;
                if x + 1 < side {
                    b.add_edge(v, v + 1, 100 + ((v * 7) % 41));
                }
                if y + 1 < side {
                    b.add_edge(v, v + side, 100 + ((v * 13) % 37));
                }
            }
        }
        b.build()
    }

    fn small_corpus(g: &Graph) -> Corpus {
        let mut cb = CorpusBuilder::new();
        let n = g.num_vertices() as u32;
        for v in (0..n).step_by(3) {
            let mut terms: Vec<(u32, u32)> = vec![(0, 1 + v % 3)];
            if v % 2 == 0 {
                terms.push((1, 1));
            }
            if v % 5 == 0 {
                terms.push((2 + v % 4, 2));
            }
            cb.add_object(v as V, &terms);
        }
        cb.build()
    }

    fn roundtrip_index(index: &KspinIndex, corpus: &Corpus) -> KspinIndex {
        let mut w = SnapshotWriter::new();
        encode_index(&mut w, index);
        let bytes = w.finish();
        let f = SnapshotFile::validate(&bytes).expect("canonical bytes validate");
        decode_index(&f, corpus).expect("decode")
    }

    #[test]
    fn graph_roundtrip_is_identity() {
        let g = grid_graph(6);
        let mut w = SnapshotWriter::new();
        encode_graph(&mut w, &g);
        let bytes = w.finish();
        let f = SnapshotFile::validate(&bytes).unwrap();
        let g2 = decode_graph(&f).unwrap();
        assert_eq!(g.csr_parts(), g2.csr_parts());
    }

    #[test]
    fn corpus_roundtrip_preserves_impact_bits() {
        let g = grid_graph(6);
        let c = small_corpus(&g);
        let mut w = SnapshotWriter::new();
        encode_corpus(&mut w, &c);
        let bytes = w.finish();
        let f = SnapshotFile::validate(&bytes).unwrap();
        let c2 = decode_corpus(&f, g.num_vertices()).unwrap();
        let (v1, o1, d1) = c.flat_parts();
        let (v2, o2, d2) = c2.flat_parts();
        assert_eq!(v1, v2);
        assert_eq!(o1, o2);
        assert_eq!(d1.len(), d2.len());
        for (a, b) in d1.iter().zip(d2) {
            assert_eq!(a.term, b.term);
            assert_eq!(a.freq, b.freq);
            assert_eq!(a.impact.to_bits(), b.impact.to_bits());
        }
    }

    #[test]
    fn index_roundtrip_preserves_structure_and_reencodes_identically() {
        let g = grid_graph(8);
        let c = small_corpus(&g);
        let cfg = KspinConfig {
            rho: 3,
            list_max: 3,
            ..KspinConfig::default()
        };
        let index = KspinIndex::build(&g, &c, &cfg);
        let index2 = roundtrip_index(&index, &c);
        index2.validate(&c).expect("reloaded index validates");
        assert_eq!(index.rho(), index2.rho());
        assert_eq!(index.stats().nvd_terms, index2.stats().nvd_terms);
        assert_eq!(index.stats().small_terms, index2.stats().small_terms);

        // Canonical: encode(decode(encode(x))) == encode(x), byte for byte.
        let mut w1 = SnapshotWriter::new();
        encode_index(&mut w1, &index);
        let mut w2 = SnapshotWriter::new();
        encode_index(&mut w2, &index2);
        assert_eq!(w1.finish(), w2.finish());
    }

    #[test]
    fn alt_ch_roundtrip() {
        let g = grid_graph(6);
        let alt = kspin_alt::AltIndex::build(&g, 4, kspin_alt::LandmarkStrategy::Farthest, 0);
        let ch = kspin_ch::ContractionHierarchy::build(&g, &kspin_ch::ChConfig::default());
        let mut w = SnapshotWriter::new();
        encode_alt(&mut w, &alt);
        encode_ch(&mut w, &ch);
        let bytes = w.finish();
        let f = SnapshotFile::validate(&bytes).unwrap();
        let alt2 = decode_alt(&f, g.num_vertices()).unwrap();
        assert_eq!(alt.flat_parts(), alt2.flat_parts());
        let ch2 = decode_ch(&f, &g).unwrap().expect("ch present");
        assert_eq!(ch.flat_parts(), ch2.flat_parts());
    }

    #[test]
    fn optional_sections_absent_decode_to_none() {
        let g = grid_graph(4);
        let mut w = SnapshotWriter::new();
        encode_graph(&mut w, &g);
        let bytes = w.finish();
        let f = SnapshotFile::validate(&bytes).unwrap();
        assert!(decode_ch(&f, &g).unwrap().is_none());
    }

    #[test]
    fn logically_corrupt_but_checksum_valid_index_is_rejected() {
        let g = grid_graph(8);
        let c = small_corpus(&g);
        let cfg = KspinConfig {
            rho: 3,
            list_max: 3,
            ..KspinConfig::default()
        };
        let index = KspinIndex::build(&g, &c, &cfg);
        let mut w = SnapshotWriter::new();
        encode_index(&mut w, &index);
        let good = w.finish();
        let f = SnapshotFile::validate(&good).unwrap();

        // Reassembles the index sections around a substituted meta/kinds
        // pair and NVD adjacency pool: valid checksums, logically corrupt
        // content.
        let reassemble = |meta: &[u64], kinds: &[u8], adj_data: &[u32]| {
            let mut w2 = SnapshotWriter::new();
            for s in f.sections() {
                match s.id {
                    section::INDEX_META => w2.put_u64s(s.id, meta),
                    section::INDEX_TERM_KINDS => w2.put_bytes(s.id, kinds),
                    section::NVD_ADJ_DATA => w2.put_u32s(s.id, adj_data),
                    _ if s.kind == format::KIND_U32 => w2.put_u32s(s.id, &f.u32s(s.id).unwrap()),
                    _ if s.kind == format::KIND_U64 => w2.put_u64s(s.id, &f.u64s(s.id).unwrap()),
                    _ => w2.put_bytes(s.id, f.bytes(s.id).unwrap()),
                }
            }
            w2.finish()
        };
        let meta = f.u64s(section::INDEX_META).unwrap();
        let kinds = f.bytes(section::INDEX_TERM_KINDS).unwrap();
        let adj_data = f.u32s(section::NVD_ADJ_DATA).unwrap();

        // A lying meta (term count inflated, one more NVD claimed than the
        // pools hold), a meta that is not exactly 5 words wide, and a
        // self-consistent NVD term of zero leaves over zero generators,
        // whose first point location would index past its one candidate
        // fence — decode_index must reject all three.
        let mut lying_meta = meta.clone();
        lying_meta[1] += 1;
        let mut lying_kinds = kinds.to_vec();
        lying_kinds.push(2);
        let mut wide_meta = meta.clone();
        wide_meta.push(0);
        let mut leafless = SnapshotWriter::new();
        leafless.put_u64s(section::INDEX_META, &[3, 1, 1, 0, 3]);
        leafless.put_bytes(section::INDEX_TERM_KINDS, &[2]);
        let one = 1f64.to_bits();
        leafless.put_u64s(section::NVD_SCALARS, &[0, 0, one, one]);
        for (id, words) in [
            (section::NVD_LENS, &[0, 1, 0, 0, 0][..]),
            (section::NVD_STARTS, &[]),
            (section::NVD_CAND_OFFSETS, &[0]),
            (section::NVD_CANDS, &[]),
            (section::NVD_MAX_RADIUS, &[]),
            (section::NVD_ADJ_OFFSETS, &[0]),
            (section::NVD_ADJ_DATA, &[]),
            (section::KEYWORD_LENS, &[0]),
            (section::KEYWORD_OBJECTS, &[]),
        ] {
            leafless.put_u32s(id, words);
        }
        leafless.put_bytes(section::KEYWORD_DELETED, &[]);
        for bad in [
            reassemble(&lying_meta, &lying_kinds, &adj_data),
            reassemble(&wide_meta, kinds, &adj_data),
            leafless.finish(),
        ] {
            let f2 = SnapshotFile::validate(&bad).expect("checksums are fresh");
            let err = decode_index(&f2, &c).expect_err("corrupt index accepted");
            assert!(matches!(err, SnapshotError::Decode { .. }), "{err}");
        }

        // A well-shaped adjacency pool whose first edge a→b of the first
        // NVD is rewritten to an out-of-range neighbour, a self-loop, and
        // an edge to a stranger that does not return it:
        // `AdjacencyGraph::from_flat` checks the offsets only, so it is the
        // audit of the assembled NVD that must refuse each, naming an NVD
        // section.
        let adj_offsets = f.u32s(section::NVD_ADJ_OFFSETS).unwrap();
        let nodes = f.u32s(section::NVD_LENS).unwrap()[3];
        let a = adj_offsets.windows(2).position(|w| w[1] > w[0]).unwrap();
        let a_list = &adj_data[..adj_offsets[a + 1] as usize];
        let stranger = (0..nodes)
            .find(|&g| g != a as u32 && !a_list.contains(&g))
            .expect("a generator that is not adjacent to a");
        for first_edge in [u32::MAX, a as u32, stranger] {
            let mut corrupt = adj_data.clone();
            corrupt[0] = first_edge;
            let bad = reassemble(&meta, kinds, &corrupt);
            let f2 = SnapshotFile::validate(&bad).expect("checksums are fresh");
            let err = decode_index(&f2, &c).expect_err("corrupt adjacency accepted");
            assert!(
                matches!(
                    err.at(),
                    SectionLabel::Section(section::NVD_SCALARS | section::NVD_ADJ_OFFSETS)
                ),
                "{err}"
            );
        }
    }
}
