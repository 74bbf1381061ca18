//! The Keyword Separated Index (§6).
//!
//! One independent spatial index per keyword:
//!
//! * keywords with `|inv(t)| ≤ max(list_max, ρ)` get **no NVD at all**
//!   (Observation 1 — under Zipf's law that is the vast majority); their
//!   inverted list *is* the index, and its heap is seeded with every object,
//! * frequent keywords get a [`ApproxNvd`] (§6.1) whose generators are the
//!   keyword's objects.
//!
//! The paper uses ρ for both jobs: the list threshold and the quadtree's
//! colour limit. Here they are split. ρ keeps the quadtree, and the list
//! threshold defaults to 20, because a whole-graph Voronoi sweep does not
//! pay for a keyword of 6–20 objects: seeding their heap whole costs 2–4 %
//! more lower bounds per BkNN-∨ query and leaves the distance computations
//! per query unchanged to one decimal (EXPERIMENTS.md, "An NVD only where
//! it pays"). `list_max = ρ` builds the
//! paper's index.
//!
//! Keyword independence makes construction embarrassingly parallel
//! (Observation 3); `build` fans terms out over worker threads.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

use kspin_graph::{Graph, VertexId};
use kspin_nvd::{ApproxNvd, SweepScratch};
use kspin_text::{Corpus, ObjectId, TermId};

use crate::modules::NetworkDistance;

/// Index construction parameters.
#[derive(Debug, Clone)]
pub struct KspinConfig {
    /// ρ: NVD quadtrees stop splitting at ρ colors (§6.1). Paper default:
    /// 5.
    pub rho: usize,
    /// Keywords with at most `max(list_max, ρ)` objects skip NVD
    /// construction and stay plain lists (Observation 1). Default 20; the
    /// paper's configuration is `list_max = ρ`.
    pub list_max: usize,
    /// Worker threads for parallel per-keyword NVD construction.
    pub num_threads: usize,
}

impl Default for KspinConfig {
    fn default() -> Self {
        KspinConfig {
            rho: 5,
            list_max: 20,
            #[expect(
                clippy::disallowed_methods,
                reason = "sizes the build/serving worker pool only; every parallel path writes \
                          into input-ordered result slots, so the worker count never reaches a \
                          returned value"
            )]
            num_threads: std::thread::available_parallelism().map_or(4, |p| p.get()),
        }
    }
}

/// One keyword's index: the table of its objects, plus a ρ-approximate
/// NVD over them when the keyword was built over more objects than the
/// index's list threshold.
///
/// The table is the one record of which objects the keyword holds: row
/// `l` (local id `l`) is a corpus object, its vertex and its §6.2 deletion
/// mark. Local ids run in build order, then in §6.2 insert order, and are
/// the NVD's generator and object ids too.
#[derive(Debug, Clone, Default)]
pub(crate) struct KeywordIndex {
    pub(crate) rows: Vec<Row>,
    /// `Some` exactly when the keyword was built over more objects than
    /// the list threshold (Observation 1: a shorter list is the whole
    /// index). Boxed so the Zipf-tail majority keeps the per-term entry
    /// small.
    pub(crate) nvd: Option<Box<KeywordNvd>>,
}

/// One row of a keyword's object table.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Row {
    pub(crate) object: ObjectId,
    pub(crate) vertex: VertexId,
    /// §6.2 mark-deleted.
    pub(crate) deleted: bool,
}

/// The NVD part of a frequent keyword: its ρ-approximate NVD (§6.1) and
/// the corpus → local id map.
#[derive(Debug, Clone)]
pub(crate) struct KeywordNvd {
    pub(crate) apx: ApproxNvd,
    /// `(object, local id)` for every row of the table, sorted by object:
    /// one array, binary-searched (§6.2 inserts shift it by one slot).
    pub(crate) local_of: Vec<(ObjectId, u32)>,
}

impl KeywordIndex {
    /// The index of a keyword over `rows` (non-empty, none deleted): an
    /// NVD with ρ-colour leaves exactly when there are more than
    /// `list_max`, swept on `scratch`.
    fn build(graph: &Graph, rows: Vec<Row>, split: Split, scratch: &mut SweepScratch) -> Self {
        let Split { rho, list_max } = split;
        let nvd = (rows.len() > list_max).then(|| {
            let generators: Vec<VertexId> = rows.iter().map(|r| r.vertex).collect();
            Box::new(KeywordNvd {
                apx: ApproxNvd::build(graph, &generators, rho, scratch),
                local_of: local_map(&rows),
            })
        });
        KeywordIndex { rows, nvd }
    }

    /// The local id of corpus object `o`, if the keyword holds it.
    pub(crate) fn local_id(&self, o: ObjectId) -> Option<usize> {
        match &self.nvd {
            Some(n) => n
                .local_of
                .binary_search_by_key(&o, |&(x, _)| x)
                .ok()
                .and_then(|i| n.local_of.get(i))
                .map(|&(_, l)| l as usize),
            None => self.rows.iter().position(|r| r.object == o),
        }
    }

    /// Live (not deleted) object count.
    fn live_count(&self) -> usize {
        self.rows.iter().filter(|r| !r.deleted).count()
    }
}

/// `(rows[l].object, l)` for every `l`, sorted by object. A build lists
/// the objects ascending and §6.2 appends inserts ascending, so the stable
/// sort, which merges runs, is linear here.
pub(crate) fn local_map(rows: &[Row]) -> Vec<(ObjectId, u32)> {
    let mut map: Vec<(ObjectId, u32)> = rows.iter().map(|r| r.object).zip(0..).collect();
    map.sort();
    map
}

/// Construction statistics reported by the index benches (Figs. 6, 14).
#[derive(Debug, Clone, Default)]
pub struct BuildStats {
    /// Keywords indexed with an NVD.
    pub nvd_terms: usize,
    /// Keywords indexed with a plain list (Observation 1 beneficiaries).
    pub small_terms: usize,
    /// Wall-clock build time in seconds; `0.0` on an index loaded from a
    /// snapshot (a clock reading is not content, so it is not stored).
    pub build_seconds: f64,
}

impl BuildStats {
    /// The counter of `entry`'s kind.
    fn count_of(&mut self, entry: &KeywordIndex) -> &mut usize {
        if entry.nvd.is_some() {
            &mut self.nvd_terms
        } else {
            &mut self.small_terms
        }
    }
}

/// The two thresholds a keyword is built with: ρ, the quadtree's colour
/// limit, and `list_max ≥ ρ`, the object count up to which the keyword is
/// a plain list.
#[derive(Debug, Clone, Copy)]
struct Split {
    rho: usize,
    list_max: usize,
}

/// The Keyword Separated Index over a whole corpus.
#[derive(Debug)]
pub struct KspinIndex {
    split: Split,
    entries: Vec<Option<KeywordIndex>>,
    stats: BuildStats,
    /// The NVD sweep's bucket queue, kept for [`KspinIndex::rebuild_term`].
    /// Not content: empty until the first rebuild, never saved.
    scratch: SweepScratch,
}

impl KspinIndex {
    /// Builds the index over all corpus objects.
    pub fn build(graph: &Graph, corpus: &Corpus, config: &KspinConfig) -> Self {
        Self::build_filtered(graph, corpus, |_| true, config)
    }

    /// Builds over the subset of objects for which `include` holds — the
    /// §6.2 update experiment builds over (100−x)% and lazily inserts the
    /// rest.
    pub fn build_filtered<F>(
        graph: &Graph,
        corpus: &Corpus,
        include: F,
        config: &KspinConfig,
    ) -> Self
    where
        F: Fn(ObjectId) -> bool + Sync,
    {
        assert!(config.rho >= 1, "rho must be at least 1");
        let split = Split {
            rho: config.rho,
            list_max: config.list_max.max(config.rho),
        };
        #[expect(
            clippy::disallowed_methods,
            reason = "times the build for `BuildStats::build_seconds` only; no index byte or \
                      answer reads it"
        )]
        let start = Instant::now();
        let num_terms = corpus.num_terms();
        let next = AtomicUsize::new(0);
        let threads = config.num_threads.max(1);

        let mut shards: Vec<Vec<(TermId, KeywordIndex)>> = Vec::new();
        let scope_result = crossbeam::thread::scope(|scope| {
            let mut handles = Vec::new();
            for _ in 0..threads {
                let next = &next;
                let include = &include;
                handles.push(scope.spawn(move |_| {
                    let mut out = Vec::new();
                    let mut scratch = SweepScratch::default();
                    loop {
                        let t = next.fetch_add(1, Ordering::Relaxed);
                        if t >= num_terms {
                            break;
                        }
                        let t = t as TermId;
                        let entry =
                            Self::build_term(graph, corpus, t, include, split, &mut scratch);
                        if let Some(entry) = entry {
                            out.push((t, entry));
                        }
                    }
                    out
                }));
            }
            shards = handles
                .into_iter()
                .map(|h| match h.join() {
                    Ok(shard) => shard,
                    // Re-raise the worker's own panic payload so the
                    // original failure reaches the caller, not a generic
                    // join message.
                    Err(payload) => std::panic::resume_unwind(payload),
                })
                .collect();
        });
        if let Err(payload) = scope_result {
            // Unreachable: every handle is joined above, so crossbeam's
            // unjoined-child-panicked arm can never trigger; re-raise to
            // preserve the payload if it somehow does.
            std::panic::resume_unwind(payload);
        }

        let mut entries: Vec<Option<KeywordIndex>> = (0..num_terms).map(|_| None).collect();
        let mut stats = BuildStats::default();
        #[expect(
            clippy::indexing_slicing,
            reason = "workers only build terms < num_terms, entries' length"
        )]
        for shard in shards {
            for (t, entry) in shard {
                *stats.count_of(&entry) += 1;
                entries[t as usize] = Some(entry);
            }
        }
        stats.build_seconds = start.elapsed().as_secs_f64();
        KspinIndex {
            split,
            entries,
            stats,
            scratch: SweepScratch::default(),
        }
    }

    fn build_term<F>(
        graph: &Graph,
        corpus: &Corpus,
        t: TermId,
        include: &F,
        split: Split,
        scratch: &mut SweepScratch,
    ) -> Option<KeywordIndex>
    where
        F: Fn(ObjectId) -> bool,
    {
        let rows: Vec<Row> = corpus
            .inverted(t)
            .iter()
            .filter(|p| include(p.object))
            .map(|p| Row {
                object: p.object,
                vertex: corpus.vertex_of(p.object),
                deleted: false,
            })
            .collect();
        (!rows.is_empty()).then(|| KeywordIndex::build(graph, rows, split, scratch))
    }

    /// The ρ the index was built with.
    pub fn rho(&self) -> usize {
        self.split.rho
    }

    /// The list threshold the index was built with, `max(list_max, ρ)`: a
    /// keyword built over more objects than this has an NVD.
    pub fn list_max(&self) -> usize {
        self.split.list_max
    }

    /// Construction statistics.
    pub fn stats(&self) -> &BuildStats {
        &self.stats
    }

    /// The per-keyword index of `t`, if the keyword has any objects.
    #[inline]
    pub(crate) fn entry(&self, t: TermId) -> Option<&KeywordIndex> {
        self.entries.get(t as usize).and_then(Option::as_ref)
    }

    /// Every per-term entry in term-slot order — the snapshot
    /// serialization boundary (`entries.len()` is the term-slot count).
    pub(crate) fn snapshot_entries(&self) -> &[Option<KeywordIndex>] {
        &self.entries
    }

    /// Reassembles an index from decoded parts: ρ, the list threshold
    /// (`≥ ρ`) and the entries. Per-entry structure is validated by the
    /// snapshot codec before this runs.
    pub(crate) fn from_snapshot_parts(
        rho: usize,
        list_max: usize,
        entries: Vec<Option<KeywordIndex>>,
        stats: BuildStats,
    ) -> Self {
        KspinIndex {
            split: Split { rho, list_max },
            entries,
            stats,
            scratch: SweepScratch::default(),
        }
    }

    /// Approximate index size in bytes (Keyword Separated Index only — the
    /// distance and lower-bound modules report their own sizes): per
    /// keyword its table's rows and header, and its NVD part with the
    /// corpus → local map.
    pub fn size_bytes(&self) -> usize {
        self.entries
            .iter()
            .flatten()
            .map(|e| {
                let nvd = e.nvd.as_ref();
                e.rows.len() * size_of::<Row>()
                    + 24
                    + nvd.map_or(0, |n| {
                        n.apx.size_bytes() + n.local_of.len() * size_of::<(ObjectId, u32)>()
                    })
            })
            .sum()
    }

    /// The debug-mode invariant auditor: cross-checks every per-keyword
    /// index against `corpus` and the list threshold, returning all
    /// violations found.
    ///
    /// Per keyword `t`, the audit asserts:
    ///
    /// * **List split (Observation 1)** — a keyword without an NVD holds at
    ///   most `max(list_max, ρ)` objects and an NVD was built over more
    ///   generators than that. The split is by the build-time count: §6.2
    ///   inserts may legitimately grow a list past the threshold, so fold
    ///   pending updates with [`KspinIndex::rebuild_term`] before
    ///   validating an updated index.
    /// * Table consistency — the table holds no object twice; each object
    ///   is in the corpus, on the vertex the table gives it, and its
    ///   document contains `t`. With an NVD, the corpus → local map
    ///   inverts the table and the NVD covers exactly the table's objects.
    /// * The per-NVD structural audit [`ApproxNvd::validate`] (adjacency
    ///   symmetry — Observation 2a — plus quadtree candidate invariants),
    ///   with violations prefixed by the owning keyword.
    pub fn validate(&self, corpus: &Corpus) -> Result<(), Vec<String>> {
        let mut errs = Vec::new();
        let list_max = self.list_max();
        for (ti, entry) in self.entries.iter().enumerate() {
            let Some(e) = entry else { continue };
            let t = ti as TermId;
            let n = e.rows.len();
            match &e.nvd {
                None if n > list_max => errs.push(format!(
                    "term {t}: list split violated — list holds {n} > {list_max} objects"
                )),
                Some(nvd) if nvd.apx.num_original() <= list_max => errs.push(format!(
                    "term {t}: list split violated — NVD built over {} ≤ {list_max} generators",
                    nvd.apx.num_original()
                )),
                _ => {}
            }
            let mut seen = std::collections::BTreeSet::new();
            for (l, r) in e.rows.iter().enumerate() {
                let (o, v) = (r.object, r.vertex);
                if o as usize >= corpus.num_objects() {
                    errs.push(format!("term {t}: object {o} is not in the corpus"));
                    continue;
                }
                if !seen.insert(o) {
                    errs.push(format!("term {t}: object {o} appears twice"));
                }
                if !corpus.contains(o, t) {
                    errs.push(format!("term {t}: object {o}'s document lacks the keyword"));
                }
                if v != corpus.vertex_of(o) {
                    errs.push(format!(
                        "term {t}: object {o} indexed at vertex {v} but corpus places it at {}",
                        corpus.vertex_of(o)
                    ));
                }
                if e.nvd.is_some() && e.local_id(o) != Some(l) {
                    errs.push(format!("term {t}: local_of[{o}] is not its local id {l}"));
                }
            }
            if let Some(nvd) = &e.nvd {
                if nvd.local_of.len() != n || nvd.apx.num_total() != n {
                    errs.push(format!(
                        "term {t}: {n} objects, but {} mapped and {} in the NVD",
                        nvd.local_of.len(),
                        nvd.apx.num_total()
                    ));
                }
                if let Err(sub) = nvd.apx.validate() {
                    errs.extend(sub.into_iter().map(|e| format!("term {t}: {e}")));
                }
            }
        }
        if errs.is_empty() {
            Ok(())
        } else {
            Err(errs)
        }
    }

    // ---- §6.2 updates -------------------------------------------------

    /// Lazily inserts corpus object `o` into the index of every keyword in
    /// its document. The object must not already be present.
    ///
    /// # Panics
    /// If `o` is already live in one of its keywords' indexes — inserting
    /// a present object would double-count it in every query touching
    /// that keyword.
    #[expect(
        clippy::indexing_slicing,
        reason = "update path: entries is resized past t above, a local id is < the \
                  table's length, and an NVD generator is a row of its table"
    )]
    pub fn insert_object(
        &mut self,
        graph: &Graph,
        corpus: &Corpus,
        o: ObjectId,
        dist: &mut dyn NetworkDistance,
    ) {
        let vertex = corpus.vertex_of(o);
        for p in corpus.doc(o) {
            let t = p.term;
            if (t as usize) >= self.entries.len() {
                self.entries.resize_with(t as usize + 1, || None);
            }
            let e = self.entries[t as usize].get_or_insert_with(|| {
                self.stats.small_terms += 1;
                KeywordIndex::default()
            });
            if let Some(l) = e.local_id(o) {
                assert!(e.rows[l].deleted, "object {o} already in keyword {t} index");
                e.rows[l].deleted = false;
                continue;
            }
            if let Some(n) = &mut e.nvd {
                let rows = &e.rows;
                let mut d = |c: u32| dist.distance(vertex, rows[c as usize].vertex);
                let local = n.apx.insert_object(graph.coord(vertex), &mut d);
                debug_assert_eq!(local as usize, e.rows.len());
                let at = n.local_of.partition_point(|&(x, _)| x < o);
                n.local_of.insert(at, (o, local));
            }
            e.rows.push(Row {
                object: o,
                vertex,
                deleted: false,
            });
        }
    }

    /// Marks corpus object `o` deleted (mark-only) in every keyword index
    /// of its document.
    ///
    /// # Panics
    /// If `o` is not currently live in one of its keywords' indexes.
    /// Deletion of an absent object is a caller contract violation, not a
    /// recoverable state: silently ignoring it would let the index drift
    /// from the corpus and return stale objects from queries (§6.2
    /// requires delete-then-rebuild bookkeeping to stay exact).
    #[expect(
        clippy::indexing_slicing,
        clippy::panic,
        reason = "update path: the documented panics; a local id is < the table's length"
    )]
    pub fn delete_object(&mut self, corpus: &Corpus, o: ObjectId) {
        for p in corpus.doc(o) {
            let t = p.term;
            let Some(e) = self.entries.get_mut(t as usize).and_then(Option::as_mut) else {
                panic!("keyword {t} has no index");
            };
            let l = e
                .local_id(o)
                .unwrap_or_else(|| panic!("object {o} not in keyword {t} index"));
            assert!(
                !e.rows[l].deleted,
                "object {o} already deleted from keyword {t}"
            );
            e.rows[l].deleted = true;
        }
    }

    /// Rebuilds keyword `t`'s index from its live object set, folding lazy
    /// updates in (the amortized cost of Fig. 8(b)). Builds an NVD or
    /// drops it as the live count crosses the list threshold the index
    /// was built (or saved) with.
    #[expect(
        clippy::indexing_slicing,
        reason = "t < entries.len(): its entry was found above"
    )]
    pub fn rebuild_term(&mut self, graph: &Graph, corpus: &Corpus, t: TermId) {
        let Some(entry) = self.entries.get_mut(t as usize).and_then(Option::as_mut) else {
            return;
        };
        let live: Vec<Row> = entry
            .rows
            .iter()
            .filter(|r| !r.deleted)
            .map(|r| Row {
                vertex: corpus.vertex_of(r.object),
                ..*r
            })
            .collect();
        // The kind may change, or the keyword empty: keep the per-kind
        // counts, which a snapshot stores and its loader checks, in step.
        *self.stats.count_of(entry) -= 1;
        let fresh = (!live.is_empty())
            .then(|| KeywordIndex::build(graph, live, self.split, &mut self.scratch));
        if let Some(fresh) = &fresh {
            *self.stats.count_of(fresh) += 1;
        }
        self.entries[t as usize] = fresh;
    }

    /// Live object count in `t`'s index (0 when the keyword is unused).
    pub fn live_count(&self, t: TermId) -> usize {
        self.entry(t).map_or(0, KeywordIndex::live_count)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::modules::DijkstraDistance;
    use kspin_graph::generate::{road_network, RoadNetworkConfig};
    use kspin_text::generate::{corpus as gen_corpus, CorpusConfig};

    fn fixture() -> (Graph, Corpus, KspinIndex) {
        let graph = road_network(&RoadNetworkConfig::new(600, 44));
        let mut cc = CorpusConfig::new(graph.num_vertices(), 45);
        cc.object_fraction = 0.08;
        let (corpus, _) = gen_corpus(&cc);
        let config = KspinConfig {
            rho: 4,
            list_max: 4,
            num_threads: 1,
        };
        let index = KspinIndex::build(&graph, &corpus, &config);
        (graph, corpus, index)
    }

    /// An NVD keyword and one of its objects.
    fn nvd_object(corpus: &Corpus, index: &KspinIndex) -> (TermId, ObjectId) {
        let t = (0..corpus.num_terms() as TermId)
            .find(|&t| index.entry(t).is_some_and(|e| e.nvd.is_some()))
            .expect("an NVD keyword");
        (t, corpus.inverted(t)[3].object)
    }

    #[test]
    fn delete_marks_without_removing() {
        let (graph, corpus, mut index) = fixture();
        let (t, o) = nvd_object(&corpus, &index);
        let (len, live) = (index.entry(t).unwrap().rows.len(), index.live_count(t));
        index.delete_object(&corpus, o);
        let e = index.entry(t).unwrap();
        assert_eq!(e.rows.len(), len);
        assert!(e.rows[e.local_id(o).unwrap()].deleted);
        assert_eq!(index.live_count(t), live - 1);
        // Inserting it back clears the flag on the same row.
        let mut dist = DijkstraDistance::new(&graph);
        index.insert_object(&graph, &corpus, o, &mut dist);
        let e = index.entry(t).unwrap();
        assert_eq!((e.rows.len(), index.live_count(t)), (len, live));
        assert!(!e.rows[e.local_id(o).unwrap()].deleted);
        index.validate(&corpus).expect("index audits clean");
    }

    #[test]
    #[should_panic(expected = "already deleted")]
    fn double_delete_panics() {
        let (_, corpus, mut index) = fixture();
        let (_, o) = nvd_object(&corpus, &index);
        index.delete_object(&corpus, o);
        index.delete_object(&corpus, o);
    }

    /// A table row whose object, though on the right vertex, lacks the
    /// keyword would be returned for it: the audit names it.
    #[test]
    fn validate_refuses_an_object_without_the_keyword() {
        let (_, corpus, mut index) = fixture();
        let t = (0..corpus.num_terms() as TermId)
            .find(|&t| index.entry(t).is_some_and(|e| e.nvd.is_none()))
            .expect("a list keyword");
        let stranger = (0..corpus.num_objects() as ObjectId)
            .find(|&o| !corpus.contains(o, t))
            .expect("an object without the keyword");
        let e = index.entries[t as usize].as_mut().unwrap();
        e.rows[0].object = stranger;
        e.rows[0].vertex = corpus.vertex_of(stranger);
        let errs = index
            .validate(&corpus)
            .expect_err("foreign object accepted");
        assert!(
            errs.iter().any(|e| e.contains("lacks the keyword")),
            "{errs:?}"
        );
    }
}
