//! The Keyword Separated Index (§6).
//!
//! One independent spatial index per keyword:
//!
//! * keywords with `|inv(t)| ≤ ρ` get **no NVD at all** (Observation 1 —
//!   under Zipf's law that is the vast majority); their inverted list *is*
//!   the index,
//! * frequent keywords get a [`ApproxNvd`] (§6.1) whose generators are the
//!   keyword's objects.
//!
//! Keyword independence makes construction embarrassingly parallel
//! (Observation 3); `build` fans terms out over worker threads.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

use std::collections::BTreeMap;

use kspin_graph::{Graph, VertexId};
use kspin_nvd::ApproxNvd;
use kspin_text::{Corpus, ObjectId, TermId};

use crate::modules::NetworkDistance;

/// Index construction parameters.
#[derive(Debug, Clone)]
pub struct KspinConfig {
    /// The ρ threshold: keywords with at most this many objects skip NVD
    /// construction, and NVD quadtrees stop splitting at ρ colors. Paper
    /// default: 5.
    pub rho: usize,
    /// Worker threads for parallel per-keyword NVD construction.
    pub num_threads: usize,
}

impl Default for KspinConfig {
    fn default() -> Self {
        KspinConfig {
            rho: 5,
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

/// Index for one Zipf-tail keyword: just its (mutable) object list.
#[derive(Debug, Clone, Default)]
pub struct SmallIndex {
    pub(crate) objects: Vec<ObjectId>,
    pub(crate) vertices: Vec<VertexId>,
    pub(crate) alive: Vec<bool>,
}

impl SmallIndex {
    fn push(&mut self, o: ObjectId, v: VertexId) {
        // ALLOC-OK: index construction/update path, amortized over corpus
        // size; only conservative name-match edges reach it from serving.
        self.objects.push(o);
        // ALLOC-OK: same update-path invariant as above.
        self.vertices.push(v);
        // ALLOC-OK: same update-path invariant as above.
        self.alive.push(true);
    }

    /// Live object count.
    pub fn live_count(&self) -> usize {
        self.alive.iter().filter(|&&a| a).count()
    }
}

/// Index for a frequent keyword: ρ-approximate NVD plus the mapping from
/// NVD-local generator ids to corpus object ids.
#[derive(Debug, Clone)]
pub struct NvdIndex {
    pub(crate) apx: ApproxNvd,
    /// `corpus_ids[local] = corpus object id` (extended by lazy inserts).
    pub(crate) corpus_ids: Vec<ObjectId>,
    /// Reverse mapping, `object id → local id`. A `BTreeMap` rather than
    /// a `HashMap`: lookups are the only hot operation, but the auditor
    /// and §6.2 update paths iterate it, and a `RandomState`-ordered walk
    /// on those paths is exactly what `cargo xtask certify` forbids.
    pub(crate) local_of: BTreeMap<ObjectId, u32>,
}

impl NvdIndex {
    pub(crate) fn new(apx: ApproxNvd, corpus_ids: Vec<ObjectId>) -> Self {
        let local_of = corpus_ids
            .iter()
            .enumerate()
            .map(|(l, &o)| (o, l as u32))
            .collect();
        NvdIndex {
            apx,
            corpus_ids,
            local_of,
        }
    }
}

/// Per-keyword index: none (keyword unused), small list, or NVD.
#[derive(Debug, Clone)]
pub enum KeywordIndex {
    /// `|inv(t)| ≤ ρ`: the object list is the whole index.
    Small(SmallIndex),
    /// Frequent keyword: ρ-approximate NVD. Boxed so the Zipf-tail `Small`
    /// majority keeps the per-term array entry small.
    Nvd(Box<NvdIndex>),
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
        match entry {
            KeywordIndex::Small(_) => &mut self.small_terms,
            KeywordIndex::Nvd(_) => &mut self.nvd_terms,
        }
    }
}

/// The Keyword Separated Index over a whole corpus.
#[derive(Debug)]
pub struct KspinIndex {
    rho: usize,
    entries: Vec<Option<KeywordIndex>>,
    stats: BuildStats,
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
                    loop {
                        let t = next.fetch_add(1, Ordering::Relaxed);
                        if t >= num_terms {
                            break;
                        }
                        let t = t as TermId;
                        if let Some(entry) = Self::build_term(graph, corpus, t, include, config.rho)
                        {
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
        for shard in shards {
            for (t, entry) in shard {
                *stats.count_of(&entry) += 1;
                entries[t as usize] = Some(entry);
            }
        }
        stats.build_seconds = start.elapsed().as_secs_f64();
        KspinIndex {
            rho: config.rho,
            entries,
            stats,
        }
    }

    fn build_term<F>(
        graph: &Graph,
        corpus: &Corpus,
        t: TermId,
        include: &F,
        rho: usize,
    ) -> Option<KeywordIndex>
    where
        F: Fn(ObjectId) -> bool,
    {
        let postings = corpus.inverted(t);
        let mut objects = Vec::new();
        let mut vertices = Vec::new();
        for p in postings {
            if include(p.object) {
                objects.push(p.object);
                vertices.push(corpus.vertex_of(p.object));
            }
        }
        if objects.is_empty() {
            return None;
        }
        if objects.len() <= rho {
            let alive = vec![true; objects.len()];
            return Some(KeywordIndex::Small(SmallIndex {
                objects,
                vertices,
                alive,
            }));
        }
        let apx = ApproxNvd::build(graph, &vertices, rho);
        Some(KeywordIndex::Nvd(Box::new(NvdIndex::new(apx, objects))))
    }

    /// The ρ the index was built with.
    pub fn rho(&self) -> usize {
        self.rho
    }

    /// Construction statistics.
    pub fn stats(&self) -> &BuildStats {
        &self.stats
    }

    /// The per-keyword index of `t`, if the keyword has any objects.
    #[inline]
    pub fn entry(&self, t: TermId) -> Option<&KeywordIndex> {
        self.entries.get(t as usize).and_then(Option::as_ref)
    }

    /// Every per-term entry in term-slot order — the snapshot
    /// serialization boundary (`entries.len()` is the term-slot count).
    pub(crate) fn snapshot_entries(&self) -> &[Option<KeywordIndex>] {
        &self.entries
    }

    /// Reassembles an index from decoded parts. Per-entry structure is
    /// validated by the snapshot codec before this runs.
    pub(crate) fn from_snapshot_parts(
        rho: usize,
        entries: Vec<Option<KeywordIndex>>,
        stats: BuildStats,
    ) -> Self {
        KspinIndex {
            rho,
            entries,
            stats,
        }
    }

    /// Approximate index size in bytes (Keyword Separated Index only — the
    /// distance and lower-bound modules report their own sizes).
    pub fn size_bytes(&self) -> usize {
        self.entries
            .iter()
            .flatten()
            .map(|e| match e {
                KeywordIndex::Small(s) => s.objects.len() * 9 + 24,
                KeywordIndex::Nvd(n) => n.apx.size_bytes() + n.corpus_ids.len() * 12,
            })
            .sum()
    }

    /// The debug-mode invariant auditor: cross-checks every per-keyword
    /// index against `corpus` and ρ, returning all violations found.
    ///
    /// Per keyword `t`, the audit asserts:
    ///
    /// * **ρ-split (Observation 1)** — a [`SmallIndex`] holds at most ρ
    ///   objects and an [`NvdIndex`] was built over more than ρ generators.
    ///   Lazy §6.2 updates may legitimately drift a term past the
    ///   threshold, so fold pending updates with
    ///   [`KspinIndex::rebuild_term`] before validating an updated index.
    /// * Table consistency — `SmallIndex` parallel arrays agree in length
    ///   and hold no duplicate object; `NvdIndex`'s local↔corpus id
    ///   mapping is a bijection sized to the NVD's object set.
    /// * Vertex agreement — each indexed object sits on its corpus vertex.
    /// * The per-NVD structural audit [`ApproxNvd::validate`] (adjacency
    ///   symmetry — Observation 2a — plus quadtree candidate invariants),
    ///   with violations prefixed by the owning keyword.
    pub fn validate(&self, corpus: &Corpus) -> Result<(), Vec<String>> {
        let mut errs = Vec::new();
        for (ti, entry) in self.entries.iter().enumerate() {
            let t = ti as TermId;
            match entry {
                None => {}
                Some(KeywordIndex::Small(s)) => {
                    if s.objects.len() != s.vertices.len() || s.objects.len() != s.alive.len() {
                        errs.push(format!(
                            "term {t}: Small parallel arrays disagree \
                             ({} objects, {} vertices, {} alive flags)",
                            s.objects.len(),
                            s.vertices.len(),
                            s.alive.len()
                        ));
                        continue;
                    }
                    if s.objects.len() > self.rho {
                        errs.push(format!(
                            "term {t}: ρ-split violated — Small index holds {} > ρ = {} objects",
                            s.objects.len(),
                            self.rho
                        ));
                    }
                    for (i, &o) in s.objects.iter().enumerate() {
                        if s.objects[..i].contains(&o) {
                            errs.push(format!("term {t}: object {o} appears twice in Small index"));
                        }
                        if s.vertices[i] != corpus.vertex_of(o) {
                            errs.push(format!(
                                "term {t}: object {o} indexed at vertex {} but corpus places it at {}",
                                s.vertices[i],
                                corpus.vertex_of(o)
                            ));
                        }
                    }
                }
                Some(KeywordIndex::Nvd(n)) => {
                    if n.apx.num_original() <= self.rho {
                        errs.push(format!(
                            "term {t}: ρ-split violated — NVD built over {} ≤ ρ = {} generators",
                            n.apx.num_original(),
                            self.rho
                        ));
                    }
                    if n.corpus_ids.len() != n.apx.num_total() {
                        errs.push(format!(
                            "term {t}: {} corpus ids for {} NVD objects",
                            n.corpus_ids.len(),
                            n.apx.num_total()
                        ));
                    }
                    if n.local_of.len() != n.corpus_ids.len() {
                        errs.push(format!(
                            "term {t}: local_of has {} entries for {} corpus ids \
                             (duplicate or missing object?)",
                            n.local_of.len(),
                            n.corpus_ids.len()
                        ));
                    }
                    for (l, &o) in n.corpus_ids.iter().enumerate() {
                        let l = l as u32;
                        if n.local_of.get(&o) != Some(&l) {
                            errs.push(format!(
                                "term {t}: corpus_ids[{l}] = {o} but local_of[{o}] = {:?}",
                                n.local_of.get(&o)
                            ));
                        }
                        if (l as usize) < n.apx.num_total()
                            && n.apx.object_vertex(l) != corpus.vertex_of(o)
                        {
                            errs.push(format!(
                                "term {t}: object {o} indexed at vertex {} but corpus places it at {}",
                                n.apx.object_vertex(l),
                                corpus.vertex_of(o)
                            ));
                        }
                    }
                    if let Err(sub) = n.apx.validate() {
                        errs.extend(sub.into_iter().map(|e| format!("term {t}: {e}")));
                    }
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
            match &mut self.entries[t as usize] {
                slot @ None => {
                    let mut s = SmallIndex::default();
                    s.push(o, vertex);
                    *slot = Some(KeywordIndex::Small(s));
                    self.stats.small_terms += 1;
                }
                Some(KeywordIndex::Small(s)) => {
                    if let Some(i) = s.objects.iter().position(|&x| x == o) {
                        assert!(!s.alive[i], "object {o} already in keyword {t} index");
                        s.alive[i] = true;
                    } else {
                        s.push(o, vertex);
                    }
                }
                Some(KeywordIndex::Nvd(n)) => {
                    if let Some(&local) = n.local_of.get(&o) {
                        assert!(
                            n.apx.is_deleted(local),
                            "object {o} already in keyword {t} index"
                        );
                        n.apx.undelete_object(local);
                    } else {
                        let mut d = |a: VertexId, b: VertexId| dist.distance(a, b);
                        let local = n.apx.insert_object(vertex, graph.coord(vertex), &mut d);
                        debug_assert_eq!(local as usize, n.corpus_ids.len());
                        n.corpus_ids.push(o);
                        n.local_of.insert(o, local);
                    }
                }
            }
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
    pub fn delete_object(&mut self, corpus: &Corpus, o: ObjectId) {
        for p in corpus.doc(o) {
            let t = p.term;
            match self.entries.get_mut(t as usize).and_then(Option::as_mut) {
                None => panic!("keyword {t} has no index"),
                Some(KeywordIndex::Small(s)) => {
                    let i = s
                        .objects
                        .iter()
                        .position(|&x| x == o)
                        .unwrap_or_else(|| panic!("object {o} not in keyword {t} index"));
                    assert!(s.alive[i], "object {o} already deleted from keyword {t}");
                    s.alive[i] = false;
                }
                Some(KeywordIndex::Nvd(n)) => {
                    let &local = n
                        .local_of
                        .get(&o)
                        .unwrap_or_else(|| panic!("object {o} not in keyword {t} index"));
                    n.apx.delete_object(local);
                }
            }
        }
    }

    /// Rebuilds keyword `t`'s index from its live object set, folding lazy
    /// updates in (the amortized cost of Fig. 8(b)). Converts between
    /// Small and NVD representations as the live count crosses ρ.
    pub fn rebuild_term(&mut self, graph: &Graph, corpus: &Corpus, t: TermId) {
        let Some(entry) = self.entries.get_mut(t as usize).and_then(Option::as_mut) else {
            return;
        };
        let live: Vec<ObjectId> = match entry {
            KeywordIndex::Small(s) => s
                .objects
                .iter()
                .zip(&s.alive)
                .filter(|&(_, &a)| a)
                .map(|(&o, _)| o)
                .collect(),
            KeywordIndex::Nvd(n) => (0..n.apx.num_total() as u32)
                .filter(|&l| !n.apx.is_deleted(l))
                .map(|l| n.corpus_ids[l as usize])
                .collect(),
        };
        // The kind may change, or the keyword empty: keep the per-kind
        // counts, which a snapshot stores and its loader checks, in step.
        *self.stats.count_of(entry) -= 1;
        let vertices: Vec<VertexId> = live.iter().map(|&o| corpus.vertex_of(o)).collect();
        let fresh = if live.is_empty() {
            None
        } else if live.len() <= self.rho {
            Some(KeywordIndex::Small(SmallIndex {
                alive: vec![true; live.len()],
                objects: live,
                vertices,
            }))
        } else {
            Some(KeywordIndex::Nvd(Box::new(NvdIndex::new(
                ApproxNvd::build(graph, &vertices, self.rho),
                live,
            ))))
        };
        if let Some(fresh) = &fresh {
            *self.stats.count_of(fresh) += 1;
        }
        self.entries[t as usize] = fresh;
    }

    /// Live object count in `t`'s index (0 when the keyword is unused).
    pub fn live_count(&self, t: TermId) -> usize {
        match self.entry(t) {
            None => 0,
            Some(KeywordIndex::Small(s)) => s.live_count(),
            Some(KeywordIndex::Nvd(n)) => (0..n.apx.num_total() as u32)
                .filter(|&l| !n.apx.is_deleted(l))
                .count(),
        }
    }
}
