//! Keyword string interning.
//!
//! The terms are pooled: one string holds them back to back and an offset
//! table fences it, which is also the snapshot's layout of a vocabulary.
//! Lookups binary-search the ids sorted by term. A new term goes to a
//! short sorted run of recent ids, which is merged into the main one once
//! it outgrows the square root of its length, so interning a new term
//! costs `O(√n + log n)`, not a shift of every id.

use crate::corpus::TermId;

/// Bidirectional map between keyword strings and dense [`TermId`]s.
#[derive(Debug, Clone)]
pub struct Vocabulary {
    /// Every term, in id order, back to back.
    text: String,
    /// `text[offsets[id]..offsets[id + 1]]` is term `id`.
    offsets: Vec<u32>,
    /// Ids sorted by term: every id but the `recent` ones.
    sorted: Vec<TermId>,
    /// Ids interned since the last merge, sorted by term.
    recent: Vec<TermId>,
}

/// What [`Vocabulary::from_parts`] found wrong, by the array at fault.
#[derive(Debug, Clone)]
pub enum VocabError {
    /// Offsets that do not fence the text, or fence a term twice.
    Offsets(String),
    /// Text that is not UTF-8, or a term boundary inside a character.
    Text(String),
}

impl Default for Vocabulary {
    fn default() -> Self {
        Self::new()
    }
}

impl Vocabulary {
    /// Creates an empty vocabulary.
    pub fn new() -> Self {
        Vocabulary {
            text: String::new(),
            offsets: vec![0],
            sorted: Vec::new(),
            recent: Vec::new(),
        }
    }

    /// Interns `term`, returning its id (existing or fresh).
    ///
    /// # Panics
    /// If the pooled terms would exceed `u32::MAX` bytes.
    pub fn intern(&mut self, term: &str) -> TermId {
        if let Some(id) = self.get(term) {
            return id;
        }
        let id = self.len() as TermId;
        self.text.push_str(term);
        let end = u32::try_from(self.text.len()).expect("vocabulary exceeds 4 GiB");
        self.offsets.push(end);
        let at = self.recent.partition_point(|&r| self.term(r) < term);
        self.recent.insert(at, id);
        if self.recent.len() * self.recent.len() > self.sorted.len() {
            self.merge_recent();
        }
        id
    }

    /// Folds the recent run into the sorted one (both sorted by term).
    fn merge_recent(&mut self) {
        let mut merged = Vec::with_capacity(self.sorted.len() + self.recent.len());
        let (mut i, mut j) = (0, 0);
        while let (Some(&a), Some(&b)) = (self.sorted.get(i), self.recent.get(j)) {
            if self.term(a) < self.term(b) {
                merged.push(a);
                i += 1;
            } else {
                merged.push(b);
                j += 1;
            }
        }
        merged.extend_from_slice(&self.sorted[i..]);
        merged.extend_from_slice(&self.recent[j..]);
        self.sorted = merged;
        self.recent.clear();
    }

    /// Looks up an already-interned term.
    pub fn get(&self, term: &str) -> Option<TermId> {
        let find = |ids: &[TermId]| {
            ids.binary_search_by(|&id| self.term(id).cmp(term))
                .ok()
                .map(|i| ids[i])
        };
        find(&self.sorted).or_else(|| find(&self.recent))
    }

    /// The string for `id`.
    ///
    /// # Panics
    /// If `id` was never interned.
    pub fn term(&self, id: TermId) -> &str {
        let id = id as usize;
        &self.text[self.offsets[id] as usize..self.offsets[id + 1] as usize]
    }

    /// Number of distinct terms.
    pub fn len(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Whether no terms have been interned.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The offset table and the pooled terms — the snapshot serialization
    /// boundary (the sorted ids are derived, not stored).
    pub fn flat_parts(&self) -> (&[u32], &str) {
        (&self.offsets, &self.text)
    }

    /// Rebuilds a vocabulary from its offset table and pooled term bytes
    /// (the snapshot loader's entry point), checking the bytes for UTF-8
    /// once and every term for a repeat by sorting the ids.
    ///
    /// # Errors
    /// Offsets that do not start at 0, end at the byte count and ascend;
    /// bytes that are not UTF-8 or a term boundary inside a character; a
    /// term that repeats — interning is a bijection.
    pub fn from_parts(offsets: Vec<u32>, bytes: &[u8]) -> Result<Self, VocabError> {
        let bad_offsets = |what: String| Err(VocabError::Offsets(what));
        if offsets.first() != Some(&0) {
            return bad_offsets("vocabulary offsets must start at 0".into());
        }
        if offsets.last().map(|&e| e as usize) != Some(bytes.len()) {
            return bad_offsets("vocabulary offsets must end at the pooled byte count".into());
        }
        if let Some(w) = offsets.windows(2).find(|w| w[0] > w[1]) {
            return bad_offsets(format!("term offsets {}..{} out of order", w[0], w[1]));
        }
        let text = std::str::from_utf8(bytes)
            .map_err(|e| VocabError::Text(format!("term is not UTF-8: {e}")))?;
        if let Some(&o) = offsets
            .iter()
            .find(|&&o| !text.is_char_boundary(o as usize))
        {
            return Err(VocabError::Text(format!(
                "term is not UTF-8: offset {o} splits a character"
            )));
        }
        let mut vocab = Vocabulary {
            text: text.to_owned(),
            offsets,
            sorted: Vec::new(),
            recent: Vec::new(),
        };
        // Sorted by the first eight bytes (zero-padded, big-endian: the
        // same order), then by the whole term where those tie.
        let mut keyed: Vec<(u64, TermId)> = (0..vocab.len() as TermId)
            .map(|id| {
                let mut head = [0u8; 8];
                let term = vocab.term(id).as_bytes();
                let n = term.len().min(8);
                head[..n].copy_from_slice(&term[..n]);
                (u64::from_be_bytes(head), id)
            })
            .collect();
        keyed.sort_unstable_by(|&(ha, a), &(hb, b)| {
            ha.cmp(&hb).then_with(|| vocab.term(a).cmp(vocab.term(b)))
        });
        vocab.sorted = keyed.into_iter().map(|(_, id)| id).collect();
        if let Some(w) = vocab
            .sorted
            .windows(2)
            .find(|w| vocab.term(w[0]) == vocab.term(w[1]))
        {
            return bad_offsets(format!(
                "term {:?} appears twice in the vocabulary",
                vocab.term(w[0])
            ));
        }
        Ok(vocab)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_is_idempotent() {
        let mut v = Vocabulary::new();
        let a = v.intern("thai");
        let b = v.intern("restaurant");
        assert_ne!(a, b);
        assert_eq!(v.intern("thai"), a);
        assert_eq!(v.len(), 2);
    }

    #[test]
    fn roundtrip_lookup() {
        let mut v = Vocabulary::new();
        let id = v.intern("takeaway");
        assert_eq!(v.get("takeaway"), Some(id));
        assert_eq!(v.get("grocer"), None);
        assert_eq!(v.term(id), "takeaway");
    }

    #[test]
    fn empty_vocab() {
        let v = Vocabulary::new();
        assert!(v.is_empty());
        assert_eq!(v.len(), 0);
        assert_eq!(v.flat_parts(), (&[0u32][..], ""));
    }

    /// Terms interned across many merges of the recent run, in an order
    /// that is neither sorted nor reversed, all stay found under their ids.
    #[test]
    fn every_term_is_found_across_merges() {
        let mut v = Vocabulary::new();
        let words: Vec<String> = (0..700u32)
            .map(|i| format!("w{}", (i * 389) % 701))
            .collect();
        for (i, w) in words.iter().enumerate() {
            assert_eq!(v.intern(w), i as TermId);
            assert_eq!(v.get(w), Some(i as TermId));
        }
        for (i, w) in words.iter().enumerate() {
            assert_eq!(
                (v.get(w), v.term(i as TermId)),
                (Some(i as TermId), w.as_str())
            );
        }
        assert_eq!(v.get("w701"), None);
        let (offsets, text) = v.flat_parts();
        let w = Vocabulary::from_parts(offsets.to_vec(), text.as_bytes()).unwrap();
        assert!(words.iter().zip(0..).all(|(t, id)| w.get(t) == Some(id)));
    }

    #[test]
    fn from_parts_names_the_array_at_fault() {
        let offsets = |o: &[u32]| o.to_vec();
        let cases: [(Vec<u32>, &[u8], bool); 6] = [
            (offsets(&[1, 2]), b"ab", true),
            (offsets(&[0, 1]), b"ab", true),
            (offsets(&[0, 2, 1, 2]), b"ab", true),
            (offsets(&[0, 1, 2]), b"aa", true),
            (offsets(&[0, 2]), b"a\xff", false),
            (offsets(&[0, 1, 2]), "é".as_bytes(), false),
        ];
        for (o, bytes, at_offsets) in cases {
            let err = Vocabulary::from_parts(o.clone(), bytes).unwrap_err();
            assert_eq!(
                matches!(err, VocabError::Offsets(_)),
                at_offsets,
                "{o:?}: {err:?}"
            );
        }
        let v = Vocabulary::from_parts(offsets(&[0, 2, 3, 4]), "éab".as_bytes()).unwrap();
        assert_eq!((v.get("é"), v.get("b"), v.term(1)), (Some(0), Some(2), "a"));
    }
}
