//! Text-file serialization for keyword datasets.
//!
//! Companion to the DIMACS `.gr`/`.co` graph files: a `.kw` file carries
//! one object per line —
//!
//! ```text
//! c optional comments
//! o <vertex-1-based> <keyword>[:<freq>] [<keyword>[:<freq>] ...]
//! ```
//!
//! so generated datasets can be persisted, diffed and reloaded, and
//! real-world POI extracts can be fed in without recompiling.

use std::io::{BufRead, Write};

use kspin_graph::VertexId;

use crate::corpus::{Corpus, CorpusBuilder, ObjectId};
use crate::vocab::Vocabulary;

/// Errors from the `.kw` parser.
#[derive(Debug)]
pub enum KwError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// Structural problem with the file contents.
    Parse { line: usize, message: String },
}

impl std::fmt::Display for KwError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            KwError::Io(e) => write!(f, "i/o error: {e}"),
            KwError::Parse { line, message } => write!(f, "parse error at line {line}: {message}"),
        }
    }
}

impl std::error::Error for KwError {}

impl From<std::io::Error> for KwError {
    fn from(e: std::io::Error) -> Self {
        KwError::Io(e)
    }
}

fn err(line: usize, message: impl Into<String>) -> KwError {
    KwError::Parse {
        line,
        message: message.into(),
    }
}

/// Parses a `.kw` keyword file into a corpus + vocabulary, placing its
/// objects on a graph of `num_vertices` vertices: a vertex id past the
/// graph is refused at its line.
pub fn read_kw<R: BufRead>(
    reader: R,
    num_vertices: usize,
) -> Result<(Corpus, Vocabulary), KwError> {
    let mut vocab = Vocabulary::new();
    let mut builder = CorpusBuilder::new();
    // The line of each object, to name the one that repeats a vertex.
    let mut lines = Vec::new();
    let mut doc = Vec::new();
    for (idx, line) in reader.lines().enumerate() {
        let lineno = idx + 1;
        let line = line?;
        let mut it = line.split_ascii_whitespace();
        match it.next() {
            None | Some("c") => continue,
            Some("o") => {
                let vertex: u64 = it
                    .next()
                    .and_then(|s| s.parse().ok())
                    .ok_or_else(|| err(lineno, "bad vertex id"))?;
                if vertex == 0 {
                    return Err(err(lineno, "vertex ids are 1-based"));
                }
                let vertex = usize::try_from(vertex - 1)
                    .ok()
                    .filter(|&v| v < num_vertices)
                    .and_then(|v| VertexId::try_from(v).ok())
                    .ok_or_else(|| {
                        err(
                            lineno,
                            format!(
                                "vertex id {vertex} is out of range for a \
                                 {num_vertices}-vertex graph"
                            ),
                        )
                    })?;
                doc.clear();
                for token in it {
                    let (word, freq) = match token.split_once(':') {
                        Some((w, f)) => (
                            w,
                            f.parse::<u32>()
                                .map_err(|_| err(lineno, format!("bad frequency in {token:?}")))?,
                        ),
                        None => (token, 1),
                    };
                    if word.is_empty() || freq == 0 {
                        return Err(err(lineno, format!("bad keyword token {token:?}")));
                    }
                    doc.push((vocab.intern(word), freq));
                }
                if doc.is_empty() {
                    return Err(err(lineno, "object with no keywords"));
                }
                builder.add_object(vertex, &doc);
                lines.push(lineno);
            }
            Some(other) => return Err(err(lineno, format!("unknown record {other:?}"))),
        }
    }
    let corpus = builder.try_build().map_err(|(vertex, o)| {
        let line = lines.get(o as usize).copied().unwrap_or(0);
        err(
            line,
            format!("vertex {} already hosts an object", u64::from(vertex) + 1),
        )
    })?;
    Ok((corpus, vocab))
}

/// Serializes a corpus as a `.kw` file.
pub fn write_kw<W: Write>(corpus: &Corpus, vocab: &Vocabulary, mut w: W) -> std::io::Result<()> {
    writeln!(
        w,
        "c generated by kspin-text ({} objects)",
        corpus.num_objects()
    )?;
    for o in 0..corpus.num_objects() as ObjectId {
        write!(w, "o {}", corpus.vertex_of(o) + 1)?;
        for p in corpus.doc(o) {
            if p.freq == 1 {
                write!(w, " {}", vocab.term(p.term))?;
            } else {
                write!(w, " {}:{}", vocab.term(p.term), p.freq)?;
            }
        }
        writeln!(w)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate::{corpus, CorpusConfig};

    const SAMPLE: &str = "c poi file\n\
        o 11 thai restaurant\n\
        o 21 restaurant:2\n\
        o 31 thai takeaway:3\n";

    #[test]
    fn parses_objects_with_frequencies() {
        let (c, v) = read_kw(SAMPLE.as_bytes(), 100).unwrap();
        assert_eq!(c.num_objects(), 3);
        assert_eq!(c.vertex_of(0), 10);
        let rest = v.get("restaurant").unwrap();
        let doc1 = c.doc(1);
        assert_eq!(doc1.len(), 1);
        assert_eq!(doc1[0].term, rest);
        assert_eq!(doc1[0].freq, 2);
        assert_eq!(c.total_occurrences(), 2 + 2 + 4);
    }

    #[test]
    fn roundtrips_generated_corpora() {
        let mut cfg = CorpusConfig::new(2000, 5);
        cfg.object_fraction = 0.1;
        let (c, v) = corpus(&cfg);
        let mut buf = Vec::new();
        write_kw(&c, &v, &mut buf).unwrap();
        let (c2, v2) = read_kw(&buf[..], 2000).unwrap();
        assert_eq!(c2.num_objects(), c.num_objects());
        assert_eq!(c2.total_occurrences(), c.total_occurrences());
        for o in 0..c.num_objects() as ObjectId {
            assert_eq!(c2.vertex_of(o), c.vertex_of(o));
            // Term ids may renumber; compare by string + freq.
            let d1: Vec<(&str, u32)> = c.doc(o).iter().map(|p| (v.term(p.term), p.freq)).collect();
            let mut d2: Vec<(&str, u32)> = c2
                .doc(o)
                .iter()
                .map(|p| (v2.term(p.term), p.freq))
                .collect();
            d2.sort_unstable();
            let mut d1 = d1;
            d1.sort_unstable();
            assert_eq!(d1, d2, "object {o}");
        }
    }

    #[test]
    fn rejects_malformed_lines() {
        assert!(read_kw("o 0 thai\n".as_bytes(), 100).is_err()); // 0 is not 1-based
        assert!(read_kw("o x thai\n".as_bytes(), 100).is_err());
        assert!(read_kw("o 5\n".as_bytes(), 100).is_err()); // no keywords
        assert!(read_kw("o 5 thai:zero\n".as_bytes(), 100).is_err());
        assert!(read_kw("q 5 thai\n".as_bytes(), 100).is_err());
        assert!(read_kw("o 5 thai:0\n".as_bytes(), 100).is_err());
    }

    /// The line a refusal names.
    fn refused_at(text: &str) -> (usize, String) {
        match read_kw(text.as_bytes(), 100) {
            Err(KwError::Parse { line, message }) => (line, message),
            other => panic!("{text:?} was not refused: {other:?}"),
        }
    }

    #[test]
    fn a_vertex_id_past_u32_is_refused() {
        // 2^32 + 1 would truncate to vertex 0.
        let (line, message) = refused_at("o 3 thai\no 4294967297 thai\n");
        assert_eq!(line, 2);
        assert!(message.contains("4294967297 is out of range"), "{message}");
        // The largest id that fits still parses.
        let (c, _) = read_kw("o 4294967296 thai\n".as_bytes(), 1 << 32).unwrap();
        assert_eq!(c.vertex_of(0), u32::MAX);
    }

    #[test]
    fn a_vertex_past_the_graph_is_refused_at_its_line() {
        // The last of 100 vertices parses; the next one is off the graph.
        let (line, message) = refused_at("o 100 thai\nc x\no 101 noodle\n");
        assert_eq!(
            (line, message.as_str()),
            (3, "vertex id 101 is out of range for a 100-vertex graph")
        );
    }

    #[test]
    fn a_repeated_vertex_is_refused_at_its_line() {
        let (line, message) = refused_at("o 5 thai\nc x\no 7 noodle\no 5 takeaway\n");
        assert_eq!(
            (line, message.as_str()),
            (4, "vertex 5 already hosts an object")
        );
        // Two repeats: the earlier line is named, whichever vertex sorts first.
        let (line, _) = refused_at("o 9 a\no 4 b\no 9 c\no 4 d\n");
        assert_eq!(line, 3);
    }

    #[test]
    fn comments_and_blank_lines_are_skipped() {
        let (c, _) = read_kw("c hi\n\no 3 x\n".as_bytes(), 100).unwrap();
        assert_eq!(c.num_objects(), 1);
    }
}
