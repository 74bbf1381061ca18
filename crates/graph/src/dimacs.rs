//! Reader/writer for the 9th-DIMACS-Challenge road-network text formats.
//!
//! The paper's datasets (DE/ME/FL/E/US) are distributed as a `.gr` distance
//! graph (`a <u> <v> <w>` lines, 1-based ids) plus a `.co` coordinate file
//! (`v <id> <x> <y>`). This module parses both so the harness can run on the
//! real datasets when they are available, and writes them so generated
//! datasets can be persisted and inspected.

use std::fmt::Write as _;
use std::io::{BufRead, Write};

use crate::csr::{Graph, GraphBuilder};
use crate::types::{Point, VertexId, Weight};

/// Errors produced by the DIMACS parsers.
#[derive(Debug)]
pub enum DimacsError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// Structural problem with the file contents.
    Parse {
        /// 1-based line number of the offending input line.
        line: usize,
        /// What was wrong with it.
        message: String,
    },
}

impl std::fmt::Display for DimacsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DimacsError::Io(e) => write!(f, "i/o error: {e}"),
            DimacsError::Parse { line, message } => {
                write!(f, "parse error at line {line}: {message}")
            }
        }
    }
}

impl std::error::Error for DimacsError {}

impl From<std::io::Error> for DimacsError {
    fn from(e: std::io::Error) -> Self {
        DimacsError::Io(e)
    }
}

fn parse_err(line: usize, message: impl Into<String>) -> DimacsError {
    DimacsError::Parse {
        line,
        message: message.into(),
    }
}

/// Parses a DIMACS `.gr` graph. Directed arc pairs collapse into undirected
/// edges (the challenge files list both directions).
pub fn read_gr<R: BufRead>(reader: R) -> Result<GraphBuilder, DimacsError> {
    let mut builder: Option<GraphBuilder> = None;
    for (idx, line) in reader.lines().enumerate() {
        let lineno = idx + 1;
        let line = line?;
        let mut it = line.split_ascii_whitespace();
        match it.next() {
            None | Some("c") => continue,
            Some("p") => {
                let kind = it
                    .next()
                    .ok_or_else(|| parse_err(lineno, "missing problem kind"))?;
                if kind != "sp" {
                    return Err(parse_err(
                        lineno,
                        format!("unsupported problem kind {kind:?}"),
                    ));
                }
                let n: usize = it
                    .next()
                    .and_then(|s| s.parse().ok())
                    .ok_or_else(|| parse_err(lineno, "bad vertex count"))?;
                builder = Some(GraphBuilder::new(n));
            }
            Some("a") => {
                let b = builder
                    .as_mut()
                    .ok_or_else(|| parse_err(lineno, "arc before problem line"))?;
                let u: u64 = it
                    .next()
                    .and_then(|s| s.parse().ok())
                    .ok_or_else(|| parse_err(lineno, "bad arc source"))?;
                let v: u64 = it
                    .next()
                    .and_then(|s| s.parse().ok())
                    .ok_or_else(|| parse_err(lineno, "bad arc target"))?;
                let w: Weight = it
                    .next()
                    .and_then(|s| s.parse().ok())
                    .ok_or_else(|| parse_err(lineno, "bad arc weight"))?;
                if u == 0
                    || v == 0
                    || u as usize > b.num_vertices()
                    || v as usize > b.num_vertices()
                {
                    return Err(parse_err(lineno, "arc endpoint out of range"));
                }
                if u != v {
                    b.add_edge((u - 1) as VertexId, (v - 1) as VertexId, w.max(1));
                }
            }
            Some(other) => {
                return Err(parse_err(lineno, format!("unknown record {other:?}")));
            }
        }
    }
    builder.ok_or_else(|| parse_err(0, "no problem line found"))
}

/// Parses a DIMACS `.co` coordinate file into an existing builder.
pub fn read_co<R: BufRead>(reader: R, builder: &mut GraphBuilder) -> Result<(), DimacsError> {
    for (idx, line) in reader.lines().enumerate() {
        let lineno = idx + 1;
        let line = line?;
        let mut it = line.split_ascii_whitespace();
        match it.next() {
            None | Some("c") | Some("p") => continue,
            Some("v") => {
                let id: u64 = it
                    .next()
                    .and_then(|s| s.parse().ok())
                    .ok_or_else(|| parse_err(lineno, "bad vertex id"))?;
                let x: i32 = it
                    .next()
                    .and_then(|s| s.parse().ok())
                    .ok_or_else(|| parse_err(lineno, "bad x coordinate"))?;
                let y: i32 = it
                    .next()
                    .and_then(|s| s.parse().ok())
                    .ok_or_else(|| parse_err(lineno, "bad y coordinate"))?;
                if id == 0 || id as usize > builder.num_vertices() {
                    return Err(parse_err(lineno, "coordinate vertex id out of range"));
                }
                builder.set_coord((id - 1) as VertexId, Point::new(x, y));
            }
            Some(other) => {
                return Err(parse_err(lineno, format!("unknown record {other:?}")));
            }
        }
    }
    Ok(())
}

/// Serializes `graph` as a `.gr` file (both arc directions, 1-based ids).
pub fn write_gr<W: Write>(graph: &Graph, mut w: W) -> std::io::Result<()> {
    let mut buf = String::new();
    writeln!(
        buf,
        "c generated by kspin-graph\np sp {} {}",
        graph.num_vertices(),
        graph.num_arcs()
    )
    .expect("infallible");
    for e in graph.edges() {
        writeln!(buf, "a {} {} {}", e.u + 1, e.v + 1, e.weight).expect("infallible");
        writeln!(buf, "a {} {} {}", e.v + 1, e.u + 1, e.weight).expect("infallible");
    }
    w.write_all(buf.as_bytes())
}

/// Serializes coordinates as a `.co` file.
pub fn write_co<W: Write>(graph: &Graph, mut w: W) -> std::io::Result<()> {
    let mut buf = String::new();
    writeln!(
        buf,
        "c generated by kspin-graph\np aux sp co {}",
        graph.num_vertices()
    )
    .expect("infallible");
    for v in 0..graph.num_vertices() {
        let p = graph.coord(v as VertexId);
        writeln!(buf, "v {} {} {}", v + 1, p.x, p.y).expect("infallible");
    }
    w.write_all(buf.as_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE_GR: &str = "c sample\n\
        p sp 3 4\n\
        a 1 2 10\n\
        a 2 1 10\n\
        a 2 3 5\n\
        a 3 2 5\n";

    const SAMPLE_CO: &str = "c coords\n\
        p aux sp co 3\n\
        v 1 100 200\n\
        v 2 -5 7\n\
        v 3 0 0\n";

    #[test]
    fn parses_gr_and_collapses_arc_pairs() {
        let b = read_gr(SAMPLE_GR.as_bytes()).unwrap();
        let g = b.build();
        assert_eq!(g.num_vertices(), 3);
        assert_eq!(g.num_edges(), 2);
        assert_eq!(g.neighbors(0).collect::<Vec<_>>(), [(1, 10)]);
        assert_eq!(g.neighbors(1).collect::<Vec<_>>(), [(0, 10), (2, 5)]);
    }

    #[test]
    fn parses_coordinates() {
        let mut b = read_gr(SAMPLE_GR.as_bytes()).unwrap();
        read_co(SAMPLE_CO.as_bytes(), &mut b).unwrap();
        let g = b.build();
        assert_eq!(g.coord(0), Point::new(100, 200));
        assert_eq!(g.coord(1), Point::new(-5, 7));
    }

    #[test]
    fn roundtrip_write_then_read() {
        let mut b = read_gr(SAMPLE_GR.as_bytes()).unwrap();
        read_co(SAMPLE_CO.as_bytes(), &mut b).unwrap();
        let g = b.build();
        let mut gr = Vec::new();
        let mut co = Vec::new();
        write_gr(&g, &mut gr).unwrap();
        write_co(&g, &mut co).unwrap();
        let mut b2 = read_gr(&gr[..]).unwrap();
        read_co(&co[..], &mut b2).unwrap();
        let g2 = b2.build();
        assert_eq!(g2.num_vertices(), g.num_vertices());
        assert_eq!(g2.num_edges(), g.num_edges());
        assert!(g2.neighbors(0).eq(g.neighbors(0)));
        assert_eq!(g2.coord(1), g.coord(1));
    }

    #[test]
    fn rejects_arc_before_problem_line() {
        let err = read_gr("a 1 2 3\n".as_bytes()).unwrap_err();
        assert!(matches!(err, DimacsError::Parse { line: 1, .. }));
    }

    #[test]
    fn rejects_out_of_range_ids() {
        let err = read_gr("p sp 2 1\na 1 5 3\n".as_bytes()).unwrap_err();
        assert!(matches!(err, DimacsError::Parse { line: 2, .. }));
    }

    #[test]
    fn rejects_unknown_records_and_kinds() {
        assert!(read_gr("p max 2 1\n".as_bytes()).is_err());
        assert!(read_gr("p sp 2 1\nz 1 2\n".as_bytes()).is_err());
    }
}
