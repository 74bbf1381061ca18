//! `kspin-cli` — generate datasets, build indexes, and answer spatial
//! keyword queries interactively.
//!
//! ```text
//! kspin-cli generate --vertices 50000 --seed 7 --out data/city
//!     writes data/city.gr, data/city.co, data/city.kw
//!
//! kspin-cli snapshot save data/city.snap --data data/city [--rho 5] [--ch true|false]
//!     builds the full system and persists it as one flat binary snapshot
//!
//! kspin-cli snapshot load data/city.snap
//!     validates the snapshot, prints header + per-section metadata, and
//!     reloads the system (millisecond warm start instead of a rebuild)
//!
//! kspin-cli query --snapshot data/city.snap [--dist dijkstra|ch|hl]
//!     loads the snapshot, then reads commands from stdin:
//!       bknn <vertex> <k> and|or <keyword> [keyword ...]
//!       topk <vertex> <k> <keyword> [keyword ...]
//!       stats | help | quit
//!     `ch` serves the snapshot's contraction hierarchy and `hl` labels
//!     hubs from it; both need a snapshot saved with `--ch true`.
//! ```
//!
//! A subcommand refuses any flag it does not name.

// Float ordering goes through `OrderedWeight`: `partial_cmp` is on the
// clippy.toml method list, with the clock and thread calls.
#![deny(clippy::disallowed_methods)]

use std::collections::HashMap;
use std::error::Error;
use std::fs::File;
use std::io::{self, BufRead, BufReader, BufWriter, Write};
use std::process::ExitCode;
use std::time::Instant;

use kspin::prelude::*;
use kspin_ch::{ChConfig, ContractionHierarchy};
use kspin_hl::HubLabels;

/// The CLI's one clock read, for the build, load and query times it prints.
#[expect(
    clippy::disallowed_methods,
    reason = "the CLI reports wall-clock times"
)]
fn now() -> Instant {
    Instant::now()
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("generate") => cmd_generate(&args[1..]),
        Some("query") => cmd_query(&args[1..]),
        Some("snapshot") => cmd_snapshot(&args[1..]),
        _ => {
            eprintln!(
                "usage: kspin-cli <generate|query|snapshot> [options]   (see --help in source)"
            );
            return ExitCode::FAILURE;
        }
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        // A closed stdout (`kspin-cli … | head`) is the reader saying it
        // has seen enough, not a failure.
        Err(e)
            if e.downcast_ref::<io::Error>()
                .is_some_and(|e| e.kind() == io::ErrorKind::BrokenPipe) =>
        {
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

/// A subcommand's outcome: a message, or the stdout write error that
/// stopped it.
type CliResult = Result<(), Box<dyn Error>>;

/// Tiny flag parser: `--key value` pairs, each key one of `known`.
fn flags(args: &[String], known: &[&str]) -> Result<HashMap<String, String>, String> {
    let mut out = HashMap::new();
    let mut it = args.iter();
    while let Some(k) = it.next() {
        let key = k
            .strip_prefix("--")
            .ok_or_else(|| format!("expected --flag, got {k:?}"))?;
        if !known.contains(&key) {
            return Err(format!("unknown flag --{key}"));
        }
        let v = it
            .next()
            .ok_or_else(|| format!("flag --{key} needs a value"))?;
        out.insert(key.to_string(), v.clone());
    }
    Ok(out)
}

fn cmd_generate(args: &[String]) -> CliResult {
    let f = flags(args, &["vertices", "seed", "out"])?;
    let vertices: usize = f
        .get("vertices")
        .map(|s| s.parse().ok().filter(|&v| v >= 1).ok_or("bad --vertices"))
        .transpose()?
        .unwrap_or(20_000);
    let seed: u64 = f
        .get("seed")
        .map(|s| s.parse().map_err(|_| "bad --seed"))
        .transpose()?
        .unwrap_or(42);
    let out = f.get("out").ok_or("--out <prefix> is required")?;

    eprintln!("generating {vertices}-vertex road network (seed {seed})…");
    let graph = kspin::graph::generate::road_network(
        &kspin::graph::generate::RoadNetworkConfig::new(vertices, seed),
    );
    let (corpus, vocab) = kspin::text::generate::corpus(&kspin::text::generate::CorpusConfig::new(
        graph.num_vertices(),
        seed,
    ));
    let write = |path: String, f: &dyn Fn(&mut BufWriter<File>) -> std::io::Result<()>| {
        let file = File::create(&path).map_err(|e| format!("{path}: {e}"))?;
        let mut w = BufWriter::new(file);
        // The last buffered block reaches the file only at the flush, and a
        // drop would discard its error.
        f(&mut w)
            .and_then(|()| w.flush())
            .map_err(|e| format!("{path}: {e}"))?;
        eprintln!("  wrote {path}");
        Ok::<(), String>(())
    };
    write(format!("{out}.gr"), &|w| {
        kspin::graph::dimacs::write_gr(&graph, w)
    })?;
    write(format!("{out}.co"), &|w| {
        kspin::graph::dimacs::write_co(&graph, w)
    })?;
    write(format!("{out}.kw"), &|w| {
        kspin::text::io::write_kw(&corpus, &vocab, w)
    })?;
    eprintln!(
        "done: |V|={} |E|={} |O|={} |W|={}",
        graph.num_vertices(),
        graph.num_edges(),
        corpus.num_objects(),
        corpus.num_terms()
    );
    Ok(())
}

/// Reads the DIMACS dataset `{prefix}.gr` / `.co` / `.kw`; a refusal
/// names the file.
fn read_dataset(prefix: &str) -> Result<(Graph, Corpus, Vocabulary), String> {
    eprintln!("loading {prefix}.gr / .co / .kw…");
    let open = |ext: &str| -> Result<BufReader<File>, String> {
        File::open(format!("{prefix}.{ext}"))
            .map(BufReader::new)
            .map_err(|e| format!("{prefix}.{ext}: {e}"))
    };
    let mut builder =
        kspin::graph::dimacs::read_gr(open("gr")?).map_err(|e| format!("{prefix}.gr: {e}"))?;
    kspin::graph::dimacs::read_co(open("co")?, &mut builder)
        .map_err(|e| format!("{prefix}.co: {e}"))?;
    let graph = builder.build();
    let (corpus, vocab) = kspin::text::io::read_kw(open("kw")?, graph.num_vertices())
        .map_err(|e| format!("{prefix}.kw: {e}"))?;
    Ok((graph, corpus, vocab))
}

fn cmd_snapshot(args: &[String]) -> CliResult {
    let usage = "usage: kspin-cli snapshot <save|load> <path> [options]";
    let path = args.get(1).filter(|p| !p.starts_with("--")).ok_or(usage)?;
    match args.first().map(String::as_str) {
        Some("save") => cmd_snapshot_save(path, &args[2..]),
        Some("load") => cmd_snapshot_load(path, &args[2..]),
        _ => Err(usage.into()),
    }
}

fn cmd_snapshot_save(path: &str, args: &[String]) -> CliResult {
    let f = flags(args, &["data", "rho", "ch"])?;
    let prefix = f.get("data").ok_or("--data <prefix> is required")?;
    // A ρ-approximate NVD's quadtree leaf keeps at most ρ candidates and
    // at least one (§6.1), so ρ = 0 is refused.
    let rho: usize = f
        .get("rho")
        .map(|s| s.parse().ok().filter(|&r| r >= 1).ok_or("bad --rho"))
        .transpose()?
        .unwrap_or(5);
    let with_ch = match f.get("ch").map(String::as_str) {
        None | Some("false") => false,
        Some("true") => true,
        Some(_) => return Err("bad --ch (true|false)".into()),
    };

    let (graph, corpus, vocab) = read_dataset(prefix)?;

    let config = KspinConfig {
        rho,
        ..KspinConfig::default()
    };
    eprintln!("building K-SPIN (rho = {rho})…");
    let system = KspinSystem::build(graph, corpus, vocab, &config);
    eprintln!(
        "keywords of at most {} objects stay lists",
        system.index.list_max()
    );
    let mut extras = kspin::snapshot::SnapshotExtras::default();
    if with_ch {
        eprintln!("building contraction hierarchy…");
        extras.ch = Some(ContractionHierarchy::build(
            &system.graph,
            &ChConfig::default(),
        ));
    }

    let t0 = now();
    let bytes = system.save_snapshot(&extras);
    std::fs::write(path, &bytes).map_err(|e| format!("{path}: {e}"))?;
    eprintln!(
        "wrote {path}: {} bytes ({:.1} B/vertex) in {:.1} ms",
        bytes.len(),
        bytes.len() as f64 / system.graph.num_vertices() as f64,
        t0.elapsed().as_secs_f64() * 1e3
    );
    Ok(())
}

fn cmd_snapshot_load(path: &str, args: &[String]) -> CliResult {
    flags(args, &[])?;
    let bytes = std::fs::read(path).map_err(|e| format!("{path}: {e}"))?;
    // One checksum pass: the validated file is both listed and decoded.
    let t0 = now();
    let f = kspin::prelude::SnapshotFile::validate(&bytes).map_err(|e| e.to_string())?;
    let (system, extras) = KspinSystem::decode_snapshot(&f).map_err(|e| e.to_string())?;
    let load_ms = t0.elapsed().as_secs_f64() * 1e3;
    let mut out = io::stdout().lock();
    writeln!(
        out,
        "{path}: {} bytes, format v{}, {} sections",
        f.len_bytes(),
        f.version(),
        f.num_sections()
    )?;
    for line in kspin::snapshot::describe_sections(&f) {
        writeln!(out, "{line}")?;
    }
    writeln!(
        out,
        "loaded in {load_ms:.1} ms: |V|={} |E|={} |O|={} |W|={}, {} NVD keywords, {} list keywords{}",
        system.graph.num_vertices(),
        system.graph.num_edges(),
        system.corpus.num_objects(),
        system.corpus.num_terms(),
        system.index.stats().nvd_terms,
        system.index.stats().small_terms,
        if extras.ch.is_some() { ", +CH" } else { "" },
    )?;
    Ok(())
}

fn cmd_query(args: &[String]) -> CliResult {
    let f = flags(args, &["snapshot", "dist"])?;
    let path = f.get("snapshot").ok_or("--snapshot <file> is required")?;
    let dist_kind = f.get("dist").map_or("dijkstra", String::as_str);

    let bytes = std::fs::read(path).map_err(|e| format!("{path}: {e}"))?;
    let t0 = now();
    let (system, extras) =
        KspinSystem::load_snapshot(&bytes).map_err(|e| format!("{path}: {e}"))?;
    eprintln!("loaded in {:.1} ms", t0.elapsed().as_secs_f64() * 1e3);

    // CH and HL serve the file's hierarchy; it is never rebuilt here.
    let ch = || {
        extras.ch.as_ref().ok_or_else(|| {
            format!("{path} holds no CH: --dist {dist_kind} needs a snapshot saved with --ch true")
        })
    };
    let hl;
    let mut dist: Box<dyn NetworkDistance + '_> = match dist_kind {
        "dijkstra" => Box::new(DijkstraDistance::new(&system.graph)),
        "ch" => Box::new(ChDistance::new(ch()?)),
        "hl" => {
            let ch = ch()?;
            eprintln!("labelling hubs from the snapshot's CH…");
            hl = HubLabels::build(ch);
            Box::new(HlDistance::new(&hl))
        }
        other => return Err(format!("unknown --dist {other:?}").into()),
    };
    let mut engine = system.engine(dist.as_mut());

    eprintln!("ready — type `help` for commands");
    let stdin = std::io::stdin();
    let mut out = io::stdout().lock();
    for line in stdin.lock().lines() {
        let line = line.map_err(|e| e.to_string())?;
        let tokens: Vec<&str> = line.split_ascii_whitespace().collect();
        let parsed = match tokens.as_slice() {
            [] => continue,
            ["quit"] | ["exit"] => break,
            ["help"] => {
                writeln!(out, "  bknn <vertex> <k> and|or <kw> [kw…]")?;
                writeln!(out, "  topk <vertex> <k> <kw> [kw…]")?;
                writeln!(out, "  stats | quit")?;
                continue;
            }
            ["stats"] => {
                writeln!(
                    out,
                    "  index {} KiB, ALT {} KiB",
                    system.index.size_bytes() / 1024,
                    system.alt.size_bytes() / 1024
                )?;
                continue;
            }
            _ => parse_query(&system, &tokens),
        };
        let (query, unknown) = match parsed {
            Ok(parsed) => parsed,
            Err(msg) => {
                writeln!(out, "  {msg}")?;
                continue;
            }
        };
        if unknown > 0 {
            writeln!(out, "  note: {unknown} unknown keyword(s) ignored")?;
        }
        let t0 = now();
        let result = query.run(&mut engine);
        let us = t0.elapsed().as_secs_f64() * 1e6;
        let n = match &result {
            ServingResult::Distances(results) => {
                for (o, d) in results {
                    let words: Vec<&str> = system
                        .corpus
                        .doc(*o)
                        .iter()
                        .map(|p| system.vocab.term(p.term))
                        .collect();
                    writeln!(
                        out,
                        "  object {o} @ vertex {} dist {d}  [{}]",
                        system.corpus.vertex_of(*o),
                        words.join(" ")
                    )?;
                }
                results.len()
            }
            ServingResult::Scores(results) => {
                for (o, s) in results {
                    writeln!(
                        out,
                        "  object {o} @ vertex {} score {s:.1}",
                        system.corpus.vertex_of(*o)
                    )?;
                }
                results.len()
            }
        };
        writeln!(out, "  ({n} results in {us:.0} µs)")?;
    }
    Ok(())
}

/// Parses a `bknn` or `topk` line into the query the batch executor would
/// run. Returns the query and the number of unknown keywords it skips, or
/// the message to print instead of an answer.
fn parse_query(
    system: &KspinSystem,
    tokens: &[&str],
) -> Result<(ServingQuery, usize), &'static str> {
    let (vertex, k, op, kws) = match tokens {
        ["bknn", vertex, k, op, kws @ ..] if !kws.is_empty() => (vertex, k, Some(*op), kws),
        ["topk", vertex, k, kws @ ..] if !kws.is_empty() => (vertex, k, None, kws),
        _ => return Err("unrecognized command (try `help`)"),
    };
    let (Ok(vertex), Ok(k)) = (vertex.parse::<VertexId>(), k.parse::<usize>()) else {
        return Err("bad vertex/k");
    };
    if vertex as usize >= system.graph.num_vertices() {
        return Err("vertex out of range");
    }
    let terms = system.terms(kws);
    let unknown = kws.len() - terms.len();
    let op = match op {
        None => return Ok((ServingQuery::TopK { vertex, k, terms }, unknown)),
        Some("and") => Op::And,
        Some("or") => Op::Or,
        Some(_) => return Err("operator must be and|or"),
    };
    Ok((
        ServingQuery::Bknn {
            vertex,
            k,
            terms,
            op,
        },
        unknown,
    ))
}
