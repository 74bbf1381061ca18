//! Shared scaffolding for the bench targets: the synthetic stand-ins for
//! the paper's datasets (Table 2 ratios; see DESIGN.md §3) and the table
//! printer. `reproduce` regenerates every table and figure of the
//! evaluation (§7); `table_distance` and `table_startup` print their own
//! tables with the same printer.

// Float ordering goes through `OrderedWeight`: `partial_cmp` is on the
// clippy.toml method list, with the clock and thread calls.
#![deny(clippy::disallowed_methods)]

use kspin_graph::generate::{road_network, RoadNetworkConfig};
use kspin_graph::Graph;
use kspin_text::generate::{corpus, CorpusConfig};
use kspin_text::{Corpus, Vocabulary};

/// One synthetic dataset standing in for a Table 2 road network.
pub struct Dataset {
    pub graph: Graph,
    pub corpus: Corpus,
    pub vocab: Vocabulary,
}

/// Builds a dataset at `vertices` scale with Table 2-like keyword ratios.
pub fn build_dataset(vertices: usize) -> Dataset {
    let graph = road_network(&RoadNetworkConfig::new(vertices, 0x5eed ^ vertices as u64));
    let (corpus, vocab) = corpus(&CorpusConfig::new(
        graph.num_vertices(),
        0xc0de ^ vertices as u64,
    ));
    Dataset {
        graph,
        corpus,
        vocab,
    }
}

/// Prints a figure/table header in a uniform style.
pub fn header(title: &str, cols: &[&str]) {
    println!("\n=== {title} ===");
    print!("{:<14}", cols[0]);
    for c in &cols[1..] {
        print!(" {c:>14}");
    }
    println!();
}

/// Prints one row: a label and a series of values.
pub fn row(label: impl std::fmt::Display, values: &[f64]) {
    print!("{label:<14}");
    for v in values {
        if *v < 0.0 {
            print!(" {:>14}", "x"); // "not supported / not built"
        } else if *v >= 1000.0 {
            print!(" {v:>14.0}");
        } else {
            print!(" {v:>14.2}");
        }
    }
    println!();
}
