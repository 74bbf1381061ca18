//! Query algorithms of the Query Processor (§4).

pub mod baseline;
pub mod bknn;
pub mod boolean;
mod kbest;
pub mod topk;

/// The boolean operator of a BkNN query (§2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// Conjunctive: results contain *all* query keywords.
    And,
    /// Disjunctive: results contain *at least one* query keyword.
    Or,
}
