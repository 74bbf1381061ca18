//! The estimator, fixed here so every commit is measured the same way.
//!
//! A measurement is an untimed warm-up pass followed by repeated *passes*
//! over the same work. Each pass yields one statistic (a percentile of its
//! per-call latencies, or operations ÷ wall time) and the reported value is
//! the **best pass**: the library has no background work, so on a shared
//! 2-vCPU guest everything that makes a pass slower than the best one is
//! interference from outside the program. The median over passes and the
//! max/min spread go out as diagnostics.

use std::time::{Duration, Instant};

/// How long a run measures, and in how many cycles. A cycle visits every
/// phase once, so each statistic's passes are spread over the whole run and
/// a burst of interference cannot cover all passes of any one of them.
#[derive(Debug, Clone, Copy)]
pub struct Budget {
    /// `--seconds`, split between the phases.
    pub seconds: f64,
    /// Cycles in a run: the floor under every statistic's pass count.
    pub cycles: usize,
}

impl Budget {
    /// Seconds a phase entitled to `share` of the run may use per cycle.
    pub fn slot(&self, share: f64) -> f64 {
        self.seconds * share / self.cycles as f64
    }
}

/// Runs `pass` once, then again until `seconds` have gone by.
pub fn run_for(seconds: f64, mut pass: impl FnMut()) {
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    pass();
    while Instant::now() < deadline {
        pass();
    }
}

/// Seconds `f` took, and what it returned.
pub fn timed<T>(f: impl FnOnce() -> T) -> (f64, T) {
    let t0 = Instant::now();
    let out = f();
    (t0.elapsed().as_secs_f64(), out)
}

/// Nearest-rank percentile `p` ∈ (0, 100] of an ascending slice.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Sorts samples ascending (`total_cmp`: the repo's one float order).
pub fn sorted(mut samples: Vec<f64>) -> Vec<f64> {
    samples.sort_unstable_by(f64::total_cmp);
    samples
}

/// Whether smaller or larger values of a statistic are better.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

/// One statistic over passes: the best pass is the reported value.
#[derive(Debug, Clone, Copy)]
pub struct OverPasses {
    pub best: f64,
    pub median: f64,
    /// max ÷ min over passes — how much the host moved during the run.
    pub spread: f64,
}

pub fn over_passes(per_pass: &[f64], better: Better) -> OverPasses {
    let s = sorted(per_pass.to_vec());
    let (min, max) = (s[0], s[s.len() - 1]);
    OverPasses {
        best: if better == Better::Lower { min } else { max },
        median: percentile(&s, 50.0),
        spread: if min > 0.0 { max / min } else { 1.0 },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_are_nearest_rank() {
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&s, 50.0), 50.0);
        assert_eq!(percentile(&s, 95.0), 95.0);
        assert_eq!(percentile(&s, 100.0), 100.0);
        assert_eq!(percentile(&[7.0], 95.0), 7.0);
        let o = over_passes(&[3.0, 1.0, 2.0], Better::Lower);
        assert_eq!((o.best, o.median, o.spread), (1.0, 2.0, 3.0));
        assert_eq!(over_passes(&[3.0, 1.0, 2.0], Better::Higher).best, 3.0);
    }

    #[test]
    fn a_slot_always_holds_one_pass() {
        let mut passes = 0;
        run_for(0.0, || passes += 1);
        assert_eq!(passes, 1);
    }
}
