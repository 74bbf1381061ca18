//! What a run reports: named metrics with units, in the two groups of the
//! benchmark contract, plus the check and operation counts.

use crate::json::quote;
use crate::layers::layer_of;
use crate::measure::OverPasses;
use crate::verify::Checks;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Group {
    /// What a user of the system sees; printed by `--trace 0`.
    EndToEnd,
    /// One layer's count, time or ratio; printed by `--trace 1`.
    PerLayer,
    /// Sample and pass counts: for the reader, not for comparison.
    Info,
}

#[derive(Debug, Clone)]
pub struct Metric {
    pub group: Group,
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

#[derive(Debug)]
pub struct Report {
    pub workload: &'static str,
    pub seed: u64,
    pub trace: bool,
    pub metrics: Vec<Metric>,
    pub checks: Checks,
    /// Operations executed inside timed regions.
    pub timed_ops: u64,
    /// Worst max ÷ min over passes of any per-pass statistic.
    pub pass_spread: f64,
}

impl Report {
    pub fn new(workload: &'static str, seed: u64, trace: bool) -> Report {
        Report {
            workload,
            seed,
            trace,
            metrics: Vec::new(),
            checks: Checks::default(),
            timed_ops: 0,
            pass_spread: 1.0,
        }
    }

    fn push(&mut self, group: Group, name: impl Into<String>, value: f64, unit: &'static str) {
        let name = name.into();
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        self.metrics.push(Metric {
            group,
            name,
            value,
            unit,
        });
    }

    pub fn end_to_end(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.push(Group::EndToEnd, name, value, unit);
    }

    pub fn per_layer(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.push(Group::PerLayer, name, value, unit);
    }

    pub fn info(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.push(Group::Info, name, value, unit);
    }

    /// An end-to-end statistic over passes: the best pass is the metric,
    /// the median over passes goes out as information.
    pub fn best_pass(&mut self, name: &str, stat: OverPasses, unit: &'static str) {
        self.end_to_end(name, stat.best, unit);
        self.info(format!("{name}.median_of_passes"), stat.median, unit);
        self.pass_spread = self.pass_spread.max(stat.spread);
    }

    pub fn attempted(&self) -> u64 {
        self.checks.attempted + self.timed_ops
    }

    /// The contract's result object: the end-to-end metrics of an untraced
    /// run, the per-layer metrics of a traced one.
    pub fn result_json(&self) -> String {
        let group = if self.trace {
            Group::PerLayer
        } else {
            Group::EndToEnd
        };
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
            self.checks.failed == 0,
            self.attempted(),
            self.checks.failed,
            self.metrics_json(group)
        )
    }

    /// [`Report::result_json`] plus what identifies the run and the
    /// information rows — one line of an `--out` file. `seconds` is the
    /// run's `--seconds`: part of the estimator, so part of the record, and
    /// `--compare` refuses sets measured at different lengths.
    pub fn record_json(&self, seconds: f64) -> String {
        let result = self.result_json();
        format!(
            "{{\"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"info\": {}, {}",
            quote(self.workload),
            self.seed,
            seconds,
            self.trace,
            self.metrics_json(Group::Info),
            &result[1..]
        )
    }

    fn metrics_json(&self, group: Group) -> String {
        let members: Vec<String> = self
            .metrics
            .iter()
            .filter(|m| m.group == group)
            .map(|m| {
                format!(
                    "{}: {{\"value\": {}, \"unit\": {}}}",
                    quote(&m.name),
                    m.value,
                    quote(m.unit)
                )
            })
            .collect();
        format!("{{{}}}", members.join(", "))
    }

    /// Every metric by name with its unit, for people.
    pub fn print_table(&self) {
        eprintln!(
            "== {} seed {} {} ==",
            self.workload,
            self.seed,
            if self.trace { "traced" } else { "untraced" }
        );
        for (group, title) in [
            (Group::EndToEnd, "end to end"),
            (Group::PerLayer, "per layer"),
            (Group::Info, "information"),
        ] {
            eprintln!("-- {title} --");
            let rows = || self.metrics.iter().filter(|m| m.group == group);
            let row = |m: &Metric| eprintln!("{:<44} {:>16.4} {}", m.name, m.value, m.unit);
            if group != Group::PerLayer {
                rows().for_each(row);
                continue;
            }
            // Per-layer metrics come under their layer and the end-to-end
            // metrics they should move, layers in order of first appearance.
            let mut tags = Vec::new();
            for tag in rows().map(|m| layer_of(&m.name)) {
                if !tags.contains(&tag) {
                    tags.push(tag);
                }
            }
            for tag in tags {
                match tag {
                    Some((layer, [])) => eprintln!("[{layer} -> nothing gated]"),
                    Some((layer, moves)) => eprintln!("[{layer} -> {}]", moves.join(" ")),
                    None => eprintln!("[no layer]"),
                }
                rows().filter(|m| layer_of(&m.name) == tag).for_each(row);
            }
        }
        eprintln!(
            "checks {} failed {} timed operations {}",
            self.checks.attempted, self.checks.failed, self.timed_ops
        );
    }
}
