//! What a workload part hands back: named metric values and the failure count.

use crate::stats::{summarize, Summary};

#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Value {
    pub value: f64,
    /// Present for timings: median, quartiles and count of the samples.
    pub summary: Option<Summary>,
}

/// How many failure messages are kept for the report; every failure counts.
const KEPT_FAILURES: usize = 5;

#[derive(Debug, Default)]
pub struct Outcome {
    pub metrics: Vec<(&'static str, Value)>,
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
}

impl Outcome {
    pub fn put(&mut self, name: &'static str, value: f64) {
        self.metrics.push((
            name,
            Value {
                value,
                summary: None,
            },
        ));
    }

    /// Records the median of `samples` (each multiplied by `scale`) as `name`.
    pub fn put_timing(&mut self, name: &'static str, samples: &[f64], scale: f64) {
        let scaled: Vec<f64> = samples.iter().map(|x| x * scale).collect();
        let summary = summarize(&scaled);
        self.metrics.push((
            name,
            Value {
                value: summary.median,
                // One sample has no quartiles worth printing.
                summary: (scaled.len() > 1).then_some(summary),
            },
        ));
    }

    pub fn fail(&mut self, count: u64, message: String) {
        self.failed += count;
        if self.failures.len() < KEPT_FAILURES {
            self.failures.push(message);
        }
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| v.value)
    }

    pub fn absorb(&mut self, other: Outcome) {
        self.metrics.extend(other.metrics);
        self.attempted += other.attempted;
        self.failed += other.failed;
        for message in other.failures {
            if self.failures.len() < KEPT_FAILURES {
                self.failures.push(message);
            }
        }
    }
}
