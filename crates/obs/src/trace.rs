//! Per-stage trace sinks: the hook interface the serving layers record into.

use std::sync::atomic::{AtomicU64, Ordering};

use crate::metrics::Histogram;

/// The pipeline stages a query batch passes through, in pipeline order.
///
/// Every stage is always present in a trace breakdown; a stage that did not
/// run for a given query (e.g. `CoalesceWait` on the direct path) reports
/// zero.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Stage {
    /// Parsing the protocol line into vectors.
    Parse = 0,
    /// Time a coalesced batch waited for the collection window to close.
    CoalesceWait = 1,
    /// Acquiring the per-shard read locks.
    LockWait = 2,
    /// The `JoinEngine` pass itself (scoring across all shards).
    Engine = 3,
    /// Merging per-shard winners into the global answer.
    Merge = 4,
    /// Splitting a coalesced batch's answers back per requester.
    Demux = 5,
}

impl Stage {
    /// Every stage, in pipeline order — the exposition iteration order.
    pub const ALL: [Stage; 6] = [
        Stage::Parse,
        Stage::CoalesceWait,
        Stage::LockWait,
        Stage::Engine,
        Stage::Merge,
        Stage::Demux,
    ];

    /// Stable snake_case name used in metric labels and trace lines.
    pub fn name(self) -> &'static str {
        match self {
            Stage::Parse => "parse",
            Stage::CoalesceWait => "coalesce_wait",
            Stage::LockWait => "lock_wait",
            Stage::Engine => "engine",
            Stage::Merge => "merge",
            Stage::Demux => "demux",
        }
    }
}

/// Workload observables the planner needs distributions of.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Observable {
    /// Euclidean norm of each query vector, in thousandths (histograms hold
    /// integers; milli resolution is plenty for drift detection).
    QueryNormMilli = 0,
    /// Number of queries per engine pass (1 on the uncoalesced path).
    BatchSize = 1,
}

impl Observable {
    /// Every observable — the exposition iteration order.
    pub const ALL: [Observable; 2] = [Observable::QueryNormMilli, Observable::BatchSize];

    /// Stable snake_case name used in metric names and trace lines.
    pub fn name(self) -> &'static str {
        match self {
            Observable::QueryNormMilli => "query_norm_milli",
            Observable::BatchSize => "batch_size",
        }
    }
}

/// Receiver for per-stage timings and workload observables.
///
/// Both methods have empty default bodies: an implementation records exactly
/// what it cares about, and the disabled path ([`NoopSink`]) compiles to a
/// virtual call that immediately returns — no branches in the recording
/// layers, no allocation, no locks.
pub trait TraceSink: Send + Sync {
    /// Records that `stage` took `ns` nanoseconds.
    fn stage_ns(&self, stage: Stage, ns: u64) {
        let _ = (stage, ns);
    }

    /// Records one observation of `observable`.
    fn observe(&self, observable: Observable, value: u64) {
        let _ = (observable, value);
    }
}

/// The default-off sink: discards everything.
#[derive(Clone, Copy, Debug, Default)]
pub struct NoopSink;

impl TraceSink for NoopSink {}

/// Records into two sinks at once — used to feed the always-on aggregate
/// [`Telemetry`] and a per-query [`TraceCapture`] from one pass.
#[derive(Clone, Copy)]
pub struct Fanout<'a> {
    /// First receiver.
    pub a: &'a dyn TraceSink,
    /// Second receiver.
    pub b: &'a dyn TraceSink,
}

impl TraceSink for Fanout<'_> {
    fn stage_ns(&self, stage: Stage, ns: u64) {
        self.a.stage_ns(stage, ns);
        self.b.stage_ns(stage, ns);
    }

    fn observe(&self, observable: Observable, value: u64) {
        self.a.observe(observable, value);
        self.b.observe(observable, value);
    }
}

/// Captures one query's per-stage breakdown — the `trace on` implementation.
///
/// Stage times and observables accumulate (`fetch_add`), so a stage recorded
/// from several shards or engine threads sums rather than overwrites.
#[derive(Debug, Default)]
pub struct TraceCapture {
    stages: [AtomicU64; 6],
    observables: [AtomicU64; 2],
}

impl TraceCapture {
    /// An empty capture.
    pub const fn new() -> Self {
        Self {
            stages: [const { AtomicU64::new(0) }; 6],
            observables: [const { AtomicU64::new(0) }; 2],
        }
    }

    /// Accumulated nanoseconds for `stage`.
    pub fn stage(&self, stage: Stage) -> u64 {
        self.stages[stage as usize].load(Ordering::Relaxed)
    }

    /// Accumulated value for `observable`.
    pub fn observable(&self, observable: Observable) -> u64 {
        self.observables[observable as usize].load(Ordering::Relaxed)
    }
}

impl TraceSink for TraceCapture {
    fn stage_ns(&self, stage: Stage, ns: u64) {
        self.stages[stage as usize].fetch_add(ns, Ordering::Relaxed);
    }

    fn observe(&self, observable: Observable, value: u64) {
        self.observables[observable as usize].fetch_add(value, Ordering::Relaxed);
    }
}

/// The always-on aggregate sink: one histogram per stage and observable,
/// plus an end-to-end query (batch) latency histogram.
///
/// Recording is a few relaxed atomic adds per *batch* (not per candidate),
/// which is why the serving stack can leave this on by default — the
/// repository benchmark's `obs.capture_overhead_pct` and `trace.overhead_pct`
/// (under `benchmark/`) report what recording costs.
#[derive(Debug, Default)]
pub struct Telemetry {
    stages: [Histogram; 6],
    observables: [Histogram; 2],
    query_latency: Histogram,
}

impl Telemetry {
    /// A fresh, empty telemetry block.
    pub const fn new() -> Self {
        Self {
            stages: [const { Histogram::new() }; 6],
            observables: [const { Histogram::new() }; 2],
            query_latency: Histogram::new(),
        }
    }

    /// The latency histogram for `stage`.
    pub fn stage(&self, stage: Stage) -> &Histogram {
        &self.stages[stage as usize]
    }

    /// The value histogram for `observable`.
    pub fn observable(&self, observable: Observable) -> &Histogram {
        &self.observables[observable as usize]
    }

    /// End-to-end wall time per query batch.
    pub fn query_latency(&self) -> &Histogram {
        &self.query_latency
    }

    /// Records one end-to-end batch latency.
    pub fn record_query_latency(&self, ns: u64) {
        self.query_latency.record(ns);
    }
}

impl TraceSink for Telemetry {
    fn stage_ns(&self, stage: Stage, ns: u64) {
        self.stages[stage as usize].record(ns);
    }

    fn observe(&self, observable: Observable, value: u64) {
        self.observables[observable as usize].record(value);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn capture_accumulates_and_telemetry_buckets() {
        let capture = TraceCapture::new();
        let telemetry = Telemetry::new();
        let sink = Fanout {
            a: &capture,
            b: &telemetry,
        };
        sink.stage_ns(Stage::Engine, 100);
        sink.stage_ns(Stage::Engine, 50);
        sink.observe(Observable::BatchSize, 4);
        assert_eq!(capture.stage(Stage::Engine), 150, "capture sums");
        assert_eq!(capture.stage(Stage::Parse), 0, "untouched stages are zero");
        assert_eq!(capture.observable(Observable::BatchSize), 4);
        assert_eq!(
            telemetry.stage(Stage::Engine).count(),
            2,
            "telemetry counts samples"
        );
        assert_eq!(telemetry.observable(Observable::BatchSize).count(), 1);
    }

    #[test]
    fn noop_sink_is_usable_as_a_trait_object() {
        let sink: &dyn TraceSink = &NoopSink;
        sink.stage_ns(Stage::Parse, 1);
        sink.observe(Observable::BatchSize, 1);
    }

    #[test]
    fn names_are_unique_and_snake_case() {
        let mut names: Vec<&str> = Stage::ALL.iter().map(|s| s.name()).collect();
        names.extend(Observable::ALL.iter().map(|o| o.name()));
        let mut deduped = names.clone();
        deduped.sort_unstable();
        deduped.dedup();
        assert_eq!(deduped.len(), names.len());
        for name in names {
            assert!(name.chars().all(|c| c.is_ascii_lowercase() || c == '_'));
        }
    }
}
