//! Lock-free telemetry core for the serving stack.
//!
//! This crate is a dependency leaf (std only) so the serving layers — store,
//! adaptive controller, CLI — can record into it without cycles. It provides
//! three things:
//!
//! 1. **Metrics primitives** ([`Counter`], [`Gauge`], [`Histogram`]): plain
//!    relaxed atomics, recordable from any thread without locks. Histograms
//!    use 64 log2 buckets; their [`HistogramSnapshot`]s merge bucket-wise,
//!    which is associative and commutative by construction, so per-shard
//!    histograms aggregate into exactly the histogram a single global
//!    recorder would have produced.
//! 2. **Trace sinks** ([`TraceSink`], [`Stage`], [`Observable`]): the hook
//!    interface the serving layers record per-stage timings and workload
//!    observables into. [`NoopSink`] is the default-off implementation — every
//!    method is an empty default body, so the disabled path is a virtual call
//!    that immediately returns. [`Telemetry`] is the always-on aggregate sink
//!    (histograms per stage/observable); [`TraceCapture`] grabs a single
//!    query's breakdown for the `trace on` protocol command.
//! 3. **Exposition** ([`prom::PromWriter`]): Prometheus/OpenMetrics text
//!    rendering with byte-stable ordering, terminated by `# EOF` so line
//!    protocols can frame the multi-line reply.

#![warn(missing_docs)]

mod metrics;
mod prom_impl;
mod trace;

pub use metrics::{
    bucket_index, bucket_upper_bound, Counter, Gauge, Histogram, HistogramSnapshot,
    HISTOGRAM_BUCKETS,
};
pub use trace::{Fanout, NoopSink, Observable, Stage, Telemetry, TraceCapture, TraceSink};

/// Prometheus text exposition rendering.
pub mod prom {
    pub use crate::prom_impl::PromWriter;
}

/// A shared no-op sink for callers that need a `&'static dyn TraceSink`.
pub static NOOP_SINK: NoopSink = NoopSink;
