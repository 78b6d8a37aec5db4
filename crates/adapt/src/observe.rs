//! Windowed workload observation: folding the serving layer's cumulative
//! telemetry into per-window deltas the drift detector can compare.
//!
//! The PR-8 telemetry histograms ([`ips_obs::Telemetry`]) are
//! cumulative-forever by design — recording is a few relaxed atomic adds and
//! never resets. A drift detector, though, must answer "what does the workload
//! look like *now*", not "averaged over the server's lifetime": a query-norm
//! shift an hour into a run is invisible in lifetime aggregates. The
//! [`TelemetryWindow`] therefore keeps the previous snapshot of every
//! histogram and counter it watches and, on each [`TelemetryWindow::advance`],
//! publishes the [`HistogramSnapshot::diff`] against it — exactly the samples
//! recorded since the last check.

use ips_obs::{HistogramSnapshot, Observable};
use ips_store::{ServingStats, ShardedServingIndex};

/// One window's worth of observed workload, folded from the telemetry
/// histograms and serving counters — the sensor reading of the control loop.
///
/// All values describe the interval since the previous
/// [`TelemetryWindow::advance`] call (except [`ObservedWorkload::live`], a
/// point-in-time gauge).
#[derive(Debug, Clone, PartialEq)]
pub struct ObservedWorkload {
    /// Query vectors observed (one norm sample is recorded per query).
    pub queries: u64,
    /// Engine passes (query batches) answered.
    pub batches: u64,
    /// Matches reported.
    pub hits: u64,
    /// Mean Euclidean query norm (exact: histogram sums are exact even
    /// though buckets quantize).
    pub mean_query_norm: f64,
    /// Upper bound on the largest query norm (the top non-empty bucket's
    /// bound — an over-, never under-, estimate).
    pub max_query_norm: f64,
    /// Mean queries per engine pass.
    pub mean_batch_size: f64,
    /// Vectors inserted.
    pub inserts: u64,
    /// Vectors deleted.
    pub deletes: u64,
    /// Live vectors at the end of the window.
    pub live: usize,
}

/// Baselines for the windowed fold: the previous snapshot of every cumulative
/// histogram and counter [`TelemetryWindow::advance`] diffs against.
#[derive(Debug, Default)]
pub struct TelemetryWindow {
    norms: HistogramSnapshot,
    batch_sizes: HistogramSnapshot,
    latency: HistogramSnapshot,
    stats: ServingStats,
}

impl TelemetryWindow {
    /// A window whose first [`TelemetryWindow::advance`] covers the index's
    /// whole telemetry lifetime.
    pub fn new() -> Self {
        Self::default()
    }

    /// Folds everything recorded since the previous call into one
    /// [`ObservedWorkload`] and advances the baselines.
    ///
    /// Snapshots are taken without any lock on the serving index; under
    /// concurrent recording a window can tear by a sample (the diffs saturate
    /// rather than wrap), which a drift detector — comparing distributions,
    /// not exact counts — absorbs.
    pub fn advance(&mut self, index: &ShardedServingIndex) -> ObservedWorkload {
        let telemetry = index.telemetry();
        let snap = |o: Observable| telemetry.observable(o).snapshot();
        let norms = snap(Observable::QueryNormMilli);
        let batch_sizes = snap(Observable::BatchSize);
        let latency = telemetry.query_latency().snapshot();
        let stats = index.stats();

        let norm_window = norms.diff(&self.norms);
        let batch_window = batch_sizes.diff(&self.batch_sizes);
        let observed = ObservedWorkload {
            queries: norm_window.count,
            batches: latency.diff(&self.latency).count,
            hits: stats.hits.saturating_sub(self.stats.hits),
            mean_query_norm: norm_window.mean() / 1000.0,
            max_query_norm: norm_window.max_bound() as f64 / 1000.0,
            mean_batch_size: batch_window.mean(),
            inserts: stats.inserts.saturating_sub(self.stats.inserts),
            deletes: stats.deletes.saturating_sub(self.stats.deletes),
            live: index.len(),
        };
        self.norms = norms;
        self.batch_sizes = batch_sizes;
        self.latency = latency;
        self.stats = stats;
        observed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ips_core::problem::{JoinSpec, JoinVariant};
    use ips_linalg::DenseVector;
    use ips_store::{IndexConfig, ShardedConfig};

    fn index() -> ShardedServingIndex {
        let data = vec![
            DenseVector::from(&[0.9, 0.0][..]),
            DenseVector::from(&[0.0, 0.8][..]),
        ];
        let spec = JoinSpec::new(0.5, 0.8, JoinVariant::Signed).unwrap();
        ShardedServingIndex::build(data, spec, IndexConfig::Brute, ShardedConfig::default())
            .unwrap()
    }

    #[test]
    fn windows_cover_disjoint_intervals() {
        let index = index();
        let mut window = TelemetryWindow::new();
        let q = vec![DenseVector::from(&[1.0, 0.0][..])];
        index.query(&q).unwrap();
        index.query(&q).unwrap();
        let first = window.advance(&index);
        assert_eq!(first.queries, 2);
        assert_eq!(first.batches, 2);
        assert_eq!(first.hits, 2);
        assert!((first.mean_query_norm - 1.0).abs() < 0.01);
        assert!(
            first.max_query_norm >= 1.0,
            "max bound never underestimates"
        );
        assert_eq!(first.live, 2);
        // An idle window is empty; the lifetime aggregates clearly are not.
        let idle = window.advance(&index);
        assert_eq!(idle.queries, 0);
        assert_eq!(idle.hits, 0);
        assert_eq!(idle.mean_query_norm, 0.0);
        // Mutations land in the window they happen in.
        index.insert(DenseVector::from(&[0.1, 0.1][..])).unwrap();
        index.delete(0).unwrap();
        index.query(&q).unwrap();
        let third = window.advance(&index);
        assert_eq!((third.inserts, third.deletes), (1, 1));
        assert_eq!(third.queries, 1);
        assert_eq!(third.hits, 0, "the best partner was deleted");
        assert_eq!(third.live, 2);
    }
}
