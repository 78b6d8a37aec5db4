//! Spans recorded by the benchmark around its calls into each layer.
//!
//! The same pinned requests are replayed at each layer boundary in turn, so a
//! request has one span per layer; its parent is the same request's span at
//! the next-outer boundary. Spans stay in memory until the run ends.

use crate::json::Json;
use crate::stats::median;
use std::collections::HashMap;
use std::time::Instant;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: u64,
    pub parent: Option<u64>,
    pub layer: &'static str,
    pub op: &'static str,
    /// Which pinned request (serving) or repetition (join) the span belongs to.
    pub request: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn micros(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e3
    }
}

/// Runs `f`, returning its result and the seconds it took.
pub fn seconds_of<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64())
}

/// Collects the spans of one workload part. `enabled = false` turns `record`
/// into a no-op, which is how the tracing overhead is measured.
pub struct Recorder {
    origin: Instant,
    pub enabled: bool,
    pub spans: Vec<Span>,
}

impl Recorder {
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
            enabled: true,
            spans: Vec::new(),
        }
    }

    pub fn record(
        &mut self,
        layer: &'static str,
        op: &'static str,
        request: u64,
        start: Instant,
        end: Instant,
    ) {
        if !self.enabled {
            return;
        }
        let id = self.spans.len() as u64;
        self.spans.push(Span {
            id,
            parent: None,
            layer,
            op,
            request,
            start_ns: start.duration_since(self.origin).as_nanos() as u64,
            end_ns: end.duration_since(self.origin).as_nanos() as u64,
        });
    }

    /// Times `f` as one span.
    pub fn time<T>(
        &mut self,
        layer: &'static str,
        op: &'static str,
        request: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let start = Instant::now();
        let out = f();
        self.record(layer, op, request, start, Instant::now());
        out
    }

    /// Sets each span's parent to the span of the same op and request at the
    /// layer `parent_of` names for it (`None` for a root layer).
    pub fn link(&mut self, parent_of: impl Fn(&'static str) -> Option<&'static str>) {
        let by_key: HashMap<(&'static str, &'static str, u64), u64> = self
            .spans
            .iter()
            .map(|s| ((s.layer, s.op, s.request), s.id))
            .collect();
        for span in &mut self.spans {
            span.parent = parent_of(span.layer)
                .and_then(|p| by_key.get(&(p, span.op, span.request)).copied());
        }
    }

    pub fn durations_us(&self, layer: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.layer == layer)
            .map(Span::micros)
            .collect()
    }
}

/// Median span and self time of each layer of a ladder, outermost first. A
/// layer's self time is its median span minus its child's; the innermost
/// layer's self time is its whole span, so the self times sum to the
/// outermost median by construction.
#[derive(Debug, Clone, PartialEq)]
pub struct Rung {
    pub layer: &'static str,
    pub median_us: f64,
    pub self_us: f64,
}

pub fn self_times(recorder: &Recorder, ladder: &[&'static str]) -> Vec<Rung> {
    let medians: Vec<f64> = ladder
        .iter()
        .map(|l| median(&recorder.durations_us(l)))
        .collect();
    ladder
        .iter()
        .enumerate()
        .map(|(i, &layer)| Rung {
            layer,
            median_us: medians[i],
            self_us: medians[i] - medians.get(i + 1).copied().unwrap_or(0.0),
        })
        .collect()
}

pub fn spans_json(workload: &str, spans: &[Span]) -> Json {
    Json::Arr(
        spans
            .iter()
            .map(|s| {
                Json::obj(vec![
                    ("id", Json::Num(s.id as f64)),
                    (
                        "parent",
                        s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                    ),
                    ("layer", Json::str(s.layer)),
                    ("op", Json::str(s.op)),
                    ("request", Json::Num(s.request as f64)),
                    ("workload", Json::str(workload)),
                    ("start_ns", Json::Num(s.start_ns as f64)),
                    ("end_ns", Json::Num(s.end_ns as f64)),
                ])
            })
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn recorder_with(layers: &[(&'static str, &[u64])]) -> Recorder {
        let mut r = Recorder::new();
        let origin = r.origin;
        for (layer, durations) in layers {
            for (request, &us) in durations.iter().enumerate() {
                r.record(
                    layer,
                    "query",
                    request as u64,
                    origin,
                    origin + Duration::from_micros(us),
                );
            }
        }
        r
    }

    #[test]
    fn self_times_telescope_to_the_outermost_span() {
        let r = recorder_with(&[
            ("net", &[600, 620, 580]),
            ("session", &[500, 510, 490]),
            ("index", &[40, 45, 50]),
        ]);
        let rungs = self_times(&r, &["net", "session", "index"]);
        assert_eq!(rungs[0].median_us, 600.0);
        assert_eq!(rungs[0].self_us, 100.0);
        assert_eq!(rungs[1].self_us, 455.0);
        assert_eq!(rungs[2].self_us, 45.0);
        let sum: f64 = rungs.iter().map(|r| r.self_us).sum();
        assert_eq!(sum, rungs[0].median_us);
    }

    #[test]
    fn every_non_root_span_gets_a_parent_in_its_own_request() {
        let mut r = recorder_with(&[("net", &[6, 7]), ("session", &[5, 6]), ("index", &[1, 2])]);
        r.link(|layer| match layer {
            "session" => Some("net"),
            "index" => Some("session"),
            _ => None,
        });
        for span in &r.spans {
            match span.layer {
                "net" => assert_eq!(span.parent, None),
                _ => {
                    let parent = &r.spans[span.parent.expect("linked") as usize];
                    assert_eq!(parent.request, span.request);
                    assert_ne!(parent.layer, span.layer);
                }
            }
        }
    }

    #[test]
    fn a_disabled_recorder_records_nothing() {
        let mut r = Recorder::new();
        r.enabled = false;
        assert_eq!(r.time("net", "query", 0, || 7), 7);
        assert!(r.spans.is_empty());
    }
}
