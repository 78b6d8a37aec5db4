//! `compare <dirA> <dirB>`: two sets of result files, metric by metric.

use crate::json::Json;
use crate::spec::{find, Better, MetricDef};
use crate::stats::{summarize, Summary};
use std::collections::BTreeMap;
use std::path::Path;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Same,
    WorseThanBound,
    /// Run-to-run spread wider than the bound: neither same nor worse can be said.
    Unresolved,
    /// An exact count that does not repeat.
    Differs,
    /// A per-layer timing: printed, not judged.
    Reported,
}

impl Verdict {
    fn name(self) -> &'static str {
        match self {
            Verdict::Same => "same",
            Verdict::WorseThanBound => "WORSE-THAN-BOUND",
            Verdict::Unresolved => "UNRESOLVED",
            Verdict::Differs => "DIFFERS",
            Verdict::Reported => "reported",
        }
    }

    fn passes(self) -> bool {
        matches!(self, Verdict::Same | Verdict::Reported)
    }
}

/// (part, pass, metric) -> one value per result file. The passes stay apart:
/// both measure the timings a user sees, the traced pass more briefly.
type Samples = BTreeMap<(String, &'static str, String), Vec<f64>>;

fn read_dir(dir: &Path) -> Result<Samples, String> {
    let mut samples = Samples::new();
    let mut files = 0;
    let entries = std::fs::read_dir(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let mut paths: Vec<_> = entries.filter_map(|e| e.ok().map(|e| e.path())).collect();
    paths.sort();
    for path in paths {
        let name = path
            .file_name()
            .and_then(|n| n.to_str())
            .unwrap_or_default();
        if !(name.starts_with("result-") && name.ends_with(".json")) {
            continue;
        }
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        let result = Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
        let workload = result
            .get("workload")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("{}: no workload", path.display()))?;
        let pass = match result.get("trace").and_then(Json::as_f64) {
            Some(0.0) => "end-to-end",
            Some(1.0) => "traced",
            _ => return Err(format!("{}: no trace", path.display())),
        };
        let metrics = result
            .get("metrics")
            .and_then(Json::as_obj)
            .ok_or_else(|| format!("{}: no metrics", path.display()))?;
        for (metric, value) in metrics {
            if let Some(v) = value.get("value").and_then(Json::as_f64) {
                samples
                    .entry((workload.to_string(), pass, metric.clone()))
                    .or_default()
                    .push(v);
            }
        }
        files += 1;
    }
    if files == 0 {
        return Err(format!("{}: no result-*.json files", dir.display()));
    }
    Ok(samples)
}

fn spread(s: &Summary) -> f64 {
    if s.median == 0.0 {
        return 0.0;
    }
    (s.q3 - s.q1) / s.median.abs()
}

/// Judges set B against set A for one metric on one workload.
pub fn judge(def: &MetricDef, a: &[f64], b: &[f64]) -> Verdict {
    if def.exact {
        let first = a[0];
        return if a.iter().chain(b).all(|v| *v == first) {
            Verdict::Same
        } else {
            Verdict::Differs
        };
    }
    let Some(bound) = def.bound else {
        return Verdict::Reported;
    };
    let (sa, sb) = (summarize(a), summarize(b));
    let worse_by = match def.better {
        Better::Lower => (sb.median - sa.median) / sa.median.abs(),
        Better::Higher => (sa.median - sb.median) / sa.median.abs(),
    };
    if spread(&sa).max(spread(&sb)) > bound {
        // Still resolved when every run of B reads better than every run of A.
        let lowest = |v: &[f64]| v.iter().copied().fold(f64::INFINITY, f64::min);
        let highest = |v: &[f64]| v.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        let all_better = match def.better {
            Better::Lower => highest(b) < lowest(a),
            Better::Higher => lowest(b) > highest(a),
        };
        return if all_better {
            Verdict::Same
        } else {
            Verdict::Unresolved
        };
    }
    if worse_by > bound {
        Verdict::WorseThanBound
    } else {
        Verdict::Same
    }
}

/// Prints the comparison; `Ok(true)` when every judged pair reads "same".
pub fn compare(dir_a: &Path, dir_b: &Path) -> Result<bool, String> {
    let (a, b) = (read_dir(dir_a)?, read_dir(dir_b)?);
    let mut all_pass = true;
    println!(
        "A = {}   B = {}   (ratios are B / A; A is the base)",
        dir_a.display(),
        dir_b.display()
    );
    for (key, va) in &a {
        let (workload, pass, metric) = key;
        let Some(vb) = b.get(key) else {
            println!("{workload:<13} {pass:<10} {metric:<30} only in A");
            all_pass = false;
            continue;
        };
        let Some(def) = find(metric) else {
            println!("{workload:<13} {pass:<10} {metric:<30} not a metric of this benchmark");
            all_pass = false;
            continue;
        };
        let (sa, sb) = (summarize(va), summarize(vb));
        let verdict = judge(def, va, vb);
        all_pass &= verdict.passes();
        let bound = def
            .bound
            .map_or(String::new(), |b| format!(" bound {:.0}%", b * 100.0));
        println!(
            "{workload:<13} {pass:<10} {metric:<30} A {:>11.4} [{:.4} .. {:.4}] n={}  B {:>11.4} [{:.4} .. {:.4}] n={}  B/A {:.4} {}{}  {}",
            sa.median, sa.q1, sa.q3, sa.n, sb.median, sb.q1, sb.q3, sb.n,
            sb.median / sa.median, def.unit, bound, verdict.name(),
        );
    }
    for (workload, pass, metric) in b.keys().filter(|k| !a.contains_key(*k)) {
        println!("{workload:<13} {pass:<10} {metric:<30} only in B");
        all_pass = false;
    }
    println!(
        "{}",
        if all_pass {
            "every judged (metric, workload) pair: same"
        } else {
            "NOT all pairs read same"
        }
    );
    Ok(all_pass)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_follow_the_bound_the_spread_and_exactness() {
        let timing = find("setup_s").unwrap(); // lower is better
        let bound = timing.bound.unwrap();
        let steady = [1.00, 1.01, 0.99, 1.00, 1.02];
        let shifted = |by: f64| steady.map(|x| x * (1.0 + by));
        assert_eq!(
            judge(timing, &steady, &shifted(bound - 0.02)),
            Verdict::Same
        );
        assert_eq!(
            judge(timing, &steady, &shifted(bound + 0.02)),
            Verdict::WorseThanBound
        );
        assert_eq!(judge(timing, &steady, &shifted(-0.5)), Verdict::Same);
        // Spread wider than the bound: unresolved, unless B wins every pairing.
        let noisy = [1.0, 1.6, 0.6, 1.4, 0.8];
        assert_eq!(
            judge(timing, &noisy, &[1.0, 1.5, 0.7, 1.3, 0.9]),
            Verdict::Unresolved
        );
        assert_eq!(
            judge(timing, &noisy, &[0.3, 0.5, 0.2, 0.4, 0.25]),
            Verdict::Same
        );

        // Higher is better: a gated throughput, were there one.
        let throughput = MetricDef {
            better: Better::Higher,
            ..*timing
        };
        let base = [1000.0, 1010.0, 990.0];
        let slower = base.map(|x| x * (1.0 - bound - 0.02));
        assert_eq!(judge(&throughput, &base, &slower), Verdict::WorseThanBound);
        assert_eq!(
            judge(&throughput, &base, &base.map(|x| x * 1.5)),
            Verdict::Same
        );

        // An exact count is held to exactness whether or not it has a bound.
        for exact in ["snapshot.bytes", "join_recall_mean"] {
            let exact = find(exact).unwrap();
            assert_eq!(judge(exact, &[10.0, 10.0], &[10.0, 10.0]), Verdict::Same);
            assert_eq!(judge(exact, &[10.0, 10.0], &[10.0, 11.0]), Verdict::Differs);
        }

        let layer = find("join_alsh_s").unwrap();
        assert_eq!(judge(layer, &[1.0], &[9.0]), Verdict::Reported);
    }
}
