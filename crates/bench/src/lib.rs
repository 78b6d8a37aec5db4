//! # ips-bench
//!
//! The benchmark harness that regenerates every table and figure of the paper plus the
//! supporting experiments listed in `DESIGN.md` / `EXPERIMENTS.md`:
//!
//! | Binary | Artefact |
//! |---|---|
//! | `table1` | Table 1 — hard vs permissible approximation ranges, with the gap of each Lemma 3 embedding verified numerically |
//! | `figure1` | Figure 1 — the Lemma 4 grid partition and mass-accounting bound |
//! | `figure2` | Figure 2 — ρ of DATA-DEP vs SIMP vs MH-ALSH |
//! | `experiment_collision` | E4 — empirical collision probabilities vs theory |
//! | `experiment_join_scaling` | E5 — join runtime scaling (ALSH / sketch vs brute force) |
//! | `experiment_sketch` | E6 — sketch approximation quality vs κ |
//! | `experiment_gap` | E7 — measured P1 − P2 on hard sequences vs the Lemma 4 bound |
//! | `experiment_ovp` | E8 — the OVP → join reduction end-to-end |
//! | `experiment_algebraic` | E9 — the algebraic (matrix-multiplication) joins: Gram-product exact join and the amplified unsigned join over `{−1,1}` |
//! | `experiment_topk` | E10 — top-k recall of the Section 4.1 ALSH index vs table count on the recommender workload |
//! | `calibrate_planner` | fits the adaptive join planner's `CostModel` constants on the adversarial workload suite and checks every pick against measured runtimes |
//! | `serve_throughput` | queries/sec serving a prebuilt `ips-store` snapshot vs rebuilding the index per query (the ≥ 5× acceptance bar of the serving layer) |
//! | `kernel_throughput` | ns/flop of the batched f64 / f32 scoring kernels — the measurement behind the `brute_f32_ns_per_flop` `CostModel` constant |
//! | `telemetry_overhead` | serving wall time with tracing + metrics on vs off (the ≤ 5% overhead bar of the telemetry layer) |
//! | `adaptive_serving` | closed-loop drift → re-plan → migration scenarios of the adaptive serving layer |
//! | `multiprobe_tradeoff` | probes-vs-tables trade of the multi-probe layer: half the tables plus query-directed probing must hold the match set at ≤ 1.5× the classical wall time (≤ 1.1× until PR 13's hashing kernel made both runs ~9× faster) |
//!
//! Every `experiment_*` / `figure*` / `table1` binary (and `serve_throughput`) accepts
//! `--json <path>` and writes its measurements as machine-readable
//! `{name, params, wall_ns, flops, schema_version, timestamp, available_parallelism}` records via
//! [`JsonReporter`], so benchmark trajectories can be recorded without scraping the
//! text tables and remain self-describing across PRs (see [`JSON_SCHEMA_VERSION`]).
//!
//! The Criterion benches under `benches/` measure the same code paths with statistical
//! rigour; the binaries print the rows/series the paper reports so the shapes can be
//! compared side by side.
//!
//! This library crate holds the small amount of shared harness code (text tables, a
//! wall-clock timer, the `--json` reporter) so the binaries stay focused on the
//! experiment logic.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

use std::time::Instant;

/// A simple wall-clock timer for the experiment binaries.
#[derive(Debug)]
pub struct Timer {
    start: Instant,
}

impl Timer {
    /// Starts the timer.
    pub fn start() -> Self {
        Self {
            start: Instant::now(),
        }
    }

    /// Elapsed time in milliseconds.
    pub fn elapsed_ms(&self) -> f64 {
        self.start.elapsed().as_secs_f64() * 1e3
    }

    /// Elapsed time in integer nanoseconds (the unit the `--json` records use).
    pub fn elapsed_ns(&self) -> u128 {
        self.start.elapsed().as_nanos()
    }
}

impl Default for Timer {
    fn default() -> Self {
        Self::start()
    }
}

/// Renders a text table with aligned columns; used by every experiment binary so the
/// output is uniform and diff-able.
pub fn render_table(headers: &[&str], rows: &[Vec<String>]) -> String {
    let columns = headers.len();
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (c, cell) in row.iter().enumerate().take(columns) {
            widths[c] = widths[c].max(cell.len());
        }
    }
    let mut out = String::new();
    let render_row = |cells: &[String], widths: &[usize]| -> String {
        let mut line = String::from("|");
        for (c, w) in widths.iter().enumerate() {
            let empty = String::new();
            let cell = cells.get(c).unwrap_or(&empty);
            line.push(' ');
            line.push_str(cell);
            line.push_str(&" ".repeat(w - cell.len() + 1));
            line.push('|');
        }
        line
    };
    let header_cells: Vec<String> = headers.iter().map(|h| h.to_string()).collect();
    out.push_str(&render_row(&header_cells, &widths));
    out.push('\n');
    out.push('|');
    for w in &widths {
        out.push_str(&"-".repeat(w + 2));
        out.push('|');
    }
    out.push('\n');
    for row in rows {
        out.push_str(&render_row(row, &widths));
        out.push('\n');
    }
    out
}

/// Formats a float with a fixed number of decimals (helper shared by the binaries).
pub fn fmt(value: f64, decimals: usize) -> String {
    format!("{value:.decimals$}")
}

/// The version of the `--json` record layout emitted by [`JsonReporter`].
///
/// Version history: **1** — `{name, params, wall_ns, flops}` (PR 3); **2** —
/// adds `schema_version` and an RFC-3339 `timestamp` to every record, so
/// `BENCH_*.json` trajectories collected across PRs are self-describing; **3** —
/// adds `available_parallelism`, the CPUs the run could use: builds, joins and the
/// CSV codec all scale with it, so a wall time means nothing without it.
pub const JSON_SCHEMA_VERSION: u32 = 3;

/// Formats a Unix timestamp (seconds since the epoch, UTC) as RFC 3339
/// (`1970-01-01T00:00:00Z`). Hand-rolled from the proleptic-Gregorian
/// civil-from-days conversion so the harness needs no date dependency.
pub fn rfc3339_utc(unix_secs: u64) -> String {
    let days = unix_secs / 86_400;
    let rem = unix_secs % 86_400;
    let (hour, minute, second) = (rem / 3600, (rem % 3600) / 60, rem % 60);
    // civil_from_days (Hinnant): day count since 1970-01-01 → (y, m, d).
    let z = days as i64 + 719_468;
    let era = z / 146_097;
    let doe = z - era * 146_097; // [0, 146096]
    let yoe = (doe - doe / 1460 + doe / 36_524 - doe / 146_096) / 365; // [0, 399]
    let y = yoe + era * 400;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100); // [0, 365]
    let mp = (5 * doy + 2) / 153; // [0, 11]
    let d = doy - (153 * mp + 2) / 5 + 1; // [1, 31]
    let m = if mp < 10 { mp + 3 } else { mp - 9 }; // [1, 12]
    let y = if m <= 2 { y + 1 } else { y };
    format!("{y:04}-{m:02}-{d:02}T{hour:02}:{minute:02}:{second:02}Z")
}

/// The current time as an RFC 3339 UTC string (what [`JsonReporter::record`]
/// stamps each record with).
pub fn rfc3339_now() -> String {
    let secs = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0);
    rfc3339_utc(secs)
}

/// One machine-readable measurement of an experiment binary: what was measured
/// (`name` + `params`), how long it took (`wall_ns`), the floating-point
/// operation count when the experiment has a natural closed form (`0` otherwise),
/// and the self-describing metadata every record carries since layout version 2
/// (`schema_version` + RFC-3339 `timestamp`) and, since version 3, the CPUs it ran on.
#[derive(Debug, Clone, PartialEq)]
pub struct JsonRecord {
    /// Which measurement this row belongs to (e.g. `join_scaling`).
    pub name: String,
    /// The measurement's parameters, as `(key, value)` strings.
    pub params: Vec<(String, String)>,
    /// Wall-clock nanoseconds of the measured phase.
    pub wall_ns: u128,
    /// Estimated floating-point operations of the measured phase, `0.0` when no
    /// natural estimate exists.
    pub flops: f64,
    /// The record-layout version ([`JSON_SCHEMA_VERSION`] at write time).
    pub schema_version: u32,
    /// When the record was taken, RFC 3339 UTC (e.g. `2026-07-31T12:00:00Z`).
    pub timestamp: String,
    /// `std::thread::available_parallelism` of the process that took the record.
    pub available_parallelism: usize,
}

/// Collects [`JsonRecord`]s and writes them as a JSON array when the binary was
/// invoked with `--json <path>` — the hook that lets `BENCH_*.json` trajectories be
/// recorded from the same binaries that print the human-readable tables.
///
/// Without `--json` the reporter is inert: records are accepted and dropped, so the
/// binaries call it unconditionally.
#[derive(Debug, Default)]
pub struct JsonReporter {
    path: Option<std::path::PathBuf>,
    records: Vec<JsonRecord>,
}

impl JsonReporter {
    /// A reporter writing to `path` (`None` = inert).
    pub fn new(path: Option<std::path::PathBuf>) -> Self {
        Self {
            path,
            records: Vec::new(),
        }
    }

    /// Builds a reporter from the process arguments: accepts exactly `--json <path>`
    /// (or nothing) and exits with status 2 on anything else, so a typoed flag can't
    /// silently produce a table-only run.
    pub fn from_env_args() -> Self {
        let args: Vec<String> = std::env::args().skip(1).collect();
        let path = match args.as_slice() {
            [] => None,
            [flag, path] if flag == "--json" => Some(std::path::PathBuf::from(path)),
            other => {
                eprintln!(
                    "error: unrecognised arguments {other:?}; the only supported flag is --json <path>"
                );
                std::process::exit(2);
            }
        };
        Self::new(path)
    }

    /// Whether a `--json` path was given (lets binaries skip expensive bookkeeping).
    pub fn enabled(&self) -> bool {
        self.path.is_some()
    }

    /// Appends one measurement, stamped with the current time and
    /// [`JSON_SCHEMA_VERSION`].
    pub fn record(&mut self, name: &str, params: &[(&str, String)], wall_ns: u128, flops: f64) {
        self.record_stamped(name, params, wall_ns, flops, rfc3339_now());
    }

    /// Appends one measurement with an explicit timestamp (the deterministic
    /// variant [`JsonReporter::record`] delegates to; useful in tests).
    pub fn record_stamped(
        &mut self,
        name: &str,
        params: &[(&str, String)],
        wall_ns: u128,
        flops: f64,
        timestamp: String,
    ) {
        self.records.push(JsonRecord {
            name: name.to_string(),
            params: params
                .iter()
                .map(|(k, v)| (k.to_string(), v.clone()))
                .collect(),
            wall_ns,
            flops,
            schema_version: JSON_SCHEMA_VERSION,
            timestamp,
            available_parallelism: ips_linalg::par::available_threads(),
        });
    }

    /// The records collected so far.
    pub fn records(&self) -> &[JsonRecord] {
        &self.records
    }

    /// Renders the collected records as a JSON array.
    pub fn to_json(&self) -> String {
        let mut out = String::from("[\n");
        for (i, r) in self.records.iter().enumerate() {
            out.push_str("  {\"name\": ");
            out.push_str(&json_string(&r.name));
            out.push_str(", \"params\": {");
            for (j, (k, v)) in r.params.iter().enumerate() {
                if j > 0 {
                    out.push_str(", ");
                }
                out.push_str(&json_string(k));
                out.push_str(": ");
                out.push_str(&json_string(v));
            }
            out.push_str(&format!(
                "}}, \"wall_ns\": {}, \"flops\": {}, \"schema_version\": {}, \"timestamp\": {}, \
                 \"available_parallelism\": {}}}",
                r.wall_ns,
                if r.flops == 0.0 {
                    "0".to_string()
                } else {
                    format!("{:e}", r.flops)
                },
                r.schema_version,
                json_string(&r.timestamp),
                r.available_parallelism,
            ));
            out.push_str(if i + 1 < self.records.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        out.push(']');
        out.push('\n');
        out
    }

    /// Writes the JSON file when `--json` was given; a no-op otherwise. Every binary
    /// calls this once, last.
    pub fn finish(&self) -> std::io::Result<()> {
        if let Some(path) = &self.path {
            std::fs::write(path, self.to_json())?;
            eprintln!("wrote {} records to {}", self.records.len(), path.display());
        }
        Ok(())
    }
}

/// Escapes a string as a JSON string literal.
fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timer_measures_nonnegative_time() {
        let t = Timer::start();
        assert!(t.elapsed_ms() >= 0.0);
        let d = Timer::default();
        assert!(d.elapsed_ms() >= 0.0);
    }

    #[test]
    fn table_rendering_aligns_columns() {
        let table = render_table(
            &["name", "value"],
            &[
                vec!["alpha".to_string(), "1".to_string()],
                vec!["b".to_string(), "12345".to_string()],
            ],
        );
        let lines: Vec<&str> = table.lines().collect();
        assert_eq!(lines.len(), 4);
        // All lines have equal width.
        assert!(lines.iter().all(|l| l.len() == lines[0].len()));
        assert!(lines[0].contains("name"));
        assert!(lines[3].contains("12345"));
    }

    #[test]
    fn fmt_controls_decimals() {
        assert_eq!(fmt(std::f64::consts::PI, 2), "3.14");
        assert_eq!(fmt(1.0, 0), "1");
    }

    #[test]
    fn json_reporter_renders_and_writes() {
        let mut inert = JsonReporter::new(None);
        assert!(!inert.enabled());
        inert.record("x", &[], 1, 0.0);
        inert.finish().unwrap(); // no path: no file, no error

        let dir = std::env::temp_dir().join("ips-bench-json-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("out.json");
        let mut reporter = JsonReporter::new(Some(path.clone()));
        assert!(reporter.enabled());
        reporter.record(
            "join_scaling",
            &[("algo", "brute".to_string()), ("n", "500".to_string())],
            123_456,
            1.5e9,
        );
        reporter.record("odd \"name\"\n", &[], 7, 0.0);
        assert_eq!(reporter.records().len(), 2);
        reporter.finish().unwrap();
        let written = std::fs::read_to_string(&path).unwrap();
        assert!(written.starts_with("[\n"));
        assert!(written.contains("\"name\": \"join_scaling\""));
        assert!(written.contains("\"params\": {\"algo\": \"brute\", \"n\": \"500\"}"));
        assert!(written.contains("\"wall_ns\": 123456"));
        assert!(written.contains("\"flops\": 1.5e9"));
        assert!(written.contains("odd \\\"name\\\"\\n"));
        // Every record is self-describing: layout version + RFC-3339 timestamp.
        assert_eq!(
            written.matches("\"schema_version\": 3").count(),
            2,
            "{written}"
        );
        let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
        assert_eq!(
            written
                .matches(&format!("\"available_parallelism\": {cpus}}}"))
                .count(),
            2,
            "{written}"
        );
        assert!(written.contains("\"timestamp\": \""), "{written}");
        for r in reporter.records() {
            assert_eq!(r.schema_version, JSON_SCHEMA_VERSION);
            assert!(
                r.timestamp.len() == 20 && r.timestamp.ends_with('Z'),
                "not RFC 3339: {}",
                r.timestamp
            );
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn rfc3339_conversion_handles_known_dates() {
        assert_eq!(rfc3339_utc(0), "1970-01-01T00:00:00Z");
        assert_eq!(rfc3339_utc(86_399), "1970-01-01T23:59:59Z");
        // 2000-02-29 (leap day) and the following midnight.
        assert_eq!(rfc3339_utc(951_782_400), "2000-02-29T00:00:00Z");
        assert_eq!(rfc3339_utc(951_868_800), "2000-03-01T00:00:00Z");
        // 2026-07-31T12:34:56Z (this PR's era), cross-checked externally.
        assert_eq!(rfc3339_utc(1_785_501_296), "2026-07-31T12:34:56Z");
        // A century (non-leap) boundary: 2100-03-01 directly follows 2100-02-28.
        assert_eq!(rfc3339_utc(4_107_456_000), "2100-02-28T00:00:00Z");
        assert_eq!(rfc3339_utc(4_107_542_400), "2100-03-01T00:00:00Z");
        // An explicit stamp round-trips into the record.
        let mut r = JsonReporter::new(None);
        r.record_stamped("x", &[], 1, 0.0, rfc3339_utc(0));
        assert_eq!(r.records()[0].timestamp, "1970-01-01T00:00:00Z");
    }

    #[test]
    fn timer_reports_nanoseconds() {
        let t = Timer::start();
        let _ = t.elapsed_ns();
    }
}
