//! What a result was measured on and with, so `parallel_speedup` and numbers
//! from another machine can be read for what they are.

use crate::json::Json;
use crate::serve::ServeDefaults;
use ips_core::asymmetric::AlshParams;
use ips_core::symmetric::SymmetricParams;
use ips_core::EngineConfig;
use std::process::Command;

/// First line of a command's standard output, or "unknown": a checkout that
/// is not a git repository still produces a result.
fn first_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".to_string())
}

/// The `[profile.release]` table of this package's manifest, as built.
fn release_profile() -> String {
    let settings: Vec<&str> = include_str!("../Cargo.toml")
        .lines()
        .map(str::trim)
        .skip_while(|l| *l != "[profile.release]")
        .skip(1)
        .take_while(|l| !l.starts_with('['))
        .filter(|l| l.contains('=') && !l.starts_with('#'))
        .collect();
    settings.join(", ")
}

pub fn stamp(seed: u64, serve: Option<ServeDefaults>) -> Json {
    let processors = std::fs::read_to_string("/proc/cpuinfo")
        .map(|s| s.lines().filter(|l| l.starts_with("processor")).count())
        .unwrap_or(0);
    let engine = EngineConfig::default();
    let mut pairs = vec![
        (
            "available_parallelism",
            Json::Num(std::thread::available_parallelism().map_or(0, usize::from) as f64),
        ),
        ("nproc", Json::Num(processors as f64)),
        ("seed", Json::Num(seed as f64)),
        (
            "git_head",
            Json::str(first_line("git", &["rev-parse", "HEAD"])),
        ),
        ("rustc", Json::str(first_line("rustc", &["-V"]))),
        ("profile_release", Json::str(release_profile())),
        (
            "engine_threads",
            Json::str(if engine.threads == 0 {
                "one per CPU".to_string()
            } else {
                engine.threads.to_string()
            }),
        ),
        ("engine_chunk", Json::Num(engine.chunk_size as f64)),
        (
            "alsh_params",
            Json::str(format!("{:?}", AlshParams::default())),
        ),
        (
            "symmetric_params",
            Json::str(format!("{:?}", SymmetricParams::default())),
        ),
    ];
    if let Some(defaults) = serve {
        pairs.push(("serve_workers", Json::Num(defaults.workers as f64)));
        pairs.push((
            "coalesce_window_us",
            Json::Num(defaults.coalesce.window_micros as f64),
        ));
        pairs.push((
            "coalesce_max",
            Json::Num(defaults.coalesce.max_batch as f64),
        ));
    }
    Json::obj(pairs)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_stamp_names_the_profile_copied_from_the_root_manifest() {
        assert_eq!(release_profile(), "opt-level = 3, lto = \"thin\"");
        let root =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../Cargo.toml")).unwrap();
        let root_profile = root.split("[profile.release]").nth(1).unwrap();
        for setting in ["opt-level = 3", "lto = \"thin\""] {
            assert!(
                root_profile.contains(setting),
                "the root manifest no longer sets `{setting}`"
            );
        }
    }

    #[test]
    fn a_missing_program_reads_unknown() {
        assert_eq!(first_line("ips-benchmark-no-such-program", &[]), "unknown");
    }
}
