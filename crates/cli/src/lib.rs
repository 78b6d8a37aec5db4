//! # ips-cli
//!
//! A small command-line interface over the `ips-join` workspace, for users who want to
//! run inner product similarity joins on their own data without writing Rust:
//!
//! * `ips generate` — synthesise a workload (latent-factor recommender, planted-pair, or
//!   uniform sphere/ball data) and write it to CSV vector files;
//! * `ips info` — print summary statistics of a CSV vector file;
//! * `ips join` — run a signed/unsigned `(cs, s)` join between two CSV files with a
//!   selectable algorithm (brute force, blockwise matrix product, the Section 4.1 ALSH
//!   index, or the Section 4.3 sketch — or `algo=auto` to let the cost-based planner
//!   of `ips_core::planner` choose, with `explain=true` showing its reasoning) and
//!   print the reported pairs;
//! * `ips search` — build an index over a data file and answer top-`k` queries from a
//!   query file;
//! * `ips build` — build an index once and persist it as an `ips-store` snapshot
//!   (strategy picked manually or by the cost-based planner);
//! * `ips serve` — load a snapshot into a long-lived serving process and answer
//!   line-protocol sessions (`query` / `topk` / `insert` / `delete` / `stats` /
//!   `save` / `shutdown`) over stdin/stdout, or — with `listen=host:port` — over
//!   TCP with a bounded worker pool and cross-connection query coalescing;
//! * `ips query` — one-shot query batch against a snapshot.
//!
//! The crate is a thin, testable layer: raw `key=value` splitting lives in [`args`],
//! the declarative command schema (argument types, defaults, generated help, the
//! serve line protocol) in [`schema`], CSV I/O in [`dataset`] (its number formatter in
//! `decimal`), the serve REPL in
//! [`serve`] (with the TCP front-end in [`net`]), and each subcommand is an ordinary
//! function in [`commands`] that binds
//! its arguments against the schema and returns its report as a value (the binary in
//! `main.rs` only prints it). There are no hand-written usage strings anywhere:
//! `ips help` and `ips help <command>` render from the same [`schema::CommandSpec`]
//! structs that parse the commands.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod args;
pub mod commands;
pub mod dataset;
mod decimal;
pub mod error;
pub mod net;
pub mod schema;
pub mod serve;

pub use args::ParsedArgs;
pub use error::{CliError, Result};
