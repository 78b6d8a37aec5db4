//! The declarative command schema: one typed registry that drives parsing,
//! validation, `ips help`, and the `ips serve` line protocol.
//!
//! Every subcommand is described once, as data — a [`CommandSpec`] listing its
//! [`ArgSpec`]s (key, [`ArgKind`], required/default, one doc line). Everything
//! else is derived from that single description:
//!
//! * **parsing & validation** — [`CommandSpec::bind`] checks a [`ParsedArgs`]
//!   against the schema (unknown keys, missing required keys, per-kind value
//!   validation with constraint-accurate error wording: a [`ArgKind::Usize`]
//!   rejects `-1` as "not a non-negative integer" while a
//!   [`ArgKind::PositiveUsize`] rejects `0` as "not a positive integer");
//! * **typed access** — the returned [`CommandArgs`] hands each command its
//!   values already parsed, with static defaults applied from the spec;
//! * **help** — [`usage_overview`] (`ips help`) and [`CommandSpec::usage`]
//!   (`ips help <cmd>`) are rendered from the same structs, so the help can
//!   never drift from what actually parses;
//! * **the serve protocol** — [`SERVE_PROTOCOL`] describes the REPL commands
//!   of `ips serve` the same way, and both the REPL's `help` reply and the
//!   `ips help serve` section render from it.
//!
//! There are deliberately **no hand-written usage strings** anywhere in
//! `ips-cli`; adding an argument means adding one [`ArgSpec`] line here.

use crate::args::ParsedArgs;
use crate::error::{CliError, Result};

/// The value domain of one `key=value` argument, with its validation rule and
/// the exact constraint wording used in errors and help.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArgKind {
    /// Any non-empty string.
    Str,
    /// A filesystem path (validated as a non-empty string).
    Path,
    /// A floating-point number.
    F64,
    /// A non-negative integer (`0` allowed).
    Usize,
    /// A strictly positive integer (`0` rejected — the constraint the error
    /// message states).
    PositiveUsize,
    /// A non-negative 64-bit integer (seeds).
    U64,
    /// `true`/`false`/`1`/`0`.
    Bool,
    /// A strictly positive integer or the literal `auto` (one worker per CPU).
    Threads,
    /// One of a fixed set of names.
    Choice(&'static [&'static str]),
}

impl ArgKind {
    /// The `<...>` placeholder rendered in usage lines.
    pub fn placeholder(self) -> String {
        match self {
            ArgKind::Str => "<str>".to_string(),
            ArgKind::Path => "<path>".to_string(),
            ArgKind::F64 => "<float>".to_string(),
            ArgKind::Usize => "<int≥0>".to_string(),
            ArgKind::PositiveUsize => "<int≥1>".to_string(),
            ArgKind::U64 => "<int≥0>".to_string(),
            ArgKind::Bool => "<true|false>".to_string(),
            ArgKind::Threads => "<auto|int≥1>".to_string(),
            ArgKind::Choice(names) => format!("<{}>", names.join("|")),
        }
    }

    /// Validates one value, producing an error that states the *actual*
    /// constraint (positive vs non-negative, the allowed choice names, …).
    pub fn validate(self, key: &str, value: &str) -> Result<()> {
        let fail = |constraint: &str| {
            Err(CliError::Usage {
                reason: format!("argument `{key}` must be {constraint}, got `{value}`"),
            })
        };
        if value.is_empty() {
            return Err(CliError::Usage {
                reason: format!("argument `{key}` has an empty value"),
            });
        }
        match self {
            ArgKind::Str | ArgKind::Path => Ok(()),
            ArgKind::F64 => match value.parse::<f64>() {
                Ok(_) => Ok(()),
                Err(_) => fail("a number"),
            },
            ArgKind::Usize => match value.parse::<usize>() {
                Ok(_) => Ok(()),
                Err(_) => fail("a non-negative integer"),
            },
            ArgKind::U64 => match value.parse::<u64>() {
                Ok(_) => Ok(()),
                Err(_) => fail("a non-negative integer"),
            },
            ArgKind::PositiveUsize => match value.parse::<usize>() {
                Ok(v) if v >= 1 => Ok(()),
                _ => fail("a positive integer (at least 1)"),
            },
            ArgKind::Bool => match value {
                "true" | "false" | "1" | "0" | "on" | "off" => Ok(()),
                _ => fail("true/false/1/0/on/off"),
            },
            ArgKind::Threads => match value {
                "auto" => Ok(()),
                v => match v.parse::<usize>() {
                    Ok(n) if n >= 1 => Ok(()),
                    _ => fail("a positive integer (at least 1) or `auto`"),
                },
            },
            ArgKind::Choice(names) => {
                if names.contains(&value) {
                    Ok(())
                } else {
                    fail(&format!("one of {}", names.join(", ")))
                }
            }
        }
    }
}

/// One `key=value` argument of a subcommand: everything the parser, the
/// validator and the help renderer need, in one row.
#[derive(Debug, Clone, Copy)]
pub struct ArgSpec {
    /// The key on the command line (`data=...`).
    pub key: &'static str,
    /// The value domain and its validation rule.
    pub kind: ArgKind,
    /// Whether the command fails without it.
    pub required: bool,
    /// The literal default applied when absent (`None` = no static default —
    /// either truly optional or a computed default described in `doc`).
    pub default: Option<&'static str>,
    /// One help line.
    pub doc: &'static str,
}

impl ArgSpec {
    const fn required(key: &'static str, kind: ArgKind, doc: &'static str) -> Self {
        Self {
            key,
            kind,
            required: true,
            default: None,
            doc,
        }
    }

    const fn optional(key: &'static str, kind: ArgKind, doc: &'static str) -> Self {
        Self {
            key,
            kind,
            required: false,
            default: None,
            doc,
        }
    }

    const fn defaulted(
        key: &'static str,
        kind: ArgKind,
        default: &'static str,
        doc: &'static str,
    ) -> Self {
        Self {
            key,
            kind,
            required: false,
            default: Some(default),
            doc,
        }
    }
}

/// One subcommand: its name, a summary line, its argument table and any extra
/// help paragraphs (each rendered verbatim on its own line).
#[derive(Debug, Clone, Copy)]
pub struct CommandSpec {
    /// The subcommand name (`ips <name> ...`).
    pub name: &'static str,
    /// One-line summary shown in the overview and at the top of the usage.
    pub summary: &'static str,
    /// Every accepted `key=value` argument.
    pub args: &'static [ArgSpec],
    /// Extra help lines (cross-argument rules, protocol notes).
    pub notes: &'static [&'static str],
}

/// [`ips_sketch::DEFAULT_LEAF_SIZE`] as the decimal literal a schema default is.
const LEAF_DEFAULT: &str = {
    const DIGITS: [u8; 2] = {
        let n = ips_sketch::DEFAULT_LEAF_SIZE;
        assert!(
            n >= 10 && n < 100,
            "widen DIGITS to the default's digit count"
        );
        [b'0' + (n / 10) as u8, b'0' + (n % 10) as u8]
    };
    match std::str::from_utf8(&DIGITS) {
        Ok(literal) => literal,
        Err(_) => panic!("two ASCII digits are UTF-8"),
    }
};

const ALGO_STRATEGY: &[&str] = &["auto", "brute", "alsh", "symmetric", "sketch"];
const ALGO_SEARCH: &[&str] = &["brute", "alsh"];

const THREADS: ArgSpec = ArgSpec::defaulted(
    "threads",
    ArgKind::Threads,
    "auto",
    "engine worker threads (`auto` = one per CPU)",
);
const CHUNK: ArgSpec = ArgSpec::defaulted(
    "chunk",
    ArgKind::PositiveUsize,
    "32",
    "queries per batched engine work unit",
);
const SEED: ArgSpec = ArgSpec::defaulted("seed", ArgKind::U64, "42", "RNG seed (reproducibility)");
const SPEC_S: ArgSpec =
    ArgSpec::required("s", ArgKind::F64, "promise threshold s > 0 of Definition 1");
const SPEC_C: ArgSpec = ArgSpec::defaulted(
    "c",
    ArgKind::F64,
    "1.0",
    "approximation factor c in (0, 1]; reported pairs clear cs",
);
const VARIANT: ArgSpec = ArgSpec::defaulted(
    "variant",
    ArgKind::Choice(&["signed", "unsigned"]),
    "signed",
    "inner-product semantics",
);
const BITS: ArgSpec = ArgSpec::defaulted(
    "bits",
    ArgKind::Usize,
    "12",
    "ALSH hyperplane bits per table",
);
const TABLES: ArgSpec = ArgSpec::defaulted("tables", ArgKind::Usize, "32", "ALSH hash tables");
const PROBES: ArgSpec = ArgSpec::defaulted(
    "probes",
    ArgKind::Usize,
    "0",
    "extra query-directed probe buckets visited per LSH table (0 = classical \
     single-bucket lookups; probing trades lookups for fewer tables)",
);
const PROBES_OPEN: ArgSpec = ArgSpec::optional(
    "probes",
    ArgKind::Usize,
    "override the snapshot's probe count: extra query-directed buckets visited \
     per LSH table (default: keep the value stored at build time; the override \
     sticks across rebuilds and migrations)",
);
const LIMIT: ArgSpec = ArgSpec::defaulted(
    "limit",
    ArgKind::Usize,
    "20",
    "pairs printed before truncating the listing",
);
const SHARDS_BUILD: ArgSpec = ArgSpec::defaulted(
    "shards",
    ArgKind::PositiveUsize,
    "1",
    "index shards (hash-of-id partitions; 1 writes the classic single-shard snapshot)",
);
const DTYPE: ArgSpec = ArgSpec::defaulted(
    "dtype",
    ArgKind::Choice(&["f64", "f32"]),
    "f64",
    "brute-scan float width (f32 scans in single precision, rescoring winners exactly; \
     no effect under alsh|symmetric|sketch, which score their candidates in f64)",
);
const SHARDS_OPEN: ArgSpec = ArgSpec::optional(
    "shards",
    ArgKind::PositiveUsize,
    "re-partition the snapshot across this many shards (default: keep the stored \
     layout; re-partitioning rebuilds the structures re-seeded from seed=, so pass \
     the original build seed to preserve answers exactly)",
);

/// `ips generate`.
pub const GENERATE: CommandSpec = CommandSpec {
    name: "generate",
    summary: "synthesise a workload and write CSV vector files",
    args: &[
        ArgSpec::defaulted(
            "kind",
            ArgKind::Choice(&["latent", "planted", "sphere"]),
            "latent",
            "workload generator",
        ),
        ArgSpec::required("n", ArgKind::Usize, "number of data vectors"),
        ArgSpec::optional(
            "queries",
            ArgKind::Usize,
            "number of query vectors (default: n/10 + 1)",
        ),
        ArgSpec::defaulted("dim", ArgKind::Usize, "32", "vector dimensionality"),
        SEED,
        ArgSpec::required("data", ArgKind::Path, "output CSV for the data vectors"),
        ArgSpec::optional(
            "query-file",
            ArgKind::Path,
            "output CSV for the query vectors",
        ),
        ArgSpec::defaulted(
            "planted-ip",
            ArgKind::F64,
            "0.8",
            "inner product of planted pairs (kind=planted)",
        ),
        ArgSpec::optional(
            "planted",
            ArgKind::Usize,
            "number of planted pairs (kind=planted; default: min(queries, n)/2)",
        ),
    ],
    notes: &[],
};

/// `ips info`.
pub const INFO: CommandSpec = CommandSpec {
    name: "info",
    summary: "print summary statistics of a CSV vector file",
    args: &[ArgSpec::required(
        "data",
        ArgKind::Path,
        "CSV vector file to summarise",
    )],
    notes: &[],
};

/// `ips join`.
pub const JOIN: CommandSpec = CommandSpec {
    name: "join",
    summary: "run a (cs, s) join between two CSV files",
    args: &[
        ArgSpec::required("data", ArgKind::Path, "CSV data vectors (the set P)"),
        ArgSpec::required("queries", ArgKind::Path, "CSV query vectors (the set Q)"),
        SPEC_S,
        SPEC_C,
        VARIANT,
        ArgSpec::defaulted(
            "algorithm",
            ArgKind::Choice(ALGO_STRATEGY),
            "brute",
            "join strategy (`auto` = cost-based planner)",
        ),
        ArgSpec::optional(
            "algo",
            ArgKind::Choice(ALGO_STRATEGY),
            "shorthand for algorithm= (giving both is an error)",
        ),
        ArgSpec::defaulted(
            "explain",
            ArgKind::Bool,
            "false",
            "print the planner's decision (requires algo=auto)",
        ),
        SEED,
        LIMIT,
        BITS,
        TABLES,
        PROBES,
        THREADS,
        CHUNK,
        DTYPE,
    ],
    notes: &[
        "algo=auto lets the cost-based planner pick the strategy; explain=true prints the chosen plan with every strategy's estimated cost.",
        "dtype=f32 may resolve near-ties differently but every reported pair still clears cs.",
    ],
};

/// `ips search`.
pub const SEARCH: CommandSpec = CommandSpec {
    name: "search",
    summary: "build an index over a data file and answer top-k queries",
    args: &[
        ArgSpec::required("data", ArgKind::Path, "CSV data vectors to index"),
        ArgSpec::required("queries", ArgKind::Path, "CSV query vectors"),
        SPEC_S,
        SPEC_C,
        VARIANT,
        ArgSpec::defaulted("k", ArgKind::Usize, "1", "partners returned per query"),
        ArgSpec::defaulted(
            "algorithm",
            ArgKind::Choice(ALGO_SEARCH),
            "brute",
            "index answering the queries",
        ),
        SEED,
        BITS,
        TABLES,
        PROBES,
    ],
    notes: &[],
};

/// `ips build`.
pub const BUILD: CommandSpec = CommandSpec {
    name: "build",
    summary: "build an index over a CSV data file and persist it as a snapshot",
    args: &[
        ArgSpec::required("data", ArgKind::Path, "CSV data vectors to index"),
        ArgSpec::required("snapshot", ArgKind::Path, "output snapshot file"),
        ArgSpec::optional(
            "queries",
            ArgKind::Path,
            "representative query workload (required by algorithm=auto)",
        ),
        SPEC_S,
        SPEC_C,
        VARIANT,
        ArgSpec::defaulted(
            "algorithm",
            ArgKind::Choice(ALGO_STRATEGY),
            "alsh",
            "index family (`auto` = cost-based planner)",
        ),
        ArgSpec::optional(
            "algo",
            ArgKind::Choice(ALGO_STRATEGY),
            "shorthand for algorithm= (giving both is an error)",
        ),
        SEED,
        BITS,
        TABLES,
        PROBES,
        ArgSpec::defaulted("kappa", ArgKind::F64, "2.0", "sketch norm exponent κ ≥ 2"),
        ArgSpec::defaulted(
            "copies",
            ArgKind::PositiveUsize,
            "9",
            "independent sketch copies (median taken across them)",
        ),
        ArgSpec::defaulted(
            "leaf",
            ArgKind::PositiveUsize,
            LEAF_DEFAULT,
            "sketch recovery tree: never split a range of at most this many vectors \
             (the tree also stops where a sketch would cost more than the scan)",
        ),
        SHARDS_BUILD,
    ],
    notes: &[
        "algorithm=auto consults the cost-based planner and needs queries=<path>.",
        "shards=N partitions the index by a hash of the vector id; every shard shares the \
         build seed, so brute/alsh/symmetric answers are bit-identical whatever N is.",
    ],
};

/// `ips serve`.
pub const SERVE: CommandSpec = CommandSpec {
    name: "serve",
    summary: "load a snapshot and answer line-protocol sessions on stdin/stdout or TCP",
    args: &[
        ArgSpec::required("snapshot", ArgKind::Path, "snapshot file to serve"),
        THREADS,
        CHUNK,
        ArgSpec::defaulted(
            "rebuild-threshold",
            ArgKind::F64,
            "0.25",
            "compaction trigger: rebuild when (tombstoned+overlaid)/live exceeds this",
        ),
        SEED,
        SHARDS_OPEN,
        PROBES_OPEN,
        ArgSpec::optional(
            "listen",
            ArgKind::Str,
            "TCP address to listen on (e.g. 127.0.0.1:7878; default: a stdin/stdout session)",
        ),
        ArgSpec::defaulted(
            "workers",
            ArgKind::PositiveUsize,
            "4",
            "maximum concurrent TCP connections (listen= only)",
        ),
        ArgSpec::defaulted(
            "timeout",
            ArgKind::Usize,
            "30",
            "per-connection read timeout in seconds (0 = never; listen= only)",
        ),
        ArgSpec::defaulted(
            "coalesce-window",
            ArgKind::Usize,
            "200",
            "microseconds concurrent query/topk requests wait to merge into one \
             engine pass (0 disables coalescing; listen= only)",
        ),
        ArgSpec::defaulted(
            "coalesce-max",
            ArgKind::PositiveUsize,
            "32",
            "maximum query vectors merged into one coalesced engine pass",
        ),
        ArgSpec::defaulted(
            "adaptive",
            ArgKind::Bool,
            "false",
            "run the closed-loop adaptive controller: watch the served workload for \
             drift, re-plan on fresh statistics, and migrate the index strategy in \
             place (see the `plan` protocol command)",
        ),
        ArgSpec::defaulted(
            "drift-check-secs",
            ArgKind::PositiveUsize,
            "5",
            "seconds between the adaptive controller's drift checks (adaptive=true only)",
        ),
    ],
    notes: &[
        "The (cs, s) join thresholds live in the snapshot, set at build time.",
        "The session then speaks the line protocol below.",
        "listen= serves the same protocol over TCP: every connection gets its own \
         session, concurrent query/topk requests coalesce into batched engine passes, \
         and the `shutdown` command stops the whole server.",
    ],
};

/// `ips query`.
pub const QUERY: CommandSpec = CommandSpec {
    name: "query",
    summary: "one-shot query batch against a snapshot file",
    args: &[
        ArgSpec::required("snapshot", ArgKind::Path, "snapshot file to query"),
        ArgSpec::required("queries", ArgKind::Path, "CSV query vectors"),
        ArgSpec::defaulted(
            "k",
            ArgKind::Usize,
            "0",
            "partners per query (0 = above-threshold search, at most one)",
        ),
        THREADS,
        CHUNK,
        LIMIT,
        SEED,
        SHARDS_OPEN,
    ],
    notes: &["seed= only matters together with shards= (it seeds the re-partition rebuild)."],
};

/// `ips help`.
pub const HELP: CommandSpec = CommandSpec {
    name: "help",
    summary: "print the command overview, or `ips help <command>` for one command",
    args: &[],
    notes: &[],
};

/// Every subcommand, in the order the overview lists them.
pub const COMMANDS: &[&CommandSpec] = &[
    &GENERATE, &INFO, &JOIN, &SEARCH, &BUILD, &SERVE, &QUERY, &HELP,
];

/// Looks a subcommand up by name.
pub fn command(name: &str) -> Option<&'static CommandSpec> {
    COMMANDS.iter().copied().find(|c| c.name == name)
}

/// One command of the `ips serve` line protocol (the REPL a served snapshot
/// speaks on stdin/stdout). Declarative for the same reason the argument
/// schema is: the REPL's `help` reply, the `ips help serve` protocol section
/// and the dispatcher's unknown-command error all derive from this table.
#[derive(Debug, Clone, Copy)]
pub struct ProtocolCommand {
    /// The first word of the protocol line.
    pub name: &'static str,
    /// The full line shape, e.g. `query <v>[;<v>...]`.
    pub usage: &'static str,
    /// What the command replies.
    pub reply: &'static str,
}

/// The `ips serve` line protocol.
pub const SERVE_PROTOCOL: &[ProtocolCommand] = &[
    ProtocolCommand {
        name: "query",
        usage: "query <v>[;<v>...]",
        reply: "(cs, s) search; replies `hit <id> <ip>` or `miss` per vector",
    },
    ProtocolCommand {
        name: "topk",
        usage: "topk <k> <v>[;<v>...]",
        reply: "top-k search; replies `hits <id>:<ip>,...` or `none` per vector",
    },
    ProtocolCommand {
        name: "insert",
        usage: "insert <v>",
        reply: "add a vector; replies `inserted <id>`",
    },
    ProtocolCommand {
        name: "delete",
        usage: "delete <id>",
        reply: "remove a vector; replies `deleted <id>`",
    },
    ProtocolCommand {
        name: "stats",
        usage: "stats",
        reply:
            "per-index counters, windowed query-latency percentiles, and the adaptive drift state",
    },
    ProtocolCommand {
        name: "plan",
        usage: "plan",
        reply: "the serving strategy, its drift score, and the migration count",
    },
    ProtocolCommand {
        name: "metrics",
        usage: "metrics",
        reply: "Prometheus text exposition, terminated by a `# EOF` line",
    },
    ProtocolCommand {
        name: "trace",
        usage: "trace on|off",
        reply: "per-stage tracing: each query/topk emits a `trace ...` breakdown line",
    },
    ProtocolCommand {
        name: "save",
        usage: "save <path>",
        reply: "compact and write a snapshot",
    },
    ProtocolCommand {
        name: "help",
        usage: "help",
        reply: "this command summary",
    },
    ProtocolCommand {
        name: "shutdown",
        usage: "shutdown",
        reply: "end the session and, when served over TCP, stop the whole server",
    },
    ProtocolCommand {
        name: "quit",
        usage: "quit | exit",
        reply: "end the session (EOF works too)",
    },
];

/// The REPL `help` reply (and the protocol section of `ips help serve`),
/// rendered from [`SERVE_PROTOCOL`].
pub fn protocol_help() -> String {
    let width = SERVE_PROTOCOL
        .iter()
        .map(|c| c.usage.len())
        .max()
        .unwrap_or(0);
    let mut out = String::from("commands:");
    for c in SERVE_PROTOCOL {
        out.push_str(&format!("\n  {:<width$}  {}", c.usage, c.reply));
    }
    out.push_str(
        "\n\nvectors are comma-separated coordinates; `;` separates the vectors of one batch",
    );
    out
}

impl CommandSpec {
    /// Validates raw `key=value` arguments against this schema and returns the
    /// typed accessor. This is the **only** argument path into a subcommand:
    /// the same table that renders the help does the checking.
    pub fn bind<'a>(&'static self, args: &'a ParsedArgs) -> Result<CommandArgs<'a>> {
        let allowed: Vec<&str> = self.args.iter().map(|a| a.key).collect();
        args.ensure_only(&allowed)?;
        for arg in self.args {
            match args.get(arg.key) {
                Some(value) => arg.kind.validate(arg.key, value)?,
                None if arg.required => {
                    return Err(CliError::Usage {
                        reason: format!(
                            "missing required argument `{}=` (run `ips help {}`)",
                            arg.key, self.name
                        ),
                    })
                }
                None => {}
            }
        }
        Ok(CommandArgs { spec: self, args })
    }

    /// Parses raw argument strings and binds them in one step.
    pub fn parse<S: AsRef<str>>(&'static self, raw: &[S]) -> Result<OwnedCommandArgs> {
        let args = ParsedArgs::parse(raw)?;
        // Validate eagerly; the owned wrapper re-binds on access.
        self.bind(&args)?;
        Ok(OwnedCommandArgs { spec: self, args })
    }

    /// The one-line `ips help` overview row body (name + summary).
    pub fn overview_line(&self) -> String {
        format!("  {:<9} {}", self.name, self.summary)
    }

    /// The full `ips help <cmd>` text: usage line, summary, one row per
    /// argument (key, type, required/default, doc), notes, and for `serve`
    /// the line protocol — all generated from this spec.
    pub fn usage(&self) -> String {
        let mut out = format!("usage: ips {}", self.name);
        if self.name == "help" {
            out.push_str(" [<command>]");
        } else if !self.args.is_empty() {
            out.push_str(" key=value ...");
        }
        out.push_str(&format!("\n\n{}\n", self.summary));
        if !self.args.is_empty() {
            out.push_str("\narguments:\n");
            let rows: Vec<(String, &ArgSpec)> = self
                .args
                .iter()
                .map(|a| (format!("{}={}", a.key, a.kind.placeholder()), a))
                .collect();
            let width = rows.iter().map(|(l, _)| l.len()).max().unwrap_or(0);
            for (label, arg) in rows {
                let status = if arg.required {
                    "required".to_string()
                } else {
                    match arg.default {
                        Some(d) => format!("default {d}"),
                        None => "optional".to_string(),
                    }
                };
                out.push_str(&format!(
                    "  {label:<width$}  [{status}] {doc}\n",
                    doc = arg.doc
                ));
            }
        }
        for note in self.notes {
            out.push_str(&format!("\n{note}\n"));
        }
        if self.name == "serve" {
            out.push('\n');
            out.push_str(&protocol_help());
            out.push('\n');
        }
        out
    }
}

/// The `ips help` overview: every command's summary row plus the global
/// conventions, rendered from [`COMMANDS`].
pub fn usage_overview() -> String {
    let mut out = String::from(
        "ips — inner product similarity join toolbox (PODS 2016 reproduction)\n\n\
         USAGE:\n    ips <command> [key=value ...]\n\nCOMMANDS:\n",
    );
    for c in COMMANDS {
        out.push_str(&c.overview_line());
        out.push('\n');
    }
    out.push_str(
        "\nVector files are plain CSV: one vector per line, coordinates separated by commas.\n\
         Run `ips help <command>` for a command's full argument list.\n",
    );
    out
}

/// Typed access to arguments already validated against a [`CommandSpec`].
///
/// Getters consult the spec for the argument's kind and static default, so a
/// command cannot read a key it never declared (that is a programmer error and
/// panics — caught by the unit tests, impossible to reach from the command
/// line).
#[derive(Debug, Clone, Copy)]
pub struct CommandArgs<'a> {
    spec: &'static CommandSpec,
    args: &'a ParsedArgs,
}

/// An owning variant of [`CommandArgs`] for callers (tests, `main`) that parse
/// raw strings in one step via [`CommandSpec::parse`].
#[derive(Debug, Clone)]
pub struct OwnedCommandArgs {
    spec: &'static CommandSpec,
    args: ParsedArgs,
}

impl OwnedCommandArgs {
    /// The borrowed accessor over the owned values.
    pub fn borrow(&self) -> CommandArgs<'_> {
        CommandArgs {
            spec: self.spec,
            args: &self.args,
        }
    }
}

impl<'a> CommandArgs<'a> {
    /// The schema this binding was validated against.
    pub fn spec(&self) -> &'static CommandSpec {
        self.spec
    }

    fn arg_spec(&self, key: &str) -> &'static ArgSpec {
        self.spec
            .args
            .iter()
            .find(|a| a.key == key)
            .unwrap_or_else(|| {
                panic!(
                    "command `{}` read undeclared argument `{key}` — add it to the schema",
                    self.spec.name
                )
            })
    }

    /// The effective raw value: the given one, or the spec's static default.
    fn effective(&self, key: &str) -> Option<&str> {
        let spec = self.arg_spec(key);
        self.args.get(key).or(spec.default)
    }

    fn value(&self, key: &str) -> &str {
        self.effective(key).unwrap_or_else(|| {
            panic!(
                "command `{}` argument `{key}` has no value and no default — \
                 mark it required or give it a default in the schema",
                self.spec.name
            )
        })
    }

    /// Whether the key was explicitly given on the command line.
    pub fn given(&self, key: &str) -> bool {
        self.arg_spec(key);
        self.args.get(key).is_some()
    }

    /// A string value (required or defaulted in the schema).
    pub fn str(&self, key: &str) -> &str {
        self.value(key)
    }

    /// An optional string value (given value, else static default, else None).
    pub fn opt_str(&self, key: &str) -> Option<&str> {
        self.effective(key)
    }

    /// A float value (validated at bind time).
    pub fn f64(&self, key: &str) -> f64 {
        self.value(key).parse().expect("validated at bind time")
    }

    /// An integer value (validated at bind time).
    pub fn usize(&self, key: &str) -> usize {
        self.value(key).parse().expect("validated at bind time")
    }

    /// An integer value with a *computed* default for keys whose default the
    /// schema can only describe in prose (e.g. `queries` = n/10 + 1).
    pub fn usize_or(&self, key: &str, default: usize) -> usize {
        match self.effective(key) {
            Some(v) => v.parse().expect("validated at bind time"),
            None => default,
        }
    }

    /// A 64-bit value (validated at bind time).
    pub fn u64(&self, key: &str) -> u64 {
        self.value(key).parse().expect("validated at bind time")
    }

    /// A boolean value (validated at bind time).
    pub fn bool(&self, key: &str) -> bool {
        matches!(self.value(key), "true" | "1" | "on")
    }

    /// A [`ArgKind::Threads`] value resolved to the engine convention
    /// (`auto` → 0 = one worker per CPU).
    pub fn threads(&self, key: &str) -> usize {
        match self.value(key) {
            "auto" => 0,
            v => v.parse().expect("validated at bind time"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bindable(spec: &'static CommandSpec, raw: &[&str]) -> Result<OwnedCommandArgs> {
        spec.parse(raw)
    }

    #[test]
    fn every_command_is_registered_once_and_helps() {
        let mut names: Vec<&str> = COMMANDS.iter().map(|c| c.name).collect();
        names.sort_unstable();
        let mut deduped = names.clone();
        deduped.dedup();
        assert_eq!(names, deduped, "duplicate command registration");
        for c in COMMANDS {
            assert!(command(c.name).is_some());
            let usage = c.usage();
            assert!(
                usage.starts_with(&format!("usage: ips {}", c.name)),
                "{usage}"
            );
            // Every declared key gets its own help row carrying the type, the
            // doc line AND the right status. The status check is per-row on
            // purpose: a whole-text `contains("default 0")` would pass as long
            // as *any* argument rendered that default, silently letting a new
            // argument's default go missing from its own row.
            for arg in c.args {
                let label = format!("{}={}", arg.key, arg.kind.placeholder());
                let row = usage
                    .lines()
                    .find(|l| l.trim_start().starts_with(&label))
                    .unwrap_or_else(|| {
                        panic!(
                            "`{}` has no row in `ips help {}`:\n{usage}",
                            arg.key, c.name
                        )
                    });
                let status = if arg.required {
                    "[required]".to_string()
                } else {
                    match arg.default {
                        Some(d) => format!("[default {d}]"),
                        None => "[optional]".to_string(),
                    }
                };
                assert!(
                    row.contains(&status),
                    "row of `{}` in `ips help {}` lacks `{status}`: {row}",
                    arg.key,
                    c.name
                );
                assert!(
                    row.contains(arg.doc),
                    "row of `{}` in `ips help {}` lacks its doc line: {row}",
                    arg.key,
                    c.name
                );
            }
        }
        assert!(command("bogus").is_none());
        let overview = usage_overview();
        for c in COMMANDS {
            assert!(overview.contains(c.name), "{overview}");
            assert!(overview.contains(c.summary), "{overview}");
        }
    }

    #[test]
    fn unknown_and_missing_keys_are_rejected() {
        let err = bindable(&INFO, &["data=x.csv", "quereis=y"]).unwrap_err();
        assert!(err.to_string().contains("unknown argument `quereis`"));
        assert!(err.to_string().contains("data"), "lists the valid keys");
        let err = bindable(&INFO, &[]).unwrap_err();
        assert!(err
            .to_string()
            .contains("missing required argument `data=`"));
        assert!(err.to_string().contains("ips help info"));
    }

    #[test]
    fn duplicate_keys_and_malformed_pairs_are_rejected() {
        assert!(bindable(&INFO, &["data=a", "data=b"])
            .unwrap_err()
            .to_string()
            .contains("given more than once"));
        assert!(bindable(&INFO, &["noequals"]).is_err());
        assert!(bindable(&INFO, &["=x"]).is_err());
    }

    #[test]
    fn integer_errors_state_the_real_constraint() {
        // A non-negative key rejects a negative with "non-negative"...
        let err = bindable(&GENERATE, &["n=-1", "data=x.csv"]).unwrap_err();
        assert!(
            err.to_string().contains("non-negative integer"),
            "wrong wording: {err}"
        );
        // ...but accepts zero.
        assert!(bindable(&GENERATE, &["n=0", "data=x.csv"]).is_ok());
        // A positive key rejects zero AND says "positive ... at least 1".
        let err = bindable(&JOIN, &["data=a", "queries=b", "s=0.5", "chunk=0"]).unwrap_err();
        let text = err.to_string();
        assert!(
            text.contains("positive integer (at least 1)") && text.contains("`chunk`"),
            "wrong wording: {text}"
        );
        // Negative positives get the same constraint, not the non-negative one.
        let err = bindable(&BUILD, &["data=a", "snapshot=b", "s=0.5", "copies=-3"]).unwrap_err();
        assert!(err.to_string().contains("positive integer (at least 1)"));
    }

    #[test]
    fn threads_accepts_auto_and_positive_only() {
        let ok = bindable(&QUERY, &["snapshot=a", "queries=b", "threads=auto"]).unwrap();
        assert_eq!(ok.borrow().threads("threads"), 0);
        let ok = bindable(&QUERY, &["snapshot=a", "queries=b", "threads=3"]).unwrap();
        assert_eq!(ok.borrow().threads("threads"), 3);
        // Defaulted: absent key resolves to `auto`.
        let ok = bindable(&QUERY, &["snapshot=a", "queries=b"]).unwrap();
        assert_eq!(ok.borrow().threads("threads"), 0);
        for bad in ["threads=0", "threads=-2", "threads=fast"] {
            let err = bindable(&QUERY, &["snapshot=a", "queries=b", bad]).unwrap_err();
            assert!(
                err.to_string()
                    .contains("positive integer (at least 1) or `auto`"),
                "{bad}: {err}"
            );
        }
    }

    #[test]
    fn empty_values_are_rejected_with_their_key() {
        let err = bindable(&INFO, &["data="]).unwrap_err();
        assert!(
            err.to_string()
                .contains("argument `data` has an empty value"),
            "{err}"
        );
        let err = bindable(&JOIN, &["data=a", "queries=b", "s="]).unwrap_err();
        assert!(err.to_string().contains("`s` has an empty value"));
    }

    #[test]
    fn choices_and_bools_and_floats_validate() {
        assert!(
            bindable(&JOIN, &["data=a", "queries=b", "s=0.5", "algorithm=nope"])
                .unwrap_err()
                .to_string()
                .contains("one of auto, brute, alsh, symmetric, sketch")
        );
        assert!(bindable(&JOIN, &["data=a", "queries=b", "s=0.5", "variant=sideways"]).is_err());
        assert!(
            bindable(&JOIN, &["data=a", "queries=b", "s=0.5", "explain=maybe"])
                .unwrap_err()
                .to_string()
                .contains("true/false/1/0/on/off")
        );
        assert!(bindable(&JOIN, &["data=a", "queries=b", "s=0.5", "explain=on"]).is_ok());
        assert!(bindable(&JOIN, &["data=a", "queries=b", "s=zero"])
            .unwrap_err()
            .to_string()
            .contains("must be a number"));
    }

    #[test]
    fn typed_getters_apply_schema_defaults() {
        let args = bindable(&JOIN, &["data=a", "queries=b", "s=0.5"]).unwrap();
        let args = args.borrow();
        assert_eq!(args.str("data"), "a");
        assert_eq!(args.f64("s"), 0.5);
        assert_eq!(args.f64("c"), 1.0, "schema default");
        assert_eq!(args.str("variant"), "signed");
        assert_eq!(args.str("algorithm"), "brute");
        assert_eq!(args.usize("limit"), 20);
        assert_eq!(args.u64("seed"), 42);
        assert!(!args.bool("explain"));
        assert_eq!(args.usize("chunk"), 32);
        assert_eq!(args.usize("probes"), 0, "probing defaults to off");
        assert!(!args.given("algo"));
        assert_eq!(args.opt_str("algo"), None);
        let gen = bindable(&GENERATE, &["n=100", "data=x"]).unwrap();
        assert_eq!(gen.borrow().usize_or("queries", 100 / 10 + 1), 11);
    }

    #[test]
    fn protocol_help_lists_every_protocol_command() {
        let help = protocol_help();
        for c in SERVE_PROTOCOL {
            assert!(help.contains(c.usage), "{help}");
            assert!(help.contains(c.reply), "{help}");
        }
        // ...and `ips help serve` embeds the same protocol section.
        let serve_usage = SERVE.usage();
        for c in SERVE_PROTOCOL {
            assert!(serve_usage.contains(c.usage), "{serve_usage}");
        }
    }

    #[test]
    #[should_panic(expected = "undeclared argument")]
    fn reading_an_undeclared_key_is_a_programmer_error() {
        let args = INFO.parse(&["data=x"]).unwrap();
        let _ = args.borrow().str("snapshot");
    }
}
