//! Workload inputs. `--seed` drives the data and the request scripts and
//! nothing else: every structure seed is the product's default.

use crate::spec::{Part, APPROXIMATION, BACKGROUND_SCALE, PLANTED_IP, THRESHOLD, TOP_K};
use ips_cli::dataset::write_vectors_to;
use ips_core::problem::{JoinSpec, JoinVariant};
use ips_datagen::planted::{PlantedConfig, PlantedInstance};
use ips_linalg::random::random_unit_vector;
use ips_linalg::DenseVector;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

pub fn join_spec() -> JoinSpec {
    JoinSpec::new(THRESHOLD, APPROXIMATION, JoinVariant::Signed)
        .expect("s = 0.8, c = 0.6 is a valid spec")
}

/// Input sizes of one part.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Shape {
    /// |P|: data vectors (joined, or served).
    pub data: usize,
    /// |Q|: query vectors (joined, or the pool requests draw from).
    pub queries: usize,
    pub dim: usize,
    pub planted: usize,
}

/// `--quick` divides the sizes by this.
pub const QUICK_DIVISOR: usize = 20;

pub fn shape(part: Part, quick: bool) -> Shape {
    let full = match part {
        Part::JoinSquare => Shape {
            data: 6000,
            queries: 6000,
            dim: 48,
            planted: 256,
        },
        Part::JoinSkinny => Shape {
            data: 12000,
            queries: 64,
            dim: 48,
            planted: 16,
        },
        Part::ServeScan => Shape {
            data: 20000,
            queries: 512,
            dim: 64,
            planted: 256,
        },
        Part::ServeMixed => Shape {
            data: 20000,
            queries: 512,
            dim: 32,
            planted: 256,
        },
    };
    if !quick {
        return full;
    }
    // The skinny join keeps its 64 queries: they are what makes it skinny.
    let queries = if part == Part::JoinSkinny {
        full.queries
    } else {
        full.queries / QUICK_DIVISOR
    };
    Shape {
        data: full.data / QUICK_DIVISOR,
        queries,
        dim: full.dim,
        planted: (full.planted / QUICK_DIVISOR).max(4),
    }
}

/// Each part draws from its own stream of the run's seed.
fn part_rng(seed: u64, part: Part, stream: u64) -> StdRng {
    let salt = (part as u64 + 1)
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(stream.wrapping_mul(0xD1B5_4A32_D192_ED03));
    StdRng::seed_from_u64(seed ^ salt)
}

pub fn planted_instance(seed: u64, part: Part, quick: bool) -> PlantedInstance {
    let shape = shape(part, quick);
    PlantedInstance::generate(
        &mut part_rng(seed, part, 0),
        PlantedConfig {
            data: shape.data,
            queries: shape.queries,
            dim: shape.dim,
            background_scale: BACKGROUND_SCALE,
            planted_ip: PLANTED_IP,
            planted: shape.planted,
        },
    )
    .expect("the planted configuration is valid")
}

/// `count` vectors of background scale: their norm (0.05) is below
/// cs = 0.48, so inserting or deleting them can never change a read's answer.
pub fn background_vectors(rng: &mut StdRng, count: usize, dim: usize) -> Vec<DenseVector> {
    (0..count)
        .map(|_| {
            random_unit_vector(rng, dim)
                .expect("dim >= 2")
                .scaled(BACKGROUND_SCALE)
        })
        .collect()
}

/// Vectors the serving scripts insert.
pub fn insert_pool(seed: u64, part: Part, dim: usize) -> Vec<DenseVector> {
    background_vectors(&mut part_rng(seed, part, 1), 256, dim)
}

/// Each vector as `0.1,0.2,...` — the CSV line the product's own writer
/// emits (shortest round-trip decimals), so the server parses back exactly
/// the vector the oracle used.
fn vector_literals(vectors: &[DenseVector]) -> Vec<String> {
    let mut csv = Vec::new();
    write_vectors_to(&mut csv, vectors).expect("writing to memory");
    let text = String::from_utf8(csv).expect("the CSV writer emits UTF-8");
    text.lines().map(str::to_string).collect()
}

/// One scripted request, before the ids a `delete` needs are known.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    Query(usize),
    TopK(usize),
    Insert(usize),
    /// Deletes this connection's oldest insert that is still live.
    Delete,
}

impl Op {
    pub fn name(self) -> &'static str {
        match self {
            Op::Query(_) => "query",
            Op::TopK(_) => "topk",
            Op::Insert(_) => "insert",
            Op::Delete => "delete",
        }
    }
}

/// Shares of `topk`, `insert` and `delete` in a stretch of a script, in parts
/// per thousand; the rest is `query`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Mix {
    pub topk: u32,
    pub insert: u32,
    pub delete: u32,
}

/// 100 % `query`.
const QUERIES: Mix = Mix {
    topk: 0,
    insert: 0,
    delete: 0,
};
/// 70 % `query`, 10 % each of `topk 10`, `insert` and `delete`.
const MIXED: Mix = Mix {
    topk: 100,
    insert: 100,
    delete: 100,
};
/// A third each of `topk 10`, `insert` and `delete`.
const WRITES: Mix = Mix {
    topk: 334,
    insert: 333,
    delete: 333,
};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Role {
    /// Unrecorded: lets caches fill and the first-run-after-idle cost pass.
    WarmUp,
    /// The measured window: throughput and the `query` latencies come from it.
    Window,
    /// Measured after the window closes, for the latencies of the ops the
    /// window does not hold.
    Tail,
}

/// One stretch of every connection's script.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Phase {
    pub role: Role,
    pub seconds: f64,
    pub mix: Mix,
}

/// The stretches of a serving part: `warmup` seconds unrecorded, then
/// `seconds` measured.
///
/// `serve_mixed` is one window of the mixed script. `serve_scan`'s window is
/// nothing but `query`, so that it stays the pure scan it is there to be; every
/// run must report every metric, so the write and `topk` latencies of the
/// brute snapshot are taken in a tail after the window has closed.
pub fn phases(part: Part, warmup: f64, seconds: f64) -> Vec<Phase> {
    let phase = |role, seconds, mix| Phase { role, seconds, mix };
    match part {
        Part::ServeScan => vec![
            phase(Role::WarmUp, warmup, QUERIES),
            phase(Role::Window, seconds * 0.8, QUERIES),
            phase(Role::Tail, seconds * 0.2, WRITES),
        ],
        Part::ServeMixed => vec![
            phase(Role::WarmUp, warmup, MIXED),
            phase(Role::Window, seconds, MIXED),
        ],
        Part::JoinSquare | Part::JoinSkinny => unreachable!("join parts have no request script"),
    }
}

/// The seeded, endless request script of one connection in one phase.
pub struct Script {
    rng: StdRng,
    mix: Mix,
    queries: usize,
    inserts: usize,
}

impl Script {
    pub fn new(
        seed: u64,
        part: Part,
        connection: usize,
        phase: usize,
        mix: Mix,
        queries: usize,
        inserts: usize,
    ) -> Self {
        Self {
            rng: part_rng(seed, part, 2 + (connection * 8 + phase) as u64),
            mix,
            queries,
            inserts,
        }
    }

    /// The next request. A `delete` is drawn only while the connection holds
    /// an insert of its own that is still live (`deletable`); otherwise that
    /// draw is a `query`.
    pub fn next_op(&mut self, deletable: bool) -> Op {
        let roll: u32 = self.rng.gen_range(0..1000);
        let Mix {
            topk,
            insert,
            delete,
        } = self.mix;
        if roll < topk {
            Op::TopK(self.rng.gen_range(0..self.queries))
        } else if roll < topk + insert {
            Op::Insert(self.rng.gen_range(0..self.inserts))
        } else if roll < topk + insert + delete && deletable {
            Op::Delete
        } else {
            Op::Query(self.rng.gen_range(0..self.queries))
        }
    }
}

/// The request lines of a part, rendered once: a script only picks among them.
pub struct RequestLines {
    pub query: Vec<String>,
    pub topk: Vec<String>,
    pub insert: Vec<String>,
}

impl RequestLines {
    pub fn render(queries: &[DenseVector], inserts: &[DenseVector]) -> Self {
        let literals = vector_literals(queries);
        Self {
            query: literals.iter().map(|v| format!("query {v}\n")).collect(),
            topk: literals
                .iter()
                .map(|v| format!("topk {TOP_K} {v}\n"))
                .collect(),
            insert: vector_literals(inserts)
                .iter()
                .map(|v| format!("insert {v}\n"))
                .collect(),
        }
    }

    /// The bytes `op` puts on the wire; a `delete` names `delete_id`.
    pub fn line(&self, op: Op, delete_id: u64) -> std::borrow::Cow<'_, str> {
        match op {
            Op::Query(i) => self.query[i].as_str().into(),
            Op::TopK(i) => self.topk[i].as_str().into(),
            Op::Insert(i) => self.insert[i].as_str().into(),
            Op::Delete => format!("delete {delete_id}\n").into(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mixed() -> Mix {
        phases(Part::ServeMixed, 2.0, 15.0)[1].mix
    }

    /// Renders the first `n` requests of a script against a stand-in server
    /// that hands out ids 1000, 1001, ... in order.
    fn rendered(seed: u64, n: usize) -> String {
        let part = Part::ServeMixed;
        let inst = planted_instance(seed, part, true);
        let inserts = insert_pool(seed, part, inst.config().dim);
        let lines = RequestLines::render(inst.queries(), &inserts);
        let mut next_id = 1000u64;
        let mut live = std::collections::VecDeque::new();
        let mut out = String::new();
        let mut script = Script::new(
            seed,
            part,
            0,
            1,
            mixed(),
            inst.queries().len(),
            inserts.len(),
        );
        for _ in 0..n {
            let op = script.next_op(!live.is_empty());
            let delete_id = if op == Op::Delete {
                live.pop_front()
                    .expect("a delete is drawn only while deletable")
            } else {
                0
            };
            if matches!(op, Op::Insert(_)) {
                live.push_back(next_id);
                next_id += 1;
            }
            out.push_str(&lines.line(op, delete_id));
        }
        out
    }

    #[test]
    fn the_same_seed_gives_byte_identical_scripts_and_another_seed_does_not() {
        let a = rendered(7, 2000);
        assert_eq!(a, rendered(7, 2000));
        assert_ne!(a, rendered(8, 2000));
        for verb in ["query ", "topk 10 ", "insert ", "delete 1000\n"] {
            assert!(
                a.contains(verb),
                "2000 requests of the mixed script hold no `{verb}`"
            );
        }
    }

    #[test]
    fn connections_and_phases_of_one_run_follow_different_scripts() {
        let ops = |connection, phase| {
            let mut script = Script::new(3, Part::ServeMixed, connection, phase, mixed(), 50, 50);
            (0..200).map(|_| script.next_op(true)).collect::<Vec<_>>()
        };
        assert_ne!(ops(0, 1), ops(1, 1));
        assert_ne!(ops(0, 0), ops(0, 1));
    }

    #[test]
    fn the_mixes_are_the_ones_the_workloads_name() {
        let share = |mix: Mix, n: usize| {
            let mut script = Script::new(5, Part::ServeMixed, 0, 0, mix, 50, 50);
            let mut counts = [0usize; 4];
            for _ in 0..n {
                counts[match script.next_op(true) {
                    Op::Query(_) => 0,
                    Op::TopK(_) => 1,
                    Op::Insert(_) => 2,
                    Op::Delete => 3,
                }] += 1;
            }
            counts.map(|c| (c as f64 / n as f64 * 100.0).round() as u32)
        };
        assert_eq!(share(mixed(), 100_000), [70, 10, 10, 10]);
        let scan = phases(Part::ServeScan, 2.0, 15.0);
        assert_eq!(
            scan.iter().map(|p| p.role).collect::<Vec<_>>(),
            [Role::WarmUp, Role::Window, Role::Tail]
        );
        assert_eq!(share(scan[1].mix, 10_000), [100, 0, 0, 0]);
        let tail = share(scan[2].mix, 100_000);
        assert!(
            tail[0] == 0 && tail[1..].iter().all(|s| (32..=34).contains(s)),
            "{tail:?}"
        );
        // Nothing to delete: the draw is a query, never a delete.
        let mut script = Script::new(5, Part::ServeMixed, 0, 0, mixed(), 50, 50);
        assert!((0..10_000).all(|_| script.next_op(false) != Op::Delete));
    }

    #[test]
    fn inserted_vectors_can_never_be_a_hit() {
        let cs = join_spec().relaxed_threshold();
        for v in insert_pool(1, Part::ServeScan, 64) {
            // |p.q| <= |p| for a unit query.
            assert!(v.norm() < cs);
        }
    }

    #[test]
    fn quick_shapes_shrink_the_data_twentyfold() {
        for part in crate::spec::PARTS {
            let (full, quick) = (shape(part, false), shape(part, true));
            assert_eq!(quick.data * QUICK_DIVISOR, full.data);
            assert!(quick.planted <= quick.queries && quick.planted <= quick.data);
        }
    }
}
