//! The ordered block driver — the workspace's one claim-blocks loop.
//!
//! Every data-parallel pass in the workspace has the same shape: the calling thread
//! produces blocks of work in order (a chunk of queries, a block of points, a block of
//! text read from a file), any thread turns a block into its result, and the calling
//! thread consumes the results **in block order** (appends pairs, files table entries,
//! writes bytes). [`pipeline`] is that loop, once; [`map_blocks`] is the same loop for
//! a list of blocks known up front. `JoinEngine` chunks queries through it, `LshIndex`
//! hashes blocks of points, the CSV codec parses and formats blocks of lines,
//! `ips-matmul` splits rows and query chunks.
//!
//! ```text
//!   calling thread:  load block k ──► ready queue ──► work (any thread) ──► done
//!                        ▲   (a free slot of the ring)                        │
//!                        └──────────────── unload block k, in order ◄─────────┘
//! ```
//!
//! **Why the output cannot depend on the schedule.** A block's result is a function of
//! the block alone, and everything with an order — loading, unloading, and which error
//! is reported — happens on the calling thread in block order. Blocks are started in
//! ascending order, and once one has failed nothing above it is started; every block
//! below it still runs, so the first failure the calling thread meets as it unloads is
//! the lowest-numbered failure there is: the error a serial walk would have met. A
//! failed *load* ends the input and is reported once everything loaded before it has
//! been unloaded without a failure of its own.
//!
//! **One thread is the same code.** The calling thread is always one of the workers
//! (when it has nothing to load or unload it takes a ready block itself); `threads - 1`
//! more are spawned for the pass (scoped, joined before return). With one thread
//! nothing is spawned and the same loop loads, works and unloads inline.
//!
//! **Workers live for the pass, and the pass starts when they have.** A pass is
//! milliseconds long and is cut into hundreds of blocks, so workers are spawned once
//! per pass, not per block, and park on a condition variable when they run dry (a
//! parked thread wakes in ~10 µs). The calling thread waits for each worker to report
//! in before it loads the first block: a freshly spawned thread is commonly queued
//! behind its parent on the parent's CPU, where it would not run until the parent
//! blocks — measured on the two-vCPU reference host at ~350 µs per spawn, and in the
//! worst case for the whole pass. The handshake is that block, once, up front.
//!
//! **Workers start on CPUs of their own.** A new thread starts on the CPU that spawned
//! it, and moving it elsewhere is the kernel's load balancer's job. Where that balancer
//! is off — a host that runs its jobs in a cpuset with `sched_load_balance` cleared, as
//! the reference host does most of the time; `isolcpus` is the same thing — nothing
//! ever moves it: a fresh thread starts where its parent runs and every wake-up returns
//! a thread to the CPU it last ran on, so caller and workers take turns on one CPU, the
//! others idle, and a pass costs what it costs on one thread plus the switches. So the
//! first thing a worker does, before it reports in, is look at where it is: if that is
//! the CPU the calling thread spawned it from, it moves itself to the next CPU the
//! process may use (`placement` below, Linux only; the one `unsafe` in this crate — three
//! libc calls). Its affinity mask is put back at once, so a kernel that does balance
//! is free to overrule the choice, and a worker the kernel has already placed elsewhere
//! is left alone.
//!
//! **What lives where.** A block travels in a slot of a ring the caller owns, handed
//! to whoever works on it as `&mut J`, and every thread works through a `&mut S` of the
//! caller's too. So a pass that must not allocate its output on a worker thread (a
//! worker's malloc arena keeps the pages; see `docs/ARCHITECTURE.md`, "the arena
//! rule") puts caller-owned buffers in the slots and has the workers fill them. The
//! driver itself allocates nothing on a worker. At most `ring.len()` blocks are in
//! flight, which is what bounds a streaming pass's memory.

use std::collections::VecDeque;
use std::convert::Infallible;
use std::num::NonZeroUsize;
use std::sync::{Condvar, Mutex, MutexGuard, OnceLock, PoisonError};

/// The number of threads a pass uses when its caller names none: one per available CPU.
///
/// Asked of the OS once per process: `std::thread::available_parallelism` re-reads the
/// affinity mask and the cgroup quota files on every call (~20 µs on the reference
/// host), which a join engine that resolves its thread count per query cannot afford.
pub fn available_threads() -> usize {
    static AVAILABLE: OnceLock<usize> = OnceLock::new();
    *AVAILABLE.get_or_init(|| {
        std::thread::available_parallelism()
            .map(NonZeroUsize::get)
            .unwrap_or(1)
    })
}

/// Slots a streaming pass gives its ring per thread: enough blocks loaded ahead that a
/// worker finds the next one waiting while the calling thread is busy unloading.
pub const DEPTH: usize = 4;

/// How a block-parallel pass is cut up: how many workers, and how much one claims at
/// a time (in the pass's own unit — points, bytes of text, rows). The result of a pass
/// never depends on either.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Schedule {
    /// Worker threads, the calling thread included; at least one is always used.
    pub threads: usize,
    /// Size of one block; at least one is always used.
    pub block: usize,
}

impl Schedule {
    /// Blocks of `block` on every available CPU.
    pub fn new(block: usize) -> Self {
        Self {
            threads: available_threads(),
            block,
        }
    }

    /// The same blocks on exactly `threads` workers — `1` for a pass that shares its
    /// cores with live traffic.
    pub fn with_threads(self, threads: usize) -> Self {
        Self { threads, ..self }
    }

    /// How many slots a streaming pass under this schedule gives its ring.
    pub fn ring(&self) -> usize {
        self.threads.max(1) * DEPTH
    }
}

/// What the threads of one pass share, under one lock.
struct Flow<'a, J, E> {
    /// Loaded blocks nobody has started, ascending.
    ready: VecDeque<(usize, &'a mut J)>,
    /// Finished blocks waiting to be unloaded; block `k` sits at `k % ring.len()`.
    done: Vec<Option<(&'a mut J, Result<(), E>)>>,
    /// The lowest block that failed: nothing above it is started any more.
    failed: usize,
    /// Workers that have reported in.
    started: usize,
    /// No block will be loaded any more: a worker that finds `ready` empty leaves.
    closed: bool,
}

impl<'a, J, E> Flow<'a, J, E> {
    /// The next block to start, unless a lower one has failed already.
    fn take(&mut self) -> Option<(usize, &'a mut J)> {
        match self.ready.front() {
            Some(&(k, _)) if k < self.failed => self.ready.pop_front(),
            _ => None,
        }
    }

    fn finish(&mut self, k: usize, slot: &'a mut J, result: Result<(), E>) {
        if result.is_err() {
            self.failed = self.failed.min(k);
        }
        let at = k % self.done.len();
        self.done[at] = Some((slot, result));
    }
}

/// The lock and the two things waited for under it.
struct Shared<'a, J, E> {
    flow: Mutex<Flow<'a, J, E>>,
    /// Workers wait here for a ready block (or the end of the pass).
    available: Condvar,
    /// The calling thread waits here for a finished block (or a worker's report).
    finished: Condvar,
}

impl<'a, J, E> Shared<'a, J, E> {
    fn lock(&self) -> MutexGuard<'_, Flow<'a, J, E>> {
        // Nothing panics while holding the lock; a poisoned one is simply taken over.
        self.flow.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// Ends the pass for everyone when dropped — the calling thread's at the end of its
/// loop however it ends, a worker's only if the worker is unwinding — so that nobody
/// waits for a thread that is gone.
struct Closer<'s, 'a, J, E> {
    shared: &'s Shared<'a, J, E>,
    only_unwinding: bool,
}

impl<J, E> Drop for Closer<'_, '_, J, E> {
    fn drop(&mut self) {
        if self.only_unwinding && !std::thread::panicking() {
            return;
        }
        self.shared.lock().closed = true;
        self.shared.available.notify_all();
        self.shared.finished.notify_all();
    }
}

/// Runs one ordered pass: `load(k, slot)` fills a free slot of `ring` with block `k`
/// (`Ok(false)`: there is no block `k`, the input has ended), `work(local, k, slot)`
/// turns it into its result on any of `locals.len()` threads (the calling thread works
/// through `locals[0]`), and `unload(k, slot)` consumes the result — `load` and
/// `unload` on the calling thread, each in ascending `k`. The first `ring.len()` blocks
/// are loaded into the ring's slots in order; later ones into whichever slot is free.
///
/// Returns the first failure in block order (see the module docs). A panic in any
/// callback reaches the caller once every worker has stopped. `locals` and `ring` must
/// not be empty.
pub fn pipeline<J, S, E>(
    locals: &mut [S],
    ring: &mut [J],
    mut load: impl FnMut(usize, &mut J) -> Result<bool, E>,
    work: impl Fn(&mut S, usize, &mut J) -> Result<(), E> + Sync,
    mut unload: impl FnMut(usize, &mut J) -> Result<(), E>,
) -> Result<(), E>
where
    J: Send,
    S: Send,
    E: Send,
{
    let slots = ring.len();
    let (own, others) = locals
        .split_first_mut()
        .expect("a pass runs on at least one thread, the calling one");
    assert!(slots > 0, "a pass needs at least one slot to load into");
    let spawned = others.len().min(slots - 1);
    let shared = Shared {
        flow: Mutex::new(Flow {
            ready: VecDeque::with_capacity(slots),
            done: ring.iter().map(|_| None).collect(),
            failed: usize::MAX,
            started: 0,
            closed: false,
        }),
        available: Condvar::new(),
        finished: Condvar::new(),
    };
    let mut free: VecDeque<&mut J> = ring.iter_mut().collect();
    let (shared, work) = (&shared, &work);
    std::thread::scope(|scope| {
        let home = placement::current_cpu();
        for (nth, local) in others[..spawned].iter_mut().enumerate() {
            scope.spawn(move || {
                let _closer = Closer {
                    shared,
                    only_unwinding: true,
                };
                placement::step_aside(home, nth + 1);
                let mut flow = shared.lock();
                flow.started += 1;
                shared.finished.notify_one();
                loop {
                    if let Some((k, slot)) = flow.take() {
                        drop(flow);
                        let result = work(local, k, slot);
                        flow = shared.lock();
                        flow.finish(k, slot, result);
                        shared.finished.notify_one();
                    } else if flow.closed {
                        break;
                    } else {
                        let woken = shared.available.wait(flow);
                        flow = woken.unwrap_or_else(PoisonError::into_inner);
                    }
                }
            });
        }
        let _closer = Closer {
            shared,
            only_unwinding: false,
        };
        // The handshake (see the module docs): block until every worker has run.
        let mut flow = shared.lock();
        while flow.started < spawned && !flow.closed {
            let woken = shared.finished.wait(flow);
            flow = woken.unwrap_or_else(PoisonError::into_inner);
        }
        drop(flow);
        let (mut loaded, mut unloaded) = (0, 0);
        let mut input: Result<bool, E> = Ok(true);
        loop {
            // Load ahead into every free slot, unless a block has failed already.
            while matches!(input, Ok(true)) && shared.lock().failed == usize::MAX {
                let Some(slot) = free.pop_front() else { break };
                input = load(loaded, slot);
                if matches!(input, Ok(true)) {
                    shared.lock().ready.push_back((loaded, slot));
                    shared.available.notify_one();
                    loaded += 1;
                } else {
                    free.push_front(slot);
                }
            }
            if unloaded == loaded && !matches!(input, Ok(true)) {
                // Everything loaded has been unloaded: the input's own end.
                return input.map(|_| ());
            }
            let mut flow = shared.lock();
            if flow.closed {
                // A worker unwound; the scope re-raises its panic.
                return Ok(());
            }
            if let Some((slot, result)) = flow.done[unloaded % slots].take() {
                drop(flow);
                result?;
                unload(unloaded, slot)?;
                free.push_back(slot);
                unloaded += 1;
            } else if let Some((k, slot)) = flow.take() {
                drop(flow);
                let result = work(own, k, slot);
                shared.lock().finish(k, slot, result);
            } else {
                // Somebody is working on the block whose turn it is. (There is one:
                // loading stops early only for a failed block, which this walk meets —
                // and returns — before it has unloaded everything.)
                assert!(unloaded < loaded, "nothing in flight to wait for");
                let woken = shared.finished.wait(flow);
                drop(woken.unwrap_or_else(PoisonError::into_inner));
            }
        }
    })
}

/// Runs `work(k, &mut blocks[k])` for every block on up to `threads` workers and
/// returns the results in block order, or the error of the lowest-numbered block that
/// failed. No block above a failed one is started; blocks already started finish.
///
/// A panic in `work` is propagated to the caller once every worker has stopped.
pub fn map_blocks<J, T, E>(
    threads: usize,
    blocks: &mut [J],
    work: impl Fn(usize, &mut J) -> Result<T, E> + Sync,
) -> Result<Vec<T>, E>
where
    J: Send,
    T: Send,
    E: Send,
{
    let total = blocks.len();
    match blocks {
        [] => return Ok(Vec::new()),
        // One block (a served query is one chunk) is nothing to schedule.
        [block] => return Ok(vec![work(0, block)?]),
        _ => {}
    }
    // The ring is the whole list, so block `k` travels in cell `k` and leaves its
    // result there: allocated here, like everything else, not by a worker.
    let mut cells: Vec<(&mut J, Option<T>)> = blocks.iter_mut().map(|b| (b, None)).collect();
    let mut locals = vec![(); threads.clamp(1, total)];
    pipeline(
        &mut locals,
        &mut cells,
        |k, _| Ok(k < total),
        |(), k, (block, result)| {
            *result = Some(work(k, block)?);
            Ok(())
        },
        |_, _| Ok(()),
    )?;
    let results = cells.into_iter().map(|(_, result)| result);
    Ok(results
        .map(|result| result.expect("every block ran"))
        .collect())
}

/// [`map_blocks`] for work that cannot fail and leaves its output in the blocks.
pub fn for_each_block<J: Send>(
    threads: usize,
    blocks: &mut [J],
    work: impl Fn(usize, &mut J) + Sync,
) {
    let done = map_blocks(threads, blocks, |k, block| {
        work(k, block);
        Ok::<(), Infallible>(())
    });
    match done {
        Ok(_) => {}
        Err(never) => match never {},
    }
}

/// Where a pass's workers run, on a kernel that will not see to it (see the module
/// docs, "workers start on CPUs of their own").
#[cfg(target_os = "linux")]
#[allow(unsafe_code)]
mod placement {
    use std::mem::size_of;
    use std::os::raw::{c_int, c_ulong};

    const BITS: usize = c_ulong::BITS as usize;
    /// A CPU mask as the C library passes it to the kernel: glibc's `cpu_set_t`, one
    /// bit per CPU, 1024 of them. (A process allowed a CPU beyond that gets `EINVAL`
    /// from `sched_getaffinity`, and its workers stay where they are.)
    type CpuSet = [c_ulong; 1024 / BITS];

    extern "C" {
        fn sched_getcpu() -> c_int;
        fn sched_getaffinity(pid: c_int, size: usize, set: *mut CpuSet) -> c_int;
        fn sched_setaffinity(pid: c_int, size: usize, set: *const CpuSet) -> c_int;
    }

    /// The CPU the calling thread is running on, if the system tells.
    pub(super) fn current_cpu() -> Option<usize> {
        // SAFETY: `sched_getcpu` takes no argument and touches no memory of ours.
        usize::try_from(unsafe { sched_getcpu() }).ok()
    }

    /// The CPUs the calling thread may run on (`pid` 0 is the calling thread).
    fn allowed() -> Option<CpuSet> {
        let mut set: CpuSet = [0; 1024 / BITS];
        // SAFETY: `set` is a live, writable `CpuSet` and the size passed is its size, so
        // the call writes inside it.
        let status = unsafe { sched_getaffinity(0, size_of::<CpuSet>(), &mut set) };
        (status == 0).then_some(set)
    }

    /// Restricts the calling thread to `set`; `false` if the kernel refuses.
    fn restrict_to(set: &CpuSet) -> bool {
        // SAFETY: `set` is a live `CpuSet` and the size passed is its size, so the call
        // reads inside it; an affinity mask is scheduling state, not memory.
        unsafe { sched_setaffinity(0, size_of::<CpuSet>(), set) == 0 }
    }

    /// If the calling thread is running on `home` — the CPU its parent spawned it from —
    /// moves it to the CPU `by` places further along those it may use (the same one if
    /// that wraps around: more workers than CPUs), and leaves its affinity mask as it
    /// found it. Anything the system refuses leaves the thread where it is. Allocates
    /// nothing.
    pub(super) fn step_aside(home: Option<usize>, by: usize) {
        if home.is_none() || current_cpu() != home {
            return;
        }
        let (Some(home), Some(mask)) = (home, allowed()) else {
            return;
        };
        let allows = |cpu: &usize| mask[cpu / BITS] >> (cpu % BITS) & 1 == 1;
        let cpus = || (0..mask.len() * BITS).filter(allows);
        let Some(at) = cpus().position(|cpu| cpu == home) else {
            return;
        };
        let target = cpus().nth((at + by) % cpus().count());
        let Some(target) = target.filter(|&target| target != home) else {
            return;
        };
        let mut only: CpuSet = [0; 1024 / BITS];
        only[target / BITS] = 1 << (target % BITS);
        // The kernel migrates a thread whose CPU leaves its mask before the call
        // returns; widening the mask again moves nothing.
        if restrict_to(&only) {
            restrict_to(&mask);
        }
    }
}

/// Elsewhere, placement is the system's alone.
#[cfg(not(target_os = "linux"))]
mod placement {
    pub(super) fn current_cpu() -> Option<usize> {
        None
    }

    pub(super) fn step_aside(_home: Option<usize>, _by: usize) {}
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn results_come_back_in_block_order_at_every_thread_count() {
        let input: Vec<u64> = (0..103).collect();
        for threads in [0, 1, 2, 3, 7, 200] {
            for size in [1, 5, 64, 103, 500] {
                let mut blocks: Vec<&[u64]> = input.chunks(size).collect();
                let sums: Vec<(usize, u64)> = map_blocks(threads, &mut blocks, |k, block| {
                    Ok::<_, ()>((k, block.iter().sum()))
                })
                .unwrap();
                let expected: Vec<(usize, u64)> = input
                    .chunks(size)
                    .enumerate()
                    .map(|(k, block)| (k, block.iter().sum()))
                    .collect();
                assert_eq!(sums, expected, "threads {threads} size {size}");
            }
        }
        let none: Vec<u8> = map_blocks(4, &mut [0u8; 0], |_, _| Ok::<_, ()>(0)).unwrap();
        assert!(none.is_empty());
    }

    #[test]
    fn workers_fill_the_buffers_their_blocks_carry() {
        let mut out = vec![0usize; 50];
        for threads in [1, 3] {
            let mut blocks: Vec<(usize, &mut [usize])> = out.chunks_mut(7).enumerate().collect();
            for_each_block(threads, &mut blocks, |_, (k, slots)| {
                slots.iter_mut().for_each(|slot| *slot = *k + 1);
            });
            let expected: Vec<usize> = (0..50).map(|i| i / 7 + 1).collect();
            assert_eq!(out, expected);
        }
    }

    #[test]
    fn the_error_is_the_lowest_numbered_blocks_and_claiming_stops() {
        for threads in [1, 2, 4] {
            let ran = AtomicUsize::new(0);
            let mut blocks: Vec<usize> = (0..1000).collect();
            let outcome: Result<Vec<usize>, usize> = map_blocks(threads, &mut blocks, |k, _| {
                ran.fetch_add(1, Ordering::Relaxed);
                // Several blocks fail; a later one may well be met first.
                if k >= 17 && k % 3 == 2 {
                    Err(k)
                } else {
                    Ok(k)
                }
            });
            assert_eq!(outcome, Err(17), "threads {threads}");
            // Every block below the failure ran. Above it, a worker stalled on a
            // failing block lets the others reach the next one (three further on), and
            // each may hold a block and claim one more before it sees the flag.
            let ran = ran.load(Ordering::Relaxed);
            assert!((18..18 + 5 * threads).contains(&ran), "ran {ran}");
        }
    }

    /// Squares `0..total` through a ring of `slots`, on `threads` threads.
    fn squares(threads: usize, slots: usize, total: usize) -> Result<Vec<usize>, String> {
        let mut out = Vec::new();
        let mut locals = vec![0usize; threads];
        pipeline(
            &mut locals,
            &mut vec![(0usize, 0usize); slots],
            |k, slot| {
                slot.0 = k;
                Ok::<_, String>(k < total)
            },
            |worked, k, slot| {
                assert_eq!(slot.0, k);
                *worked += 1;
                slot.1 = k * k;
                Ok(())
            },
            |k, slot| {
                assert_eq!(slot.0, k);
                out.push(slot.1);
                Ok(())
            },
        )?;
        assert_eq!(locals.iter().sum::<usize>(), total);
        Ok(out)
    }

    #[test]
    fn a_pipeline_unloads_in_load_order_through_a_ring_of_any_size() {
        for threads in [1, 2, 3, 7] {
            for slots in [1, 2, 5, 64] {
                for total in [0, 1, 9, 200] {
                    let expected: Vec<usize> = (0..total).map(|k| k * k).collect();
                    assert_eq!(
                        squares(threads, slots, total),
                        Ok(expected),
                        "threads {threads} slots {slots} total {total}"
                    );
                }
            }
        }
    }

    #[test]
    fn a_pipeline_reports_the_first_failure_in_block_order() {
        #[derive(Debug, PartialEq, Clone, Copy)]
        enum Stage {
            Load,
            Work,
            Unload,
        }
        // Where each stage fails, if at all; the expected error is the lowest block's,
        // a load's only once everything before it has been unloaded cleanly.
        let run = |threads: usize, fail: [Option<usize>; 3]| {
            let mut unloaded = Vec::new();
            let outcome = pipeline(
                &mut vec![(); threads],
                &mut [0usize; 6],
                |k, _| match fail[0] {
                    Some(at) if k == at => Err((Stage::Load, k)),
                    _ => Ok(k < 40),
                },
                |(), k, _| match fail[1] {
                    Some(at) if k >= at && (k - at).is_multiple_of(3) => Err((Stage::Work, k)),
                    _ => Ok(()),
                },
                |k, _| match fail[2] {
                    Some(at) if k == at => Err((Stage::Unload, k)),
                    _ => {
                        unloaded.push(k);
                        Ok(())
                    }
                },
            );
            (outcome, unloaded)
        };
        for threads in [1, 2, 4] {
            let upto = |n: usize| (0..n).collect::<Vec<_>>();
            assert_eq!(run(threads, [None, None, None]), (Ok(()), upto(40)));
            assert_eq!(
                run(threads, [None, Some(11), None]),
                (Err((Stage::Work, 11)), upto(11))
            );
            assert_eq!(
                run(threads, [None, None, Some(7)]),
                (Err((Stage::Unload, 7)), upto(7))
            );
            // The input fails at 20: blocks 0..20 are unloaded first, then it is told.
            assert_eq!(
                run(threads, [Some(20), None, None]),
                (Err((Stage::Load, 20)), upto(20))
            );
            // ...unless a block before it has a failure of its own to report.
            assert_eq!(
                run(threads, [Some(20), Some(18), None]),
                (Err((Stage::Work, 18)), upto(18))
            );
            assert_eq!(
                run(threads, [Some(3), None, Some(5)]),
                (Err((Stage::Load, 3)), upto(3))
            );
        }
    }

    #[test]
    fn a_panic_in_any_stage_reaches_the_caller_and_strands_nobody() {
        for stage in 0..3 {
            for threads in [1, 3] {
                let caught = std::panic::catch_unwind(|| {
                    pipeline(
                        &mut vec![(); threads],
                        &mut [0u8; 4],
                        |k, _| {
                            assert!(stage != 0 || k != 9, "load nine");
                            Ok::<_, ()>(k < 30)
                        },
                        |(), k, _| {
                            assert!(stage != 1 || k != 9, "work nine");
                            Ok(())
                        },
                        |k, _| {
                            assert!(stage != 2 || k != 9, "unload nine");
                            Ok(())
                        },
                    )
                });
                assert!(caught.is_err(), "stage {stage}, {threads} threads");
            }
        }
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn a_worker_on_its_callers_cpu_steps_aside_and_keeps_its_mask() {
        // The thread's affinity mask as the kernel prints it, in hex.
        let mask = || {
            let status = std::fs::read_to_string("/proc/thread-self/status").unwrap();
            let line = status
                .lines()
                .find_map(|line| line.strip_prefix("Cpus_allowed:"));
            line.expect("the kernel lists the mask").to_string()
        };
        // On a thread of its own: the move is the thread's, not the test runner's.
        std::thread::scope(|scope| {
            scope.spawn(|| {
                let (home, before) = (placement::current_cpu(), mask());
                let digits = before.chars().filter_map(|digit| digit.to_digit(16));
                let cpus: u32 = digits.map(u32::count_ones).sum();
                assert!(home.is_some() && cpus > 0);
                // A thread found elsewhere than on its caller's CPU is left alone...
                placement::step_aside(home.map(|cpu| cpu + 1), 1);
                assert_eq!(placement::current_cpu(), home);
                // ...one found on it moves along the CPUs it may use, if there is
                // anywhere to go: the count wraps, so a multiple of their number stays.
                placement::step_aside(home, cpus as usize);
                assert_eq!(placement::current_cpu(), home);
                placement::step_aside(home, 1);
                assert_eq!(placement::current_cpu() != home, cpus > 1);
                assert_eq!(mask(), before);
            });
        });
    }

    #[test]
    fn one_thread_runs_on_the_calling_thread() {
        let caller = std::thread::current().id();
        let mut blocks = [(); 9];
        let ids = map_blocks(1, &mut blocks, |_, _| {
            Ok::<_, ()>(std::thread::current().id())
        })
        .unwrap();
        assert!(ids.iter().all(|&id| id == caller));
        // More threads than blocks: one block, no spawn either.
        let ids = map_blocks(8, &mut blocks[..1], |_, _| {
            Ok::<_, ()>(std::thread::current().id())
        })
        .unwrap();
        assert_eq!(ids, [caller]);
    }

    #[test]
    fn a_panicking_block_reaches_the_caller() {
        let caught = std::panic::catch_unwind(|| {
            let mut blocks: Vec<usize> = (0..64).collect();
            map_blocks(3, &mut blocks, |k, _| {
                assert!(k != 40, "block forty");
                Ok::<_, ()>(k)
            })
        });
        assert!(caught.is_err());
    }
}
