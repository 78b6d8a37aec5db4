//! The TCP serving front-end: the `ips serve listen=…` server.
//!
//! Speaks exactly the stdin line protocol ([`crate::serve`]) over per-connection
//! streams — same banner, same replies, byte for byte — so a client cannot tell
//! (and tests can assert) that the transport changed. The moving parts:
//!
//! * **accept loop** — one listener thread accepts connections and hands each
//!   to its own session thread (thread-per-connection, *bounded*: a counting
//!   semaphore caps concurrent sessions at [`NetConfig::workers`]; excess
//!   connections queue in the OS accept backlog until a permit frees up);
//! * **per-connection sessions** — each runs [`serve_session_with`] over a
//!   buffered reader/writer pair on the stream, with a read timeout
//!   ([`NetConfig::read_timeout`], so a slow-loris client times its own
//!   connection out instead of pinning a worker) and a line cap
//!   ([`NetConfig::max_line_bytes`]); a failing session errors and closes
//!   *alone* — the index behind it is only ever touched through its shard
//!   locks, which the session layer cannot poison;
//! * **query coalescing** — every session routes `query`/`topk` through the
//!   shared [`Coalescer`], so concurrent single-query connections merge into
//!   batched [`ips_core::JoinEngine`] passes (see `ips_store::coalesce` for
//!   the bit-identity argument);
//! * **graceful shutdown** — the `shutdown` protocol command (or
//!   [`NetServer::stop`]) flips a flag and wakes the accept loop with a
//!   self-connection; the loop stops accepting, waits for in-flight sessions
//!   to drain, and [`NetServer::join`] returns.

use crate::error::Result;
use crate::serve::{serve_session_with, SessionEnd, SessionOptions};
use ips_store::Coalescer;
use std::io::{BufReader, BufWriter, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::Duration;

/// Tuning of the TCP front-end.
#[derive(Debug, Clone)]
pub struct NetConfig {
    /// Address to bind (`host:port`; port `0` asks the OS for an ephemeral
    /// port, which [`NetServer::local_addr`] reports — how the tests listen).
    pub addr: String,
    /// Maximum concurrent connection sessions (at least 1).
    pub workers: usize,
    /// Per-connection read timeout (`None` = wait forever). A timed-out
    /// connection gets a final `error:` line and is closed; nobody else is
    /// affected.
    pub read_timeout: Option<Duration>,
    /// Longest accepted protocol line, forwarded to
    /// [`SessionOptions::max_line_bytes`].
    pub max_line_bytes: usize,
}

impl Default for NetConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:0".to_string(),
            workers: 4,
            read_timeout: Some(Duration::from_secs(30)),
            max_line_bytes: SessionOptions::default().max_line_bytes,
        }
    }
}

/// The stop signal shared by the accept loop, the sessions and the handle:
/// a flag plus the bound address, because flipping the flag alone would leave
/// the accept loop blocked in `accept` — a self-connection wakes it.
struct Shutdown {
    flag: AtomicBool,
    addr: SocketAddr,
}

impl Shutdown {
    fn requested(&self) -> bool {
        self.flag.load(Ordering::SeqCst)
    }

    /// Idempotent: the first caller flips the flag and wakes the accept loop.
    fn trigger(&self) {
        if !self.flag.swap(true, Ordering::SeqCst) {
            // Best effort: if the connect fails the listener is already gone.
            let _ = TcpStream::connect(self.addr);
        }
    }
}

/// A counting semaphore bounding concurrent sessions ([`NetConfig::workers`]
/// permits). `std::sync` has no semaphore; a mutexed count plus a condvar is
/// one. The count is only ever stepped by one under the lock, so it is valid
/// at every instant and a poisoned lock is simply taken over.
struct Semaphore {
    permits: Mutex<usize>,
    freed: Condvar,
}

/// One taken permit; it goes back when this drops — at the end of a session
/// however the session ends, an unwinding panic included, so the pool cannot
/// shrink and shutdown's drain cannot wait for a permit that never returns.
struct Permit(Arc<Semaphore>);

impl Drop for Permit {
    fn drop(&mut self) {
        *self.0.count() += 1;
        self.0.freed.notify_all();
    }
}

impl Semaphore {
    fn new(permits: usize) -> Self {
        Self {
            permits: Mutex::new(permits),
            freed: Condvar::new(),
        }
    }

    fn count(&self) -> MutexGuard<'_, usize> {
        self.permits.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Blocks until the count satisfies `ready`.
    fn wait_until(&self, ready: impl Fn(usize) -> bool) -> MutexGuard<'_, usize> {
        let mut permits = self.count();
        while !ready(*permits) {
            permits = self
                .freed
                .wait(permits)
                .unwrap_or_else(PoisonError::into_inner);
        }
        permits
    }

    fn acquire(self: &Arc<Self>) -> Permit {
        *self.wait_until(|permits| permits > 0) -= 1;
        Permit(Arc::clone(self))
    }

    /// Blocks until every permit is back — how shutdown drains in-flight
    /// sessions.
    fn wait_for_all(&self, total: usize) {
        drop(self.wait_until(|permits| permits >= total));
    }
}

/// A running TCP server; dropping it stops and drains the server.
pub struct NetServer {
    local_addr: SocketAddr,
    shutdown: Arc<Shutdown>,
    accept_thread: Option<JoinHandle<()>>,
}

impl NetServer {
    /// The bound address — the ephemeral port when the config asked for `:0`.
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Requests shutdown (idempotent, non-blocking): stop accepting, let
    /// in-flight sessions finish. [`NetServer::join`] observes the drain.
    pub fn stop(&self) {
        self.shutdown.trigger();
    }

    /// Waits until the server has shut down — via the `shutdown` protocol
    /// command from any connection, or [`NetServer::stop`] — and every
    /// in-flight session has drained.
    pub fn join(mut self) -> Result<()> {
        if let Some(handle) = self.accept_thread.take() {
            handle.join().expect("accept thread panicked");
        }
        Ok(())
    }
}

impl Drop for NetServer {
    fn drop(&mut self) {
        self.shutdown.trigger();
        if let Some(handle) = self.accept_thread.take() {
            let _ = handle.join();
        }
    }
}

/// Starts the TCP front-end over `coalescer` (which owns the shared
/// [`ips_store::ShardedServingIndex`]); returns once the listener is bound, so
/// [`NetServer::local_addr`] is immediately connectable.
pub fn serve_tcp(coalescer: Arc<Coalescer>, config: NetConfig) -> Result<NetServer> {
    let workers = config.workers.max(1);
    let listener = TcpListener::bind(&config.addr)?;
    let local_addr = listener.local_addr()?;
    let shutdown = Arc::new(Shutdown {
        flag: AtomicBool::new(false),
        addr: local_addr,
    });
    let accept_shutdown = Arc::clone(&shutdown);
    let accept_thread = std::thread::spawn(move || {
        let sessions = Arc::new(Semaphore::new(workers));
        loop {
            let stream = match listener.accept() {
                Ok((stream, _)) => stream,
                // Transient accept errors (e.g. a connection reset before we
                // got to it) must not kill the server.
                Err(_) => {
                    if accept_shutdown.requested() {
                        break;
                    }
                    continue;
                }
            };
            if accept_shutdown.requested() {
                // The shutdown wake-up, or a client racing it: either way the
                // server is closing, so the connection is dropped unanswered.
                break;
            }
            // Bound the pool *before* spawning: with every permit taken, the
            // accept loop itself blocks here and further clients queue in the
            // OS backlog instead of getting unbounded threads.
            let session_permit = sessions.acquire();
            coalescer.index().note_connection();
            let session_coalescer = Arc::clone(&coalescer);
            let session_shutdown = Arc::clone(&accept_shutdown);
            let read_timeout = config.read_timeout;
            let max_line_bytes = config.max_line_bytes;
            std::thread::spawn(move || {
                // Held to the end of the thread, unwinding included.
                let _permit = session_permit;
                run_session(
                    stream,
                    &session_coalescer,
                    &session_shutdown,
                    read_timeout,
                    max_line_bytes,
                );
            });
        }
        // Drain: every session thread gives its permit back as it exits, after
        // an error or a panic too (the permit is a drop guard).
        sessions.wait_for_all(workers);
    });
    Ok(NetServer {
        local_addr,
        shutdown,
        accept_thread: Some(accept_thread),
    })
}

/// Runs one connection's session; all failure modes end *this* connection
/// only. The stream is cloned so the reader and writer halves can be buffered
/// independently (both clones reference the same socket).
fn run_session(
    stream: TcpStream,
    coalescer: &Coalescer,
    shutdown: &Shutdown,
    read_timeout: Option<Duration>,
    max_line_bytes: usize,
) {
    let _ = stream.set_read_timeout(read_timeout);
    let _ = stream.set_nodelay(true);
    let Ok(write_half) = stream.try_clone() else {
        return;
    };
    let reader = BufReader::new(stream);
    let mut writer = BufWriter::new(write_half);
    let options = SessionOptions {
        coalescer: Some(coalescer),
        max_line_bytes,
    };
    match serve_session_with(coalescer.index(), &options, reader, &mut writer) {
        Ok(SessionEnd::Shutdown) => shutdown.trigger(),
        Ok(SessionEnd::Closed) => {}
        // An I/O failure mid-session — most commonly the read timeout firing
        // on a stalled client, or an abrupt disconnect. Say why (best effort;
        // a vanished peer simply won't hear it) and close.
        Err(e) => {
            let _ = writeln!(writer, "error: {e}; closing connection");
            let _ = writer.flush();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ips_core::problem::{JoinSpec, JoinVariant};
    use ips_linalg::DenseVector;
    use ips_store::{CoalesceConfig, IndexConfig, ShardedConfig, ShardedServingIndex};
    use std::io::{BufRead, Read};

    fn coalescer() -> Arc<Coalescer> {
        let data = vec![
            DenseVector::from(&[0.9, 0.0][..]),
            DenseVector::from(&[0.0, 0.8][..]),
        ];
        let spec = JoinSpec::new(0.5, 0.8, JoinVariant::Signed).unwrap();
        let index = ShardedServingIndex::build(
            data,
            spec,
            IndexConfig::Brute,
            ShardedConfig::with_shards(2),
        )
        .unwrap();
        Arc::new(Coalescer::new(Arc::new(index), CoalesceConfig::default()))
    }

    #[test]
    fn a_permit_comes_back_when_its_session_unwinds() {
        let sessions = Arc::new(Semaphore::new(2));
        let held = sessions.acquire();
        assert_eq!(*sessions.count(), 1);
        // A session that panics on its own thread, as `serve_tcp` runs them...
        let permit = sessions.acquire();
        let session = std::thread::spawn(move || {
            let _permit = permit;
            panic!("session failed");
        });
        assert!(session.join().is_err());
        assert_eq!(*sessions.count(), 1);
        // ...and one caught in place.
        let permit = sessions.acquire();
        let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(move || {
            let _permit = permit;
            panic!("session failed");
        }));
        assert!(unwound.is_err());
        drop(held);
        // Checked first, so that a leak fails the test instead of hanging the drain.
        assert_eq!(*sessions.count(), 2);
        sessions.wait_for_all(2);
        // The pool is whole: both permits can be taken again.
        let _both = (sessions.acquire(), sessions.acquire());
        assert_eq!(*sessions.count(), 0);
    }

    fn send(addr: SocketAddr, script: &str) -> String {
        let mut stream = TcpStream::connect(addr).unwrap();
        stream.write_all(script.as_bytes()).unwrap();
        stream.shutdown(std::net::Shutdown::Write).unwrap();
        let mut out = String::new();
        stream.read_to_string(&mut out).unwrap();
        out
    }

    #[test]
    fn tcp_session_is_byte_identical_to_the_stdin_path() {
        let coalescer = coalescer();
        let script = "query 1.0,0.0;0.0,1.0\ntopk 2 1.0,0.0\nquit\n";
        let mut expected = Vec::new();
        crate::serve::serve_session(coalescer.index(), script.as_bytes(), &mut expected).unwrap();
        let server = serve_tcp(Arc::clone(&coalescer), NetConfig::default()).unwrap();
        let got = send(server.local_addr(), script);
        assert_eq!(got.as_bytes(), expected.as_slice());
        server.stop();
        server.join().unwrap();
    }

    #[test]
    fn shutdown_command_stops_the_server_and_counts_connections() {
        let coalescer = coalescer();
        let server = serve_tcp(Arc::clone(&coalescer), NetConfig::default()).unwrap();
        let addr = server.local_addr();
        let first = send(addr, "query 1.0,0.0\nquit\n");
        assert!(first.contains("hit 0 "), "{first}");
        let second = send(addr, "shutdown\n");
        assert!(second.ends_with("bye\n"), "{second}");
        // join returns because the protocol command stopped the server.
        server.join().unwrap();
        assert!(TcpStream::connect(addr).map_or(true, |s| {
            // A racing connect may still succeed against the dead listener's
            // backlog; it must at least never get a banner.
            let mut reader = BufReader::new(s);
            let mut line = String::new();
            reader.read_line(&mut line).map_or(true, |n| n == 0)
        }));
        assert_eq!(coalescer.index().stats().connections, 2);
    }
}
