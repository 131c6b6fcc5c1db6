//! The TCP front-end: a [`NetServer`] that speaks the [`crate::frame`]
//! protocol, plus the small blocking [`NetClient`] the CLI, tests, and
//! the network chaos harness drive it with.
//!
//! Every request is a job of the server's own job book (see
//! [`crate::runtime`]), driven on its connection's thread: each CHUNK is
//! one pass step, FINISH the completion check, and the reply settles the
//! job.  No request's work crosses threads, and a connection holds its
//! session, one frame buffer and its job's match store, never the
//! document.  Connection-level robustness is the point:
//!
//! * **Deadlines.**  Every connection carries read and write deadlines
//!   (socket timeouts); expiry surfaces as a typed error
//!   ([`crate::error::codes::READ_TIMEOUT`] /
//!   [`crate::error::codes::WRITE_TIMEOUT`]) on the wire and a counter
//!   in the stats, never a hung handler.
//! * **Backpressure.**  Each chunk is charged to its job against the
//!   book's in-flight byte budget ([`crate::ServiceBudget`]) before it is
//!   fed: the handler first *waits* (bounded by [`NetConfig::shed_wait`];
//!   the socket is not read, so the TCP window fills and the client
//!   blocks), then *sheds* with `OVERLOADED`.  A document that could
//!   never fit the budget is rejected outright (`REJECTED`).
//! * **Slow-client detection.**  A min-throughput watchdog on the
//!   injectable clock ([`st_core::session::ClockFn`]) kills uploads
//!   whose sustained rate falls below the configured floor
//!   (`SLOW_CLIENT`), so a trickling client cannot squat a handler and
//!   budget bytes indefinitely.
//! * **Bounded buffers.**  The frame codec validates lengths before
//!   allocating.  A connection reads through one buffer that grows only
//!   to its largest admitted frame, so per-connection memory is bounded
//!   by [`NetConfig::max_frame_len`] plus the session state and the
//!   job's match store.
//! * **Graceful drain.**  [`NetServer::begin_drain`] refuses new
//!   connections and new requests; in-flight requests checkpoint and
//!   finish.  [`NetServer::shutdown`] drains, waits up to
//!   [`NetConfig::drain_timeout`], then force-closes stragglers.
//!
//! Compiled plans are shared across connections through a bounded
//! [`PlanCache`], so a hot pattern is determinized once no matter how
//! many connections replay it.

use std::collections::HashMap;
use std::fmt;
use std::io;
use std::net::{Ipv4Addr, Ipv6Addr, Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::{self, JoinHandle};
use std::time::Duration;

use st_automata::Alphabet;
use st_core::plancache::PlanCache;
use st_core::queryset::{QuerySet, DEFAULT_PRODUCT_BUDGET, MAX_SET_MEMBERS};
use st_core::session::SessionError;
use st_core::Query;
use st_obs::{Gauge, Histogram, ObsHandle, TraceEvent};

use st_core::emit::{EmissionCursor, StreamedMatch};

use crate::config::ServiceBudget;
use crate::error::{codes, FailureCause};
use crate::frame::{
    decode_error, decode_match_part, decode_matches, decode_matches_with_cursor,
    decode_multi_matches, decode_multi_query, decode_query, encode_error, encode_match_part,
    encode_matches_into, encode_matches_with_cursor_into, encode_multi_matches_into,
    encode_multi_query, encode_query, read_frame, read_preamble, write_frame, write_preamble,
    FrameError, FrameKind, FrameReader, DEFAULT_MAX_FRAME_LEN, RESPONSE_MAX_FRAME_LEN,
};
use crate::runtime::{Book, PassSession, ServeObs, Store, Tally};

// ---------------------------------------------------------------------------
// Errors
// ---------------------------------------------------------------------------

/// Everything that can end a connection's request short of success.
/// Each variant maps to a stable wire code ([`NetError::wire_code`],
/// exhaustive by design).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum NetError {
    /// The transport or frame codec failed (torn frame, bad header,
    /// read deadline, disconnect).
    Frame(FrameError),
    /// A frame the protocol state machine does not allow here (e.g.
    /// document bytes before any query, or a reply kind from a client).
    Protocol {
        /// What arrived and why it is out of place.
        detail: String,
    },
    /// The query payload decoded but did not compile (bad alphabet or
    /// pattern).
    BadQuery {
        /// The compile diagnostic.
        detail: String,
    },
    /// The in-flight byte budget stayed exhausted past
    /// [`NetConfig::shed_wait`]; the request was shed.
    Overloaded {
        /// Bytes in flight when the request was shed.
        held: usize,
        /// The configured budget.
        budget: usize,
    },
    /// The request could never fit the budget (a single chunk larger
    /// than the whole in-flight allowance).
    Rejected {
        /// Why admission said no.
        reason: String,
    },
    /// The server is draining and accepts no new work.
    ShuttingDown,
    /// The client's sustained upload throughput fell below the floor.
    SlowClient {
        /// Bytes received so far.
        bytes: u64,
        /// Milliseconds since the request opened.
        elapsed_ms: u64,
        /// The configured floor (bytes/second).
        floor: u64,
    },
    /// The engine rejected the document (parse error or limit breach).
    Engine(SessionError),
    /// A write deadline expired: the client is not draining replies.
    WriteTimeout,
}

impl NetError {
    /// The stable numeric code this error travels under in an `ERROR`
    /// frame.  Exhaustive — see [`crate::error::codes`].
    pub fn wire_code(&self) -> u16 {
        match self {
            NetError::Frame(e) => e.wire_code(),
            NetError::Protocol { .. } => codes::PROTOCOL,
            NetError::BadQuery { .. } => codes::BAD_QUERY,
            NetError::Overloaded { .. } => codes::OVERLOADED,
            NetError::Rejected { .. } => codes::REJECTED,
            NetError::ShuttingDown => codes::SHUTTING_DOWN,
            NetError::SlowClient { .. } => codes::SLOW_CLIENT,
            NetError::Engine(_) => codes::ENGINE,
            NetError::WriteTimeout => codes::WRITE_TIMEOUT,
        }
    }

    /// A short, stable class name (connection-close reasons in traces).
    pub fn class(&self) -> &'static str {
        match self {
            NetError::Frame(FrameError::Timeout) => "read-timeout",
            NetError::Frame(_) => "bad-frame",
            NetError::Protocol { .. } => "protocol",
            NetError::BadQuery { .. } => "bad-query",
            NetError::Overloaded { .. } => "overloaded",
            NetError::Rejected { .. } => "rejected",
            NetError::ShuttingDown => "shutting-down",
            NetError::SlowClient { .. } => "slow-client",
            NetError::Engine(_) => "engine",
            NetError::WriteTimeout => "write-timeout",
        }
    }
}

impl fmt::Display for NetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetError::Frame(e) => write!(f, "{e}"),
            NetError::Protocol { detail } => write!(f, "protocol violation: {detail}"),
            NetError::BadQuery { detail } => write!(f, "bad query: {detail}"),
            NetError::Overloaded { held, budget } => {
                write!(f, "overloaded: {held}/{budget} byte(s) in flight")
            }
            NetError::Rejected { reason } => write!(f, "rejected: {reason}"),
            NetError::ShuttingDown => write!(f, "server is draining"),
            NetError::SlowClient {
                bytes,
                elapsed_ms,
                floor,
            } => write!(
                f,
                "client too slow: {bytes} byte(s) in {elapsed_ms} ms (floor {floor} B/s)"
            ),
            NetError::Engine(e) => write!(f, "{e}"),
            NetError::WriteTimeout => write!(f, "write deadline expired"),
        }
    }
}

impl std::error::Error for NetError {}

impl From<FrameError> for NetError {
    fn from(e: FrameError) -> NetError {
        NetError::Frame(e)
    }
}

// ---------------------------------------------------------------------------
// Configuration
// ---------------------------------------------------------------------------

/// Configuration of a [`NetServer`].
#[derive(Clone, Debug)]
pub struct NetConfig {
    /// Maximum concurrent connections; further accepts are refused with
    /// an `OVERLOADED` error frame.
    pub max_connections: usize,
    /// Per-connection read deadline: a socket read blocked this long is
    /// a typed `READ_TIMEOUT`.
    pub read_timeout: Duration,
    /// Per-connection write deadline: a reply write blocked this long
    /// (the client is not reading) is a typed `WRITE_TIMEOUT`.
    pub write_timeout: Duration,
    /// Minimum sustained upload throughput (bytes/second) a request
    /// must maintain once [`NetConfig::throughput_grace`] has passed;
    /// below it the request dies with `SLOW_CLIENT`.  `None` disables
    /// the watchdog (the read deadline still bounds total silence).
    pub min_throughput: Option<u64>,
    /// Grace period before the throughput floor is enforced.
    pub throughput_grace: Duration,
    /// Maximum accepted frame payload, enforced before allocation.
    pub max_frame_len: usize,
    /// Checkpoint cadence in document bytes: a request's pass mints a
    /// checkpoint, its job's resume point, once this many bytes have
    /// passed since the last one.
    pub checkpoint_every: usize,
    /// How long a handler waits for in-flight bytes to free up before
    /// shedding the chunk with `OVERLOADED`.  While waiting, the socket
    /// is simply not read — TCP backpressure reaches the client.
    pub shed_wait: Duration,
    /// How long [`NetServer::shutdown`] waits for in-flight connections
    /// to drain before force-closing them.
    pub drain_timeout: Duration,
    /// Compiled-plan cache capacity (entries); `0` disables caching.
    pub plan_cache_capacity: usize,
    /// The service-level budget: the aggregate in-flight byte cap the
    /// backpressure ties socket reads to, and the per-session
    /// [`st_core::session::Limits`] every request runs under (whose
    /// injectable clock also drives the throughput watchdog).
    pub budget: ServiceBudget,
    /// Observability sink (gauges, counters, histograms, connection
    /// trace events).
    pub obs: ObsHandle,
}

impl Default for NetConfig {
    fn default() -> NetConfig {
        NetConfig {
            max_connections: 32,
            read_timeout: Duration::from_secs(10),
            write_timeout: Duration::from_secs(10),
            min_throughput: None,
            throughput_grace: Duration::from_secs(1),
            max_frame_len: DEFAULT_MAX_FRAME_LEN,
            checkpoint_every: 64 << 10,
            shed_wait: Duration::from_millis(50),
            drain_timeout: Duration::from_secs(5),
            plan_cache_capacity: 64,
            budget: ServiceBudget::default(),
            obs: ObsHandle::disabled(),
        }
    }
}

impl NetConfig {
    /// Sets the connection cap.
    pub fn with_max_connections(mut self, n: usize) -> NetConfig {
        self.max_connections = n.max(1);
        self
    }

    /// Sets both socket deadlines.
    pub fn with_timeouts(mut self, read: Duration, write: Duration) -> NetConfig {
        self.read_timeout = read;
        self.write_timeout = write;
        self
    }

    /// Arms the min-throughput watchdog.
    pub fn with_min_throughput(mut self, bytes_per_sec: u64, grace: Duration) -> NetConfig {
        self.min_throughput = Some(bytes_per_sec);
        self.throughput_grace = grace;
        self
    }

    /// Sets the maximum accepted frame payload.
    pub fn with_max_frame_len(mut self, len: usize) -> NetConfig {
        self.max_frame_len = len.max(64);
        self
    }

    /// Sets the checkpoint cadence in bytes.
    pub fn with_checkpoint_every(mut self, bytes: usize) -> NetConfig {
        self.checkpoint_every = bytes.max(1);
        self
    }

    /// Sets the backpressure wait before shedding.
    pub fn with_shed_wait(mut self, wait: Duration) -> NetConfig {
        self.shed_wait = wait;
        self
    }

    /// Sets the drain deadline of [`NetServer::shutdown`].
    pub fn with_drain_timeout(mut self, timeout: Duration) -> NetConfig {
        self.drain_timeout = timeout;
        self
    }

    /// Sets the plan-cache capacity (`0` disables caching).
    pub fn with_plan_cache_capacity(mut self, entries: usize) -> NetConfig {
        self.plan_cache_capacity = entries;
        self
    }

    /// Sets the service budget (in-flight byte cap + session limits).
    pub fn with_budget(mut self, budget: ServiceBudget) -> NetConfig {
        self.budget = budget;
        self
    }

    /// Attaches an observability handle.
    pub fn with_obs(mut self, obs: ObsHandle) -> NetConfig {
        self.obs = obs;
        self
    }
}

// ---------------------------------------------------------------------------
// Stats
// ---------------------------------------------------------------------------

/// Point-in-time counters of a [`NetServer`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct NetStats {
    /// Connections accepted (including ones later refused).
    pub connections: u64,
    /// Connections turned away at accept (draining, or at the
    /// connection cap).
    pub refused: u64,
    /// Connections currently open.
    pub open: u64,
    /// Requests opened (QUERY/MQUERY frames that decoded and compiled).
    pub requests: u64,
    /// Requests answered with a success frame.
    pub completed: u64,
    /// Requests that ended in an error (any cause).
    pub failed: u64,
    /// Read deadlines expired.
    pub read_timeouts: u64,
    /// Write deadlines expired.
    pub write_timeouts: u64,
    /// Uploads killed by the min-throughput watchdog.
    pub slow_clients: u64,
    /// Chunks shed because the byte budget stayed full past the wait.
    pub shed: u64,
    /// Requests rejected outright (could never fit the budget).
    pub rejected: u64,
    /// Framing/protocol violations (bad preambles, torn frames,
    /// length lies, out-of-place frames, bad queries).
    pub bad_frames: u64,
    /// Checkpoints minted by in-flight sessions.
    pub checkpoints: u64,
    /// Document bytes currently held in flight.
    pub in_flight_bytes: u64,
}

impl fmt::Display for NetStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "conns {} (open {}, refused {}), requests {} (ok {}, failed {}), \
             timeouts r/w {}/{}, slow {}, shed {}, rejected {}, bad frames {}, \
             checkpoints {}, in-flight {} B",
            self.connections,
            self.open,
            self.refused,
            self.requests,
            self.completed,
            self.failed,
            self.read_timeouts,
            self.write_timeouts,
            self.slow_clients,
            self.shed,
            self.rejected,
            self.bad_frames,
            self.checkpoints,
            self.in_flight_bytes,
        )
    }
}

/// The edge's counters: each [`Tally`] moves its [`NetStats`] field and
/// its metric in one call.
struct NetCounters {
    conns_open: Gauge,
    connections: Tally,
    refused: Tally,
    requests: Tally,
    completed: Tally,
    failed: Tally,
    read_timeouts: Tally,
    write_timeouts: Tally,
    slow_clients: Tally,
    shed: Tally,
    rejected: Tally,
    bad_frames: Tally,
    checkpoints: Tally,
    /// Clock nanoseconds from a request's first frame to its settled
    /// reply (sub-millisecond requests land in their own log2 bucket).
    request_latency_ns: Histogram,
    request_bytes: Histogram,
    /// Clock nanoseconds to read each CHUNK or FINISH frame of a request
    /// out of the connection buffer, refills included.
    frame_read_ns: Histogram,
    /// Clock nanoseconds to write each reply frame.
    reply_write_ns: Histogram,
}

impl NetCounters {
    fn new(obs: &ObsHandle) -> NetCounters {
        NetCounters {
            conns_open: obs.gauge("net_connections_open"),
            connections: Tally::new(obs, "net_connections_total"),
            refused: Tally::new(obs, "net_refused_total"),
            requests: Tally::new(obs, "net_requests_total"),
            completed: Tally::new(obs, "net_completed_total"),
            failed: Tally::new(obs, "net_failed_total"),
            read_timeouts: Tally::new(obs, "net_read_timeouts_total"),
            write_timeouts: Tally::new(obs, "net_write_timeouts_total"),
            slow_clients: Tally::new(obs, "net_slow_clients_total"),
            shed: Tally::new(obs, "net_shed_total"),
            rejected: Tally::new(obs, "net_rejected_total"),
            bad_frames: Tally::new(obs, "net_bad_frames_total"),
            checkpoints: Tally::new(obs, "net_checkpoints_total"),
            request_latency_ns: obs.histogram("net_request_latency_ns"),
            request_bytes: obs.histogram("net_request_doc_bytes"),
            frame_read_ns: obs.histogram("net_frame_read_ns"),
            reply_write_ns: obs.histogram("net_reply_write_ns"),
        }
    }
}

// ---------------------------------------------------------------------------
// Server
// ---------------------------------------------------------------------------

struct NetInner {
    cfg: NetConfig,
    draining: AtomicBool,
    open_conns: AtomicUsize,
    next_conn_id: AtomicU64,
    cache: Arc<PlanCache>,
    /// `try_clone`d handles of live connections, so shutdown can cut
    /// through reads blocked on their socket deadline.
    conns: Mutex<HashMap<u64, TcpStream>>,
    handlers: Mutex<Vec<JoinHandle<()>>>,
    /// Every request is a job here, driven on its connection's thread.
    book: Book<()>,
    c: NetCounters,
}

impl NetInner {
    /// Bumps the per-cause counters of a request/connection failure.
    /// `ShuttingDown` is not a failure — it is the drain refusing new
    /// work — so it counts under `refused`, not `failed`.
    fn count_failure(&self, err: &NetError) {
        if matches!(err, NetError::ShuttingDown) {
            return self.c.refused.add(1);
        }
        self.c.failed.add(1);
        let cause = match err {
            NetError::Frame(FrameError::Timeout) => &self.c.read_timeouts,
            NetError::WriteTimeout => &self.c.write_timeouts,
            NetError::SlowClient { .. } => &self.c.slow_clients,
            NetError::Overloaded { .. } => &self.c.shed,
            NetError::Rejected { .. } => &self.c.rejected,
            NetError::Frame(_) | NetError::Protocol { .. } | NetError::BadQuery { .. } => {
                &self.c.bad_frames
            }
            NetError::ShuttingDown | NetError::Engine(_) => return,
        };
        cause.add(1);
    }

    /// The clock reading a stage timing starts from: `None`, and no
    /// clock read, when metrics are off.
    fn stage_start(&self) -> Option<u64> {
        self.cfg.obs.is_enabled().then(|| self.book.now_ns())
    }

    /// Records the stage that began at `start` into `stage`.
    fn stage_end(&self, stage: &Histogram, start: Option<u64>) {
        if let Some(start) = start {
            stage.record(self.book.now_ns().saturating_sub(start));
        }
    }

    /// Writes one reply frame to the client; an expired write deadline
    /// is a typed [`NetError::WriteTimeout`].
    fn write_reply(
        &self,
        mut out: &TcpStream,
        kind: FrameKind,
        payload: &[u8],
    ) -> Result<(), NetError> {
        let start = self.stage_start();
        let wrote = write_frame(&mut out, kind, payload);
        self.stage_end(&self.c.reply_write_ns, start);
        wrote.map_err(|e| match e {
            FrameError::Timeout => NetError::WriteTimeout,
            other => NetError::Frame(other),
        })
    }
}

/// A TCP front-end serving the [`crate::frame`] protocol.  Bind with
/// [`NetServer::bind`]; the accept loop and one handler thread per
/// connection run in the background until [`NetServer::shutdown`].
pub struct NetServer {
    inner: Arc<NetInner>,
    local_addr: SocketAddr,
    stop_accept: Arc<AtomicBool>,
    accept: Mutex<Option<JoinHandle<()>>>,
    shut: AtomicBool,
}

impl NetServer {
    /// Binds `addr` (e.g. `"127.0.0.1:0"` for an ephemeral port) and
    /// starts accepting connections.
    ///
    /// # Errors
    ///
    /// The bind error, verbatim.
    pub fn bind(addr: &str, cfg: NetConfig) -> io::Result<NetServer> {
        let listener = TcpListener::bind(addr)?;
        let local_addr = listener.local_addr()?;
        let cache = Arc::new(PlanCache::with_obs(cfg.plan_cache_capacity, &cfg.obs));
        // The book traces to the edge's handle; its counters stay off the
        // registry, where the edge's own count the same requests.
        let obs = ServeObs::attach(&ObsHandle::disabled(), &cfg.obs);
        let book = Book::new(&cfg.budget, cfg.checkpoint_every, obs);
        let c = NetCounters::new(&cfg.obs);
        let inner = Arc::new(NetInner {
            cfg,
            draining: AtomicBool::new(false),
            open_conns: AtomicUsize::new(0),
            next_conn_id: AtomicU64::new(1),
            cache,
            conns: Mutex::new(HashMap::new()),
            handlers: Mutex::new(Vec::new()),
            book,
            c,
        });
        let stop_accept = Arc::new(AtomicBool::new(false));
        let accept = {
            let inner = inner.clone();
            let stop = stop_accept.clone();
            thread::Builder::new()
                .name("st-net-accept".to_owned())
                .spawn(move || accept_loop(&inner, &listener, &stop))
                .expect("spawn accept thread")
        };
        Ok(NetServer {
            inner,
            local_addr,
            stop_accept,
            accept: Mutex::new(Some(accept)),
            shut: AtomicBool::new(false),
        })
    }

    /// The bound address (with the resolved port).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// The shared compiled-plan cache.
    pub fn plan_cache(&self) -> Arc<PlanCache> {
        self.inner.cache.clone()
    }

    /// A snapshot of the counters.
    pub fn stats(&self) -> NetStats {
        let c = &self.inner.c;
        NetStats {
            connections: c.connections.get(),
            refused: c.refused.get(),
            open: self.inner.open_conns.load(Ordering::SeqCst) as u64,
            requests: c.requests.get(),
            completed: c.completed.get(),
            failed: c.failed.get(),
            read_timeouts: c.read_timeouts.get(),
            write_timeouts: c.write_timeouts.get(),
            slow_clients: c.slow_clients.get(),
            shed: c.shed.get(),
            rejected: c.rejected.get(),
            bad_frames: c.bad_frames.get(),
            checkpoints: c.checkpoints.get(),
            in_flight_bytes: self.inner.book.in_flight() as u64,
        }
    }

    /// Whether the server is draining.
    pub fn is_draining(&self) -> bool {
        self.inner.draining.load(Ordering::SeqCst)
    }

    /// Starts a graceful drain: new connections and new requests are
    /// refused with `SHUTTING_DOWN`; in-flight requests checkpoint and
    /// finish normally.
    pub fn begin_drain(&self) {
        self.inner.draining.store(true, Ordering::SeqCst);
    }

    /// Drains, waits up to [`NetConfig::drain_timeout`] for in-flight
    /// connections to finish, force-closes stragglers, and joins every
    /// thread.  Idempotent.
    ///
    /// The accept loop blocks in `accept`, so shutdown wakes it with a
    /// loopback connection of its own, retried until one lands or the
    /// drain deadline passes.  If none lands (say the accept backlog
    /// stays full), the accept thread is left detached: it still owns
    /// the listener, which stays bound until its next accepted
    /// connection lets it see the stop flag and exit.
    pub fn shutdown(&self) {
        if self.shut.swap(true, Ordering::SeqCst) {
            return;
        }
        self.begin_drain();
        self.stop_accept.store(true, Ordering::SeqCst);
        let deadline = std::time::Instant::now() + self.inner.cfg.drain_timeout;
        if let Some(h) = self.accept.lock().unwrap_or_else(|p| p.into_inner()).take() {
            let mut wake = self.local_addr;
            if wake.ip().is_unspecified() {
                wake.set_ip(match wake {
                    SocketAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
                    SocketAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
                });
            }
            // A connection that lands is queued for `accept`, which
            // then returns and sees the stop flag.
            let mut woke = false;
            while !woke && !h.is_finished() && std::time::Instant::now() < deadline {
                woke = TcpStream::connect_timeout(&wake, Duration::from_millis(100)).is_ok();
                if !woke {
                    thread::sleep(Duration::from_millis(10));
                }
            }
            if woke || h.is_finished() {
                let _ = h.join();
            }
        }
        while self.inner.open_conns.load(Ordering::SeqCst) > 0
            && std::time::Instant::now() < deadline
        {
            thread::sleep(Duration::from_millis(2));
        }
        // Cut through any connection still blocked on its socket.
        {
            let conns = self.inner.conns.lock().unwrap_or_else(|p| p.into_inner());
            for stream in conns.values() {
                let _ = stream.shutdown(Shutdown::Both);
            }
        }
        let handlers = std::mem::take(
            &mut *self
                .inner
                .handlers
                .lock()
                .unwrap_or_else(|p| p.into_inner()),
        );
        for h in handlers {
            let _ = h.join();
        }
    }
}

impl Drop for NetServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn accept_loop(inner: &Arc<NetInner>, listener: &TcpListener, stop: &AtomicBool) {
    loop {
        match listener.accept() {
            // The connection that woke a stopping loop is not served.
            Ok(_) if stop.load(Ordering::SeqCst) => return,
            Ok((mut stream, _peer)) => {
                inner.c.connections.add(1);
                let refuse = if inner.draining.load(Ordering::SeqCst) {
                    Some((codes::SHUTTING_DOWN, "server is draining"))
                } else if inner.open_conns.load(Ordering::SeqCst) >= inner.cfg.max_connections {
                    Some((codes::OVERLOADED, "connection limit reached"))
                } else {
                    None
                };
                if let Some((code, msg)) = refuse {
                    inner.c.refused.add(1);
                    let _ = stream.set_write_timeout(Some(inner.cfg.write_timeout));
                    let _ = write_frame(&mut stream, FrameKind::Error, &encode_error(code, msg));
                    continue;
                }
                let conn = inner.next_conn_id.fetch_add(1, Ordering::SeqCst);
                inner.open_conns.fetch_add(1, Ordering::SeqCst);
                if let Ok(clone) = stream.try_clone() {
                    inner
                        .conns
                        .lock()
                        .unwrap_or_else(|p| p.into_inner())
                        .insert(conn, clone);
                }
                let handle = {
                    let inner = inner.clone();
                    thread::Builder::new()
                        .name(format!("st-net-conn-{conn}"))
                        .spawn(move || handle_conn(&inner, stream, conn))
                        .expect("spawn connection handler")
                };
                let mut handlers = inner.handlers.lock().unwrap_or_else(|p| p.into_inner());
                handlers.retain(|h| !h.is_finished());
                handlers.push(handle);
            }
            Err(_) if stop.load(Ordering::SeqCst) => return,
            // A failed accept (e.g. out of descriptors) backs off rather
            // than spinning.
            Err(_) => thread::sleep(Duration::from_millis(2)),
        }
    }
}

fn handle_conn(inner: &Arc<NetInner>, stream: TcpStream, conn: u64) {
    let _ = stream.set_read_timeout(Some(inner.cfg.read_timeout));
    let _ = stream.set_write_timeout(Some(inner.cfg.write_timeout));
    let _ = stream.set_nodelay(true);
    inner.c.conns_open.add(1);
    inner.cfg.obs.trace(TraceEvent::ConnOpened { conn });
    let reason = match conn_loop(inner, &stream) {
        Ok(reason) => reason,
        Err(e) => {
            inner.count_failure(&e);
            // Best-effort typed goodbye; the transport may already be gone.
            let goodbye = encode_error(e.wire_code(), &e.to_string());
            let _ = inner.write_reply(&stream, FrameKind::Error, &goodbye);
            e.class()
        }
    };
    inner.cfg.obs.trace(TraceEvent::ConnClosed { conn, reason });
    inner.c.conns_open.add(-1);
    inner.open_conns.fetch_sub(1, Ordering::SeqCst);
    inner
        .conns
        .lock()
        .unwrap_or_else(|p| p.into_inner())
        .remove(&conn);
}

/// What one request runs, compiled from the frame that opens it.
enum Request {
    /// QUERY, or STREAMQUERY when `parts` (one MATCH_PART per chunk).
    Single { query: Arc<Query>, parts: bool },
    /// MULTIQUERY.
    Multi(Box<QuerySet>),
}

impl Request {
    /// How many match lists the request answers with.
    fn queries(&self) -> usize {
        match self {
            Request::Single { .. } => 1,
            Request::Multi(set) => set.len(),
        }
    }

    /// Encodes the success reply to a finished upload into `out` (the
    /// connection's reply buffer, cleared first); returns its kind.
    fn reply(&self, lists: &[Vec<usize>], cursor: EmissionCursor, out: &mut Vec<u8>) -> FrameKind {
        out.clear();
        match self {
            Request::Single { parts: false, .. } => encode_matches_into(out, &lists[0]),
            Request::Single { parts: true, .. } => {
                encode_matches_with_cursor_into(out, &lists[0], cursor)
            }
            Request::Multi(_) => {
                encode_multi_matches_into(out, lists);
                return FrameKind::MultiMatches;
            }
        }
        FrameKind::Matches
    }
}

/// The per-connection protocol loop.  `Ok` carries the close reason of
/// a polite shutdown; `Err` closes the connection after a typed error
/// frame.  Any request-level error closes the connection — a client
/// whose stream position is ambiguous cannot be safely resynchronized.
/// Every read goes through the connection's one [`FrameReader`].
fn conn_loop(inner: &Arc<NetInner>, stream: &TcpStream) -> Result<&'static str, NetError> {
    let mut frames = FrameReader::new(stream);
    // Every success reply is encoded here, reusing the room of the last.
    let mut reply = Vec::new();
    read_preamble(&mut frames)?;
    loop {
        if inner.draining.load(Ordering::SeqCst) {
            return Err(NetError::ShuttingDown);
        }
        let Some((kind, payload)) = frames.next_frame_or_eof(inner.cfg.max_frame_len)? else {
            return Ok("eof");
        };
        // Re-check after the (possibly long) blocking read: a request
        // arriving on an idle connection after the drain began is new
        // work, and new work is refused.
        if inner.draining.load(Ordering::SeqCst) {
            return Err(NetError::ShuttingDown);
        }
        let compiled = match kind {
            FrameKind::Query | FrameKind::StreamQuery => {
                let (csv, pattern) = decode_query(payload)?;
                let parts = kind == FrameKind::StreamQuery;
                parse_alphabet(&csv).and_then(|alphabet| {
                    let query = inner.cache.get_or_compile(&pattern, &alphabet);
                    Ok(Request::Single {
                        query: query.map_err(bad_query)?,
                        parts,
                    })
                })
            }
            FrameKind::MultiQuery => {
                let (csv, patterns) = decode_multi_query(payload)?;
                let members = patterns.len();
                let alphabet = if members > MAX_SET_MEMBERS {
                    Err(bad_query(format!(
                        "{members} patterns; a query set holds at most {MAX_SET_MEMBERS}"
                    )))
                } else {
                    parse_alphabet(&csv)
                };
                alphabet.and_then(|alphabet| {
                    let plans = patterns
                        .iter()
                        .map(|p| inner.cache.get_or_plan(p, &alphabet))
                        .collect::<Result<Vec<_>, _>>()
                        .map_err(bad_query)?;
                    let members =
                        (patterns.iter().zip(&plans)).map(|(p, plan)| (Some(p.as_str()), &**plan));
                    let set = QuerySet::from_plans(members, &alphabet, DEFAULT_PRODUCT_BUDGET);
                    Ok(Request::Multi(Box::new(set)))
                })
            }
            other => {
                return Err(NetError::Protocol {
                    detail: format!("unexpected {other:?} frame outside a request"),
                })
            }
        };
        let request = match compiled {
            Ok(r) => r,
            Err(e) => return Err(drain_then_fail(inner, &mut frames, e)),
        };
        inner.c.requests.add(1);
        let limits = inner.cfg.budget.session_limits_for(None, &inner.cfg.obs);
        let parts = matches!(request, Request::Single { parts: true, .. });
        let id = inner.book.enter((), 0, parts, request.queries(), None);
        let mut ticket = Ticket {
            book: &inner.book,
            id,
            cause: "panic",
        };
        match &request {
            Request::Single { query, .. } => {
                let session = query.session(limits);
                serve(inner, &mut frames, &mut reply, &request, id, session)
            }
            Request::Multi(set) => serve(
                inner,
                &mut frames,
                &mut reply,
                &request,
                id,
                set.session(limits),
            ),
        }
        .inspect_err(|e| ticket.cause = e.class())?;
    }
}

fn parse_alphabet(csv: &str) -> Result<Alphabet, NetError> {
    Alphabet::from_symbols(csv.split(',')).map_err(|e| bad_query(format!("bad alphabet: {e}")))
}

fn bad_query(e: impl fmt::Display) -> NetError {
    NetError::BadQuery {
        detail: e.to_string(),
    }
}

/// Consumes the rest of a doomed request's upload (unbudgeted, each
/// frame skipped inside the connection buffer), then reports `err`.
///
/// Why drain at all: erroring out *mid-upload* closes the socket with
/// unread client data in flight, which TCP answers with a reset — and a
/// reset can discard the typed error frame before the client reads it.
/// For failures decided by the request's own content (a bad query, an
/// engine rejection) the typed code is the contract, so the server
/// swallows the rest of the document first and the error frame lands on
/// a quiet connection.  Resource-protection failures (reject, shed,
/// deadline, slow client) deliberately do NOT drain — refusing to read
/// more bytes is their entire point, and their error frame is
/// best-effort.  The drain itself stays bounded: per-frame memory by
/// [`NetConfig::max_frame_len`], gaps by the read deadline, and total
/// volume by eight max-size frames, past which the failure is reported
/// immediately.
fn drain_then_fail(
    inner: &NetInner,
    frames: &mut FrameReader<&TcpStream>,
    err: NetError,
) -> NetError {
    let cap = inner.cfg.max_frame_len.saturating_mul(8);
    let mut drained = 0usize;
    loop {
        match frames.next_frame(inner.cfg.max_frame_len) {
            Ok((FrameKind::Chunk, payload)) => {
                drained += payload.len();
                if drained > cap {
                    return err;
                }
            }
            // FINISH (the polite end), anything out of place, or any
            // framing/transport failure: the original error stands.
            Ok(_) | Err(_) => return err,
        }
    }
}

/// A failed pass step as the edge reports it.  An edge job never resumes
/// or replays, so only its engine fails it; a ledger check that still
/// trips travels under the same ENGINE code.
fn pass_error(cause: FailureCause) -> NetError {
    match cause {
        FailureCause::Engine(e) => NetError::Engine(e),
        other => NetError::Engine(SessionError::Checkpoint {
            detail: other.to_string(),
        }),
    }
}

/// An edge job's place in the book.  Dropping it settles the job as
/// failed with `cause` — on every exit short of the reply, a panic unwind
/// included — so no record or budget byte outlives its request.
struct Ticket<'i> {
    book: &'i Book<()>,
    id: u64,
    cause: &'static str,
}

impl Drop for Ticket<'_> {
    fn drop(&mut self) {
        self.book.settle(self.id, Err(self.cause));
    }
}

/// Runs one request as job `id` of the edge's book, on this connection's
/// thread.  Each `Chunk` is charged to the job against the byte budget (waiting up to
/// [`NetConfig::shed_wait`], then `OVERLOADED`), checked by the
/// throughput watchdog and fed through one [`Book::step`]; `Finish` runs
/// the completion check, settles the job and sends the reply read off
/// its match store, encoded into the connection's `reply` buffer.
///
/// A streaming request answers every `Chunk` with exactly one
/// `MatchPart` carrying the matches its ledger gained during it
/// (possibly zero), and its final `Matches` reply carries the emission
/// cursor so the client can verify that the parts it accumulated are
/// bitwise the stream the server delivered.  The strict lock step — the
/// client must read each part before sending its next chunk — is what
/// makes the path deadlock-free under every deadline/backpressure
/// interaction: neither side ever has more than one frame in flight
/// toward a peer that is not reading.
fn serve<S: PassSession>(
    inner: &NetInner,
    frames: &mut FrameReader<&TcpStream>,
    reply: &mut Vec<u8>,
    request: &Request,
    id: u64,
    session: S,
) -> Result<(), NetError> {
    let (book, queries, out) = (&inner.book, request.queries(), *frames.get_ref());
    let parts = matches!(request, Request::Single { parts: true, .. });
    let mut run = (book.start((id, 1), queries, parts, false, Ok(session))).map_err(pass_error)?;
    let (started_ns, mut fed, mut sent) = (book.now_ns(), 0u64, 0);
    loop {
        let read_start = inner.stage_start();
        let (kind, payload) = frames.next_frame(inner.cfg.max_frame_len)?;
        inner.stage_end(&inner.c.frame_read_ns, read_start);
        match kind {
            FrameKind::Chunk => {
                let n = payload.len();
                if n == 0 {
                    return Err(NetError::Frame(FrameError::BadPayload {
                        detail: "empty CHUNK frame".to_owned(),
                    }));
                }
                let need = fed as usize + n;
                (book.reserve(Some(id), n, inner.cfg.shed_wait)).map_err(|r| {
                    if r.never {
                        let budget = r.budget;
                        let reason =
                            format!("document needs {need} byte(s) in flight, budget is {budget}");
                        return NetError::Rejected { reason };
                    }
                    let (held, budget) = (r.held, r.budget);
                    NetError::Overloaded { held, budget }
                })?;
                fed += n as u64;
                if let Some(floor) = inner.cfg.min_throughput {
                    let elapsed_ms = book.now_ms().saturating_sub(started_ns / 1_000_000);
                    if elapsed_ms > inner.cfg.throughput_grace.as_millis() as u64
                        && fed.saturating_mul(1000) < floor.saturating_mul(elapsed_ms)
                    {
                        return Err(NetError::SlowClient {
                            bytes: fed,
                            elapsed_ms,
                            floor,
                        });
                    }
                }
                match book.step(&mut run, payload, false) {
                    Ok(minted) => inner.c.checkpoints.add(u64::from(minted)),
                    // Content-determined failure mid-upload: swallow the
                    // rest so the typed error outlives the connection
                    // teardown (see `drain_then_fail`).
                    Err(cause) => return Err(drain_then_fail(inner, frames, pass_error(cause))),
                }
                if parts {
                    // Encoded straight off the ledger, under its lock.
                    let start = sent as u64;
                    let part = book.with_emitted(id, sent, |batch| {
                        sent += batch.len();
                        encode_match_part(start, batch)
                    });
                    let part = part.unwrap_or_else(|| encode_match_part(start, &[]));
                    inner.write_reply(out, FrameKind::MatchPart, &part)?;
                }
            }
            FrameKind::Finish => {
                if !payload.is_empty() {
                    return Err(NetError::Frame(FrameError::BadPayload {
                        detail: format!(
                            "FINISH carries {} payload byte(s); it must be empty",
                            payload.len()
                        ),
                    }));
                }
                let cursor = book.finish(run).map_err(pass_error)?;
                // Settle the job, its budget bytes, the histograms and the
                // counters before the reply goes out, so a client that has
                // read it observes final stats — the order the error path
                // gets from counting failures before the error frame.  (A
                // reply that then fails to write also counts as a write
                // timeout.)
                let lists = book.settle(id, Ok(())).map(Store::into_lists);
                inner.c.request_bytes.record(fed);
                let latency_ns = book.now_ns().saturating_sub(started_ns);
                inner.c.request_latency_ns.record(latency_ns);
                inner.c.completed.add(1);
                let kind = request.reply(&lists.unwrap_or_default(), cursor, reply);
                return inner.write_reply(out, kind, reply);
            }
            other => {
                return Err(NetError::Protocol {
                    detail: format!("unexpected {other:?} frame inside a request"),
                })
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Client
// ---------------------------------------------------------------------------

/// A reply from the server.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum NetResponse {
    /// Document-order node ids of a single-query request.
    Matches(Vec<usize>),
    /// Per-member node ids of a multi-query request.
    MultiMatches(Vec<Vec<usize>>),
    /// The settled reply of a *streaming* request: the final match list,
    /// the concatenation of every incremental part received before it,
    /// and the server's emission cursor — already verified by the client
    /// to agree with both (count, digest, and node ids).
    StreamMatches {
        /// Document-order node ids (the end-of-document answer).
        ids: Vec<usize>,
        /// Every incrementally delivered match, in emission order.
        parts: Vec<StreamedMatch>,
        /// The server's final emission cursor.
        cursor: EmissionCursor,
    },
    /// A typed failure: a stable code from [`crate::error::codes`] plus
    /// an advisory message.
    ServerError {
        /// The stable wire code.
        code: u16,
        /// The human-readable detail.
        message: String,
    },
}

/// A small blocking client for the [`crate::frame`] protocol — what the
/// CLI, the integration tests, and the network chaos harness drive the
/// server with.  The low-level `send_*` methods expose each protocol
/// step; [`NetClient::stream_mut`] exposes the raw socket so the chaos
/// harness can tear frames and disconnect mid-stream.
pub struct NetClient {
    stream: TcpStream,
}

impl NetClient {
    /// Connects and sends the preamble, with 10-second socket deadlines.
    ///
    /// # Errors
    ///
    /// Connect/handshake failures, verbatim.
    pub fn connect(addr: &str) -> io::Result<NetClient> {
        NetClient::connect_with_timeouts(addr, Duration::from_secs(10), Duration::from_secs(10))
    }

    /// Connects with explicit socket deadlines.
    ///
    /// # Errors
    ///
    /// Connect/handshake failures, verbatim.
    pub fn connect_with_timeouts(
        addr: &str,
        read: Duration,
        write: Duration,
    ) -> io::Result<NetClient> {
        let stream = TcpStream::connect(addr)?;
        stream.set_read_timeout(Some(read))?;
        stream.set_write_timeout(Some(write))?;
        stream.set_nodelay(true)?;
        let mut client = NetClient { stream };
        write_preamble(&mut client.stream).map_err(io::Error::other)?;
        Ok(client)
    }

    /// The raw socket, for tests that tear frames or disconnect.
    ///
    /// The client never reads ahead: each reply is read header first,
    /// then exactly its payload, so no byte of a later frame sits in a
    /// client-side buffer.  A caller may therefore read frames straight
    /// off this socket with [`crate::frame::read_frame`] and go on with
    /// the client's own methods after.
    pub fn stream_mut(&mut self) -> &mut TcpStream {
        &mut self.stream
    }

    /// Opens a single-query request.
    ///
    /// # Errors
    ///
    /// Transport failures as [`FrameError`].
    pub fn send_query(&mut self, pattern: &str, alphabet_csv: &str) -> Result<(), FrameError> {
        write_frame(
            &mut self.stream,
            FrameKind::Query,
            &encode_query(alphabet_csv, pattern),
        )
    }

    /// Opens a multi-query request.
    ///
    /// # Errors
    ///
    /// Transport failures as [`FrameError`].
    pub fn send_multi_query<S: AsRef<str>>(
        &mut self,
        patterns: &[S],
        alphabet_csv: &str,
    ) -> Result<(), FrameError> {
        write_frame(
            &mut self.stream,
            FrameKind::MultiQuery,
            &encode_multi_query(alphabet_csv, patterns),
        )
    }

    /// Streams one run of document bytes.
    ///
    /// # Errors
    ///
    /// Transport failures as [`FrameError`].
    pub fn send_chunk(&mut self, bytes: &[u8]) -> Result<(), FrameError> {
        write_frame(&mut self.stream, FrameKind::Chunk, bytes)
    }

    /// Closes the document.
    ///
    /// # Errors
    ///
    /// Transport failures as [`FrameError`].
    pub fn send_finish(&mut self) -> Result<(), FrameError> {
        write_frame(&mut self.stream, FrameKind::Finish, &[])
    }

    /// Reads the server's reply to the open request.
    ///
    /// # Errors
    ///
    /// Transport failures, or a reply frame that is not a valid
    /// response kind.
    pub fn read_response(&mut self) -> Result<NetResponse, FrameError> {
        let frame = read_frame(&mut self.stream, RESPONSE_MAX_FRAME_LEN)?;
        match frame.kind {
            FrameKind::Matches => Ok(NetResponse::Matches(decode_matches(&frame.payload)?)),
            FrameKind::MultiMatches => Ok(NetResponse::MultiMatches(decode_multi_matches(
                &frame.payload,
            )?)),
            other => error_reply(other, &frame.payload, "a reply"),
        }
    }

    /// Opens a streaming single-query request.
    ///
    /// # Errors
    ///
    /// Transport failures as [`FrameError`].
    pub fn send_stream_query(
        &mut self,
        pattern: &str,
        alphabet_csv: &str,
    ) -> Result<(), FrameError> {
        write_frame(
            &mut self.stream,
            FrameKind::StreamQuery,
            &encode_query(alphabet_csv, pattern),
        )
    }

    /// One full *streaming* round trip: stream-query, then for each
    /// `chunk`-byte document frame one `MatchPart` reply (handed to
    /// `on_part` as it arrives — this is the earliest-delivery surface),
    /// then [`NetClient::finish_stream`], which verifies the parts
    /// against the final reply.
    ///
    /// # Errors
    ///
    /// As [`NetClient::read_stream_part`] and [`NetClient::finish_stream`];
    /// server-side failures come back as
    /// `Ok(NetResponse::ServerError { .. })`.
    pub fn stream_query(
        &mut self,
        pattern: &str,
        alphabet_csv: &str,
        doc: &[u8],
        chunk: usize,
        mut on_part: impl FnMut(&[StreamedMatch]),
    ) -> Result<NetResponse, FrameError> {
        self.send_stream_query(pattern, alphabet_csv)?;
        let mut parts = Vec::new();
        for seg in doc.chunks(chunk.max(1)) {
            self.send_chunk(seg)?;
            // Lock step: exactly one reply per chunk, read before the
            // next chunk goes out, so neither side blocks on a full
            // socket buffer.
            let from = parts.len();
            if let Some(failure) = self.read_stream_part(&mut parts)? {
                return Ok(failure);
            }
            on_part(&parts[from..]);
        }
        self.finish_stream(parts)
    }

    /// Reads the one reply a streamed chunk owes: a `MatchPart`, appended
    /// to `parts` (the matches received so far), or the server's typed
    /// failure, returned as `Some(NetResponse::ServerError { .. })`.
    ///
    /// # Errors
    ///
    /// Transport failures; a part that does not start where `parts`
    /// ends, or a reply of any other kind, is a
    /// [`FrameError::BadPayload`].
    pub fn read_stream_part(
        &mut self,
        parts: &mut Vec<StreamedMatch>,
    ) -> Result<Option<NetResponse>, FrameError> {
        let frame = read_frame(&mut self.stream, RESPONSE_MAX_FRAME_LEN)?;
        if frame.kind != FrameKind::MatchPart {
            return error_reply(frame.kind, &frame.payload, "a stream part").map(Some);
        }
        let (start, batch) = decode_match_part(&frame.payload)?;
        if start != parts.len() as u64 {
            return Err(FrameError::BadPayload {
                detail: format!(
                    "MATCH_PART starts at {start} but {} match(es) were received so far",
                    parts.len()
                ),
            });
        }
        parts.extend(batch);
        Ok(None)
    }

    /// Closes a streamed document and reads the final, cursor-carrying
    /// reply.  `parts` (every match [`NetClient::read_stream_part`]
    /// received) are verified against it three ways: their node ids must
    /// equal the final match list, the parts must tile the stream
    /// exactly (checked as each arrived), and their FNV-1a digest must
    /// equal the server's cursor digest.  Any disagreement is a typed
    /// [`FrameError::BadPayload`] — a corrupted or reordered stream can
    /// never be silently accepted.
    ///
    /// # Errors
    ///
    /// Transport failures and failed checks as [`FrameError`];
    /// server-side failures come back as
    /// `Ok(NetResponse::ServerError { .. })`.
    pub fn finish_stream(&mut self, parts: Vec<StreamedMatch>) -> Result<NetResponse, FrameError> {
        self.send_finish()?;
        let frame = read_frame(&mut self.stream, RESPONSE_MAX_FRAME_LEN)?;
        if frame.kind != FrameKind::Matches {
            return error_reply(frame.kind, &frame.payload, "a stream reply");
        }
        let (ids, cursor) = decode_matches_with_cursor(&frame.payload)?;
        let reference = EmissionCursor::over(&parts);
        if reference != cursor {
            return Err(FrameError::BadPayload {
                detail: format!(
                    "stream parts (count {}, digest {:#018x}) disagree with \
                     the final cursor (count {}, digest {:#018x})",
                    reference.count, reference.digest, cursor.count, cursor.digest
                ),
            });
        }
        if parts.iter().map(|m| m.node).ne(ids.iter().copied()) {
            return Err(FrameError::BadPayload {
                detail: "stream parts do not equal the final match list".to_owned(),
            });
        }
        Ok(NetResponse::StreamMatches { ids, parts, cursor })
    }

    /// One full round trip: query, document in `chunk`-byte frames,
    /// finish, reply.
    ///
    /// # Errors
    ///
    /// Transport failures as [`FrameError`]; server-side failures come
    /// back as `Ok(NetResponse::ServerError { .. })`.
    pub fn query(
        &mut self,
        pattern: &str,
        alphabet_csv: &str,
        doc: &[u8],
        chunk: usize,
    ) -> Result<NetResponse, FrameError> {
        self.send_query(pattern, alphabet_csv)?;
        self.stream_doc_and_finish(doc, chunk)
    }

    /// One full multi-query round trip.
    ///
    /// # Errors
    ///
    /// As [`NetClient::query`].
    pub fn multi_query<S: AsRef<str>>(
        &mut self,
        patterns: &[S],
        alphabet_csv: &str,
        doc: &[u8],
        chunk: usize,
    ) -> Result<NetResponse, FrameError> {
        self.send_multi_query(patterns, alphabet_csv)?;
        self.stream_doc_and_finish(doc, chunk)
    }

    fn stream_doc_and_finish(
        &mut self,
        doc: &[u8],
        chunk: usize,
    ) -> Result<NetResponse, FrameError> {
        for seg in doc.chunks(chunk.max(1)) {
            self.send_chunk(seg)?;
        }
        self.send_finish()?;
        self.read_response()
    }
}

/// A reply of `kind` where `expected` was due: an `Error` frame's typed
/// failure, anything else a [`FrameError::BadPayload`].
fn error_reply(kind: FrameKind, payload: &[u8], expected: &str) -> Result<NetResponse, FrameError> {
    if kind != FrameKind::Error {
        return Err(FrameError::BadPayload {
            detail: format!("server sent a {kind:?} frame as {expected}"),
        });
    }
    let (code, message) = decode_error(payload)?;
    Ok(NetResponse::ServerError { code, message })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Instant;

    /// The edge book's (records, in-flight bytes), once both reach zero
    /// or two seconds pass.
    fn book_after(server: &NetServer) -> (usize, usize) {
        let book = &server.inner.book;
        let deadline = Instant::now() + Duration::from_secs(2);
        loop {
            let state = (book.records(), book.in_flight());
            if state == (0, 0) || Instant::now() >= deadline {
                return state;
            }
            thread::sleep(Duration::from_millis(2));
        }
    }

    fn error_code(reply: NetResponse) -> u16 {
        match reply {
            NetResponse::ServerError { code, .. } => code,
            other => panic!("expected an error frame, got {other:?}"),
        }
    }

    #[test]
    fn edge_requests_leave_no_record_or_byte_in_the_book() {
        let cfg = NetConfig::default()
            .with_budget(ServiceBudget::default().with_max_in_flight_bytes(100))
            .with_shed_wait(Duration::from_millis(40));
        let server = NetServer::bind("127.0.0.1:0", cfg).unwrap();
        let addr = server.local_addr().to_string();
        let doc = b"<a><b></b><b><a></a></b></a>";

        // A completed request.
        let mut c = NetClient::connect(&addr).unwrap();
        let reply = c.query(".*a", "a,b", doc, 7).unwrap();
        assert_eq!(reply, NetResponse::Matches(vec![0, 3]));
        assert_eq!(book_after(&server), (0, 0), "after a completed request");

        // An ENGINE failure mid-upload.
        c.send_query(".*a", "a,b").unwrap();
        c.send_chunk(b"<a><>").unwrap();
        c.send_chunk(b"</a>").unwrap();
        c.send_finish().unwrap();
        assert_eq!(error_code(c.read_response().unwrap()), codes::ENGINE);
        assert_eq!(book_after(&server), (0, 0), "after an ENGINE failure");

        // A shed request: A parks 80 bytes, B's 50 cannot fit.
        let mut a = NetClient::connect(&addr).unwrap();
        a.send_query(".*a", "a").unwrap();
        let mut parked = b"<a>".to_vec();
        parked.extend_from_slice(&[b'x'; 73]);
        parked.extend_from_slice(b"</a>");
        a.send_chunk(&parked).unwrap();
        while server.stats().in_flight_bytes < 80 {
            thread::sleep(Duration::from_millis(2));
        }
        let mut b = NetClient::connect(&addr).unwrap();
        b.send_query(".*a", "a").unwrap();
        b.send_chunk(&[b'y'; 50]).unwrap();
        assert_eq!(error_code(b.read_response().unwrap()), codes::OVERLOADED);
        a.send_finish().unwrap();
        assert_eq!(a.read_response().unwrap(), NetResponse::Matches(vec![0]));
        assert_eq!(book_after(&server), (0, 0), "after a shed request");

        // A disconnect mid-upload.
        let mut d = NetClient::connect(&addr).unwrap();
        d.send_query(".*a", "a,b").unwrap();
        d.send_chunk(b"<a><b>").unwrap();
        while server.stats().in_flight_bytes < 6 {
            thread::sleep(Duration::from_millis(2));
        }
        drop(d);
        assert_eq!(book_after(&server), (0, 0), "after a mid-upload disconnect");
        assert_eq!(server.stats().requests, 5);
    }
}
