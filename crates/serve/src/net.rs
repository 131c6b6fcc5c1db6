//! The TCP front-end: a [`NetServer`] that speaks the [`crate::frame`]
//! protocol and streams document bytes straight into checkpointed
//! engine sessions, plus the small blocking [`NetClient`] the CLI,
//! tests, and the network chaos harness drive it with.
//!
//! Connection-level robustness is the point of this module:
//!
//! * **Deadlines.**  Every connection carries read and write deadlines
//!   (socket timeouts); expiry surfaces as a typed error
//!   ([`crate::error::codes::READ_TIMEOUT`] /
//!   [`crate::error::codes::WRITE_TIMEOUT`]) on the wire and a counter
//!   in the stats, never a hung handler.
//! * **Backpressure.**  Socket reads are tied to the service-level
//!   in-flight byte budget ([`crate::ServiceBudget`]): a chunk is not
//!   read past the budget — the handler first *waits* (bounded by
//!   [`NetConfig::shed_wait`], i.e. genuine backpressure: the TCP window
//!   fills and the client blocks), then *sheds* with a typed
//!   `OVERLOADED` error frame.  A document that could never fit the
//!   budget is rejected outright (`REJECTED`).
//! * **Slow-client detection.**  A min-throughput watchdog on the
//!   injectable clock ([`st_core::session::ClockFn`]) kills uploads
//!   whose sustained rate falls below the configured floor
//!   (`SLOW_CLIENT`), so a trickling client cannot squat a handler and
//!   budget bytes indefinitely.
//! * **Bounded buffers.**  The frame codec validates lengths before
//!   allocating; per-connection memory is bounded by
//!   [`NetConfig::max_frame_len`] plus the session state.
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
use st_core::queryset::{QuerySet, DEFAULT_PRODUCT_BUDGET};
use st_core::session::{monotonic_clock, ClockFn, SessionError};
use st_obs::{Counter, Gauge, Histogram, ObsHandle, TraceEvent};

use st_core::emit::{EmissionCursor, StreamedMatch};

use crate::config::ServiceBudget;
use crate::error::codes;
use crate::frame::{
    decode_error, decode_match_part, decode_matches, decode_matches_with_cursor,
    decode_multi_matches, decode_multi_query, decode_query, encode_error, encode_match_part,
    encode_matches, encode_matches_with_cursor, encode_multi_matches, encode_multi_query,
    encode_query, read_frame, read_frame_or_eof, read_preamble, write_frame, write_preamble, Frame,
    FrameError, FrameKind, DEFAULT_MAX_FRAME_LEN, RESPONSE_MAX_FRAME_LEN,
};

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
    /// Checkpoint cadence in document bytes: in-flight sessions mint a
    /// checkpoint after every this-many bytes, so a drain or post-mortem
    /// always has a recent resumable snapshot.
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
    /// Product-DFA state budget for multi-query requests (see
    /// [`QuerySet::compile_with_budget`]).
    pub product_budget: usize,
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
            product_budget: DEFAULT_PRODUCT_BUDGET,
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

    /// Sets the multi-query product-DFA state budget.
    pub fn with_product_budget(mut self, budget: usize) -> NetConfig {
        self.product_budget = budget;
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

#[derive(Default)]
struct NetCounters {
    connections: AtomicU64,
    refused: AtomicU64,
    requests: AtomicU64,
    completed: AtomicU64,
    failed: AtomicU64,
    read_timeouts: AtomicU64,
    write_timeouts: AtomicU64,
    slow_clients: AtomicU64,
    shed: AtomicU64,
    rejected: AtomicU64,
    bad_frames: AtomicU64,
    checkpoints: AtomicU64,
}

struct NetObs {
    conns_open: Gauge,
    connections: Counter,
    refused: Counter,
    requests: Counter,
    completed: Counter,
    failed: Counter,
    read_timeouts: Counter,
    write_timeouts: Counter,
    slow_clients: Counter,
    shed: Counter,
    rejected: Counter,
    bad_frames: Counter,
    checkpoints: Counter,
    /// Clock nanoseconds from a request's first frame to its settled
    /// reply (sub-millisecond requests land in their own log2 bucket).
    request_latency_ns: Histogram,
    request_bytes: Histogram,
}

impl NetObs {
    fn new(obs: &ObsHandle) -> NetObs {
        NetObs {
            conns_open: obs.gauge("net_connections_open"),
            connections: obs.counter("net_connections_total"),
            refused: obs.counter("net_refused_total"),
            requests: obs.counter("net_requests_total"),
            completed: obs.counter("net_completed_total"),
            failed: obs.counter("net_failed_total"),
            read_timeouts: obs.counter("net_read_timeouts_total"),
            write_timeouts: obs.counter("net_write_timeouts_total"),
            slow_clients: obs.counter("net_slow_clients_total"),
            shed: obs.counter("net_shed_total"),
            rejected: obs.counter("net_rejected_total"),
            bad_frames: obs.counter("net_bad_frames_total"),
            checkpoints: obs.counter("net_checkpoints_total"),
            request_latency_ns: obs.histogram("net_request_latency_ns"),
            request_bytes: obs.histogram("net_request_doc_bytes"),
        }
    }
}

// ---------------------------------------------------------------------------
// Server
// ---------------------------------------------------------------------------

struct NetInner {
    cfg: NetConfig,
    clock: ClockFn,
    draining: AtomicBool,
    in_flight_bytes: AtomicUsize,
    open_conns: AtomicUsize,
    next_conn_id: AtomicU64,
    cache: Arc<PlanCache>,
    /// `try_clone`d handles of live connections, so shutdown can cut
    /// through reads blocked on their socket deadline.
    conns: Mutex<HashMap<u64, TcpStream>>,
    handlers: Mutex<Vec<JoinHandle<()>>>,
    c: NetCounters,
    o: NetObs,
}

impl NetInner {
    fn now_ms(&self) -> u64 {
        self.now_ns() / 1_000_000
    }

    fn now_ns(&self) -> u64 {
        (self.clock)().as_nanos() as u64
    }

    fn release_bytes(&self, n: usize) {
        if n > 0 {
            self.in_flight_bytes.fetch_sub(n, Ordering::SeqCst);
        }
    }

    /// Charges `n` bytes against the in-flight budget, waiting (bounded
    /// backpressure) then shedding.  `held` is what this request already
    /// holds, counted inside the budget.
    fn acquire_bytes(&self, n: usize, held: usize) -> Result<(), NetError> {
        let Some(cap) = self.cfg.budget.max_in_flight_bytes else {
            self.in_flight_bytes.fetch_add(n, Ordering::SeqCst);
            return Ok(());
        };
        if held.saturating_add(n) > cap {
            return Err(NetError::Rejected {
                reason: format!(
                    "document needs {} byte(s) in flight, budget is {cap}",
                    held + n
                ),
            });
        }
        let deadline = std::time::Instant::now() + self.cfg.shed_wait;
        loop {
            let res =
                self.in_flight_bytes
                    .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |cur| {
                        (cur + n <= cap).then_some(cur + n)
                    });
            if res.is_ok() {
                return Ok(());
            }
            if std::time::Instant::now() >= deadline {
                return Err(NetError::Overloaded {
                    held: self.in_flight_bytes.load(Ordering::SeqCst),
                    budget: cap,
                });
            }
            thread::sleep(Duration::from_millis(1));
        }
    }

    /// Bumps the per-cause counters of a request/connection failure.
    /// `ShuttingDown` is not a failure — it is the drain refusing new
    /// work — so it counts under `refused`, not `failed`.
    fn count_failure(&self, err: &NetError) {
        if matches!(err, NetError::ShuttingDown) {
            self.c.refused.fetch_add(1, Ordering::SeqCst);
            self.o.refused.incr();
            return;
        }
        self.c.failed.fetch_add(1, Ordering::SeqCst);
        self.o.failed.incr();
        match err {
            NetError::Frame(FrameError::Timeout) => {
                self.c.read_timeouts.fetch_add(1, Ordering::SeqCst);
                self.o.read_timeouts.incr();
            }
            NetError::WriteTimeout => {
                self.c.write_timeouts.fetch_add(1, Ordering::SeqCst);
                self.o.write_timeouts.incr();
            }
            NetError::SlowClient { .. } => {
                self.c.slow_clients.fetch_add(1, Ordering::SeqCst);
                self.o.slow_clients.incr();
            }
            NetError::Overloaded { .. } => {
                self.c.shed.fetch_add(1, Ordering::SeqCst);
                self.o.shed.incr();
            }
            NetError::Rejected { .. } => {
                self.c.rejected.fetch_add(1, Ordering::SeqCst);
                self.o.rejected.incr();
            }
            NetError::Frame(_) | NetError::Protocol { .. } | NetError::BadQuery { .. } => {
                self.c.bad_frames.fetch_add(1, Ordering::SeqCst);
                self.o.bad_frames.incr();
            }
            NetError::ShuttingDown | NetError::Engine(_) => {}
        }
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
        let clock = cfg.budget.session_limits.clock.unwrap_or(monotonic_clock);
        let cache = Arc::new(PlanCache::with_obs(cfg.plan_cache_capacity, &cfg.obs));
        let o = NetObs::new(&cfg.obs);
        let inner = Arc::new(NetInner {
            cfg,
            clock,
            draining: AtomicBool::new(false),
            in_flight_bytes: AtomicUsize::new(0),
            open_conns: AtomicUsize::new(0),
            next_conn_id: AtomicU64::new(1),
            cache,
            conns: Mutex::new(HashMap::new()),
            handlers: Mutex::new(Vec::new()),
            c: NetCounters::default(),
            o,
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
            connections: c.connections.load(Ordering::SeqCst),
            refused: c.refused.load(Ordering::SeqCst),
            open: self.inner.open_conns.load(Ordering::SeqCst) as u64,
            requests: c.requests.load(Ordering::SeqCst),
            completed: c.completed.load(Ordering::SeqCst),
            failed: c.failed.load(Ordering::SeqCst),
            read_timeouts: c.read_timeouts.load(Ordering::SeqCst),
            write_timeouts: c.write_timeouts.load(Ordering::SeqCst),
            slow_clients: c.slow_clients.load(Ordering::SeqCst),
            shed: c.shed.load(Ordering::SeqCst),
            rejected: c.rejected.load(Ordering::SeqCst),
            bad_frames: c.bad_frames.load(Ordering::SeqCst),
            checkpoints: c.checkpoints.load(Ordering::SeqCst),
            in_flight_bytes: self.inner.in_flight_bytes.load(Ordering::SeqCst) as u64,
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
                inner.c.connections.fetch_add(1, Ordering::SeqCst);
                inner.o.connections.incr();
                let refuse = if inner.draining.load(Ordering::SeqCst) {
                    Some((codes::SHUTTING_DOWN, "server is draining"))
                } else if inner.open_conns.load(Ordering::SeqCst) >= inner.cfg.max_connections {
                    Some((codes::OVERLOADED, "connection limit reached"))
                } else {
                    None
                };
                if let Some((code, msg)) = refuse {
                    inner.c.refused.fetch_add(1, Ordering::SeqCst);
                    inner.o.refused.incr();
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

fn handle_conn(inner: &Arc<NetInner>, mut stream: TcpStream, conn: u64) {
    let _ = stream.set_read_timeout(Some(inner.cfg.read_timeout));
    let _ = stream.set_write_timeout(Some(inner.cfg.write_timeout));
    let _ = stream.set_nodelay(true);
    inner.o.conns_open.add(1);
    inner.cfg.obs.trace(TraceEvent::ConnOpened { conn });
    let reason = match conn_loop(inner, &mut stream, conn) {
        Ok(reason) => reason,
        Err(e) => {
            inner.count_failure(&e);
            // Best-effort typed goodbye; the transport may already be gone.
            let _ = write_frame(
                &mut stream,
                FrameKind::Error,
                &encode_error(e.wire_code(), &e.to_string()),
            );
            e.class()
        }
    };
    inner.cfg.obs.trace(TraceEvent::ConnClosed { conn, reason });
    inner.o.conns_open.add(-1);
    inner.open_conns.fetch_sub(1, Ordering::SeqCst);
    inner
        .conns
        .lock()
        .unwrap_or_else(|p| p.into_inner())
        .remove(&conn);
}

/// The per-connection protocol loop.  `Ok` carries the close reason of
/// a polite shutdown; `Err` closes the connection after a typed error
/// frame.  Any request-level error closes the connection — a client
/// whose stream position is ambiguous cannot be safely resynchronized.
fn conn_loop(
    inner: &Arc<NetInner>,
    stream: &mut TcpStream,
    conn: u64,
) -> Result<&'static str, NetError> {
    read_preamble(stream)?;
    loop {
        if inner.draining.load(Ordering::SeqCst) {
            return Err(NetError::ShuttingDown);
        }
        let Some(frame) = read_frame_or_eof(stream, inner.cfg.max_frame_len)? else {
            return Ok("eof");
        };
        // Re-check after the (possibly long) blocking read: a request
        // arriving on an idle connection after the drain began is new
        // work, and new work is refused.
        if inner.draining.load(Ordering::SeqCst) {
            return Err(NetError::ShuttingDown);
        }
        match frame.kind {
            FrameKind::Query => {
                let (csv, pattern) = decode_query(&frame.payload)?;
                let compiled = parse_alphabet(&csv).and_then(|alphabet| {
                    inner
                        .cache
                        .get_or_compile(&pattern, &alphabet)
                        .map_err(|e| NetError::BadQuery {
                            detail: e.to_string(),
                        })
                });
                let query = match compiled {
                    Ok(q) => q,
                    Err(e) => return Err(drain_then_fail(inner, stream, e)),
                };
                inner.c.requests.fetch_add(1, Ordering::SeqCst);
                inner.o.requests.incr();
                serve_single(inner, stream, conn, &query)?;
            }
            FrameKind::StreamQuery => {
                let (csv, pattern) = decode_query(&frame.payload)?;
                let compiled = parse_alphabet(&csv).and_then(|alphabet| {
                    inner
                        .cache
                        .get_or_compile(&pattern, &alphabet)
                        .map_err(|e| NetError::BadQuery {
                            detail: e.to_string(),
                        })
                });
                let query = match compiled {
                    Ok(q) => q,
                    Err(e) => return Err(drain_then_fail(inner, stream, e)),
                };
                inner.c.requests.fetch_add(1, Ordering::SeqCst);
                inner.o.requests.incr();
                serve_single_stream(inner, stream, conn, &query)?;
            }
            FrameKind::MultiQuery => {
                let (csv, patterns) = decode_multi_query(&frame.payload)?;
                let compiled = parse_alphabet(&csv).and_then(|alphabet| {
                    QuerySet::compile_with_budget(&patterns, &alphabet, inner.cfg.product_budget)
                        .map_err(|e| NetError::BadQuery {
                            detail: e.to_string(),
                        })
                });
                let set = match compiled {
                    Ok(s) => s,
                    Err(e) => return Err(drain_then_fail(inner, stream, e)),
                };
                inner.c.requests.fetch_add(1, Ordering::SeqCst);
                inner.o.requests.incr();
                serve_multi(inner, stream, conn, &set)?;
            }
            other => {
                return Err(NetError::Protocol {
                    detail: format!("unexpected {other:?} frame outside a request"),
                })
            }
        }
    }
}

fn parse_alphabet(csv: &str) -> Result<Alphabet, NetError> {
    Alphabet::from_symbols(csv.split(',')).map_err(|e| NetError::BadQuery {
        detail: format!("bad alphabet: {e}"),
    })
}

/// Consumes the rest of a doomed request's upload (unbudgeted, frames
/// dropped on arrival), then reports `err`.
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
fn drain_then_fail(inner: &NetInner, stream: &mut TcpStream, err: NetError) -> NetError {
    let cap = inner.cfg.max_frame_len.saturating_mul(8);
    let mut drained = 0usize;
    loop {
        match read_frame(stream, inner.cfg.max_frame_len) {
            Ok(f) if f.kind == FrameKind::Chunk => {
                drained += f.payload.len();
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

/// Tracks the budget bytes and watchdog state of one in-flight upload;
/// releases the held bytes on drop, so every exit path — success,
/// typed error, or panic unwind — returns its budget.
struct Upload<'i> {
    inner: &'i NetInner,
    held: usize,
    fed: u64,
    since_checkpoint: usize,
    started_ns: u64,
}

impl<'i> Upload<'i> {
    fn new(inner: &'i NetInner) -> Upload<'i> {
        Upload {
            inner,
            held: 0,
            fed: 0,
            since_checkpoint: 0,
            started_ns: inner.now_ns(),
        }
    }

    /// Budget + watchdog gate for one arriving chunk.
    fn admit_chunk(&mut self, payload: &[u8]) -> Result<(), NetError> {
        if payload.is_empty() {
            return Err(NetError::Frame(FrameError::BadPayload {
                detail: "empty CHUNK frame".to_owned(),
            }));
        }
        self.inner.acquire_bytes(payload.len(), self.held)?;
        self.held += payload.len();
        self.fed += payload.len() as u64;
        if let Some(floor) = self.inner.cfg.min_throughput {
            let elapsed_ms = self
                .inner
                .now_ms()
                .saturating_sub(self.started_ns / 1_000_000);
            if elapsed_ms > self.inner.cfg.throughput_grace.as_millis() as u64
                && self.fed.saturating_mul(1000) < floor.saturating_mul(elapsed_ms)
            {
                return Err(NetError::SlowClient {
                    bytes: self.fed,
                    elapsed_ms,
                    floor,
                });
            }
        }
        Ok(())
    }

    /// Whether the session should mint a checkpoint after this chunk.
    fn checkpoint_due(&mut self, chunk_len: usize) -> bool {
        self.since_checkpoint += chunk_len;
        if self.since_checkpoint >= self.inner.cfg.checkpoint_every {
            self.since_checkpoint = 0;
            self.inner.c.checkpoints.fetch_add(1, Ordering::SeqCst);
            self.inner.o.checkpoints.incr();
            true
        } else {
            false
        }
    }

    /// Bytes fed and nanoseconds since the upload started.
    fn finish(self) -> (u64, u64) {
        let latency_ns = self.inner.now_ns().saturating_sub(self.started_ns);
        (self.fed, latency_ns)
    }
}

impl Drop for Upload<'_> {
    fn drop(&mut self) {
        self.inner.release_bytes(self.held);
    }
}

/// Counts the request completed, then writes the success frame.  The
/// counter moves *before* the write so that a client that has read the
/// reply always observes settled stats — the same ordering the error
/// path gets from counting failures before the error frame.  (A reply
/// that then fails to write additionally counts as a write timeout.)
fn send_reply(
    inner: &NetInner,
    stream: &mut TcpStream,
    kind: FrameKind,
    payload: &[u8],
) -> Result<(), NetError> {
    inner.c.completed.fetch_add(1, Ordering::SeqCst);
    inner.o.completed.incr();
    write_frame(stream, kind, payload).map_err(|e| match e {
        FrameError::Timeout => NetError::WriteTimeout,
        other => NetError::Frame(other),
    })
}

fn serve_single(
    inner: &NetInner,
    stream: &mut TcpStream,
    _conn: u64,
    query: &st_core::Query,
) -> Result<(), NetError> {
    let limits = inner.cfg.budget.session_limits_for(None, &inner.cfg.obs);
    let mut session = query.session(limits);
    let mut upload = Upload::new(inner);
    loop {
        let frame = read_frame(stream, inner.cfg.max_frame_len)?;
        match frame.kind {
            FrameKind::Chunk => {
                upload.admit_chunk(&frame.payload)?;
                if let Err(e) = session.feed(&frame.payload) {
                    // Content-determined failure mid-upload: swallow the
                    // rest so the typed error outlives the connection
                    // teardown (see `drain_then_fail`).
                    return Err(drain_then_fail(inner, stream, NetError::Engine(e)));
                }
                if upload.checkpoint_due(frame.payload.len()) {
                    let _ = session.checkpoint();
                }
            }
            FrameKind::Finish => {
                require_empty_finish(&frame)?;
                let outcome = session.finish().map_err(NetError::Engine)?;
                // Settle the budget and the histograms before the reply
                // goes out, so a client that has read it observes final
                // stats (no in-flight residue, counters moved).
                let (fed, latency_ns) = upload.finish();
                inner.o.request_bytes.record(fed);
                inner.o.request_latency_ns.record(latency_ns);
                send_reply(
                    inner,
                    stream,
                    FrameKind::Matches,
                    &encode_matches(&outcome.matches),
                )?;
                return Ok(());
            }
            other => {
                return Err(NetError::Protocol {
                    detail: format!("unexpected {other:?} frame inside a request"),
                })
            }
        }
    }
}

/// The streaming variant of [`serve_single`]: every `Chunk` is answered
/// with exactly one `MatchPart` carrying the matches that crossed the
/// certainty frontier during it (possibly zero), and the final `Matches`
/// reply carries the emission cursor so the client can verify that the
/// parts it accumulated are bitwise the stream the server delivered.
///
/// The strict lock step — the client must read each part before sending
/// its next chunk — is what makes the path deadlock-free under every
/// deadline/backpressure interaction: neither side ever has more than
/// one frame in flight toward a peer that is not reading.
fn serve_single_stream(
    inner: &NetInner,
    stream: &mut TcpStream,
    _conn: u64,
    query: &st_core::Query,
) -> Result<(), NetError> {
    let limits = inner.cfg.budget.session_limits_for(None, &inner.cfg.obs);
    let mut session = query.session(limits);
    let mut upload = Upload::new(inner);
    loop {
        let frame = read_frame(stream, inner.cfg.max_frame_len)?;
        match frame.kind {
            FrameKind::Chunk => {
                upload.admit_chunk(&frame.payload)?;
                if let Err(e) = session.feed(&frame.payload) {
                    return Err(drain_then_fail(inner, stream, NetError::Engine(e)));
                }
                if upload.checkpoint_due(frame.payload.len()) {
                    let _ = session.checkpoint();
                }
                let batch = session.drain_emitted();
                let start = session.emission_cursor().count - batch.len() as u64;
                write_frame(
                    stream,
                    FrameKind::MatchPart,
                    &encode_match_part(start, &batch),
                )
                .map_err(|e| match e {
                    FrameError::Timeout => NetError::WriteTimeout,
                    other => NetError::Frame(other),
                })?;
            }
            FrameKind::Finish => {
                require_empty_finish(&frame)?;
                let outcome = session.finish().map_err(NetError::Engine)?;
                let (fed, latency_ns) = upload.finish();
                inner.o.request_bytes.record(fed);
                inner.o.request_latency_ns.record(latency_ns);
                send_reply(
                    inner,
                    stream,
                    FrameKind::Matches,
                    &encode_matches_with_cursor(&outcome.matches, outcome.cursor),
                )?;
                return Ok(());
            }
            other => {
                return Err(NetError::Protocol {
                    detail: format!("unexpected {other:?} frame inside a request"),
                })
            }
        }
    }
}

fn serve_multi(
    inner: &NetInner,
    stream: &mut TcpStream,
    _conn: u64,
    set: &QuerySet,
) -> Result<(), NetError> {
    let limits = inner.cfg.budget.session_limits_for(None, &inner.cfg.obs);
    let mut session = set.session(limits);
    let mut upload = Upload::new(inner);
    loop {
        let frame = read_frame(stream, inner.cfg.max_frame_len)?;
        match frame.kind {
            FrameKind::Chunk => {
                upload.admit_chunk(&frame.payload)?;
                if let Err(e) = session.feed(&frame.payload) {
                    return Err(drain_then_fail(inner, stream, NetError::Engine(e)));
                }
                if upload.checkpoint_due(frame.payload.len()) {
                    let _ = session.checkpoint();
                }
            }
            FrameKind::Finish => {
                require_empty_finish(&frame)?;
                let outcome = session.finish().map_err(NetError::Engine)?;
                let (fed, latency_ns) = upload.finish();
                inner.o.request_bytes.record(fed);
                inner.o.request_latency_ns.record(latency_ns);
                send_reply(
                    inner,
                    stream,
                    FrameKind::MultiMatches,
                    &encode_multi_matches(&outcome.matches),
                )?;
                return Ok(());
            }
            other => {
                return Err(NetError::Protocol {
                    detail: format!("unexpected {other:?} frame inside a request"),
                })
            }
        }
    }
}

fn require_empty_finish(frame: &Frame) -> Result<(), NetError> {
    if frame.payload.is_empty() {
        Ok(())
    } else {
        Err(NetError::Frame(FrameError::BadPayload {
            detail: format!(
                "FINISH carries {} payload byte(s); it must be empty",
                frame.payload.len()
            ),
        }))
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
            FrameKind::Error => {
                let (code, message) = decode_error(&frame.payload)?;
                Ok(NetResponse::ServerError { code, message })
            }
            other => Err(FrameError::BadPayload {
                detail: format!("server sent a {other:?} frame as a reply"),
            }),
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
    /// then finish and the final cursor-carrying reply.
    ///
    /// Before returning, the accumulated parts are verified against the
    /// server's final answer three ways: their node ids must equal the
    /// final match list, the parts must tile the stream exactly (each
    /// starting where the previous ended), and their FNV-1a digest must
    /// equal the server's cursor digest.  Any disagreement is a typed
    /// [`FrameError::BadPayload`] — a corrupted or reordered stream can
    /// never be silently accepted.
    ///
    /// # Errors
    ///
    /// Transport failures as [`FrameError`]; server-side failures come
    /// back as `Ok(NetResponse::ServerError { .. })`.
    pub fn stream_query(
        &mut self,
        pattern: &str,
        alphabet_csv: &str,
        doc: &[u8],
        chunk: usize,
        mut on_part: impl FnMut(&[StreamedMatch]),
    ) -> Result<NetResponse, FrameError> {
        self.send_stream_query(pattern, alphabet_csv)?;
        let mut parts: Vec<StreamedMatch> = Vec::new();
        for seg in doc.chunks(chunk.max(1)) {
            self.send_chunk(seg)?;
            // Lock step: exactly one reply per chunk, read before the
            // next chunk goes out, so neither side blocks on a full
            // socket buffer.
            let frame = read_frame(&mut self.stream, RESPONSE_MAX_FRAME_LEN)?;
            match frame.kind {
                FrameKind::MatchPart => {
                    let (start, batch) = decode_match_part(&frame.payload)?;
                    if start != parts.len() as u64 {
                        return Err(FrameError::BadPayload {
                            detail: format!(
                                "MATCH_PART starts at {start} but {} match(es) \
                                 were received so far",
                                parts.len()
                            ),
                        });
                    }
                    on_part(&batch);
                    parts.extend_from_slice(&batch);
                }
                FrameKind::Error => {
                    let (code, message) = decode_error(&frame.payload)?;
                    return Ok(NetResponse::ServerError { code, message });
                }
                other => {
                    return Err(FrameError::BadPayload {
                        detail: format!("server sent a {other:?} frame as a stream part"),
                    })
                }
            }
        }
        self.send_finish()?;
        let frame = read_frame(&mut self.stream, RESPONSE_MAX_FRAME_LEN)?;
        match frame.kind {
            FrameKind::Matches => {
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
            FrameKind::Error => {
                let (code, message) = decode_error(&frame.payload)?;
                Ok(NetResponse::ServerError { code, message })
            }
            other => Err(FrameError::BadPayload {
                detail: format!("server sent a {other:?} frame as a stream reply"),
            }),
        }
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
