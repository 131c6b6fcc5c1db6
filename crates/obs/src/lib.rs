//! Zero-dependency observability core for the stackless streamed-trees
//! engines: a lock-cheap metrics registry plus a bounded structured
//! event trace.
//!
//! The crate is deliberately tiny and self-contained (no non-workspace
//! dependencies) so every layer of the stack — `st_core::engine`
//! one-shot runs, `st_core::session` streaming sessions, and the
//! `st_serve` supervised runtime — can carry an [`ObsHandle`] without
//! pulling a metrics ecosystem into the build:
//!
//! * **Metrics** — named [`Counter`]s and [`Gauge`]s are single atomics;
//!   [`Histogram`]s use a fixed array of base-2 (log2) buckets.  The
//!   registry lock is taken only at *registration* (once per metric
//!   name); the hot path is pure `fetch_add`/`store` on pre-resolved
//!   `Arc`s.
//! * **Trace** — a bounded ring buffer of structured [`TraceEvent`]s
//!   (session lifecycle, limit breaches with byte offsets, supervisor
//!   decisions, admission-control verdicts).  When full, the oldest
//!   records are evicted; memory stays bounded no matter how long a
//!   soak runs.
//! * **No-op by default** — a disabled handle ([`ObsHandle::disabled`],
//!   also `Default`) resolves every metric to a `None` cell: recording
//!   is a branch on an `Option` and nothing else, cheap enough to leave
//!   in library code paths (budget: ≤2% on E19-style fused-count runs).
//! * **Export** — [`ObsHandle::snapshot`] freezes the registry into a
//!   [`Snapshot`] that serializes to JSON ([`Snapshot::to_json`]) and to
//!   the Prometheus text exposition format
//!   ([`Snapshot::to_prometheus`]), with a parser
//!   ([`Snapshot::parse_prometheus`]) used by the round-trip tests.
//!
//! ```
//! use st_obs::{ObsHandle, TraceEvent};
//!
//! let obs = ObsHandle::new();
//! let bytes = obs.counter("engine_bytes_total");
//! bytes.add(4096);
//! obs.trace(TraceEvent::SessionStart { session: 1 });
//! let snap = obs.snapshot();
//! assert_eq!(snap.counter("engine_bytes_total"), Some(4096));
//! let text = snap.to_prometheus();
//! assert_eq!(st_obs::Snapshot::parse_prometheus(&text).unwrap(), snap);
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

use std::collections::BTreeMap;
use std::collections::VecDeque;
use std::fmt;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Number of histogram buckets: one for zero, one per bit length
/// `1..=64`.  A value `v > 0` lands in bucket `bit_length(v)`, i.e.
/// bucket `i` covers `[2^(i-1), 2^i - 1]`.
pub const HISTOGRAM_BUCKETS: usize = 65;

/// Default capacity of the bounded trace ring.
pub const DEFAULT_TRACE_CAPACITY: usize = 4096;

fn bucket_index(value: u64) -> usize {
    (u64::BITS - value.leading_zeros()) as usize
}

// ---------------------------------------------------------------------------
// Metric cells
// ---------------------------------------------------------------------------

/// A monotonically increasing counter.  Cloning shares the cell; a
/// counter resolved from a disabled handle is a no-op.
#[derive(Clone, Default)]
pub struct Counter(Option<Arc<AtomicU64>>);

impl Counter {
    /// A counter that records nothing (what disabled handles return).
    pub fn noop() -> Self {
        Counter(None)
    }

    /// Adds `n` to the counter.
    #[inline]
    pub fn add(&self, n: u64) {
        if let Some(cell) = &self.0 {
            cell.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Adds one to the counter.
    #[inline]
    pub fn incr(&self) {
        self.add(1);
    }

    /// Current value (0 for a no-op counter).
    pub fn get(&self) -> u64 {
        self.0.as_ref().map_or(0, |c| c.load(Ordering::Relaxed))
    }
}

/// A signed instantaneous value (queue depth, bytes in flight).
#[derive(Clone, Default)]
pub struct Gauge(Option<Arc<AtomicI64>>);

impl Gauge {
    /// A gauge that records nothing.
    pub fn noop() -> Self {
        Gauge(None)
    }

    /// Sets the gauge to `v`.
    #[inline]
    pub fn set(&self, v: i64) {
        if let Some(cell) = &self.0 {
            cell.store(v, Ordering::Relaxed);
        }
    }

    /// Adds `delta` (may be negative) to the gauge.
    #[inline]
    pub fn add(&self, delta: i64) {
        if let Some(cell) = &self.0 {
            cell.fetch_add(delta, Ordering::Relaxed);
        }
    }

    /// Current value (0 for a no-op gauge).
    pub fn get(&self) -> i64 {
        self.0.as_ref().map_or(0, |c| c.load(Ordering::Relaxed))
    }
}

struct HistogramCells {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    sum: AtomicU64,
    count: AtomicU64,
}

impl HistogramCells {
    fn new() -> Self {
        HistogramCells {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            sum: AtomicU64::new(0),
            count: AtomicU64::new(0),
        }
    }
}

/// A fixed-bucket log2 histogram: bucket `i > 0` holds values whose bit
/// length is `i` (i.e. `2^(i-1) ..= 2^i - 1`); bucket 0 holds zeros.
#[derive(Clone, Default)]
pub struct Histogram(Option<Arc<HistogramCells>>);

impl Histogram {
    /// A histogram that records nothing.
    pub fn noop() -> Self {
        Histogram(None)
    }

    /// Records one observation of `value`.
    #[inline]
    pub fn record(&self, value: u64) {
        if let Some(cells) = &self.0 {
            cells.buckets[bucket_index(value)].fetch_add(1, Ordering::Relaxed);
            cells.sum.fetch_add(value, Ordering::Relaxed);
            cells.count.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Total number of observations (0 for a no-op histogram).
    pub fn count(&self) -> u64 {
        self.0
            .as_ref()
            .map_or(0, |c| c.count.load(Ordering::Relaxed))
    }
}

// ---------------------------------------------------------------------------
// Trace events
// ---------------------------------------------------------------------------

/// One structured event in the bounded trace ring.
///
/// Core-session events are keyed by a `session` id drawn from
/// [`ObsHandle::next_session_id`]; serving-runtime events are keyed by
/// the runtime's `job` id, and [`TraceEvent::JobSession`] links the two
/// id spaces so a post-mortem can stitch a request's full history
/// together ([`ObsHandle::trace_for_job`]).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TraceEvent {
    /// A streaming session came up fresh.
    SessionStart {
        /// Session id from [`ObsHandle::next_session_id`].
        session: u64,
    },
    /// A chunk of bytes was fed to a session.
    SessionFeed {
        /// Session id.
        session: u64,
        /// Stream offset *before* this feed.
        offset: u64,
        /// Bytes fed in this call.
        bytes: u64,
    },
    /// A checkpoint was captured.
    SessionCheckpoint {
        /// Session id.
        session: u64,
        /// Stream offset the checkpoint covers.
        offset: u64,
    },
    /// A session was reconstructed from a checkpoint.
    SessionResume {
        /// Session id (fresh id for the resumed session).
        session: u64,
        /// Stream offset the resume starts from.
        offset: u64,
    },
    /// A resource guard tripped (a `st_core::session::Limits` breach).
    LimitBreach {
        /// Session id.
        session: u64,
        /// Which guard tripped (e.g. `"depth"`, `"bytes"`, `"time"`).
        kind: &'static str,
        /// Stream offset at the breach.
        offset: u64,
    },
    /// Links a serving-runtime job to the core session driving it.
    JobSession {
        /// Serving-runtime job id.
        job: u64,
        /// Core session id.
        session: u64,
    },
    /// A request was admitted into the serving queue.
    JobAdmitted {
        /// Job id.
        job: u64,
        /// Document size in bytes.
        bytes: u64,
    },
    /// A worker died by panic while running a job.
    WorkerPanic {
        /// Job id.
        job: u64,
        /// Attempt number that died.
        attempt: u32,
    },
    /// The supervisor declared a worker stalled.
    WorkerStall {
        /// Job id.
        job: u64,
        /// Attempt number that stalled.
        attempt: u32,
        /// Milliseconds of heartbeat silence when declared.
        silent_ms: u64,
    },
    /// A victim's request resumed from its checkpoint on a healthy
    /// worker.
    Failover {
        /// Job id.
        job: u64,
        /// The new attempt number.
        attempt: u32,
        /// Stream offset the resume starts from.
        offset: u64,
    },
    /// A failed attempt was requeued for retry.
    Retry {
        /// Job id.
        job: u64,
        /// The attempt that failed.
        attempt: u32,
        /// Backoff applied before the retry, in milliseconds.
        backoff_ms: u64,
    },
    /// A chaos-injected corrupt segment was detected.
    SegmentCorrupted {
        /// Job id.
        job: u64,
        /// Attempt number observing the corruption.
        attempt: u32,
    },
    /// The bounded queue shed a request.
    QueueShed {
        /// Queue length at the shed.
        queue_len: u64,
        /// Queue capacity.
        capacity: u64,
    },
    /// The in-flight byte budget rejected a request.
    BudgetReject {
        /// Bytes the rejected request asked for.
        requested: u64,
        /// Bytes already in flight.
        held: u64,
        /// The configured budget.
        budget: u64,
    },
    /// A request completed successfully.
    JobCompleted {
        /// Job id.
        job: u64,
        /// Attempts consumed (1 = first try).
        attempts: u32,
        /// Matches produced.
        matches: u64,
    },
    /// A request failed terminally.
    JobFailed {
        /// Job id.
        job: u64,
        /// Attempts consumed.
        attempts: u32,
        /// Failure class (e.g. `"worker-panic"`).
        cause: &'static str,
    },
    /// A network connection was accepted by the TCP front-end.
    ConnOpened {
        /// Connection id (the front-end's own id space).
        conn: u64,
    },
    /// A network connection closed.
    ConnClosed {
        /// Connection id.
        conn: u64,
        /// Why it closed (e.g. `"eof"`, `"read-timeout"`,
        /// `"slow-client"`, `"drain"`).
        reason: &'static str,
    },
}

impl TraceEvent {
    /// The serving-runtime job id this event is keyed by, if any.
    pub fn job_id(&self) -> Option<u64> {
        use TraceEvent::*;
        match self {
            JobSession { job, .. }
            | JobAdmitted { job, .. }
            | WorkerPanic { job, .. }
            | WorkerStall { job, .. }
            | Failover { job, .. }
            | Retry { job, .. }
            | SegmentCorrupted { job, .. }
            | JobCompleted { job, .. }
            | JobFailed { job, .. } => Some(*job),
            _ => None,
        }
    }

    /// The core-session id this event is keyed by, if any.
    pub fn session_id(&self) -> Option<u64> {
        use TraceEvent::*;
        match self {
            SessionStart { session }
            | SessionFeed { session, .. }
            | SessionCheckpoint { session, .. }
            | SessionResume { session, .. }
            | LimitBreach { session, .. }
            | JobSession { session, .. } => Some(*session),
            _ => None,
        }
    }
}

impl fmt::Display for TraceEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        use TraceEvent::*;
        match self {
            SessionStart { session } => write!(f, "session {session}: start"),
            SessionFeed {
                session,
                offset,
                bytes,
            } => write!(
                f,
                "session {session}: feed {bytes} byte(s) at offset {offset}"
            ),
            SessionCheckpoint { session, offset } => {
                write!(f, "session {session}: checkpoint at offset {offset}")
            }
            SessionResume { session, offset } => {
                write!(f, "session {session}: resume from offset {offset}")
            }
            LimitBreach {
                session,
                kind,
                offset,
            } => write!(
                f,
                "session {session}: {kind} limit breached at offset {offset}"
            ),
            JobSession { job, session } => {
                write!(f, "job {job}: driven by session {session}")
            }
            JobAdmitted { job, bytes } => write!(f, "job {job}: admitted ({bytes} byte(s))"),
            WorkerPanic { job, attempt } => {
                write!(f, "job {job}: worker panic on attempt {attempt}")
            }
            WorkerStall {
                job,
                attempt,
                silent_ms,
            } => write!(
                f,
                "job {job}: worker stalled on attempt {attempt} ({silent_ms} ms silent)"
            ),
            Failover {
                job,
                attempt,
                offset,
            } => write!(
                f,
                "job {job}: failover, attempt {attempt} resumes from offset {offset}"
            ),
            Retry {
                job,
                attempt,
                backoff_ms,
            } => write!(
                f,
                "job {job}: attempt {attempt} failed, retrying after {backoff_ms} ms"
            ),
            SegmentCorrupted { job, attempt } => {
                write!(f, "job {job}: corrupt segment on attempt {attempt}")
            }
            QueueShed {
                queue_len,
                capacity,
            } => {
                write!(f, "queue shed: {queue_len}/{capacity} entries held")
            }
            BudgetReject {
                requested,
                held,
                budget,
            } => write!(
                f,
                "budget reject: {requested} byte(s) requested, {held}/{budget} in flight"
            ),
            JobCompleted {
                job,
                attempts,
                matches,
            } => write!(
                f,
                "job {job}: completed with {matches} match(es) in {attempts} attempt(s)"
            ),
            JobFailed {
                job,
                attempts,
                cause,
            } => write!(f, "job {job}: failed ({cause}) after {attempts} attempt(s)"),
            ConnOpened { conn } => write!(f, "conn {conn}: opened"),
            ConnClosed { conn, reason } => write!(f, "conn {conn}: closed ({reason})"),
        }
    }
}

/// A trace ring entry: the event plus a monotonically increasing
/// sequence number (global across the handle, so gaps reveal eviction).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TraceRecord {
    /// Position in the global event sequence (0-based).
    pub seq: u64,
    /// The event.
    pub event: TraceEvent,
}

impl fmt::Display for TraceRecord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{:>6}] {}", self.seq, self.event)
    }
}

// ---------------------------------------------------------------------------
// Registry + handle
// ---------------------------------------------------------------------------

struct TraceRing {
    capacity: usize,
    next_seq: u64,
    records: VecDeque<TraceRecord>,
}

struct ObsCore {
    counters: Mutex<BTreeMap<String, Arc<AtomicU64>>>,
    gauges: Mutex<BTreeMap<String, Arc<AtomicI64>>>,
    histograms: Mutex<BTreeMap<String, Arc<HistogramCells>>>,
    ring: Mutex<TraceRing>,
    session_ids: AtomicU64,
}

/// The shared observability handle.
///
/// Cloning is cheap (an `Arc` bump) and all clones feed the same
/// registry and ring.  The [`ObsHandle::disabled`] handle (also the
/// `Default`) carries no storage at all: every metric it resolves is a
/// no-op cell and [`ObsHandle::trace`] returns immediately.
#[derive(Clone, Default)]
pub struct ObsHandle(Option<Arc<ObsCore>>);

impl fmt::Debug for ObsHandle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(if self.is_enabled() {
            "ObsHandle(enabled)"
        } else {
            "ObsHandle(disabled)"
        })
    }
}

impl ObsHandle {
    /// An enabled handle with the default trace capacity.
    pub fn new() -> Self {
        Self::with_trace_capacity(DEFAULT_TRACE_CAPACITY)
    }

    /// An enabled handle whose trace ring keeps at most `capacity`
    /// records (oldest evicted first; capacity 0 disables tracing but
    /// keeps metrics).
    pub fn with_trace_capacity(capacity: usize) -> Self {
        ObsHandle(Some(Arc::new(ObsCore {
            counters: Mutex::new(BTreeMap::new()),
            gauges: Mutex::new(BTreeMap::new()),
            histograms: Mutex::new(BTreeMap::new()),
            ring: Mutex::new(TraceRing {
                capacity,
                next_seq: 0,
                records: VecDeque::new(),
            }),
            session_ids: AtomicU64::new(1),
        })))
    }

    /// The no-op handle: records nothing, costs a branch per call.
    pub fn disabled() -> Self {
        ObsHandle(None)
    }

    /// Whether this handle actually records.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.0.is_some()
    }

    /// Resolves (registering on first use) the counter named `name`.
    ///
    /// Names should match `[a-zA-Z_][a-zA-Z0-9_]*` so the Prometheus
    /// export stays well-formed.  Resolution takes the registry lock;
    /// hold the returned [`Counter`] rather than re-resolving per event.
    pub fn counter(&self, name: &str) -> Counter {
        match &self.0 {
            None => Counter(None),
            Some(core) => {
                let mut map = core.counters.lock().unwrap();
                Counter(Some(Arc::clone(map.entry(name.to_string()).or_default())))
            }
        }
    }

    /// Resolves (registering on first use) the gauge named `name`.
    pub fn gauge(&self, name: &str) -> Gauge {
        match &self.0 {
            None => Gauge(None),
            Some(core) => {
                let mut map = core.gauges.lock().unwrap();
                Gauge(Some(Arc::clone(map.entry(name.to_string()).or_default())))
            }
        }
    }

    /// Resolves (registering on first use) the histogram named `name`.
    pub fn histogram(&self, name: &str) -> Histogram {
        match &self.0 {
            None => Histogram(None),
            Some(core) => {
                let mut map = core.histograms.lock().unwrap();
                Histogram(Some(Arc::clone(
                    map.entry(name.to_string())
                        .or_insert_with(|| Arc::new(HistogramCells::new())),
                )))
            }
        }
    }

    /// Draws a fresh session id (1-based; 0 when disabled, so disabled
    /// sessions never collide with real ones).
    pub fn next_session_id(&self) -> u64 {
        match &self.0 {
            None => 0,
            Some(core) => core.session_ids.fetch_add(1, Ordering::Relaxed),
        }
    }

    /// Appends `event` to the trace ring (evicting the oldest record if
    /// full).  No-op on a disabled handle.
    pub fn trace(&self, event: TraceEvent) {
        if let Some(core) = &self.0 {
            let mut ring = core.ring.lock().unwrap();
            if ring.capacity == 0 {
                return;
            }
            let seq = ring.next_seq;
            ring.next_seq += 1;
            if ring.records.len() == ring.capacity {
                ring.records.pop_front();
            }
            ring.records.push_back(TraceRecord { seq, event });
        }
    }

    /// All records currently held by the ring, oldest first.
    pub fn trace_records(&self) -> Vec<TraceRecord> {
        match &self.0 {
            None => Vec::new(),
            Some(core) => core.ring.lock().unwrap().records.iter().cloned().collect(),
        }
    }

    /// Records relevant to serving-runtime job `job`: events keyed by
    /// the job id itself plus events of any core session linked to it
    /// via [`TraceEvent::JobSession`].  Oldest first.
    pub fn trace_for_job(&self, job: u64) -> Vec<TraceRecord> {
        let records = self.trace_records();
        let sessions: std::collections::BTreeSet<u64> = records
            .iter()
            .filter_map(|r| match r.event {
                TraceEvent::JobSession { job: j, session } if j == job => Some(session),
                _ => None,
            })
            .collect();
        records
            .into_iter()
            .filter(|r| {
                r.event.job_id() == Some(job)
                    || r.event.session_id().is_some_and(|s| sessions.contains(&s))
            })
            .collect()
    }

    /// Freezes every registered metric into a [`Snapshot`].
    pub fn snapshot(&self) -> Snapshot {
        let mut snap = Snapshot::default();
        if let Some(core) = &self.0 {
            for (name, cell) in core.counters.lock().unwrap().iter() {
                snap.counters
                    .insert(name.clone(), cell.load(Ordering::Relaxed));
            }
            for (name, cell) in core.gauges.lock().unwrap().iter() {
                snap.gauges
                    .insert(name.clone(), cell.load(Ordering::Relaxed));
            }
            for (name, cells) in core.histograms.lock().unwrap().iter() {
                let mut buckets: Vec<u64> = cells
                    .buckets
                    .iter()
                    .map(|b| b.load(Ordering::Relaxed))
                    .collect();
                while buckets.last() == Some(&0) {
                    buckets.pop();
                }
                snap.histograms.insert(
                    name.clone(),
                    HistogramSnapshot {
                        sum: cells.sum.load(Ordering::Relaxed),
                        count: cells.count.load(Ordering::Relaxed),
                        buckets,
                    },
                );
            }
        }
        snap
    }
}

// ---------------------------------------------------------------------------
// Snapshot + export
// ---------------------------------------------------------------------------

/// A frozen histogram: per-bucket (non-cumulative) counts with trailing
/// zero buckets trimmed, plus the running sum and total count.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Sum of all recorded values.
    pub sum: u64,
    /// Number of recorded values.
    pub count: u64,
    /// Per-bucket counts, index = bit length (`buckets[0]` = zeros).
    pub buckets: Vec<u64>,
}

/// A point-in-time copy of every registered metric, ready for export.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Snapshot {
    /// Counter values by name.
    pub counters: BTreeMap<String, u64>,
    /// Gauge values by name.
    pub gauges: BTreeMap<String, i64>,
    /// Histograms by name.
    pub histograms: BTreeMap<String, HistogramSnapshot>,
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

impl Snapshot {
    /// Value of counter `name`, if registered.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters.get(name).copied()
    }

    /// Value of gauge `name`, if registered.
    pub fn gauge(&self, name: &str) -> Option<i64> {
        self.gauges.get(name).copied()
    }

    /// Histogram `name`, if registered.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms.get(name)
    }

    /// Serializes the snapshot as a single JSON object with `counters`,
    /// `gauges`, and `histograms` members (names sorted, stable across
    /// runs).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n  \"counters\": {");
        let mut first = true;
        for (name, v) in &self.counters {
            if !first {
                out.push(',');
            }
            first = false;
            out.push_str(&format!("\n    \"{}\": {v}", json_escape(name)));
        }
        out.push_str(if first { "},\n" } else { "\n  },\n" });
        out.push_str("  \"gauges\": {");
        first = true;
        for (name, v) in &self.gauges {
            if !first {
                out.push(',');
            }
            first = false;
            out.push_str(&format!("\n    \"{}\": {v}", json_escape(name)));
        }
        out.push_str(if first { "},\n" } else { "\n  },\n" });
        out.push_str("  \"histograms\": {");
        first = true;
        for (name, h) in &self.histograms {
            if !first {
                out.push(',');
            }
            first = false;
            let buckets: Vec<String> = h.buckets.iter().map(|b| b.to_string()).collect();
            out.push_str(&format!(
                "\n    \"{}\": {{\"count\": {}, \"sum\": {}, \"buckets\": [{}]}}",
                json_escape(name),
                h.count,
                h.sum,
                buckets.join(", ")
            ));
        }
        out.push_str(if first { "}\n" } else { "\n  }\n" });
        out.push('}');
        out.push('\n');
        out
    }

    /// Serializes the snapshot in the Prometheus text exposition
    /// format.  Histogram buckets are emitted cumulatively with
    /// `le="2^i - 1"` upper bounds (the log2 bucket scheme) plus the
    /// standard `+Inf`/`_sum`/`_count` series.
    pub fn to_prometheus(&self) -> String {
        let mut out = String::new();
        for (name, v) in &self.counters {
            out.push_str(&format!("# TYPE {name} counter\n{name} {v}\n"));
        }
        for (name, v) in &self.gauges {
            out.push_str(&format!("# TYPE {name} gauge\n{name} {v}\n"));
        }
        for (name, h) in &self.histograms {
            out.push_str(&format!("# TYPE {name} histogram\n"));
            let mut cumulative = 0u64;
            for (i, b) in h.buckets.iter().enumerate().take(HISTOGRAM_BUCKETS - 1) {
                cumulative += b;
                let le = if i == 0 { 0 } else { (1u64 << i) - 1 };
                out.push_str(&format!("{name}_bucket{{le=\"{le}\"}} {cumulative}\n"));
            }
            out.push_str(&format!("{name}_bucket{{le=\"+Inf\"}} {}\n", h.count));
            out.push_str(&format!("{name}_sum {}\n{name}_count {}\n", h.sum, h.count));
        }
        out
    }

    /// Parses text in the subset of the Prometheus exposition format
    /// emitted by [`Snapshot::to_prometheus`]; `parse_prometheus(s.to_prometheus())`
    /// round-trips exactly.  Returns a description of the first
    /// malformed line on failure.
    pub fn parse_prometheus(text: &str) -> Result<Snapshot, String> {
        let mut snap = Snapshot::default();
        let mut types: BTreeMap<String, String> = BTreeMap::new();
        // name -> (cumulative bucket counts in emitted order, sum, count)
        let mut hist_parts: BTreeMap<String, (Vec<u64>, u64, u64)> = BTreeMap::new();
        for (lineno, line) in text.lines().enumerate() {
            let err = |what: &str| format!("line {}: {what}: {line:?}", lineno + 1);
            let line = line.trim();
            if line.is_empty() {
                continue;
            }
            if let Some(rest) = line.strip_prefix("# TYPE ") {
                let mut it = rest.split_whitespace();
                let name = it.next().ok_or_else(|| err("missing metric name"))?;
                let kind = it.next().ok_or_else(|| err("missing metric type"))?;
                types.insert(name.to_string(), kind.to_string());
                continue;
            }
            if line.starts_with('#') {
                continue;
            }
            let (key, value) = line
                .rsplit_once(' ')
                .ok_or_else(|| err("expected `name value`"))?;
            if let Some((name, label)) = key.split_once('{') {
                let name = name
                    .strip_suffix("_bucket")
                    .ok_or_else(|| err("labels only allowed on _bucket series"))?;
                let le = label
                    .strip_prefix("le=\"")
                    .and_then(|l| l.strip_suffix("\"}"))
                    .ok_or_else(|| err("expected le=\"...\" label"))?;
                let cumulative: u64 = value.parse().map_err(|_| err("bad bucket count"))?;
                let entry = hist_parts.entry(name.to_string()).or_default();
                if le != "+Inf" {
                    le.parse::<u64>().map_err(|_| err("bad le bound"))?;
                    entry.0.push(cumulative);
                }
                continue;
            }
            if let Some(name) = key.strip_suffix("_sum") {
                if types.get(name).map(String::as_str) == Some("histogram") {
                    let sum: u64 = value.parse().map_err(|_| err("bad histogram sum"))?;
                    hist_parts.entry(name.to_string()).or_default().1 = sum;
                    continue;
                }
            }
            if let Some(name) = key.strip_suffix("_count") {
                if types.get(name).map(String::as_str) == Some("histogram") {
                    let count: u64 = value.parse().map_err(|_| err("bad histogram count"))?;
                    hist_parts.entry(name.to_string()).or_default().2 = count;
                    continue;
                }
            }
            match types.get(key).map(String::as_str) {
                Some("counter") => {
                    let v: u64 = value.parse().map_err(|_| err("bad counter value"))?;
                    snap.counters.insert(key.to_string(), v);
                }
                Some("gauge") => {
                    let v: i64 = value.parse().map_err(|_| err("bad gauge value"))?;
                    snap.gauges.insert(key.to_string(), v);
                }
                Some(other) => return Err(err(&format!("unsupported metric type {other:?}"))),
                None => return Err(err("sample before its # TYPE line")),
            }
        }
        for (name, (cumulative, sum, count)) in hist_parts {
            if types.get(&name).map(String::as_str) != Some("histogram") {
                return Err(format!("bucket series {name:?} without histogram TYPE"));
            }
            let mut buckets = Vec::with_capacity(cumulative.len() + 1);
            let mut prev = 0u64;
            for c in &cumulative {
                let b = c
                    .checked_sub(prev)
                    .ok_or_else(|| format!("histogram {name:?}: non-monotone buckets"))?;
                buckets.push(b);
                prev = *c;
            }
            // Anything beyond the last finite bound lives in the
            // overflow bucket (bit length 64), reconstructed from
            // `_count` minus the last cumulative value.
            let overflow = count
                .checked_sub(prev)
                .ok_or_else(|| format!("histogram {name:?}: count below last bucket"))?;
            if overflow > 0 {
                buckets.resize(HISTOGRAM_BUCKETS - 1, 0);
                buckets.push(overflow);
            }
            while buckets.last() == Some(&0) {
                buckets.pop();
            }
            snap.histograms.insert(
                name,
                HistogramSnapshot {
                    sum,
                    count,
                    buckets,
                },
            );
        }
        Ok(snap)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_indices_follow_bit_length() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(1023), 10);
        assert_eq!(bucket_index(1024), 11);
        assert_eq!(bucket_index(u64::MAX), 64);
    }

    #[test]
    fn disabled_handle_is_inert() {
        let obs = ObsHandle::disabled();
        assert!(!obs.is_enabled());
        let c = obs.counter("x");
        c.add(5);
        assert_eq!(c.get(), 0);
        obs.trace(TraceEvent::SessionStart { session: 1 });
        assert!(obs.trace_records().is_empty());
        assert_eq!(obs.next_session_id(), 0);
        assert_eq!(obs.snapshot(), Snapshot::default());
    }

    #[test]
    fn counters_share_cells_by_name() {
        let obs = ObsHandle::new();
        let a = obs.counter("hits");
        let b = obs.counter("hits");
        a.add(2);
        b.incr();
        assert_eq!(obs.snapshot().counter("hits"), Some(3));
    }

    #[test]
    fn gauge_set_and_add() {
        let obs = ObsHandle::new();
        let g = obs.gauge("depth");
        g.set(10);
        g.add(-3);
        assert_eq!(obs.snapshot().gauge("depth"), Some(7));
    }

    #[test]
    fn histogram_records_into_log2_buckets() {
        let obs = ObsHandle::new();
        let h = obs.histogram("lat");
        for v in [0, 1, 1, 3, 4, 1000] {
            h.record(v);
        }
        let snap = obs.snapshot();
        let hist = snap.histogram("lat").unwrap();
        assert_eq!(hist.count, 6);
        assert_eq!(hist.sum, 1009);
        assert_eq!(hist.buckets[0], 1); // 0
        assert_eq!(hist.buckets[1], 2); // 1, 1
        assert_eq!(hist.buckets[2], 1); // 3
        assert_eq!(hist.buckets[3], 1); // 4
        assert_eq!(hist.buckets[10], 1); // 1000
        assert_eq!(hist.buckets.len(), 11); // trailing zeros trimmed
    }

    #[test]
    fn ring_evicts_oldest_and_keeps_sequence() {
        let obs = ObsHandle::with_trace_capacity(3);
        for session in 0..5 {
            obs.trace(TraceEvent::SessionStart { session });
        }
        let records = obs.trace_records();
        assert_eq!(records.len(), 3);
        assert_eq!(records[0].seq, 2);
        assert_eq!(records[2].seq, 4);
        assert_eq!(records[2].event, TraceEvent::SessionStart { session: 4 });
    }

    #[test]
    fn trace_for_job_follows_session_links() {
        let obs = ObsHandle::new();
        obs.trace(TraceEvent::JobAdmitted { job: 7, bytes: 10 });
        obs.trace(TraceEvent::JobSession { job: 7, session: 3 });
        obs.trace(TraceEvent::SessionCheckpoint {
            session: 3,
            offset: 8,
        });
        obs.trace(TraceEvent::SessionCheckpoint {
            session: 9,
            offset: 1,
        });
        obs.trace(TraceEvent::JobCompleted {
            job: 8,
            attempts: 1,
            matches: 0,
        });
        let for_job = obs.trace_for_job(7);
        assert_eq!(for_job.len(), 3);
        assert!(for_job
            .iter()
            .all(|r| r.event.job_id() == Some(7) || r.event.session_id() == Some(3)));
    }

    #[test]
    fn prometheus_round_trips() {
        let obs = ObsHandle::new();
        obs.counter("serve_shed_total").add(4);
        obs.counter("engine_bytes_total").add(123456);
        obs.gauge("serve_queue_depth").set(-2);
        let h = obs.histogram("serve_request_latency_ns");
        for v in [0, 1, 7, 8, 300, 301, 99999] {
            h.record(v);
        }
        let snap = obs.snapshot();
        let text = snap.to_prometheus();
        let parsed = Snapshot::parse_prometheus(&text).expect("parse");
        assert_eq!(parsed, snap);
    }

    #[test]
    fn prometheus_round_trips_overflow_bucket() {
        let obs = ObsHandle::new();
        let h = obs.histogram("wild");
        h.record(u64::MAX); // bit length 64: beyond every finite le bound
        h.record(5);
        let snap = obs.snapshot();
        let parsed = Snapshot::parse_prometheus(&snap.to_prometheus()).expect("parse");
        assert_eq!(parsed, snap);
    }

    #[test]
    fn parse_rejects_malformed_lines() {
        assert!(Snapshot::parse_prometheus("orphan 4").is_err());
        assert!(Snapshot::parse_prometheus("# TYPE x counter\nx notanumber").is_err());
        assert!(
            Snapshot::parse_prometheus("# TYPE h histogram\nh_bucket{le=\"1\"} 5\nh_count 2")
                .is_err(),
            "count below cumulative buckets must be rejected"
        );
    }

    #[test]
    fn json_has_stable_shape() {
        let obs = ObsHandle::new();
        obs.counter("b").incr();
        obs.counter("a").add(2);
        obs.gauge("g").set(5);
        obs.histogram("h").record(3);
        let json = obs.snapshot().to_json();
        assert!(json.contains("\"a\": 2"));
        assert!(json.contains("\"b\": 1"));
        assert!(json.contains("\"g\": 5"));
        assert!(json.contains("\"count\": 1, \"sum\": 3"));
        let a = json.find("\"a\"").unwrap();
        let b = json.find("\"b\"").unwrap();
        assert!(a < b, "counter names are sorted");
    }

    #[test]
    fn empty_snapshot_exports_cleanly() {
        let snap = ObsHandle::new().snapshot();
        assert_eq!(snap.to_prometheus(), "");
        assert_eq!(
            Snapshot::parse_prometheus(&snap.to_prometheus()).unwrap(),
            snap
        );
        assert!(snap.to_json().contains("\"counters\": {}"));
    }
}
