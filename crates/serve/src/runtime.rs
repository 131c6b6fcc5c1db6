//! The supervised serving runtime: a fixed worker pool multiplexing many
//! concurrent streaming query sessions, with checkpoint failover.
//!
//! # Architecture
//!
//! ```text
//!              submit / submit_blocking          wait
//!                   │   (admission control:        ▲
//!                   │    bounded queue, byte       │ JobReport
//!                   ▼    budget → shed/reject)     │
//!            ┌─────────────┐                ┌──────┴──────┐
//!            │ submission  │   dispatch     │  jobs map   │
//!            │ queue (VecD)│──────────────▶ │ id → state  │
//!            └─────────────┘                └─────────────┘
//!                   ▲                               ▲
//!        requeue    │        ┌──────────┐           │ complete /
//!        (backoff,  └────────│supervisor│           │ checkpoint /
//!         from last          │(dispatch,│           │ fail
//!         checkpoint)        │ monitor) │           │
//!                            └──────────┘           │
//!                             │  │  │  respawn      │
//!                             ▼  ▼  ▼               │
//!                        ┌────┐┌────┐┌────┐         │
//!                        │ w0 ││ w1 ││ w2 │─────────┘
//!                        └────┘└────┘└────┘
//! ```
//!
//! Workers feed each document through an
//! [`EngineSession`](st_core::session::EngineSession) in
//! cadence-sized segments, minting an [`EngineCheckpoint`] after each —
//! the O(1)/O(depth) snapshot of Theorems 3.1/3.2 is exactly what makes
//! a session *migratable*: when a worker panics or stalls, the
//! supervisor requeues the victim's request with its last checkpoint and
//! a healthy worker resumes from that byte offset, not from zero.
//! Retries back off exponentially and are bounded; the terminal error is
//! typed ([`ServeError::Failed`]) and carries the full failure history.
//!
//! The degradation ladder under pressure: data-parallel chunked path →
//! sequential guarded session path → load shedding at the queue.

use std::collections::{HashMap, VecDeque};
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock};
use std::thread::JoinHandle;
use std::time::Duration;

use st_automata::{compile_regex, Alphabet};
use st_core::emit::{EmissionCursor, StreamedMatch};
use st_core::engine::FusedQuery;
use st_core::planner::Strategy;
use st_core::queryset::QuerySet;
use st_core::session::{monotonic_clock, ClockFn, EngineCheckpoint, Limits};
use st_obs::{Counter, Gauge, Histogram, ObsHandle, TraceEvent};

use crate::chaos::Fault;
use crate::config::ServeConfig;
use crate::error::{FailureCause, ServeError};

/// Locks a mutex, riding through poisoning: the runtime's own invariants
/// are epoch-guarded, and a worker that panicked mid-update is exactly
/// the fault this runtime exists to absorb.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|p| p.into_inner())
}

/// Identifier of a submitted request.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct JobId(pub u64);

impl std::fmt::Display for JobId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "job#{}", self.0)
    }
}

/// One request: a compiled query and the document to run it over.
#[derive(Clone)]
pub struct JobSpec {
    /// The fused engine to evaluate (shared across requests).
    pub query: Arc<FusedQuery>,
    /// The document bytes (shared with retries and checkpoint resumes).
    pub doc: Arc<Vec<u8>>,
    /// Per-session limits; `None` inherits
    /// [`crate::ServiceBudget::session_limits`].
    pub limits: Option<Limits>,
    /// Admission deadline, measured on the runtime clock from the moment
    /// the request is admitted.  A request still *queued* when its
    /// deadline passes is dropped with a typed
    /// [`ServeError::DeadlineExpired`] instead of burning a worker on an
    /// answer nobody is waiting for.  A request already dispatched runs
    /// to completion — mid-flight work is governed by [`Limits`], not
    /// the queue deadline.  `None` means no deadline.
    pub deadline: Option<Duration>,
    /// Whether the submitter consumes the match stream incrementally
    /// (polling [`ServeRuntime::emitted_prefix`] while the request
    /// runs).  Streamed requests get a supervisor-side emission ledger
    /// with exactly-once replay dedup across failovers, and skip the
    /// chunked fast path — which only ever reports at end-of-document.
    pub stream: bool,
}

impl JobSpec {
    /// A request with inherited service-level limits.
    pub fn new(query: Arc<FusedQuery>, doc: impl Into<Arc<Vec<u8>>>) -> JobSpec {
        JobSpec {
            query,
            doc: doc.into(),
            limits: None,
            deadline: None,
            stream: false,
        }
    }

    /// Opts into incremental match delivery; see [`JobSpec::stream`].
    pub fn with_stream(mut self) -> JobSpec {
        self.stream = true;
        self
    }

    /// Overrides the inherited limits for this request.
    pub fn with_limits(mut self, limits: Limits) -> JobSpec {
        self.limits = Some(limits);
        self
    }

    /// Sets the queueing deadline (relative to admission).
    pub fn with_deadline(mut self, deadline: Duration) -> JobSpec {
        self.deadline = Some(deadline);
        self
    }
}

/// One multi-query request: a set of path patterns over one alphabet,
/// plus the document to run them all over.
///
/// The dispatcher *batches by document*: queued multi-query requests
/// that target the same document (same bytes, alphabet, and product
/// budget — compared by fingerprint) and inherit the service-level
/// limits are claimed as one group and served by a single shared
/// [`QuerySet`] pass; per-query results are split back out to each
/// request ([`ServeRuntime::wait_multi`]).  A request that carries its
/// own [`Limits`] always runs alone.  Multi-query requests take the
/// shared-session path unconditionally — the chunked fast path and
/// chaos injection apply only to single-query requests.
#[derive(Clone)]
pub struct MultiJobSpec {
    /// The path patterns to evaluate (the per-query result order).
    pub patterns: Vec<String>,
    /// The label alphabet the patterns are compiled over.
    pub alphabet: Alphabet,
    /// The document bytes (shared with retries).
    pub doc: Arc<Vec<u8>>,
    /// Per-session limits; `None` inherits
    /// [`crate::ServiceBudget::session_limits`] and makes the request
    /// eligible for grouping.
    pub limits: Option<Limits>,
    /// Product-DFA state budget override; `None` inherits
    /// [`crate::ServeConfig::product_budget`].
    pub product_budget: Option<usize>,
    /// Admission deadline; see [`JobSpec::deadline`].  An expired queued
    /// request is never pulled into a shared group.
    pub deadline: Option<Duration>,
}

impl MultiJobSpec {
    /// A multi-query request with inherited limits and product budget.
    pub fn new(
        patterns: Vec<String>,
        alphabet: Alphabet,
        doc: impl Into<Arc<Vec<u8>>>,
    ) -> MultiJobSpec {
        MultiJobSpec {
            patterns,
            alphabet,
            doc: doc.into(),
            limits: None,
            product_budget: None,
            deadline: None,
        }
    }

    /// Overrides the inherited limits (and opts out of grouping).
    pub fn with_limits(mut self, limits: Limits) -> MultiJobSpec {
        self.limits = Some(limits);
        self
    }

    /// Overrides the inherited product-DFA state budget.
    pub fn with_product_budget(mut self, budget: usize) -> MultiJobSpec {
        self.product_budget = Some(budget);
        self
    }

    /// Sets the queueing deadline (relative to admission).
    pub fn with_deadline(mut self, deadline: Duration) -> MultiJobSpec {
        self.deadline = Some(deadline);
        self
    }
}

/// Which evaluation path ultimately served a request.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PathTaken {
    /// The data-parallel chunked byte engine (fast path).
    Chunked,
    /// The sequential guarded session path with checkpoint cadence.
    Session,
    /// One shared multi-query pass served this request as part of a
    /// batch-by-document group.
    Shared,
}

/// The final record of one request.
#[derive(Clone, Debug)]
pub struct JobReport {
    /// The request's id.
    pub id: JobId,
    /// Match set (document-order node ids) or the typed terminal error.
    pub result: Result<Vec<usize>, ServeError>,
    /// Attempts spent (1 + retries).
    pub attempts: u32,
    /// Checkpoint resumes performed (a resume means a later attempt
    /// continued mid-document instead of restarting).
    pub resumes: u32,
    /// The path that produced the result.
    pub path: PathTaken,
    /// Whether queue/memory pressure degraded this request from the
    /// chunked path to the session path.
    pub degraded: bool,
    /// Every non-terminal failure absorbed along the way, oldest first.
    pub failures: Vec<FailureCause>,
    /// Streamed requests: the full delivered stream (the emission
    /// ledger) — for a completed request its node ids equal `result`'s
    /// match list, each paired with the byte offset that decided it.
    /// Empty for non-streamed requests.
    pub emitted: Vec<StreamedMatch>,
    /// Streamed requests: replayed matches a failover re-derived that
    /// the ledger suppressed instead of re-delivering (the exactly-once
    /// dedup at work; 0 on an uninterrupted run).
    pub suppressed: u64,
}

/// The final record of one multi-query request, with per-query match
/// attribution.  Collected with [`ServeRuntime::wait_multi`].
#[derive(Clone, Debug)]
pub struct MultiJobReport {
    /// The request's id.
    pub id: JobId,
    /// Per-pattern match sets (document-order node ids), in the order
    /// the [`MultiJobSpec`] listed its patterns, or the typed terminal
    /// error.  A single-query request queried this way reports its one
    /// match set as a one-entry list.
    pub results: Result<Vec<Vec<usize>>, ServeError>,
    /// Attempts spent (1 + retries).
    pub attempts: u32,
    /// Requests (including this one) served by the shared pass that
    /// completed this request; 0 when the request never completed via a
    /// shared pass.
    pub group_size: usize,
    /// Every non-terminal failure absorbed along the way, oldest first.
    pub failures: Vec<FailureCause>,
}

/// Counters exposed by [`ServeRuntime::stats`] / [`ServeRuntime::shutdown`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ServeStats {
    /// Requests admitted.
    pub submitted: u64,
    /// Requests completed with a match set.
    pub completed: u64,
    /// Requests that ended in a typed terminal error.
    pub failed: u64,
    /// Submissions shed with [`ServeError::Overloaded`].
    pub shed: u64,
    /// Submissions refused with [`ServeError::Rejected`].
    pub rejected: u64,
    /// Attempts requeued for retry.
    pub retries: u64,
    /// Checkpoint resumes (mid-document failovers).
    pub resumes: u64,
    /// Worker panics absorbed.
    pub panics: u64,
    /// Worker stalls detected and abandoned.
    pub stalls: u64,
    /// Corrupt segments detected.
    pub corruptions: u64,
    /// Requests degraded from the chunked to the session path.
    pub degraded: u64,
    /// Checkpoints minted.
    pub checkpoints: u64,
    /// Worker threads spawned (initial pool + replacements).
    pub workers_spawned: u64,
    /// Shared multi-query passes run (each serves a whole group).
    pub multi_groups: u64,
    /// Requests served by shared multi-query passes.
    pub multi_group_members: u64,
    /// Queued requests dropped because their deadline passed before a
    /// worker picked them up ([`ServeError::DeadlineExpired`]).
    pub deadline_expired: u64,
    /// Matches appended to streamed requests' emission ledgers (each is
    /// one exactly-once delivery; deterministic for a given workload).
    pub emitted: u64,
    /// Replayed matches suppressed by ledger dedup after failovers
    /// (timing-dependent, like `retries`).
    pub emission_suppressed: u64,
}

impl std::fmt::Display for ServeStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "submitted {} completed {} failed {} shed {} rejected {} | \
             retries {} resumes {} panics {} stalls {} corruptions {} | \
             degraded {} checkpoints {} workers-spawned {} | \
             multi-groups {} multi-members {} deadline-expired {} | \
             emitted {} emission-suppressed {}",
            self.submitted,
            self.completed,
            self.failed,
            self.shed,
            self.rejected,
            self.retries,
            self.resumes,
            self.panics,
            self.stalls,
            self.corruptions,
            self.degraded,
            self.checkpoints,
            self.workers_spawned,
            self.multi_groups,
            self.multi_group_members,
            self.deadline_expired,
            self.emitted,
            self.emission_suppressed
        )
    }
}

// ---------------------------------------------------------------------------
// Internal state
// ---------------------------------------------------------------------------

enum Status {
    Queued,
    Running,
    Done(Result<Vec<usize>, ServeError>),
}

/// The last good checkpoint of a request, with how many of the job's
/// stored matches (`JobState::resume_matches`) precede it (node ids are
/// global, so prefix + tail concatenation reproduces the uninterrupted
/// run — the session layer's contract).
#[derive(Clone)]
struct ResumePoint {
    checkpoint: EngineCheckpoint,
    matches: usize,
}

/// A validated multi-query request as the runtime holds it.
struct MultiWork {
    patterns: Vec<String>,
    alphabet: Alphabet,
    doc: Arc<Vec<u8>>,
    limits: Option<Limits>,
    deadline: Option<Duration>,
    /// Resolved product-DFA state budget.
    budget: usize,
    /// Grouping key: fingerprint of (doc bytes, alphabet, budget).
    fp: u64,
}

/// What a job evaluates: one fused query, or a query set eligible for
/// batch-by-document grouping.
#[derive(Clone)]
enum Work {
    Single(Arc<JobSpec>),
    Multi(Arc<MultiWork>),
}

impl Work {
    fn doc_len(&self) -> usize {
        match self {
            Work::Single(s) => s.doc.len(),
            Work::Multi(m) => m.doc.len(),
        }
    }

    fn deadline(&self) -> Option<Duration> {
        match self {
            Work::Single(s) => s.deadline,
            Work::Multi(m) => m.deadline,
        }
    }
}

/// FNV-1a grouping fingerprint of a multi-query request's shared-pass
/// identity: two requests group iff document bytes, alphabet, and
/// product budget all agree.
fn group_fingerprint(doc: &[u8], alphabet: &Alphabet, budget: usize) -> u64 {
    const PRIME: u64 = 0x0000_0100_0000_01B3;
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    for &b in doc {
        h = (h ^ b as u64).wrapping_mul(PRIME);
    }
    for (_, symbol) in alphabet.entries() {
        for &b in symbol.as_bytes() {
            h = (h ^ b as u64).wrapping_mul(PRIME);
        }
        h = (h ^ 0xFF).wrapping_mul(PRIME);
    }
    for b in (budget as u64).to_le_bytes() {
        h = (h ^ b as u64).wrapping_mul(PRIME);
    }
    h
}

struct JobState {
    work: Work,
    /// Current attempt number (1-based).  Writes from older attempts —
    /// a stalled worker waking up, a panicking worker's final report
    /// racing the supervisor — are discarded by comparing against this.
    attempt: u32,
    resume: Option<ResumePoint>,
    /// Single jobs: the matches found before the stored checkpoint,
    /// appended one checkpoint segment at a time.  Append-only: a
    /// resumed attempt's prefix is the whole vector, which it extends.
    resume_matches: Vec<usize>,
    resumes: u32,
    failures: Vec<FailureCause>,
    status: Status,
    path: PathTaken,
    degraded: bool,
    /// Admission timestamp (ns since runtime epoch), for the terminal
    /// latency histogram.
    submitted_ns: u64,
    /// Absolute queueing deadline (ms since runtime epoch); a request
    /// still queued past it is dropped with
    /// [`ServeError::DeadlineExpired`].
    deadline_ms: Option<u64>,
    /// Multi jobs: per-pattern match sets, set at completion.
    multi_results: Option<Vec<Vec<usize>>>,
    /// Multi jobs: how many requests the completing shared pass served.
    group_size: usize,
    /// Streamed jobs: every match delivered so far, in emission order.
    /// Append-only — the delivery point of exactly-once.  Replays after
    /// a failover are verified against it and suppressed, never
    /// re-appended; entries survive retries and resumes untouched.
    ledger: Vec<StreamedMatch>,
    /// Streamed jobs: replayed matches the ledger suppressed.
    suppressed: u64,
}

impl JobState {
    /// Frees the resume point and its stored matches once the job is
    /// finished: no further attempt can resume from them.
    fn drop_failover_state(&mut self) {
        self.resume = None;
        self.resume_matches = Vec::new();
    }
}

struct Pending {
    id: u64,
    /// Earliest dispatch time (ms since runtime epoch); retries carry
    /// their exponential backoff here.
    not_before_ms: u64,
}

struct QueueState {
    q: VecDeque<Pending>,
    shutdown: bool,
}

struct WorkerSlot {
    /// Cleared by a drop sentinel when the worker thread dies.
    alive: AtomicBool,
    /// Set by the supervisor when it gives up on a stalled worker; the
    /// zombie's slot is replaced and its late writes are epoch-guarded.
    abandoned: AtomicBool,
    /// The assignment this worker currently runs.
    busy: Mutex<Option<Assignment>>,
    /// Last liveness signal (ms since runtime epoch); ticks once per
    /// checkpoint cadence.
    heartbeat_ms: AtomicU64,
}

/// One unit of worker work: a single job, or a whole multi-query group
/// claimed for one shared pass (every `(job, attempt)` pair is already
/// marked Running).
#[derive(Clone)]
struct Assignment {
    group: Vec<(u64, u32)>,
}

struct WorkerHandle {
    slot: Arc<WorkerSlot>,
    tx: Option<Sender<Assignment>>,
    join: Option<JoinHandle<()>>,
}

/// Pre-resolved observability instruments for the runtime's hot sites.
///
/// Each counter mirrors one [`ServeStats`] atomic and is incremented at
/// *exactly* the same site, so a metrics snapshot and a stats snapshot
/// taken after drain agree number-for-number.  With a disabled handle
/// every instrument is inert (one branch per record, no allocation).
struct ServeObs {
    handle: ObsHandle,
    submitted: Counter,
    completed: Counter,
    failed: Counter,
    shed: Counter,
    rejected: Counter,
    retries: Counter,
    resumes: Counter,
    panics: Counter,
    stalls: Counter,
    corruptions: Counter,
    degraded: Counter,
    checkpoints: Counter,
    workers_spawned: Counter,
    multi_groups: Counter,
    multi_group_members: Counter,
    deadline_expired: Counter,
    emitted: Counter,
    emission_suppressed: Counter,
    /// Requests per shared multi-query pass.
    multi_group_size: Histogram,
    /// Current submission-queue occupancy.
    queue_depth: Gauge,
    /// Bytes currently held against the in-flight budget.
    in_flight_bytes: Gauge,
    /// Attempts each finished request consumed (recorded at terminal
    /// completion or failure).
    request_attempts: Histogram,
    /// Runtime-clock nanoseconds from admission to terminal state, per
    /// finished request (a sub-millisecond request still lands in its
    /// own log2 bucket).
    request_latency_ns: Histogram,
}

impl ServeObs {
    fn attach(handle: &ObsHandle) -> ServeObs {
        ServeObs {
            submitted: handle.counter("serve_submitted_total"),
            completed: handle.counter("serve_completed_total"),
            failed: handle.counter("serve_failed_total"),
            shed: handle.counter("serve_shed_total"),
            rejected: handle.counter("serve_rejected_total"),
            retries: handle.counter("serve_retries_total"),
            resumes: handle.counter("serve_resumes_total"),
            panics: handle.counter("serve_panics_total"),
            stalls: handle.counter("serve_stalls_total"),
            corruptions: handle.counter("serve_corruptions_total"),
            degraded: handle.counter("serve_degraded_total"),
            checkpoints: handle.counter("serve_checkpoints_total"),
            workers_spawned: handle.counter("serve_workers_spawned_total"),
            multi_groups: handle.counter("serve_multi_groups_total"),
            multi_group_members: handle.counter("serve_multi_group_members_total"),
            deadline_expired: handle.counter("serve_deadline_expired_total"),
            emitted: handle.counter("serve_emissions_total"),
            emission_suppressed: handle.counter("serve_emission_suppressed_total"),
            multi_group_size: handle.histogram("serve_multi_group_size"),
            queue_depth: handle.gauge("serve_queue_depth"),
            in_flight_bytes: handle.gauge("serve_in_flight_bytes"),
            request_attempts: handle.histogram("serve_request_attempts"),
            request_latency_ns: handle.histogram("serve_request_latency_ns"),
            handle: handle.clone(),
        }
    }

    fn trace(&self, event: TraceEvent) {
        self.handle.trace(event);
    }
}

/// The stable cause label carried by [`TraceEvent::JobFailed`].
fn cause_label(cause: &FailureCause) -> &'static str {
    match cause {
        FailureCause::WorkerPanic { .. } => "worker_panic",
        FailureCause::WorkerStall { .. } => "worker_stall",
        FailureCause::SegmentCorrupted { .. } => "segment_corrupted",
        FailureCause::Engine(_) => "engine",
        FailureCause::EmissionLedger { .. } => "emission_ledger",
    }
}

struct Inner {
    cfg: ServeConfig,
    /// The runtime clock: the budget's injected [`ClockFn`] when one was
    /// set (so stall detection and backoff are testable without real
    /// time), else [`monotonic_clock`].
    clock: ClockFn,
    /// `clock()` at startup; all runtime timestamps are relative to it.
    epoch: Duration,
    obs: ServeObs,
    queue: Mutex<QueueState>,
    queue_cv: Condvar,
    jobs: Mutex<HashMap<u64, JobState>>,
    jobs_cv: Condvar,
    in_flight_bytes: AtomicUsize,
    next_id: AtomicU64,
    submitted: AtomicU64,
    completed: AtomicU64,
    failed: AtomicU64,
    shed: AtomicU64,
    rejected: AtomicU64,
    retries: AtomicU64,
    resumes: AtomicU64,
    panics: AtomicU64,
    stalls: AtomicU64,
    corruptions: AtomicU64,
    degraded: AtomicU64,
    checkpoints: AtomicU64,
    workers_spawned: AtomicU64,
    multi_groups: AtomicU64,
    multi_group_members: AtomicU64,
    deadline_expired: AtomicU64,
    emitted: AtomicU64,
    emission_suppressed: AtomicU64,
    /// EWMA throughput of completed shared multi-query passes, in
    /// bytes/ms on the runtime clock (0 until the first measured pass).
    /// Feeds the deadline-aware grouping projection in [`try_assign`].
    group_rate_bpms: AtomicU64,
}

impl Inner {
    fn now_ms(&self) -> u64 {
        self.now_ns() / 1_000_000
    }

    fn now_ns(&self) -> u64 {
        (self.clock)().saturating_sub(self.epoch).as_nanos() as u64
    }

    fn stats(&self) -> ServeStats {
        ServeStats {
            submitted: self.submitted.load(Ordering::SeqCst),
            completed: self.completed.load(Ordering::SeqCst),
            failed: self.failed.load(Ordering::SeqCst),
            shed: self.shed.load(Ordering::SeqCst),
            rejected: self.rejected.load(Ordering::SeqCst),
            retries: self.retries.load(Ordering::SeqCst),
            resumes: self.resumes.load(Ordering::SeqCst),
            panics: self.panics.load(Ordering::SeqCst),
            stalls: self.stalls.load(Ordering::SeqCst),
            corruptions: self.corruptions.load(Ordering::SeqCst),
            degraded: self.degraded.load(Ordering::SeqCst),
            checkpoints: self.checkpoints.load(Ordering::SeqCst),
            workers_spawned: self.workers_spawned.load(Ordering::SeqCst),
            multi_groups: self.multi_groups.load(Ordering::SeqCst),
            multi_group_members: self.multi_group_members.load(Ordering::SeqCst),
            deadline_expired: self.deadline_expired.load(Ordering::SeqCst),
            emitted: self.emitted.load(Ordering::SeqCst),
            emission_suppressed: self.emission_suppressed.load(Ordering::SeqCst),
        }
    }

    /// The shared-pass throughput estimate used to project a group's
    /// finish time: the measured EWMA when at least one pass completed,
    /// else the configured hint.  Always ≥ 1 byte/ms.
    fn group_rate(&self) -> u64 {
        let measured = self.group_rate_bpms.load(Ordering::SeqCst);
        let rate = if measured > 0 {
            measured
        } else {
            self.cfg.group_rate_hint
        };
        rate.max(1)
    }

    /// Folds a completed shared pass (`bytes` over `elapsed_ms`) into
    /// the EWMA throughput estimate.
    fn observe_group_rate(&self, bytes: usize, elapsed_ms: u64) {
        if bytes == 0 {
            return;
        }
        let sample = (bytes as u64) / elapsed_ms.max(1);
        let sample = sample.max(1);
        let old = self.group_rate_bpms.load(Ordering::SeqCst);
        let new = if old == 0 {
            sample
        } else {
            (3 * old + sample) / 4
        };
        self.group_rate_bpms.store(new, Ordering::SeqCst);
    }

    /// Drops a request whose deadline passed while it was queued: a
    /// typed terminal [`ServeError::DeadlineExpired`], no worker time
    /// spent.  Returns whether the request was expired (false when it is
    /// no longer queued, carries no deadline, or is not yet due).
    fn expire_if_due(&self, job: u64, now_ns: u64) -> bool {
        let now_ms = now_ns / 1_000_000;
        let waited_ms;
        {
            let mut jobs = lock(&self.jobs);
            let Some(st) = jobs.get_mut(&job) else {
                return false;
            };
            if !matches!(st.status, Status::Queued) {
                return false;
            }
            match st.deadline_ms {
                Some(d) if now_ms >= d => {}
                _ => return false,
            }
            waited_ms = now_ms.saturating_sub(st.submitted_ns / 1_000_000);
            let attempts = st.attempt;
            st.status = Status::Done(Err(ServeError::DeadlineExpired { waited_ms }));
            let bytes = st.work.doc_len();
            let held = self.in_flight_bytes.fetch_sub(bytes, Ordering::SeqCst);
            self.obs.in_flight_bytes.set((held - bytes) as i64);
            self.obs.request_attempts.record(attempts as u64);
            self.obs
                .request_latency_ns
                .record(now_ns.saturating_sub(st.submitted_ns));
            self.obs.trace(TraceEvent::JobFailed {
                job,
                attempts,
                cause: "deadline_expired",
            });
        }
        self.failed.fetch_add(1, Ordering::SeqCst);
        self.obs.failed.incr();
        self.deadline_expired.fetch_add(1, Ordering::SeqCst);
        self.obs.deadline_expired.incr();
        self.jobs_cv.notify_all();
        self.queue_cv.notify_all();
        true
    }

    /// Whether the degradation ladder should step down from the chunked
    /// to the session path: queue occupancy at/over the configured
    /// fraction, or the in-flight byte budget half consumed.
    fn pressure_high(&self) -> bool {
        let qlen = lock(&self.queue).q.len();
        if qlen * 100 >= self.cfg.queue_capacity * self.cfg.degrade_at_percent {
            return true;
        }
        if let Some(mb) = self.cfg.budget.max_in_flight_bytes {
            if self.in_flight_bytes.load(Ordering::SeqCst) * 2 >= mb {
                return true;
            }
        }
        false
    }

    /// Records a successful completion for `(job, attempt)`.  A stale
    /// attempt (superseded by failover) is discarded.
    fn complete(&self, job: u64, attempt: u32, matches: Vec<usize>, path: PathTaken) {
        let bytes;
        let n_matches = matches.len() as u64;
        let submitted_ns;
        {
            let mut jobs = lock(&self.jobs);
            let Some(st) = jobs.get_mut(&job) else { return };
            if st.attempt != attempt || matches!(st.status, Status::Done(_)) {
                return;
            }
            st.status = Status::Done(Ok(matches));
            st.path = path;
            st.drop_failover_state();
            bytes = st.work.doc_len();
            submitted_ns = st.submitted_ns;
        }
        let held = self.in_flight_bytes.fetch_sub(bytes, Ordering::SeqCst);
        self.completed.fetch_add(1, Ordering::SeqCst);
        self.obs.completed.incr();
        self.obs.in_flight_bytes.set((held - bytes) as i64);
        self.obs.request_attempts.record(attempt as u64);
        self.obs
            .request_latency_ns
            .record(self.now_ns().saturating_sub(submitted_ns));
        self.obs.trace(TraceEvent::JobCompleted {
            job,
            attempts: attempt,
            matches: n_matches,
        });
        self.jobs_cv.notify_all();
        self.queue_cv.notify_all();
    }

    /// Records a multi-query completion for `(job, attempt)`: the
    /// per-pattern attribution plus, in the plain report, the union of
    /// the per-query match sets (document order, deduped).  A stale
    /// attempt is discarded.
    fn complete_multi(
        &self,
        job: u64,
        attempt: u32,
        per_query: Vec<Vec<usize>>,
        group_size: usize,
    ) {
        let bytes;
        let submitted_ns;
        let n_matches: u64 = per_query.iter().map(|m| m.len() as u64).sum();
        {
            let mut jobs = lock(&self.jobs);
            let Some(st) = jobs.get_mut(&job) else { return };
            if st.attempt != attempt || matches!(st.status, Status::Done(_)) {
                return;
            }
            let mut union: Vec<usize> = per_query.iter().flatten().copied().collect();
            union.sort_unstable();
            union.dedup();
            st.multi_results = Some(per_query);
            st.group_size = group_size;
            st.status = Status::Done(Ok(union));
            st.path = PathTaken::Shared;
            bytes = st.work.doc_len();
            submitted_ns = st.submitted_ns;
        }
        let held = self.in_flight_bytes.fetch_sub(bytes, Ordering::SeqCst);
        self.completed.fetch_add(1, Ordering::SeqCst);
        self.obs.completed.incr();
        self.obs.in_flight_bytes.set((held - bytes) as i64);
        self.obs.request_attempts.record(attempt as u64);
        self.obs
            .request_latency_ns
            .record(self.now_ns().saturating_sub(submitted_ns));
        self.obs.trace(TraceEvent::JobCompleted {
            job,
            attempts: attempt,
            matches: n_matches,
        });
        self.jobs_cv.notify_all();
        self.queue_cv.notify_all();
    }

    /// Stores the latest good checkpoint, with the matches found since
    /// the previous one, so a failover can resume mid-document.
    fn store_resume(&self, job: u64, attempt: u32, cp: EngineCheckpoint, new_matches: &[usize]) {
        let mut jobs = lock(&self.jobs);
        let Some(st) = jobs.get_mut(&job) else { return };
        if st.attempt != attempt || matches!(st.status, Status::Done(_)) {
            return;
        }
        st.resume_matches.extend_from_slice(new_matches);
        st.resume = Some(ResumePoint {
            checkpoint: cp,
            matches: st.resume_matches.len(),
        });
        self.checkpoints.fetch_add(1, Ordering::SeqCst);
        self.obs.checkpoints.incr();
    }

    /// The first `len` stored matches of a job: a resumed attempt's
    /// prefix.
    fn resume_prefix(&self, job: u64, len: usize) -> Vec<usize> {
        let jobs = lock(&self.jobs);
        jobs.get(&job)
            .and_then(|st| st.resume_matches.get(..len))
            .map_or_else(Vec::new, <[usize]>::to_vec)
    }

    /// Records a batch of matches a worker claims to have emitted
    /// starting at stream position `start` (0-based index into the
    /// emitted sequence).  This is the delivery point of exactly-once:
    ///
    /// * positions already in the ledger are **verified** against it —
    ///   a replayed match must be identical to what was delivered, and a
    ///   divergence is a typed [`FailureCause::EmissionLedger`] failure,
    ///   never a silent duplicate;
    /// * positions past the ledger are **appended** (delivered);
    /// * a batch starting beyond the ledger's end claims deliveries the
    ///   supervisor never saw (forged cursor) and fails the request.
    ///
    /// Stale attempts (superseded by failover) are discarded without
    /// effect, as is a batch for a finished request.
    fn record_emissions(
        &self,
        job: u64,
        attempt: u32,
        start: usize,
        batch: &[StreamedMatch],
    ) -> Result<(), FailureCause> {
        let appended;
        let replayed;
        {
            let mut jobs = lock(&self.jobs);
            let Some(st) = jobs.get_mut(&job) else {
                return Ok(());
            };
            if st.attempt != attempt || matches!(st.status, Status::Done(_)) {
                return Ok(());
            }
            if start > st.ledger.len() {
                return Err(FailureCause::EmissionLedger {
                    detail: format!(
                        "batch starts at stream position {start} but only {} \
                         matches were ever delivered",
                        st.ledger.len()
                    ),
                });
            }
            // `batch[..replay]` re-covers delivered positions; the rest
            // is new and appended in one copy.
            let replay = (st.ledger.len() - start).min(batch.len());
            let delivered = &st.ledger[start..start + replay];
            if let Some(k) = delivered.iter().zip(batch).position(|(d, m)| d != m) {
                let (d, m) = (delivered[k], batch[k]);
                return Err(FailureCause::EmissionLedger {
                    detail: format!(
                        "replay diverged at stream position {}: \
                         delivered node {} at byte {}, replay claims \
                         node {} at byte {}",
                        start + k,
                        d.node,
                        d.offset,
                        m.node,
                        m.offset
                    ),
                });
            }
            st.ledger.extend_from_slice(&batch[replay..]);
            replayed = replay as u64;
            appended = (batch.len() - replay) as u64;
            st.suppressed += replayed;
        }
        if appended > 0 {
            self.emitted.fetch_add(appended, Ordering::SeqCst);
            self.obs.emitted.add(appended);
        }
        if replayed > 0 {
            self.emission_suppressed
                .fetch_add(replayed, Ordering::SeqCst);
            self.obs.emission_suppressed.add(replayed);
        }
        Ok(())
    }

    /// Verifies a resumed attempt's emission cursor against the ledger
    /// before any of its output is accepted: the cursor must not claim
    /// more deliveries than the ledger holds, and its digest must equal
    /// the digest of the delivered prefix it claims.  A hostile or
    /// corrupted checkpoint fails here with a typed error instead of
    /// poisoning the stream.
    fn verify_resume_cursor(
        &self,
        job: u64,
        attempt: u32,
        cursor: EmissionCursor,
    ) -> Result<(), FailureCause> {
        let jobs = lock(&self.jobs);
        let Some(st) = jobs.get(&job) else {
            return Ok(());
        };
        if st.attempt != attempt || matches!(st.status, Status::Done(_)) {
            return Ok(());
        }
        let count = cursor.count as usize;
        if count > st.ledger.len() {
            return Err(FailureCause::EmissionLedger {
                detail: format!(
                    "resume cursor claims {count} deliveries but only {} \
                     matches were ever delivered",
                    st.ledger.len()
                ),
            });
        }
        let reference = EmissionCursor::over(&st.ledger[..count]);
        if reference.digest != cursor.digest {
            return Err(FailureCause::EmissionLedger {
                detail: format!(
                    "resume cursor digest {:#018x} does not match the \
                     delivered prefix of {count} matches ({:#018x})",
                    cursor.digest, reference.digest
                ),
            });
        }
        Ok(())
    }

    /// Verifies, at completion time, that a streamed request's delivered
    /// stream equals its final match list — same node ids, same order —
    /// and that the session's final cursor equals the ledger's.
    fn verify_final_emissions(
        &self,
        job: u64,
        attempt: u32,
        matches: &[usize],
        cursor: EmissionCursor,
    ) -> Result<(), FailureCause> {
        let jobs = lock(&self.jobs);
        let Some(st) = jobs.get(&job) else {
            return Ok(());
        };
        if st.attempt != attempt || matches!(st.status, Status::Done(_)) {
            return Ok(());
        }
        if st.ledger.len() != matches.len()
            || st.ledger.iter().map(|m| m.node).ne(matches.iter().copied())
        {
            return Err(FailureCause::EmissionLedger {
                detail: format!(
                    "delivered stream ({} matches) does not equal the final \
                     match list ({} matches)",
                    st.ledger.len(),
                    matches.len()
                ),
            });
        }
        let reference = EmissionCursor::over(&st.ledger);
        if reference != cursor {
            return Err(FailureCause::EmissionLedger {
                detail: format!(
                    "final cursor (count {}, digest {:#018x}) does not match \
                     the delivered stream (count {}, digest {:#018x})",
                    cursor.count, cursor.digest, reference.count, reference.digest
                ),
            });
        }
        Ok(())
    }

    fn note_resume(&self, job: u64, attempt: u32) {
        let mut jobs = lock(&self.jobs);
        if let Some(st) = jobs.get_mut(&job) {
            if st.attempt == attempt {
                st.resumes += 1;
            }
        }
        self.resumes.fetch_add(1, Ordering::SeqCst);
        self.obs.resumes.incr();
    }

    fn mark_degraded(&self, job: u64, attempt: u32) {
        let mut jobs = lock(&self.jobs);
        if let Some(st) = jobs.get_mut(&job) {
            if st.attempt == attempt {
                st.degraded = true;
            }
        }
        self.degraded.fetch_add(1, Ordering::SeqCst);
        self.obs.degraded.incr();
        self.obs.trace(TraceEvent::Degraded { job });
    }

    /// Records a failed attempt: requeues with exponential backoff when
    /// the cause is retryable and the retry budget allows, otherwise
    /// finalizes the request with a typed [`ServeError::Failed`].
    fn record_attempt_failure(&self, job: u64, attempt: u32, cause: FailureCause) {
        let mut requeue_backoff = None;
        {
            let mut jobs = lock(&self.jobs);
            let Some(st) = jobs.get_mut(&job) else { return };
            if st.attempt != attempt || matches!(st.status, Status::Done(_)) {
                return;
            }
            // Count the fault only once it is attributed to the live
            // attempt; stale duplicates (the reap backstop re-reporting a
            // death the worker already recorded, a zombie's late fault)
            // returned above and must not inflate the counters.
            match &cause {
                FailureCause::WorkerPanic { .. } => {
                    self.panics.fetch_add(1, Ordering::SeqCst);
                    self.obs.panics.incr();
                    self.obs.trace(TraceEvent::WorkerPanic { job, attempt });
                }
                FailureCause::WorkerStall { stalled_ms } => {
                    self.stalls.fetch_add(1, Ordering::SeqCst);
                    self.obs.stalls.incr();
                    self.obs.trace(TraceEvent::WorkerStall {
                        job,
                        attempt,
                        silent_ms: *stalled_ms,
                    });
                }
                FailureCause::SegmentCorrupted { .. } => {
                    self.corruptions.fetch_add(1, Ordering::SeqCst);
                    self.obs.corruptions.incr();
                    self.obs
                        .trace(TraceEvent::SegmentCorrupted { job, attempt });
                }
                FailureCause::Engine(_) => {}
                FailureCause::EmissionLedger { .. } => {}
            }
            let retry = cause.retryable() && st.attempt <= self.cfg.max_retries;
            st.failures.push(cause.clone());
            if retry {
                st.attempt += 1;
                st.status = Status::Queued;
                let exp = (attempt - 1).min(16);
                let backoff = self.cfg.backoff_base * 2u32.pow(exp);
                requeue_backoff = Some(backoff);
                self.retries.fetch_add(1, Ordering::SeqCst);
                self.obs.retries.incr();
                self.obs.trace(TraceEvent::Retry {
                    job,
                    attempt,
                    backoff_ms: backoff.as_millis() as u64,
                });
            } else {
                let attempts = st.attempt;
                let label = cause_label(&cause);
                st.status = Status::Done(Err(ServeError::Failed {
                    attempts: st.attempt,
                    last: cause,
                }));
                st.drop_failover_state();
                let bytes = st.work.doc_len();
                let held = self.in_flight_bytes.fetch_sub(bytes, Ordering::SeqCst);
                self.failed.fetch_add(1, Ordering::SeqCst);
                self.obs.failed.incr();
                self.obs.in_flight_bytes.set((held - bytes) as i64);
                self.obs.request_attempts.record(attempts as u64);
                self.obs
                    .request_latency_ns
                    .record(self.now_ns().saturating_sub(st.submitted_ns));
                self.obs.trace(TraceEvent::JobFailed {
                    job,
                    attempts,
                    cause: label,
                });
            }
        }
        match requeue_backoff {
            Some(backoff) => {
                let due = self.now_ms() + backoff.as_millis() as u64;
                let mut q = lock(&self.queue);
                q.q.push_back(Pending {
                    id: job,
                    not_before_ms: due,
                });
                self.obs.queue_depth.set(q.q.len() as i64);
                drop(q);
                self.queue_cv.notify_all();
            }
            None => {
                self.jobs_cv.notify_all();
                self.queue_cv.notify_all();
            }
        }
    }

    fn report_of(&self, id: u64, st: &JobState) -> Option<JobReport> {
        match &st.status {
            Status::Done(result) => Some(JobReport {
                id: JobId(id),
                result: result.clone(),
                attempts: st.attempt,
                resumes: st.resumes,
                path: st.path,
                degraded: st.degraded,
                failures: st.failures.clone(),
                emitted: st.ledger.clone(),
                suppressed: st.suppressed,
            }),
            _ => None,
        }
    }

    fn multi_report_of(&self, id: u64, st: &JobState) -> Option<MultiJobReport> {
        match &st.status {
            Status::Done(result) => Some(MultiJobReport {
                id: JobId(id),
                results: match (result, &st.multi_results) {
                    (Ok(_), Some(per)) => Ok(per.clone()),
                    // A single-query job queried through the multi API
                    // reports its one match set as a one-entry list.
                    (Ok(union), None) => Ok(vec![union.clone()]),
                    (Err(e), _) => Err(e.clone()),
                },
                attempts: st.attempt,
                group_size: st.group_size,
                failures: st.failures.clone(),
            }),
            _ => None,
        }
    }
}

// ---------------------------------------------------------------------------
// Worker
// ---------------------------------------------------------------------------

/// Sets `alive = false` when the worker thread exits — by any route,
/// including a panic unwinding through `worker_main`.
struct Sentinel(Arc<WorkerSlot>);

impl Drop for Sentinel {
    fn drop(&mut self) {
        self.0.alive.store(false, Ordering::SeqCst);
    }
}

fn payload_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "opaque panic payload".to_owned()
    }
}

fn worker_main(inner: Arc<Inner>, slot: Arc<WorkerSlot>, rx: Receiver<Assignment>) {
    let _sentinel = Sentinel(slot.clone());
    while let Ok(a) = rx.recv() {
        match catch_unwind(AssertUnwindSafe(|| run_group(&inner, &slot, &a.group))) {
            Ok(()) => *lock(&slot.busy) = None,
            Err(payload) => {
                // Report the death against every request of the group
                // (so failover starts immediately instead of waiting
                // for the supervisor's sweep), then die authentically:
                // the supervisor replaces the thread.  `busy` stays set
                // through the death — clearing it here would open a
                // window where the dispatcher assigns a request to this
                // still-`alive`, already-unwinding thread, burning one
                // of its attempts on a worker that will never run it.
                let detail = payload_message(payload.as_ref());
                for &(job, attempt) in &a.group {
                    inner.record_attempt_failure(
                        job,
                        attempt,
                        FailureCause::WorkerPanic {
                            detail: detail.clone(),
                        },
                    );
                }
                resume_unwind(payload);
            }
        }
    }
}

/// Runs one assignment: a lone single-query job takes the existing
/// chunked/session ladder; everything else is a multi-query group
/// served by one shared pass.
fn run_group(inner: &Arc<Inner>, slot: &WorkerSlot, group: &[(u64, u32)]) {
    if let [(job, attempt)] = group {
        let is_single = {
            let jobs = lock(&inner.jobs);
            matches!(jobs.get(job).map(|st| &st.work), Some(Work::Single(_)))
        };
        if is_single {
            return run_job(inner, slot, *job, *attempt);
        }
    }
    run_multi_group(inner, slot, group);
}

/// Serves one batch-by-document group with a single shared
/// [`QuerySet`] pass and splits per-query results back to each member.
fn run_multi_group(inner: &Arc<Inner>, slot: &WorkerSlot, group: &[(u64, u32)]) {
    // Re-validate each member against its live attempt; stale members
    // (superseded while queued for this worker) drop out of the pass.
    let mut members: Vec<(u64, u32, Arc<MultiWork>)> = Vec::with_capacity(group.len());
    {
        let jobs = lock(&inner.jobs);
        for &(job, attempt) in group {
            if let Some(st) = jobs.get(&job) {
                if st.attempt == attempt && matches!(st.status, Status::Running) {
                    if let Work::Multi(w) = &st.work {
                        members.push((job, attempt, w.clone()));
                    }
                }
            }
        }
    }
    if members.is_empty() {
        return;
    }
    let lead = members[0].0;
    let lead_work = members[0].2.clone();
    let cfg = &inner.cfg;
    let doc: &[u8] = lead_work.doc.as_slice();

    // One shared compile over the union of every member's patterns;
    // spans remember which slice of the union belongs to which member.
    let mut all_patterns: Vec<&str> = Vec::new();
    let mut spans: Vec<(usize, usize)> = Vec::with_capacity(members.len());
    for (_, _, w) in &members {
        spans.push((all_patterns.len(), w.patterns.len()));
        all_patterns.extend(w.patterns.iter().map(String::as_str));
    }
    let set = QuerySet::compile_with_budget(&all_patterns, &lead_work.alphabet, lead_work.budget)
        .expect("multi-query patterns were validated at admission");

    // A singleton group honors the request's own limits; grouping only
    // ever batches requests that inherit the service defaults.
    let requested = if members.len() == 1 {
        members[0].2.limits.as_ref()
    } else {
        None
    };
    let limits = cfg.budget.session_limits_for(requested, &cfg.obs);
    let mut session = set.session(limits);
    if inner.obs.handle.is_enabled() {
        for (job, _, _) in &members {
            inner.obs.trace(TraceEvent::JobSession {
                job: *job,
                session: session.obs_session_id(),
            });
        }
    }
    let cadence = cfg.checkpoint_every.max(1);
    let pass_start_ms = inner.now_ms();
    let mut off = 0usize;
    while off < doc.len() {
        let end = (off + cadence).min(doc.len());
        if let Err(e) = session.feed(&doc[off..end]) {
            for (job, attempt, _) in &members {
                inner.record_attempt_failure(*job, *attempt, FailureCause::Engine(e.clone()));
            }
            return;
        }
        off = end;
        slot.heartbeat_ms.store(inner.now_ms(), Ordering::SeqCst);
    }
    match session.finish() {
        Ok(out) => {
            inner.observe_group_rate(doc.len(), inner.now_ms().saturating_sub(pass_start_ms));
            let n = members.len();
            for ((job, attempt, _), &(start, len)) in members.iter().zip(&spans) {
                let per_query = out.matches[start..start + len].to_vec();
                inner.complete_multi(*job, *attempt, per_query, n);
            }
            inner.multi_groups.fetch_add(1, Ordering::SeqCst);
            inner
                .multi_group_members
                .fetch_add(n as u64, Ordering::SeqCst);
            inner.obs.multi_groups.incr();
            inner.obs.multi_group_members.add(n as u64);
            inner.obs.multi_group_size.record(n as u64);
            inner.obs.trace(TraceEvent::SharedPass {
                job: lead,
                members: n as u64,
                queries: all_patterns.len() as u64,
            });
        }
        Err(e) => {
            for (job, attempt, _) in &members {
                inner.record_attempt_failure(*job, *attempt, FailureCause::Engine(e.clone()));
            }
        }
    }
}

/// Runs one attempt of one request on this worker.
fn run_job(inner: &Arc<Inner>, slot: &WorkerSlot, job: u64, attempt: u32) {
    let (spec, resume) = {
        let jobs = lock(&inner.jobs);
        match jobs.get(&job) {
            Some(st) if st.attempt == attempt && matches!(st.status, Status::Running) => {
                match &st.work {
                    Work::Single(spec) => (spec.clone(), st.resume.clone()),
                    Work::Multi(_) => return,
                }
            }
            _ => return,
        }
    };
    let cfg = &inner.cfg;
    let doc: &[u8] = spec.doc.as_slice();
    let limits = cfg
        .budget
        .session_limits_for(spec.limits.as_ref(), &cfg.obs);

    // Fast path: the data-parallel chunked engine, for large registerless
    // documents on a fresh, guard-free, chaos-free attempt.  Under
    // pressure the degradation ladder steps down to the session path.
    // Streamed requests never take the chunked path: it reports only at
    // end-of-document, and the whole point of streaming is delivery at
    // the certainty frontier.
    let chunk_eligible = cfg.chaos.is_none()
        && attempt == 1
        && resume.is_none()
        && !spec.stream
        && doc.len() >= cfg.parallel_threshold
        && spec.query.strategy() == Strategy::Registerless
        && limits.is_unbounded();
    if chunk_eligible {
        if inner.pressure_high() {
            inner.mark_degraded(job, attempt);
        } else {
            slot.heartbeat_ms.store(inner.now_ms(), Ordering::SeqCst);
            match spec.query.select_bytes_parallel(doc, cfg.chunk_threads) {
                Ok(m) => return inner.complete(job, attempt, m, PathTaken::Chunked),
                Err(e) => {
                    return inner.record_attempt_failure(job, attempt, FailureCause::Engine(e))
                }
            }
        }
    }

    // Guarded session path with checkpoint cadence.
    let prefix_len = resume.as_ref().map_or(0, |r| r.matches);
    let mut session = match &resume {
        Some(r) => match spec.query.resume(&r.checkpoint, limits) {
            Ok(s) => {
                inner.note_resume(job, attempt);
                inner.obs.trace(TraceEvent::Failover {
                    job,
                    attempt,
                    offset: r.checkpoint.offset() as u64,
                });
                s
            }
            Err(e) => return inner.record_attempt_failure(job, attempt, FailureCause::Engine(e)),
        },
        None => spec.query.session(limits),
    };
    // A resumed streamed attempt's cursor is verified against the ledger
    // before any of its output is accepted: a hostile checkpoint (forged
    // count, tampered digest) dies here with a typed error instead of
    // letting replay dedup silently mis-align.
    if spec.stream {
        if let Err(cause) = inner.verify_resume_cursor(job, attempt, session.emission_cursor()) {
            return inner.record_attempt_failure(job, attempt, cause);
        }
    }
    if inner.obs.handle.is_enabled() {
        inner.obs.trace(TraceEvent::JobSession {
            job,
            session: session.obs_session_id(),
        });
    }
    let cadence = cfg.checkpoint_every.max(1);
    let mut off = session.offset();
    // `session.matches()[..stored]` already went out with a checkpoint.
    let mut stored = 0usize;
    while off < doc.len() {
        let end = (off + cadence).min(doc.len());
        let fault = cfg.chaos.as_ref().map_or(Fault::None, |c| {
            c.roll(job, attempt, (off / cadence) as u64)
        });
        match fault {
            Fault::Panic => {
                panic!("chaos: injected worker panic (job {job}, attempt {attempt}, offset {off})")
            }
            Fault::Corrupt => {
                return inner.record_attempt_failure(
                    job,
                    attempt,
                    FailureCause::SegmentCorrupted { offset: off },
                );
            }
            Fault::Stall => {
                // Sleep through the supervisor's deadline; by the time
                // this worker wakes, it has been abandoned and all its
                // further writes are stale no-ops.
                std::thread::sleep(Duration::from_millis(
                    cfg.chaos.as_ref().map_or(0, |c| c.stall_ms),
                ));
            }
            Fault::None => {}
        }
        if let Err(e) = session.feed(&doc[off..end]) {
            return inner.record_attempt_failure(job, attempt, FailureCause::Engine(e));
        }
        off = end;
        slot.heartbeat_ms.store(inner.now_ms(), Ordering::SeqCst);
        // Deliver what crossed the certainty frontier *before* storing
        // the checkpoint: the ledger may then run ahead of the stored
        // cursor (matches recorded after the last stored checkpoint),
        // which is exactly the replay window failover dedup suppresses.
        if spec.stream {
            let batch = session.drain_emitted();
            let start = session.emission_cursor().count as usize - batch.len();
            if let Err(cause) = inner.record_emissions(job, attempt, start, &batch) {
                return inner.record_attempt_failure(job, attempt, cause);
            }
        }
        match session.checkpoint() {
            Ok(cp) => {
                inner.store_resume(job, attempt, cp, &session.matches()[stored..]);
                stored = session.matches().len();
            }
            Err(e) => return inner.record_attempt_failure(job, attempt, FailureCause::Engine(e)),
        }
    }
    let stream_cursor = spec.stream.then(|| session.emission_cursor());
    match session.finish() {
        Ok(out) => {
            let all = if prefix_len == 0 {
                out.matches
            } else {
                let mut all = inner.resume_prefix(job, prefix_len);
                all.extend_from_slice(&out.matches);
                all
            };
            // A streamed request completes only if the delivered stream
            // equals the final match list and the cursors agree — a gap
            // or duplicate that survived this far is a typed failure,
            // never a silently wrong answer.
            if let Some(cursor) = stream_cursor {
                if let Err(cause) = inner.verify_final_emissions(job, attempt, &all, cursor) {
                    return inner.record_attempt_failure(job, attempt, cause);
                }
            }
            inner.complete(job, attempt, all, PathTaken::Session);
        }
        Err(e) => inner.record_attempt_failure(job, attempt, FailureCause::Engine(e)),
    }
}

// ---------------------------------------------------------------------------
// Supervisor
// ---------------------------------------------------------------------------

fn spawn_worker(inner: &Arc<Inner>, index: usize) -> WorkerHandle {
    let (tx, rx) = channel::<Assignment>();
    let slot = Arc::new(WorkerSlot {
        alive: AtomicBool::new(true),
        abandoned: AtomicBool::new(false),
        busy: Mutex::new(None),
        heartbeat_ms: AtomicU64::new(inner.now_ms()),
    });
    inner.workers_spawned.fetch_add(1, Ordering::SeqCst);
    inner.obs.workers_spawned.incr();
    let inner2 = inner.clone();
    let slot2 = slot.clone();
    let join = std::thread::Builder::new()
        .name(format!("st-serve-worker-{index}"))
        .spawn(move || worker_main(inner2, slot2, rx))
        .expect("spawn worker thread");
    WorkerHandle {
        slot,
        tx: Some(tx),
        join: Some(join),
    }
}

/// Detects dead and stalled workers; recovers their in-flight requests
/// and replaces them.
fn reap_and_replace(inner: &Arc<Inner>, workers: &mut [WorkerHandle], now_ms: u64) {
    let stall_ms = inner.cfg.stall_timeout.as_millis() as u64;
    for (i, worker) in workers.iter_mut().enumerate() {
        if !worker.slot.alive.load(Ordering::SeqCst) {
            // Dead (panic).  The panic path normally reported already;
            // this sweep is the backstop for a worker that died without
            // reporting.
            let victim = lock(&worker.slot.busy).take();
            if let Some(a) = victim {
                for (job, attempt) in a.group {
                    inner.record_attempt_failure(
                        job,
                        attempt,
                        FailureCause::WorkerPanic {
                            detail: "worker thread died".to_owned(),
                        },
                    );
                }
            }
            if let Some(h) = worker.join.take() {
                let _ = h.join(); // reap; Err(panic payload) is expected
            }
            *worker = spawn_worker(inner, i);
            continue;
        }
        // Stalled?  Only a busy worker owes heartbeats.
        let victim = lock(&worker.slot.busy).clone();
        if let Some(a) = victim {
            let hb = worker.slot.heartbeat_ms.load(Ordering::SeqCst);
            let silent = now_ms.saturating_sub(hb);
            if silent > stall_ms {
                worker.slot.abandoned.store(true, Ordering::SeqCst);
                *lock(&worker.slot.busy) = None;
                for &(job, attempt) in &a.group {
                    inner.record_attempt_failure(
                        job,
                        attempt,
                        FailureCause::WorkerStall { stalled_ms: silent },
                    );
                }
                // Replace the slot; dropping the old sender lets the
                // zombie exit once it wakes, and dropping the handle
                // detaches it (joining a sleeping zombie would block
                // shutdown).
                let replacement = spawn_worker(inner, i);
                let _zombie = std::mem::replace(worker, replacement);
            }
        }
    }
}

/// Hands one pending entry to an idle worker.  A groupable multi-query
/// lead pulls every other queued multi-query request with the same
/// document fingerprint into its assignment, so one worker serves the
/// whole batch with one shared pass.  Returns `false` if the work must
/// go back to the queue (no healthy idle worker took it).
fn try_assign(inner: &Arc<Inner>, workers: &[WorkerHandle], p: &Pending, now_ns: u64) -> bool {
    // Deadline-aware admission: a queued request whose deadline already
    // passed is dropped here — typed error, no worker dispatch.
    if inner.expire_if_due(p.id, now_ns) {
        return true;
    }
    let now_ms = now_ns / 1_000_000;
    let mut group: Vec<(u64, u32)> = Vec::new();
    {
        let mut jobs = lock(&inner.jobs);
        let group_key = match jobs.get_mut(&p.id) {
            Some(st) if matches!(st.status, Status::Queued) => {
                st.status = Status::Running;
                group.push((p.id, st.attempt));
                match &st.work {
                    Work::Multi(w) if w.limits.is_none() => Some(w.fp),
                    _ => None,
                }
            }
            // Vanished or already terminal: the entry is stale; drop it.
            _ => return true,
        };
        if let Some(fp) = group_key {
            // Claim the rest of the batch.  Members stay Running while
            // their own queue entries surface later as stale no-ops;
            // deterministic ascending-id order keeps result splitting
            // independent of queue arrival order.
            let mut peers: Vec<u64> = jobs
                .iter()
                .filter(|(id, st)| {
                    **id != p.id
                        && matches!(st.status, Status::Queued)
                        // Deadline-aware grouping: never adopt a member
                        // whose deadline is projected to expire before
                        // the shared pass finishes — it would ride along
                        // only to receive an answer nobody is waiting
                        // for.  The projection uses the measured EWMA
                        // throughput of completed shared passes (the
                        // configured hint until one completes).
                        && st.deadline_ms.is_none_or(|d| {
                            let projected_ms =
                                st.work.doc_len() as u64 / inner.group_rate() + 1;
                            now_ms + projected_ms <= d
                        })
                        && matches!(&st.work,
                            Work::Multi(w) if w.limits.is_none() && w.fp == fp)
                })
                .map(|(id, _)| *id)
                .collect();
            peers.sort_unstable();
            for id in peers {
                if let Some(st) = jobs.get_mut(&id) {
                    st.status = Status::Running;
                    group.push((id, st.attempt));
                }
            }
        }
    }
    for w in workers {
        let healthy = w.slot.alive.load(Ordering::SeqCst)
            && !w.slot.abandoned.load(Ordering::SeqCst)
            && w.tx.is_some();
        if !healthy {
            continue;
        }
        let mut busy = lock(&w.slot.busy);
        if busy.is_some() {
            continue;
        }
        *busy = Some(Assignment {
            group: group.clone(),
        });
        drop(busy);
        w.slot.heartbeat_ms.store(now_ms, Ordering::SeqCst);
        let sent =
            w.tx.as_ref()
                .expect("healthy worker has a sender")
                .send(Assignment {
                    group: group.clone(),
                });
        if sent.is_ok() {
            return true;
        }
        // The worker died between the liveness check and the send; the
        // reaper will replace it.  Roll back and keep looking.
        *lock(&w.slot.busy) = None;
    }
    // No healthy idle worker: the whole claimed group goes back to the
    // queue (non-lead members' queue entries are still there).
    let mut jobs = lock(&inner.jobs);
    for &(id, attempt) in &group {
        if let Some(st) = jobs.get_mut(&id) {
            if st.attempt == attempt && matches!(st.status, Status::Running) {
                st.status = Status::Queued;
            }
        }
    }
    false
}

fn dispatcher_main(inner: Arc<Inner>) {
    let mut workers: Vec<WorkerHandle> = (0..inner.cfg.workers.max(1))
        .map(|i| spawn_worker(&inner, i))
        .collect();
    let poll = (inner.cfg.stall_timeout / 4)
        .min(Duration::from_millis(10))
        .max(Duration::from_millis(1));
    loop {
        let now_ns = inner.now_ns();
        let now_ms = now_ns / 1_000_000;
        reap_and_replace(&inner, &mut workers, now_ms);

        // Pull due entries (retries wait out their backoff).
        let mut due: Vec<Pending> = Vec::new();
        let mut next_due_ms: Option<u64> = None;
        {
            let mut q = lock(&inner.queue);
            let mut keep = VecDeque::with_capacity(q.q.len());
            while let Some(p) = q.q.pop_front() {
                if p.not_before_ms <= now_ms {
                    due.push(p);
                } else {
                    next_due_ms =
                        Some(next_due_ms.map_or(p.not_before_ms, |m| m.min(p.not_before_ms)));
                    keep.push_back(p);
                }
            }
            q.q = keep;
            inner.obs.queue_depth.set(q.q.len() as i64);
        }
        let mut leftovers: Vec<Pending> = Vec::new();
        for p in due {
            if !try_assign(&inner, &workers, &p, now_ns) {
                leftovers.push(p);
            }
        }
        if !leftovers.is_empty() {
            let mut q = lock(&inner.queue);
            for p in leftovers.into_iter().rev() {
                q.q.push_front(p);
            }
            inner.obs.queue_depth.set(q.q.len() as i64);
            drop(q);
        }

        // Graceful drain: exit only when no request is still open.
        let open = inner.submitted.load(Ordering::SeqCst)
            - inner.completed.load(Ordering::SeqCst)
            - inner.failed.load(Ordering::SeqCst);
        let shutting_down = lock(&inner.queue).shutdown;
        if shutting_down && open == 0 {
            break;
        }

        let mut timeout = poll;
        if let Some(nd) = next_due_ms {
            timeout = timeout.min(
                Duration::from_millis(nd.saturating_sub(now_ms)).max(Duration::from_millis(1)),
            );
        }
        let guard = lock(&inner.queue);
        let _ = inner
            .queue_cv
            .wait_timeout(guard, timeout)
            .map(|(g, _)| drop(g));
    }
    // Drop senders so idle workers exit, then join the live ones.
    for w in &mut workers {
        w.tx = None;
    }
    for mut w in workers {
        if let Some(h) = w.join.take() {
            let _ = h.join();
        }
    }
}

// ---------------------------------------------------------------------------
// Public handle
// ---------------------------------------------------------------------------

/// A running supervised serving runtime.  See the module docs for the
/// architecture; construct with [`ServeRuntime::start`], submit with
/// [`ServeRuntime::submit`], collect with [`ServeRuntime::wait`], and
/// drain with [`ServeRuntime::shutdown`].
pub struct ServeRuntime {
    inner: Arc<Inner>,
    dispatcher: Option<JoinHandle<()>>,
}

impl ServeRuntime {
    /// Starts the pool and the supervisor.
    ///
    /// On glibc the first start caps `malloc` at one arena
    /// (process-wide), so every job reuses the pages earlier jobs freed
    /// instead of inflating per-thread arenas.
    pub fn start(cfg: ServeConfig) -> ServeRuntime {
        crate::heap::share_one_arena();
        if cfg.chaos.is_some() {
            silence_chaos_panics();
        }
        let clock = cfg.budget.session_limits.clock.unwrap_or(monotonic_clock);
        let obs = ServeObs::attach(&cfg.obs);
        let inner = Arc::new(Inner {
            cfg,
            clock,
            epoch: clock(),
            obs,
            queue: Mutex::new(QueueState {
                q: VecDeque::new(),
                shutdown: false,
            }),
            queue_cv: Condvar::new(),
            jobs: Mutex::new(HashMap::new()),
            jobs_cv: Condvar::new(),
            in_flight_bytes: AtomicUsize::new(0),
            next_id: AtomicU64::new(1),
            submitted: AtomicU64::new(0),
            completed: AtomicU64::new(0),
            failed: AtomicU64::new(0),
            shed: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
            retries: AtomicU64::new(0),
            resumes: AtomicU64::new(0),
            panics: AtomicU64::new(0),
            stalls: AtomicU64::new(0),
            corruptions: AtomicU64::new(0),
            degraded: AtomicU64::new(0),
            checkpoints: AtomicU64::new(0),
            workers_spawned: AtomicU64::new(0),
            multi_groups: AtomicU64::new(0),
            multi_group_members: AtomicU64::new(0),
            deadline_expired: AtomicU64::new(0),
            emitted: AtomicU64::new(0),
            emission_suppressed: AtomicU64::new(0),
            group_rate_bpms: AtomicU64::new(0),
        });
        let inner2 = inner.clone();
        let dispatcher = std::thread::Builder::new()
            .name("st-serve-supervisor".to_owned())
            .spawn(move || dispatcher_main(inner2))
            .expect("spawn supervisor thread");
        ServeRuntime {
            inner,
            dispatcher: Some(dispatcher),
        }
    }

    fn admit(&self, work: Work, block: bool) -> Result<JobId, ServeError> {
        let doc_len = work.doc_len();
        loop {
            {
                // Lock order everywhere: jobs before queue.
                let mut jobs = lock(&self.inner.jobs);
                let mut q = lock(&self.inner.queue);
                if q.shutdown {
                    return Err(ServeError::ShuttingDown);
                }
                if q.q.len() < self.inner.cfg.queue_capacity {
                    if let Some(mb) = self.inner.cfg.budget.max_in_flight_bytes {
                        let cur = self.inner.in_flight_bytes.load(Ordering::SeqCst);
                        if cur + doc_len > mb {
                            self.inner.rejected.fetch_add(1, Ordering::SeqCst);
                            self.inner.obs.rejected.incr();
                            self.inner.obs.trace(TraceEvent::BudgetReject {
                                requested: doc_len as u64,
                                held: cur as u64,
                                budget: mb as u64,
                            });
                            return Err(ServeError::Rejected {
                                reason: format!(
                                    "in-flight byte budget: {cur} held + {doc_len} requested > {mb}"
                                ),
                            });
                        }
                    }
                    let id = self.inner.next_id.fetch_add(1, Ordering::SeqCst);
                    let submitted_ns = self.inner.now_ns();
                    let submitted_ms = submitted_ns / 1_000_000;
                    jobs.insert(
                        id,
                        JobState {
                            attempt: 1,
                            resume: None,
                            resume_matches: Vec::new(),
                            resumes: 0,
                            failures: Vec::new(),
                            status: Status::Queued,
                            path: PathTaken::Session,
                            degraded: false,
                            submitted_ns,
                            deadline_ms: work
                                .deadline()
                                .map(|d| submitted_ms.saturating_add(d.as_millis() as u64)),
                            multi_results: None,
                            group_size: 0,
                            ledger: Vec::new(),
                            suppressed: 0,
                            work: work.clone(),
                        },
                    );
                    let held = self
                        .inner
                        .in_flight_bytes
                        .fetch_add(doc_len, Ordering::SeqCst);
                    q.q.push_back(Pending {
                        id,
                        not_before_ms: 0,
                    });
                    self.inner.submitted.fetch_add(1, Ordering::SeqCst);
                    self.inner.obs.submitted.incr();
                    self.inner.obs.in_flight_bytes.set((held + doc_len) as i64);
                    self.inner.obs.queue_depth.set(q.q.len() as i64);
                    self.inner.obs.trace(TraceEvent::JobAdmitted {
                        job: id,
                        bytes: doc_len as u64,
                    });
                    drop(q);
                    drop(jobs);
                    self.inner.queue_cv.notify_all();
                    return Ok(JobId(id));
                }
                if !block {
                    self.inner.shed.fetch_add(1, Ordering::SeqCst);
                    self.inner.obs.shed.incr();
                    self.inner.obs.trace(TraceEvent::QueueShed {
                        queue_len: q.q.len() as u64,
                        capacity: self.inner.cfg.queue_capacity as u64,
                    });
                    return Err(ServeError::Overloaded {
                        queue_len: q.q.len(),
                        capacity: self.inner.cfg.queue_capacity,
                    });
                }
            }
            // Blocking submit: wait for space (jobs lock released).
            let q = lock(&self.inner.queue);
            if q.shutdown {
                return Err(ServeError::ShuttingDown);
            }
            let _ = self
                .inner
                .queue_cv
                .wait_timeout(q, Duration::from_millis(10))
                .map(|(g, _)| drop(g));
        }
    }

    /// Submits a request.  Admission control applies: a full queue sheds
    /// with [`ServeError::Overloaded`], a blown service byte budget
    /// refuses with [`ServeError::Rejected`].
    ///
    /// # Errors
    ///
    /// [`ServeError::Overloaded`], [`ServeError::Rejected`], or
    /// [`ServeError::ShuttingDown`].
    pub fn submit(&self, spec: JobSpec) -> Result<JobId, ServeError> {
        self.admit(Work::Single(Arc::new(spec)), false)
    }

    /// Like [`Self::submit`] but waits for queue space instead of
    /// shedding.  Byte-budget rejection still applies.
    ///
    /// # Errors
    ///
    /// [`ServeError::Rejected`] or [`ServeError::ShuttingDown`].
    pub fn submit_blocking(&self, spec: JobSpec) -> Result<JobId, ServeError> {
        self.admit(Work::Single(Arc::new(spec)), true)
    }

    /// Submits a multi-query request.  Every pattern is validated at
    /// admission; requests over the same document (same bytes, alphabet,
    /// and product budget) that carry no custom limits are grouped by the
    /// scheduler and served by one shared [`st_core::QuerySet`] pass.
    ///
    /// # Errors
    ///
    /// [`ServeError::Rejected`] when a pattern fails to compile or the
    /// byte budget is blown, [`ServeError::Overloaded`], or
    /// [`ServeError::ShuttingDown`].
    pub fn submit_multi(&self, spec: MultiJobSpec) -> Result<JobId, ServeError> {
        self.admit_multi(spec, false)
    }

    /// Like [`Self::submit_multi`] but waits for queue space instead of
    /// shedding.
    ///
    /// # Errors
    ///
    /// [`ServeError::Rejected`] or [`ServeError::ShuttingDown`].
    pub fn submit_multi_blocking(&self, spec: MultiJobSpec) -> Result<JobId, ServeError> {
        self.admit_multi(spec, true)
    }

    fn admit_multi(&self, spec: MultiJobSpec, block: bool) -> Result<JobId, ServeError> {
        for (i, p) in spec.patterns.iter().enumerate() {
            if let Err(e) = compile_regex(p, &spec.alphabet) {
                self.inner.rejected.fetch_add(1, Ordering::SeqCst);
                self.inner.obs.rejected.incr();
                return Err(ServeError::Rejected {
                    reason: format!("pattern {i} ({p:?}) failed to compile: {e}"),
                });
            }
        }
        let budget = spec.product_budget.unwrap_or(self.inner.cfg.product_budget);
        let fp = group_fingerprint(&spec.doc, &spec.alphabet, budget);
        self.admit(
            Work::Multi(Arc::new(MultiWork {
                patterns: spec.patterns,
                alphabet: spec.alphabet,
                doc: spec.doc,
                limits: spec.limits,
                deadline: spec.deadline,
                budget,
                fp,
            })),
            block,
        )
    }

    /// Blocks until the request finishes (completes, or fails its typed
    /// terminal error) and returns its report.
    ///
    /// # Errors
    ///
    /// [`ServeError::UnknownJob`] for an id this runtime never issued.
    pub fn wait(&self, id: JobId) -> Result<JobReport, ServeError> {
        let mut jobs = lock(&self.inner.jobs);
        loop {
            let Some(st) = jobs.get(&id.0) else {
                return Err(ServeError::UnknownJob { id: id.0 });
            };
            if let Some(report) = self.inner.report_of(id.0, st) {
                return Ok(report);
            }
            jobs = self
                .inner
                .jobs_cv
                .wait_timeout(jobs, Duration::from_millis(50))
                .unwrap_or_else(|p| p.into_inner())
                .0;
        }
    }

    /// The report of a finished request, or `None` while it is still
    /// queued or running.
    pub fn try_report(&self, id: JobId) -> Option<JobReport> {
        let jobs = lock(&self.inner.jobs);
        jobs.get(&id.0)
            .and_then(|st| self.inner.report_of(id.0, st))
    }

    /// The matches delivered so far to a streamed request, from stream
    /// position `start` onward.  Usable while the request is still
    /// running — this is how a caller consumes the stream incrementally
    /// (poll, extend by what is new, repeat).  The returned slice is a
    /// prefix-stable snapshot: position `i` never changes once returned,
    /// across retries and failovers.
    ///
    /// # Errors
    ///
    /// [`ServeError::UnknownJob`] for an id this runtime never issued.
    pub fn emitted_prefix(
        &self,
        id: JobId,
        start: usize,
    ) -> Result<Vec<StreamedMatch>, ServeError> {
        let jobs = lock(&self.inner.jobs);
        let Some(st) = jobs.get(&id.0) else {
            return Err(ServeError::UnknownJob { id: id.0 });
        };
        Ok(st.ledger.get(start..).unwrap_or_default().to_vec())
    }

    /// Blocks until the request finishes and returns its report with
    /// per-query match attribution.  For a request submitted via
    /// [`Self::submit`] the single result set is returned as one entry.
    ///
    /// # Errors
    ///
    /// [`ServeError::UnknownJob`] for an id this runtime never issued.
    pub fn wait_multi(&self, id: JobId) -> Result<MultiJobReport, ServeError> {
        let mut jobs = lock(&self.inner.jobs);
        loop {
            let Some(st) = jobs.get(&id.0) else {
                return Err(ServeError::UnknownJob { id: id.0 });
            };
            if let Some(report) = self.inner.multi_report_of(id.0, st) {
                return Ok(report);
            }
            jobs = self
                .inner
                .jobs_cv
                .wait_timeout(jobs, Duration::from_millis(50))
                .unwrap_or_else(|p| p.into_inner())
                .0;
        }
    }

    /// The per-query report of a finished request, or `None` while it is
    /// still queued or running.
    pub fn try_multi_report(&self, id: JobId) -> Option<MultiJobReport> {
        let jobs = lock(&self.inner.jobs);
        jobs.get(&id.0)
            .and_then(|st| self.inner.multi_report_of(id.0, st))
    }

    /// A snapshot of the runtime counters.
    pub fn stats(&self) -> ServeStats {
        self.inner.stats()
    }

    /// Closes admission without blocking: subsequent submissions get
    /// [`ServeError::ShuttingDown`], while already-admitted requests keep
    /// running and can still be `wait`ed on.  [`Self::shutdown`] completes
    /// the drain.
    pub fn begin_drain(&self) {
        self.begin_shutdown();
    }

    /// Stops accepting work, drains every in-flight request (completing
    /// or failing each one — none are lost), stops the pool, and returns
    /// the final counters.
    pub fn shutdown(mut self) -> ServeStats {
        self.begin_shutdown();
        if let Some(h) = self.dispatcher.take() {
            let _ = h.join();
        }
        self.inner.stats()
    }

    fn begin_shutdown(&self) {
        lock(&self.inner.queue).shutdown = true;
        self.inner.queue_cv.notify_all();
    }
}

impl Drop for ServeRuntime {
    fn drop(&mut self) {
        self.begin_shutdown();
        if let Some(h) = self.dispatcher.take() {
            let _ = h.join();
        }
    }
}

/// Installs (once, chained) a panic hook that silences the chaos
/// harness's own injected panics — they are the test, not noise — while
/// passing every other panic through to the previous hook.
pub fn silence_chaos_panics() {
    static ONCE: OnceLock<()> = OnceLock::new();
    ONCE.get_or_init(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let payload = info.payload();
            let is_chaos = payload
                .downcast_ref::<String>()
                .map(|s| s.starts_with("chaos:"))
                .or_else(|| {
                    payload
                        .downcast_ref::<&str>()
                        .map(|s| s.starts_with("chaos:"))
                })
                .unwrap_or(false);
            if !is_chaos {
                prev(info);
            }
        }));
    });
}
