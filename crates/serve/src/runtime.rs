//! The supervised serving runtime: a job book, and a fixed worker pool
//! that drives many concurrent streaming query sessions through it, with
//! checkpoint failover.
//!
//! # Architecture
//!
//! ```text
//!    submit ── queue full: shed         wait ──▶ JobReport
//!      │                                  ▲
//!      ▼     reserve bytes, enter  ┌──────┴───────────────────┐
//!   ┌───────┐ ───────────────────▶ │ book: byte budget, job   │
//!   │ queue │                      │ records (match store,    │
//!   └───────┘                      │ resume point), the pass  │
//!   claim │ ▲ requeue (backoff;    │ step, completion check,  │
//!         ▼ │ resume from the last │ conclude, counters and   │
//!   ┌────┐┌────┐┌────┐ checkpoint) │ trace                    │
//!   │ w0 ││ w1 ││ w2 │ ──────────▶ └──────────────────────────┘
//!   └────┘└────┘└────┘ one step per segment: feed, checkpoint, record
//!      ▲  ▲  ▲   spawn, reap, abandon stalled workers;
//!   ┌──┴──┴──┴──┐ expire queued deadlines
//!   │supervisor │
//!   └───────────┘
//! ```
//!
//! A request is one [`JobSpec`] over a [`Plan`]: one fused query, or a
//! query set whose members share one pass.  Its [`JobReport`] carries
//! the match set and, for a set, each member's own (`per_query`).
//!
//! The `Book` holds what a job *is*: admission into it, the one
//! in-flight byte budget, each job's record with its one match store and
//! resume point, the pass step, the completion check and the end of the
//! job.  The `Pool` — the queue, the workers and their supervisor —
//! only decides *who drives* a pass.  A worker claims its next pass
//! straight from the queue: one request, fed through one
//! [`EngineSession`] or [`QuerySetSession`].  It calls the book's step
//! once per cadence-sized segment.  The TCP edge ([`crate::net`]) keeps a
//! book of its own and calls the same step once per uploaded chunk, on
//! the connection's thread.
//!
//! Each step appends the session's new matches, once, to the request's
//! store and records the checkpoint it minted there.  The O(1)/O(depth)
//! snapshot of Theorems 3.1/3.2 is exactly what makes a session
//! *migratable*: when a worker panics or stalls, its request goes back
//! to the queue, and the next pass resumes from the last checkpoint and
//! the store entries it covers, not from zero.  A request's faults are
//! its own: no pass serves two requests.  Retries back off
//! exponentially and are bounded; the terminal error is typed
//! ([`ServeError::Failed`]) and carries the full failure history.
//!
//! Every pass runs the guarded session path with its checkpoint cadence;
//! under pressure the pool sheds at the queue.

use std::collections::{HashMap, VecDeque};
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock};
use std::thread::JoinHandle;
use std::time::Duration;

use st_core::emit::{EmissionCursor, StreamedMatch};
use st_core::engine::FusedQuery;
use st_core::queryset::{QuerySet, QuerySetCheckpoint, QuerySetSession};
use st_core::session::{
    monotonic_clock, ClockFn, EngineCheckpoint, EngineSession, Limits, SessionError,
};
use st_obs::{Counter, Gauge, Histogram, ObsHandle, TraceEvent};

use crate::chaos::Fault;
use crate::config::{ServeConfig, ServiceBudget};
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

/// What a job evaluates.
#[derive(Clone)]
pub enum Plan {
    /// One fused query: the report's `result` is its match set.
    Query(Arc<FusedQuery>),
    /// A query set, run in one shared pass: the report's `per_query`
    /// holds each member's match set and `result` their union.
    Set(Arc<QuerySet>),
}

impl From<Arc<FusedQuery>> for Plan {
    fn from(query: Arc<FusedQuery>) -> Plan {
        Plan::Query(query)
    }
}

impl From<Arc<QuerySet>> for Plan {
    fn from(set: Arc<QuerySet>) -> Plan {
        Plan::Set(set)
    }
}

impl Plan {
    /// How many match lists the plan yields.
    fn queries(&self) -> usize {
        match self {
            Plan::Query(_) => 1,
            Plan::Set(set) => set.len(),
        }
    }
}

/// One request: a plan and the document to run it over.
#[derive(Clone)]
pub struct JobSpec {
    /// What to evaluate (shared across requests).
    pub plan: Plan,
    /// The document bytes (shared with retries and checkpoint resumes).
    pub doc: Arc<Vec<u8>>,
    /// Per-session limits; `None` inherits
    /// [`crate::ServiceBudget::session_limits`].
    pub limits: Option<Limits>,
    /// Admission deadline, measured on the runtime clock from the moment
    /// the request is admitted.  A request still *queued* when its
    /// deadline passes is dropped with a typed
    /// [`ServeError::DeadlineExpired`] instead of burning a worker on an
    /// answer nobody is waiting for.  A request a worker already claimed
    /// runs to completion — mid-flight work is governed by [`Limits`],
    /// not the queue deadline.  `None` means no deadline.
    pub deadline: Option<Duration>,
    /// Whether the submitter consumes the match stream incrementally
    /// (polling [`ServeRuntime::emitted_prefix`] while the request
    /// runs).  Streamed requests get a supervisor-side emission ledger
    /// with exactly-once replay dedup across failovers.  Only a
    /// [`Plan::Query`] streams: a streamed [`Plan::Set`] is refused at
    /// admission.
    pub stream: bool,
}

impl JobSpec {
    /// A request with inherited service-level limits.
    pub fn new(plan: impl Into<Plan>, doc: impl Into<Arc<Vec<u8>>>) -> JobSpec {
        JobSpec {
            plan: plan.into(),
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

/// Which evaluation path ultimately served a request.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PathTaken {
    /// The data-parallel chunked byte engine.  The runtime no longer
    /// produces it: every pass runs the session path.
    Chunked,
    /// The sequential guarded session path with checkpoint cadence.
    Session,
}

/// The final record of one request.
#[derive(Clone, Debug)]
pub struct JobReport {
    /// The request's id.
    pub id: JobId,
    /// Match set (document-order node ids) or the typed terminal error;
    /// a query set's is the union of its members' match sets.
    pub result: Result<Vec<usize>, ServeError>,
    /// A completed [`Plan::Set`]'s match set per member, in set order.
    /// Empty for a [`Plan::Query`] and for a failed request.
    pub per_query: Vec<Vec<usize>>,
    /// Attempts spent (1 + retries).
    pub attempts: u32,
    /// Checkpoint resumes performed (a resume means a later attempt
    /// continued mid-document instead of restarting).
    pub resumes: u32,
    /// The path that produced the result.
    pub path: PathTaken,
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
    /// Checkpoints minted.
    pub checkpoints: u64,
    /// Worker threads spawned (initial pool + replacements).
    pub workers_spawned: u64,
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
             checkpoints {} workers-spawned {} | \
             deadline-expired {} | \
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
            self.checkpoints,
            self.workers_spawned,
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
    /// The job ended; a completed job's answer is its [`Store`].
    Done(Result<(), ServeError>),
}

/// A checkpoint of either session kind.
#[derive(Clone)]
pub(crate) enum PassCheckpoint {
    Query(EngineCheckpoint),
    Set(QuerySetCheckpoint),
}

/// A job's one match store.  The pass that runs the job's live attempt
/// appends each segment's new matches to it once; reports read the job's
/// answer off it.
pub(crate) enum Store {
    /// A streamed single-query job: the emission ledger, every match
    /// delivered so far with the byte offset that decided it, in
    /// emission order.  Append-only — the delivery point of
    /// exactly-once: replays after a failover are verified against it
    /// and suppressed, never re-appended, and entries survive retries
    /// and resumes untouched.
    Ledger(Vec<StreamedMatch>),
    /// Every other job: one node list per query.
    Lists(Vec<Vec<usize>>),
}

impl Store {
    /// The delivered stream (empty for a list store).
    fn ledger(&self) -> &[StreamedMatch] {
        match self {
            Store::Ledger(ledger) => ledger,
            Store::Lists(_) => &[],
        }
    }

    /// One match list per query.
    fn lists(&self) -> Vec<Vec<usize>> {
        match self {
            Store::Ledger(ledger) => vec![ledger.iter().map(|m| m.node).collect()],
            Store::Lists(lists) => lists.clone(),
        }
    }

    /// The plain match set: a query set's is the union of its lists
    /// (document order, deduped).
    fn matches(&self) -> Vec<usize> {
        let mut lists = self.lists();
        if lists.len() == 1 {
            return lists.remove(0);
        }
        let mut union = lists.concat();
        union.sort_unstable();
        union.dedup();
        union
    }

    /// One match list per query, moved out.
    pub(crate) fn into_lists(self) -> Vec<Vec<usize>> {
        match self {
            Store::Lists(lists) => lists,
            ledger => ledger.lists(),
        }
    }

    fn len(&self) -> usize {
        match self {
            Store::Ledger(ledger) => ledger.len(),
            Store::Lists(lists) => lists.iter().map(Vec::len).sum(),
        }
    }
}

/// One job's record in a [`Book`].  `J` is what a job carries beyond
/// its record: the pool's queued [`JobSpec`], nothing at the edge.
struct JobState<J> {
    job: J,
    /// Current attempt number (1-based); see [`live`].
    attempt: u32,
    /// The last good checkpoint, where a failover resumes; freed once
    /// the job ends.  The store says how much of the run it covers: a
    /// pool pass checkpoints at every step, so a list store grows only
    /// together with a new resume point and the checkpoint covers every
    /// entry; of a ledger it covers as many entries as its emission
    /// cursor counts.
    resume: Option<PassCheckpoint>,
    resumes: u32,
    failures: Vec<FailureCause>,
    status: Status,
    store: Store,
    /// Bytes the job holds against the in-flight budget.
    held: usize,
    /// Admission timestamp (ns since the book's epoch), for the terminal
    /// latency histogram.
    submitted_ns: u64,
    /// Absolute queueing deadline (ms since the book's epoch); a request
    /// still queued past it is dropped with
    /// [`ServeError::DeadlineExpired`].
    deadline_ms: Option<u64>,
    /// Streamed jobs: replayed matches the ledger suppressed.
    suppressed: u64,
}

impl JobState<Arc<JobSpec>> {
    /// The stored answer as a [`JobReport`].
    fn report(&self, id: u64) -> Option<JobReport> {
        let Status::Done(result) = &self.status else {
            return None;
        };
        let per_query = match (&self.job.plan, result) {
            (Plan::Set(_), Ok(())) => self.store.lists(),
            _ => Vec::new(),
        };
        Some(JobReport {
            id: JobId(id),
            result: result.clone().map(|()| self.store.matches()),
            per_query,
            attempts: self.attempt,
            resumes: self.resumes,
            path: PathTaken::Session,
            failures: self.failures.clone(),
            emitted: self.store.ledger().to_vec(),
            suppressed: self.suppressed,
        })
    }
}

/// A book's job records by id.
type Records<J> = HashMap<u64, JobState<J>>;

/// The state of `(job, attempt)` while that attempt is the live one.
/// Writes from older attempts — a stalled worker waking up, a panicking
/// worker's final report racing the supervisor — and writes to a
/// finished job get `None` and are discarded.
fn live<J>(jobs: &mut Records<J>, job: u64, attempt: u32) -> Option<&mut JobState<J>> {
    jobs.get_mut(&job)
        .filter(|st| st.attempt == attempt && !matches!(st.status, Status::Done(_)))
}

struct Pending {
    id: u64,
    /// Earliest claim time (ms since runtime epoch); retries carry their
    /// exponential backoff here.
    not_before_ms: u64,
}

#[derive(Default)]
struct QueueState {
    q: VecDeque<Pending>,
    shutdown: bool,
}

struct WorkerSlot {
    /// Cleared by a drop sentinel when the worker thread dies of a panic.
    alive: AtomicBool,
    /// Set by the supervisor when it gives up on a stalled worker; the
    /// zombie claims nothing more, its slot is replaced and its late
    /// writes are epoch-guarded.
    abandoned: AtomicBool,
    /// The `(job, attempt)` this worker runs.  Whoever takes it — the
    /// worker's own panic path, the reaper, the stall detector — reports
    /// the attempt's failure.
    busy: Mutex<Option<(u64, u32)>>,
    /// Last liveness signal (ms since runtime epoch); ticks once per
    /// checkpoint cadence.
    heartbeat_ms: AtomicU64,
}

/// One claimed pass: one attempt of one job, already marked Running.
struct Pass {
    /// `(job, attempt)`.
    attempt: (u64, u32),
    job: Arc<JobSpec>,
    /// The job's last checkpoint, when the pass continues from it.
    checkpoint: Option<PassCheckpoint>,
}

struct WorkerHandle {
    slot: Arc<WorkerSlot>,
    join: Option<JoinHandle<()>>,
}

/// One [`ServeStats`] counter and the metrics counter that mirrors it.
/// Both move in one call, so a metrics snapshot and a stats snapshot
/// taken after drain agree number-for-number.
pub(crate) struct Tally {
    n: AtomicU64,
    metric: Counter,
}

impl Tally {
    pub(crate) fn new(handle: &ObsHandle, name: &'static str) -> Tally {
        Tally {
            n: AtomicU64::new(0),
            metric: handle.counter(name),
        }
    }

    pub(crate) fn add(&self, k: u64) {
        self.n.fetch_add(k, Ordering::SeqCst);
        self.metric.add(k);
    }

    pub(crate) fn get(&self) -> u64 {
        self.n.load(Ordering::SeqCst)
    }
}

/// Declares [`ServeObs`] — one [`Tally`] per [`ServeStats`] field, named
/// by its metric — and [`ServeObs::stats`], which reads them.
macro_rules! serve_obs {
    ($($tally:ident: $metric:literal,)*) => {
        /// A book's counters and pre-resolved observability instruments.
        /// With a disabled handle every instrument is inert (one branch
        /// per record, no allocation); the [`ServeStats`] counters still
        /// count.
        pub(crate) struct ServeObs {
            handle: ObsHandle,
            $($tally: Tally,)*
            /// Current submission-queue occupancy.
            queue_depth: Gauge,
            /// Bytes currently held against the in-flight budget.
            in_flight_bytes: Gauge,
            /// Attempts each finished request consumed.
            request_attempts: Histogram,
            /// Clock nanoseconds from admission to terminal state, per
            /// finished request (a sub-millisecond request still lands in
            /// its own log2 bucket).
            request_latency_ns: Histogram,
        }

        impl ServeObs {
            /// Resolves the instruments on `metrics` and traces to `trace`.
            pub(crate) fn attach(metrics: &ObsHandle, trace: &ObsHandle) -> ServeObs {
                ServeObs {
                    handle: trace.clone(),
                    $($tally: Tally::new(metrics, $metric),)*
                    queue_depth: metrics.gauge("serve_queue_depth"),
                    in_flight_bytes: metrics.gauge("serve_in_flight_bytes"),
                    request_attempts: metrics.histogram("serve_request_attempts"),
                    request_latency_ns: metrics.histogram("serve_request_latency_ns"),
                }
            }

            fn stats(&self) -> ServeStats {
                ServeStats {
                    $($tally: self.$tally.get(),)*
                }
            }

            fn trace(&self, event: TraceEvent) {
                self.handle.trace(event);
            }
        }
    };
}

serve_obs! {
    submitted: "serve_submitted_total",
    completed: "serve_completed_total",
    failed: "serve_failed_total",
    shed: "serve_shed_total",
    rejected: "serve_rejected_total",
    retries: "serve_retries_total",
    resumes: "serve_resumes_total",
    panics: "serve_panics_total",
    stalls: "serve_stalls_total",
    corruptions: "serve_corruptions_total",
    checkpoints: "serve_checkpoints_total",
    workers_spawned: "serve_workers_spawned_total",
    deadline_expired: "serve_deadline_expired_total",
    emitted: "serve_emissions_total",
    emission_suppressed: "serve_emission_suppressed_total",
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

/// A refused byte reservation: the bytes in flight, the budget, and
/// whether the job alone exceeds the budget (so waiting cannot help).
pub(crate) struct Refusal {
    pub(crate) held: usize,
    pub(crate) budget: usize,
    pub(crate) never: bool,
}

/// A pass in progress: its session and what [`Book::step`] carries from
/// one step to the next.
pub(crate) struct Run<S> {
    session: S,
    /// The `(job, attempt)` whose store the steps write.
    attempt: (u64, u32),
    /// `session.matches_of(q)[..done[q]]` is in the job's list store.
    done: Vec<usize>,
    /// Whether the session started at byte 0, so that its own lists are
    /// the job's whole answer.
    whole: bool,
    /// Bytes fed since the last checkpoint.
    since: usize,
    resumed_at: EmissionCursor,
    stream: bool,
}

/// The job book: admission, the one in-flight byte budget, the job
/// records, the pass step with its completion check, the end of every
/// job, and the counters, histograms and trace.  The pool's jobs live in
/// its book; the TCP edge keeps a book of its own.
pub(crate) struct Book<J> {
    /// The budget's injected [`ClockFn`] when one was set (so stall
    /// detection and backoff are testable without real time), else
    /// [`monotonic_clock`]; timestamps count from `epoch`.
    clock: ClockFn,
    epoch: Duration,
    /// Bytes a pass feeds between checkpoints.
    cadence: usize,
    budget: Option<usize>,
    obs: ServeObs,
    jobs: Mutex<Records<J>>,
    jobs_cv: Condvar,
    in_flight_bytes: AtomicUsize,
    next_id: AtomicU64,
}

impl<J> Book<J> {
    pub(crate) fn new(budget: &ServiceBudget, cadence: usize, obs: ServeObs) -> Book<J> {
        let clock = budget.session_limits.clock.unwrap_or(monotonic_clock);
        Book {
            clock,
            epoch: clock(),
            cadence: cadence.max(1),
            budget: budget.max_in_flight_bytes,
            obs,
            jobs: Mutex::new(HashMap::new()),
            jobs_cv: Condvar::new(),
            in_flight_bytes: AtomicUsize::new(0),
            next_id: AtomicU64::new(1),
        }
    }

    pub(crate) fn now_ms(&self) -> u64 {
        self.now_ns() / 1_000_000
    }

    pub(crate) fn now_ns(&self) -> u64 {
        (self.clock)().saturating_sub(self.epoch).as_nanos() as u64
    }

    /// Open requests: admitted and not yet finished.
    fn open(&self) -> u64 {
        self.obs.submitted.get() - self.obs.completed.get() - self.obs.failed.get()
    }

    /// Bytes currently held against the budget.
    pub(crate) fn in_flight(&self) -> usize {
        self.in_flight_bytes.load(Ordering::SeqCst)
    }

    /// Job records the book holds.
    #[cfg(test)]
    pub(crate) fn records(&self) -> usize {
        lock(&self.jobs).len()
    }

    /// The one in-flight byte budget: reserves `n` more bytes — for open
    /// job `id`, which then holds them, or for a job about to enter —
    /// waiting up to `wait` (real time) for other jobs to release theirs.
    /// A job that alone would exceed the budget is refused at once.
    pub(crate) fn reserve(&self, id: Option<u64>, n: usize, wait: Duration) -> Result<(), Refusal> {
        let held = |id| Some(lock(&self.jobs).get(&id)?.held);
        let own = id.and_then(held).unwrap_or(0);
        let budget = self.budget.unwrap_or(usize::MAX);
        let never = own.saturating_add(n) > budget;
        let fits = |cur: usize| (!never && budget - cur >= n).then_some(cur + n);
        let deadline = std::time::Instant::now() + wait;
        loop {
            match (self.in_flight_bytes).fetch_update(Ordering::SeqCst, Ordering::SeqCst, fits) {
                Ok(held) => break self.obs.in_flight_bytes.set((held + n) as i64),
                Err(held) if never || std::time::Instant::now() >= deadline => {
                    return Err(Refusal {
                        held,
                        budget,
                        never,
                    })
                }
                Err(_) => std::thread::sleep(Duration::from_millis(1)),
            }
        }
        let mut jobs = lock(&self.jobs);
        if let Some(st) = id.and_then(|id| jobs.get_mut(&id)) {
            st.held += n;
        }
        Ok(())
    }

    fn release(&self, n: usize) {
        let held = self.in_flight_bytes.fetch_sub(n, Ordering::SeqCst) - n;
        self.obs.in_flight_bytes.set(held as i64);
    }

    /// Records a job with `held` bytes reserved for it; counts and traces
    /// its admission.  Returns its id.
    pub(crate) fn enter(
        &self,
        job: J,
        held: usize,
        stream: bool,
        queries: usize,
        deadline: Option<Duration>,
    ) -> u64 {
        let id = self.next_id.fetch_add(1, Ordering::SeqCst);
        let submitted_ns = self.now_ns();
        let deadline_ms =
            deadline.map(|d| (submitted_ns / 1_000_000).saturating_add(d.as_millis() as u64));
        let store = if stream {
            Store::Ledger(Vec::new())
        } else {
            Store::Lists(vec![Vec::new(); queries])
        };
        lock(&self.jobs).insert(
            id,
            JobState {
                job,
                attempt: 1,
                resume: None,
                resumes: 0,
                failures: Vec::new(),
                status: Status::Queued,
                store,
                held,
                submitted_ns,
                deadline_ms,
                suppressed: 0,
            },
        );
        self.obs.submitted.add(1);
        self.obs.trace(TraceEvent::JobAdmitted {
            job: id,
            bytes: held as u64,
        });
        id
    }

    /// Ends a job — a completion, a [`ServeError::Failed`] or a
    /// [`ServeError::DeadlineExpired`] — keeping its answer for reports.
    fn conclude(&self, job: u64, st: &mut JobState<J>, result: Result<(), ServeError>) {
        let failed = result.as_ref().err().map(|e| match e {
            ServeError::Failed { last, .. } => cause_label(last),
            _ => "deadline_expired",
        });
        self.close(job, st, failed);
        st.status = Status::Done(result);
    }

    /// Takes job `id` out of the book and ends it, completed or failed
    /// with the trace label `Err` carries.  Returns its match store.
    pub(crate) fn settle(&self, id: u64, result: Result<(), &'static str>) -> Option<Store> {
        let mut st = lock(&self.jobs).remove(&id)?;
        self.close(id, &mut st, result.err());
        Some(st.store)
    }

    /// Every end of a job: frees its resume point, a failed job's list
    /// store and its bytes, records the terminal counters, histograms and
    /// trace, and wakes its waiters.
    fn close(&self, job: u64, st: &mut JobState<J>, failed: Option<&'static str>) {
        let attempts = st.attempt;
        match failed {
            None => {
                self.obs.completed.add(1);
                let matches = st.store.len() as u64;
                self.obs.trace(TraceEvent::JobCompleted {
                    job,
                    attempts,
                    matches,
                });
            }
            Some(cause) => {
                self.obs.failed.add(1);
                self.obs.trace(TraceEvent::JobFailed {
                    job,
                    attempts,
                    cause,
                });
                // A ledger stays: it is what the stream delivered.
                if let Store::Lists(lists) = &mut st.store {
                    *lists = Vec::new();
                }
            }
        }
        st.resume = None;
        self.release(std::mem::take(&mut st.held));
        self.obs.request_attempts.record(attempts as u64);
        self.obs
            .request_latency_ns
            .record(self.now_ns().saturating_sub(st.submitted_ns));
        self.jobs_cv.notify_all();
    }

    /// Job `id`'s delivered matches from stream position `start` on.
    pub(crate) fn emitted(&self, id: u64, start: usize) -> Option<Vec<StreamedMatch>> {
        self.with_emitted(id, start, <[StreamedMatch]>::to_vec)
    }

    /// Runs `f` on job `id`'s delivered matches from stream position
    /// `start` on, under the book's lock, so a caller can encode them
    /// without copying them out first.
    pub(crate) fn with_emitted<R>(
        &self,
        id: u64,
        start: usize,
        f: impl FnOnce(&[StreamedMatch]) -> R,
    ) -> Option<R> {
        let jobs = lock(&self.jobs);
        let ledger = jobs.get(&id)?.store.ledger();
        Some(f(ledger.get(start..).unwrap_or_default()))
    }

    /// Starts a pass of `(job, attempt)` with `queries` match lists:
    /// counts a resume when the session continues from a checkpoint,
    /// links the job to the session in the trace, and verifies a resumed
    /// stream's cursor before any of its output is accepted — a hostile
    /// checkpoint (forged count, tampered digest) dies here with a typed
    /// error instead of mis-aligning replay dedup.
    pub(crate) fn start<S: PassSession>(
        &self,
        (job, attempt): (u64, u32),
        queries: usize,
        stream: bool,
        resumed: bool,
        session: Result<S, SessionError>,
    ) -> Result<Run<S>, FailureCause> {
        let session = session.map_err(FailureCause::Engine)?;
        if resumed {
            if let Some(st) = live(&mut lock(&self.jobs), job, attempt) {
                st.resumes += 1;
            }
            self.obs.resumes.add(1);
            let offset = session.offset() as u64;
            self.obs.trace(TraceEvent::Failover {
                job,
                attempt,
                offset,
            });
        }
        let id = session.obs_session_id();
        self.obs.trace(TraceEvent::JobSession { job, session: id });
        let resumed_at = session.emission_cursor();
        let whole = session.offset() == 0;
        if stream {
            self.verify_cursor((job, attempt), resumed_at, None)?;
        }
        Ok(Run {
            session,
            attempt: (job, attempt),
            done: vec![0; queries],
            whole,
            since: 0,
            resumed_at,
            stream,
        })
    }

    /// One pass step: feeds `segment` and checkpoints once the cadence's
    /// bytes have passed since the last checkpoint (or at `end`, the end
    /// of the document).  Then, under one lock, the session's new matches
    /// go to the job's store once and the checkpoint becomes its resume
    /// point — a list store takes them only with a checkpoint, so it
    /// covers exactly what the resume point covers, and a pass that
    /// mints none (a small edge request) copies nothing until
    /// [`Self::finish`].  A ledger is the delivery point of exactly-once:
    /// stream positions it already holds are **verified** (a diverging
    /// replay is a typed [`FailureCause::EmissionLedger`], never a
    /// silent duplicate), and positions past its end are **appended**.
    /// A stale attempt's step records nothing.  Returns whether it
    /// checkpointed.
    pub(crate) fn step<S: PassSession>(
        &self,
        run: &mut Run<S>,
        segment: &[u8],
        end: bool,
    ) -> Result<bool, FailureCause> {
        let session = &mut run.session;
        session.feed(segment).map_err(FailureCause::Engine)?;
        let since = run.since + segment.len();
        let minted = end || since >= self.cadence;
        run.since = if minted { 0 } else { since };
        let checkpoint =
            (minted.then(|| session.checkpoint()).transpose()).map_err(FailureCause::Engine)?;
        let mut jobs = lock(&self.jobs);
        let Some(st) = live(&mut jobs, run.attempt.0, run.attempt.1) else {
            return Ok(minted);
        };
        match &mut st.store {
            Store::Ledger(ledger) => {
                let end = session.emission_cursor().count as usize;
                let mut batch = session.drain_emitted();
                let start = end - batch.len();
                if start > ledger.len() {
                    return Err(FailureCause::EmissionLedger {
                        detail: format!(
                            "segment starts at stream position {start} but only {} \
                             matches were ever delivered",
                            ledger.len()
                        ),
                    });
                }
                // The first `replay` matches re-cover delivered positions;
                // the rest are new.
                let replay = (ledger.len() - start).min(batch.len());
                for (k, m) in batch.by_ref().take(replay).enumerate() {
                    let d = ledger[start + k];
                    if d != m {
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
                }
                let before = ledger.len();
                ledger.extend(batch);
                self.obs.emitted.add((ledger.len() - before) as u64);
                self.obs.emission_suppressed.add(replay as u64);
                st.suppressed += replay as u64;
            }
            Store::Lists(_) if checkpoint.is_none() => {}
            Store::Lists(lists) => {
                for (q, (list, done)) in lists.iter_mut().zip(&mut run.done).enumerate() {
                    let found = session.matches_of(q);
                    list.extend_from_slice(&found[*done..]);
                    *done = found.len();
                }
            }
        }
        if let Some(checkpoint) = checkpoint {
            st.resume = Some(checkpoint);
            self.obs.checkpoints.add(1);
        }
        Ok(minted)
    }

    /// The completion check: ends the input and, for a streamed pass,
    /// requires the delivered stream to equal the final session's own
    /// answer and the cursors to agree — a gap or duplicate that survived
    /// this far is a typed failure, never a silently wrong answer.  A
    /// pass that started at byte 0 moves its session's own lists into a
    /// list store, which then holds the whole answer without a copy.
    /// Returns the final emission cursor.
    pub(crate) fn finish<S: PassSession>(
        &self,
        run: Run<S>,
    ) -> Result<EmissionCursor, FailureCause> {
        let cursor = run.session.emission_cursor();
        let own = run.session.finish().map_err(FailureCause::Engine)?;
        if run.stream {
            let last = (run.resumed_at.count as usize, own[0].as_slice());
            self.verify_cursor(run.attempt, cursor, Some(last))?;
        } else if run.whole {
            let (job, attempt) = run.attempt;
            if let Some(st) = live(&mut lock(&self.jobs), job, attempt) {
                if let Store::Lists(lists) = &mut st.store {
                    *lists = own;
                }
            }
        }
        Ok(cursor)
    }

    /// Verifies a streamed attempt's emission cursor against the ledger:
    /// the cursor must not claim more deliveries than the ledger holds,
    /// and its digest must equal the digest of the delivered prefix it
    /// claims.  At resume this refuses a hostile or corrupted checkpoint
    /// before any of its output is accepted.  At completion, `last` is
    /// the final session's own match list and the stream position it
    /// began at: the cursor must then cover the whole ledger, and the
    /// ledger's node ids from that position on must equal the list, in
    /// order.
    fn verify_cursor(
        &self,
        (job, attempt): (u64, u32),
        cursor: EmissionCursor,
        last: Option<(usize, &[usize])>,
    ) -> Result<(), FailureCause> {
        let mut jobs = lock(&self.jobs);
        let Some(st) = live(&mut jobs, job, attempt) else {
            return Ok(());
        };
        let ledger = st.store.ledger();
        let (count, delivered) = (cursor.count as usize, ledger.len());
        let fail = |detail| Err(FailureCause::EmissionLedger { detail });
        if count > delivered || (last.is_some() && count != delivered) {
            return fail(format!(
                "cursor claims {count} deliveries but {delivered} matches \
                 were delivered"
            ));
        }
        let reference = EmissionCursor::over(&ledger[..count]);
        if reference.digest != cursor.digest {
            return fail(format!(
                "cursor digest {:#018x} does not match the delivered prefix \
                 of {count} matches ({:#018x})",
                cursor.digest, reference.digest
            ));
        }
        if let Some((from, list)) = last {
            let tail = ledger.get(from..).unwrap_or_default();
            if tail.iter().map(|d| d.node).ne(list.iter().copied()) {
                return fail(format!(
                    "delivered stream ({delivered} matches) does not equal the \
                     final match list"
                ));
            }
        }
        Ok(())
    }
}

/// The pool: the submission queue, the workers that claim passes from
/// it and their supervisor.  Its jobs live in its [`Book`]; only
/// [`ServeRuntime`] has a pool.
struct Pool {
    cfg: ServeConfig,
    book: Book<Arc<JobSpec>>,
    queue: Mutex<QueueState>,
    queue_cv: Condvar,
}

impl Pool {
    fn new(cfg: ServeConfig) -> Pool {
        let book = Book::new(
            &cfg.budget,
            cfg.checkpoint_every,
            ServeObs::attach(&cfg.obs, &cfg.obs),
        );
        Pool {
            cfg,
            book,
            queue: Mutex::new(QueueState::default()),
            queue_cv: Condvar::new(),
        }
    }

    /// How long the supervisor and idle workers sleep between checks.
    fn poll(&self) -> Duration {
        (self.cfg.stall_timeout / 4)
            .min(Duration::from_millis(10))
            .max(Duration::from_millis(1))
    }

    /// Drops a queued request whose deadline passed: a typed terminal
    /// [`ServeError::DeadlineExpired`], no worker time spent.  Returns
    /// whether the request was expired (false when it is not queued,
    /// carries no deadline, or is not yet due).
    fn expire_if_due(&self, job: u64, st: &mut JobState<Arc<JobSpec>>, now_ms: u64) -> bool {
        let due =
            matches!(st.status, Status::Queued) && st.deadline_ms.is_some_and(|d| now_ms >= d);
        if due {
            let waited_ms = now_ms.saturating_sub(st.submitted_ns / 1_000_000);
            self.conclude(job, st, Err(ServeError::DeadlineExpired { waited_ms }));
            self.book.obs.deadline_expired.add(1);
        }
        due
    }

    /// Expires the due queue entries whose deadline passed and drops
    /// them from the queue.
    fn expire_queued(&self, now_ms: u64) {
        let mut q = lock(&self.queue);
        if q.q.iter().all(|p| p.not_before_ms > now_ms) {
            return;
        }
        let mut jobs = lock(&self.book.jobs);
        q.q.retain(|p| {
            p.not_before_ms > now_ms
                || !jobs
                    .get_mut(&p.id)
                    .is_some_and(|st| self.expire_if_due(p.id, st, now_ms))
        });
        self.book.obs.queue_depth.set(q.q.len() as i64);
    }

    /// Claims queue entry `id`, just taken off the queue, as one pass.  A
    /// request whose deadline passed while it was queued expires instead.
    /// `None` when the entry is stale (its job is no longer queued) or
    /// expired.
    fn claim(&self, id: u64, now_ms: u64) -> Option<Pass> {
        let mut jobs = lock(&self.book.jobs);
        let st = jobs
            .get_mut(&id)
            .filter(|st| matches!(st.status, Status::Queued))?;
        if self.expire_if_due(id, st, now_ms) {
            return None;
        }
        st.status = Status::Running;
        Some(Pass {
            attempt: (id, st.attempt),
            job: st.job.clone(),
            checkpoint: st.resume.clone(),
        })
    }

    /// Admits a request into the queue and the book, or sheds or
    /// rejects it.  A streamed query set is rejected: a set streams
    /// nothing, so its ledger check could only fail.
    fn admit(&self, job: JobSpec, block: bool) -> Result<JobId, ServeError> {
        let (pool, book) = (self, &self.book);
        let reject = |reason| {
            book.obs.rejected.add(1);
            Err(ServeError::Rejected { reason })
        };
        if job.stream && matches!(job.plan, Plan::Set(_)) {
            return reject("a query set streams nothing; submit it unstreamed".to_owned());
        }
        let doc_len = job.doc.len();
        // Lock order everywhere: queue before jobs.
        let mut q = lock(&pool.queue);
        loop {
            if q.shutdown {
                return Err(ServeError::ShuttingDown);
            }
            if q.q.len() < pool.cfg.queue_capacity {
                break;
            }
            if !block {
                book.obs.shed.add(1);
                book.obs.trace(TraceEvent::QueueShed {
                    queue_len: q.q.len() as u64,
                    capacity: pool.cfg.queue_capacity as u64,
                });
                return Err(ServeError::Overloaded {
                    queue_len: q.q.len(),
                    capacity: pool.cfg.queue_capacity,
                });
            }
            // Blocking submit: wait for space.
            q = pool
                .queue_cv
                .wait_timeout(q, Duration::from_millis(10))
                .unwrap_or_else(|p| p.into_inner())
                .0;
        }
        if let Err(Refusal { held, budget, .. }) = book.reserve(None, doc_len, Duration::ZERO) {
            book.obs.trace(TraceEvent::BudgetReject {
                requested: doc_len as u64,
                held: held as u64,
                budget: budget as u64,
            });
            return reject(format!(
                "in-flight byte budget: {held} held + {doc_len} requested > {budget}"
            ));
        }
        let (stream, queries, deadline) = (job.stream, job.plan.queries(), job.deadline);
        let id = book.enter(Arc::new(job), doc_len, stream, queries, deadline);
        q.q.push_back(Pending {
            id,
            not_before_ms: 0,
        });
        book.obs.queue_depth.set(q.q.len() as i64);
        drop(q);
        pool.queue_cv.notify_all();
        Ok(JobId(id))
    }

    /// [`Book::conclude`], then a wake of the pool without the queue lock
    /// (claims expire requests under it); a drain that misses the notify
    /// sees the last request end at its next poll tick.
    fn conclude(&self, job: u64, st: &mut JobState<Arc<JobSpec>>, result: Result<(), ServeError>) {
        self.book.conclude(job, st, result);
        self.queue_cv.notify_all();
    }

    /// Completes `(job, attempt)`; a stale attempt (superseded by
    /// failover) is discarded.
    fn complete(&self, (job, attempt): (u64, u32)) {
        if let Some(st) = live(&mut lock(&self.book.jobs), job, attempt) {
            self.conclude(job, st, Ok(()));
        }
    }

    /// Records a failed attempt: requeues with exponential backoff when
    /// the cause is retryable and the retry budget allows, otherwise
    /// finalizes the request with a typed [`ServeError::Failed`].
    fn record_attempt_failure(&self, (job, attempt): (u64, u32), cause: FailureCause) {
        let mut requeue_backoff = None;
        {
            let mut jobs = lock(&self.book.jobs);
            let Some(st) = live(&mut jobs, job, attempt) else {
                return;
            };
            // Count the fault only once it is attributed to the live
            // attempt; stale duplicates (the reap backstop re-reporting a
            // death the worker already recorded, a zombie's late fault)
            // returned above and must not inflate the counters.
            match &cause {
                FailureCause::WorkerPanic { .. } => {
                    self.book.obs.panics.add(1);
                    self.book
                        .obs
                        .trace(TraceEvent::WorkerPanic { job, attempt });
                }
                FailureCause::WorkerStall { stalled_ms } => {
                    self.book.obs.stalls.add(1);
                    self.book.obs.trace(TraceEvent::WorkerStall {
                        job,
                        attempt,
                        silent_ms: *stalled_ms,
                    });
                }
                FailureCause::SegmentCorrupted { .. } => {
                    self.book.obs.corruptions.add(1);
                    self.book
                        .obs
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
                self.book.obs.retries.add(1);
                self.book.obs.trace(TraceEvent::Retry {
                    job,
                    attempt,
                    backoff_ms: backoff.as_millis() as u64,
                });
            } else {
                let attempts = st.attempt;
                let failed = Err(ServeError::Failed {
                    attempts,
                    last: cause,
                });
                self.conclude(job, st, failed);
            }
        }
        if let Some(backoff) = requeue_backoff {
            let due = self.book.now_ms() + backoff.as_millis() as u64;
            let mut q = lock(&self.queue);
            q.q.push_back(Pending {
                id: job,
                not_before_ms: due,
            });
            self.book.obs.queue_depth.set(q.q.len() as i64);
            drop(q);
            self.queue_cv.notify_all();
        }
    }
}

// ---------------------------------------------------------------------------
// Worker
// ---------------------------------------------------------------------------

/// Sets `alive = false` when a panic unwinds through `worker_main`.  A
/// worker that returns (drained or abandoned) needs no replacement.
struct Sentinel(Arc<WorkerSlot>);

impl Drop for Sentinel {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.0.alive.store(false, Ordering::SeqCst);
        }
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

/// A worker's loop.  A panic inside an engine scan unwinds through the
/// scan without dropping the buffers the scan owns (a pushdown step's
/// frames; `st_core`'s structural scan documents why), so each such
/// panic leaks that much; the session's match lists are only lent to
/// the scan, and the unwind frees them.
fn worker_main(pool: Arc<Pool>, slot: Arc<WorkerSlot>) {
    let _sentinel = Sentinel(slot.clone());
    while let Some(pass) = next_pass(&pool, &slot) {
        match catch_unwind(AssertUnwindSafe(|| run_pass(&pool, &slot, &pass))) {
            Ok(()) => *lock(&slot.busy) = None,
            Err(payload) => {
                // Report the death against the pass's attempt (so
                // failover starts now instead of at the supervisor's
                // sweep), then die authentically: the supervisor
                // replaces the thread.
                if let Some(a) = lock(&slot.busy).take() {
                    let detail = payload_message(payload.as_ref());
                    pool.record_attempt_failure(a, FailureCause::WorkerPanic { detail });
                }
                resume_unwind(payload);
            }
        }
    }
}

/// Blocks until a queue entry is due, then claims it: the worker's next
/// pass, already recorded in its `busy` slot.  `None` once the
/// worker is abandoned, or the runtime drains and no request is open.
fn next_pass(pool: &Pool, slot: &WorkerSlot) -> Option<Pass> {
    let mut q = lock(&pool.queue);
    loop {
        if slot.abandoned.load(Ordering::SeqCst) || (q.shutdown && pool.book.open() == 0) {
            return None;
        }
        let now_ms = pool.book.now_ms();
        if let Some(i) = q.q.iter().position(|p| p.not_before_ms <= now_ms) {
            let p = q.q.remove(i).expect("position is in range");
            pool.book.obs.queue_depth.set(q.q.len() as i64);
            if let Some(pass) = pool.claim(p.id, now_ms) {
                drop(q);
                slot.heartbeat_ms
                    .store(pool.book.now_ms(), Ordering::SeqCst);
                *lock(&slot.busy) = Some(pass.attempt);
                return Some(pass);
            }
            continue;
        }
        // Nothing due: sleep until a notify, the earliest backoff's end
        // or the poll tick.
        let next_due_ms = q.q.iter().map(|p| p.not_before_ms - now_ms).min();
        let wait = next_due_ms.map_or(pool.poll(), |ms| {
            pool.poll().min(Duration::from_millis(ms.max(1)))
        });
        q = pool
            .queue_cv
            .wait_timeout(q, wait)
            .unwrap_or_else(|p| p.into_inner())
            .0;
    }
}

/// What [`Book::step`] needs of a session, so one step drives both
/// session kinds (statically dispatched), in the pool and at the edge.
pub(crate) trait PassSession: Sized {
    fn feed(&mut self, segment: &[u8]) -> Result<(), SessionError>;
    fn checkpoint(&self) -> Result<PassCheckpoint, SessionError>;
    fn offset(&self) -> usize;
    fn obs_session_id(&self) -> u64;
    /// The matches of the pass's `q`-th query found by this session.
    fn matches_of(&self, q: usize) -> &[usize];
    /// Declares end-of-input: one match list per query.
    fn finish(self) -> Result<Vec<Vec<usize>>, SessionError>;
    /// Count and digest of every match emitted since document start.
    fn emission_cursor(&self) -> EmissionCursor {
        EmissionCursor::default()
    }
    /// The matches that crossed the certainty frontier since the last
    /// drain.  A query set streams nothing, so it keeps this empty.
    fn drain_emitted(&mut self) -> impl ExactSizeIterator<Item = StreamedMatch> + '_ {
        std::iter::empty()
    }
}

/// Implements [`PassSession`] for a session kind: the methods both
/// kinds share by name, plus the kind's own `$rest`.
macro_rules! pass_session {
    ($session:ident, $checkpoint:path, { $($rest:tt)* }) => {
        impl PassSession for $session<'_> {
            fn feed(&mut self, segment: &[u8]) -> Result<(), SessionError> {
                $session::feed(self, segment)
            }
            fn checkpoint(&self) -> Result<PassCheckpoint, SessionError> {
                $session::checkpoint(self).map($checkpoint)
            }
            fn offset(&self) -> usize {
                $session::offset(self)
            }
            fn obs_session_id(&self) -> u64 {
                $session::obs_session_id(self)
            }
            $($rest)*
        }
    };
}

pass_session! { EngineSession, PassCheckpoint::Query, {
    fn matches_of(&self, _q: usize) -> &[usize] {
        self.matches()
    }
    fn finish(self) -> Result<Vec<Vec<usize>>, SessionError> {
        EngineSession::finish(self).map(|out| vec![out.matches])
    }
    fn emission_cursor(&self) -> EmissionCursor {
        EngineSession::emission_cursor(self)
    }
    fn drain_emitted(&mut self) -> impl ExactSizeIterator<Item = StreamedMatch> + '_ {
        EngineSession::drain_emitted(self)
    }
}}

pass_session! { QuerySetSession, PassCheckpoint::Set, {
    fn matches_of(&self, q: usize) -> &[usize] {
        &self.matches()[q]
    }
    fn finish(self) -> Result<Vec<Vec<usize>>, SessionError> {
        QuerySetSession::finish(self).map(|out| out.matches)
    }
}}

/// Runs one claimed pass and completes or fails its attempt.
fn run_pass(pool: &Pool, slot: &WorkerSlot, pass: &Pass) {
    let cfg = &pool.cfg;
    let limits = (cfg.budget).session_limits_for(pass.job.limits.as_ref(), &cfg.obs);
    let result = match (&pass.job.plan, &pass.checkpoint) {
        (Plan::Query(query), None) => drive(pool, slot, pass, Ok(query.session(limits))),
        (Plan::Query(query), Some(PassCheckpoint::Query(cp))) => {
            drive(pool, slot, pass, query.resume(cp, limits))
        }
        (Plan::Set(set), None) => drive(pool, slot, pass, Ok(set.session(limits))),
        (Plan::Set(set), Some(PassCheckpoint::Set(cp))) => {
            drive(pool, slot, pass, set.resume(cp, limits))
        }
        _ => unreachable!("a job resumes from its own plan's checkpoints"),
    };
    match result {
        Ok(()) => pool.complete(pass.attempt),
        Err(cause) => pool.record_attempt_failure(pass.attempt, cause),
    }
}

/// The pass loop: one [`Book::step`] per cadence-sized segment of the
/// job's document, each behind a chaos roll keyed by the job's own
/// `(job, attempt, segment)` and followed by a heartbeat; then the
/// completion check.
fn drive<S: PassSession>(
    pool: &Pool,
    slot: &WorkerSlot,
    pass: &Pass,
    session: Result<S, SessionError>,
) -> Result<(), FailureCause> {
    let (job, book) = (&pass.job, &pool.book);
    let (id, attempt) = pass.attempt;
    let resumed = pass.checkpoint.is_some();
    let queries = job.plan.queries();
    let mut run = book.start(pass.attempt, queries, job.stream, resumed, session)?;
    let doc = job.doc.as_slice();
    let chaos = pool.cfg.chaos.as_ref();
    let cadence = pool.cfg.checkpoint_every.max(1);
    let mut off = run.session.offset();
    while off < doc.len() {
        let end = (off + cadence).min(doc.len());
        match chaos.map_or(Fault::None, |c| c.roll(id, attempt, (off / cadence) as u64)) {
            Fault::Panic => {
                panic!("chaos: injected worker panic (job {id}, attempt {attempt}, offset {off})")
            }
            Fault::Corrupt => return Err(FailureCause::SegmentCorrupted { offset: off }),
            // Sleep through the supervisor's deadline; by the time this
            // worker wakes, it has been abandoned and all its further
            // writes are stale no-ops.
            Fault::Stall => {
                std::thread::sleep(Duration::from_millis(chaos.map_or(0, |c| c.stall_ms)))
            }
            Fault::None => {}
        }
        book.step(&mut run, &doc[off..end], end == doc.len())?;
        off = end;
        slot.heartbeat_ms.store(book.now_ms(), Ordering::SeqCst);
    }
    book.finish(run).map(drop)
}

// ---------------------------------------------------------------------------
// Supervisor
// ---------------------------------------------------------------------------

fn spawn_worker(pool: &Arc<Pool>, index: usize) -> WorkerHandle {
    let slot = Arc::new(WorkerSlot {
        alive: AtomicBool::new(true),
        abandoned: AtomicBool::new(false),
        busy: Mutex::new(None),
        heartbeat_ms: AtomicU64::new(pool.book.now_ms()),
    });
    pool.book.obs.workers_spawned.add(1);
    let pool2 = pool.clone();
    let slot2 = slot.clone();
    let join = std::thread::Builder::new()
        .name(format!("st-serve-worker-{index}"))
        .spawn(move || worker_main(pool2, slot2))
        .expect("spawn worker thread");
    WorkerHandle {
        slot,
        join: Some(join),
    }
}

/// Detects dead and stalled workers; recovers their in-flight requests
/// and replaces them.
fn reap_and_replace(pool: &Arc<Pool>, workers: &mut [WorkerHandle], now_ms: u64) {
    let stall_ms = pool.cfg.stall_timeout.as_millis() as u64;
    for (i, worker) in workers.iter_mut().enumerate() {
        if !worker.slot.alive.load(Ordering::SeqCst) {
            // Dead (panic).  The panic path normally reported already;
            // this sweep is the backstop for a worker that died without
            // reporting.
            if let Some(a) = lock(&worker.slot.busy).take() {
                let detail = "worker thread died".to_owned();
                pool.record_attempt_failure(a, FailureCause::WorkerPanic { detail });
            }
            if let Some(h) = worker.join.take() {
                let _ = h.join(); // reap; Err(panic payload) is expected
            }
            *worker = spawn_worker(pool, i);
            continue;
        }
        // Stalled?  Only a busy worker owes heartbeats.
        let mut busy = lock(&worker.slot.busy);
        let silent = now_ms.saturating_sub(worker.slot.heartbeat_ms.load(Ordering::SeqCst));
        if busy.is_none() || silent <= stall_ms {
            continue;
        }
        worker.slot.abandoned.store(true, Ordering::SeqCst);
        let victim = busy.take().expect("checked busy");
        drop(busy);
        pool.record_attempt_failure(victim, FailureCause::WorkerStall { stalled_ms: silent });
        // Replace the slot; the zombie claims nothing more once it
        // wakes, and dropping its handle detaches it (joining a
        // sleeping zombie would block shutdown).
        let replacement = spawn_worker(pool, i);
        let _zombie = std::mem::replace(worker, replacement);
    }
}

/// The supervisor: spawns the pool, then reaps, replaces and abandons
/// workers and expires queued deadlines until the drain finishes.
fn supervisor_main(pool: Arc<Pool>) {
    let mut workers: Vec<WorkerHandle> = (0..pool.cfg.workers.max(1))
        .map(|i| spawn_worker(&pool, i))
        .collect();
    let poll = pool.poll();
    loop {
        let now_ms = pool.book.now_ms();
        reap_and_replace(&pool, &mut workers, now_ms);
        // An idle worker expires entries itself as it claims them.
        if workers.iter().all(|w| lock(&w.slot.busy).is_some()) {
            pool.expire_queued(now_ms);
        }
        let q = lock(&pool.queue);
        // Graceful drain: exit only when no request is still open.
        if q.shutdown && pool.book.open() == 0 {
            break;
        }
        let _ = pool.queue_cv.wait_timeout(q, poll);
    }
    // Idle workers see the drain and exit; join the live ones.
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
    pool: Arc<Pool>,
    supervisor: Option<JoinHandle<()>>,
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
        let pool = Arc::new(Pool::new(cfg));
        let pool2 = pool.clone();
        let supervisor = std::thread::Builder::new()
            .name("st-serve-supervisor".to_owned())
            .spawn(move || supervisor_main(pool2))
            .expect("spawn supervisor thread");
        ServeRuntime {
            pool,
            supervisor: Some(supervisor),
        }
    }

    /// Submits a request.  Admission control applies: a full queue sheds
    /// with [`ServeError::Overloaded`], a blown service byte budget or a
    /// streamed [`Plan::Set`] is refused with [`ServeError::Rejected`].
    ///
    /// # Errors
    ///
    /// [`ServeError::Overloaded`], [`ServeError::Rejected`], or
    /// [`ServeError::ShuttingDown`].
    pub fn submit(&self, spec: JobSpec) -> Result<JobId, ServeError> {
        self.pool.admit(spec, false)
    }

    /// Like [`Self::submit`] but waits for queue space instead of
    /// shedding.  Byte-budget rejection still applies.
    ///
    /// # Errors
    ///
    /// [`ServeError::Rejected`] or [`ServeError::ShuttingDown`].
    pub fn submit_blocking(&self, spec: JobSpec) -> Result<JobId, ServeError> {
        self.pool.admit(spec, true)
    }

    /// Blocks until the request finishes (completes, or fails its typed
    /// terminal error) and returns its report.
    ///
    /// # Errors
    ///
    /// [`ServeError::UnknownJob`] for an id this runtime never issued.
    pub fn wait(&self, id: JobId) -> Result<JobReport, ServeError> {
        let mut jobs = lock(&self.pool.book.jobs);
        loop {
            let Some(st) = jobs.get(&id.0) else {
                return Err(ServeError::UnknownJob { id: id.0 });
            };
            if let Some(report) = st.report(id.0) {
                return Ok(report);
            }
            jobs = self
                .pool
                .book
                .jobs_cv
                .wait_timeout(jobs, Duration::from_millis(50))
                .unwrap_or_else(|p| p.into_inner())
                .0;
        }
    }

    /// The report of a finished request, or `None` while it is still
    /// queued or running.
    pub fn try_report(&self, id: JobId) -> Option<JobReport> {
        lock(&self.pool.book.jobs).get(&id.0)?.report(id.0)
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
        (self.pool.book)
            .emitted(id.0, start)
            .ok_or(ServeError::UnknownJob { id: id.0 })
    }

    /// A snapshot of the runtime counters.
    pub fn stats(&self) -> ServeStats {
        self.pool.book.obs.stats()
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
        if let Some(h) = self.supervisor.take() {
            let _ = h.join();
        }
        self.pool.book.obs.stats()
    }

    fn begin_shutdown(&self) {
        lock(&self.pool.queue).shutdown = true;
        self.pool.queue_cv.notify_all();
    }
}

impl Drop for ServeRuntime {
    fn drop(&mut self) {
        self.begin_shutdown();
        if let Some(h) = self.supervisor.take() {
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
            let is_chaos = payload_message(info.payload()).starts_with("chaos:");
            if !is_chaos {
                prev(info);
            }
        }));
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chaos::ChaosConfig;
    use st_automata::Alphabet;
    use st_core::query::Query;

    /// Claims and runs every queued pass on this thread (the pool has no
    /// workers), retries included.
    fn run_queue(pool: &Pool) {
        let slot = WorkerSlot {
            alive: AtomicBool::new(true),
            abandoned: AtomicBool::new(false),
            busy: Mutex::new(None),
            heartbeat_ms: AtomicU64::new(0),
        };
        loop {
            let Some(p) = lock(&pool.queue).q.pop_front() else {
                return;
            };
            if let Some(pass) = pool.claim(p.id, pool.book.now_ms()) {
                run_pass(pool, &slot, &pass);
            }
        }
    }

    /// The failures and attempt count that job `id`'s own corrupt rolls
    /// name over `segments` segments of `cadence` bytes: each retry
    /// resumes at the segment the last attempt failed on.
    fn own_rolls(
        chaos: &ChaosConfig,
        id: u64,
        segments: u64,
        cadence: usize,
    ) -> (Vec<FailureCause>, u32) {
        let (mut failures, mut attempt, mut from) = (Vec::new(), 1, 0);
        while let Some(seg) =
            (from..segments).find(|&s| chaos.roll(id, attempt, s) == Fault::Corrupt)
        {
            let offset = seg as usize * cadence;
            failures.push(FailureCause::SegmentCorrupted { offset });
            (attempt, from) = (attempt + 1, seg);
        }
        (failures, attempt)
    }

    #[test]
    fn a_query_set_jobs_faults_are_its_own() {
        // Seed 13 corrupts job 1's first attempt at segment 6 and none of
        // job 2's 14 segments.
        let chaos = ChaosConfig {
            seed: 13,
            panic_per_mille: 0,
            stall_per_mille: 0,
            corrupt_per_mille: 50,
            stall_ms: 0,
        };
        let cadence = 64;
        let cfg = ServeConfig::default()
            .with_checkpoint_every(cadence)
            .with_chaos(chaos.clone());
        let pool = Pool::new(cfg);
        let doc = Arc::new(b"<a><b></b></a>".repeat(60));
        let segments = doc.len().div_ceil(cadence) as u64;
        let alphabet = Alphabet::of_chars("ab");
        let sets: [&[&str]; 2] = [&[".*a.*b", ".*b"], &["a.*", ".*a"]];
        let ids: Vec<u64> = (sets.iter())
            .map(|patterns| {
                let set = Arc::new(QuerySet::compile(patterns, &alphabet).unwrap());
                pool.admit(JobSpec::new(set, doc.clone()), false).unwrap().0
            })
            .collect();
        let own: Vec<_> = (ids.iter())
            .map(|&id| own_rolls(&chaos, id, segments, cadence))
            .collect();
        assert!(!own[0].0.is_empty() && own[1].0.is_empty(), "{own:?}");
        run_queue(&pool);
        for ((patterns, id), (failures, attempts)) in sets.iter().zip(ids).zip(own) {
            let want: Vec<Vec<usize>> = (patterns.iter())
                .map(|p| Query::compile(p, &alphabet).unwrap().select(&doc).unwrap())
                .collect();
            let report = lock(&pool.book.jobs)[&id].report(id).unwrap();
            assert!(report.result.is_ok(), "job {id}");
            assert_eq!(report.per_query, want, "job {id}");
            assert_eq!(report.failures, failures, "job {id}");
            assert_eq!(report.attempts, attempts, "job {id}");
        }
    }
}
