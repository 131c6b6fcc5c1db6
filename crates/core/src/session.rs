//! Resilient streaming sessions: checkpoint/resume, resource guards, and
//! panic-free recovery for the fused byte engines.
//!
//! The paper's headline property — registerless/stackless evaluation
//! needs only O(1) state: a DFA state, a depth counter, and a bounded
//! register file (Theorems 3.1/3.2) — is exactly what makes streaming
//! evaluation *interruptible and resumable for free*.  This module turns
//! that observation into an API:
//!
//! * [`EngineSession`] — an incremental run of a [`FusedQuery`] that
//!   accepts the document in arbitrary byte segments ([`EngineSession::feed`]),
//!   can be frozen at **any byte boundary** into an [`EngineCheckpoint`]
//!   (even mid-tag: the lexer component of the state is part of the
//!   snapshot), and reopened later with [`FusedQuery::resume`].  The
//!   differential invariant `resume(checkpoint(prefix), rest) ≡
//!   run(whole)` is enforced by the conformance suite at every cut
//!   position.
//! * [`EngineCheckpoint`] — a compact, versioned, serializable snapshot:
//!   lexer state + query state + depth + register file for the
//!   depth-register engines (O(1) bytes), or the frame stack for the
//!   pushdown fallback (O(depth) bytes) — the size gap is Theorem
//!   3.1/3.2 made visible on the wire.
//! * [`Limits`] — resource guards (max depth, max document bytes, max
//!   open-tag imbalance, wall-clock budget) enforced with amortized
//!   checks: depth and imbalance are the event scan's depth guard (two
//!   compares per *event*, never per byte), byte and time budgets are
//!   checked once per 64 KiB window, so guarded throughput stays close
//!   to the unguarded engines.  Violations surface as typed
//!   [`LimitExceeded`] values with the exact byte offset.
//! * Recovery mode ([`FusedQuery::select_bytes_recovering`]) — a lenient
//!   pass that, instead of aborting on the first malformed byte, records
//!   a structured [`Diagnostic`] (offset, depth, error class),
//!   resynchronizes at the next tag start, and keeps collecting matches;
//!   the query and depth state survive the skip, so one corrupt tag does
//!   not void the rest of the document.
//!
//! Every session window, guarded one-shot run and recovery restart is one
//! `crate::engine::EngineStep::drive` call with an emit, select or count
//! sink and a depth guard.  Single-query sessions and query-set sessions
//! ([`crate::queryset::QuerySetSession`]) share one shell, `SessionCore`:
//! one window loop, one checkpoint header codec, one set of resume
//! checks; each keeps only its engine state and its per-window drive.
//!
//! Error handling across the chunked engines is unified under
//! [`SessionError`]; worker panics in the data-parallel path are caught
//! at the join and surface as [`CoreError::WorkerFailed`] — see
//! [`crate::engine`].

use std::fmt;
use std::sync::OnceLock;
use std::time::{Duration, Instant};

use st_automata::{Alphabet, Tag};
use st_obs::{Counter, Gauge, Histogram, ObsHandle, TraceEvent};
use st_trees::error::TreeError;

use crate::emit::{EmissionCursor, StreamedMatch};
use crate::engine::{
    emit_window, find_lt, record_scan_stats, rescan_error, thaw_stack, CountSink, DepthGuard,
    EmitSink, EmitWindow, EngineStep, FusedBackend, FusedQuery, HarRun, HarStep, NoGuard,
    SelectSink, Sink, StackStep, TagLexer, TEXT,
};
use crate::error::CoreError;
use crate::har::MAX_CHAIN;
use crate::planner::Strategy;
use crate::structural::{ScanEnd, ScanStats};

/// Bytes processed between amortized byte-budget / wall-clock checks.
pub(crate) const WINDOW: usize = 64 << 10;

/// Default cap on recorded recovery diagnostics; further errors are only
/// counted.  Override with [`Limits::with_max_diagnostics`].
pub const DEFAULT_MAX_DIAGNOSTICS: usize = 64;

/// A monotonic time source: "now" as a [`Duration`] since an arbitrary
/// but fixed epoch.  [`Limits::time_budget`] breaches are decided by
/// comparing two reads of this function, so any monotone function works —
/// including a test clock backed by an atomic counter, which makes
/// deadline tests deterministic instead of sleep-based.
pub type ClockFn = fn() -> Duration;

/// The default [`ClockFn`]: elapsed time since a process-wide
/// [`Instant`] epoch.
pub fn monotonic_clock() -> Duration {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed()
}

// ---------------------------------------------------------------------------
// Limits
// ---------------------------------------------------------------------------

/// Resource budgets for a streaming evaluation.  All fields default to
/// unbounded; construct with [`Limits::none`] and tighten with the
/// builder methods.
#[derive(Clone, Debug, Default)]
pub struct Limits {
    /// Maximum tree depth (open-tag nesting) the document may reach.
    /// The breach is reported at the exact open tag that crosses it, but
    /// the byte engines check it once per 4 KiB index window: the
    /// pushdown fallback may hold up to 1367 frames (one window of
    /// events) past the budget before it stops.
    pub max_depth: Option<usize>,
    /// Maximum number of document bytes the session will consume.
    pub max_bytes: Option<usize>,
    /// Maximum number of unmatched closing tags tolerated (the scanner
    /// itself tokenizes forests and stray closes; this bounds the drift).
    pub max_imbalance: Option<usize>,
    /// Wall-clock budget for the whole session, checked once per 64 KiB.
    pub time_budget: Option<Duration>,
    /// Cap on recorded recovery diagnostics
    /// ([`FusedQuery::select_bytes_recovering_limited`]); further errors
    /// are only counted.  `None` means [`DEFAULT_MAX_DIAGNOSTICS`].
    pub max_diagnostics: Option<usize>,
    /// Time source for the [`Self::time_budget`] check.  `None` means
    /// [`monotonic_clock`]; tests inject a fake clock to make deadline
    /// breaches deterministic.
    pub clock: Option<ClockFn>,
    /// Observability sink for the runs these limits govern.  The default
    /// (disabled) handle records nothing and costs one branch per
    /// session event — never one per byte; see the session metrics
    /// taxonomy in DESIGN.
    pub obs: ObsHandle,
    /// Forces the scalar byte path for runs under these limits, without
    /// mutating the shared query: the structural scan runs with
    /// certification off, so the tag lexer steps every byte of markup.
    /// Results are bitwise identical either way (that identity is what
    /// st-conform fuzzes); this is the per-run form of the process-wide
    /// `ST_FORCE_SCALAR` escape hatch.
    pub force_scalar: bool,
}

impl Limits {
    /// No limits: identical behaviour to the unguarded engines.
    pub fn none() -> Limits {
        Limits::default()
    }

    /// Sets the maximum tree depth.
    pub fn with_max_depth(mut self, depth: usize) -> Limits {
        self.max_depth = Some(depth);
        self
    }

    /// Sets the maximum number of document bytes.
    pub fn with_max_bytes(mut self, bytes: usize) -> Limits {
        self.max_bytes = Some(bytes);
        self
    }

    /// Sets the maximum unmatched-close drift.
    pub fn with_max_imbalance(mut self, imbalance: usize) -> Limits {
        self.max_imbalance = Some(imbalance);
        self
    }

    /// Sets the wall-clock budget.
    pub fn with_time_budget(mut self, budget: Duration) -> Limits {
        self.time_budget = Some(budget);
        self
    }

    /// Sets the recovery diagnostics cap (default
    /// [`DEFAULT_MAX_DIAGNOSTICS`]).
    pub fn with_max_diagnostics(mut self, cap: usize) -> Limits {
        self.max_diagnostics = Some(cap);
        self
    }

    /// Sets the time source used by the wall-clock budget check.
    pub fn with_clock(mut self, clock: ClockFn) -> Limits {
        self.clock = Some(clock);
        self
    }

    /// Attaches an observability handle: sessions run under these limits
    /// record their lifecycle (start/feed/checkpoint/resume), byte and
    /// node tallies, and limit breaches through it.
    pub fn with_obs(mut self, obs: ObsHandle) -> Limits {
        self.obs = obs;
        self
    }

    /// Forces (or re-enables) the scalar byte path for runs under these
    /// limits; see [`Limits::force_scalar`].
    pub fn with_force_scalar(mut self, on: bool) -> Limits {
        self.force_scalar = on;
        self
    }

    /// Reads the configured clock (or the default monotonic clock).
    pub fn now(&self) -> Duration {
        (self.clock.unwrap_or(monotonic_clock))()
    }

    /// The recovery diagnostics cap in force.
    pub fn diagnostics_cap(&self) -> usize {
        self.max_diagnostics.unwrap_or(DEFAULT_MAX_DIAGNOSTICS)
    }

    /// Whether every budget is unbounded.  The diagnostics cap and the
    /// clock are not budgets — they never fail a run — so they do not
    /// count.
    pub fn is_unbounded(&self) -> bool {
        self.max_depth.is_none()
            && self.max_bytes.is_none()
            && self.max_imbalance.is_none()
            && self.time_budget.is_none()
    }
}

impl PartialEq for Limits {
    /// Equality covers the budgets and the diagnostics cap.  The clock is
    /// excluded: function pointers have no stable addresses to compare,
    /// and two `Limits` that enforce the same budgets are the same limits
    /// regardless of which clock measures them.  The observability handle
    /// is excluded for the same reason: it observes the run, it does not
    /// constrain it.  `force_scalar` is likewise excluded: it picks the
    /// engine that enforces the budgets, not the budgets themselves, and
    /// both engines produce bitwise-identical results — so a checkpoint
    /// taken under the indexed path resumes cleanly under forced-scalar
    /// limits and vice versa.
    fn eq(&self, other: &Limits) -> bool {
        self.max_depth == other.max_depth
            && self.max_bytes == other.max_bytes
            && self.max_imbalance == other.max_imbalance
            && self.time_budget == other.time_budget
            && self.max_diagnostics == other.max_diagnostics
    }
}

impl Eq for Limits {}

/// Which budget a [`LimitExceeded`] violated.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LimitKind {
    /// [`Limits::max_depth`].
    Depth,
    /// [`Limits::max_bytes`].
    Bytes,
    /// [`Limits::max_imbalance`].
    Imbalance,
    /// [`Limits::time_budget`].
    Time,
}

impl fmt::Display for LimitKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(limit_kind_name(*self))
    }
}

/// The stable name of a limit kind, used both by `Display` and by the
/// [`TraceEvent::LimitBreach`] records the session emits.
pub(crate) fn limit_kind_name(kind: LimitKind) -> &'static str {
    match kind {
        LimitKind::Depth => "depth",
        LimitKind::Bytes => "byte",
        LimitKind::Imbalance => "imbalance",
        LimitKind::Time => "time",
    }
}

/// A typed resource-guard violation, with the byte offset at which the
/// budget was crossed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LimitExceeded {
    /// The violated budget.
    pub kind: LimitKind,
    /// The budget in force (bytes, levels, unmatched closes, or
    /// milliseconds, depending on `kind`).
    pub limit: u64,
    /// Absolute byte offset of the violation: the byte whose processing
    /// crossed the budget.
    pub offset: usize,
}

impl fmt::Display for LimitExceeded {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} budget of {} exceeded at byte {}",
            self.kind, self.limit, self.offset
        )
    }
}

// ---------------------------------------------------------------------------
// SessionError
// ---------------------------------------------------------------------------

/// Unified error type of the resilient session layer and the chunked
/// data-parallel engines.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SessionError {
    /// The document is malformed; carries the parse diagnostic.
    Parse(TreeError),
    /// An engine failure — notably [`CoreError::WorkerFailed`] when a
    /// data-parallel chunk worker panicked.
    Engine(CoreError),
    /// A resource budget was exceeded.
    Limit(LimitExceeded),
    /// The evaluation path has no byte-level session state to snapshot
    /// (the buffered DOM / stack-baseline / event-plan paths).
    ResumeUnsupported {
        /// Name of the engine that cannot resume.
        engine: String,
    },
    /// A checkpoint could not be serialized, deserialized, or applied
    /// (corrupt bytes, version/fingerprint mismatch, wrong engine).
    Checkpoint {
        /// What went wrong.
        detail: String,
    },
}

impl fmt::Display for SessionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SessionError::Parse(e) => write!(f, "{e}"),
            SessionError::Engine(e) => write!(f, "{e}"),
            SessionError::Limit(e) => write!(f, "{e}"),
            SessionError::ResumeUnsupported { engine } => {
                write!(f, "the {engine} path does not support checkpoint/resume")
            }
            SessionError::Checkpoint { detail } => write!(f, "bad checkpoint: {detail}"),
        }
    }
}

impl std::error::Error for SessionError {}

impl From<TreeError> for SessionError {
    fn from(e: TreeError) -> SessionError {
        SessionError::Parse(e)
    }
}

impl From<CoreError> for SessionError {
    fn from(e: CoreError) -> SessionError {
        SessionError::Engine(e)
    }
}

impl From<LimitExceeded> for SessionError {
    fn from(e: LimitExceeded) -> SessionError {
        SessionError::Limit(e)
    }
}

fn limit_error(kind: LimitKind, limit: u64, offset: usize) -> SessionError {
    SessionError::Limit(LimitExceeded {
        kind,
        limit,
        offset,
    })
}

pub(crate) fn corrupt(detail: impl Into<String>) -> SessionError {
    SessionError::Checkpoint {
        detail: detail.into(),
    }
}

// ---------------------------------------------------------------------------
// Event-level structural guards (planner plumbing)
// ---------------------------------------------------------------------------

/// Enforces the structural budgets (depth, imbalance) over a buffered tag
/// stream in one cheap pre-pass.  The byte and wall-clock budgets do not
/// apply to event streams — they guard byte sessions — so they are
/// ignored here.  Used by the planner to protect the event-level
/// evaluators (including the pushdown fallback, whose stack is O(depth))
/// before they allocate.
///
/// # Errors
///
/// The first [`LimitExceeded`] in stream order; its offset is the event
/// index.
pub fn check_event_limits(tags: &[Tag], limits: &Limits) -> Result<(), LimitExceeded> {
    if limits.max_depth.is_none() && limits.max_imbalance.is_none() {
        return Ok(());
    }
    // The byte engines' per-event depth rule.
    let guard = DepthGuard::new(1, 0, limits);
    let mut depth = 0;
    for (i, t) in tags.iter().enumerate() {
        depth = guard
            .admit(depth, t.is_open(), !t.is_open())
            .map_err(|e| LimitExceeded { offset: i, ..e })?;
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Checkpoint
// ---------------------------------------------------------------------------

/// Version tag written into every serialized checkpoint.  Version 2
/// added the emission cursor (count + digest of the emitted match
/// prefix); version 3 changed the digest to the word-wise fold of
/// [`EmissionCursor::push`], leaving every other field as it was.
/// Older checkpoints are rejected rather than resumed with an empty or
/// differently-hashed cursor.
pub const CHECKPOINT_VERSION: u16 = 3;

const CHECKPOINT_MAGIC: [u8; 4] = *b"STCK";

/// The engine-specific portion of a checkpoint.  The registerless and
/// depth-register variants are O(1); only the pushdown fallback carries
/// an O(depth) payload — Theorems 3.1/3.2 on the wire.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CheckpointState {
    /// Composite lexer × query-DFA state of the registerless byte engine.
    Registerless {
        /// The composite state `lexer * m + q`.
        composite: u16,
    },
    /// Lexer state plus the Lemma 3.8 run: current DFA state, dead flag,
    /// and the SCC chain with its depth registers (≤ [`MAX_CHAIN`]).
    Stackless {
        /// Lexer state (mid-tag checkpoints are legal).
        lex: u16,
        /// Current DFA state.
        current: u16,
        /// Whether the run already fell off the rewind relation.
        dead: bool,
        /// `(state, register)` pairs of the active SCC chain.
        chain: Vec<(u16, i64)>,
    },
    /// Lexer state plus the pushdown frames — O(depth).
    Stack {
        /// Lexer state.
        lex: u16,
        /// Current DFA state.
        current: u16,
        /// The saved DFA states, bottom of stack first.
        frames: Vec<u16>,
    },
}

/// A compact, versioned snapshot of an [`EngineSession`] at a byte
/// boundary.  Serialize with [`EngineCheckpoint::to_bytes`], restore with
/// [`EngineCheckpoint::from_bytes`] + [`FusedQuery::resume`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct EngineCheckpoint {
    /// Fingerprint, alphabet and position: the run both wire formats
    /// share.
    header: CheckpointHeader,
    /// Count and word-wise digest of the matches emitted (past the
    /// certainty frontier) before the checkpoint was minted.
    cursor: EmissionCursor,
    /// Engine-specific state.
    state: CheckpointState,
}

impl EngineCheckpoint {
    /// The strategy of the engine that minted this checkpoint.
    pub fn strategy(&self) -> Strategy {
        match self.state {
            CheckpointState::Registerless { .. } => Strategy::Registerless,
            CheckpointState::Stackless { .. } => Strategy::Stackless,
            CheckpointState::Stack { .. } => Strategy::Stack,
        }
    }

    /// The emission cursor at the checkpoint: how many matches had been
    /// emitted when it was minted, and the digest of that prefix.  A
    /// resuming consumer uses it to dedup the replay window — and to
    /// verify its own ledger against the digest before trusting either.
    pub fn emission_cursor(&self) -> EmissionCursor {
        self.cursor
    }

    /// Serializes the checkpoint (little-endian, versioned, magic-tagged).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut w = CHECKPOINT_MAGIC.to_vec();
        put_u16(&mut w, CHECKPOINT_VERSION);
        self.header.write(&mut w);
        put_u64(&mut w, self.cursor.count);
        put_u64(&mut w, self.cursor.digest);
        match &self.state {
            CheckpointState::Registerless { composite } => {
                w.push(0);
                put_u16(&mut w, *composite);
            }
            CheckpointState::Stackless {
                lex,
                current,
                dead,
                chain,
            } => {
                w.push(1);
                put_u16(&mut w, *lex);
                put_u16(&mut w, *current);
                w.push(*dead as u8);
                w.push(chain.len() as u8);
                put_chain(&mut w, chain);
            }
            CheckpointState::Stack {
                lex,
                current,
                frames,
            } => {
                w.push(2);
                put_u16(&mut w, *lex);
                put_u16(&mut w, *current);
                put_u32(&mut w, frames.len() as u32);
                for s in frames {
                    put_u16(&mut w, *s);
                }
            }
        }
        w
    }

    /// Deserializes a checkpoint produced by [`Self::to_bytes`].
    ///
    /// # Errors
    ///
    /// [`SessionError::Checkpoint`] on truncated, corrupt, or
    /// wrong-version input.
    pub fn from_bytes(bytes: &[u8]) -> Result<EngineCheckpoint, SessionError> {
        let mut r = Reader::new(bytes);
        r.preamble(CHECKPOINT_MAGIC, CHECKPOINT_VERSION)?;
        let header = CheckpointHeader::read(&mut r)?;
        let cursor = EmissionCursor {
            count: r.u64()?,
            digest: r.u64()?,
        };
        let state = match r.u8()? {
            0 => CheckpointState::Registerless {
                composite: r.u16()?,
            },
            1 => {
                let lex = r.u16()?;
                let current = r.u16()?;
                let dead = r.u8()? != 0;
                let chain_len = r.u8()? as usize;
                CheckpointState::Stackless {
                    lex,
                    current,
                    dead,
                    chain: r.chain(chain_len)?,
                }
            }
            2 => {
                let lex = r.u16()?;
                let current = r.u16()?;
                let n_frames = r.count(2)?;
                let frames = (0..n_frames).map(|_| r.u16()).collect::<Result<_, _>>()?;
                CheckpointState::Stack {
                    lex,
                    current,
                    frames,
                }
            }
            tag => return Err(corrupt(format!("unknown engine tag {tag}"))),
        };
        if !r.at_end() {
            return Err(corrupt("trailing bytes"));
        }
        Ok(EngineCheckpoint {
            header,
            cursor,
            state,
        })
    }
}

/// The positional run both checkpoint formats share — `fingerprint ·
/// alphabet · offset · node · depth`, contiguous on the wire in STCK and
/// STQS alike — with its one codec.
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) struct CheckpointHeader {
    /// Fingerprint of the query (or query set) and alphabet the session
    /// ran; resume refuses a checkpoint minted by anything else.
    pub(crate) fingerprint: u64,
    /// The alphabet symbols in letter order, so a consumer can recompile
    /// the query without re-parsing any document prefix.
    pub(crate) alphabet: Vec<String>,
    /// Absolute byte offset the session had consumed.
    pub(crate) offset: u64,
    /// Document-order id the next opened node will get.
    pub(crate) node: u64,
    /// Current depth (opens minus closes; may be negative on unbalanced
    /// but tokenizable inputs).
    pub(crate) depth: i64,
}

impl CheckpointHeader {
    pub(crate) fn write(&self, w: &mut Vec<u8>) {
        put_u64(w, self.fingerprint);
        put_u16(w, self.alphabet.len() as u16);
        for s in &self.alphabet {
            put_u16(w, s.len() as u16);
            w.extend_from_slice(s.as_bytes());
        }
        put_u64(w, self.offset);
        put_u64(w, self.node);
        put_i64(w, self.depth);
    }

    pub(crate) fn read(r: &mut Reader<'_>) -> Result<CheckpointHeader, SessionError> {
        let fingerprint = r.u64()?;
        let n_symbols = r.u16()? as usize;
        // Each symbol costs at least its two length bytes, which bounds
        // the allocation by the buffer, whatever the count claims.
        let mut alphabet = Vec::with_capacity(n_symbols.min(r.remaining() / 2));
        for _ in 0..n_symbols {
            let len = r.u16()? as usize;
            let raw = r.take(len)?;
            let s = std::str::from_utf8(raw).map_err(|_| corrupt("non-UTF-8 symbol"))?;
            alphabet.push(s.to_owned());
        }
        let offset = r.u64()?;
        let node = r.u64()?;
        let depth = r.i64()?;
        Ok(CheckpointHeader {
            fingerprint,
            alphabet,
            offset,
            node,
            depth,
        })
    }
}

/// The `(state, register)` pairs of a frozen HAR chain; each format
/// writes the chain length itself, in its own width.
pub(crate) fn put_chain(w: &mut Vec<u8>, chain: &[(u16, i64)]) {
    for &(s, r) in chain {
        put_u16(w, s);
        put_i64(w, r);
    }
}

pub(crate) fn put_u16(w: &mut Vec<u8>, v: u16) {
    w.extend_from_slice(&v.to_le_bytes());
}
pub(crate) fn put_u32(w: &mut Vec<u8>, v: u32) {
    w.extend_from_slice(&v.to_le_bytes());
}
pub(crate) fn put_u64(w: &mut Vec<u8>, v: u64) {
    w.extend_from_slice(&v.to_le_bytes());
}
pub(crate) fn put_i64(w: &mut Vec<u8>, v: i64) {
    w.extend_from_slice(&v.to_le_bytes());
}

pub(crate) struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    pub(crate) fn new(buf: &'a [u8]) -> Reader<'a> {
        Reader { buf, pos: 0 }
    }
    pub(crate) fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }
    pub(crate) fn at_end(&self) -> bool {
        self.pos == self.buf.len()
    }
    /// Checks a format's magic and version.
    pub(crate) fn preamble(&mut self, magic: [u8; 4], version: u16) -> Result<(), SessionError> {
        if self.take(4)? != magic {
            return Err(corrupt("bad magic"));
        }
        let v = self.u16()?;
        if v != version {
            return Err(corrupt(format!("version {v} (this build reads {version})")));
        }
        Ok(())
    }
    /// A `u32` element count, refused when that many elements of at least
    /// `width` bytes each cannot fit in what remains: a lying count never
    /// sizes an allocation.
    pub(crate) fn count(&mut self, width: usize) -> Result<usize, SessionError> {
        let n = self.u32()? as usize;
        if n.saturating_mul(width) > self.remaining() {
            return Err(corrupt(format!("{n} elements in a short buffer")));
        }
        Ok(n)
    }
    /// `n` pairs of a frozen HAR chain (at most [`MAX_CHAIN`]).
    pub(crate) fn chain(&mut self, n: usize) -> Result<Vec<(u16, i64)>, SessionError> {
        if n > MAX_CHAIN {
            return Err(corrupt(format!("chain of {n} registers")));
        }
        (0..n).map(|_| Ok((self.u16()?, self.i64()?))).collect()
    }
    pub(crate) fn take(&mut self, n: usize) -> Result<&'a [u8], SessionError> {
        // Hostile length fields can be anything up to `u32::MAX`;
        // checked arithmetic keeps even `usize`-overflow-adjacent lies
        // a typed error rather than a wrap-around.
        let end = self
            .pos
            .checked_add(n)
            .ok_or_else(|| corrupt("truncated"))?;
        if end > self.buf.len() {
            return Err(corrupt("truncated"));
        }
        let out = &self.buf[self.pos..end];
        self.pos = end;
        Ok(out)
    }
    pub(crate) fn u8(&mut self) -> Result<u8, SessionError> {
        Ok(self.take(1)?[0])
    }
    pub(crate) fn u16(&mut self) -> Result<u16, SessionError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }
    pub(crate) fn u32(&mut self) -> Result<u32, SessionError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }
    pub(crate) fn u64(&mut self) -> Result<u64, SessionError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }
    pub(crate) fn i64(&mut self) -> Result<i64, SessionError> {
        Ok(i64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }
}

// ---------------------------------------------------------------------------
// Query fingerprint
// ---------------------------------------------------------------------------

pub(crate) fn fnv_bytes(h: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *h ^= b as u64;
        *h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
}

pub(crate) fn fnv_usize(h: &mut u64, v: usize) {
    fnv_bytes(h, &(v as u64).to_le_bytes());
}

pub(crate) fn alphabet_symbols(alphabet: &Alphabet) -> Vec<String> {
    let mut entries: Vec<(usize, String)> = alphabet
        .entries()
        .map(|(l, s)| (l.index(), s.to_owned()))
        .collect();
    entries.sort_by_key(|(i, _)| *i);
    entries.into_iter().map(|(_, s)| s).collect()
}

/// A stable hash of the query automaton and alphabet, written into every
/// checkpoint so a resume against a different query fails loudly.
/// Computed once per [`FusedQuery`] (its `fingerprint` field).
pub(crate) fn query_fingerprint(alphabet: &Alphabet, backend: &FusedBackend) -> u64 {
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    for s in alphabet_symbols(alphabet) {
        fnv_usize(&mut h, s.len());
        fnv_bytes(&mut h, s.as_bytes());
    }
    match backend {
        FusedBackend::Registerless(b) => {
            fnv_usize(&mut h, 0);
            fnv_usize(&mut h, b.m);
            fnv_usize(&mut h, b.start as usize);
            for &q in &b.qnext {
                fnv_usize(&mut h, q as usize);
            }
            for &a in &b.accepting {
                fnv_usize(&mut h, a as usize);
            }
        }
        FusedBackend::Stackless(e) => {
            fnv_usize(&mut h, 1);
            fnv_dfa(&mut h, e.program.core().dfa());
        }
        FusedBackend::Stack(e) => {
            fnv_usize(&mut h, 2);
            fnv_dfa(&mut h, &e.dfa);
        }
    }
    h
}

pub(crate) fn fnv_dfa(h: &mut u64, dfa: &st_automata::Dfa) {
    fnv_usize(h, dfa.n_states());
    fnv_usize(h, dfa.n_letters());
    fnv_usize(h, dfa.init());
    for s in 0..dfa.n_states() {
        fnv_usize(h, dfa.is_accepting(s) as usize);
        for l in 0..dfa.n_letters() {
            fnv_usize(h, dfa.step(s, l));
        }
    }
}

// ---------------------------------------------------------------------------
// Session state
// ---------------------------------------------------------------------------

/// The final tallies of a completed session run.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SessionOutcome {
    /// Document-order ids of the selected nodes *opened during this
    /// session* (a resumed session reports the tail's matches; node ids
    /// stay global, so concatenating prefix + tail matches reproduces
    /// the uninterrupted run).
    pub matches: Vec<usize>,
    /// Total nodes opened from the start of the document.
    pub nodes: usize,
    /// Final emission cursor: count + digest of every match emitted
    /// from the start of the document (pre-resume history included).
    /// For a successful run this covers exactly the full match list —
    /// the invariant that streamed delivery never retracts.
    pub cursor: EmissionCursor,
}

/// Pre-resolved session metrics: one registry lookup per metric at
/// session construction, pure atomics afterwards.  Absent entirely when
/// the limits carry a disabled [`ObsHandle`], so the per-event cost of
/// observability on an unobserved session is a single `Option` branch —
/// and only at feed/checkpoint granularity, never per byte.
pub(crate) struct SessObs {
    pub(crate) obs: ObsHandle,
    /// Session id in the handle's id space (links to serve jobs via
    /// [`TraceEvent::JobSession`]).
    pub(crate) id: u64,
    pub(crate) feeds: Counter,
    pub(crate) bytes: Counter,
    pub(crate) checkpoints: Counter,
    pub(crate) nodes: Counter,
    pub(crate) matches: Counter,
    pub(crate) breaches: Counter,
    pub(crate) finished: Counter,
    /// Structural-index window tallies, shared with the one-shot engine
    /// counters so `stql --stats` reports one fallback rate.
    pub(crate) simd_windows: Counter,
    pub(crate) fallback_windows: Counter,
    /// Bytes between consecutive checkpoints (the observed cadence).
    pub(crate) checkpoint_interval: Histogram,
    /// Matches emitted past the certainty frontier.
    pub(crate) emissions: Counter,
    /// Per-match emission latency: bytes from the deciding open event to
    /// the window boundary that released the match (log2 buckets).
    pub(crate) emission_latency: Histogram,
    /// Matches currently held back at the certainty frontier (sampled at
    /// each flush).
    pub(crate) frontier_depth: Gauge,
    /// `Cell` because [`EngineSession::checkpoint`] takes `&self`.
    pub(crate) last_checkpoint_offset: std::cell::Cell<u64>,
}

impl SessObs {
    pub(crate) fn attach(obs: &ObsHandle) -> Option<SessObs> {
        if !obs.is_enabled() {
            return None;
        }
        Some(SessObs {
            obs: obs.clone(),
            id: obs.next_session_id(),
            feeds: obs.counter("session_feeds_total"),
            bytes: obs.counter("session_bytes_total"),
            checkpoints: obs.counter("session_checkpoints_total"),
            nodes: obs.counter("session_nodes_total"),
            matches: obs.counter("session_matches_total"),
            breaches: obs.counter("session_limit_breaches_total"),
            finished: obs.counter("session_finished_total"),
            simd_windows: obs.counter("engine_simd_windows"),
            fallback_windows: obs.counter("engine_scalar_fallback_windows"),
            checkpoint_interval: obs.histogram("session_checkpoint_interval_bytes"),
            emissions: obs.counter("session_emissions_total"),
            emission_latency: obs.histogram("session_emission_latency_bytes"),
            frontier_depth: obs.gauge("session_frontier_depth"),
            last_checkpoint_offset: std::cell::Cell::new(0),
        })
    }
}

// ---------------------------------------------------------------------------
// The session shell
// ---------------------------------------------------------------------------

/// The engine half of a session: its live state, the drive call one
/// window makes, and how that state freezes and ends.  [`SessionCore`]
/// is generic over it, so each implementor's per-event drive stays
/// monomorphised; the shell itself runs once per window.
pub(crate) trait WindowRun {
    type Checkpoint;
    type Outcome;

    /// Scans window `w`, which starts at absolute offset `core.offset`,
    /// from the core's lexer state, node counter and depth, advancing the
    /// engine state, `core.node` and `core.depth`; returns how the scan
    /// ended.
    fn drive(&mut self, core: &mut SessionCore, w: &[u8], stats: &mut ScanStats) -> ScanEnd;

    /// Runs after each window the scan completed, with `core.offset`
    /// already past it: the single-query emission frontier's hook.
    fn window_done(&mut self, _core: &SessionCore) {}

    /// The checkpoint of this state at `core`'s position.
    fn freeze(&self, core: &SessionCore) -> Self::Checkpoint;

    /// Matches selected so far, for the finish metrics.
    fn match_count(&self) -> u64;

    /// The final tallies, `nodes` opened from document start.
    fn outcome(self, nodes: usize) -> Self::Outcome;
}

/// What every session shares, whatever it evaluates: the budgets, the
/// clock, the position in the document, the sticky error and the
/// metrics.  It runs the window loop, the checkpoint preamble, the
/// end-of-input checks and the resume plausibility checks — once for
/// [`EngineSession`] and [`crate::queryset::QuerySetSession`] alike.
pub(crate) struct SessionCore {
    pub(crate) limits: Limits,
    /// Clock reading at session start (in the limits' clock).
    started: Duration,
    pub(crate) offset: usize,
    pub(crate) node: usize,
    /// Node counter value at session start (0 fresh, the checkpoint's
    /// counter on resume) — so tallies reported to the metrics registry
    /// cover only what *this* session processed.
    node_base: usize,
    pub(crate) depth: i64,
    /// Lexer state (mid-tag cuts are legal).
    pub(crate) lex: u16,
    failed: Option<SessionError>,
    pub(crate) obs: Option<SessObs>,
}

impl SessionCore {
    fn new(limits: Limits) -> SessionCore {
        SessionCore {
            started: limits.now(),
            obs: SessObs::attach(&limits.obs),
            limits,
            offset: 0,
            node: 0,
            node_base: 0,
            depth: 0,
            lex: TEXT,
            failed: None,
        }
    }

    /// A session at document start.
    pub(crate) fn start(limits: Limits) -> SessionCore {
        let core = SessionCore::new(limits);
        if let Some(o) = &core.obs {
            o.obs.counter("session_started_total").incr();
            o.obs.trace(TraceEvent::SessionStart { session: o.id });
        }
        core
    }

    /// A session at checkpoint header `h` in lexer state `lex`.  A
    /// checkpoint is untrusted wire input: a lying `offset`/`node`/
    /// `depth` would otherwise overflow the counters on the next feed.
    /// Every node costs bytes and every depth change costs a tag, so both
    /// are bounded by the bytes consumed; the offset itself is capped at
    /// an exabyte-scale stream no real session reaches.
    pub(crate) fn resume(
        limits: Limits,
        h: &CheckpointHeader,
        lex: u16,
        lexer: &TagLexer,
    ) -> Result<SessionCore, SessionError> {
        const MAX_STREAM_OFFSET: u64 = 1 << 60;
        if h.offset > MAX_STREAM_OFFSET {
            return Err(corrupt("stream offset implausibly large"));
        }
        if h.node > h.offset {
            return Err(corrupt("node counter exceeds bytes consumed"));
        }
        if h.depth.unsigned_abs() > h.offset {
            return Err(corrupt("depth exceeds bytes consumed"));
        }
        if lex as usize >= lexer.n_states() {
            return Err(corrupt("lexer state out of range"));
        }
        let mut core = SessionCore::new(limits);
        core.offset = h.offset as usize;
        core.node = h.node as usize;
        core.node_base = core.node;
        core.depth = h.depth;
        core.lex = lex;
        if let Some(o) = &core.obs {
            o.last_checkpoint_offset.set(h.offset);
            o.obs.counter("session_resumed_total").incr();
            o.obs.trace(TraceEvent::SessionResume {
                session: o.id,
                offset: h.offset,
            });
        }
        Ok(core)
    }

    /// Feeds `segment` through `run` window by window; errors are sticky.
    pub(crate) fn feed<R: WindowRun>(
        &mut self,
        run: &mut R,
        segment: &[u8],
    ) -> Result<(), SessionError> {
        if let Some(e) = &self.failed {
            return Err(e.clone());
        }
        let feed_start = self.offset;
        let res = self.feed_windows(run, segment);
        if let Some(o) = &self.obs {
            let consumed = (self.offset - feed_start) as u64;
            o.feeds.incr();
            o.bytes.add(consumed);
            o.obs.trace(TraceEvent::SessionFeed {
                session: o.id,
                offset: feed_start as u64,
                bytes: consumed,
            });
        }
        res
    }

    fn feed_windows<R: WindowRun>(
        &mut self,
        run: &mut R,
        segment: &[u8],
    ) -> Result<(), SessionError> {
        let mut pos = 0usize;
        while pos < segment.len() {
            let mut end = (pos + WINDOW).min(segment.len());
            if let Some(mb) = self.limits.max_bytes {
                if self.offset >= mb {
                    return self.fail(limit_error(LimitKind::Bytes, mb as u64, mb));
                }
                end = end.min(pos + (mb - self.offset));
            }
            if let Some(tb) = self.limits.time_budget {
                if self.limits.now().saturating_sub(self.started) > tb {
                    let limit = tb.as_millis() as u64;
                    return self.fail(limit_error(LimitKind::Time, limit, self.offset));
                }
            }
            // `self.offset` is the absolute offset of the window's first
            // byte until the window completes.
            let mut stats = ScanStats::default();
            let scan_end = run.drive(self, &segment[pos..end], &mut stats);
            if let Some(o) = &self.obs {
                o.simd_windows.add(stats.simd_windows);
                o.fallback_windows.add(stats.fallback_windows);
            }
            match scan_end {
                ScanEnd::Complete { lex } => self.lex = lex,
                ScanEnd::Error { pos } => return self.fail(parse_error(self.offset + pos)),
                ScanEnd::Breach(b) => {
                    let offset = self.offset + b.offset;
                    return self.fail(SessionError::Limit(LimitExceeded { offset, ..b }));
                }
            }
            self.offset += end - pos;
            pos = end;
            run.window_done(self);
        }
        Ok(())
    }

    fn fail(&mut self, e: SessionError) -> Result<(), SessionError> {
        if let Some(o) = &self.obs {
            if let SessionError::Limit(l) = &e {
                o.breaches.incr();
                o.obs.trace(TraceEvent::LimitBreach {
                    session: o.id,
                    kind: limit_kind_name(l.kind),
                    offset: l.offset as u64,
                });
            }
        }
        self.failed = Some(e.clone());
        Err(e)
    }

    /// Freezes `run` at the current byte boundary; a failed session has
    /// no resumable state.
    pub(crate) fn checkpoint<R: WindowRun>(&self, run: &R) -> Result<R::Checkpoint, SessionError> {
        if let Some(e) = &self.failed {
            return Err(corrupt(format!("session already failed: {e}")));
        }
        if let Some(o) = &self.obs {
            o.checkpoints.incr();
            let last = o.last_checkpoint_offset.replace(self.offset as u64);
            o.checkpoint_interval
                .record((self.offset as u64).saturating_sub(last));
            o.obs.trace(TraceEvent::SessionCheckpoint {
                session: o.id,
                offset: self.offset as u64,
            });
        }
        Ok(run.freeze(self))
    }

    /// The shared header of a checkpoint of `fingerprint` over `alphabet`
    /// at the current position.
    pub(crate) fn header(&self, fingerprint: u64, alphabet: &Alphabet) -> CheckpointHeader {
        CheckpointHeader {
            fingerprint,
            alphabet: alphabet_symbols(alphabet),
            offset: self.offset as u64,
            node: self.node as u64,
            depth: self.depth,
        }
    }

    /// Declares end of input: the sticky error, or input that ended
    /// inside markup, fails the session.
    pub(crate) fn finish<R: WindowRun>(self, run: R) -> Result<R::Outcome, SessionError> {
        if let Some(e) = self.failed {
            return Err(e);
        }
        if self.lex != TEXT {
            return Err(SessionError::Parse(TreeError::Parse {
                position: self.offset,
                message: "input ended inside markup".to_owned(),
            }));
        }
        if let Some(o) = &self.obs {
            o.finished.incr();
            o.nodes.add((self.node - self.node_base) as u64);
            o.matches.add(run.match_count());
        }
        Ok(run.outcome(self.node))
    }

    /// Feeds `bytes` through `run`, freezing a checkpoint at each cut
    /// offset (out of range or unordered cuts are ignored), then
    /// finishes: the one body of every `run_session`,
    /// `run_with_checkpoints` and `resume_from`.
    pub(crate) fn run_cuts<R: WindowRun>(
        mut self,
        mut run: R,
        bytes: &[u8],
        cuts: &[usize],
    ) -> Result<(R::Outcome, Vec<R::Checkpoint>), SessionError> {
        let mut checkpoints = Vec::new();
        let mut prev = 0usize;
        for &cut in cuts {
            if cut < prev || cut > bytes.len() {
                continue;
            }
            self.feed(&mut run, &bytes[prev..cut])?;
            checkpoints.push(self.checkpoint(&run)?);
            prev = cut;
        }
        self.feed(&mut run, &bytes[prev..])?;
        Ok((self.finish(run)?, checkpoints))
    }
}

/// The methods [`EngineSession`] and [`crate::queryset::QuerySetSession`]
/// share verbatim — each is a [`SessionCore`] in field `core` beside its
/// engine half in field `run` — and the positional accessors of their
/// checkpoints, which carry a [`CheckpointHeader`] in field `header`.
macro_rules! session_methods {
    ($session:ident, $matches:ty, $checkpoint:ty, $outcome:ty) => {
        impl $session<'_> {
            /// The id this session carries in its observability handle's
            /// trace (0 when unobserved).  The serving runtime uses it to
            /// link a job to the session driving it.
            pub fn obs_session_id(&self) -> u64 {
                self.core.obs.as_ref().map_or(0, |o| o.id)
            }

            /// Absolute byte offset consumed so far.
            pub fn offset(&self) -> usize {
                self.core.offset
            }

            /// Total nodes opened so far (document-order id of the next
            /// open).
            pub fn node_count(&self) -> usize {
                self.core.node
            }

            /// Current depth (opens minus closes).
            pub fn depth(&self) -> i64 {
                self.core.depth
            }

            /// Ids of the nodes selected during this session so far (one
            /// list per member for a query set).
            pub fn matches(&self) -> &[$matches] {
                &self.run.matches
            }

            /// Feeds the next segment of the document.  Errors are
            /// sticky: once a feed fails, the session stays failed.
            ///
            /// # Errors
            ///
            /// [`SessionError::Parse`] at the first malformed byte
            /// (absolute offset; the message is the session layer's
            /// structural diagnostic, since a mid-stream session cannot
            /// re-scan bytes it no longer holds) or
            /// [`SessionError::Limit`] when a budget is crossed.
            pub fn feed(&mut self, segment: &[u8]) -> Result<(), SessionError> {
                self.core.feed(&mut self.run, segment)
            }

            /// Freezes the session at the current byte boundary.
            ///
            /// # Errors
            ///
            /// [`SessionError::Checkpoint`] if the session has already
            /// failed — a failed run has no resumable state.
            pub fn checkpoint(&self) -> Result<$checkpoint, SessionError> {
                self.core.checkpoint(&self.run)
            }

            /// Declares end-of-input and returns the session's tallies.
            ///
            /// # Errors
            ///
            /// The sticky error if the session already failed, or
            /// [`SessionError::Parse`] if the input ended inside markup.
            pub fn finish(self) -> Result<$outcome, SessionError> {
                self.core.finish(self.run)
            }
        }

        impl $checkpoint {
            /// Absolute byte offset at which the session was frozen.
            pub fn offset(&self) -> usize {
                self.header.offset as usize
            }

            /// Document-order id the next opened node will receive.
            pub fn next_node(&self) -> usize {
                self.header.node as usize
            }

            /// Depth (opens minus closes) at the checkpoint.
            pub fn depth(&self) -> i64 {
                self.header.depth
            }

            /// The alphabet symbols, in letter order — enough to
            /// recompile the query on the resuming side.
            pub fn alphabet_symbols(&self) -> &[String] {
                &self.header.alphabet
            }
        }
    };
}
pub(crate) use session_methods;

// ---------------------------------------------------------------------------
// Single-query sessions
// ---------------------------------------------------------------------------

/// An incremental, checkpointable run of a [`FusedQuery`] under a set of
/// [`Limits`].  Feed the document in arbitrary segments; freeze at any
/// byte boundary with [`Self::checkpoint`]; close with [`Self::finish`].
pub struct EngineSession<'q> {
    core: SessionCore,
    run: EngineRun<'q>,
}

session_methods!(EngineSession, usize, EngineCheckpoint, SessionOutcome);

/// The engine half of an [`EngineSession`]: the step state and the
/// emission frontier.
struct EngineRun<'q> {
    query: &'q FusedQuery,
    step: EngineStep<'q>,
    matches: Vec<usize>,
    /// Absolute byte offset of the open event that decided each match —
    /// parallel to `matches`.  Selection is decided *at the open* in all
    /// three engine classes, so this is the earliest certain offset.
    match_offsets: Vec<usize>,
    /// The scratch every scan's [`EmitSink`] writes its candidates to.
    window: Box<EmitWindow>,
    /// Matches `[..flushed]` have crossed the certainty frontier (their
    /// window completed) and are folded into `cursor`; the tail is still
    /// tentative — a failing window retracts it invisibly.
    flushed: usize,
    /// Matches `[..drained]` were already handed out by
    /// [`EngineSession::drain_emitted`].
    drained: usize,
    /// Count + digest of everything emitted since document start
    /// (resume restores the checkpoint's cursor and keeps folding).
    cursor: EmissionCursor,
}

impl WindowRun for EngineRun<'_> {
    type Checkpoint = EngineCheckpoint;
    type Outcome = SessionOutcome;

    /// One `EngineStep::drive` call, whatever the engine class.
    fn drive(&mut self, core: &mut SessionCore, w: &[u8], stats: &mut ScanStats) -> ScanEnd {
        let lexer = self.query.tag_lexer();
        let certify = lexer.certify(core.limits.force_scalar);
        let guard = DepthGuard::new(lexer.k(), core.depth, &core.limits);
        // The lists leave the run for the scan: a panic mid-scan drops
        // them here, in this frame.
        let mut lists = (
            std::mem::take(&mut self.matches),
            std::mem::take(&mut self.match_offsets),
        );
        let sink = EmitSink::new(core.node, core.offset, &mut self.window, &mut lists);
        let (end, sink, guard) = self
            .step
            .drive(lexer, w, core.lex, certify, stats, sink, guard);
        core.node = sink.finish();
        core.depth = guard.depth();
        (self.matches, self.match_offsets) = lists;
        end
    }

    /// Advances the certainty frontier past every match decided in the
    /// window that just completed: folds each into the emission cursor
    /// and records its emission latency (bytes from the deciding open
    /// event to this frontier).  A window that *failed* never reaches
    /// here, so its tentative matches stay unemitted — exactly the
    /// prefix every successful re-run of the same bytes would emit.
    fn window_done(&mut self, core: &SessionCore) {
        let nodes = &self.matches[self.flushed..];
        let offsets = &self.match_offsets[self.flushed..];
        for (&node, &offset) in nodes.iter().zip(offsets) {
            self.cursor.push(StreamedMatch { node, offset });
        }
        if let Some(o) = &core.obs {
            o.frontier_depth.set(offsets.len() as i64);
            o.emissions.add(offsets.len() as u64);
            for &offset in offsets {
                o.emission_latency.record((core.offset - offset) as u64);
            }
        }
        self.flushed = self.matches.len();
    }

    fn freeze(&self, core: &SessionCore) -> EngineCheckpoint {
        let lex = core.lex;
        let state = match (&self.step, &self.query.backend) {
            (EngineStep::Har(st), _) => {
                let (current, dead, chain) = st.run.freeze(st.core);
                CheckpointState::Stackless {
                    lex,
                    current: current as u16,
                    dead,
                    chain,
                }
            }
            (EngineStep::Stack(st), _) => CheckpointState::Stack {
                lex,
                current: st.current as u16,
                frames: st.stack.clone(),
            },
            (step, FusedBackend::Registerless(b)) => CheckpointState::Registerless {
                composite: (lex as usize * b.m + step.query_state(b)) as u16,
            },
            _ => unreachable!("state/backend agree by construction"),
        };
        EngineCheckpoint {
            header: core.header(self.query.fingerprint, &self.query.alphabet),
            cursor: self.cursor,
            state,
        }
    }

    fn match_count(&self) -> u64 {
        self.matches.len() as u64
    }

    fn outcome(self, nodes: usize) -> SessionOutcome {
        SessionOutcome {
            matches: self.matches,
            nodes,
            cursor: self.cursor,
        }
    }
}

impl<'q> EngineSession<'q> {
    fn new(
        query: &'q FusedQuery,
        core: SessionCore,
        step: EngineStep<'q>,
        cursor: EmissionCursor,
    ) -> EngineSession<'q> {
        EngineSession {
            core,
            run: EngineRun {
                query,
                step,
                matches: Vec::new(),
                match_offsets: Vec::new(),
                window: emit_window(),
                flushed: 0,
                drained: 0,
                cursor,
            },
        }
    }

    /// Hands out the matches that crossed the certainty frontier since
    /// the previous drain, in emission order, as an iterator over the
    /// session's own match lists (nothing is copied; the matches count as
    /// handed out even if the iterator is dropped).  Calling this after every
    /// [`Self::feed`] yields the full emitted stream incrementally; a
    /// caller that never drains still gets everything in
    /// [`Self::finish`]'s outcome.
    pub fn drain_emitted(&mut self) -> impl ExactSizeIterator<Item = StreamedMatch> + '_ {
        let from = std::mem::replace(&mut self.run.drained, self.run.flushed);
        let run = &self.run;
        let span = from..run.flushed;
        run.matches[span.clone()]
            .iter()
            .zip(&run.match_offsets[span])
            .map(|(&node, &offset)| StreamedMatch { node, offset })
    }

    /// The emission cursor: count + FNV digest of every match emitted
    /// since document start (a resumed session continues the
    /// checkpoint's cursor rather than restarting it).
    pub fn emission_cursor(&self) -> EmissionCursor {
        self.run.cursor
    }

    /// Matches decided but still held back at the certainty frontier
    /// (only ever nonzero transiently — every completed feed flushes).
    pub fn frontier_pending(&self) -> usize {
        self.run.matches.len() - self.run.flushed
    }
}

#[cold]
#[inline(never)]
pub(crate) fn parse_error(offset: usize) -> SessionError {
    SessionError::Parse(TreeError::Parse {
        position: offset,
        message: "malformed markup or unknown label".to_owned(),
    })
}

// ---------------------------------------------------------------------------
// Recovery mode
// ---------------------------------------------------------------------------

/// How a recovered error manifested.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ErrorClass {
    /// A byte inside markup that no well-formed continuation allows
    /// (unknown label, stray metacharacter, bad tag syntax).
    Malformed,
    /// The input ended inside a tag, comment, or declaration.
    Truncated,
}

impl fmt::Display for ErrorClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            ErrorClass::Malformed => "malformed",
            ErrorClass::Truncated => "truncated",
        })
    }
}

/// One recovered error: where it was, how deep the document was, and
/// what kind of defect it looked like.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Diagnostic {
    /// Absolute byte offset of the offending byte (or end of input).
    pub offset: usize,
    /// Depth (opens minus closes) at the point of the error.
    pub depth: i64,
    /// Error class.
    pub class: ErrorClass,
}

/// The partial results of a lenient (recovering) pass.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RecoveryOutcome {
    /// Document-order ids of selected nodes across all recovered regions.
    pub matches: Vec<usize>,
    /// Total nodes opened across all recovered regions.
    pub nodes: usize,
    /// Recorded diagnostics, in offset order (capped at the configured
    /// [`Limits::max_diagnostics`], default [`DEFAULT_MAX_DIAGNOSTICS`]).
    pub diagnostics: Vec<Diagnostic>,
    /// Diagnostics beyond the cap: counted, not recorded.
    pub suppressed: usize,
}

// ---------------------------------------------------------------------------
// FusedQuery session API
// ---------------------------------------------------------------------------

impl FusedQuery {
    /// Opens a fresh resilient session under `limits`.
    pub fn session(&self, limits: Limits) -> EngineSession<'_> {
        let cursor = EmissionCursor::new();
        EngineSession::new(
            self,
            SessionCore::start(limits),
            EngineStep::fresh(self),
            cursor,
        )
    }

    /// Reopens a session from a checkpoint minted by the *same* query
    /// (verified by fingerprint).
    ///
    /// # Errors
    ///
    /// [`SessionError::Checkpoint`] on a strategy or fingerprint
    /// mismatch, or any implausible or out-of-range frozen state.
    pub fn resume(
        &self,
        checkpoint: &EngineCheckpoint,
        limits: Limits,
    ) -> Result<EngineSession<'_>, SessionError> {
        if checkpoint.strategy() != self.strategy() {
            return Err(corrupt(format!(
                "checkpoint is for a {:?} engine; this query plans {:?}",
                checkpoint.strategy(),
                self.strategy()
            )));
        }
        let h = &checkpoint.header;
        if h.fingerprint != self.fingerprint {
            return Err(corrupt(
                "checkpoint was minted by a different query or alphabet",
            ));
        }
        // Every emitted match is a selected *node*, so the emission
        // cursor can never claim more deliveries than nodes opened — a
        // forged count is rejected here rather than silently creating a
        // gap the replay dedup would never close.
        if checkpoint.cursor.count > h.node {
            return Err(corrupt("emission cursor exceeds nodes opened"));
        }
        let (lex, step) = match (&checkpoint.state, &self.backend) {
            (CheckpointState::Registerless { composite }, FusedBackend::Registerless(b)) => {
                let s = *composite as usize;
                if s >= b.n_states() {
                    return Err(corrupt(format!("composite state {s} out of range")));
                }
                ((s / b.m) as u16, b.step_at(s % b.m))
            }
            (
                CheckpointState::Stackless {
                    lex,
                    current,
                    dead,
                    chain,
                },
                FusedBackend::Stackless(e),
            ) => {
                let core = e.program.core();
                let run = HarRun::thaw(core, *current as usize, *dead, chain, h.depth)?;
                (*lex, HarStep::at(e, h.depth, run))
            }
            (
                CheckpointState::Stack {
                    lex,
                    current,
                    frames,
                },
                FusedBackend::Stack(e),
            ) => {
                let frames = thaw_stack(e.dfa.n_states(), *current, frames, h.offset)?;
                (*lex, StackStep::at(e, *current as usize, frames))
            }
            _ => unreachable!("strategy equality checked above"),
        };
        let core = SessionCore::resume(limits, h, lex, self.tag_lexer())?;
        Ok(EngineSession::new(
            self,
            core,
            step,
            checkpoint.emission_cursor(),
        ))
    }

    /// Runs the whole document through a session in one call.
    ///
    /// # Errors
    ///
    /// As for [`EngineSession::feed`] / [`EngineSession::finish`].
    pub fn run_session(
        &self,
        bytes: &[u8],
        limits: &Limits,
    ) -> Result<SessionOutcome, SessionError> {
        self.run_with_checkpoints(bytes, &[], limits)
            .map(|(o, _)| o)
    }

    /// Runs the document, freezing a checkpoint at each cut offset (out
    /// of range or unordered cuts are ignored).  Returns the final
    /// tallies and the checkpoints, one per surviving cut in order.
    ///
    /// # Errors
    ///
    /// As for [`EngineSession::feed`] / [`EngineSession::finish`].
    pub fn run_with_checkpoints(
        &self,
        bytes: &[u8],
        cuts: &[usize],
        limits: &Limits,
    ) -> Result<(SessionOutcome, Vec<EngineCheckpoint>), SessionError> {
        let s = self.session(limits.clone());
        s.core.run_cuts(s.run, bytes, cuts)
    }

    /// Resumes from `checkpoint` and runs the remainder of the document.
    /// The outcome's matches are those of the tail; node ids are global.
    ///
    /// # Errors
    ///
    /// As for [`Self::resume`] / [`EngineSession::feed`] /
    /// [`EngineSession::finish`].
    pub fn resume_from(
        &self,
        checkpoint: &EngineCheckpoint,
        rest: &[u8],
        limits: &Limits,
    ) -> Result<SessionOutcome, SessionError> {
        let s = self.resume(checkpoint, limits.clone())?;
        s.core.run_cuts(s.run, rest, &[]).map(|(o, _)| o)
    }

    /// Resource-guarded select over a whole in-memory document.  With
    /// unbounded limits this is exactly [`Self::select_bytes`].  The
    /// depth/imbalance budgets are the depth guard, which stops the one
    /// pass within an index window of the breaching event and reports
    /// that event's exact offset, and the byte budget is a
    /// length cut; only a wall-clock budget runs the windowed session
    /// loop for its amortized clock reads.  Breaches and errors are the
    /// ones [`Self::run_session`] reports.
    ///
    /// # Errors
    ///
    /// [`SessionError::Parse`] or [`SessionError::Limit`].
    pub fn select_bytes_limited(
        &self,
        bytes: &[u8],
        limits: &Limits,
    ) -> Result<Vec<usize>, SessionError> {
        if limits.time_budget.is_some() {
            return self.run_session_cold(bytes, limits).map(|o| o.matches);
        }
        Ok(self
            .run_limited(bytes, limits, SelectSink::default())?
            .into_matches())
    }

    /// Resource-guarded count; see [`Self::select_bytes_limited`].
    ///
    /// # Errors
    ///
    /// [`SessionError::Parse`] or [`SessionError::Limit`].
    pub fn count_bytes_limited(
        &self,
        bytes: &[u8],
        limits: &Limits,
    ) -> Result<usize, SessionError> {
        if limits.time_budget.is_some() {
            return self
                .run_session_cold(bytes, limits)
                .map(|o| o.matches.len());
        }
        Ok(self.run_limited(bytes, limits, CountSink::default())?.count)
    }

    /// The guarded one-shot pass: the document up to the byte budget
    /// through the engine's step, with the depth guard when a structural budget
    /// is set.
    fn run_limited<Sk: Sink>(
        &self,
        bytes: &[u8],
        limits: &Limits,
        sink: Sk,
    ) -> Result<Sk, SessionError> {
        let doc = &bytes[..limits
            .max_bytes
            .map_or(bytes.len(), |mb| mb.min(bytes.len()))];
        let force = limits.force_scalar;
        let mut stats = ScanStats::default();
        let (end, sink) = if limits.max_depth.is_none() && limits.max_imbalance.is_none() {
            let (end, sink, _) = self.drive_fresh(doc, force, &mut stats, sink, NoGuard);
            (end, sink)
        } else {
            let guard = DepthGuard::new(self.tag_lexer().k(), 0, limits);
            let (end, sink, _) = self.drive_fresh(doc, force, &mut stats, sink, guard);
            (end, sink)
        };
        if !limits.is_unbounded() {
            limits.obs.counter("engine_guarded_runs_total").incr();
        }
        record_scan_stats(&limits.obs, &stats);
        match end {
            ScanEnd::Breach(b) => Err(SessionError::Limit(b)),
            ScanEnd::Complete { .. } if doc.len() < bytes.len() => {
                Err(limit_error(LimitKind::Bytes, doc.len() as u64, doc.len()))
            }
            ScanEnd::Complete { lex: TEXT } => Ok(sink),
            _ => Err(SessionError::Parse(rescan_error(bytes, &self.alphabet))),
        }
    }

    /// [`Self::run_session`] with a parse failure replaced by the
    /// `Scanner`'s exact diagnostic (the whole document is in memory).
    fn run_session_cold(
        &self,
        bytes: &[u8],
        limits: &Limits,
    ) -> Result<SessionOutcome, SessionError> {
        limits.obs.counter("engine_guard_fallbacks_total").incr();
        self.run_session(bytes, limits).map_err(|e| match e {
            SessionError::Parse(_) => SessionError::Parse(rescan_error(bytes, &self.alphabet)),
            e => e,
        })
    }

    /// Lenient evaluation: instead of aborting at the first malformed
    /// byte, records a [`Diagnostic`] (offset, depth, error class), skips
    /// to the next `<`, and keeps evaluating with the query and depth
    /// state intact.  Strictly increasing skip positions guarantee
    /// termination; at most [`DEFAULT_MAX_DIAGNOSTICS`] diagnostics are
    /// recorded (the rest are counted in
    /// [`RecoveryOutcome::suppressed`]).  Infallible by design — the
    /// partial result is the point.
    pub fn select_bytes_recovering(&self, bytes: &[u8]) -> RecoveryOutcome {
        self.select_bytes_recovering_limited(bytes, &Limits::none())
    }

    /// Like [`Self::select_bytes_recovering`] with the diagnostics cap
    /// taken from `limits` ([`Limits::max_diagnostics`], default
    /// [`DEFAULT_MAX_DIAGNOSTICS`]).  The budgets in `limits` do not
    /// apply here — recovery is infallible by design.
    pub fn select_bytes_recovering_limited(
        &self,
        bytes: &[u8],
        limits: &Limits,
    ) -> RecoveryOutcome {
        let cap = limits.diagnostics_cap();
        limits.obs.counter("session_recovery_runs_total").incr();
        let lexer = self.tag_lexer();
        let certify = lexer.certify(limits.force_scalar);
        let mut stats = ScanStats::default();
        let mut step = EngineStep::fresh(self);
        let mut sink = SelectSink::default();
        // A guard without budgets never stops; it tracks the depth the
        // diagnostics report.
        let mut guard = DepthGuard::new(lexer.k(), 0, &Limits::none());
        let mut out = RecoveryOutcome::default();
        let mut i = 0usize;
        loop {
            let end;
            (end, sink, guard) =
                step.drive(lexer, &bytes[i..], TEXT, certify, &mut stats, sink, guard);
            let (offset, class) = match end {
                ScanEnd::Complete { lex: TEXT } => break,
                ScanEnd::Complete { .. } => (bytes.len(), ErrorClass::Truncated),
                ScanEnd::Error { pos } => (i + pos, ErrorClass::Malformed),
                ScanEnd::Breach(_) => unreachable!("a guard without budgets never stops"),
            };
            if out.diagnostics.len() < cap {
                out.diagnostics.push(Diagnostic {
                    offset,
                    depth: guard.depth(),
                    class,
                });
            } else {
                out.suppressed += 1;
            }
            if class == ErrorClass::Truncated {
                break;
            }
            // Resynchronize at the next candidate tag start; the
            // query/depth state survives the skipped region.
            i = find_lt(bytes, offset + 1);
        }
        out.nodes = sink.node;
        out.matches = sink.into_matches();
        limits
            .obs
            .counter("session_recovery_diagnostics_total")
            .add((out.diagnostics.len() + out.suppressed) as u64);
        out
    }
}
