//! Fused byte→automaton streaming engine: single-pass evaluation of
//! compiled queries directly over raw XML-lite bytes.
//!
//! The event-based pipeline (`st_trees::xml::Scanner` → tag evaluator)
//! pays, per event, for name re-scanning, label lookup, `Tag`
//! materialization, and a second dispatch inside the evaluator.  This
//! module removes all of it:
//!
//! 1. [`TagLexer`] — a byte-level DFA recognizing exactly the tag
//!    skeleton the `Scanner` accepts for a fixed alphabet Γ.  Element
//!    names are compiled into the transition table as a trie, so label
//!    lookup disappears: the state *is* the partially-matched name.
//!    Transitions carry event codes (`open a` / `close a` /
//!    `self-closing a`) instead of producing `Tag` values.
//! 2. One event driver.  [`crate::structural`]'s scan walks the bytes
//!    (striding the SIMD structural index, with `TagLexer` excursions
//!    for whatever it cannot certify, or for every tag when the scalar
//!    path is forced) and fires lexer event codes into a `Drive`: the
//!    per-event *step* of the engine class the planner picked, a *sink*
//!    and a *guard*, monomorphized together.
//!    * Steps: the Lemma 3.5 registerless DFA ([`ByteDfa`]: one
//!      per-event table load per tag, or the factored query table when
//!      the premultiplied offsets do not fit `u16`), the Lemma 3.8
//!      depth-register run (one packed entry per event, a depth counter
//!      and the SCC chain; see `HarRun::step`), and the pushdown
//!      fallback (an explicit state stack).
//!    * Sinks: count, select (document-order node ids), and emit (select
//!      plus the offset of the byte that decided each match).
//!    * Guards: none, the depth alone, or the depth/imbalance budgets:
//!      tracked per event, checked once per index window, and a window
//!      that could hold a breach replayed to the exact breaching event.
//!
//!    One-shot runs, guarded runs, session windows, pass 2 of the
//!    chunked select, and the recovery scanner all run through it.
//! 3. A data-parallel path ([`ByteDfa::count_bytes_chunked`] /
//!    [`ByteDfa::select_bytes_chunked`]): because registerless
//!    evaluation is a pure DFA, a document can be cut at candidate tag
//!    starts (`<`), each chunk summarized *speculatively* from the text
//!    state into a state map `q ↦ δ*(q, chunk)` plus per-start-state
//!    selection counts, and the summaries composed sequentially.  The
//!    speculation (that the lexer is in its text state at each cut) is
//!    query-independent and is validated by the previous chunk's end
//!    state; any mismatch falls back to the sequential pass, so the
//!    parallel path is sound on every input.
//!
//! Error handling is two-tier: the scan only reports *where* the input
//! is malformed; on failure the one-shot entry points re-run the
//! `Scanner` cold to reproduce its exact diagnostic, so fused evaluation
//! reports byte-identical errors to the event pipeline.

use std::collections::{BTreeMap, HashMap};
use std::hint::select_unpredictable;
use std::sync::{Arc, Mutex, OnceLock, Weak};

use st_automata::{Alphabet, Dfa};
use st_trees::error::TreeError;
use st_trees::xml::Scanner;

use crate::error::CoreError;
use crate::har::{
    HarCore, HarMarkupProgram, MAX_CHAIN, ROW_ACCEPT, ROW_BITS, ROW_CLOSE, ROW_NEXT, ROW_OPEN,
    ROW_POP, ROW_PUSH,
};
use crate::session::{
    alphabet_symbols, corrupt, query_fingerprint, LimitExceeded, LimitKind, Limits, SessionError,
};
use crate::structural::{
    force_scalar_env, max_events, structural_scan, EventSink, NameTable, ScanEnd, ScanStats,
    STRUCTURAL_WINDOW,
};

/// Converts a panic payload caught at `JoinHandle::join` into
/// [`CoreError::WorkerFailed`].
fn worker_failed(payload: Box<dyn std::any::Any + Send>) -> CoreError {
    let detail = payload
        .downcast_ref::<&str>()
        .map(|s| (*s).to_owned())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic payload".to_owned());
    CoreError::WorkerFailed { detail }
}

/// Joins every handle (so the scope cannot re-raise an unobserved panic)
/// and either returns all results or the first worker failure.
fn join_all<T>(handles: Vec<std::thread::ScopedJoinHandle<'_, T>>) -> Result<Vec<T>, CoreError> {
    let mut out = Vec::with_capacity(handles.len());
    let mut failed = None;
    for h in handles {
        match h.join() {
            Ok(v) => out.push(v),
            Err(payload) => failed = Some(worker_failed(payload)),
        }
    }
    match failed {
        None => Ok(out),
        Some(e) => Err(e),
    }
}

// ---------------------------------------------------------------------------
// Byte classes (must mirror `st_trees::xml`)
// ---------------------------------------------------------------------------

/// First byte of an element name: `[A-Za-z_:]` (as in the `Scanner`).
#[inline]
pub(crate) fn is_name_start(b: u8) -> bool {
    b.is_ascii_alphabetic() || b == b'_' || b == b':'
}

/// Continuation byte of an element name: `[A-Za-z0-9_.:-]`.
#[inline]
pub(crate) fn is_name_byte(b: u8) -> bool {
    b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b':' | b'-')
}

/// Word-at-a-time scan for the next `<` at or after `from`; returns
/// `bytes.len()` if there is none.  This is the memchr-style skip of the
/// scalar path while the lexer sits in its text state, and the cut /
/// resynchronization finder of the chunked and recovering passes.
#[inline]
pub(crate) fn find_lt(bytes: &[u8], from: usize) -> usize {
    const LO: u64 = 0x0101_0101_0101_0101;
    const HI: u64 = 0x8080_8080_8080_8080;
    const NEEDLE: u64 = 0x3C3C_3C3C_3C3C_3C3C; // b'<' broadcast
    let n = bytes.len();
    let mut i = from;
    // Dense markup puts `<` right behind the previous `>`; answer that
    // zero-gap case with one compare before any word setup.
    if i < n && bytes[i] == b'<' {
        return i;
    }
    while i + 8 <= n {
        let w = u64::from_le_bytes(bytes[i..i + 8].try_into().unwrap());
        let x = w ^ NEEDLE;
        let hit = x.wrapping_sub(LO) & !x & HI;
        if hit != 0 {
            return i + (hit.trailing_zeros() / 8) as usize;
        }
        i += 8;
    }
    while i < n {
        if bytes[i] == b'<' {
            return i;
        }
        i += 1;
    }
    n
}

// ---------------------------------------------------------------------------
// TagLexer
// ---------------------------------------------------------------------------

/// Lexer state ids fixed across all alphabets.  `TEXT` is 0, so the
/// registerless checkpoint's composite state `lexer * m + q` at a text
/// position is the query state itself.
pub(crate) const TEXT: u16 = 0;
const LEX_ERROR: u16 = 1;
pub(crate) const LT: u16 = 2;
const BANG: u16 = 3;
const BANG_DASH: u16 = 4;
const COMMENT: u16 = 5;
const COMMENT_DASH: u16 = 6;
const COMMENT_DASH2: u16 = 7;
const DECL: u16 = 8;
const DECL_DQ: u16 = 9;
const DECL_SQ: u16 = 10;
const CLOSE_START: u16 = 11;
const N_FIXED: usize = 12;

/// Event code on a lexer transition: nothing happened.
pub const EV_NONE: u16 = 0;
/// Event code on a lexer transition: the input is malformed (or uses a
/// label outside Γ).  The error transition enters a sink state, so the
/// first `EV_ERROR` seen is the first offending byte.
pub const EV_ERROR: u16 = u16::MAX;

/// A byte-level DFA over the XML-lite tag skeleton of a fixed alphabet.
///
/// Accepts exactly the documents `st_trees::xml::Scanner` accepts for the
/// same alphabet, and emits the same event stream (verified by tests and
/// the differential property suite).  Event codes on transitions:
/// `0` = none, `1..=2k` = tag index + 1 in the [`st_automata::TagAlphabet`]
/// numbering (open `l` ↦ `l`, close `l` ↦ `k + l`), `2k+1..=3k` =
/// self-closing element for letter `code − 2k − 1` (an open immediately
/// followed by a close), [`EV_ERROR`] = malformed input.
#[derive(Clone, Debug)]
pub struct TagLexer {
    k: usize,
    n_states: usize,
    /// `next[s * 256 + b]`: successor state.
    next: Vec<u16>,
    /// `event[s * 256 + b]`: event code fired by the transition.
    event: Vec<u16>,
    /// Whole-name label lookup for the structural index's certified
    /// classifier (same filtered label set as the tries).
    names: NameTable,
    /// Turns structural-index certification off for every engine driven
    /// by this lexer (seeded from `ST_FORCE_SCALAR`, overridable per
    /// query / per session).
    force_scalar: bool,
}

/// Row-building helper: states default to the error sink until wired.
struct Rows {
    next: Vec<[u16; 256]>,
    event: Vec<[u16; 256]>,
}

impl Rows {
    fn alloc(&mut self) -> u16 {
        let id = self.next.len() as u16;
        self.next.push([LEX_ERROR; 256]);
        self.event.push([EV_ERROR; 256]);
        id
    }

    fn set(&mut self, s: u16, b: u8, to: u16, ev: u16) {
        self.next[s as usize][b as usize] = to;
        self.event[s as usize][b as usize] = ev;
    }

    fn set_default(&mut self, s: u16, to: u16, ev: u16) {
        self.next[s as usize] = [to; 256];
        self.event[s as usize] = [ev; 256];
    }
}

impl TagLexer {
    /// Compiles the tag-skeleton recognizer for `alphabet`.
    ///
    /// Labels that the `Scanner` could never match (empty, or containing
    /// bytes outside the name grammar) are simply absent from the trie;
    /// documents using them error out, exactly as with the `Scanner`.
    pub fn new(alphabet: &Alphabet) -> TagLexer {
        let k = alphabet.len();
        let labels: Vec<(Vec<u8>, usize)> = alphabet
            .entries()
            .filter(|(_, s)| {
                let b = s.as_bytes();
                !b.is_empty() && is_name_start(b[0]) && b.iter().all(|&c| is_name_byte(c))
            })
            .map(|(l, s)| (s.as_bytes().to_vec(), l.index()))
            .collect();

        let ev_open = |l: usize| (l + 1) as u16;
        let ev_close = |l: usize| (k + l + 1) as u16;
        let ev_self = |l: usize| (2 * k + l + 1) as u16;

        let mut rows = Rows {
            next: Vec::new(),
            event: Vec::new(),
        };
        for _ in 0..N_FIXED {
            rows.alloc();
        }

        // Text: run until '<'.
        rows.set_default(TEXT, TEXT, EV_NONE);
        rows.set(TEXT, b'<', LT, EV_NONE);
        // LEX_ERROR stays an all-error sink (the default row).
        // After '<': comment/declaration openers, closing tags, or a name.
        rows.set(LT, b'!', BANG, EV_NONE);
        rows.set(LT, b'?', DECL, EV_NONE);
        rows.set(LT, b'/', CLOSE_START, EV_NONE);
        // "<!" — a comment only if followed by exactly "--"; anything else
        // is a declaration (quote-aware skip to '>').
        rows.set_default(BANG, DECL, EV_NONE);
        rows.set(BANG, b'-', BANG_DASH, EV_NONE);
        rows.set(BANG, b'"', DECL_DQ, EV_NONE);
        rows.set(BANG, b'\'', DECL_SQ, EV_NONE);
        rows.set(BANG, b'>', TEXT, EV_NONE);
        rows.set_default(BANG_DASH, DECL, EV_NONE);
        rows.set(BANG_DASH, b'-', COMMENT, EV_NONE);
        rows.set(BANG_DASH, b'"', DECL_DQ, EV_NONE);
        rows.set(BANG_DASH, b'\'', DECL_SQ, EV_NONE);
        rows.set(BANG_DASH, b'>', TEXT, EV_NONE);
        // Comments end at the first "-->".
        rows.set_default(COMMENT, COMMENT, EV_NONE);
        rows.set(COMMENT, b'-', COMMENT_DASH, EV_NONE);
        rows.set_default(COMMENT_DASH, COMMENT, EV_NONE);
        rows.set(COMMENT_DASH, b'-', COMMENT_DASH2, EV_NONE);
        rows.set_default(COMMENT_DASH2, COMMENT, EV_NONE);
        rows.set(COMMENT_DASH2, b'-', COMMENT_DASH2, EV_NONE);
        rows.set(COMMENT_DASH2, b'>', TEXT, EV_NONE);
        // Declarations / processing instructions: quote-aware skip.
        rows.set_default(DECL, DECL, EV_NONE);
        rows.set(DECL, b'"', DECL_DQ, EV_NONE);
        rows.set(DECL, b'\'', DECL_SQ, EV_NONE);
        rows.set(DECL, b'>', TEXT, EV_NONE);
        rows.set_default(DECL_DQ, DECL_DQ, EV_NONE);
        rows.set(DECL_DQ, b'"', DECL, EV_NONE);
        rows.set_default(DECL_SQ, DECL_SQ, EV_NONE);
        rows.set(DECL_SQ, b'\'', DECL, EV_NONE);
        // CLOSE_START keeps the error default; close-trie roots are wired
        // below.

        // Name tries: one node per nonempty prefix of a label, shared
        // between labels; separate open and close copies because the
        // events they eventually fire differ.
        let mut open_node: BTreeMap<Vec<u8>, u16> = BTreeMap::new();
        let mut close_node: BTreeMap<Vec<u8>, u16> = BTreeMap::new();
        for (bytes, _) in &labels {
            for len in 1..=bytes.len() {
                let p = bytes[..len].to_vec();
                open_node.entry(p.clone()).or_insert_with(|| rows.alloc());
                close_node.entry(p).or_insert_with(|| rows.alloc());
            }
        }
        let complete: BTreeMap<&[u8], usize> =
            labels.iter().map(|(b, l)| (b.as_slice(), *l)).collect();

        // Attribute-skipping states, per letter.  `AttrStates::plain`
        // models "inside an opening tag, last unquoted byte was not '/'";
        // `slash` the same with a trailing '/' (a '>' here self-closes,
        // matching the Scanner's `bytes[i-1] == b'/'` test).
        struct AttrStates {
            plain: u16,
            slash: u16,
            dq: u16,
            sq: u16,
            close_ws: u16,
        }
        let mut attr: BTreeMap<usize, AttrStates> = BTreeMap::new();
        for (_, l) in &labels {
            attr.entry(*l).or_insert_with(|| AttrStates {
                plain: rows.alloc(),
                slash: rows.alloc(),
                dq: rows.alloc(),
                sq: rows.alloc(),
                close_ws: rows.alloc(),
            });
        }
        for (l, st) in &attr {
            rows.set_default(st.plain, st.plain, EV_NONE);
            rows.set(st.plain, b'/', st.slash, EV_NONE);
            rows.set(st.plain, b'"', st.dq, EV_NONE);
            rows.set(st.plain, b'\'', st.sq, EV_NONE);
            rows.set(st.plain, b'>', TEXT, ev_open(*l));
            rows.set_default(st.slash, st.plain, EV_NONE);
            rows.set(st.slash, b'/', st.slash, EV_NONE);
            rows.set(st.slash, b'"', st.dq, EV_NONE);
            rows.set(st.slash, b'\'', st.sq, EV_NONE);
            rows.set(st.slash, b'>', TEXT, ev_self(*l));
            rows.set_default(st.dq, st.dq, EV_NONE);
            rows.set(st.dq, b'"', st.plain, EV_NONE);
            rows.set_default(st.sq, st.sq, EV_NONE);
            rows.set(st.sq, b'\'', st.plain, EV_NONE);
            // Closing tags allow trailing whitespace before '>'.
            for b in 0..=255u8 {
                if b.is_ascii_whitespace() {
                    rows.set(st.close_ws, b, st.close_ws, EV_NONE);
                }
            }
            rows.set(st.close_ws, b'>', TEXT, ev_close(*l));
        }

        // Wire the tries.  A name byte that extends to another prefix of
        // the label set advances within the trie; any other continuation
        // means the (maximal) name will not be a label, which is an
        // unknown-label error in both engines.
        for (prefix, &node) in &open_node {
            for b in 0..=255u8 {
                if is_name_byte(b) {
                    let mut ext = prefix.clone();
                    ext.push(b);
                    if let Some(&child) = open_node.get(&ext) {
                        rows.set(node, b, child, EV_NONE);
                    }
                } else if let Some(&l) = complete.get(prefix.as_slice()) {
                    let st = &attr[&l];
                    match b {
                        b'>' => rows.set(node, b, TEXT, ev_open(l)),
                        b'/' => rows.set(node, b, st.slash, EV_NONE),
                        b'"' => rows.set(node, b, st.dq, EV_NONE),
                        b'\'' => rows.set(node, b, st.sq, EV_NONE),
                        _ => rows.set(node, b, st.plain, EV_NONE),
                    }
                }
            }
            if prefix.len() == 1 {
                rows.set(LT, prefix[0], node, EV_NONE);
            }
        }
        for (prefix, &node) in &close_node {
            for b in 0..=255u8 {
                if is_name_byte(b) {
                    let mut ext = prefix.clone();
                    ext.push(b);
                    if let Some(&child) = close_node.get(&ext) {
                        rows.set(node, b, child, EV_NONE);
                    }
                } else if let Some(&l) = complete.get(prefix.as_slice()) {
                    if b == b'>' {
                        rows.set(node, b, TEXT, ev_close(l));
                    } else if b.is_ascii_whitespace() {
                        rows.set(node, b, attr[&l].close_ws, EV_NONE);
                    }
                }
            }
            if prefix.len() == 1 {
                rows.set(CLOSE_START, prefix[0], node, EV_NONE);
            }
        }

        let n_states = rows.next.len();
        assert!(
            n_states <= u16::MAX as usize,
            "tag lexer needs {n_states} states; alphabet too large"
        );
        let mut next = Vec::with_capacity(n_states * 256);
        let mut event = Vec::with_capacity(n_states * 256);
        for s in 0..n_states {
            next.extend_from_slice(&rows.next[s]);
            event.extend_from_slice(&rows.event[s]);
        }
        TagLexer {
            k,
            n_states,
            next,
            event,
            names: NameTable::new(&labels, k),
            force_scalar: force_scalar_env(),
        }
    }

    /// The structural-index name table (complete-label lookup).
    pub(crate) fn names(&self) -> &NameTable {
        &self.names
    }

    /// Whether the scalar path is forced for engines on this lexer.
    pub(crate) fn force_scalar(&self) -> bool {
        self.force_scalar
    }

    /// Forces (or re-enables) the scalar path on a shared lexer: the
    /// owner gets its own copy on the first change (copy on write), so
    /// the interned lexer every other engine shares never moves.
    pub(crate) fn set_force_scalar(lexer: &mut Arc<TagLexer>, on: bool) {
        if lexer.force_scalar != on {
            Arc::make_mut(lexer).force_scalar = on;
        }
    }

    /// The one lexer of `alphabet`, shared by every engine and query set
    /// over it: interned by the full symbol list and held weakly, so
    /// [`TagLexer::new`] runs once per live alphabet.
    pub(crate) fn shared(alphabet: &Alphabet) -> Arc<TagLexer> {
        type Interner = Mutex<HashMap<Vec<String>, Weak<TagLexer>>>;
        static LEXERS: OnceLock<Interner> = OnceLock::new();
        let key = alphabet_symbols(alphabet);
        let mut lexers = LEXERS
            .get_or_init(Interner::default)
            .lock()
            .unwrap_or_else(|p| p.into_inner());
        if let Some(lexer) = lexers.get(&key).and_then(Weak::upgrade) {
            return lexer;
        }
        lexers.retain(|_, w| w.strong_count() > 0);
        let lexer = Arc::new(TagLexer::new(alphabet));
        lexers.insert(key, Arc::downgrade(&lexer));
        lexer
    }

    /// Whether a scan certifies tags from the structural index: unless
    /// the scalar path is forced here or for the run (`force`).
    pub(crate) fn certify(&self, force: bool) -> bool {
        !(force || self.force_scalar)
    }

    /// Number of lexer states.
    pub fn n_states(&self) -> usize {
        self.n_states
    }

    /// |Γ|.
    pub fn k(&self) -> usize {
        self.k
    }

    /// One byte transition: `(next_state, event_code)`.
    #[inline]
    pub fn step(&self, s: u16, b: u8) -> (u16, u16) {
        let idx = ((s as usize) << 8) | b as usize;
        (self.next[idx], self.event[idx])
    }
}

/// Tallies structural-index window counts into `obs` under the stable
/// counter names surfaced by `stql --stats`.
pub(crate) fn record_scan_stats(obs: &st_obs::ObsHandle, stats: &ScanStats) {
    if obs.is_enabled() {
        obs.counter("engine_simd_windows").add(stats.simd_windows);
        obs.counter("engine_scalar_fallback_windows")
            .add(stats.fallback_windows);
    }
}

/// Reproduces the `Scanner`'s diagnostic for an input the fused engines
/// rejected (cold path: errors are not the throughput case).
pub(crate) fn rescan_error(bytes: &[u8], alphabet: &Alphabet) -> TreeError {
    for event in Scanner::new(bytes, alphabet) {
        if let Err(e) = event {
            return e;
        }
    }
    // The lexer is byte-exact with the Scanner, so this is unreachable on
    // any input; keep a sane diagnostic rather than a panic in release.
    debug_assert!(false, "fused engine rejected input the Scanner accepts");
    TreeError::Parse {
        position: bytes.len(),
        message: "fused engine rejected input".to_owned(),
    }
}

// ---------------------------------------------------------------------------
// ByteDfa: lexer × registerless query DFA
// ---------------------------------------------------------------------------

/// The fully fused byte engine for registerless (Lemma 3.5) queries: a
/// [`TagLexer`] composed with a query DFA over the tag alphabet, stepped
/// once per *tag* through a per-event table.
pub struct ByteDfa {
    /// Query-DFA state count; checkpoints encode the composite state
    /// `lexer * m + q`.
    pub(crate) m: usize,
    k: usize,
    pub(crate) start: u16,
    lexer: Arc<TagLexer>,
    /// Query transitions `qnext[q * 2k + t]`, kept factored for the
    /// chunk-summary (all-states) pass.
    pub(crate) qnext: Vec<u16>,
    pub(crate) accepting: Vec<bool>,
    pub(crate) alphabet: Alphabet,
    /// Row stride of [`Self::evtab`]: `3k + 1` (event codes are
    /// `1..=3k`; slot 0 is padding).
    estride: usize,
    /// Per-*event* table, indexed by `q * estride + ev`: the
    /// premultiplied successor row offset (`q' * estride`) and the
    /// event's [`Verdict`] as flags ([`EV_OPENED`], [`EV_CLOSED`],
    /// [`EV_SELECTED`]; for self-closing events, selection of the opened
    /// node).  One dependent load per tag — the offset
    /// feeds the next tag's index as is, with no unpacking on that
    /// chain.  `None` when the offsets do not fit in `u16` — events then
    /// step through `qnext`.
    evtab: Option<Vec<(u16, u8)>>,
}

/// Speculative summary of one chunk, computed assuming the lexer starts
/// in its text state at the chunk boundary (see module docs).
struct ChunkSummary {
    /// Lexer state after the chunk (validates the next chunk's
    /// speculation: it must be `TEXT`).
    end_lex: u16,
    /// `qmap[q]`: query state after the chunk when entering in `q`.
    qmap: Vec<u16>,
    /// `counts[q]`: nodes selected within the chunk when entering in `q`.
    counts: Vec<usize>,
    /// Nodes opened in the chunk (query-state independent).
    nodes: usize,
    /// The lexer hit an error transition.
    err: bool,
}

impl ByteDfa {
    /// Composes the tag lexer for `alphabet` with `dfa`, a query DFA over
    /// the tag alphabet Γ ∪ Γ̄ (`2·|Γ|` letters, open `l` ↦ `l`, close
    /// `l` ↦ `|Γ| + l`) with pre-selection semantics — exactly what
    /// `registerless::compile_query_markup` produces.
    ///
    /// # Errors
    ///
    /// [`CoreError::MalformedTable`] if the alphabet does not match the
    /// DFA, and [`CoreError::FusedTooLarge`] if the composite state
    /// `lexer * m + q` would not fit the `u16` of the checkpoint wire
    /// format.
    pub fn new(dfa: &Dfa, alphabet: &Alphabet) -> Result<ByteDfa, CoreError> {
        let k = alphabet.len();
        if dfa.n_letters() != 2 * k {
            return Err(CoreError::MalformedTable {
                detail: format!(
                    "query DFA has {} letters; the tag alphabet of Γ with |Γ| = {k} needs {}",
                    dfa.n_letters(),
                    2 * k
                ),
            });
        }
        let lexer = TagLexer::shared(alphabet);
        let m = dfa.n_states();
        let n_composite = lexer.n_states() * m;
        if n_composite > u16::MAX as usize + 1 {
            return Err(CoreError::FusedTooLarge {
                states: n_composite,
            });
        }

        let qnext: Vec<u16> = (0..m)
            .flat_map(|q| (0..2 * k).map(move |t| (q, t)))
            .map(|(q, t)| dfa.step(q, t) as u16)
            .collect();
        let accepting: Vec<bool> = (0..m).map(|q| dfa.is_accepting(q)).collect();
        let estride = 3 * k + 1;
        let evtab = if m * estride <= 1 << 16 {
            let mut t = vec![(0u16, 0u8); m * estride];
            let open = |q: usize| EV_OPENED | if accepting[q] { EV_SELECTED } else { 0 };
            for q in 0..m {
                let row = q * estride;
                for l in 0..k {
                    let qo = qnext[q * 2 * k + l] as usize;
                    let qc = qnext[q * 2 * k + k + l] as usize;
                    let qs = qnext[qo * 2 * k + k + l] as usize;
                    t[row + 1 + l] = ((qo * estride) as u16, open(qo));
                    t[row + 1 + k + l] = ((qc * estride) as u16, EV_CLOSED);
                    t[row + 1 + 2 * k + l] = ((qs * estride) as u16, open(qo) | EV_CLOSED);
                }
            }
            Some(t)
        } else {
            None
        };
        Ok(ByteDfa {
            m,
            k,
            start: dfa.init() as u16,
            lexer,
            qnext,
            accepting,
            alphabet: alphabet.clone(),
            estride,
            evtab,
        })
    }

    /// Applies a lexer event code (`1..=3k`) to a query state:
    /// `(next_q, opened, open_selected)` over the factored tables.
    #[inline]
    pub(crate) fn event_step(&self, q: usize, ev: u16) -> (usize, bool, bool) {
        let k = self.k;
        let k2 = 2 * k;
        let ev = ev as usize;
        if ev <= k2 {
            let t = ev - 1;
            let q2 = self.qnext[q * k2 + t] as usize;
            if t < k {
                (q2, true, self.accepting[q2])
            } else {
                (q2, false, false)
            }
        } else {
            let l = ev - 1 - k2;
            let q1 = self.qnext[q * k2 + l] as usize;
            let q2 = self.qnext[q1 * k2 + k + l] as usize;
            (q2, true, self.accepting[q1])
        }
    }

    /// The per-event step for this engine in query state `q`: the per-event
    /// table when it exists, the factored tables otherwise.
    pub(crate) fn step_at(&self, q: usize) -> EngineStep<'_> {
        match &self.evtab {
            Some(evtab) => EngineStep::Evtab(EvtabStep {
                evtab,
                qoff: q * self.estride,
            }),
            None => EngineStep::Qnext(QnextStep { dfa: self, q }),
        }
    }

    /// |Γ|.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Composite state count (`lexer states × query states`).
    pub fn n_states(&self) -> usize {
        self.lexer.n_states() * self.m
    }

    /// The underlying tag lexer.
    pub fn lexer(&self) -> &TagLexer {
        &self.lexer
    }

    /// Forces (or re-enables) the scalar byte path for this engine; see
    /// [`FusedQuery::set_force_scalar`].
    pub fn set_force_scalar(&mut self, on: bool) {
        TagLexer::set_force_scalar(&mut self.lexer, on);
    }

    /// Counts selected nodes in a single pass over `bytes`.
    ///
    /// # Errors
    ///
    /// The `Scanner`'s diagnostic if the document is malformed.
    pub fn count_bytes(&self, bytes: &[u8]) -> Result<usize, TreeError> {
        let step = self.step_at(self.start as usize);
        let mut stats = ScanStats::default();
        let sink = one_shot(
            step,
            &self.lexer,
            &self.alphabet,
            bytes,
            &mut stats,
            CountSink::default(),
        )?;
        Ok(sink.count)
    }

    /// Runs the structural scan with a sink that only counts events —
    /// the E22 probe that prices certification + striding without any
    /// query-table work.
    #[doc(hidden)]
    #[inline(never)]
    pub fn probe_events_noop(&self, bytes: &[u8]) -> usize {
        let mut n = 0usize;
        let mut stats = ScanStats::default();
        let _ = structural_scan(&self.lexer, bytes, TEXT, true, &mut stats, |_, _| n += 1);
        n
    }

    /// Document-order ids of selected nodes, in a single pass over
    /// `bytes` (pre-selection semantics, identical to
    /// [`crate::planner::CompiledQuery::select`] over the scanned events).
    ///
    /// # Errors
    ///
    /// The `Scanner`'s diagnostic if the document is malformed.
    pub fn select_bytes(&self, bytes: &[u8]) -> Result<Vec<usize>, TreeError> {
        let step = self.step_at(self.start as usize);
        let mut stats = ScanStats::default();
        let sink = one_shot(
            step,
            &self.lexer,
            &self.alphabet,
            bytes,
            &mut stats,
            SelectSink::default(),
        )?;
        Ok(sink.into_matches())
    }

    /// Chunk boundaries for the data-parallel path: cuts at `<` bytes,
    /// roughly equal-sized.  `None` when splitting is not worthwhile.
    fn chunk_plan(&self, bytes: &[u8], n_threads: usize) -> Option<Vec<usize>> {
        const MIN_CHUNK: usize = 4 << 10;
        if n_threads < 2 || bytes.len() < 2 * MIN_CHUNK {
            return None;
        }
        let threads = n_threads.min(bytes.len() / MIN_CHUNK).max(2);
        let size = bytes.len() / threads;
        let mut cuts = vec![0usize];
        for c in 1..threads {
            let cut = find_lt(bytes, c * size);
            if cut > *cuts.last().unwrap() && cut < bytes.len() {
                cuts.push(cut);
            }
        }
        cuts.push(bytes.len());
        if cuts.len() < 3 {
            None
        } else {
            Some(cuts)
        }
    }

    /// Summarizes one chunk speculatively: the lexer runs once from its
    /// text state, while the query component is simulated from *every*
    /// state at once (`qmap`).  Sound to compose because registerless
    /// evaluation is a pure DFA and the lexer is query-independent.
    fn summarize_chunk(&self, chunk: &[u8]) -> ChunkSummary {
        let m = self.m;
        let k = self.k;
        let k2 = 2 * k;
        let mut qmap: Vec<u16> = (0..m as u16).collect();
        let mut counts = vec![0usize; m];
        let mut nodes = 0usize;
        let mut stats = ScanStats::default();
        let certify = self.lexer.certify(false);
        let (end, _) = structural_scan(&self.lexer, chunk, TEXT, certify, &mut stats, |ev, _| {
            let (open_l, close_l) = decode_event(ev, k);
            if let Some(l) = open_l {
                nodes += 1;
                for q in 0..m {
                    let q2 = self.qnext[qmap[q] as usize * k2 + l];
                    qmap[q] = q2;
                    counts[q] += self.accepting[q2 as usize] as usize;
                }
            }
            if let Some(l) = close_l {
                for q in qmap.iter_mut() {
                    *q = self.qnext[*q as usize * k2 + k + l];
                }
            }
        });
        let (end_lex, err) = match end {
            ScanEnd::Complete { lex } => (lex, false),
            ScanEnd::Error { .. } => (TEXT, true),
            ScanEnd::Breach(_) => unreachable!("the summary sink has no budgets"),
        };
        ChunkSummary {
            end_lex,
            qmap,
            counts,
            nodes,
            err,
        }
    }
    /// Runs all chunk summaries on scoped threads.  A worker panic is
    /// caught at the join and surfaces as [`CoreError::WorkerFailed`];
    /// it never unwinds through (or aborts) the caller.
    fn summarize_parallel(
        &self,
        bytes: &[u8],
        cuts: &[usize],
    ) -> Result<Vec<ChunkSummary>, CoreError> {
        std::thread::scope(|scope| {
            let handles: Vec<_> = cuts
                .windows(2)
                .map(|w| {
                    let chunk = &bytes[w[0]..w[1]];
                    scope.spawn(move || self.summarize_chunk(chunk))
                })
                .collect();
            join_all(handles)
        })
    }

    /// Validates a chain of chunk summaries: every chunk must finish with
    /// the lexer back in text state (which certifies the next chunk's
    /// speculative text-state start) and none may have hit an error.
    /// Returns the entry query state per chunk and the node-id offset per
    /// chunk on success.
    fn compose(&self, summaries: &[ChunkSummary]) -> Option<(Vec<u16>, Vec<usize>)> {
        let mut q = self.start; // == query init (TEXT is lexer state 0)
        let mut node_off = 0usize;
        let mut entry_q = Vec::with_capacity(summaries.len());
        let mut offsets = Vec::with_capacity(summaries.len());
        for s in summaries {
            if s.err || s.end_lex != TEXT {
                return None;
            }
            entry_q.push(q);
            offsets.push(node_off);
            node_off += s.nodes;
            q = s.qmap[q as usize];
        }
        Some((entry_q, offsets))
    }

    /// Data-parallel count over up to `n_threads` chunks; falls back to
    /// [`Self::count_bytes`] whenever splitting is unprofitable or the
    /// chunk speculation fails (e.g. a cut landed inside a comment or a
    /// quoted attribute), so the result is always exact.
    ///
    /// # Errors
    ///
    /// [`SessionError::Parse`] with the `Scanner`'s diagnostic if the
    /// document is malformed; [`SessionError::Engine`] (worker failure)
    /// if a chunk worker panicked — a worker panic is an engine bug, so
    /// it is *not* papered over by the sequential fallback.
    pub fn count_bytes_chunked(
        &self,
        bytes: &[u8],
        n_threads: usize,
    ) -> Result<usize, SessionError> {
        let Some(cuts) = self.chunk_plan(bytes, n_threads) else {
            return self.count_bytes(bytes).map_err(SessionError::Parse);
        };
        match self.count_with_cuts(bytes, &cuts)? {
            Some(n) => Ok(n),
            None => self.count_bytes(bytes).map_err(SessionError::Parse),
        }
    }

    /// Speculative count over an explicit cut vector; `Ok(None)` when the
    /// summaries fail to certify (caller falls back to sequential).
    fn count_with_cuts(&self, bytes: &[u8], cuts: &[usize]) -> Result<Option<usize>, CoreError> {
        let summaries = self.summarize_parallel(bytes, cuts)?;
        let Some((entry_q, _)) = self.compose(&summaries) else {
            return Ok(None);
        };
        Ok(Some(
            summaries
                .iter()
                .zip(&entry_q)
                .map(|(s, &q)| s.counts[q as usize])
                .sum(),
        ))
    }

    /// Normalizes caller-supplied interior cut positions into a full cut
    /// vector `[0, c₁, …, len]`: entries that are out of range, duplicate,
    /// or non-monotone are dropped.  `None` when no interior cut survives
    /// (the input would be a single chunk).
    fn normalize_cuts(len: usize, interior: &[usize]) -> Option<Vec<usize>> {
        let mut cuts = vec![0usize];
        for &c in interior {
            if c > *cuts.last().unwrap() && c < len {
                cuts.push(c);
            }
        }
        cuts.push(len);
        if cuts.len() < 3 {
            None
        } else {
            Some(cuts)
        }
    }

    /// Like [`Self::count_bytes_chunked`] but with caller-chosen interior
    /// cut positions (byte offsets), so harnesses can force boundaries
    /// mid-tag, mid-text, or mid-quote.  Speculation that cannot be
    /// certified falls back to the sequential path, so the result is exact
    /// for *any* cut vector.
    ///
    /// # Errors
    ///
    /// As for [`Self::count_bytes_chunked`].
    pub fn count_bytes_chunked_at(
        &self,
        bytes: &[u8],
        interior_cuts: &[usize],
    ) -> Result<usize, SessionError> {
        let Some(cuts) = Self::normalize_cuts(bytes.len(), interior_cuts) else {
            return self.count_bytes(bytes).map_err(SessionError::Parse);
        };
        match self.count_with_cuts(bytes, &cuts)? {
            Some(n) => Ok(n),
            None => self.count_bytes(bytes).map_err(SessionError::Parse),
        }
    }

    /// Whether the speculative chunk summaries for the given interior cuts
    /// certify — every chunk ends with the lexer back in text state and
    /// none hits a lexical error — i.e. whether the data-parallel path
    /// would commit its speculation rather than fall back to sequential.
    /// Diagnostic hook for the chunk-boundary conformance suite.
    ///
    /// # Errors
    ///
    /// [`CoreError::WorkerFailed`] if a summary worker panicked.
    pub fn chunks_certify(&self, bytes: &[u8], interior_cuts: &[usize]) -> Result<bool, CoreError> {
        match Self::normalize_cuts(bytes.len(), interior_cuts) {
            Some(cuts) => {
                let summaries = self.summarize_parallel(bytes, &cuts)?;
                Ok(self.compose(&summaries).is_some())
            }
            None => Ok(false),
        }
    }

    /// Concrete (non-speculative) run over one chunk from a known query
    /// state and node-id offset, collecting selected ids.  Pass 2 of the
    /// parallel select; the chunk was already validated, so errors cannot
    /// occur here.
    fn select_chunk(&self, chunk: &[u8], entry_q: u16, node_off: usize) -> Vec<usize> {
        let sink = SelectSink {
            node: node_off,
            ..SelectSink::default()
        };
        let certify = self.lexer.certify(false);
        let mut stats = ScanStats::default();
        let (_, sink, _) = self.step_at(entry_q as usize).drive(
            &self.lexer,
            chunk,
            TEXT,
            certify,
            &mut stats,
            sink,
            NoGuard,
        );
        sink.into_matches()
    }

    /// Data-parallel select: pass 1 summarizes chunks (in parallel) to
    /// learn each chunk's entry state and node-id offset, pass 2 re-runs
    /// the chunks concretely (in parallel) collecting ids.  Falls back to
    /// [`Self::select_bytes`] whenever speculation fails.
    ///
    /// # Errors
    ///
    /// As for [`Self::count_bytes_chunked`].
    pub fn select_bytes_chunked(
        &self,
        bytes: &[u8],
        n_threads: usize,
    ) -> Result<Vec<usize>, SessionError> {
        let Some(cuts) = self.chunk_plan(bytes, n_threads) else {
            return self.select_bytes(bytes).map_err(SessionError::Parse);
        };
        match self.select_with_cuts(bytes, &cuts)? {
            Some(out) => Ok(out),
            None => self.select_bytes(bytes).map_err(SessionError::Parse),
        }
    }

    /// Like [`Self::select_bytes_chunked`] but with caller-chosen interior
    /// cut positions; see [`Self::count_bytes_chunked_at`].
    ///
    /// # Errors
    ///
    /// As for [`Self::count_bytes_chunked`].
    pub fn select_bytes_chunked_at(
        &self,
        bytes: &[u8],
        interior_cuts: &[usize],
    ) -> Result<Vec<usize>, SessionError> {
        let Some(cuts) = Self::normalize_cuts(bytes.len(), interior_cuts) else {
            return self.select_bytes(bytes).map_err(SessionError::Parse);
        };
        match self.select_with_cuts(bytes, &cuts)? {
            Some(out) => Ok(out),
            None => self.select_bytes(bytes).map_err(SessionError::Parse),
        }
    }

    /// Speculative two-pass select over an explicit cut vector; `Ok(None)`
    /// when the summaries fail to certify.
    fn select_with_cuts(
        &self,
        bytes: &[u8],
        cuts: &[usize],
    ) -> Result<Option<Vec<usize>>, CoreError> {
        let summaries = self.summarize_parallel(bytes, cuts)?;
        let Some((entry_q, offsets)) = self.compose(&summaries) else {
            return Ok(None);
        };
        let per_chunk: Result<Vec<Vec<usize>>, CoreError> = std::thread::scope(|scope| {
            let handles: Vec<_> = cuts
                .windows(2)
                .zip(entry_q.iter().zip(&offsets))
                .map(|(w, (&q, &off))| {
                    let chunk = &bytes[w[0]..w[1]];
                    scope.spawn(move || self.select_chunk(chunk, q, off))
                })
                .collect();
            join_all(handles)
        });
        Ok(Some(per_chunk?.concat()))
    }

    /// Test hook: truncates the factored query-transition table that only
    /// the chunk-summary workers read, so the next chunked call panics
    /// inside those workers and nowhere else — the fault-injection suite
    /// uses it to prove worker panics surface as a clean
    /// [`CoreError::WorkerFailed`] instead of an abort.
    #[doc(hidden)]
    pub fn poison_chunk_workers_for_tests(&mut self) {
        self.qnext.truncate(1);
    }
}

// ---------------------------------------------------------------------------
// The event driver: one step per engine class, a sink, and a guard
// ---------------------------------------------------------------------------

/// Decodes a lexer event code into `(open_letter, close_letter)`; a
/// self-closing element is both.
#[inline]
pub(crate) fn decode_event(ev: u16, k: usize) -> (Option<usize>, Option<usize>) {
    if (ev as usize) <= 2 * k {
        let t = ev as usize - 1;
        if t < k {
            (Some(t), None)
        } else {
            (None, Some(t - k))
        }
    } else {
        let l = ev as usize - 1 - 2 * k;
        (Some(l), Some(l))
    }
}

/// What one event did: whether it opened a node, whether it closed one
/// (a self-closing element does both), and whether the node it opened is
/// selected (pre-selection: decided at the open).
#[derive(Clone, Copy)]
pub(crate) struct Verdict {
    pub(crate) opened: bool,
    pub(crate) closed: bool,
    pub(crate) selected: bool,
}

/// The per-event rule of one engine class.
pub(crate) trait Step {
    /// Applies a lexer event code (`1..=3k`).
    fn step(&mut self, ev: u16) -> Verdict;

    /// The depth after the last event, for a step that keeps its own
    /// counter (Lemma 3.8's); the guard then reads it instead of keeping
    /// a second one.
    #[inline(always)]
    fn depth(&self) -> Option<i64> {
        None
    }

    /// Makes room for `events` more events (see [`EventSink::reserve`]).
    #[inline(always)]
    fn reserve(&mut self, _events: usize) {}
}

/// [`ByteDfa::evtab`] flags: the event opened a node, closed one, and
/// the node it opened is selected.
const EV_OPENED: u8 = 1;
const EV_CLOSED: u8 = 2;
const EV_SELECTED: u8 = 4;

/// Lemma 3.5 over the per-event table: one dependent load per tag, which
/// also carries the verdicts.
#[derive(Clone, Copy)]
pub(crate) struct EvtabStep<'a> {
    evtab: &'a [(u16, u8)],
    /// Current query state, premultiplied by the table's row stride.
    qoff: usize,
}

impl Step for EvtabStep<'_> {
    #[inline(always)]
    fn step(&mut self, ev: u16) -> Verdict {
        let (next, flags) = self.evtab[self.qoff + ev as usize];
        self.qoff = next as usize;
        Verdict {
            opened: flags & EV_OPENED != 0,
            closed: flags & EV_CLOSED != 0,
            selected: flags & EV_SELECTED != 0,
        }
    }
}

/// Lemma 3.5 over the factored query table, for engines whose event
/// table offsets do not fit in `u16`.
#[derive(Clone, Copy)]
pub(crate) struct QnextStep<'a> {
    dfa: &'a ByteDfa,
    q: usize,
}

impl Step for QnextStep<'_> {
    #[inline(always)]
    fn step(&mut self, ev: u16) -> Verdict {
        let (q2, opened, selected) = self.dfa.event_step(self.q, ev);
        self.q = q2;
        Verdict {
            opened,
            closed: ev as usize > self.dfa.k,
            selected,
        }
    }
}

/// Frame slots of a [`HarRun`]: slot 0 (the sentinel) and the frames
/// `1..=MAX_CHAIN`; a power of two, so a masked index needs no bounds
/// check.
const FRAME_SLOTS: usize = (MAX_CHAIN + 1).next_power_of_two();

/// The Lemma 3.8 run state: the current row of the packed step (a DFA
/// state or its dead copy) and the SCC chain with its depth registers.
#[derive(Clone, Copy)]
pub(crate) struct HarRun {
    /// The current state's row offset in [`HarCore::rows`] (the low
    /// `ROW_BITS`), and above it the frame count `len`: the frames live
    /// at `1..=len`, over slot 0, whose register is `i64::MIN` so that it
    /// never pops.  One word for both is one load and one store per
    /// event where the step's state lives in memory (the query-set lanes,
    /// the select scan): with a separate count field, select on a
    /// 100 000-deep chain ran slower than the old branching step.
    at: u32,
    frames: HarFrames,
}

/// A [`HarRun`]'s frames: the arrays the step indexes by the frame count.
/// They live apart from the scalar `at` word, so a scan can hold the
/// word in a register and reach the frames through a pointer.
#[derive(Clone, Copy)]
pub(crate) struct HarFrames {
    /// Each frame's `at` word before its push: a pop restores the state
    /// and the count in one move.
    chain: [u32; FRAME_SLOTS],
    regs: [i64; FRAME_SLOTS],
}

/// Where [`HarRun::at`] keeps the frame count.
const LEN_SHIFT: u32 = ROW_BITS;

impl HarRun {
    /// The run at document start.
    pub(crate) fn new(core: &HarCore) -> HarRun {
        let mut regs = [0; FRAME_SLOTS];
        regs[0] = i64::MIN;
        HarRun {
            at: (core.dfa().init() * core.stride()) as u32,
            frames: HarFrames {
                chain: [0; FRAME_SLOTS],
                regs,
            },
        }
    }

    /// The frozen form a checkpoint carries: current state, dead flag,
    /// and the `(state, register)` pairs of the chain.
    pub(crate) fn freeze(&self, core: &HarCore) -> (usize, bool, Vec<(u16, i64)>) {
        let (m, stride) = (core.dfa().n_states(), core.stride());
        let state = |at: u32| (at & ROW_NEXT) as usize / stride;
        let chain = (1..=(self.at >> LEN_SHIFT) as usize)
            .map(|i| (state(self.frames.chain[i]) as u16, self.frames.regs[i]))
            .collect();
        let current = state(self.at);
        (current % m, current >= m, chain)
    }

    /// Rebuilds a run from its frozen form at the checkpoint's `depth` —
    /// the one thaw of every checkpointed HAR run, single-query or
    /// query-set lane.  Every state must be in range, and the chain
    /// followed by `current` must be a path of one-letter steps down the
    /// SCC DAG, as a real run pushes it: anything else could index past
    /// the DFA or, on a later open, push past [`MAX_CHAIN`].  A live run's
    /// registers must rise strictly and its top must not exceed `depth`,
    /// as every open and close keeps them (a self-close relies on it); a
    /// dead run's chain is frozen while the depth moves on.
    ///
    /// # Errors
    ///
    /// [`SessionError::Checkpoint`] naming the first violated bound.
    pub(crate) fn thaw(
        core: &HarCore,
        current: usize,
        dead: bool,
        chain: &[(u16, i64)],
        depth: i64,
    ) -> Result<HarRun, SessionError> {
        let dfa = core.dfa();
        let comp = core.component();
        if current >= dfa.n_states()
            || chain.len() > MAX_CHAIN
            || chain.iter().any(|&(s, _)| s as usize >= dfa.n_states())
        {
            return Err(corrupt("HAR run state out of range"));
        }
        let path = chain.iter().map(|&(s, _)| s as usize).chain([current]);
        for (from, to) in path.clone().zip(path.skip(1)) {
            if comp[from] == comp[to]
                || !(0..dfa.n_letters()).any(|l| comp[dfa.step(from, l)] == comp[to])
            {
                return Err(corrupt("HAR chain is not a path of the SCC DAG"));
            }
        }
        let regs = chain.iter().map(|&(_, r)| r);
        if !dead
            && (regs.clone().zip(regs.skip(1)).any(|(a, b)| a >= b)
                || chain.last().is_some_and(|&(_, top)| top > depth))
        {
            return Err(corrupt(
                "HAR registers do not rise strictly up to the checkpoint depth",
            ));
        }
        let at = |s: usize, len: usize| (s * core.stride()) as u32 | (len as u32) << LEN_SHIFT;
        let mut run = HarRun::new(core);
        run.at = at(current + usize::from(dead) * dfa.n_states(), chain.len());
        for (i, &(s, r)) in chain.iter().enumerate() {
            run.frames.chain[i + 1] = at(s as usize, i);
            run.frames.regs[i + 1] = r;
        }
        Ok(run)
    }

    /// Applies a lexer event code (`1..=3k`) at `depth`, which it moves
    /// (see [`HarFrames::step`]).  Returns `(opened, selected)`.
    #[inline(always)]
    pub(crate) fn step(&mut self, rows: &[u32], ev: u16, depth: &mut i64) -> (bool, bool) {
        self.frames.step(&mut self.at, rows, ev, depth)
    }
}

impl HarFrames {
    /// Applies a lexer event code (`1..=3k`) to the run whose state word
    /// is `at`, at `depth`, which it moves: one packed entry and a
    /// register compare with a conditional move — no branch on the event
    /// kind or on death.  The one branch is the push, which only an open
    /// that leaves an SCC takes.  Returns `(opened, selected)`.
    #[inline(always)]
    fn step(&mut self, at_word: &mut u32, rows: &[u32], ev: u16, depth: &mut i64) -> (bool, bool) {
        const SLOT: usize = FRAME_SLOTS - 1;
        let at = *at_word;
        // Only a plain close pops, and it pops the top frame if that
        // register is above `depth - 1`: the test waits on no load of
        // the entry.
        let top = (at >> LEN_SHIFT) as usize & SLOT;
        let above = self.regs[top] >= *depth;
        let e = rows[(at & ROW_NEXT) as usize + ev as usize];
        let (push, pop) = (e & ROW_PUSH != 0, (e & ROW_POP != 0) & above);
        let up = *depth + i64::from(e & ROW_OPEN != 0);
        *depth = up - i64::from(e & ROW_CLOSE != 0);
        let kept = (e & ROW_NEXT) | (at & !ROW_NEXT);
        *at_word = select_unpredictable(pop, self.chain[top], kept);
        if push {
            let slot = (top + 1) & SLOT;
            (self.chain[slot], self.regs[slot]) = (at, up);
            *at_word += 1 << LEN_SHIFT;
        }
        (e & ROW_OPEN != 0, e & ROW_ACCEPT != 0)
    }
}

/// Lemma 3.8: the depth-register run, one packed entry and one register
/// compare per event.
#[derive(Clone, Copy)]
pub(crate) struct HarStep<'a> {
    pub(crate) core: &'a HarCore,
    rows: &'a [u32],
    depth: i64,
    pub(crate) run: HarRun,
}

impl<'a> HarStep<'a> {
    /// The step at `depth` with run state `run`.
    pub(crate) fn at(engine: &'a FusedHar, depth: i64, run: HarRun) -> EngineStep<'a> {
        let core = engine.program.core();
        EngineStep::Har(HarStep {
            core,
            rows: core.rows(),
            depth,
            run,
        })
    }
}

/// A [`HarStep`] as a scan drives it: the state word and the depth by
/// value, the frames behind a pointer, so the scan keeps the scalars in
/// registers.
struct HarDrive<'a> {
    rows: &'a [u32],
    at: u32,
    depth: i64,
    frames: &'a mut HarFrames,
}

impl Step for HarDrive<'_> {
    #[inline(always)]
    fn step(&mut self, ev: u16) -> Verdict {
        let before = self.depth;
        let (opened, selected) = self
            .frames
            .step(&mut self.at, self.rows, ev, &mut self.depth);
        Verdict {
            opened,
            closed: self.depth < before + i64::from(opened),
            selected,
        }
    }

    #[inline(always)]
    fn depth(&self) -> Option<i64> {
        Some(self.depth)
    }
}

/// The pushdown fallback: push the DFA state at opens, pop at closes.
pub(crate) struct StackStep<'a> {
    /// [`FusedStack::opens`].
    opens: &'a [(u32, bool)],
    k: usize,
    pub(crate) current: usize,
    /// The saved DFA states, bottom of stack first: `[..top]` during a
    /// scan, whose [`Step::reserve`] keeps `[top..]` as zeroed room for
    /// the pushes of one index window; `[..]` between scans.
    pub(crate) stack: Vec<u16>,
    top: usize,
}

impl<'a> StackStep<'a> {
    /// The step in state `current` over the saved `stack`.
    pub(crate) fn at(engine: &'a FusedStack, current: usize, stack: Vec<u16>) -> EngineStep<'a> {
        EngineStep::Stack(StackStep {
            opens: &engine.opens,
            k: engine.lexer.k(),
            current,
            top: stack.len(),
            stack,
        })
    }
}

impl Step for StackStep<'_> {
    #[inline(always)]
    fn step(&mut self, ev: u16) -> Verdict {
        let (open_l, close_l) = decode_event(ev, self.k);
        let mut selected = false;
        if let Some(l) = open_l {
            self.stack[self.top] = self.current as u16;
            self.top += 1;
            let (next, accepts) = self.opens[self.current * self.k + l];
            self.current = next as usize;
            selected = accepts;
        }
        // Underflowing pop keeps the state, like the baseline evaluator.
        if close_l.is_some() && self.top > 0 {
            self.top -= 1;
            self.current = self.stack[self.top] as usize;
        }
        Verdict {
            opened: open_l.is_some(),
            closed: close_l.is_some(),
            selected,
        }
    }

    #[inline(always)]
    fn reserve(&mut self, events: usize) {
        make_room(&mut self.stack, self.top, events);
    }
}

/// Validates a frozen pushdown run over a DFA of `n_states` states and
/// returns its frames — the one thaw of every checkpointed stack, the
/// single-query fallback's and the query-set lanes' alike.  The current
/// state and every frame must be in range, and there can be no more
/// frames than bytes consumed (each one cost an open tag).
///
/// # Errors
///
/// [`SessionError::Checkpoint`] naming the first violated bound.
pub(crate) fn thaw_stack<F: Copy + Into<u64>>(
    n_states: usize,
    current: F,
    frames: &[F],
    offset: u64,
) -> Result<Vec<F>, SessionError> {
    if frames.len() as u64 > offset {
        return Err(corrupt("stack frames exceed bytes consumed"));
    }
    if [current]
        .iter()
        .chain(frames)
        .any(|&s| s.into() >= n_states as u64)
    {
        return Err(corrupt("stack state out of range"));
    }
    Ok(frames.to_vec())
}

/// What a run collects from the step's verdicts.
pub(crate) trait Sink {
    /// One event: whether it opened a node, whether that node is
    /// selected, and the offset of the byte that fired it.
    fn hit(&mut self, opened: bool, selected: bool, pos: usize);

    /// Makes room for `events` more events (see [`EventSink::reserve`]).
    #[inline(always)]
    fn reserve(&mut self, _events: usize) {}
}

/// Counts selected nodes.
#[derive(Default)]
pub(crate) struct CountSink {
    pub(crate) count: usize,
}

impl Sink for CountSink {
    #[inline(always)]
    fn hit(&mut self, _opened: bool, selected: bool, _pos: usize) {
        self.count += selected as usize;
    }
}

/// Grows `buf` (zero-filled) so that `[len..]` has room for `events`
/// writes — the per-window half of a pre-sized buffer, whose per-event
/// half is a bounds-checked store that never grows.
#[inline(always)]
fn make_room<T: Copy + Default>(buf: &mut Vec<T>, len: usize, events: usize) {
    if buf.len() < len + events {
        *buf = grown(std::mem::take(buf), len + events);
    }
}

/// `buf` zero-filled to `n` entries.  The vector moves in and out by
/// value, so no pointer into the scan's `Drive` reaches an out-of-line
/// call, and the scan keeps the rest of the `Drive` in registers.
#[cold]
#[inline(never)]
fn grown<T: Copy + Default>(mut buf: Vec<T>, n: usize) -> Vec<T> {
    buf.resize(n, T::default());
    buf
}

/// Collects the document-order ids of selected nodes.
#[derive(Default)]
pub(crate) struct SelectSink {
    /// Id the next opened node gets.
    pub(crate) node: usize,
    /// The matches `[..len]`, then the window's zeroed room.
    buf: Vec<usize>,
    len: usize,
}

impl SelectSink {
    /// The matches, holding no spare room: a caller that keeps many
    /// results (a reference table, a cache) keeps neither the last
    /// window's reserve nor the growth slack.
    pub(crate) fn into_matches(mut self) -> Vec<usize> {
        self.buf.truncate(self.len);
        self.buf.shrink_to_fit();
        self.buf
    }
}

impl Sink for SelectSink {
    #[inline(always)]
    fn hit(&mut self, opened: bool, selected: bool, _pos: usize) {
        if selected {
            self.buf[self.len] = self.node;
            self.len += 1;
        }
        self.node += opened as usize;
    }

    #[inline(always)]
    fn reserve(&mut self, events: usize) {
        make_room(&mut self.buf, self.len, events);
    }
}

/// Candidates one index window can fire: [`max_events`] of
/// [`STRUCTURAL_WINDOW`], the most any [`EventSink::reserve`] asks for.
const WINDOW_EVENTS: usize = max_events(STRUCTURAL_WINDOW);

/// An [`EmitSink`]'s per-window scratch: one index window's candidates.
pub(crate) type EmitWindow = [u64; WINDOW_EVENTS];

/// A zeroed [`EmitWindow`], which a session allocates once and lends to
/// every scan.
pub(crate) fn emit_window() -> Box<EmitWindow> {
    Box::new([0; WINDOW_EVENTS])
}

/// [`SelectSink`] plus the absolute offset of the open event that decided
/// each match — what the session's emission frontier releases.
///
/// Branchless: every event writes its candidate — the node's id and the
/// offset of the event's byte, relative to the scan's first node and
/// byte, packed in one word — at index `len` of a fixed buffer that
/// holds one index window's events, and advances `len` by the verdict,
/// so a hard-to-predict selection costs no mispredicted branch and one
/// bounds-checked store; `[len..]` is scratch.  Once per window
/// ([`Sink::reserve`]) the window's matches move, unpacked, to the match
/// and offset lists.  This pays on the dense selections streamed serving
/// runs (one event in six to eighteen selected) and costs a little on
/// queries that almost never select, where the branch it replaces is
/// always predicted; the one-shot [`SelectSink`] keeps the branch.  A
/// scan through it covers fewer than 2³² bytes (session windows are
/// 64 KiB).  The buffer and the lists are lent to the sink, which owns
/// nothing: a panic mid-scan leaks none of them (see
/// [`structural_scan`]).
pub(crate) struct EmitSink<'a> {
    /// Nodes opened since the scan's first byte.
    opened: u64,
    /// Id of the scan's first node and absolute offset of its first
    /// byte.
    node: usize,
    base: usize,
    window: &'a mut EmitWindow,
    len: usize,
    /// The match ids and their deciding offsets (equal lengths).
    lists: &'a mut (Vec<usize>, Vec<usize>),
}

impl<'a> EmitSink<'a> {
    /// A sink appending to `lists` (match ids and their offsets, equal
    /// lengths) through the scratch `window`, for a scan whose first
    /// node gets id `node` and whose first byte is at absolute offset
    /// `base`.
    pub(crate) fn new(
        node: usize,
        base: usize,
        window: &'a mut EmitWindow,
        lists: &'a mut (Vec<usize>, Vec<usize>),
    ) -> EmitSink<'a> {
        debug_assert_eq!(lists.0.len(), lists.1.len());
        EmitSink {
            opened: 0,
            node,
            base,
            window,
            len: 0,
            lists,
        }
    }

    /// Moves the index window's matches to the lists.  The out-of-line
    /// append gets the lists' and the window's addresses, never one into
    /// the sink.
    #[inline(always)]
    fn flush(&mut self) {
        let at = (self.node, self.base);
        append(self.lists, &self.window[..self.len], at);
        self.len = 0;
    }

    /// Moves the last window's matches to the lists; returns the id the
    /// next opened node gets.
    pub(crate) fn finish(mut self) -> usize {
        self.flush();
        self.node + self.opened as usize
    }
}

/// Appends the packed candidates of `window` to the match and offset
/// lists, unpacked against the scan's first node id and byte offset
/// `(node, base)`.
#[inline(never)]
fn append(
    (matches, offsets): &mut (Vec<usize>, Vec<usize>),
    window: &[u64],
    (node, base): (usize, usize),
) {
    matches.extend(window.iter().map(|&c| node + (c >> 32) as usize));
    offsets.extend(window.iter().map(|&c| base + (c as u32) as usize));
}

impl Sink for EmitSink<'_> {
    #[inline(always)]
    fn hit(&mut self, opened: bool, selected: bool, pos: usize) {
        debug_assert!(u32::try_from(pos).is_ok());
        self.window[self.len] = self.opened << 32 | pos as u64;
        self.len += selected as usize;
        self.opened += opened as u64;
    }

    #[inline(always)]
    fn reserve(&mut self, events: usize) {
        debug_assert!(events <= WINDOW_EVENTS);
        self.flush();
    }
}

/// The structural budgets' watch over a scan.  Per event it only tracks;
/// the budgets are checked once per index window, when the scan settles
/// it ([`EventSink::settle`]).
pub(crate) trait Guard {
    /// Tracks an event with the step's verdict `v`; `depth` is the
    /// step's own depth after it, if the step keeps one ([`Step::depth`]).
    fn track(&mut self, v: Verdict, depth: Option<i64>);

    /// Checks the events tracked since the previous settle point, which
    /// came from `seg` entered in lexer state `lex` at offset `base` of
    /// the scanned bytes; `Err` is the first breach among them.
    fn settle(
        &mut self,
        lexer: &TagLexer,
        seg: &[u8],
        lex: u16,
        base: usize,
    ) -> Result<(), LimitExceeded>;
}

/// No budgets and no depth: the one-shot runs.
#[derive(Clone, Copy)]
pub(crate) struct NoGuard;

impl Guard for NoGuard {
    #[inline(always)]
    fn track(&mut self, _v: Verdict, _depth: Option<i64>) {}

    #[inline(always)]
    fn settle(&mut self, _: &TagLexer, _: &[u8], _: u16, _: usize) -> Result<(), LimitExceeded> {
        Ok(())
    }
}

/// The depth (opens minus closes) and the depth and imbalance budgets
/// (unset ones never breach).  Per event the guard moves the depth and
/// folds it into a running span with one branch-free unsigned max: how
/// far above the imbalance floor the depth has been, which wraps past
/// the whole budget range when the depth dips below the floor.  The
/// depth is kept relative to that floor, so the fold needs no
/// subtraction.  Once per index window it compares the span with the
/// range.  Only a window whose span
/// reaches it is replayed through the exact per-event rule
/// ([`Self::admit`]), which finds the breaching event, so the reported
/// kind, limit and offset are those of a per-event check.  The span
/// check is conservative — a window that touches the depth budget
/// without crossing it (a self-closing element there peaks one deeper)
/// replays and finds nothing.
///
/// The step runs ahead of the check: a pushdown step may push up to one
/// index window's events — `max_events(STRUCTURAL_WINDOW)`, 1367 — past
/// the depth budget before the breach is reported, and a failed window's
/// matches are never emitted.
#[derive(Clone, Copy)]
pub(crate) struct DepthGuard {
    k: u16,
    /// Opens minus closes so far, minus `min_depth` (wrapping).
    rel: i64,
    /// Depth at the last settle point: where a replay starts.
    settled: i64,
    /// Largest `rel` (unsigned) any event since the last settle point
    /// left.
    span: u64,
    max_depth: i64,
    min_depth: i64,
}

impl DepthGuard {
    /// The budgets of `limits` (unbounded where unset), from `depth`.
    pub(crate) fn new(k: usize, depth: i64, limits: &Limits) -> DepthGuard {
        let min_depth = limits.max_imbalance.map_or(i64::MIN, |d| -(d as i64));
        DepthGuard {
            k: k as u16,
            rel: depth.wrapping_sub(min_depth),
            settled: depth,
            span: 0,
            max_depth: limits.max_depth.map_or(i64::MAX, |d| d as i64),
            min_depth,
        }
    }

    /// Opens minus closes so far.
    pub(crate) fn depth(&self) -> i64 {
        self.rel.wrapping_add(self.min_depth)
    }

    /// The exact per-event rule: from `depth`, an event that opens
    /// and/or closes either breaches a budget (the depth budget first,
    /// at the open) or leaves the new depth.
    #[inline]
    pub(crate) fn admit(
        &self,
        depth: i64,
        opened: bool,
        closed: bool,
    ) -> Result<i64, LimitExceeded> {
        let peak = depth + i64::from(opened);
        let depth = peak - i64::from(closed);
        let (kind, limit) = if peak > self.max_depth {
            (LimitKind::Depth, self.max_depth as u64)
        } else if depth < self.min_depth {
            (LimitKind::Imbalance, self.min_depth.unsigned_abs())
        } else {
            return Ok(depth);
        };
        Err(LimitExceeded {
            kind,
            limit,
            offset: 0,
        })
    }

    /// Replays `seg` (entered in lexer state `lex`) from the settled
    /// depth through [`Self::admit`]: the first breach, with its offset
    /// `base` plus the offset of the byte that fired it.  The guard
    /// comes by value, as [`grown`]'s vector does.
    #[cold]
    #[inline(never)]
    fn replay(
        self,
        lexer: &TagLexer,
        seg: &[u8],
        mut lex: u16,
        base: usize,
    ) -> Option<LimitExceeded> {
        let mut depth = self.settled;
        for (i, &b) in seg.iter().enumerate() {
            let (l2, ev) = lexer.step(lex, b);
            lex = l2;
            if ev == EV_NONE || ev == EV_ERROR {
                continue;
            }
            let (open_l, close_l) = decode_event(ev, self.k as usize);
            match self.admit(depth, open_l.is_some(), close_l.is_some()) {
                Ok(d) => depth = d,
                Err(e) => {
                    return Some(LimitExceeded {
                        offset: base + i,
                        ..e
                    })
                }
            }
        }
        None
    }
}

impl Guard for DepthGuard {
    #[inline(always)]
    fn track(&mut self, v: Verdict, depth: Option<i64>) {
        self.rel = match depth {
            Some(d) => d.wrapping_sub(self.min_depth),
            None => self
                .rel
                .wrapping_add(i64::from(v.opened) - i64::from(v.closed)),
        };
        self.span = self.span.max(self.rel as u64);
    }

    #[inline(always)]
    fn settle(
        &mut self,
        lexer: &TagLexer,
        seg: &[u8],
        lex: u16,
        base: usize,
    ) -> Result<(), LimitExceeded> {
        // Every breach leaves a depth at or past the budget range: an
        // open past the depth budget lands there, a self-close there
        // leaves the depth at the budget, a close from above it leaves
        // one at it, and a close past the imbalance floor wraps.
        if self.span >= self.max_depth.wrapping_sub(self.min_depth) as u64 {
            if let Some(b) = self.replay(lexer, seg, lex, base) {
                return Err(b);
            }
        }
        (self.settled, self.span) = (self.depth(), 0);
        Ok(())
    }
}

/// A step, a sink and a guard composed into the event sink the
/// structural scan drives — a struct monomorphized per combination,
/// which the scan owns by value: the whole per-event rule inlines into
/// the certified sweep and its scalar fields stay in registers (a
/// closure sink measures at twice the per-tag cost).
pub(crate) struct Drive<St, Sk, G> {
    pub(crate) step: St,
    pub(crate) sink: Sk,
    pub(crate) guard: G,
}

impl<St: Step, Sk: Sink, G: Guard> EventSink for Drive<St, Sk, G> {
    #[inline(always)]
    fn event(&mut self, ev: u16, pos: usize) {
        let v = self.step.step(ev);
        self.sink.hit(v.opened, v.selected, pos);
        self.guard.track(v, self.step.depth());
    }

    #[inline(always)]
    fn reserve(&mut self, events: usize) {
        self.step.reserve(events);
        self.sink.reserve(events);
    }

    #[inline(always)]
    fn settle(
        &mut self,
        lexer: &TagLexer,
        seg: &[u8],
        lex: u16,
        base: usize,
    ) -> Result<(), LimitExceeded> {
        self.guard.settle(lexer, seg, lex, base)
    }
}

/// The live state of a fused engine, whichever class the planner picked:
/// what a run carries between scans (session windows, recovery
/// restarts).  The HAR run's frames live inline (a box would put a
/// pointer chase in the per-event scan loop), so that variant is the
/// large one.
#[allow(clippy::large_enum_variant)]
pub(crate) enum EngineStep<'a> {
    Evtab(EvtabStep<'a>),
    Qnext(QnextStep<'a>),
    Har(HarStep<'a>),
    Stack(StackStep<'a>),
}

impl<'a> EngineStep<'a> {
    /// The engine at document start.
    pub(crate) fn fresh(query: &'a FusedQuery) -> EngineStep<'a> {
        match &query.backend {
            FusedBackend::Registerless(b) => b.step_at(b.start as usize),
            FusedBackend::Stackless(e) => HarStep::at(e, 0, HarRun::new(e.program.core())),
            FusedBackend::Stack(e) => StackStep::at(e, e.dfa.init(), Vec::new()),
        }
    }

    /// The query state of registerless engine `b` (0 for the other
    /// classes).
    pub(crate) fn query_state(&self, b: &ByteDfa) -> usize {
        match self {
            EngineStep::Evtab(st) => st.qoff / b.estride,
            EngineStep::Qnext(st) => st.q,
            _ => 0,
        }
    }

    /// Scans `bytes` from lexer state `lex` through this engine's step,
    /// `sink` and `guard`, keeping the advanced step state; returns how
    /// the scan ended plus the sink and guard.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn drive<Sk: Sink, G: Guard>(
        &mut self,
        lexer: &TagLexer,
        bytes: &[u8],
        lex: u16,
        certify: bool,
        stats: &mut ScanStats,
        sink: Sk,
        guard: G,
    ) -> (ScanEnd, Sk, G) {
        macro_rules! run {
            ($st:expr, $step:expr) => {{
                let d = Drive {
                    step: $step,
                    sink,
                    guard,
                };
                let (end, d) = structural_scan(lexer, bytes, lex, certify, stats, d);
                *$st = d.step;
                (end, d.sink, d.guard)
            }};
        }
        match self {
            EngineStep::Evtab(st) => run!(st, *st),
            EngineStep::Qnext(st) => run!(st, *st),
            EngineStep::Har(st) => {
                let step = HarDrive {
                    rows: st.rows,
                    at: st.run.at,
                    depth: st.depth,
                    frames: &mut st.run.frames,
                };
                let (end, d) = structural_scan(
                    lexer,
                    bytes,
                    lex,
                    certify,
                    stats,
                    Drive { step, sink, guard },
                );
                (st.run.at, st.depth) = (d.step.at, d.step.depth);
                (end, d.sink, d.guard)
            }
            EngineStep::Stack(st) => {
                let out = run!(
                    st,
                    StackStep {
                        stack: std::mem::take(&mut st.stack),
                        ..*st
                    }
                );
                st.stack.truncate(st.top);
                out
            }
        }
    }
}

/// One unguarded pass over a whole document from `step` at document
/// start: the sink, or the `Scanner`'s diagnostic if the document is
/// malformed.
fn one_shot<Sk: Sink>(
    mut step: EngineStep<'_>,
    lexer: &TagLexer,
    alphabet: &Alphabet,
    bytes: &[u8],
    stats: &mut ScanStats,
    sink: Sk,
) -> Result<Sk, TreeError> {
    let certify = lexer.certify(false);
    match step.drive(lexer, bytes, TEXT, certify, stats, sink, NoGuard) {
        (ScanEnd::Complete { lex: TEXT }, sink, _) => Ok(sink),
        _ => Err(rescan_error(bytes, alphabet)),
    }
}

// ---------------------------------------------------------------------------
// Fused DRA (HAR) and stack engines
// ---------------------------------------------------------------------------

/// Lemma 3.8 evaluation driven directly by the byte lexer ([`HarStep`]):
/// the depth counter, register file, and SCC chain are the whole state,
/// and the only per-event work beyond the DFA step is one register
/// comparison — the paper's "transitions at very low CPU cost", now
/// starting from bytes.
pub(crate) struct FusedHar {
    pub(crate) lexer: Arc<TagLexer>,
    pub(crate) program: HarMarkupProgram,
}

/// The pushdown fallback driven directly by the byte lexer
/// ([`StackStep`]): same visible behaviour as
/// `st_baseline::stack::StackEvaluator` over scanned events, minus the
/// event stream.
pub(crate) struct FusedStack {
    pub(crate) lexer: Arc<TagLexer>,
    /// The minimal automaton of L (over Γ, `k` letters).
    pub(crate) dfa: Dfa,
    /// `opens[q * k + l]`: the state after opening `l` in state `q`, and
    /// whether it accepts — one load per open.
    opens: Vec<(u32, bool)>,
}

pub(crate) enum FusedBackend {
    Registerless(ByteDfa),
    Stackless(FusedHar),
    Stack(FusedStack),
}

/// A compiled query fused with the byte lexer of a fixed alphabet:
/// evaluates `select`/`count` in a single pass over raw document bytes,
/// using whichever engine the planner picked for the language.
///
/// Built by [`crate::planner::CompiledQuery::fused`].
pub struct FusedQuery {
    pub(crate) alphabet: Alphabet,
    pub(crate) backend: FusedBackend,
    /// [`query_fingerprint`] of the two fields above, computed once:
    /// every checkpoint and resume carries or checks it.
    pub(crate) fingerprint: u64,
}

impl FusedQuery {
    fn new(alphabet: &Alphabet, backend: FusedBackend) -> FusedQuery {
        FusedQuery {
            fingerprint: query_fingerprint(alphabet, &backend),
            alphabet: alphabet.clone(),
            backend,
        }
    }

    /// Fuses a registerless query DFA (over Γ ∪ Γ̄) with the byte lexer;
    /// the planner's constructor for that backend.
    ///
    /// # Errors
    ///
    /// See [`ByteDfa::new`].
    pub(crate) fn registerless(dfa: &Dfa, alphabet: &Alphabet) -> Result<FusedQuery, CoreError> {
        Ok(FusedQuery::new(
            alphabet,
            FusedBackend::Registerless(ByteDfa::new(dfa, alphabet)?),
        ))
    }

    /// Fuses a Lemma 3.8 depth-register program with the byte lexer.
    pub(crate) fn stackless(program: HarMarkupProgram, alphabet: &Alphabet) -> FusedQuery {
        FusedQuery::new(
            alphabet,
            FusedBackend::Stackless(FusedHar {
                lexer: TagLexer::shared(alphabet),
                program,
            }),
        )
    }

    /// Fuses the pushdown fallback (over the minimal automaton of L) with
    /// the byte lexer.
    pub(crate) fn stack(dfa: &Dfa, alphabet: &Alphabet) -> FusedQuery {
        FusedQuery::new(
            alphabet,
            FusedBackend::Stack(FusedStack {
                lexer: TagLexer::shared(alphabet),
                dfa: dfa.clone(),
                opens: (0..dfa.n_states())
                    .flat_map(|q| (0..dfa.n_letters()).map(move |l| dfa.step(q, l)))
                    .map(|next| (next as u32, dfa.is_accepting(next)))
                    .collect(),
            }),
        )
    }

    /// The strategy of the underlying engine.
    pub fn strategy(&self) -> crate::planner::Strategy {
        match &self.backend {
            FusedBackend::Registerless(_) => crate::planner::Strategy::Registerless,
            FusedBackend::Stackless(_) => crate::planner::Strategy::Stackless,
            FusedBackend::Stack(_) => crate::planner::Strategy::Stack,
        }
    }

    /// The registerless byte engine, when that is the chosen backend
    /// (exposes the data-parallel entry points).
    pub fn byte_dfa(&self) -> Option<&ByteDfa> {
        match &self.backend {
            FusedBackend::Registerless(b) => Some(b),
            _ => None,
        }
    }

    /// The tag lexer of the chosen backend.
    pub(crate) fn tag_lexer(&self) -> &Arc<TagLexer> {
        match &self.backend {
            FusedBackend::Registerless(b) => &b.lexer,
            FusedBackend::Stackless(e) => &e.lexer,
            FusedBackend::Stack(e) => &e.lexer,
        }
    }

    /// Forces (or re-enables) the scalar byte path for this query: with
    /// `true`, every evaluation runs the structural scan with
    /// certification off, so the `TagLexer` steps every byte of markup
    /// (text is still skipped to the next `<`).  Defaults to the
    /// process-wide `ST_FORCE_SCALAR` escape hatch.  Results are bitwise
    /// identical either way; this exists as a kill switch and as the
    /// reference side of differential testing.
    pub fn set_force_scalar(&mut self, on: bool) {
        match &mut self.backend {
            FusedBackend::Registerless(b) => b.set_force_scalar(on),
            FusedBackend::Stackless(e) => TagLexer::set_force_scalar(&mut e.lexer, on),
            FusedBackend::Stack(e) => TagLexer::set_force_scalar(&mut e.lexer, on),
        }
    }

    /// Whether the scalar byte path is forced for this query.
    pub fn force_scalar(&self) -> bool {
        self.tag_lexer().force_scalar()
    }

    /// One pass over a whole document from its start, through this
    /// engine's step, `sink` and `guard`; `force` forces the scalar path
    /// for this run.
    pub(crate) fn drive_fresh<Sk: Sink, G: Guard>(
        &self,
        bytes: &[u8],
        force: bool,
        stats: &mut ScanStats,
        sink: Sk,
        guard: G,
    ) -> (ScanEnd, Sk, G) {
        let lexer = self.tag_lexer();
        let certify = lexer.certify(force);
        EngineStep::fresh(self).drive(lexer, bytes, TEXT, certify, stats, sink, guard)
    }

    /// Document-order ids of selected nodes, in one pass over raw bytes.
    ///
    /// # Errors
    ///
    /// The `Scanner`'s diagnostic if the document is malformed.
    pub fn select_bytes(&self, bytes: &[u8]) -> Result<Vec<usize>, TreeError> {
        let sink = one_shot(
            EngineStep::fresh(self),
            self.tag_lexer(),
            &self.alphabet,
            bytes,
            &mut ScanStats::default(),
            SelectSink::default(),
        )?;
        Ok(sink.into_matches())
    }

    /// Streaming count of selected nodes, in one pass over raw bytes.
    ///
    /// # Errors
    ///
    /// The `Scanner`'s diagnostic if the document is malformed.
    pub fn count_bytes(&self, bytes: &[u8]) -> Result<usize, TreeError> {
        self.count_bytes_stats(bytes, &mut ScanStats::default())
    }

    /// [`Self::count_bytes`] exposing the structural-index window
    /// tallies (experiment harness / obs plumbing).
    #[doc(hidden)]
    pub fn count_bytes_stats(
        &self,
        bytes: &[u8],
        stats: &mut ScanStats,
    ) -> Result<usize, TreeError> {
        let sink = one_shot(
            EngineStep::fresh(self),
            self.tag_lexer(),
            &self.alphabet,
            bytes,
            stats,
            CountSink::default(),
        )?;
        Ok(sink.count)
    }

    /// Like [`Self::count_bytes`] but uses the data-parallel chunked path
    /// when the backend is registerless (the only backend whose state
    /// composes); other backends run the sequential fused pass.
    ///
    /// # Errors
    ///
    /// As for [`ByteDfa::count_bytes_chunked`].
    pub fn count_bytes_parallel(
        &self,
        bytes: &[u8],
        n_threads: usize,
    ) -> Result<usize, SessionError> {
        match &self.backend {
            FusedBackend::Registerless(b) => b.count_bytes_chunked(bytes, n_threads),
            _ => self.count_bytes(bytes).map_err(SessionError::Parse),
        }
    }

    /// Like [`Self::select_bytes`] but uses the data-parallel chunked
    /// path when the backend is registerless.
    ///
    /// # Errors
    ///
    /// As for [`ByteDfa::select_bytes_chunked`].
    pub fn select_bytes_parallel(
        &self,
        bytes: &[u8],
        n_threads: usize,
    ) -> Result<Vec<usize>, SessionError> {
        match &self.backend {
            FusedBackend::Registerless(b) => b.select_bytes_chunked(bytes, n_threads),
            _ => self.select_bytes(bytes).map_err(SessionError::Parse),
        }
    }

    /// [`Self::count_bytes`] with per-run metrics (`engine_runs_total`,
    /// `engine_bytes_total`, `engine_matches_total`,
    /// `engine_failed_runs_total`, and the structural-index tallies
    /// `engine_simd_windows` / `engine_scalar_fallback_windows`)
    /// recorded into `obs`.  The scan itself stays untouched — metrics
    /// are tallied once per run, so the no-op handle's cost is a handful
    /// of branches per document.
    ///
    /// # Errors
    ///
    /// As for [`Self::count_bytes`].
    pub fn count_bytes_observed(
        &self,
        bytes: &[u8],
        obs: &st_obs::ObsHandle,
    ) -> Result<usize, TreeError> {
        let mut stats = ScanStats::default();
        let res = self.count_bytes_stats(bytes, &mut stats);
        if obs.is_enabled() {
            obs.counter("engine_runs_total").incr();
            obs.counter("engine_bytes_total").add(bytes.len() as u64);
            match &res {
                Ok(n) => obs.counter("engine_matches_total").add(*n as u64),
                Err(_) => obs.counter("engine_failed_runs_total").incr(),
            }
            record_scan_stats(obs, &stats);
        }
        res
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::planner::{CompiledQuery, Strategy};
    use st_automata::{compile_regex, Tag};
    use st_trees::encode::markup_encode;
    use st_trees::generate;
    use st_trees::xml::write_events;

    /// Decodes a lexer event stream into tags (test aid only): the lexer
    /// stepped over every byte, the grammar reference of the scan.
    fn lex_tags(lexer: &TagLexer, bytes: &[u8]) -> Result<Vec<Tag>, ()> {
        let k = lexer.k();
        let mut out = Vec::new();
        let mut s = TEXT;
        for &b in bytes {
            let (s2, ev) = lexer.step(s, b);
            s = s2;
            if ev == EV_ERROR {
                return Err(());
            }
            if ev == EV_NONE {
                continue;
            }
            let (open_l, close_l) = decode_event(ev, k);
            if let Some(l) = open_l {
                out.push(Tag::Open(st_automata::Letter(l as u32)));
            }
            if let Some(l) = close_l {
                out.push(Tag::Close(st_automata::Letter(l as u32)));
            }
        }
        if s == TEXT {
            Ok(out)
        } else {
            Err(())
        }
    }

    fn scanner_tags(bytes: &[u8], alphabet: &Alphabet) -> Result<Vec<Tag>, TreeError> {
        Scanner::new(bytes, alphabet).collect()
    }

    #[test]
    fn lexer_matches_scanner_on_corpus() {
        let g = Alphabet::of_chars("abc");
        let lexer = TagLexer::new(&g);
        let corpus: &[&[u8]] = &[
            b"",
            b"text only, no tags at all",
            b"<a></a>",
            b"<a><b></b><c/></a>",
            b"<a>text<b>more</b>tail</a>",
            b"<?xml version=\"1.0\"?><a><b/></a>",
            b"<!DOCTYPE a [<!ELEMENT a (b)>]><a><b/></a>",
            b"<a><!-- comment with <b> inside --><b></b></a>",
            b"<a x=\"1\" y='2'><b class='q/\"z'/></a>",
            b"<a x=\">\"><b/></a>",
            b"<a/>",
            b"<a />",
            b"<a><b   ></b   ></a>",
            b"<a\t\n><b/></a\n>",
            b"<!---->",
            b"<!-- -- ></a-->",
            b"<!>",
            b"<!->",
            b"<a key=\"v/\">literal / in attr</a>",
            b"<a><c></c></a><b></b>", // forest: scanner tokenizes fine
            b"</a>",                  // unbalanced close: still tokenizes
            // Error cases (both sides must reject):
            b"<a><",
            b"< a></a>",
            b"<a></ >",
            b"<a><!-- unterminated",
            b"<a><? unterminated",
            b"<unknown/>",
            b"<ab></ab>",
            b"<a></unknown>",
            b"<a></ab>",
            b"<a", // unterminated opening tag
            b"<",
            b"<a x=\"unterminated>",
            b"<1a/>",
        ];
        for &doc in corpus {
            let want = scanner_tags(doc, &g);
            let got = lex_tags(&lexer, doc);
            match (&want, &got) {
                (Ok(w), Ok(l)) => assert_eq!(w, l, "doc {:?}", String::from_utf8_lossy(doc)),
                (Err(_), Err(())) => {}
                _ => panic!(
                    "lexer/scanner disagree on {:?}: scanner {:?}, lexer {:?}",
                    String::from_utf8_lossy(doc),
                    want,
                    got
                ),
            }
        }
    }

    #[test]
    fn lexer_handles_multibyte_and_prefix_labels() {
        let g = Alphabet::from_symbols(["item", "it", "x"]).unwrap();
        let lexer = TagLexer::new(&g);
        let corpus: &[&[u8]] = &[
            b"<item><it/><x></x></item>",
            b"<it><item a=\"1\"></item></it>",
            b"<item  ></item >",
            b"<ite/>",   // prefix of a label but not a label: error
            b"<items/>", // extends past every label: error
            b"<i>",
        ];
        for &doc in corpus {
            let want = scanner_tags(doc, &g);
            let got = lex_tags(&lexer, doc);
            match (&want, &got) {
                (Ok(w), Ok(l)) => assert_eq!(w, l, "doc {:?}", String::from_utf8_lossy(doc)),
                (Err(_), Err(())) => {}
                _ => panic!(
                    "disagree on {:?}: scanner {:?}, lexer {:?}",
                    String::from_utf8_lossy(doc),
                    want,
                    got
                ),
            }
        }
    }

    /// Renders a tag stream with noise the scanner must skip: attributes,
    /// comments, text, and self-closing leaves, deterministic per seed.
    fn decorate(tags: &[Tag], alphabet: &Alphabet, seed: u64) -> Vec<u8> {
        let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
        let mut rand = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let mut out = Vec::new();
        if rand() % 2 == 0 {
            out.extend_from_slice(b"<?xml version=\"1.0\"?>");
        }
        let mut i = 0;
        while i < tags.len() {
            match tags[i] {
                Tag::Open(l) => {
                    // Self-closing shorthand for leaves, sometimes.
                    let leaf = matches!(tags.get(i + 1), Some(Tag::Close(l2)) if *l2 == l);
                    out.push(b'<');
                    out.extend_from_slice(alphabet.symbol(l).as_bytes());
                    match rand() % 4 {
                        0 => out.extend_from_slice(b" id=\"x<y>\""),
                        1 => out.extend_from_slice(b" q='a/b'"),
                        2 => out.extend_from_slice(b" a=1 b = \"2\""),
                        _ => {}
                    }
                    if leaf && rand() % 2 == 0 {
                        out.extend_from_slice(b"/>");
                        i += 2;
                        continue;
                    }
                    out.push(b'>');
                }
                Tag::Close(l) => {
                    out.extend_from_slice(b"</");
                    out.extend_from_slice(alphabet.symbol(l).as_bytes());
                    if rand() % 4 == 0 {
                        out.push(b' ');
                    }
                    out.push(b'>');
                }
            }
            match rand() % 5 {
                0 => out.extend_from_slice(b"some text"),
                1 => out.extend_from_slice(b"<!-- a <b> comment -->"),
                _ => {}
            }
            i += 1;
        }
        out
    }

    #[test]
    fn fused_backends_agree_with_event_pipeline() {
        let g = Alphabet::of_chars("abc");
        // One pattern per strategy (Example 2.12 rows).
        for (pattern, strategy) in [
            ("a.*b", Strategy::Registerless),
            ("ab", Strategy::Stackless),
            (".*a.*b", Strategy::Stackless),
            (".*ab", Strategy::Stack),
        ] {
            let dfa = compile_regex(pattern, &g).unwrap();
            let plan = CompiledQuery::compile(&dfa);
            assert_eq!(plan.strategy(), strategy, "pattern {pattern}");
            let fused = plan.fused(&g).unwrap();
            assert_eq!(fused.strategy(), strategy);
            for seed in 0..20 {
                let tree = generate::random_attachment(&g, 120, 0.55, seed);
                let tags = markup_encode(&tree);
                let want = plan.select(&tags);
                // Plain skeleton and decorated rendering must both match.
                for bytes in [
                    write_events(&tags, &g).into_bytes(),
                    decorate(&tags, &g, seed),
                ] {
                    let got = fused.select_bytes(&bytes).unwrap();
                    assert_eq!(got, want, "pattern {pattern} seed {seed}");
                    assert_eq!(
                        fused.count_bytes(&bytes).unwrap(),
                        want.len(),
                        "pattern {pattern} seed {seed}"
                    );
                }
            }
        }
    }

    #[test]
    fn factored_and_event_table_steps_agree() {
        // Query-DFA sizes seen in practice always fit the per-event
        // tables, so drive the factored `qnext` step explicitly.
        let g = Alphabet::of_chars("abc");
        for pattern in ["a.*b", "a.*", ".*", "b.*c"] {
            let dfa = compile_regex(pattern, &g).unwrap();
            let plan = CompiledQuery::compile(&dfa);
            let fused = plan.fused(&g).unwrap();
            let b = fused.byte_dfa().expect("registerless");
            let start = b.start as usize;
            assert!(matches!(b.step_at(start), EngineStep::Evtab(_)));
            for seed in 0..6 {
                let tree = generate::random_attachment(&g, 300, 0.5, seed);
                let bytes = decorate(&markup_encode(&tree), &g, seed);
                let run = |step: EngineStep<'_>| {
                    let mut stats = ScanStats::default();
                    one_shot(
                        step,
                        &b.lexer,
                        &g,
                        &bytes,
                        &mut stats,
                        SelectSink::default(),
                    )
                    .unwrap()
                    .into_matches()
                };
                let factored = run(EngineStep::Qnext(QnextStep { dfa: b, q: start }));
                assert_eq!(run(b.step_at(start)), factored, "{pattern} seed {seed}");
                assert_eq!(b.select_bytes(&bytes).unwrap(), factored);
            }
        }
    }

    #[test]
    fn chunked_agrees_with_sequential() {
        let g = Alphabet::of_chars("abc");
        let dfa = compile_regex("a.*b", &g).unwrap();
        let plan = CompiledQuery::compile(&dfa);
        let fused = plan.fused(&g).unwrap();
        let byte_dfa = fused.byte_dfa().expect("a.*b is registerless");
        for seed in 0..4 {
            let tree = generate::random_attachment(&g, 4000, 0.6, seed);
            let tags = markup_encode(&tree);
            let mut bytes = decorate(&tags, &g, seed);
            // Plant a comment containing '<' so some cut lands inside it
            // on at least some thread counts, exercising the fallback.
            let mid = bytes.len() / 2;
            let at = find_lt(&bytes, mid);
            bytes.splice(at..at, b"<!-- < tricky < cut -->".iter().copied());
            let want = byte_dfa.select_bytes(&bytes).unwrap();
            for threads in [2, 3, 4, 7] {
                assert_eq!(
                    byte_dfa.select_bytes_chunked(&bytes, threads).unwrap(),
                    want,
                    "seed {seed} threads {threads}"
                );
                assert_eq!(
                    byte_dfa.count_bytes_chunked(&bytes, threads).unwrap(),
                    want.len(),
                    "seed {seed} threads {threads}"
                );
            }
        }
    }

    #[test]
    fn errors_match_scanner_diagnostics() {
        let g = Alphabet::of_chars("ab");
        let dfa = compile_regex("a.*b", &g).unwrap();
        let plan = CompiledQuery::compile(&dfa);
        let fused = plan.fused(&g).unwrap();
        let bad: &[&[u8]] = &[b"<a><c></c></a>", b"<a><", b"<a></ >", b"<a><!-- x"];
        for &doc in bad {
            let want = scanner_tags(doc, &g).unwrap_err();
            let got = fused.select_bytes(doc).unwrap_err();
            assert_eq!(got, want, "doc {:?}", String::from_utf8_lossy(doc));
        }
    }

    #[test]
    fn composite_too_large_is_reported() {
        // A query DFA big enough that the product with the (small) lexer
        // overflows the u16 composite budget.
        let g = Alphabet::of_chars("ab");
        let m = 4000;
        let rows: Vec<Vec<usize>> = (0..m).map(|s| vec![s; 4]).collect();
        let dfa = Dfa::from_rows(4, 0, vec![false; m], rows).unwrap();
        match ByteDfa::new(&dfa, &g) {
            Err(CoreError::FusedTooLarge { .. }) => {}
            other => panic!("expected FusedTooLarge, got ok={:?}", other.is_ok()),
        }
    }

    /// The Lemma 3.8 rule, event by event, as the packed step's
    /// reference: an open moves by the DFA and pushes on leaving an SCC;
    /// a close pops a frame whose register is above the depth, else
    /// rewinds inside the SCC, else kills the run.
    #[derive(Clone, Debug, PartialEq)]
    struct RefRun {
        current: usize,
        dead: bool,
        chain: Vec<(u16, i64)>,
    }

    impl RefRun {
        fn open(&mut self, core: &HarCore, l: usize, depth: i64) -> bool {
            if self.dead {
                return false;
            }
            let next = core.dfa().step(self.current, l);
            if core.component()[next] != core.component()[self.current] {
                self.chain.push((self.current as u16, depth));
            }
            self.current = next;
            core.dfa().is_accepting(next)
        }

        fn close(&mut self, core: &HarCore, l: usize, depth: i64) {
            if self.dead {
                return;
            }
            match self.chain.last() {
                Some(&(s, r)) if r > depth => {
                    self.chain.pop();
                    self.current = s as usize;
                }
                _ => match core.rewind_markup()[self.current * core.dfa().n_letters() + l] {
                    Some(p) => self.current = p,
                    None => self.dead = true,
                },
            }
        }

        fn step(&mut self, core: &HarCore, ev: u16, depth: &mut i64) -> (bool, bool) {
            let (open_l, close_l) = decode_event(ev, core.dfa().n_letters());
            let mut selected = false;
            if let Some(l) = open_l {
                *depth += 1;
                selected = self.open(core, l, *depth);
            }
            if let Some(l) = close_l {
                *depth -= 1;
                self.close(core, l, *depth);
            }
            (open_l.is_some(), selected)
        }
    }

    /// Every chain a run can hold: the paths of one-letter steps down the
    /// SCC DAG, each with the state it leads to.
    fn har_chains(core: &HarCore) -> Vec<(Vec<u16>, usize)> {
        let (dfa, comp) = (core.dfa(), core.component());
        let below = |from: usize, to: usize| {
            comp[from] != comp[to]
                && (0..dfa.n_letters()).any(|l| comp[dfa.step(from, l)] == comp[to])
        };
        let mut out = Vec::new();
        let mut paths: Vec<Vec<u16>> = vec![Vec::new()];
        while let Some(path) = paths.pop() {
            for s in 0..dfa.n_states() {
                if path.last().is_none_or(|&c| below(c as usize, s)) {
                    out.push((path.clone(), s));
                    if path.len() < MAX_CHAIN {
                        paths.push([path.as_slice(), &[s as u16]].concat());
                    }
                }
            }
        }
        out
    }

    #[test]
    fn packed_har_step_agrees_with_the_lemma_3_8_rule() {
        let g = Alphabet::of_chars("abc");
        let mut dead_rows = false;
        // The last four have SCCs where a self-close's rewind from the
        // opened state differs from the rewind of the state it left.
        for pattern in [
            "ab",
            "abc",
            ".*a.*b",
            ".*a.*b.*c",
            "a.*b.*c",
            "(a|b)c.*",
            "(ab)*c",
            "a(bc)*",
            "(aa)*b",
            "(ab|ba)*",
        ] {
            let plan = CompiledQuery::compile(&compile_regex(pattern, &g).unwrap());
            let fused = plan.fused(&g).unwrap();
            let FusedBackend::Stackless(e) = &fused.backend else {
                panic!("{pattern} is stackless");
            };
            let core = e.program.core();
            dead_rows |= core.rewind_markup().iter().any(Option::is_none);
            for (chain, current) in har_chains(core) {
                // Registers 1..=len under a depth at the top register (a
                // close pops) and one above it (a close rewinds); a dead
                // run's registers may also sit above the depth.
                let regs = (1..).zip(&chain).map(|(r, &s)| (s, r)).collect::<Vec<_>>();
                let top = chain.len() as i64;
                let cases = [(false, top), (false, top + 1), (true, top), (true, top - 2)];
                for (dead, depth) in cases {
                    let run = HarRun::thaw(core, current, dead, &regs, depth).unwrap();
                    assert_eq!(run.freeze(core), (current, dead, regs.clone()));
                    let chain = regs.clone();
                    let reference = RefRun {
                        current,
                        dead,
                        chain,
                    };
                    for ev in 1..=3 * g.len() as u16 {
                        let (mut want, mut got) = (reference.clone(), run);
                        let (mut d1, mut d2) = (depth, depth);
                        let verdict = want.step(core, ev, &mut d1);
                        assert_eq!(
                            (got.step(core.rows(), ev, &mut d2), d2, got.freeze(core)),
                            (verdict, d1, (want.current, want.dead, want.chain)),
                            "{pattern}: state {current} dead {dead} chain {regs:?} depth {depth} event {ev}"
                        );
                    }
                }
            }
        }
        assert!(dead_rows, "some run must die");
    }
}
