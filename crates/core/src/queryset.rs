//! Shared multi-query evaluation: one byte pass, N queries.
//!
//! A serving edge runs thousands of distinct queries over the same hot
//! documents; answering them one scan at a time re-pays the dominant
//! cost — tokenizing the bytes — once per query.  [`QuerySet`] compiles
//! a whole set of path queries into a single machine that is driven by
//! *one* pass over the document (the same SIMD structural index the
//! single-query engines use) and attributes every match back to the
//! member query that selected it.
//!
//! # The three tiers
//!
//! The set compiler picks the cheapest exact evaluation scheme:
//!
//! * **Product** — when every member is almost-reversible (the planner
//!   chose its Lemma 3.5 registerless markup DFA), the member DFAs are
//!   combined into one synchronous product over *compressed letter
//!   classes* (letters indistinguishable to the whole family share a
//!   transition column, [`st_automata::ops::letter_classes`]).  Each
//!   product state carries a per-query accepting bitmask, so an open
//!   event costs one table step plus one mask test for all N queries.
//!   The product is only kept while it stays under a configurable
//!   state budget ([`QuerySet::compile_with_budget`]).
//! * **Lanes** — all members almost-reversible but the product blows
//!   the budget: the member markup DFAs run as N one-hot lanes of a
//!   union-NFA simulation (each lane is deterministic, so the "set of
//!   live states" is exactly one state per lane).  Attribution flows
//!   through per-query accepting masks assembled in 64-query words.
//! * **Hybrid** — the set contains a member the planner would not run
//!   registerless: every member keeps its *native* event-level engine
//!   (markup DFA, HAR depth-register run, or DFA + explicit stack) and
//!   all of them step in lockstep off the shared event stream.  This
//!   is bitwise identical to N independent runs by construction — the
//!   per-event logic is the same as each member's own session backend.
//!
//! All three tiers share the byte pass: the structural scan, with
//! certification off under `ST_FORCE_SCALAR` or
//! [`Limits::force_scalar`].  Each tier is one sink type, parameterized
//! by what it collects (counts or node ids) and by its guard (none for
//! one-shot runs, the depth/imbalance budgets for sessions).
//!
//! # Sessions
//!
//! [`QuerySetSession`] mirrors [`crate::session::EngineSession`]:
//! windowed feeds under [`Limits`], checkpoint/resume at any byte
//! boundary with a versioned wire format ([`QuerySetCheckpoint`],
//! magic `STQS`), and resume ≡ whole-run at every cut.

use st_automata::ops::{letter_classes, product_many, MultiProduct};
use st_automata::{compile_regex, Alphabet, Dfa};
use st_obs::TraceEvent;
use st_trees::error::TreeError;

use crate::engine::{
    decode_event, rescan_error, DepthGuard, Guard, HarRun, NoGuard, TagLexer, TEXT,
};
use crate::har::{HarMarkupProgram, MAX_CHAIN};
use crate::planner::{CompiledQuery, Strategy};
use crate::query::QueryError;
use crate::session::{
    alphabet_symbols, corrupt, fnv_bytes, fnv_dfa, fnv_usize, limit_kind_name, parse_error,
    put_i64, put_u16, put_u32, put_u64, LimitExceeded, LimitKind, Limits, Reader, SessObs,
    SessionError, WINDOW,
};
use crate::structural::{structural_scan, EventSink, ScanEnd, ScanStats};

/// Default cap on the shared product DFA's state count.  Past this the
/// compiler falls back to lane-wise simulation; `0` disables the
/// product tier entirely (useful for forcing the lanes path in
/// differential tests).
pub const DEFAULT_PRODUCT_BUDGET: usize = 4096;

/// Version tag of the [`QuerySetCheckpoint`] wire format.
pub const QUERYSET_CHECKPOINT_VERSION: u16 = 1;

const QS_MAGIC: [u8; 4] = *b"STQS";

const TAG_PRODUCT: u8 = 0;
const TAG_LANES: u8 = 1;
const TAG_HYBRID: u8 = 2;

const LANE_MARKUP: u8 = 0;
const LANE_HAR: u8 = 1;
const LANE_STACK: u8 = 2;

// ---------------------------------------------------------------------------
// Compiled tables
// ---------------------------------------------------------------------------

/// The compressed-alphabet product DFA with per-state accepting masks.
struct ProductTable {
    /// Number of letter classes (compressed alphabet size).
    n_classes: usize,
    /// Product state count (≤ the budget).
    n_states: usize,
    /// `u64` words per accepting mask (`ceil(n_members / 64)`).
    words: usize,
    /// Initial product state.
    init: u32,
    /// Markup letter (`0..2k`) → class id.
    class_of: Vec<u16>,
    /// Row-major transitions over classes: `delta[s * n_classes + c]`.
    delta: Vec<u32>,
    /// Per-state accepting masks: `accept[s * words .. (s+1) * words]`,
    /// bit `q` set iff member `q`'s markup DFA accepts in state `s`.
    accept: Vec<u64>,
}

/// A family of member DFAs flattened into one global state space: member
/// `i`'s states occupy the block `starts[i]..starts[i+1]` and transition
/// rows are stored at their global ids, so stepping lane `i` is one load
/// from a shared table.
struct FamilyTable {
    /// Letters per member DFA (2k for markup DFAs).
    n_letters: usize,
    /// Global initial state per member.
    init: Vec<u32>,
    /// Block boundaries, `len == n_members + 1`.
    starts: Vec<u32>,
    /// Global row-major transitions: `delta[s * n_letters + a]`.
    delta: Vec<u32>,
    /// Accepting bitset over global states.
    accepting: Vec<u64>,
}

impl FamilyTable {
    fn build(dfas: &[&Dfa]) -> FamilyTable {
        let n_letters = dfas.first().map_or(0, |d| d.n_letters());
        let mut starts = Vec::with_capacity(dfas.len() + 1);
        let mut total = 0usize;
        for d in dfas {
            starts.push(u32::try_from(total).expect("family state space fits u32"));
            total += d.n_states();
        }
        starts.push(u32::try_from(total).expect("family state space fits u32"));
        let mut delta = Vec::with_capacity(total * n_letters);
        let mut accepting = vec![0u64; total.div_ceil(64)];
        for (i, d) in dfas.iter().enumerate() {
            let base = starts[i] as usize;
            for s in 0..d.n_states() {
                for a in 0..n_letters {
                    delta.push((base + d.step(s, a)) as u32);
                }
                if d.is_accepting(s) {
                    accepting[(base + s) >> 6] |= 1 << ((base + s) & 63);
                }
            }
        }
        let init = dfas
            .iter()
            .enumerate()
            .map(|(i, d)| starts[i] + d.init() as u32)
            .collect();
        FamilyTable {
            n_letters,
            init,
            starts,
            delta,
            accepting,
        }
    }

    fn n_members(&self) -> usize {
        self.init.len()
    }

    fn in_block(&self, i: usize, s: u32) -> bool {
        self.starts[i] <= s && s < self.starts[i + 1]
    }
}

/// One member's native event-level engine in the hybrid tier.
enum LaneEngine {
    /// Registerless member: its Lemma 3.5 markup DFA (closes are real
    /// transitions).
    Markup(Dfa),
    /// Stackless member: its Lemma 3.8 HAR markup program.
    Har(HarMarkupProgram),
    /// General member: minimal DFA over Γ plus an explicit stack.
    Stack(Dfa),
}

/// One member's live state in the hybrid tier.
enum LaneState {
    Markup { s: u32 },
    Har { run: HarRun },
    Stack { s: u32, frames: Vec<u32> },
}

fn fresh_lane(engine: &LaneEngine) -> LaneState {
    match engine {
        LaneEngine::Markup(dfa) => LaneState::Markup {
            s: dfa.init() as u32,
        },
        LaneEngine::Har(program) => LaneState::Har {
            run: HarRun::new(program.core()),
        },
        LaneEngine::Stack(dfa) => LaneState::Stack {
            s: dfa.init() as u32,
            frames: Vec::new(),
        },
    }
}

/// Applies an open event to one hybrid lane; `depth` is the depth
/// *after* the open.  Returns whether the member selects the node.
#[inline]
fn lane_open(engine: &LaneEngine, state: &mut LaneState, l: usize, depth: i64) -> bool {
    match (engine, state) {
        (LaneEngine::Markup(dfa), LaneState::Markup { s }) => {
            *s = dfa.step(*s as usize, l) as u32;
            dfa.is_accepting(*s as usize)
        }
        (LaneEngine::Har(program), LaneState::Har { run }) => run.open(program.core(), l, depth),
        (LaneEngine::Stack(dfa), LaneState::Stack { s, frames }) => {
            frames.push(*s);
            *s = dfa.step(*s as usize, l) as u32;
            dfa.is_accepting(*s as usize)
        }
        _ => unreachable!("lane engine/state agree by construction"),
    }
}

/// Applies a close event to one hybrid lane; `depth` is the depth
/// *after* the close, `k` the label-alphabet size.
#[inline]
fn lane_close(engine: &LaneEngine, state: &mut LaneState, k: usize, l: usize, depth: i64) {
    match (engine, state) {
        (LaneEngine::Markup(dfa), LaneState::Markup { s }) => {
            *s = dfa.step(*s as usize, k + l) as u32;
        }
        (LaneEngine::Har(program), LaneState::Har { run }) => run.close(program.core(), l, depth),
        (LaneEngine::Stack(_), LaneState::Stack { frames, s }) => {
            // Underflowing pop keeps the state, like the baseline
            // evaluator and the single-query stack session.
            if let Some(p) = frames.pop() {
                *s = p;
            }
        }
        _ => unreachable!("lane engine/state agree by construction"),
    }
}

enum SetBackend {
    Product(ProductTable),
    Lanes(FamilyTable),
    Hybrid(Vec<LaneEngine>),
}

/// Which evaluation tier the set compiler picked.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SetStrategy {
    /// One shared product DFA over compressed letter classes, with
    /// per-state accepting masks (all members almost-reversible, product
    /// within the state budget).
    Product,
    /// Bitset union-NFA simulation: one deterministic markup-DFA lane
    /// per member, per-query accepting masks (all members
    /// almost-reversible, product over budget).
    Lanes,
    /// Per-member native engines (markup DFA / HAR run / DFA + stack)
    /// stepping in lockstep off the shared event stream (at least one
    /// member is not almost-reversible).
    Hybrid,
}

// ---------------------------------------------------------------------------
// Members
// ---------------------------------------------------------------------------

struct SetMember {
    pattern: Option<String>,
    strategy: Strategy,
    /// The planner's minimal DFA over Γ (fingerprint + re-planning).
    dfa: Dfa,
}

// ---------------------------------------------------------------------------
// QuerySet
// ---------------------------------------------------------------------------

/// A compiled set of path queries evaluated together in one byte pass.
///
/// ```
/// use st_automata::Alphabet;
/// use st_core::queryset::QuerySet;
///
/// let gamma = Alphabet::of_chars("ab");
/// let set = QuerySet::compile(&["a.*", ".*b"], &gamma).unwrap();
/// let counts = set.count_all(b"<a><b></b></a>").unwrap();
/// assert_eq!(counts, vec![2, 1]);
/// ```
pub struct QuerySet {
    alphabet: Alphabet,
    lexer: TagLexer,
    members: Vec<SetMember>,
    backend: SetBackend,
    /// Whether the product tier used letter-class compression (affects
    /// product state numbering, hence the checkpoint fingerprint).
    compressed: bool,
    fingerprint: u64,
}

impl QuerySet {
    /// Compiles a set of path patterns over one alphabet with the
    /// [`DEFAULT_PRODUCT_BUDGET`].
    ///
    /// # Errors
    ///
    /// [`QueryError::Pattern`] if any pattern fails to parse.
    pub fn compile<S: AsRef<str>>(
        patterns: &[S],
        alphabet: &Alphabet,
    ) -> Result<QuerySet, QueryError> {
        Self::compile_with_budget(patterns, alphabet, DEFAULT_PRODUCT_BUDGET)
    }

    /// Compiles a set of path patterns with an explicit product-DFA
    /// state budget.  `budget == 0` disables the product tier (all-AR
    /// sets then take the lanes path — the knob differential tests use
    /// to force it).
    ///
    /// # Errors
    ///
    /// [`QueryError::Pattern`] if any pattern fails to parse.
    pub fn compile_with_budget<S: AsRef<str>>(
        patterns: &[S],
        alphabet: &Alphabet,
        budget: usize,
    ) -> Result<QuerySet, QueryError> {
        let mut dfas = Vec::with_capacity(patterns.len());
        for p in patterns {
            dfas.push(compile_regex(p.as_ref(), alphabet).map_err(QueryError::Pattern)?);
        }
        let names = patterns
            .iter()
            .map(|p| Some(p.as_ref().to_owned()))
            .collect();
        Ok(Self::build(dfas, names, alphabet, budget, true))
    }

    /// Compiles a set from pre-built query DFAs over `alphabet` with the
    /// [`DEFAULT_PRODUCT_BUDGET`].
    ///
    /// # Panics
    ///
    /// Panics if any DFA's alphabet size differs from `alphabet`.
    pub fn from_dfas(dfas: Vec<Dfa>, alphabet: &Alphabet) -> QuerySet {
        Self::from_dfas_with_budget(dfas, alphabet, DEFAULT_PRODUCT_BUDGET)
    }

    /// Compiles a set from pre-built query DFAs with an explicit product
    /// state budget (see [`Self::compile_with_budget`]).
    ///
    /// # Panics
    ///
    /// Panics if any DFA's alphabet size differs from `alphabet`.
    pub fn from_dfas_with_budget(dfas: Vec<Dfa>, alphabet: &Alphabet, budget: usize) -> QuerySet {
        let names = vec![None; dfas.len()];
        Self::build(dfas, names, alphabet, budget, true)
    }

    /// Like [`Self::compile_with_budget`] but with letter-class
    /// compression disabled in the product tier, so the product runs
    /// over the raw 2k-letter markup alphabet.  Exists for the property
    /// tests that check compression preserves per-query semantics.
    ///
    /// # Errors
    ///
    /// [`QueryError::Pattern`] if any pattern fails to parse.
    #[doc(hidden)]
    pub fn compile_uncompressed<S: AsRef<str>>(
        patterns: &[S],
        alphabet: &Alphabet,
        budget: usize,
    ) -> Result<QuerySet, QueryError> {
        let mut dfas = Vec::with_capacity(patterns.len());
        for p in patterns {
            dfas.push(compile_regex(p.as_ref(), alphabet).map_err(QueryError::Pattern)?);
        }
        let names = patterns
            .iter()
            .map(|p| Some(p.as_ref().to_owned()))
            .collect();
        Ok(Self::build(dfas, names, alphabet, budget, false))
    }

    fn build(
        dfas: Vec<Dfa>,
        patterns: Vec<Option<String>>,
        alphabet: &Alphabet,
        budget: usize,
        compress: bool,
    ) -> QuerySet {
        let k = alphabet.len();
        for d in &dfas {
            assert_eq!(d.n_letters(), k, "query-set DFA over a different alphabet");
        }
        let lexer = TagLexer::new(alphabet);
        let mut members = Vec::with_capacity(dfas.len());
        let mut plans = Vec::with_capacity(dfas.len());
        for (d, pattern) in dfas.iter().zip(patterns) {
            let plan = CompiledQuery::compile(d);
            members.push(SetMember {
                pattern,
                strategy: plan.strategy(),
                dfa: plan.minimal_dfa().clone(),
            });
            plans.push(plan);
        }
        let all_registerless = !plans.is_empty() && plans.iter().all(|p| p.markup_dfa().is_some());
        let backend = if all_registerless {
            let markups: Vec<&Dfa> = plans.iter().map(|p| p.markup_dfa().unwrap()).collect();
            let product = if budget == 0 {
                None
            } else {
                let (class_of, n_classes) = if compress {
                    letter_classes(&markups)
                } else {
                    ((0..2 * k).collect(), 2 * k)
                };
                product_many(&markups, &class_of, n_classes, budget)
                    .map(|mp| ProductTable::from_product(mp, &markups, &class_of))
            };
            match product {
                Some(table) => SetBackend::Product(table),
                None => SetBackend::Lanes(FamilyTable::build(&markups)),
            }
        } else if plans.is_empty() {
            SetBackend::Lanes(FamilyTable::build(&[]))
        } else {
            let engines = plans
                .iter()
                .map(|p| {
                    if let Some(m) = p.markup_dfa() {
                        LaneEngine::Markup(m.clone())
                    } else if let Some(h) = p.har_program() {
                        LaneEngine::Har(h.clone())
                    } else {
                        LaneEngine::Stack(p.minimal_dfa().clone())
                    }
                })
                .collect();
            SetBackend::Hybrid(engines)
        };
        let fingerprint = set_fingerprint(&members, backend_tag(&backend), compress, alphabet);
        QuerySet {
            alphabet: alphabet.clone(),
            lexer,
            members,
            backend,
            compressed: compress,
            fingerprint,
        }
    }

    /// Number of member queries.
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// Whether the set has no members (still a valid machine: it
    /// validates the document and reports no matches).
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// The alphabet the set was compiled over.
    pub fn alphabet(&self) -> &Alphabet {
        &self.alphabet
    }

    /// The evaluation tier the compiler picked.
    pub fn strategy(&self) -> SetStrategy {
        match &self.backend {
            SetBackend::Product(_) => SetStrategy::Product,
            SetBackend::Lanes(_) => SetStrategy::Lanes,
            SetBackend::Hybrid(_) => SetStrategy::Hybrid,
        }
    }

    /// The planner strategy of member `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn member_strategy(&self, i: usize) -> Strategy {
        self.members[i].strategy
    }

    /// The source pattern of member `i`, when the set was compiled from
    /// patterns.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn member_pattern(&self, i: usize) -> Option<&str> {
        self.members[i].pattern.as_deref()
    }

    /// Product tier only: the shared DFA's state count.
    pub fn product_states(&self) -> Option<usize> {
        match &self.backend {
            SetBackend::Product(t) => Some(t.n_states),
            _ => None,
        }
    }

    /// Product tier only: the number of compressed letter classes (out
    /// of the raw `2k` markup letters).
    pub fn product_classes(&self) -> Option<usize> {
        match &self.backend {
            SetBackend::Product(t) => Some(t.n_classes),
            _ => None,
        }
    }

    /// Whether the product tier was built with letter-class compression
    /// (always true outside [`Self::compile_uncompressed`]).
    pub fn is_compressed(&self) -> bool {
        self.compressed
    }

    /// Forces (or re-enables) the scalar byte path for this set's runs;
    /// the per-set twin of the process-wide `ST_FORCE_SCALAR` escape
    /// hatch.  Results are bitwise identical either way.
    pub fn set_force_scalar(&mut self, on: bool) {
        self.lexer.set_force_scalar(on);
    }

    /// Whether the scalar byte path is forced for this set.
    pub fn force_scalar(&self) -> bool {
        self.lexer.force_scalar()
    }

    // -- one-shot evaluation ------------------------------------------------

    /// Per-query match counts from one pass over raw document bytes.
    /// `counts[q]` equals `Query::compile(pattern_q).count(bytes)`.
    ///
    /// # Errors
    ///
    /// The same structural diagnostics as the single-query engines.
    pub fn count_all(&self, bytes: &[u8]) -> Result<Vec<usize>, TreeError> {
        self.count_all_stats(bytes).map(|(c, _)| c)
    }

    /// [`Self::count_all`] plus the structural-index window tallies of
    /// the pass.
    ///
    /// # Errors
    ///
    /// As for [`Self::count_all`].
    pub fn count_all_stats(&self, bytes: &[u8]) -> Result<(Vec<usize>, ScanStats), TreeError> {
        let mut emit = CountEmit {
            counts: vec![0; self.members.len()],
        };
        let mut stats = ScanStats::default();
        self.run_emit(bytes, &mut emit, &mut stats)?;
        Ok((emit.counts, stats))
    }

    /// Per-query selected node ids (document order) from one pass.
    /// `sel[q]` equals `Query::compile(pattern_q).select(bytes)`.
    ///
    /// # Errors
    ///
    /// As for [`Self::count_all`].
    pub fn select_all(&self, bytes: &[u8]) -> Result<Vec<Vec<usize>>, TreeError> {
        self.select_all_stats(bytes).map(|(s, _)| s)
    }

    /// [`Self::select_all`] plus the structural-index window tallies.
    ///
    /// # Errors
    ///
    /// As for [`Self::count_all`].
    pub fn select_all_stats(
        &self,
        bytes: &[u8],
    ) -> Result<(Vec<Vec<usize>>, ScanStats), TreeError> {
        let mut emit = SelectEmit {
            sel: vec![Vec::new(); self.members.len()],
        };
        let mut stats = ScanStats::default();
        self.run_emit(bytes, &mut emit, &mut stats)?;
        Ok((emit.sel, stats))
    }

    fn run_emit<E: Emit>(
        &self,
        bytes: &[u8],
        emit: &mut E,
        stats: &mut ScanStats,
    ) -> Result<(), TreeError> {
        let mut walk = Walk {
            node: 0,
            depth: 0,
            guard: NoGuard,
        };
        let certify = self.lexer.certify(false);
        match self.drive(
            &mut self.fresh_state(),
            bytes,
            TEXT,
            certify,
            &mut walk,
            emit,
            stats,
        ) {
            ScanEnd::Complete { lex: TEXT } => Ok(()),
            // Any failure re-scans cold for the exact single-query
            // diagnostic (same offset and message as `Query::count`).
            _ => Err(rescan_error(bytes, &self.alphabet)),
        }
    }

    /// The tier state at document start.
    fn fresh_state(&self) -> QsState {
        match &self.backend {
            SetBackend::Product(t) => QsState::Product { s: t.init },
            SetBackend::Lanes(t) => QsState::Lanes {
                cur: t.init.clone(),
            },
            SetBackend::Hybrid(engines) => QsState::Hybrid {
                lanes: engines.iter().map(fresh_lane).collect(),
            },
        }
    }

    /// Scans `bytes` from lexer state `lex` through the tier's sink,
    /// advancing `state` and `walk` — the one byte pass of every
    /// one-shot run and session window.
    #[allow(clippy::too_many_arguments)]
    fn drive<E: Emit, G: Guard + Copy>(
        &self,
        state: &mut QsState,
        bytes: &[u8],
        lex: u16,
        certify: bool,
        walk: &mut Walk<G>,
        emit: &mut E,
        stats: &mut ScanStats,
    ) -> ScanEnd {
        let k = self.lexer.k();
        let lexer = &self.lexer;
        match (state, &self.backend) {
            (QsState::Product { s }, SetBackend::Product(t)) => {
                let mut sink = ProductSink {
                    k,
                    t,
                    s: *s,
                    walk: *walk,
                    emit,
                };
                let end = structural_scan(lexer, bytes, lex, certify, stats, &mut sink);
                *s = sink.s;
                *walk = sink.walk;
                end
            }
            (QsState::Lanes { cur }, SetBackend::Lanes(t)) => {
                let mut sink = LaneSink {
                    k,
                    t,
                    cur: std::mem::take(cur),
                    buf: vec![0; t.n_members().div_ceil(64)],
                    walk: *walk,
                    emit,
                };
                let end = structural_scan(lexer, bytes, lex, certify, stats, &mut sink);
                *cur = sink.cur;
                *walk = sink.walk;
                end
            }
            (QsState::Hybrid { lanes }, SetBackend::Hybrid(engines)) => {
                let mut sink = HybridSink {
                    k,
                    engines,
                    lanes: std::mem::take(lanes),
                    buf: vec![0; engines.len().div_ceil(64)],
                    walk: *walk,
                    emit,
                };
                let end = structural_scan(lexer, bytes, lex, certify, stats, &mut sink);
                *lanes = sink.lanes;
                *walk = sink.walk;
                end
            }
            _ => unreachable!("state/backend agree by construction"),
        }
    }
}

fn backend_tag(backend: &SetBackend) -> u8 {
    match backend {
        SetBackend::Product(_) => TAG_PRODUCT,
        SetBackend::Lanes(_) => TAG_LANES,
        SetBackend::Hybrid(_) => TAG_HYBRID,
    }
}

fn set_fingerprint(members: &[SetMember], tier: u8, compressed: bool, alphabet: &Alphabet) -> u64 {
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    fnv_bytes(&mut h, &QS_MAGIC);
    fnv_usize(&mut h, tier as usize);
    fnv_usize(&mut h, compressed as usize);
    fnv_usize(&mut h, members.len());
    for sym in alphabet_symbols(alphabet) {
        fnv_bytes(&mut h, sym.as_bytes());
    }
    for m in members {
        fnv_dfa(&mut h, &m.dfa);
    }
    h
}

impl ProductTable {
    fn from_product(mp: MultiProduct, markups: &[&Dfa], class_of: &[usize]) -> ProductTable {
        let n_states = mp.tuples.len();
        let words = markups.len().div_ceil(64);
        let delta = mp
            .delta
            .iter()
            .map(|&d| u32::try_from(d).expect("product states fit u32"))
            .collect();
        let mut accept = vec![0u64; n_states * words];
        for (s, tuple) in mp.tuples.iter().enumerate() {
            for (i, (&st, d)) in tuple.iter().zip(markups).enumerate() {
                if d.is_accepting(st) {
                    accept[s * words + (i >> 6)] |= 1 << (i & 63);
                }
            }
        }
        ProductTable {
            n_classes: mp.n_classes,
            n_states,
            words,
            init: 0,
            class_of: class_of
                .iter()
                .map(|&c| u16::try_from(c).expect("letter classes fit u16"))
                .collect(),
            delta,
            accept,
        }
    }
}

// ---------------------------------------------------------------------------
// Tier sinks (monomorphized per tier × collector × guard)
// ---------------------------------------------------------------------------

/// Where a pass stands between scans: the id of the next opened node,
/// the depth (the hybrid tier's HAR lanes register it), and the guard.
#[derive(Clone, Copy)]
struct Walk<G> {
    node: usize,
    depth: i64,
    guard: G,
}

/// What a multi-query sink does with an attributed match: bit `q` of
/// `masks` set means member `q` selected node `node`.
trait Emit {
    fn hit(&mut self, masks: &[u64], node: usize);
}

struct CountEmit {
    counts: Vec<usize>,
}

impl Emit for CountEmit {
    #[inline]
    fn hit(&mut self, masks: &[u64], _node: usize) {
        for (w, &word0) in masks.iter().enumerate() {
            let mut word = word0;
            while word != 0 {
                self.counts[(w << 6) + word.trailing_zeros() as usize] += 1;
                word &= word - 1;
            }
        }
    }
}

struct SelectEmit {
    sel: Vec<Vec<usize>>,
}

impl Emit for SelectEmit {
    #[inline]
    fn hit(&mut self, masks: &[u64], node: usize) {
        for (w, &word0) in masks.iter().enumerate() {
            let mut word = word0;
            while word != 0 {
                self.sel[(w << 6) + word.trailing_zeros() as usize].push(node);
                word &= word - 1;
            }
        }
    }
}

struct ProductSink<'a, E: Emit, G> {
    k: usize,
    t: &'a ProductTable,
    s: u32,
    walk: Walk<G>,
    emit: &'a mut E,
}

impl<E: Emit, G: Guard> EventSink for ProductSink<'_, E, G> {
    #[inline]
    fn event(&mut self, ev: u16, pos: usize) -> bool {
        if !self.walk.guard.admit(ev, pos) {
            return false;
        }
        let t = self.t;
        let (open_l, close_l) = decode_event(ev, self.k);
        if let Some(l) = open_l {
            self.s = t.delta[self.s as usize * t.n_classes + t.class_of[l] as usize];
            let masks = &t.accept[self.s as usize * t.words..][..t.words];
            if masks.iter().any(|&w| w != 0) {
                self.emit.hit(masks, self.walk.node);
            }
            self.walk.node += 1;
        }
        if let Some(l) = close_l {
            self.s = t.delta[self.s as usize * t.n_classes + t.class_of[self.k + l] as usize];
        }
        true
    }
}

struct LaneSink<'a, E: Emit, G> {
    k: usize,
    t: &'a FamilyTable,
    cur: Vec<u32>,
    buf: Vec<u64>,
    walk: Walk<G>,
    emit: &'a mut E,
}

impl<E: Emit, G: Guard> EventSink for LaneSink<'_, E, G> {
    #[inline]
    fn event(&mut self, ev: u16, pos: usize) -> bool {
        if !self.walk.guard.admit(ev, pos) {
            return false;
        }
        let t = self.t;
        let nl = t.n_letters;
        let (open_l, close_l) = decode_event(ev, self.k);
        if let Some(l) = open_l {
            self.buf.fill(0);
            let mut any = 0u64;
            for (i, s) in self.cur.iter_mut().enumerate() {
                let ns = t.delta[*s as usize * nl + l];
                *s = ns;
                let bit = (t.accepting[ns as usize >> 6] >> (ns as usize & 63)) & 1;
                self.buf[i >> 6] |= bit << (i & 63);
                any |= bit;
            }
            if any != 0 {
                self.emit.hit(&self.buf, self.walk.node);
            }
            self.walk.node += 1;
        }
        if let Some(l) = close_l {
            for s in self.cur.iter_mut() {
                *s = t.delta[*s as usize * nl + self.k + l];
            }
        }
        true
    }
}

struct HybridSink<'a, E: Emit, G> {
    k: usize,
    engines: &'a [LaneEngine],
    lanes: Vec<LaneState>,
    buf: Vec<u64>,
    walk: Walk<G>,
    emit: &'a mut E,
}

impl<E: Emit, G: Guard> EventSink for HybridSink<'_, E, G> {
    #[inline]
    fn event(&mut self, ev: u16, pos: usize) -> bool {
        if !self.walk.guard.admit(ev, pos) {
            return false;
        }
        let (open_l, close_l) = decode_event(ev, self.k);
        if let Some(l) = open_l {
            self.walk.depth += 1;
            self.buf.fill(0);
            let mut any = false;
            for (i, (engine, lane)) in self.engines.iter().zip(&mut self.lanes).enumerate() {
                if lane_open(engine, lane, l, self.walk.depth) {
                    self.buf[i >> 6] |= 1 << (i & 63);
                    any = true;
                }
            }
            if any {
                self.emit.hit(&self.buf, self.walk.node);
            }
            self.walk.node += 1;
        }
        if let Some(l) = close_l {
            self.walk.depth -= 1;
            for (engine, lane) in self.engines.iter().zip(&mut self.lanes) {
                lane_close(engine, lane, self.k, l, self.walk.depth);
            }
        }
        true
    }
}

// ---------------------------------------------------------------------------
// Checkpoints
// ---------------------------------------------------------------------------

/// Tier-specific frozen state inside a [`QuerySetCheckpoint`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum QuerySetCheckpointState {
    /// Product tier: the shared product DFA state.
    Product {
        /// Current product state.
        state: u32,
    },
    /// Lanes tier: one global family-table state per member.
    Lanes {
        /// Current lane states.
        lanes: Vec<u32>,
    },
    /// Hybrid tier: one native engine state per member.
    Hybrid {
        /// Current lane states, one per member.
        lanes: Vec<HybridLaneCheckpoint>,
    },
}

/// One hybrid member's frozen state.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum HybridLaneCheckpoint {
    /// Registerless member: markup DFA state.
    Markup {
        /// Current markup DFA state.
        state: u32,
    },
    /// Stackless member: HAR run (current state, dead flag, chain).
    Har {
        /// Current HAR DFA state.
        current: u32,
        /// Whether the run is dead.
        dead: bool,
        /// The SCC chain: `(state, depth_register)` pairs.
        chain: Vec<(u16, i64)>,
    },
    /// General member: DFA state plus explicit stack frames.
    Stack {
        /// Current DFA state.
        current: u32,
        /// Saved pre-open states, innermost last.
        frames: Vec<u32>,
    },
}

/// A frozen multi-query session at a byte boundary: everything needed
/// to resume is explicit, versioned, and validated on the way back in
/// (wire magic `STQS`).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct QuerySetCheckpoint {
    fingerprint: u64,
    alphabet: Vec<String>,
    offset: u64,
    node: u64,
    depth: i64,
    lex: u16,
    state: QuerySetCheckpointState,
}

impl QuerySetCheckpoint {
    /// The tier that minted this checkpoint.
    pub fn strategy(&self) -> SetStrategy {
        match &self.state {
            QuerySetCheckpointState::Product { .. } => SetStrategy::Product,
            QuerySetCheckpointState::Lanes { .. } => SetStrategy::Lanes,
            QuerySetCheckpointState::Hybrid { .. } => SetStrategy::Hybrid,
        }
    }

    /// Absolute byte offset of the freeze point.
    pub fn offset(&self) -> usize {
        self.offset as usize
    }

    /// Document-order id the next opened node will get.
    pub fn next_node(&self) -> usize {
        self.node as usize
    }

    /// Depth (opens minus closes) at the freeze point.
    pub fn depth(&self) -> i64 {
        self.depth
    }

    /// Symbols of the alphabet the minting set was compiled over.
    pub fn alphabet_symbols(&self) -> &[String] {
        &self.alphabet
    }

    /// Serializes to the versioned little-endian wire format.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut w = Vec::with_capacity(64);
        w.extend_from_slice(&QS_MAGIC);
        put_u16(&mut w, QUERYSET_CHECKPOINT_VERSION);
        let tag = match &self.state {
            QuerySetCheckpointState::Product { .. } => TAG_PRODUCT,
            QuerySetCheckpointState::Lanes { .. } => TAG_LANES,
            QuerySetCheckpointState::Hybrid { .. } => TAG_HYBRID,
        };
        w.push(tag);
        put_u64(&mut w, self.fingerprint);
        put_u16(&mut w, self.alphabet.len() as u16);
        for sym in &self.alphabet {
            put_u16(&mut w, sym.len() as u16);
            w.extend_from_slice(sym.as_bytes());
        }
        put_u64(&mut w, self.offset);
        put_u64(&mut w, self.node);
        put_i64(&mut w, self.depth);
        put_u16(&mut w, self.lex);
        match &self.state {
            QuerySetCheckpointState::Product { state } => put_u32(&mut w, *state),
            QuerySetCheckpointState::Lanes { lanes } => {
                put_u32(&mut w, lanes.len() as u32);
                for &s in lanes {
                    put_u32(&mut w, s);
                }
            }
            QuerySetCheckpointState::Hybrid { lanes } => {
                put_u32(&mut w, lanes.len() as u32);
                for lane in lanes {
                    match lane {
                        HybridLaneCheckpoint::Markup { state } => {
                            w.push(LANE_MARKUP);
                            put_u32(&mut w, *state);
                        }
                        HybridLaneCheckpoint::Har {
                            current,
                            dead,
                            chain,
                        } => {
                            w.push(LANE_HAR);
                            put_u32(&mut w, *current);
                            w.push(u8::from(*dead));
                            put_u16(&mut w, chain.len() as u16);
                            for (s, r) in chain {
                                put_u16(&mut w, *s);
                                put_i64(&mut w, *r);
                            }
                        }
                        HybridLaneCheckpoint::Stack { current, frames } => {
                            w.push(LANE_STACK);
                            put_u32(&mut w, *current);
                            put_u32(&mut w, frames.len() as u32);
                            for &f in frames {
                                put_u32(&mut w, f);
                            }
                        }
                    }
                }
            }
        }
        w
    }

    /// Deserializes and structurally validates a checkpoint.  Semantic
    /// validation against a concrete query set (fingerprint, state
    /// ranges) happens in [`QuerySet::resume`].
    ///
    /// # Errors
    ///
    /// [`SessionError::Checkpoint`] on any malformed, truncated, or
    /// trailing-garbage input.
    pub fn from_bytes(bytes: &[u8]) -> Result<QuerySetCheckpoint, SessionError> {
        let mut r = Reader::new(bytes);
        if r.take(4)? != QS_MAGIC {
            return Err(corrupt("bad magic: not a query-set checkpoint"));
        }
        let version = r.u16()?;
        if version != QUERYSET_CHECKPOINT_VERSION {
            return Err(corrupt(format!("unsupported checkpoint version {version}")));
        }
        let tag = r.u8()?;
        let fingerprint = r.u64()?;
        let n_syms = r.u16()? as usize;
        let mut alphabet = Vec::with_capacity(n_syms.min(r.remaining() / 2));
        for _ in 0..n_syms {
            let len = r.u16()? as usize;
            let raw = r.take(len)?;
            let sym = std::str::from_utf8(raw)
                .map_err(|_| corrupt("alphabet symbol is not UTF-8"))?
                .to_owned();
            alphabet.push(sym);
        }
        let offset = r.u64()?;
        let node = r.u64()?;
        let depth = r.i64()?;
        let lex = r.u16()?;
        let state = match tag {
            TAG_PRODUCT => QuerySetCheckpointState::Product { state: r.u32()? },
            TAG_LANES => {
                let n = r.u32()? as usize;
                if n * 4 > r.remaining() {
                    return Err(corrupt("lane count exceeds checkpoint size"));
                }
                let mut lanes = Vec::with_capacity(n);
                for _ in 0..n {
                    lanes.push(r.u32()?);
                }
                QuerySetCheckpointState::Lanes { lanes }
            }
            TAG_HYBRID => {
                let n = r.u32()? as usize;
                if n > r.remaining() {
                    return Err(corrupt("lane count exceeds checkpoint size"));
                }
                let mut lanes = Vec::with_capacity(n);
                for _ in 0..n {
                    let lane_tag = r.u8()?;
                    lanes.push(match lane_tag {
                        LANE_MARKUP => HybridLaneCheckpoint::Markup { state: r.u32()? },
                        LANE_HAR => {
                            let current = r.u32()?;
                            let dead = match r.u8()? {
                                0 => false,
                                1 => true,
                                _ => return Err(corrupt("har dead flag is not a boolean")),
                            };
                            let chain_len = r.u16()? as usize;
                            if chain_len > MAX_CHAIN {
                                return Err(corrupt("har chain longer than MAX_CHAIN"));
                            }
                            let mut chain = Vec::with_capacity(chain_len);
                            for _ in 0..chain_len {
                                let s = r.u16()?;
                                let reg = r.i64()?;
                                chain.push((s, reg));
                            }
                            HybridLaneCheckpoint::Har {
                                current,
                                dead,
                                chain,
                            }
                        }
                        LANE_STACK => {
                            let current = r.u32()?;
                            let n_frames = r.u32()? as usize;
                            if n_frames * 4 > r.remaining() {
                                return Err(corrupt("stack frames exceed checkpoint size"));
                            }
                            let mut frames = Vec::with_capacity(n_frames);
                            for _ in 0..n_frames {
                                frames.push(r.u32()?);
                            }
                            HybridLaneCheckpoint::Stack { current, frames }
                        }
                        _ => return Err(corrupt("unknown hybrid lane tag")),
                    });
                }
                QuerySetCheckpointState::Hybrid { lanes }
            }
            _ => return Err(corrupt("unknown query-set tier tag")),
        };
        if !r.at_end() {
            return Err(corrupt("trailing bytes after checkpoint"));
        }
        Ok(QuerySetCheckpoint {
            fingerprint,
            alphabet,
            offset,
            node,
            depth,
            lex,
            state,
        })
    }
}

// ---------------------------------------------------------------------------
// Sessions
// ---------------------------------------------------------------------------

/// The final tallies of a completed multi-query session.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct QuerySetOutcome {
    /// Per-member document-order ids of the nodes selected *during this
    /// session* (a resumed session reports the tail's matches; node ids
    /// stay global, so prefix + tail concatenate to the whole run).
    pub matches: Vec<Vec<usize>>,
    /// Total nodes opened from the start of the document.
    pub nodes: usize,
}

impl QuerySetOutcome {
    /// Per-member match counts (`matches[q].len()` for each member).
    pub fn counts(&self) -> Vec<usize> {
        self.matches.iter().map(Vec::len).collect()
    }
}

enum QsState {
    Product { s: u32 },
    Lanes { cur: Vec<u32> },
    Hybrid { lanes: Vec<LaneState> },
}

/// An incremental, checkpointable run of a [`QuerySet`] under a set of
/// [`Limits`].  Feed the document in arbitrary segments; freeze at any
/// byte boundary with [`Self::checkpoint`]; close with [`Self::finish`].
pub struct QuerySetSession<'q> {
    set: &'q QuerySet,
    limits: Limits,
    started: std::time::Duration,
    offset: usize,
    node: usize,
    node_base: usize,
    depth: i64,
    lex: u16,
    matches: Vec<Vec<usize>>,
    state: QsState,
    failed: Option<SessionError>,
    obs: Option<SessObs>,
}

impl<'q> QuerySetSession<'q> {
    fn fresh(set: &'q QuerySet, limits: Limits) -> QuerySetSession<'q> {
        let state = set.fresh_state();
        let started = limits.now();
        let obs = SessObs::attach(&limits.obs, 0);
        QuerySetSession {
            set,
            limits,
            started,
            offset: 0,
            node: 0,
            node_base: 0,
            depth: 0,
            lex: TEXT,
            matches: vec![Vec::new(); set.members.len()],
            state,
            failed: None,
            obs,
        }
    }

    /// The id this session carries in its observability handle's trace
    /// (0 when unobserved).
    pub fn obs_session_id(&self) -> u64 {
        self.obs.as_ref().map_or(0, |o| o.id)
    }

    /// Absolute byte offset consumed so far.
    pub fn offset(&self) -> usize {
        self.offset
    }

    /// Total nodes opened so far (document-order id of the next open).
    pub fn node_count(&self) -> usize {
        self.node
    }

    /// Current depth (opens minus closes).
    pub fn depth(&self) -> i64 {
        self.depth
    }

    /// Per-member ids of nodes selected during this session so far.
    pub fn matches(&self) -> &[Vec<usize>] {
        &self.matches
    }

    /// Feeds the next segment of the document.  Errors are sticky: once
    /// a feed fails, the session stays failed.
    ///
    /// # Errors
    ///
    /// [`SessionError::Parse`] at the first malformed byte or
    /// [`SessionError::Limit`] when a budget is crossed.
    pub fn feed(&mut self, segment: &[u8]) -> Result<(), SessionError> {
        if let Some(e) = &self.failed {
            return Err(e.clone());
        }
        let feed_start = self.offset;
        let res = self.feed_inner(segment);
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

    fn feed_inner(&mut self, segment: &[u8]) -> Result<(), SessionError> {
        let mut pos = 0usize;
        while pos < segment.len() {
            let mut end = (pos + WINDOW).min(segment.len());
            if let Some(mb) = self.limits.max_bytes {
                if self.offset >= mb {
                    return self.fail(SessionError::Limit(LimitExceeded {
                        kind: LimitKind::Bytes,
                        limit: mb as u64,
                        offset: mb,
                    }));
                }
                end = end.min(pos + (mb - self.offset));
            }
            if let Some(tb) = self.limits.time_budget {
                if self.limits.now().saturating_sub(self.started) > tb {
                    return self.fail(SessionError::Limit(LimitExceeded {
                        kind: LimitKind::Time,
                        limit: tb.as_millis() as u64,
                        offset: self.offset,
                    }));
                }
            }
            if let Err(e) = self.run_window(&segment[pos..end]) {
                return self.fail(e);
            }
            self.offset += end - pos;
            pos = end;
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

    /// Processes one window; `self.offset` is the absolute offset of
    /// `w[0]` and is only advanced by the caller afterwards.
    fn run_window(&mut self, w: &[u8]) -> Result<(), SessionError> {
        let lexer = &self.set.lexer;
        let certify = lexer.certify(self.limits.force_scalar);
        let mut stats = ScanStats::default();
        let mut walk = Walk {
            node: self.node,
            depth: self.depth,
            guard: DepthGuard::new(lexer.k(), self.depth, &self.limits),
        };
        let mut emit = SelectEmit {
            sel: std::mem::take(&mut self.matches),
        };
        let end = self.set.drive(
            &mut self.state,
            w,
            self.lex,
            certify,
            &mut walk,
            &mut emit,
            &mut stats,
        );
        self.matches = emit.sel;
        self.node = walk.node;
        self.depth = walk.guard.depth;
        if let Some(o) = &self.obs {
            o.simd_windows.add(stats.simd_windows);
            o.fallback_windows.add(stats.fallback_windows);
        }
        match end {
            ScanEnd::Complete { lex } => {
                self.lex = lex;
                Ok(())
            }
            ScanEnd::Error { pos } => Err(parse_error(self.offset + pos)),
            ScanEnd::Stopped => Err(SessionError::Limit(walk.guard.breach(self.offset))),
        }
    }

    /// Freezes the session at the current byte boundary.
    ///
    /// # Errors
    ///
    /// [`SessionError::Checkpoint`] if the session has already failed —
    /// a failed run has no resumable state.
    pub fn checkpoint(&self) -> Result<QuerySetCheckpoint, SessionError> {
        if let Some(e) = &self.failed {
            return Err(corrupt(format!("session already failed: {e}")));
        }
        let state = match &self.state {
            QsState::Product { s } => QuerySetCheckpointState::Product { state: *s },
            QsState::Lanes { cur } => QuerySetCheckpointState::Lanes { lanes: cur.clone() },
            QsState::Hybrid { lanes } => QuerySetCheckpointState::Hybrid {
                lanes: lanes
                    .iter()
                    .map(|lane| match lane {
                        LaneState::Markup { s } => HybridLaneCheckpoint::Markup { state: *s },
                        LaneState::Har { run } => HybridLaneCheckpoint::Har {
                            current: run.current as u32,
                            dead: run.dead,
                            chain: (0..run.chain_len)
                                .map(|i| (run.chain[i], run.regs[i]))
                                .collect(),
                        },
                        LaneState::Stack { s, frames } => HybridLaneCheckpoint::Stack {
                            current: *s,
                            frames: frames.clone(),
                        },
                    })
                    .collect(),
            },
        };
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
        Ok(QuerySetCheckpoint {
            fingerprint: self.set.fingerprint,
            alphabet: alphabet_symbols(&self.set.alphabet),
            offset: self.offset as u64,
            node: self.node as u64,
            depth: self.depth,
            lex: self.lex,
            state,
        })
    }

    /// Declares end-of-input and returns the session's tallies.
    ///
    /// # Errors
    ///
    /// The sticky error if the session already failed, or
    /// [`SessionError::Parse`] if the input ended inside markup.
    pub fn finish(self) -> Result<QuerySetOutcome, SessionError> {
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
            o.matches
                .add(self.matches.iter().map(|m| m.len() as u64).sum());
        }
        Ok(QuerySetOutcome {
            matches: self.matches,
            nodes: self.node,
        })
    }
}

impl QuerySet {
    /// Opens a fresh resilient multi-query session under `limits`.
    pub fn session(&self, limits: Limits) -> QuerySetSession<'_> {
        let session = QuerySetSession::fresh(self, limits);
        if let Some(o) = &session.obs {
            o.obs.counter("session_started_total").incr();
            o.obs.trace(TraceEvent::SessionStart { session: o.id });
        }
        session
    }

    /// Reopens a session from a checkpoint minted by the *same* query
    /// set (verified by fingerprint).
    ///
    /// # Errors
    ///
    /// [`SessionError::Checkpoint`] on a tier or fingerprint mismatch,
    /// or any out-of-range frozen state.
    pub fn resume(
        &self,
        checkpoint: &QuerySetCheckpoint,
        limits: Limits,
    ) -> Result<QuerySetSession<'_>, SessionError> {
        if checkpoint.strategy() != self.strategy() {
            return Err(corrupt(format!(
                "checkpoint is for a {:?} tier; this set plans {:?}",
                checkpoint.strategy(),
                self.strategy()
            )));
        }
        if checkpoint.fingerprint != self.fingerprint {
            return Err(corrupt(
                "checkpoint was minted by a different query set or alphabet",
            ));
        }
        const MAX_STREAM_OFFSET: u64 = 1 << 60;
        if checkpoint.offset > MAX_STREAM_OFFSET {
            return Err(corrupt("stream offset implausibly large"));
        }
        if checkpoint.node > checkpoint.offset {
            return Err(corrupt("node counter exceeds bytes consumed"));
        }
        if checkpoint.depth.unsigned_abs() > checkpoint.offset {
            return Err(corrupt("depth exceeds bytes consumed"));
        }
        if checkpoint.lex as usize >= self.lexer.n_states() {
            return Err(corrupt("lexer state out of range"));
        }
        let state = match (&checkpoint.state, &self.backend) {
            (QuerySetCheckpointState::Product { state }, SetBackend::Product(t)) => {
                if *state as usize >= t.n_states {
                    return Err(corrupt("product state out of range"));
                }
                QsState::Product { s: *state }
            }
            (QuerySetCheckpointState::Lanes { lanes }, SetBackend::Lanes(t)) => {
                if lanes.len() != t.n_members() {
                    return Err(corrupt("lane count does not match the query set"));
                }
                for (i, &s) in lanes.iter().enumerate() {
                    if !t.in_block(i, s) {
                        return Err(corrupt("lane state out of range"));
                    }
                }
                QsState::Lanes { cur: lanes.clone() }
            }
            (QuerySetCheckpointState::Hybrid { lanes }, SetBackend::Hybrid(engines)) => {
                if lanes.len() != engines.len() {
                    return Err(corrupt("lane count does not match the query set"));
                }
                let mut restored = Vec::with_capacity(lanes.len());
                for (lane, engine) in lanes.iter().zip(engines) {
                    restored.push(restore_lane(lane, engine, checkpoint.offset)?);
                }
                QsState::Hybrid { lanes: restored }
            }
            _ => unreachable!("tier equality checked above"),
        };
        let mut session = QuerySetSession::fresh(self, limits);
        session.offset = checkpoint.offset as usize;
        session.node = checkpoint.node as usize;
        session.node_base = checkpoint.node as usize;
        session.depth = checkpoint.depth;
        session.lex = checkpoint.lex;
        session.state = state;
        if let Some(o) = &session.obs {
            o.last_checkpoint_offset.set(checkpoint.offset);
            o.obs.counter("session_resumed_total").incr();
            o.obs.trace(TraceEvent::SessionResume {
                session: o.id,
                offset: checkpoint.offset,
            });
        }
        Ok(session)
    }

    /// Runs the whole document through a session in one call.
    ///
    /// # Errors
    ///
    /// As for [`QuerySetSession::feed`] / [`QuerySetSession::finish`].
    pub fn run_session(
        &self,
        bytes: &[u8],
        limits: &Limits,
    ) -> Result<QuerySetOutcome, SessionError> {
        let mut session = self.session(limits.clone());
        session.feed(bytes)?;
        session.finish()
    }

    /// Runs the document, freezing a checkpoint at each cut offset (out
    /// of range or unordered cuts are ignored).  Returns the final
    /// tallies and the checkpoints, one per surviving cut in order.
    ///
    /// # Errors
    ///
    /// As for [`QuerySetSession::feed`] / [`QuerySetSession::finish`].
    pub fn run_with_checkpoints(
        &self,
        bytes: &[u8],
        cuts: &[usize],
        limits: &Limits,
    ) -> Result<(QuerySetOutcome, Vec<QuerySetCheckpoint>), SessionError> {
        let mut session = self.session(limits.clone());
        let mut checkpoints = Vec::new();
        let mut prev = 0usize;
        for &cut in cuts {
            if cut < prev || cut > bytes.len() {
                continue;
            }
            session.feed(&bytes[prev..cut])?;
            checkpoints.push(session.checkpoint()?);
            prev = cut;
        }
        session.feed(&bytes[prev..])?;
        Ok((session.finish()?, checkpoints))
    }

    /// Resumes from `checkpoint` and runs the remainder of the document.
    /// The outcome's matches are those of the tail; node ids are global.
    ///
    /// # Errors
    ///
    /// As for [`Self::resume`] / [`QuerySetSession::feed`] /
    /// [`QuerySetSession::finish`].
    pub fn resume_from(
        &self,
        checkpoint: &QuerySetCheckpoint,
        rest: &[u8],
        limits: &Limits,
    ) -> Result<QuerySetOutcome, SessionError> {
        let mut session = self.resume(checkpoint, limits.clone())?;
        session.feed(rest)?;
        session.finish()
    }
}

fn restore_lane(
    lane: &HybridLaneCheckpoint,
    engine: &LaneEngine,
    offset: u64,
) -> Result<LaneState, SessionError> {
    Ok(match (lane, engine) {
        (HybridLaneCheckpoint::Markup { state }, LaneEngine::Markup(dfa)) => {
            if *state as usize >= dfa.n_states() {
                return Err(corrupt("markup lane state out of range"));
            }
            LaneState::Markup { s: *state }
        }
        (
            HybridLaneCheckpoint::Har {
                current,
                dead,
                chain,
            },
            LaneEngine::Har(program),
        ) => {
            let dfa = program.core().dfa();
            if *current as usize >= dfa.n_states() || chain.len() > MAX_CHAIN {
                return Err(corrupt("har lane state out of range"));
            }
            let mut run = HarRun::new(program.core());
            run.current = *current as usize;
            run.dead = *dead;
            run.chain_len = chain.len();
            for (i, (s, r)) in chain.iter().enumerate() {
                run.chain[i] = *s;
                run.regs[i] = *r;
            }
            LaneState::Har { run }
        }
        (HybridLaneCheckpoint::Stack { current, frames }, LaneEngine::Stack(dfa)) => {
            if *current as usize >= dfa.n_states() {
                return Err(corrupt("stack lane state out of range"));
            }
            if frames.len() as u64 > offset {
                return Err(corrupt("stack frames exceed bytes consumed"));
            }
            for &f in frames {
                if f as usize >= dfa.n_states() {
                    return Err(corrupt("stack frame out of range"));
                }
            }
            LaneState::Stack {
                s: *current,
                frames: frames.clone(),
            }
        }
        _ => return Err(corrupt("lane kind does not match the member's engine")),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::Query;

    fn g2() -> Alphabet {
        Alphabet::of_chars("ab")
    }

    fn g3() -> Alphabet {
        Alphabet::of_chars("abc")
    }

    /// Every strategy class from the paper's table, plus overlaps.
    const MIXED: &[&str] = &["a.*b", "ab", ".*a.*b", ".*ab", "a.*", ".*"];
    const AR_ONLY: &[&str] = &["a.*b", "a.*", "b.*a", ".*"];

    const DOCS: &[&[u8]] = &[
        b"",
        b"<a></a>",
        b"<a><b></b><a></a></a>",
        b"<a><b><a></a></b></a><b></b>",
        b"<a/><b><a/></b>",
        b"</a><a></a>",
        b"</b></b><a><b></b></a>",
        b"<a attr=\"x\"><b/></a>",
        b"text <a>more<b></b></a> tail",
    ];

    fn independent(patterns: &[&str], alphabet: &Alphabet, doc: &[u8]) -> Vec<Vec<usize>> {
        patterns
            .iter()
            .map(|p| {
                Query::compile(p, alphabet)
                    .unwrap()
                    .select(doc)
                    .expect("single-query run")
            })
            .collect()
    }

    #[test]
    fn tier_selection_follows_the_decision_rule() {
        let set = QuerySet::compile(AR_ONLY, &g2()).unwrap();
        assert_eq!(set.strategy(), SetStrategy::Product);
        assert!(set.product_states().is_some());
        let forced = QuerySet::compile_with_budget(AR_ONLY, &g2(), 0).unwrap();
        assert_eq!(forced.strategy(), SetStrategy::Lanes);
        let mixed = QuerySet::compile(MIXED, &g2()).unwrap();
        assert_eq!(mixed.strategy(), SetStrategy::Hybrid);
    }

    #[test]
    fn every_tier_matches_independent_runs() {
        for (patterns, budget) in [
            (AR_ONLY, DEFAULT_PRODUCT_BUDGET),
            (AR_ONLY, 0),
            (MIXED, DEFAULT_PRODUCT_BUDGET),
        ] {
            let set = QuerySet::compile_with_budget(patterns, &g2(), budget).unwrap();
            for doc in DOCS {
                let expected = independent(patterns, &g2(), doc);
                assert_eq!(
                    set.select_all(doc).unwrap(),
                    expected,
                    "select_all diverged ({:?}, budget {budget}) on {:?}",
                    set.strategy(),
                    String::from_utf8_lossy(doc)
                );
                let counts: Vec<usize> = expected.iter().map(Vec::len).collect();
                assert_eq!(set.count_all(doc).unwrap(), counts);
            }
        }
    }

    #[test]
    fn scalar_and_indexed_paths_agree() {
        for patterns in [AR_ONLY, MIXED] {
            let mut set = QuerySet::compile(patterns, &g2()).unwrap();
            for doc in DOCS {
                let indexed = set.select_all(doc).unwrap();
                set.set_force_scalar(true);
                assert_eq!(set.select_all(doc).unwrap(), indexed);
                set.set_force_scalar(false);
            }
        }
    }

    #[test]
    fn compression_preserves_per_query_semantics() {
        let compressed = QuerySet::compile(AR_ONLY, &g3()).unwrap();
        let raw = QuerySet::compile_uncompressed(AR_ONLY, &g3(), DEFAULT_PRODUCT_BUDGET).unwrap();
        assert_eq!(compressed.strategy(), SetStrategy::Product);
        assert_eq!(raw.strategy(), SetStrategy::Product);
        assert!(compressed.product_classes().unwrap() <= raw.product_classes().unwrap());
        for doc in DOCS {
            assert_eq!(compressed.select_all(doc), raw.select_all(doc));
        }
    }

    #[test]
    fn empty_set_still_validates_the_document() {
        let set = QuerySet::compile::<&str>(&[], &g2()).unwrap();
        assert!(set.is_empty());
        assert_eq!(set.count_all(b"<a></a>").unwrap(), Vec::<usize>::new());
        assert!(set.count_all(b"<a").is_err());
        assert!(set.count_all(b"<zebra></zebra>").is_err());
    }

    #[test]
    fn one_shot_errors_match_the_single_query_engine() {
        let set = QuerySet::compile(AR_ONLY, &g2()).unwrap();
        let q = Query::compile(AR_ONLY[0], &g2()).unwrap();
        for doc in [&b"<a"[..], b"<c></c>", b"< a></a>", b"<a><"] {
            let ours = set.count_all(doc);
            let theirs = q.count(doc);
            match (ours, theirs) {
                (Err(e1), Err(e2)) => assert_eq!(format!("{e1}"), format!("{e2}")),
                (o, t) => panic!("error mismatch on {doc:?}: {o:?} vs {t:?}"),
            }
        }
    }

    #[test]
    fn resume_equals_whole_run_at_every_cut() {
        let doc: &[u8] = b"<a><b><a></a></b><a/></a><b>x</b>";
        for (patterns, budget) in [
            (AR_ONLY, DEFAULT_PRODUCT_BUDGET),
            (AR_ONLY, 0),
            (MIXED, DEFAULT_PRODUCT_BUDGET),
        ] {
            let set = QuerySet::compile_with_budget(patterns, &g2(), budget).unwrap();
            let whole = set.run_session(doc, &Limits::none()).unwrap();
            for cut in 0..=doc.len() {
                let (_, cps) = set
                    .run_with_checkpoints(doc, &[cut], &Limits::none())
                    .unwrap();
                let cp = &cps[0];
                let wire = QuerySetCheckpoint::from_bytes(&cp.to_bytes()).unwrap();
                assert_eq!(&wire, cp, "wire roundtrip at cut {cut}");
                let tail = set
                    .resume_from(&wire, &doc[cut..], &Limits::none())
                    .unwrap();
                let mut joined = set
                    .run_with_checkpoints(doc, &[cut], &Limits::none())
                    .map(|(o, _)| o)
                    .unwrap();
                // Recompose: prefix matches are those of the whole run
                // with node id < the checkpoint's next node.
                for (q, tail_m) in tail.matches.iter().enumerate() {
                    let mut prefix: Vec<usize> = whole.matches[q]
                        .iter()
                        .copied()
                        .filter(|&n| n < wire.next_node())
                        .collect();
                    prefix.extend_from_slice(tail_m);
                    assert_eq!(
                        prefix,
                        whole.matches[q],
                        "resume diverged at cut {cut} (tier {:?}, member {q})",
                        set.strategy()
                    );
                }
                assert_eq!(tail.nodes, whole.nodes, "node tally at cut {cut}");
                joined.matches.clear();
            }
        }
    }

    #[test]
    fn session_agrees_with_one_shot() {
        for (patterns, budget) in [
            (AR_ONLY, DEFAULT_PRODUCT_BUDGET),
            (AR_ONLY, 0),
            (MIXED, DEFAULT_PRODUCT_BUDGET),
        ] {
            let set = QuerySet::compile_with_budget(patterns, &g2(), budget).unwrap();
            for doc in DOCS {
                let one_shot = set.select_all(doc);
                let session = set.run_session(doc, &Limits::none());
                match (one_shot, session) {
                    (Ok(sel), Ok(out)) => assert_eq!(sel, out.matches),
                    (Err(_), Err(_)) => {}
                    (o, s) => panic!("one-shot/session disagree on {doc:?}: {o:?} vs {s:?}"),
                }
            }
        }
    }

    #[test]
    fn limits_are_enforced() {
        let set = QuerySet::compile(MIXED, &g2()).unwrap();
        let deep = b"<a><a><a><a></a></a></a></a>";
        let err = set
            .run_session(deep, &Limits::none().with_max_depth(2))
            .unwrap_err();
        assert!(matches!(
            err,
            SessionError::Limit(LimitExceeded {
                kind: LimitKind::Depth,
                ..
            })
        ));
        let err = set
            .run_session(deep, &Limits::none().with_max_bytes(4))
            .unwrap_err();
        assert!(matches!(
            err,
            SessionError::Limit(LimitExceeded {
                kind: LimitKind::Bytes,
                ..
            })
        ));
    }

    #[test]
    fn hostile_checkpoints_are_rejected() {
        let set = QuerySet::compile(MIXED, &g2()).unwrap();
        let (_, cps) = set
            .run_with_checkpoints(b"<a><b></b></a>", &[7], &Limits::none())
            .unwrap();
        let wire = cps[0].to_bytes();
        // Truncations at every length must error, never panic.
        for len in 0..wire.len() {
            assert!(QuerySetCheckpoint::from_bytes(&wire[..len]).is_err());
        }
        // Trailing garbage.
        let mut padded = wire.clone();
        padded.push(0);
        assert!(QuerySetCheckpoint::from_bytes(&padded).is_err());
        // A different set refuses the checkpoint.
        let other = QuerySet::compile(AR_ONLY, &g2()).unwrap();
        let cp = QuerySetCheckpoint::from_bytes(&wire).unwrap();
        assert!(other.resume(&cp, Limits::none()).is_err());
    }

    #[test]
    fn member_metadata_is_reported() {
        let set = QuerySet::compile(MIXED, &g2()).unwrap();
        assert_eq!(set.len(), MIXED.len());
        assert_eq!(set.member_pattern(0), Some("a.*b"));
        assert_eq!(set.member_strategy(0), Strategy::Registerless);
        assert_eq!(set.member_strategy(1), Strategy::Stackless);
        assert_eq!(set.member_strategy(3), Strategy::Stack);
    }
}
