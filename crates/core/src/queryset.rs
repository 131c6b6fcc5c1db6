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
//!   all of them step in lockstep off the shared event stream.  Members
//!   of one class share work where the class allows it: the registerless
//!   members step as one markup product (they are plain markup DFAs,
//!   Lemma 3.5), and the stack members — which all push at opens and pop
//!   at closes — as one product over Γ with one shared frame stack.  HAR
//!   members, and any group whose product would pass the state budget,
//!   keep one lane each.  Checkpoints project the groups back onto one
//!   lane per member, so the wire form does not depend on the grouping.
//!
//! Sets are built from planned members ([`QuerySet::from_plans`]): a
//! serving edge assembles them from plan-cache hits, and the pattern
//! and DFA constructors plan their members and call it.
//!
//! All three tiers share the byte pass: the structural scan, with
//! certification off under `ST_FORCE_SCALAR` or
//! [`Limits::force_scalar`].  Each tier is one sink type, parameterized
//! by what it collects (counts or node ids) and by its guard (none for
//! one-shot runs, the depth/imbalance budgets for sessions).
//!
//! # Sessions
//!
//! [`QuerySetSession`] is [`crate::session::EngineSession`]'s shell
//! around the tier state: windowed feeds under [`Limits`], and
//! checkpoint/resume at any byte boundary ([`QuerySetCheckpoint`], magic
//! `STQS`), with resume ≡ whole-run at every cut.

use std::collections::HashMap;
use std::sync::Arc;

use st_automata::ops::{letter_classes, product_many, MultiProduct};
use st_automata::{compile_regex, Alphabet, Dfa};
use st_trees::error::TreeError;

use crate::engine::{
    decode_event, rescan_error, thaw_stack, DepthGuard, Guard, HarRun, NoGuard, TagLexer, TEXT,
};
use crate::har::HarMarkupProgram;
use crate::planner::{CompiledQuery, Strategy};
use crate::query::QueryError;
use crate::session::{
    alphabet_symbols, corrupt, fnv_bytes, fnv_dfa, fnv_usize, put_chain, put_u16, put_u32,
    session_methods, CheckpointHeader, Limits, Reader, SessionCore, SessionError, WindowRun,
};
use crate::structural::{structural_scan, EventSink, ScanEnd, ScanStats};

/// Default cap on the shared product DFA's state count.  Past this the
/// compiler falls back to lane-wise simulation (and a hybrid group to
/// one lane per member); `0` disables every product (useful for forcing
/// the lanes paths in differential tests).
pub const DEFAULT_PRODUCT_BUDGET: usize = 4096;

/// Version tag of the [`QuerySetCheckpoint`] wire format.
pub const QUERYSET_CHECKPOINT_VERSION: u16 = 1;

const QS_MAGIC: [u8; 4] = *b"STQS";

const TAG_PRODUCT: u8 = SetStrategy::Product as u8;
const TAG_LANES: u8 = SetStrategy::Lanes as u8;
const TAG_HYBRID: u8 = SetStrategy::Hybrid as u8;

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
    /// Letter → class id (markup letters `0..2k`; Γ letters `0..k` in
    /// the hybrid tier's stack group).
    class_of: Vec<u16>,
    /// Row-major transitions over classes: `delta[s * n_classes + c]`.
    delta: Vec<u32>,
    /// Per-state accepting masks: `accept[s * words .. (s+1) * words]`,
    /// bit `q` set iff member `q`'s DFA accepts in state `s`.
    accept: Vec<u64>,
}

impl ProductTable {
    /// Builds the table of `mp`, the product of `dfas`; `members[j]` is
    /// the set-wide index of `dfas[j]`, the bit its acceptance sets in
    /// masks of `words` words.
    fn from_product(
        mp: &MultiProduct,
        dfas: &[&Dfa],
        members: &[usize],
        words: usize,
        class_of: &[usize],
    ) -> ProductTable {
        let n_states = mp.tuples.len();
        let delta = mp
            .delta
            .iter()
            .map(|&d| u32::try_from(d).expect("product states fit u32"))
            .collect();
        let mut accept = vec![0u64; n_states * words];
        for (s, tuple) in mp.tuples.iter().enumerate() {
            for ((&st, d), &i) in tuple.iter().zip(dfas).zip(members) {
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

    /// The successor of product state `s` on letter `a`.
    #[inline]
    fn step(&self, s: u32, a: usize) -> u32 {
        self.delta[s as usize * self.n_classes + self.class_of[a] as usize]
    }

    /// The accepting mask of product state `s`.
    #[inline]
    fn masks(&self, s: u32) -> &[u64] {
        &self.accept[s as usize * self.words..][..self.words]
    }
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

/// Members stepping as one product — the Product tier's whole set, or
/// one class of the hybrid tier's members: the table (its masks over
/// the whole set's members) and each product state's component tuple,
/// which projects the group onto per-member lanes and lifts lanes back.
struct Group {
    table: ProductTable,
    /// Group members (their set-wide indices), in set order.
    members: Vec<usize>,
    /// `tuples[s * members.len() + j]`: member `j`'s state in product
    /// state `s`.
    tuples: Vec<u32>,
}

impl Group {
    /// The product of the members `ids` (with DFAs `dfas`) over letter
    /// classes (compressed, or the identity map), or `None` when there
    /// are no members, the budget is 0, or the product would pass
    /// `budget` states.
    fn build(
        dfas: &[&Dfa],
        ids: Vec<usize>,
        words: usize,
        budget: usize,
        compress: bool,
    ) -> Option<Group> {
        if ids.is_empty() || budget == 0 {
            return None;
        }
        let (class_of, n_classes) = if compress {
            letter_classes(dfas)
        } else {
            let n = dfas[0].n_letters();
            ((0..n).collect(), n)
        };
        let mp = product_many(dfas, &class_of, n_classes, budget)?;
        let table = ProductTable::from_product(&mp, dfas, &ids, words, &class_of);
        let tuples = mp.tuples.iter().flatten().map(|&q| q as u32).collect();
        Some(Group {
            table,
            members: ids,
            tuples,
        })
    }

    /// Member `j`'s state in product state `s`.
    #[inline]
    fn project(&self, s: u32, j: usize) -> u32 {
        self.tuples[s as usize * self.members.len() + j]
    }

    /// Lifts per-member states back to product states: the returned
    /// closure maps a tuple to its product state, or refuses a tuple no
    /// run reaches.
    fn lifter(&self) -> impl Fn(&[u32]) -> Result<u32, SessionError> + '_ {
        let index: HashMap<&[u32], u32> =
            self.tuples.chunks(self.members.len()).zip(0u32..).collect();
        move |tuple| {
            index
                .get(tuple)
                .copied()
                .ok_or_else(|| corrupt("lane states are not a combination any run reaches"))
        }
    }
}

/// Where a hybrid member's state lives.
#[derive(Clone, Copy)]
enum Seat {
    /// Component `j` of the registerless group.
    Markup(usize),
    /// Component `j` of the stack group.
    Stack(usize),
    /// Lane `i` of the ungrouped members.
    Lane(usize),
}

/// The hybrid tier's machine: the two class groups and the ungrouped
/// lanes.
struct HybridTable {
    /// `u64` words per member mask.
    words: usize,
    /// Registerless members as one markup product (closes are real
    /// transitions).
    markup: Option<Group>,
    /// Stack members as one product over Γ; opens push its state on one
    /// shared frame stack, closes pop it.
    stack: Option<Group>,
    /// Every other member's native engine, with its set-wide index.
    lanes: Vec<(usize, LaneEngine)>,
    /// Per member, in set order.
    seats: Vec<Seat>,
}

impl HybridTable {
    fn build(plans: &[&CompiledQuery], budget: usize, compress: bool) -> HybridTable {
        let words = plans.len().div_ceil(64);
        let (mut markup_ids, mut markups) = (Vec::new(), Vec::new());
        let (mut stack_ids, mut stacks) = (Vec::new(), Vec::new());
        for (i, p) in plans.iter().enumerate() {
            if let Some(m) = p.markup_dfa() {
                markup_ids.push(i);
                markups.push(m);
            } else if p.har_program().is_none() {
                stack_ids.push(i);
                stacks.push(p.minimal_dfa());
            }
        }
        let markup = Group::build(&markups, markup_ids, words, budget, compress);
        let stack = Group::build(&stacks, stack_ids, words, budget, compress);
        let grouped = |g: &Option<Group>, i: usize| {
            g.as_ref()
                .and_then(|g| g.members.iter().position(|&m| m == i))
        };
        let (mut lanes, mut seats) = (Vec::new(), Vec::with_capacity(plans.len()));
        for (i, p) in plans.iter().enumerate() {
            seats.push(if let Some(j) = grouped(&markup, i) {
                Seat::Markup(j)
            } else if let Some(j) = grouped(&stack, i) {
                Seat::Stack(j)
            } else {
                lanes.push((i, lane_engine(p)));
                Seat::Lane(lanes.len() - 1)
            });
        }
        HybridTable {
            words,
            markup,
            stack,
            lanes,
            seats,
        }
    }

    /// The state at document start (a product's initial state is 0).
    fn fresh(&self) -> HybridState {
        HybridState {
            lanes: self.lanes.iter().map(|(_, e)| fresh_lane(e)).collect(),
            ..HybridState::default()
        }
    }

    /// Projects the state onto one checkpoint lane per member.
    fn freeze(&self, st: &HybridState) -> Vec<HybridLaneCheckpoint> {
        let (markup, stack) = (self.markup.as_ref(), self.stack.as_ref());
        let seated = "seated members have a group";
        self.seats
            .iter()
            .map(|seat| match *seat {
                Seat::Markup(j) => HybridLaneCheckpoint::Markup {
                    state: markup.expect(seated).project(st.markup, j),
                },
                Seat::Stack(j) => {
                    let g = stack.expect(seated);
                    HybridLaneCheckpoint::Stack {
                        current: g.project(st.stack, j),
                        frames: st.frames.iter().map(|&f| g.project(f, j)).collect(),
                    }
                }
                Seat::Lane(i) => freeze_lane(&st.lanes[i]),
            })
            .collect()
    }

    /// Lifts one checkpoint lane per member back into the tier state,
    /// refusing what no run produces: a lane of the wrong kind, grouped
    /// stack lanes with unequal frame counts, or a combination of lane
    /// states outside a group's product.
    fn thaw(
        &self,
        lanes: &[HybridLaneCheckpoint],
        offset: u64,
    ) -> Result<HybridState, SessionError> {
        if lanes.len() != self.seats.len() {
            return Err(corrupt("lane count does not match the query set"));
        }
        let (mut markup, mut current, mut frames) = (Vec::new(), Vec::new(), Vec::new());
        let mut thawed = Vec::with_capacity(self.lanes.len());
        for (lane, seat) in lanes.iter().zip(&self.seats) {
            match (seat, lane) {
                (Seat::Markup(_), HybridLaneCheckpoint::Markup { state }) => markup.push(*state),
                (
                    Seat::Stack(_),
                    HybridLaneCheckpoint::Stack {
                        current: c,
                        frames: f,
                    },
                ) => {
                    current.push(*c);
                    frames.push(f.as_slice());
                }
                (Seat::Lane(i), lane) => thawed.push(thaw_lane(lane, &self.lanes[*i].1, offset)?),
                _ => return Err(corrupt("lane kind does not match the member's engine")),
            }
        }
        let mut st = HybridState {
            lanes: thawed,
            ..HybridState::default()
        };
        if let Some(g) = &self.markup {
            st.markup = g.lifter()(&markup)?;
        }
        if let Some(g) = &self.stack {
            let depth = frames[0].len();
            if frames.iter().any(|f| f.len() != depth) {
                return Err(corrupt("stack lanes disagree on their frame count"));
            }
            if depth as u64 > offset {
                return Err(corrupt("stack frames exceed bytes consumed"));
            }
            let lift = g.lifter();
            st.stack = lift(&current)?;
            st.frames = (0..depth)
                .map(|d| lift(&frames.iter().map(|f| f[d]).collect::<Vec<_>>()))
                .collect::<Result<_, _>>()?;
        }
        Ok(st)
    }
}

/// The hybrid tier's live state: the groups' product states, the stack
/// group's frames, and the ungrouped lanes.
#[derive(Default)]
struct HybridState {
    markup: u32,
    stack: u32,
    frames: Vec<u32>,
    lanes: Vec<LaneState>,
}

/// A member's native engine, as its own lane.
fn lane_engine(plan: &CompiledQuery) -> LaneEngine {
    if let Some(m) = plan.markup_dfa() {
        LaneEngine::Markup(m.clone())
    } else if let Some(h) = plan.har_program() {
        LaneEngine::Har(h.clone())
    } else {
        LaneEngine::Stack(plan.minimal_dfa().clone())
    }
}

enum SetBackend {
    Product(ProductTable),
    Lanes(FamilyTable),
    Hybrid(Box<HybridTable>),
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
    lexer: Arc<TagLexer>,
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
        Self::compile_patterns(patterns, alphabet, budget, true)
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
        let plans: Vec<CompiledQuery> = dfas.iter().map(CompiledQuery::compile).collect();
        Self::from_plans(plans.iter().map(|p| (None, p)), alphabet, budget)
    }

    /// Builds a set from already planned members — each an optional
    /// source pattern and its plan, e.g. [`crate::Query::plan`] of a
    /// plan-cache hit — with an explicit product state budget (see
    /// [`Self::compile_with_budget`]).  Nothing is re-planned: the set
    /// costs its tier's tables only.  Every other constructor plans its
    /// members and calls this one, so equal plans give equal sets
    /// (tier, fingerprint, answers and checkpoints).
    ///
    /// # Panics
    ///
    /// Panics if any plan's alphabet size differs from `alphabet`.
    pub fn from_plans<'p>(
        members: impl IntoIterator<Item = (Option<&'p str>, &'p CompiledQuery)>,
        alphabet: &Alphabet,
        budget: usize,
    ) -> QuerySet {
        Self::build(members, alphabet, budget, true)
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
        Self::compile_patterns(patterns, alphabet, budget, false)
    }

    fn compile_patterns<S: AsRef<str>>(
        patterns: &[S],
        alphabet: &Alphabet,
        budget: usize,
        compress: bool,
    ) -> Result<QuerySet, QueryError> {
        let dfas: Vec<Dfa> = patterns
            .iter()
            .map(|p| compile_regex(p.as_ref(), alphabet).map_err(QueryError::Pattern))
            .collect::<Result<_, _>>()?;
        let plans: Vec<CompiledQuery> = dfas.iter().map(CompiledQuery::compile).collect();
        let names = patterns.iter().map(|p| Some(p.as_ref()));
        Ok(Self::build(names.zip(&plans), alphabet, budget, compress))
    }

    fn build<'p>(
        members: impl IntoIterator<Item = (Option<&'p str>, &'p CompiledQuery)>,
        alphabet: &Alphabet,
        budget: usize,
        compress: bool,
    ) -> QuerySet {
        let (names, plans): (Vec<Option<&str>>, Vec<&CompiledQuery>) = members.into_iter().unzip();
        let k = alphabet.len();
        for p in &plans {
            assert_eq!(
                p.minimal_dfa().n_letters(),
                k,
                "query-set DFA over a different alphabet"
            );
        }
        let markups: Option<Vec<&Dfa>> = plans.iter().map(|p| p.markup_dfa()).collect();
        let backend = match markups {
            Some(markups) if !markups.is_empty() => {
                let (ids, words) = ((0..markups.len()).collect(), markups.len().div_ceil(64));
                match Group::build(&markups, ids, words, budget, compress) {
                    Some(group) => SetBackend::Product(group.table),
                    None => SetBackend::Lanes(FamilyTable::build(&markups)),
                }
            }
            Some(_) => SetBackend::Lanes(FamilyTable::build(&[])),
            None => SetBackend::Hybrid(Box::new(HybridTable::build(&plans, budget, compress))),
        };
        let members = names
            .iter()
            .zip(&plans)
            .map(|(name, p)| SetMember {
                pattern: name.map(str::to_owned),
                strategy: p.strategy(),
            })
            .collect();
        let mut set = QuerySet {
            alphabet: alphabet.clone(),
            lexer: TagLexer::shared(alphabet),
            members,
            backend,
            compressed: compress,
            fingerprint: 0,
        };
        set.fingerprint = set_fingerprint(&set, plans.iter().map(|p| p.minimal_dfa()));
        set
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
        TagLexer::set_force_scalar(&mut self.lexer, on);
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
        let counts = vec![0; self.members.len()];
        let (emit, stats) = self.run_emit(bytes, CountEmit { counts })?;
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
        let sel = vec![Vec::new(); self.members.len()];
        let (emit, stats) = self.run_emit(bytes, SelectEmit { sel })?;
        Ok((emit.sel, stats))
    }

    fn run_emit<E: Emit>(&self, bytes: &[u8], mut emit: E) -> Result<(E, ScanStats), TreeError> {
        let mut walk = Walk {
            node: 0,
            depth: 0,
            guard: NoGuard,
        };
        let certify = self.lexer.certify(false);
        let mut stats = ScanStats::default();
        let mut state = self.fresh_state();
        match self.drive(
            &mut state, bytes, TEXT, certify, &mut walk, &mut emit, &mut stats,
        ) {
            ScanEnd::Complete { lex: TEXT } => Ok((emit, stats)),
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
            SetBackend::Hybrid(t) => QsState::Hybrid(t.fresh()),
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
            (QsState::Hybrid(st), SetBackend::Hybrid(t)) => {
                let mut sink = HybridSink {
                    k,
                    t,
                    st: std::mem::take(st),
                    buf: vec![0; t.words],
                    walk: *walk,
                    emit,
                };
                let end = structural_scan(lexer, bytes, lex, certify, stats, &mut sink);
                *st = sink.st;
                *walk = sink.walk;
                end
            }
            _ => unreachable!("state/backend agree by construction"),
        }
    }
}

/// The set's identity over its members' minimal DFAs (in set order).
fn set_fingerprint<'d>(set: &QuerySet, dfas: impl Iterator<Item = &'d Dfa>) -> u64 {
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    fnv_bytes(&mut h, &QS_MAGIC);
    fnv_usize(&mut h, set.strategy() as usize);
    fnv_usize(&mut h, set.compressed as usize);
    fnv_usize(&mut h, set.members.len());
    for sym in alphabet_symbols(&set.alphabet) {
        fnv_bytes(&mut h, sym.as_bytes());
    }
    for dfa in dfas {
        fnv_dfa(&mut h, dfa);
    }
    h
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
            self.s = t.step(self.s, l);
            let masks = t.masks(self.s);
            if masks.iter().any(|&w| w != 0) {
                self.emit.hit(masks, self.walk.node);
            }
            self.walk.node += 1;
        }
        if let Some(l) = close_l {
            self.s = t.step(self.s, self.k + l);
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
    t: &'a HybridTable,
    st: HybridState,
    buf: Vec<u64>,
    walk: Walk<G>,
    emit: &'a mut E,
}

/// ORs a group's accepting mask into `buf`; whether any bit was set.
#[inline]
fn or_masks(buf: &mut [u64], masks: &[u64]) -> bool {
    let mut any = 0;
    for (b, &m) in buf.iter_mut().zip(masks) {
        *b |= m;
        any |= m;
    }
    any != 0
}

impl<E: Emit, G: Guard> EventSink for HybridSink<'_, E, G> {
    #[inline]
    fn event(&mut self, ev: u16, pos: usize) -> bool {
        if !self.walk.guard.admit(ev, pos) {
            return false;
        }
        let (t, st) = (self.t, &mut self.st);
        let (open_l, close_l) = decode_event(ev, self.k);
        if let Some(l) = open_l {
            self.walk.depth += 1;
            self.buf.fill(0);
            let mut any = false;
            if let Some(g) = &t.markup {
                st.markup = g.table.step(st.markup, l);
                any |= or_masks(&mut self.buf, g.table.masks(st.markup));
            }
            if let Some(g) = &t.stack {
                st.frames.push(st.stack);
                st.stack = g.table.step(st.stack, l);
                any |= or_masks(&mut self.buf, g.table.masks(st.stack));
            }
            for ((i, engine), lane) in t.lanes.iter().zip(&mut st.lanes) {
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
            if let Some(g) = &t.markup {
                st.markup = g.table.step(st.markup, self.k + l);
            }
            // Underflowing pop keeps the state, like the per-member lane.
            if let Some(p) = st.frames.pop() {
                st.stack = p;
            }
            for ((_, engine), lane) in t.lanes.iter().zip(&mut st.lanes) {
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
    /// Fingerprint, alphabet and position: the run both wire formats
    /// share.
    header: CheckpointHeader,
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

    /// Serializes to the versioned little-endian wire format.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut w = QS_MAGIC.to_vec();
        put_u16(&mut w, QUERYSET_CHECKPOINT_VERSION);
        w.push(self.strategy() as u8);
        self.header.write(&mut w);
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
                            put_chain(&mut w, chain);
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
        r.preamble(QS_MAGIC, QUERYSET_CHECKPOINT_VERSION)?;
        let tag = r.u8()?;
        let header = CheckpointHeader::read(&mut r)?;
        let lex = r.u16()?;
        let state = match tag {
            TAG_PRODUCT => QuerySetCheckpointState::Product { state: r.u32()? },
            TAG_LANES => {
                let n = r.count(4)?;
                let lanes = (0..n).map(|_| r.u32()).collect::<Result<_, _>>()?;
                QuerySetCheckpointState::Lanes { lanes }
            }
            TAG_HYBRID => {
                // The shortest lane is a tag byte and one state.
                let n = r.count(5)?;
                let mut lanes = Vec::with_capacity(n);
                for _ in 0..n {
                    lanes.push(match r.u8()? {
                        LANE_MARKUP => HybridLaneCheckpoint::Markup { state: r.u32()? },
                        LANE_HAR => {
                            let current = r.u32()?;
                            let dead = match r.u8()? {
                                0 => false,
                                1 => true,
                                _ => return Err(corrupt("har dead flag is not a boolean")),
                            };
                            let chain_len = r.u16()? as usize;
                            HybridLaneCheckpoint::Har {
                                current,
                                dead,
                                chain: r.chain(chain_len)?,
                            }
                        }
                        LANE_STACK => {
                            let current = r.u32()?;
                            let n_frames = r.count(4)?;
                            let frames =
                                (0..n_frames).map(|_| r.u32()).collect::<Result<_, _>>()?;
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
        Ok(QuerySetCheckpoint { header, lex, state })
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
    Hybrid(HybridState),
}

/// An incremental, checkpointable run of a [`QuerySet`] under a set of
/// [`Limits`].  Feed the document in arbitrary segments; freeze at any
/// byte boundary with [`Self::checkpoint`]; close with [`Self::finish`].
pub struct QuerySetSession<'q> {
    core: SessionCore,
    run: SetRun<'q>,
}

session_methods!(
    QuerySetSession,
    Vec<usize>,
    QuerySetCheckpoint,
    QuerySetOutcome
);

/// The engine half of a [`QuerySetSession`]: the tier state and the
/// per-member matches.
struct SetRun<'q> {
    set: &'q QuerySet,
    state: QsState,
    matches: Vec<Vec<usize>>,
}

impl WindowRun for SetRun<'_> {
    type Checkpoint = QuerySetCheckpoint;
    type Outcome = QuerySetOutcome;

    /// One [`QuerySet::drive`] call, whatever the tier.
    fn drive(
        &mut self,
        core: &mut SessionCore,
        w: &[u8],
        stats: &mut ScanStats,
    ) -> (ScanEnd, DepthGuard) {
        let lexer = &self.set.lexer;
        let certify = lexer.certify(core.limits.force_scalar);
        let mut walk = Walk {
            node: core.node,
            depth: core.depth,
            guard: DepthGuard::new(lexer.k(), core.depth, &core.limits),
        };
        let mut emit = SelectEmit {
            sel: std::mem::take(&mut self.matches),
        };
        let end = self.set.drive(
            &mut self.state,
            w,
            core.lex,
            certify,
            &mut walk,
            &mut emit,
            stats,
        );
        self.matches = emit.sel;
        core.node = walk.node;
        (end, walk.guard)
    }

    fn freeze(&self, core: &SessionCore) -> QuerySetCheckpoint {
        let state = match (&self.state, &self.set.backend) {
            (QsState::Product { s }, _) => QuerySetCheckpointState::Product { state: *s },
            (QsState::Lanes { cur }, _) => QuerySetCheckpointState::Lanes { lanes: cur.clone() },
            (QsState::Hybrid(st), SetBackend::Hybrid(t)) => QuerySetCheckpointState::Hybrid {
                lanes: t.freeze(st),
            },
            _ => unreachable!("state/backend agree by construction"),
        };
        QuerySetCheckpoint {
            header: core.header(self.set.fingerprint, &self.set.alphabet),
            lex: core.lex,
            state,
        }
    }

    fn match_count(&self) -> u64 {
        self.matches.iter().map(|m| m.len() as u64).sum()
    }

    fn outcome(self, nodes: usize) -> QuerySetOutcome {
        QuerySetOutcome {
            matches: self.matches,
            nodes,
        }
    }
}

impl<'q> QuerySetSession<'q> {
    fn new(set: &'q QuerySet, core: SessionCore, state: QsState) -> QuerySetSession<'q> {
        QuerySetSession {
            core,
            run: SetRun {
                set,
                state,
                matches: vec![Vec::new(); set.members.len()],
            },
        }
    }
}

impl QuerySet {
    /// Opens a fresh resilient multi-query session under `limits`.
    pub fn session(&self, limits: Limits) -> QuerySetSession<'_> {
        QuerySetSession::new(self, SessionCore::start(limits), self.fresh_state())
    }

    /// Reopens a session from a checkpoint minted by the *same* query
    /// set (verified by fingerprint).
    ///
    /// # Errors
    ///
    /// [`SessionError::Checkpoint`] on a tier or fingerprint mismatch,
    /// or any implausible or out-of-range frozen state.
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
        let h = &checkpoint.header;
        if h.fingerprint != self.fingerprint {
            return Err(corrupt(
                "checkpoint was minted by a different query set or alphabet",
            ));
        }
        let state = match (&checkpoint.state, &self.backend) {
            (QuerySetCheckpointState::Product { state }, SetBackend::Product(t)) => {
                if *state as usize >= t.n_states {
                    return Err(corrupt("product state out of range"));
                }
                QsState::Product { s: *state }
            }
            (QuerySetCheckpointState::Lanes { lanes }, SetBackend::Lanes(t)) => {
                let in_range = lanes.iter().enumerate().all(|(i, &s)| t.in_block(i, s));
                if lanes.len() != t.n_members() || !in_range {
                    return Err(corrupt("lane states do not match the query set"));
                }
                QsState::Lanes { cur: lanes.clone() }
            }
            (QuerySetCheckpointState::Hybrid { lanes }, SetBackend::Hybrid(t)) => {
                QsState::Hybrid(t.thaw(lanes, h.offset)?)
            }
            _ => unreachable!("tier equality checked above"),
        };
        let core = SessionCore::resume(limits, h, checkpoint.lex, &self.lexer)?;
        Ok(QuerySetSession::new(self, core, state))
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
        self.run_with_checkpoints(bytes, &[], limits)
            .map(|(o, _)| o)
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
        let s = self.session(limits.clone());
        s.core.run_cuts(s.run, bytes, cuts)
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
        let s = self.resume(checkpoint, limits.clone())?;
        s.core.run_cuts(s.run, rest, &[]).map(|(o, _)| o)
    }
}

fn freeze_lane(lane: &LaneState) -> HybridLaneCheckpoint {
    match lane {
        LaneState::Markup { s } => HybridLaneCheckpoint::Markup { state: *s },
        LaneState::Har { run } => {
            let (current, dead, chain) = run.freeze();
            HybridLaneCheckpoint::Har {
                current: current as u32,
                dead,
                chain,
            }
        }
        LaneState::Stack { s, frames } => HybridLaneCheckpoint::Stack {
            current: *s,
            frames: frames.clone(),
        },
    }
}

fn thaw_lane(
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
        ) => LaneState::Har {
            run: HarRun::thaw(program.core(), *current as usize, *dead, chain)?,
        },
        (HybridLaneCheckpoint::Stack { current, frames }, LaneEngine::Stack(dfa)) => {
            LaneState::Stack {
                s: *current,
                frames: thaw_stack(dfa.n_states(), *current, frames, offset)?,
            }
        }
        _ => return Err(corrupt("lane kind does not match the member's engine")),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::Query;
    use crate::session::{LimitExceeded, LimitKind};

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
    fn queries_and_sets_over_one_alphabet_share_one_lexer() {
        let g = g2();
        let mut registerless = Query::compile("a.*b", &g).unwrap();
        let stack = Query::compile(".*ab", &g).unwrap();
        let set = QuerySet::compile(MIXED, &g).unwrap();
        let lexer = registerless.fused().tag_lexer().clone();
        assert!(Arc::ptr_eq(&lexer, stack.fused().tag_lexer()));
        assert!(Arc::ptr_eq(&lexer, &set.lexer));
        // Forcing the scalar path copies the lexer for that query alone.
        registerless = registerless.with_force_scalar(!lexer.force_scalar());
        assert!(!Arc::ptr_eq(&lexer, registerless.fused().tag_lexer()));
        assert!(Arc::ptr_eq(&lexer, stack.fused().tag_lexer()));
        // Another alphabet gets its own lexer.
        let other = QuerySet::compile(&["a.*"], &g3()).unwrap();
        assert!(!Arc::ptr_eq(&lexer, &other.lexer));
    }

    #[test]
    fn hybrid_members_group_by_class_within_the_budget() {
        // Two registerless, two stackless, two stack members.
        let patterns = ["a.*b", "a.*", "ab", "ba", ".*ab", ".*ba"];
        let grouped = QuerySet::compile(&patterns, &g2()).unwrap();
        let SetBackend::Hybrid(t) = &grouped.backend else {
            panic!("mixed set plans the hybrid tier");
        };
        assert_eq!(
            t.markup.as_ref().map(|g| g.members.clone()),
            Some(vec![0, 1])
        );
        assert_eq!(
            t.stack.as_ref().map(|g| g.members.clone()),
            Some(vec![4, 5])
        );
        assert_eq!(t.lanes.iter().map(|l| l.0).collect::<Vec<_>>(), [2, 3]);
        // Budget 0 keeps one lane per member.
        let per_member = QuerySet::compile_with_budget(&patterns, &g2(), 0).unwrap();
        let SetBackend::Hybrid(t) = &per_member.backend else {
            panic!("mixed set plans the hybrid tier");
        };
        assert!(t.markup.is_none() && t.stack.is_none());
        assert_eq!(t.lanes.len(), patterns.len());
        assert_eq!(grouped.fingerprint, per_member.fingerprint);
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
