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
//! # One machine
//!
//! Every member keeps the event-level engine its plan names, and the
//! set groups the members by engine class so that one class steps as
//! one machine where the class allows it:
//!
//! * **registerless** members are plain markup DFAs (Lemma 3.5), so
//!   they step as one synchronous **markup product** over *compressed
//!   letter classes* (letters indistinguishable to the whole group share
//!   a transition column, [`st_automata::ops::letter_classes`]).  Each
//!   product state carries an accepting mask over the set's members, so
//!   an open costs one table step plus one mask test for the whole
//!   group.  Past the state budget ([`QuerySet::compile_with_budget`])
//!   they step through one **family table** instead: the member DFAs
//!   flattened into one global state space, one load per member per
//!   event;
//! * **stack** members all push at opens and pop at closes, so they step
//!   as one product over Γ with **one shared frame stack**;
//! * **HAR** members, and stack members whose product would pass the
//!   budget, keep a native **lane** each (a depth-register run, or a
//!   DFA with its own stack).
//!
//! Checkpoints project the groups onto one lane per member, so the wire
//! form does not depend on the grouping: a set resumes a checkpoint
//! minted under any budget.
//!
//! Sets are built from planned members ([`QuerySet::from_plans`]): a
//! serving edge assembles them from plan-cache hits, and the pattern
//! and DFA constructors plan their members and call it.
//!
//! The byte pass is the structural scan, with certification off under
//! `ST_FORCE_SCALAR` or [`Limits::force_scalar`].  The machine is one
//! sink type, parameterized by what it collects (counts or node ids)
//! and by its guard (none for one-shot runs, the depth/imbalance
//! budgets for sessions).
//!
//! # Sessions
//!
//! [`QuerySetSession`] is [`crate::session::EngineSession`]'s shell
//! around the machine state: windowed feeds under [`Limits`], and
//! checkpoint/resume at any byte boundary ([`QuerySetCheckpoint`], magic
//! `STQS`), with resume ≡ whole-run at every cut.

use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

use st_automata::ops::{letter_classes, product_many, MultiProduct};
use st_automata::{compile_regex, Alphabet, Dfa};
use st_trees::error::TreeError;

use crate::engine::{
    decode_event, rescan_error, thaw_stack, DepthGuard, Guard, HarRun, NoGuard, TagLexer, Verdict,
    TEXT,
};
use crate::har::HarMarkupProgram;
use crate::planner::{CompiledQuery, Strategy};
use crate::query::QueryError;
use crate::session::{
    alphabet_symbols, corrupt, fnv_bytes, fnv_dfa, fnv_usize, put_chain, put_u16, put_u32,
    session_methods, CheckpointHeader, LimitExceeded, Limits, Reader, SessionCore, SessionError,
    WindowRun,
};
use crate::structural::{structural_scan, EventSink, ScanEnd, ScanStats};

/// Default cap on each product's state count.  Past this the
/// registerless members step through the family table and the stack
/// members keep one lane each; `0` disables every product (useful for
/// forcing those paths in differential tests).
pub const DEFAULT_PRODUCT_BUDGET: usize = 4096;

/// Cap on a query set's member count that serving front-ends enforce
/// before planning any member: building a set grows faster than
/// linearly in its members, so one request must not hold a core for
/// minutes.
pub const MAX_SET_MEMBERS: usize = 256;

/// Version tag of the [`QuerySetCheckpoint`] wire format.
pub const QUERYSET_CHECKPOINT_VERSION: u16 = 1;

const QS_MAGIC: [u8; 4] = *b"STQS";

/// The payload layout byte after the version: one lane per member.
/// Earlier builds also wrote layouts `0` and `1` (one product state, one
/// family state per member) for all-registerless sets; those are
/// refused.
const LAYOUT_LANES: u8 = 2;

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
    /// `u64` words per accepting mask (`ceil(n_members / 64)`).
    words: usize,
    /// Letter → class id (markup letters `0..2k` in the markup group,
    /// Γ letters `0..k` in the stack group).
    class_of: Vec<u16>,
    /// Row-major transitions over classes: `delta[s * n_classes + c]`;
    /// the initial state is 0.
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
        let delta = mp
            .delta
            .iter()
            .map(|&d| u32::try_from(d).expect("product states fit u32"))
            .collect();
        let mut accept = vec![0u64; mp.tuples.len() * words];
        for (s, tuple) in mp.tuples.iter().enumerate() {
            for ((&st, d), &i) in tuple.iter().zip(dfas).zip(members) {
                if d.is_accepting(st) {
                    accept[s * words + (i >> 6)] |= 1 << (i & 63);
                }
            }
        }
        ProductTable {
            n_classes: mp.n_classes,
            words,
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

/// The registerless members past the budget, their markup DFAs
/// flattened into one global state space: member `j`'s states occupy
/// the block `starts[j]..starts[j+1]` and transition rows are stored at
/// their global ids, so stepping member `j` is one load from a shared
/// table.
struct FamilyTable {
    /// Letters per member DFA (2k for markup DFAs).
    n_letters: usize,
    /// Set-wide index per member.
    members: Vec<usize>,
    /// Global initial state per member.
    init: Vec<u32>,
    /// Block boundaries, `len == members.len() + 1`.
    starts: Vec<u32>,
    /// Global row-major transitions: `delta[s * n_letters + a]`.
    delta: Vec<u32>,
    /// Accepting bitset over global states.
    accepting: Vec<u64>,
}

impl FamilyTable {
    fn build(dfas: &[&Dfa], members: Vec<usize>) -> FamilyTable {
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
        for (j, d) in dfas.iter().enumerate() {
            let base = starts[j] as usize;
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
            .zip(&starts)
            .map(|(d, &start)| start + d.init() as u32)
            .collect();
        FamilyTable {
            n_letters,
            members,
            init,
            starts,
            delta,
            accepting,
        }
    }

    /// The global id of member `j`'s state `s`, or `None` when `s` is
    /// not one of its states.
    fn global(&self, j: usize, s: u32) -> Option<u32> {
        let (start, end) = (self.starts[j], self.starts[j + 1]);
        s.checked_add(start).filter(|&g| g < end)
    }

    /// Member `j`'s own state for global state `g`.
    fn local(&self, j: usize, g: u32) -> u32 {
        g - self.starts[j]
    }

    #[inline]
    fn step(&self, s: u32, a: usize) -> u32 {
        self.delta[s as usize * self.n_letters + a]
    }

    /// 1 if global state `s` accepts, else 0.
    #[inline]
    fn accepts(&self, s: u32) -> u64 {
        (self.accepting[s as usize >> 6] >> (s & 63)) & 1
    }
}

/// One member's native event-level engine, as its own lane.
enum LaneEngine {
    /// Stackless member: its Lemma 3.8 HAR markup program.
    Har(HarMarkupProgram),
    /// General member: minimal DFA over Γ plus an explicit stack.
    Stack(Dfa),
}

/// One lane's live state; a HAR run keeps its frames inline, like the
/// single-query step, rather than behind a pointer each event follows.
#[allow(clippy::large_enum_variant)]
enum LaneState {
    Har { run: HarRun },
    Stack { s: u32, frames: Vec<u32> },
}

fn fresh_lane(engine: &LaneEngine) -> LaneState {
    match engine {
        LaneEngine::Har(program) => LaneState::Har {
            run: HarRun::new(program.core()),
        },
        LaneEngine::Stack(dfa) => LaneState::Stack {
            s: dfa.init() as u32,
            frames: Vec::new(),
        },
    }
}

/// Applies lexer event `ev`, decoded as its `open` and `close` letters,
/// to one lane; `depth` is the depth before the event.  Returns whether
/// the member selects the node the event opens.
#[inline(always)]
fn lane_step(
    engine: &LaneEngine,
    state: &mut LaneState,
    ev: u16,
    (open, close): (Option<usize>, Option<usize>),
    mut depth: i64,
) -> bool {
    match (engine, state) {
        (LaneEngine::Har(program), LaneState::Har { run }) => {
            run.step(program.core().rows(), ev, &mut depth).1
        }
        (LaneEngine::Stack(dfa), LaneState::Stack { s, frames }) => {
            let mut selected = false;
            if let Some(l) = open {
                frames.push(*s);
                *s = dfa.step(*s as usize, l) as u32;
                selected = dfa.is_accepting(*s as usize);
            }
            // Underflowing pop keeps the state, like the baseline
            // evaluator and the single-query stack session.
            if close.is_some() {
                if let Some(p) = frames.pop() {
                    *s = p;
                }
            }
            selected
        }
        _ => unreachable!("lane engine/state agree by construction"),
    }
}

/// Members of one class stepping as one product: the table (its masks
/// over the whole set's members) and each product state's component
/// tuple, which projects the group onto per-member lanes and lifts lanes
/// back.
struct Group {
    table: ProductTable,
    /// Group members (their set-wide indices), in set order.
    members: Vec<usize>,
    /// `tuples[s * members.len() + j]`: member `j`'s state in product
    /// state `s`.
    tuples: Vec<u32>,
}

impl Group {
    /// The product of the members `ids` (with DFAs `dfas`) over their
    /// letter classes, or `None` when there are no members, the budget
    /// is 0, or the product would pass `budget` states.
    fn build(dfas: &[&Dfa], ids: &[usize], words: usize, budget: usize) -> Option<Group> {
        if ids.is_empty() || budget == 0 {
            return None;
        }
        let (class_of, n_classes) = letter_classes(dfas);
        let mp = product_many(dfas, &class_of, n_classes, budget)?;
        let table = ProductTable::from_product(&mp, dfas, ids, words, &class_of);
        let tuples = mp.tuples.iter().flatten().map(|&q| q as u32).collect();
        Some(Group {
            table,
            members: ids.to_vec(),
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

    fn shape(&self) -> ProductShape {
        ProductShape {
            members: self.members.clone(),
            states: self.tuples.len() / self.members.len(),
            classes: self.table.n_classes,
        }
    }
}

/// Where a member's state lives.
#[derive(Clone, Copy)]
enum Seat {
    /// Component `j` of the markup group.
    Markup(usize),
    /// Member `j` of the family table.
    Family(usize),
    /// Component `j` of the stack group.
    Stack(usize),
    /// Lane `i`.
    Lane(usize),
}

/// What the set steps past its markup group: the family table, the
/// stack group and the lanes.  Whether a set has a tail is the one
/// branch past the markup group, taken once per scan (see
/// [`QuerySet::drive`]).
struct Tail {
    /// Registerless members past the budget (possibly none).
    family: FamilyTable,
    /// Stack members as one product over Γ; opens push its state on one
    /// shared frame stack, closes pop it.
    stack: Option<Group>,
    /// Every other member's native engine, with its set-wide index.
    lanes: Vec<(usize, LaneEngine)>,
}

/// The set's machine: the class groups and the lanes.
struct SetMachine {
    /// Registerless members as one markup product (closes are real
    /// transitions).
    markup: Option<Group>,
    tail: Option<Box<Tail>>,
    /// Per member, in set order.
    seats: Vec<Seat>,
}

/// The machine's live state: the groups' product states, the family
/// table's states, the stack group's frames, and the lanes.
#[derive(Default)]
struct SetState {
    markup: u32,
    family: Vec<u32>,
    stack: u32,
    frames: Vec<u32>,
    lanes: Vec<LaneState>,
}

impl SetMachine {
    fn build(plans: &[&CompiledQuery], budget: usize) -> SetMachine {
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
        let markup = Group::build(&markups, &markup_ids, words, budget);
        let family = match markup {
            Some(_) => FamilyTable::build(&[], Vec::new()),
            None => FamilyTable::build(&markups, markup_ids),
        };
        let stack = Group::build(&stacks, &stack_ids, words, budget);
        let mut seats = vec![None; plans.len()];
        let mut seat = |members: &[usize], at: fn(usize) -> Seat| {
            for (j, &i) in members.iter().enumerate() {
                seats[i] = Some(at(j));
            }
        };
        if let Some(g) = &markup {
            seat(&g.members, Seat::Markup);
        }
        seat(&family.members, Seat::Family);
        if let Some(g) = &stack {
            seat(&g.members, Seat::Stack);
        }
        let mut lanes = Vec::new();
        let seats = (seats.into_iter().zip(plans).enumerate())
            .map(|(i, (seat, p))| {
                seat.unwrap_or_else(|| {
                    lanes.push((i, lane_engine(p)));
                    Seat::Lane(lanes.len() - 1)
                })
            })
            .collect();
        let tail =
            (!family.members.is_empty() || stack.is_some() || !lanes.is_empty()).then(|| {
                Box::new(Tail {
                    family,
                    stack,
                    lanes,
                })
            });
        SetMachine {
            markup,
            tail,
            seats,
        }
    }

    /// The state at document start (a product's initial state is 0).
    fn fresh(&self) -> SetState {
        match &self.tail {
            Some(t) => SetState {
                family: t.family.init.clone(),
                lanes: t.lanes.iter().map(|(_, e)| fresh_lane(e)).collect(),
                ..SetState::default()
            },
            None => SetState::default(),
        }
    }

    /// Projects the state onto one checkpoint lane per member.
    fn freeze(&self, st: &SetState) -> Vec<HybridLaneCheckpoint> {
        let seated = "seated members have a group";
        let (markup, tail) = (self.markup.as_ref(), self.tail.as_ref());
        self.seats
            .iter()
            .map(|seat| match *seat {
                Seat::Markup(j) => HybridLaneCheckpoint::Markup {
                    state: markup.expect(seated).project(st.markup, j),
                },
                Seat::Family(j) => HybridLaneCheckpoint::Markup {
                    state: tail.expect(seated).family.local(j, st.family[j]),
                },
                Seat::Stack(j) => {
                    let g = tail.and_then(|t| t.stack.as_ref()).expect(seated);
                    HybridLaneCheckpoint::Stack {
                        current: g.project(st.stack, j),
                        frames: st.frames.iter().map(|&f| g.project(f, j)).collect(),
                    }
                }
                Seat::Lane(i) => freeze_lane(&st.lanes[i], &tail.expect(seated).lanes[i].1),
            })
            .collect()
    }

    /// Lifts one checkpoint lane per member back into the machine state,
    /// refusing what no run produces: a lane count other than the set's,
    /// a lane of the wrong kind, a state out of its member's range,
    /// grouped stack lanes with unequal frame counts, or a combination
    /// of lane states outside a group's product.
    fn thaw(
        &self,
        lanes: &[HybridLaneCheckpoint],
        offset: u64,
        depth: i64,
    ) -> Result<SetState, SessionError> {
        if lanes.len() != self.seats.len() {
            return Err(corrupt("lane count does not match the query set"));
        }
        let mut st = self.fresh();
        let (mut markup, mut current, mut frames) = (Vec::new(), Vec::new(), Vec::new());
        // A seat other than `Markup` exists only with a tail.
        let tail = || self.tail.as_ref().expect("seated members have a group");
        for (lane, seat) in lanes.iter().zip(&self.seats) {
            match (seat, lane) {
                (Seat::Markup(_), HybridLaneCheckpoint::Markup { state }) => markup.push(*state),
                (Seat::Family(j), HybridLaneCheckpoint::Markup { state }) => {
                    st.family[*j] = tail()
                        .family
                        .global(*j, *state)
                        .ok_or_else(|| corrupt("markup lane state out of range"))?;
                }
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
                (Seat::Lane(i), lane) => {
                    st.lanes[*i] = thaw_lane(lane, &tail().lanes[*i].1, offset, depth)?
                }
                _ => return Err(corrupt("lane kind does not match the member's engine")),
            }
        }
        if let Some(g) = &self.markup {
            st.markup = g.lifter()(&markup)?;
        }
        if let Some(g) = self.tail.as_ref().and_then(|t| t.stack.as_ref()) {
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

/// A member's native engine, as its own lane (its plan has no markup
/// DFA).
fn lane_engine(plan: &CompiledQuery) -> LaneEngine {
    match plan.har_program() {
        Some(h) => LaneEngine::Har(h.clone()),
        None => LaneEngine::Stack(plan.minimal_dfa().clone()),
    }
}

/// One product group's shape in a [`SetGrouping`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ProductShape {
    /// The grouped members' set-wide indices, in set order.
    pub members: Vec<usize>,
    /// Product state count (at most the set's budget).
    pub states: usize,
    /// Letter classes the product's columns range over.
    pub classes: usize,
}

/// How a [`QuerySet`] steps its members (see the module docs): which
/// members share the markup product, the family table or the stack
/// product, and which keep a lane each.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SetGrouping {
    /// Registerless members stepping as one markup product.
    pub markup: Option<ProductShape>,
    /// Registerless members stepping through the family table (their
    /// product would pass the budget).
    pub family: Vec<usize>,
    /// Stack members stepping as one product over one frame stack.
    pub stack: Option<ProductShape>,
    /// Members keeping a native lane each: HAR members, and stack
    /// members whose product would pass the budget.
    pub lanes: Vec<usize>,
}

impl fmt::Display for SetGrouping {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let product = |name: &str, g: &ProductShape| {
            format!(
                "{name} product of {} ({} states, {} letter classes)",
                g.members.len(),
                g.states,
                g.classes
            )
        };
        let parts: Vec<String> = [
            self.markup.as_ref().map(|g| product("markup", g)),
            (!self.family.is_empty()).then(|| format!("family table of {}", self.family.len())),
            self.stack.as_ref().map(|g| product("stack", g)),
            (!self.lanes.is_empty()).then(|| format!("{} native lane(s)", self.lanes.len())),
        ]
        .into_iter()
        .flatten()
        .collect();
        if parts.is_empty() {
            f.write_str("no members")
        } else {
            f.write_str(&parts.join(", "))
        }
    }
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
    machine: SetMachine,
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
    /// state budget.  `budget == 0` disables every product (registerless
    /// members then step through the family table and stack members
    /// keep a lane each — the knob differential tests use to force
    /// those paths).  The budget changes how the set steps, never its
    /// answers or checkpoints.
    ///
    /// # Errors
    ///
    /// [`QueryError::Pattern`] if any pattern fails to parse.
    pub fn compile_with_budget<S: AsRef<str>>(
        patterns: &[S],
        alphabet: &Alphabet,
        budget: usize,
    ) -> Result<QuerySet, QueryError> {
        let dfas: Vec<Dfa> = patterns
            .iter()
            .map(|p| compile_regex(p.as_ref(), alphabet).map_err(QueryError::Pattern))
            .collect::<Result<_, _>>()?;
        let plans: Vec<CompiledQuery> = dfas.iter().map(CompiledQuery::compile).collect();
        let names = patterns.iter().map(|p| Some(p.as_ref()));
        Ok(Self::from_plans(names.zip(&plans), alphabet, budget))
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
    /// costs its machine's tables only.  Every other constructor plans
    /// its members and calls this one, so equal plans give equal sets
    /// (fingerprint, answers and checkpoints).
    ///
    /// # Panics
    ///
    /// Panics if any plan's alphabet size differs from `alphabet`.
    pub fn from_plans<'p>(
        members: impl IntoIterator<Item = (Option<&'p str>, &'p CompiledQuery)>,
        alphabet: &Alphabet,
        budget: usize,
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
        let members = names
            .iter()
            .zip(&plans)
            .map(|(name, p)| SetMember {
                pattern: name.map(str::to_owned),
                strategy: p.strategy(),
            })
            .collect();
        QuerySet {
            alphabet: alphabet.clone(),
            lexer: TagLexer::shared(alphabet),
            members,
            machine: SetMachine::build(&plans, budget),
            fingerprint: set_fingerprint(alphabet, plans.iter().map(|p| p.minimal_dfa())),
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

    /// How the set steps its members.
    pub fn grouping(&self) -> SetGrouping {
        let m = &self.machine;
        let tail = m.tail.as_ref();
        SetGrouping {
            markup: m.markup.as_ref().map(Group::shape),
            family: tail.map_or_else(Vec::new, |t| t.family.members.clone()),
            stack: tail.and_then(|t| t.stack.as_ref()).map(Group::shape),
            lanes: tail.map_or_else(Vec::new, |t| t.lanes.iter().map(|l| l.0).collect()),
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
        let counts = vec![0; self.members.len()];
        Ok(self.run_emit(bytes, CountEmit { counts })?.counts)
    }

    /// Per-query selected node ids (document order) from one pass.
    /// `sel[q]` equals `Query::compile(pattern_q).select(bytes)`.
    ///
    /// # Errors
    ///
    /// As for [`Self::count_all`].
    pub fn select_all(&self, bytes: &[u8]) -> Result<Vec<Vec<usize>>, TreeError> {
        let sel = vec![Vec::new(); self.members.len()];
        Ok(self.run_emit(bytes, SelectEmit { sel })?.sel)
    }

    fn run_emit<E: Emit>(&self, bytes: &[u8], mut emit: E) -> Result<E, TreeError> {
        let mut walk = Walk {
            node: 0,
            depth: 0,
            guard: NoGuard,
        };
        let certify = self.lexer.certify(false);
        let mut stats = ScanStats::default();
        let mut state = self.machine.fresh();
        match self.drive(
            &mut state, bytes, TEXT, certify, &mut walk, &mut emit, &mut stats,
        ) {
            ScanEnd::Complete { lex: TEXT } => Ok(emit),
            // Any failure re-scans cold for the exact single-query
            // diagnostic (same offset and message as `Query::count`).
            _ => Err(rescan_error(bytes, &self.alphabet)),
        }
    }

    /// Scans `bytes` from lexer state `lex` through the machine's sink,
    /// advancing `state` and `walk` — the one byte pass of every
    /// one-shot run and session window.  A set without a tail scans
    /// with a sink compiled without it, whose per-event step is a lone
    /// markup product's.
    #[allow(clippy::too_many_arguments)]
    fn drive<E: Emit, G: Guard + Copy>(
        &self,
        state: &mut SetState,
        bytes: &[u8],
        lex: u16,
        certify: bool,
        walk: &mut Walk<G>,
        emit: &mut E,
        stats: &mut ScanStats,
    ) -> ScanEnd {
        if self.machine.tail.is_some() {
            self.scan::<E, G, true>(state, bytes, lex, certify, walk, emit, stats)
        } else {
            self.scan::<E, G, false>(state, bytes, lex, certify, walk, emit, stats)
        }
    }

    /// [`Self::drive`] with the sink that steps the tail iff `TAIL`.
    #[allow(clippy::too_many_arguments)]
    fn scan<E: Emit, G: Guard + Copy, const TAIL: bool>(
        &self,
        state: &mut SetState,
        bytes: &[u8],
        lex: u16,
        certify: bool,
        walk: &mut Walk<G>,
        emit: &mut E,
        stats: &mut ScanStats,
    ) -> ScanEnd {
        let (markup, tail) = (self.machine.markup.as_ref(), self.machine.tail.as_deref());
        let sink = SetSink::<E, G, TAIL> {
            k: self.lexer.k(),
            markup: markup.map(|g| &g.table),
            tail,
            st: std::mem::take(state),
            buf: vec![0; if TAIL { self.len().div_ceil(64) } else { 0 }],
            walk: *walk,
            emit,
        };
        let (end, sink) = structural_scan(&self.lexer, bytes, lex, certify, stats, sink);
        *state = sink.st;
        *walk = sink.walk;
        end
    }
}

/// The set's identity over its alphabet and its members' minimal DFAs
/// (in set order).  The layout byte and a compression flag of 1 are
/// folded in as earlier builds folded their tier byte and flag, so
/// every checkpoint those builds minted in the lanes layout still
/// resumes.
fn set_fingerprint<'d>(alphabet: &Alphabet, dfas: impl ExactSizeIterator<Item = &'d Dfa>) -> u64 {
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    fnv_bytes(&mut h, &QS_MAGIC);
    fnv_usize(&mut h, LAYOUT_LANES as usize);
    fnv_usize(&mut h, 1);
    fnv_usize(&mut h, dfas.len());
    for sym in alphabet_symbols(alphabet) {
        fnv_bytes(&mut h, sym.as_bytes());
    }
    for dfa in dfas {
        fnv_dfa(&mut h, dfa);
    }
    h
}

// ---------------------------------------------------------------------------
// The sink (monomorphized per collector × guard × tail)
// ---------------------------------------------------------------------------

/// Where a pass stands between scans: the id of the next opened node,
/// the depth (HAR lanes register it; kept only while a tail steps), and
/// the guard.
#[derive(Clone, Copy)]
struct Walk<G> {
    node: usize,
    depth: i64,
    guard: G,
}

/// What a multi-query sink does with an attributed match: bit `q` of
/// `masks` set means member `q` selected node `node`.  One node may
/// reach it several times, with disjoint masks.
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

/// Passes a product's accepting mask on when any bit is set.
#[inline]
fn hit_masks<E: Emit>(emit: &mut E, masks: &[u64], node: usize) {
    if masks.iter().any(|&w| w != 0) {
        emit.hit(masks, node);
    }
}

/// The machine's event sink; `TAIL` is whether the set has a tail, so
/// a set without one compiles its tail steps away.
struct SetSink<'a, E: Emit, G, const TAIL: bool> {
    k: usize,
    markup: Option<&'a ProductTable>,
    tail: Option<&'a Tail>,
    st: SetState,
    /// The family's and the lanes' accepting bits of one open, all zero
    /// between events.
    buf: Vec<u64>,
    walk: Walk<G>,
    emit: &'a mut E,
}

impl<E: Emit, G: Guard, const TAIL: bool> SetSink<'_, E, G, TAIL> {
    /// Steps the tail through an event that opens `l` (and closes it
    /// too when `close` is set): the family table and the stack group
    /// through the open, each lane once through the whole event.
    #[inline]
    fn tail_open(&mut self, t: &Tail, ev: u16, l: usize, close: Option<usize>) {
        let depth = self.walk.depth;
        self.walk.depth += 1;
        let (st, buf, node) = (&mut self.st, &mut self.buf, self.walk.node);
        let f = &t.family;
        let mut any = 0u64;
        // Accepting bits gather per 64 family members in a register, then
        // scatter to their set-wide bits.
        for (states, ids) in st.family.chunks_mut(64).zip(f.members.chunks(64)) {
            let mut word = 0u64;
            for (j, s) in states.iter_mut().enumerate() {
                *s = f.step(*s, l);
                word |= f.accepts(*s) << j;
            }
            any |= word;
            while word != 0 {
                let i = ids[word.trailing_zeros() as usize];
                buf[i >> 6] |= 1 << (i & 63);
                word &= word - 1;
            }
        }
        if let Some(g) = &t.stack {
            st.frames.push(st.stack);
            st.stack = g.table.step(st.stack, l);
            hit_masks(self.emit, g.table.masks(st.stack), node);
        }
        for ((i, engine), lane) in t.lanes.iter().zip(&mut st.lanes) {
            let bit = u64::from(lane_step(engine, lane, ev, (Some(l), close), depth));
            buf[i >> 6] |= bit << (i & 63);
            any |= bit;
        }
        if any != 0 {
            self.emit.hit(&buf[..], node);
            buf.fill(0);
        }
    }

    /// Steps the tail through an event that closes `l`: the family table
    /// and the stack group through the close, and each lane unless the
    /// event also opened (a self-close), which [`Self::tail_open`]
    /// stepped whole.
    #[inline]
    fn tail_close(&mut self, t: &Tail, ev: u16, l: usize, opened: bool) {
        let depth = self.walk.depth;
        self.walk.depth -= 1;
        let st = &mut self.st;
        let f = &t.family;
        for s in st.family.iter_mut() {
            *s = f.step(*s, self.k + l);
        }
        // Underflowing pop keeps the state, like a stack lane.
        if let Some(p) = st.frames.pop() {
            st.stack = p;
        }
        if !opened {
            for ((_, engine), lane) in t.lanes.iter().zip(&mut st.lanes) {
                lane_step(engine, lane, ev, (None, Some(l)), depth);
            }
        }
    }
}

impl<E: Emit, G: Guard, const TAIL: bool> EventSink for SetSink<'_, E, G, TAIL> {
    #[inline]
    fn event(&mut self, ev: u16, _pos: usize) {
        let (open_l, close_l) = decode_event(ev, self.k);
        let v = Verdict {
            opened: open_l.is_some(),
            closed: close_l.is_some(),
            selected: false,
        };
        self.walk.guard.track(v, None);
        if let Some(l) = open_l {
            if let Some(m) = self.markup {
                self.st.markup = m.step(self.st.markup, l);
                hit_masks(self.emit, m.masks(self.st.markup), self.walk.node);
            }
            if let (true, Some(tail)) = (TAIL, self.tail) {
                self.tail_open(tail, ev, l, close_l);
            }
            self.walk.node += 1;
        }
        if let Some(l) = close_l {
            if let Some(m) = self.markup {
                self.st.markup = m.step(self.st.markup, self.k + l);
            }
            if let (true, Some(tail)) = (TAIL, self.tail) {
                self.tail_close(tail, ev, l, open_l.is_some());
            }
        }
    }

    #[inline]
    fn settle(
        &mut self,
        lexer: &TagLexer,
        seg: &[u8],
        lex: u16,
        base: usize,
    ) -> Result<(), LimitExceeded> {
        self.walk.guard.settle(lexer, seg, lex, base)
    }
}

// ---------------------------------------------------------------------------
// Checkpoints
// ---------------------------------------------------------------------------

/// One member's frozen state.
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
    /// One frozen state per member, in set order.
    lanes: Vec<HybridLaneCheckpoint>,
}

impl QuerySetCheckpoint {
    /// Serializes to the versioned little-endian wire format.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut w = QS_MAGIC.to_vec();
        put_u16(&mut w, QUERYSET_CHECKPOINT_VERSION);
        w.push(LAYOUT_LANES);
        self.header.write(&mut w);
        put_u16(&mut w, self.lex);
        put_u32(&mut w, self.lanes.len() as u32);
        for lane in &self.lanes {
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
        w
    }

    /// Deserializes and structurally validates a checkpoint.  Semantic
    /// validation against a concrete query set (fingerprint, state
    /// ranges) happens in [`QuerySet::resume`].
    ///
    /// # Errors
    ///
    /// [`SessionError::Checkpoint`] on any malformed, truncated, or
    /// trailing-garbage input, or a payload layout other than one lane
    /// per member.
    pub fn from_bytes(bytes: &[u8]) -> Result<QuerySetCheckpoint, SessionError> {
        let mut r = Reader::new(bytes);
        r.preamble(QS_MAGIC, QUERYSET_CHECKPOINT_VERSION)?;
        let layout = r.u8()?;
        if layout != LAYOUT_LANES {
            return Err(corrupt(format!(
                "payload layout {layout} (this build reads {LAYOUT_LANES})"
            )));
        }
        let header = CheckpointHeader::read(&mut r)?;
        let lex = r.u16()?;
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
                    let frames = (0..n_frames).map(|_| r.u32()).collect::<Result<_, _>>()?;
                    HybridLaneCheckpoint::Stack { current, frames }
                }
                _ => return Err(corrupt("unknown lane tag")),
            });
        }
        if !r.at_end() {
            return Err(corrupt("trailing bytes after checkpoint"));
        }
        Ok(QuerySetCheckpoint { header, lex, lanes })
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

/// The engine half of a [`QuerySetSession`]: the machine state and the
/// per-member matches.
struct SetRun<'q> {
    set: &'q QuerySet,
    state: SetState,
    matches: Vec<Vec<usize>>,
}

impl WindowRun for SetRun<'_> {
    type Checkpoint = QuerySetCheckpoint;
    type Outcome = QuerySetOutcome;

    /// One [`QuerySet::drive`] call.
    fn drive(&mut self, core: &mut SessionCore, w: &[u8], stats: &mut ScanStats) -> ScanEnd {
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
        core.depth = walk.guard.depth();
        end
    }

    fn freeze(&self, core: &SessionCore) -> QuerySetCheckpoint {
        QuerySetCheckpoint {
            header: core.header(self.set.fingerprint, &self.set.alphabet),
            lex: core.lex,
            lanes: self.set.machine.freeze(&self.state),
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
    fn new(set: &'q QuerySet, core: SessionCore, state: SetState) -> QuerySetSession<'q> {
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
        QuerySetSession::new(self, SessionCore::start(limits), self.machine.fresh())
    }

    /// Reopens a session from a checkpoint minted by an equal query set
    /// (verified by fingerprint), under any product budget.
    ///
    /// # Errors
    ///
    /// [`SessionError::Checkpoint`] on a fingerprint mismatch, or any
    /// implausible or out-of-range frozen state.
    pub fn resume(
        &self,
        checkpoint: &QuerySetCheckpoint,
        limits: Limits,
    ) -> Result<QuerySetSession<'_>, SessionError> {
        let h = &checkpoint.header;
        if h.fingerprint != self.fingerprint {
            return Err(corrupt(
                "checkpoint was minted by a different query set or alphabet",
            ));
        }
        let state = self.machine.thaw(&checkpoint.lanes, h.offset, h.depth)?;
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

fn freeze_lane(lane: &LaneState, engine: &LaneEngine) -> HybridLaneCheckpoint {
    match (lane, engine) {
        (LaneState::Har { run }, LaneEngine::Har(program)) => {
            let (current, dead, chain) = run.freeze(program.core());
            HybridLaneCheckpoint::Har {
                current: current as u32,
                dead,
                chain,
            }
        }
        (LaneState::Stack { s, frames }, _) => HybridLaneCheckpoint::Stack {
            current: *s,
            frames: frames.clone(),
        },
        _ => unreachable!("lane engine/state agree by construction"),
    }
}

fn thaw_lane(
    lane: &HybridLaneCheckpoint,
    engine: &LaneEngine,
    offset: u64,
    depth: i64,
) -> Result<LaneState, SessionError> {
    Ok(match (lane, engine) {
        (
            HybridLaneCheckpoint::Har {
                current,
                dead,
                chain,
            },
            LaneEngine::Har(program),
        ) => LaneState::Har {
            run: HarRun::thaw(program.core(), *current as usize, *dead, chain, depth)?,
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
    /// Both sets with every product, and with none.
    const BUDGETED: [(&[&str], usize); 4] = [
        (AR_ONLY, DEFAULT_PRODUCT_BUDGET),
        (AR_ONLY, 0),
        (MIXED, DEFAULT_PRODUCT_BUDGET),
        (MIXED, 0),
    ];

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
        let product = |members: Vec<usize>| Some(members);
        let markup = |set: &QuerySet| set.grouping().markup.map(|g| g.members);
        let set = QuerySet::compile(AR_ONLY, &g2()).unwrap();
        assert_eq!(markup(&set), product(vec![0, 1, 2, 3]));
        assert_eq!(set.grouping().family, Vec::<usize>::new());
        let forced = QuerySet::compile_with_budget(AR_ONLY, &g2(), 0).unwrap();
        assert_eq!(markup(&forced), None);
        assert_eq!(forced.grouping().family, [0, 1, 2, 3]);
        let mixed = QuerySet::compile(MIXED, &g2()).unwrap();
        let grouping = mixed.grouping();
        assert_eq!(markup(&mixed), product(vec![0, 4, 5]));
        assert_eq!(grouping.stack.map(|g| g.members), product(vec![3]));
        assert_eq!(grouping.lanes, [1, 2]);
    }

    #[test]
    fn every_tier_matches_independent_runs() {
        for (patterns, budget) in BUDGETED {
            let set = QuerySet::compile_with_budget(patterns, &g2(), budget).unwrap();
            for doc in DOCS {
                let expected = independent(patterns, &g2(), doc);
                assert_eq!(
                    set.select_all(doc).unwrap(),
                    expected,
                    "select_all diverged ({}, budget {budget}) on {:?}",
                    set.grouping(),
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
        let set = QuerySet::compile(AR_ONLY, &g3()).unwrap();
        let markup = set.grouping().markup.expect("all-registerless set");
        assert!(markup.classes < 2 * g3().len(), "{markup:?}");
        for doc in [
            &b"<c><a><b></b></a><c/></c>"[..],
            b"<a><c></c><b><c/></b></a>",
        ]
        .into_iter()
        .chain(DOCS.iter().copied())
        {
            assert_eq!(
                set.select_all(doc).unwrap(),
                independent(AR_ONLY, &g3(), doc)
            );
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
        for (patterns, budget) in BUDGETED {
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
                        prefix, whole.matches[q],
                        "resume diverged at cut {cut} (budget {budget}, member {q})"
                    );
                }
                assert_eq!(tail.nodes, whole.nodes, "node tally at cut {cut}");
                joined.matches.clear();
            }
        }
    }

    #[test]
    fn session_agrees_with_one_shot() {
        for (patterns, budget) in BUDGETED {
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
        let g = grouped.grouping();
        assert_eq!(g.markup.map(|g| g.members), Some(vec![0, 1]));
        assert_eq!(g.stack.map(|g| g.members), Some(vec![4, 5]));
        assert_eq!((g.family, g.lanes), (vec![], vec![2, 3]));
        // Budget 0: the registerless members step through the family
        // table, every other member keeps a lane.
        let per_member = QuerySet::compile_with_budget(&patterns, &g2(), 0).unwrap();
        let g = per_member.grouping();
        assert!(g.markup.is_none() && g.stack.is_none());
        assert_eq!((g.family, g.lanes), (vec![0, 1], vec![2, 3, 4, 5]));
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
