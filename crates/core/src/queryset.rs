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
//!   product state carries an accepting mask over the set's members.
//!   Past the state budget ([`QuerySet::compile_with_budget`]) they step
//!   through one **family table** instead: the member DFAs flattened
//!   into one global state space, one load per member per event;
//! * **stack** members all push at opens and pop at closes, so they step
//!   as one product over Γ with **one shared frame stack**;
//! * **HAR** members, and stack members whose product would pass the
//!   budget, keep a native **lane** each (a depth-register run, or a
//!   DFA with its own stack), stored by kind.
//!
//! # The set step
//!
//! Every table is packed as the single-query event table is: one entry
//! per (state, lexer event) holding the next state's row offset and a
//! word of flags — whether a member selects the node the event opens,
//! whether it opens or closes, and the state whose accepting mask
//! decides the open.  The scan owns the sink by value and steps only the
//! markup product (or, without one, a one-state table that tells opens
//! from closes), one load per event with its state in a register.
//!
//! # Per-window emission
//!
//! Each event records, at the next slot of a buffer that holds one index
//! window's events, the markup entry index it read and the event code —
//! both known before the entry loads, so the record waits on nothing and
//! the walk runs at a lone query's pace.  Once per index window the
//! window is decided: the markup entries' flags and masks give the
//! group's matches, and every other part replays the window's event
//! codes in a loop of its own with its state in registers — the stack
//! product and stack lanes through a branch-free packed step over a
//! frame stack reserved once per window, the family members through
//! their table, the HAR lanes (up to four per loop, so their serial
//! walks overlap) through the packed Lemma 3.8 step — each leaving a bit
//! per event.  Then the matches go to the per-member lists in document
//! order: a group packs the window's hits (deciding state and node) into
//! a buffer that advances by "any member hit", and each member with a
//! hit in the window takes one branch-free pass over them, writing every
//! node at its list's end and advancing by its bit; a lane's nodes come
//! off its bits.  A count collector instead adds each group hit to its
//! deciding state, spread over the members once per run, and a lane's
//! bits by popcount.
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
//! sink type, parameterized by what it collects (counts or node ids),
//! by its guard (none for one-shot runs, the depth/imbalance budgets for
//! sessions) and by whether the set has anything past its markup group.
//!
//! # Sessions
//!
//! [`QuerySetSession`] is [`crate::session::EngineSession`]'s shell
//! around the machine state: windowed feeds under [`Limits`], and
//! checkpoint/resume at any byte boundary ([`QuerySetCheckpoint`], magic
//! `STQS`), with resume ≡ whole-run at every cut.

use std::collections::HashMap;
use std::fmt;
use std::hint::select_unpredictable;
use std::sync::Arc;

use st_automata::ops::{letter_classes, product_many};
use st_automata::{compile_regex, Alphabet, Dfa};
use st_trees::error::TreeError;

use crate::engine::{
    make_room, rescan_error, thaw_stack, DepthGuard, Guard, HarRun, NoGuard, TagLexer, Verdict,
    TEXT, WINDOW_EVENTS,
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
// Packed per-event tables
// ---------------------------------------------------------------------------

/// One entry of a set table per (state, lexer event), as the
/// single-query event table packs them: the next state's row offset and
/// a word of flags, with the state whose accepting mask decides the
/// event's open above them.
#[derive(Clone, Copy, Default)]
struct Entry {
    next: u32,
    word: u32,
}

/// [`Entry::word`] flag: a member of the table selects the node the
/// event opens.
const HIT: u32 = 1;
/// Markup table flags: the event opened a node, closed one.
const OPENED: u32 = 2;
const CLOSED: u32 = 4;
/// Stack table flags: the event pushes the state, pops a frame.
const PUSH: u32 = 2;
const POP: u32 = 4;
/// Where the deciding state sits in [`Entry::word`].
const DEC_SHIFT: u32 = 3;

/// The row offset of state `s` in a table of `row` entries per state.
fn row_offset(s: usize, row: usize) -> u32 {
    u32::try_from(s * row).expect("set table offsets fit u32")
}

/// The deciding-state field of an [`Entry::word`].
fn decides(s: usize) -> u32 {
    assert!(
        s < 1 << (32 - DEC_SHIFT),
        "set table states fit the entry word"
    );
    (s as u32) << DEC_SHIFT
}

/// The packed table of an `n`-state DFA over the markup letters (open
/// `l` ↦ `l`, close `l` ↦ `k + l`) that steps by `step` and selects in
/// the states `accepts` names: row `s` at offset `s * (3k + 1)`, one
/// entry per lexer event code (code 0 never fires).
fn markup_entries(
    n: usize,
    k: usize,
    step: impl Fn(usize, usize) -> usize,
    accepts: impl Fn(usize) -> bool,
) -> Vec<Entry> {
    let row = 3 * k + 1;
    let mut t = vec![Entry::default(); n * row];
    for (s, r) in t.chunks_mut(row).enumerate() {
        r[0].next = row_offset(s, row);
        for l in 0..k {
            let qo = step(s, l);
            let open = u32::from(accepts(qo)) | OPENED | decides(qo);
            r[1 + l] = Entry {
                next: row_offset(qo, row),
                word: open,
            };
            r[1 + k + l] = Entry {
                next: row_offset(step(s, k + l), row),
                word: CLOSED,
            };
            r[1 + 2 * k + l] = Entry {
                next: row_offset(step(qo, k + l), row),
                word: open | CLOSED,
            };
        }
    }
    t
}

/// The packed table of an `n`-state DFA over Γ run with a stack: an open
/// of `l` pushes the state and steps by `open`, a close pops, and a
/// self-closing element decides its node without moving.
fn stack_entries(
    n: usize,
    k: usize,
    open: impl Fn(usize, usize) -> usize,
    accepts: impl Fn(usize) -> bool,
) -> Vec<Entry> {
    let row = 3 * k + 1;
    let mut t = vec![Entry::default(); n * row];
    for (s, r) in t.chunks_mut(row).enumerate() {
        let here = row_offset(s, row);
        r[0].next = here;
        for l in 0..k {
            let qo = open(s, l);
            let decided = u32::from(accepts(qo)) | decides(qo);
            r[1 + l] = Entry {
                next: row_offset(qo, row),
                word: decided | PUSH,
            };
            r[1 + k + l] = Entry {
                next: here,
                word: POP,
            };
            r[1 + 2 * k + l] = Entry {
                next: here,
                word: decided,
            };
        }
    }
    t
}

/// A pushdown run over a stack table: the current row offset and the
/// saved row offsets, live at `[1..=top]` over a sentinel slot 0; during
/// a scan the slots past them are room [`Self::reserve`] keeps for one
/// index window's pushes.
#[derive(Clone, Default)]
struct StackRun {
    at: u32,
    frames: Vec<u32>,
    top: usize,
}

impl StackRun {
    /// A run in row offset `at` over the saved offsets `frames`.
    fn new(at: u32, frames: Vec<u32>) -> StackRun {
        StackRun {
            at,
            top: frames.len(),
            frames: [0].into_iter().chain(frames).collect(),
        }
    }

    /// Applies lexer event `ev`: one packed entry, a load of the top
    /// frame and a store of the state above it (scratch unless the event
    /// pushes), both addressed before the entry arrives, and a select
    /// between that frame and the entry's next state — no branch on the
    /// event kind.  An underflowing close keeps the state, like the
    /// single-query stack step.  Returns the entry's word.
    #[inline(always)]
    fn step(&mut self, table: &[Entry], ev: u16) -> u32 {
        let (at, top) = (self.at, self.top);
        let e = table[at as usize + ev as usize];
        let below = self.frames[top];
        self.frames[top + 1] = at;
        let pop = (e.word & POP != 0) & (top != 0);
        self.top = top + usize::from(e.word & PUSH != 0) - usize::from(pop);
        self.at = select_unpredictable(pop, below, e.next);
        e.word
    }

    /// Makes room for `events` more events (the sentinel and a push's
    /// slot above the top included).
    #[inline(always)]
    fn reserve(&mut self, events: usize) {
        make_room(&mut self.frames, self.top + 1, events + 1);
    }

    /// The frozen form: the current state and the live frames, with `row`
    /// entries per state.
    fn freeze(&self, row: usize) -> (u32, Vec<u32>) {
        let state = |at: u32| at / row as u32;
        let live = self.frames.get(1..=self.top).unwrap_or_default();
        (state(self.at), live.iter().map(|&f| state(f)).collect())
    }
}

/// The registerless members past the budget, their markup DFAs
/// flattened into one global state space: member `j`'s states occupy
/// the block `starts[j]..starts[j+1]`, and one packed table over global
/// states steps every member.
struct FamilyTable {
    /// Set-wide index per member.
    members: Vec<usize>,
    /// Initial row offset per member.
    init: Vec<u32>,
    /// Block boundaries, `len == members.len() + 1`.
    starts: Vec<u32>,
    /// Entries per state (`3k + 1`).
    row: usize,
    entries: Vec<Entry>,
}

impl FamilyTable {
    fn build(dfas: &[&Dfa], members: Vec<usize>, k: usize) -> FamilyTable {
        let row = 3 * k + 1;
        let mut starts = vec![0u32];
        let mut owner = Vec::new();
        for (j, d) in dfas.iter().enumerate() {
            owner.extend(std::iter::repeat_n(j, d.n_states()));
            starts.push(u32::try_from(owner.len()).expect("family state space fits u32"));
        }
        let local = |g: usize| (dfas[owner[g]], starts[owner[g]] as usize);
        let entries = markup_entries(
            owner.len(),
            k,
            |g, a| {
                let (d, base) = local(g);
                base + d.step(g - base, a)
            },
            |g| {
                let (d, base) = local(g);
                d.is_accepting(g - base)
            },
        );
        let init = (dfas.iter().zip(&starts))
            .map(|(d, &start)| row_offset(start as usize + d.init(), row))
            .collect();
        FamilyTable {
            members,
            init,
            starts,
            row,
            entries,
        }
    }

    /// The row offset of member `j`'s state `s`, or `None` when `s` is
    /// not one of its states.
    fn global(&self, j: usize, s: u32) -> Option<u32> {
        let (start, end) = (self.starts[j], self.starts[j + 1]);
        let g = s.checked_add(start).filter(|&g| g < end)?;
        Some(row_offset(g as usize, self.row))
    }

    /// Member `j`'s own state at row offset `at`.
    fn local(&self, j: usize, at: u32) -> u32 {
        at / self.row as u32 - self.starts[j]
    }
}

/// A stack member past the budget, as its own lane: its minimal DFA's
/// packed stack table.
struct StackLane {
    n_states: usize,
    init: u32,
    entries: Vec<Entry>,
}

impl StackLane {
    fn build(dfa: &Dfa) -> StackLane {
        let k = dfa.n_letters();
        StackLane {
            n_states: dfa.n_states(),
            init: row_offset(dfa.init(), 3 * k + 1),
            entries: stack_entries(
                dfa.n_states(),
                k,
                |s, l| dfa.step(s, l),
                |s| dfa.is_accepting(s),
            ),
        }
    }
}

/// Members of one class stepping as one product over their letter
/// classes: the product's packed table (markup or stack), each state's
/// accepting mask over the whole set's members, and each product state's
/// component tuple, which projects the group onto per-member lanes and
/// lifts lanes back.
struct Group {
    entries: Vec<Entry>,
    /// `u64` words per accepting mask (`ceil(set members / 64)`).
    words: usize,
    /// Per-state accepting masks: `accept[s * words ..][..words]`, bit
    /// `i` set iff set member `i` selects in product state `s`.
    accept: Vec<u64>,
    classes: usize,
    /// Group members (their set-wide indices), in set order.
    members: Vec<usize>,
    /// `tuples[s * members.len() + j]`: member `j`'s state in product
    /// state `s`.
    tuples: Vec<u32>,
}

/// Which packed table a [`Group`] steps through.
#[derive(Clone, Copy)]
enum Class {
    /// Registerless members over the markup letters.
    Markup,
    /// Stack members over Γ, with one shared frame stack.
    Stack,
}

impl Group {
    /// The product of the members `ids` (with DFAs `dfas`, over `k`
    /// labels) over their letter classes, or `None` when there are no
    /// members, the budget is 0, or the product would pass `budget`
    /// states.
    fn build(
        dfas: &[&Dfa],
        ids: &[usize],
        (k, words, budget): (usize, usize, usize),
        class: Class,
    ) -> Option<Group> {
        if ids.is_empty() || budget == 0 {
            return None;
        }
        let (class_of, n_classes) = letter_classes(dfas);
        let mp = product_many(dfas, &class_of, n_classes, budget)?;
        let n = mp.tuples.len();
        let mut accept = vec![0u64; n * words];
        for (s, tuple) in mp.tuples.iter().enumerate() {
            for ((&st, d), &i) in tuple.iter().zip(dfas).zip(ids) {
                if d.is_accepting(st) {
                    accept[s * words + (i >> 6)] |= 1 << (i & 63);
                }
            }
        }
        let step = |s: usize, a: usize| mp.delta[s * n_classes + class_of[a]];
        let accepts = |s: usize| accept[s * words..][..words].iter().any(|&w| w != 0);
        let entries = match class {
            Class::Markup => markup_entries(n, k, step, accepts),
            Class::Stack => stack_entries(n, k, step, accepts),
        };
        let tuples = mp.tuples.iter().flatten().map(|&q| q as u32).collect();
        Some(Group {
            entries,
            words,
            accept,
            classes: n_classes,
            members: ids.to_vec(),
            tuples,
        })
    }

    /// Member `j`'s state in product state `s`.
    #[inline]
    fn project(&self, s: u32, j: usize) -> u32 {
        self.tuples[s as usize * self.members.len() + j]
    }

    /// The accepting mask of product state `s`.
    #[inline]
    fn masks(&self, s: u32) -> &[u64] {
        &self.accept[s as usize * self.words..][..self.words]
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
            classes: self.classes,
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
    /// HAR lane `i`.
    Har(usize),
    /// Stack lane `i`.
    Lane(usize),
}

/// What the set steps past its markup group: the family table, the
/// stack group and the lanes, each kind in its own list.  They replay
/// each index window's events once the scan has recorded them (see
/// [`scatter`]); a set without a tail skips that per window.
struct Tail {
    /// Registerless members past the budget (possibly none).
    family: FamilyTable,
    /// Stack members as one product over Γ; opens push its state on one
    /// shared frame stack, closes pop it.
    stack: Option<Group>,
    /// Stackless members, each its Lemma 3.8 program, with its set-wide
    /// index.
    har: Vec<(usize, HarMarkupProgram)>,
    /// Stack members past the budget, each with its set-wide index.
    lanes: Vec<(usize, StackLane)>,
}

/// The set's machine: the class groups and the lanes.
struct SetMachine {
    /// Entries per table row (`3k + 1`).
    row: usize,
    /// Registerless members as one markup product (closes are real
    /// transitions).
    markup: Option<Group>,
    /// Without a markup group: a one-state markup table, whose entries
    /// only tell opens from closes.
    idle: Vec<Entry>,
    tail: Option<Box<Tail>>,
    /// Per member, in set order.
    seats: Vec<Seat>,
}

/// The machine's live state: the markup group's row offset, the family
/// table's, the stack group's run, and the lanes.
#[derive(Default)]
struct SetState {
    markup: u32,
    family: Vec<u32>,
    stack: StackRun,
    har: Vec<HarRun>,
    lanes: Vec<StackRun>,
}

impl SetMachine {
    fn build(plans: &[&CompiledQuery], k: usize, budget: usize) -> SetMachine {
        let sizes = (k, plans.len().div_ceil(64), budget);
        let (mut markup_ids, mut markups) = (Vec::new(), Vec::new());
        let (mut stack_ids, mut stacks) = (Vec::new(), Vec::new());
        let mut har = Vec::new();
        for (i, p) in plans.iter().enumerate() {
            if let Some(m) = p.markup_dfa() {
                markup_ids.push(i);
                markups.push(m);
            } else if let Some(h) = p.har_program() {
                har.push((i, h.clone()));
            } else {
                stack_ids.push(i);
                stacks.push(p.minimal_dfa());
            }
        }
        let markup = Group::build(&markups, &markup_ids, sizes, Class::Markup);
        let family = match markup {
            Some(_) => FamilyTable::build(&[], Vec::new(), k),
            None => FamilyTable::build(&markups, markup_ids, k),
        };
        let stack = Group::build(&stacks, &stack_ids, sizes, Class::Stack);
        let lanes: Vec<(usize, StackLane)> = match stack {
            Some(_) => Vec::new(),
            None => (stack_ids.iter().zip(&stacks))
                .map(|(&i, d)| (i, StackLane::build(d)))
                .collect(),
        };
        let mut seats = vec![Seat::Markup(0); plans.len()];
        let mut seat = |members: Vec<usize>, at: fn(usize) -> Seat| {
            for (j, i) in members.into_iter().enumerate() {
                seats[i] = at(j);
            }
        };
        let group_members =
            |g: &Option<Group>| g.as_ref().map_or_else(Vec::new, |g| g.members.clone());
        seat(group_members(&markup), Seat::Markup);
        seat(family.members.clone(), Seat::Family);
        seat(group_members(&stack), Seat::Stack);
        seat(har.iter().map(|l| l.0).collect(), Seat::Har);
        seat(lanes.iter().map(|l| l.0).collect(), Seat::Lane);
        let tail =
            (!family.members.is_empty() || stack.is_some() || !har.is_empty() || !lanes.is_empty())
                .then(|| {
                    Box::new(Tail {
                        family,
                        stack,
                        har,
                        lanes,
                    })
                });
        SetMachine {
            row: 3 * k + 1,
            markup,
            idle: markup_entries(1, k, |_, _| 0, |_| false),
            tail,
            seats,
        }
    }

    /// The state at document start (a product's initial state is 0).
    fn fresh(&self) -> SetState {
        match &self.tail {
            Some(t) => SetState {
                family: t.family.init.clone(),
                har: t.har.iter().map(|(_, p)| HarRun::new(p.core())).collect(),
                lanes: (t.lanes.iter())
                    .map(|(_, l)| StackRun::new(l.init, Vec::new()))
                    .collect(),
                ..SetState::default()
            },
            None => SetState::default(),
        }
    }

    /// Projects the state onto one checkpoint lane per member.
    fn freeze(&self, st: &SetState) -> Vec<HybridLaneCheckpoint> {
        let seated = "seated members have a group";
        let (markup, tail) = (self.markup.as_ref(), self.tail.as_ref());
        let row = self.row as u32;
        self.seats
            .iter()
            .map(|seat| match *seat {
                Seat::Markup(j) => HybridLaneCheckpoint::Markup {
                    state: markup.expect(seated).project(st.markup / row, j),
                },
                Seat::Family(j) => HybridLaneCheckpoint::Markup {
                    state: tail.expect(seated).family.local(j, st.family[j]),
                },
                Seat::Stack(j) => {
                    let g = tail.and_then(|t| t.stack.as_ref()).expect(seated);
                    let (current, frames) = st.stack.freeze(self.row);
                    HybridLaneCheckpoint::Stack {
                        current: g.project(current, j),
                        frames: frames.iter().map(|&f| g.project(f, j)).collect(),
                    }
                }
                Seat::Har(i) => {
                    let program = &tail.expect(seated).har[i].1;
                    let (current, dead, chain) = st.har[i].freeze(program.core());
                    HybridLaneCheckpoint::Har {
                        current: current as u32,
                        dead,
                        chain,
                    }
                }
                Seat::Lane(i) => {
                    let (current, frames) = st.lanes[i].freeze(self.row);
                    HybridLaneCheckpoint::Stack { current, frames }
                }
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
        let at = |s: u32| row_offset(s as usize, self.row);
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
                (
                    Seat::Har(i),
                    HybridLaneCheckpoint::Har {
                        current,
                        dead,
                        chain,
                    },
                ) => {
                    let core = tail().har[*i].1.core();
                    st.har[*i] = HarRun::thaw(core, *current as usize, *dead, chain, depth)?;
                }
                (Seat::Lane(i), HybridLaneCheckpoint::Stack { current, frames }) => {
                    let n = tail().lanes[*i].1.n_states;
                    let frames = thaw_stack(n, *current, frames, offset)?;
                    st.lanes[*i] =
                        StackRun::new(at(*current), frames.into_iter().map(at).collect());
                }
                _ => return Err(corrupt("lane kind does not match the member's engine")),
            }
        }
        if let Some(g) = &self.markup {
            st.markup = at(g.lifter()(&markup)?);
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
            let saved = (0..depth)
                .map(|d| lift(&frames.iter().map(|f| f[d]).collect::<Vec<_>>()).map(at))
                .collect::<Result<_, _>>()?;
            st.stack = StackRun::new(at(lift(&current)?), saved);
        }
        Ok(st)
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
            machine: SetMachine::build(&plans, k, budget),
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
        let mut lanes: Vec<usize> = tail.map_or_else(Vec::new, |t| {
            let har = t.har.iter().map(|l| l.0);
            har.chain(t.lanes.iter().map(|l| l.0)).collect()
        });
        lanes.sort_unstable();
        SetGrouping {
            markup: m.markup.as_ref().map(Group::shape),
            family: tail.map_or_else(Vec::new, |t| t.family.members.clone()),
            stack: tail.and_then(|t| t.stack.as_ref()).map(Group::shape),
            lanes,
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
        let mut counts = Counts::new(&self.machine);
        self.one_shot(bytes, &mut counts)?;
        Ok(counts.finish(&self.machine))
    }

    /// Per-query selected node ids (document order) from one pass.
    /// `sel[q]` equals `Query::compile(pattern_q).select(bytes)`.
    ///
    /// # Errors
    ///
    /// As for [`Self::count_all`].
    pub fn select_all(&self, bytes: &[u8]) -> Result<Vec<Vec<usize>>, TreeError> {
        let mut sel = vec![Vec::new(); self.members.len()];
        self.one_shot(bytes, &mut sel[..])?;
        Ok(sel)
    }

    /// One unguarded pass over a whole document into `out`.
    fn one_shot<C: Collect + ?Sized>(&self, bytes: &[u8], out: &mut C) -> Result<(), TreeError> {
        let mut walk = Walk {
            node: 0,
            depth: 0,
            guard: NoGuard,
        };
        let certify = self.lexer.certify(false);
        let mut stats = ScanStats::default();
        let mut state = self.machine.fresh();
        let mut scratch = Scratch::new(&self.machine);
        match self.drive(
            &mut state,
            bytes,
            TEXT,
            certify,
            &mut walk,
            &mut scratch,
            out,
            &mut stats,
        ) {
            ScanEnd::Complete { lex: TEXT } => Ok(()),
            // Any failure re-scans cold for the exact single-query
            // diagnostic (same offset and message as `Query::count`).
            _ => Err(rescan_error(bytes, &self.alphabet)),
        }
    }

    /// Scans `bytes` from lexer state `lex` through the machine's sink,
    /// advancing `state` and `walk`, with `scratch` (made for this set)
    /// as the sink's buffers — the one byte pass of every one-shot run
    /// and session window.
    #[allow(clippy::too_many_arguments)]
    fn drive<C: Collect + ?Sized, G: Guard + Copy>(
        &self,
        state: &mut SetState,
        bytes: &[u8],
        lex: u16,
        certify: bool,
        walk: &mut Walk<G>,
        scratch: &mut Scratch,
        out: &mut C,
        stats: &mut ScanStats,
    ) -> ScanEnd {
        let m = &self.machine;
        let sink = SetSink {
            machine: m,
            table: m.markup.as_ref().map_or(&m.idle, |g| &g.entries),
            markup: state.markup,
            st: state,
            walk: *walk,
            depth: walk.depth,
            events: &mut scratch.events,
            len: 0,
            columns: &mut scratch.columns,
            out,
        };
        let (end, mut sink) = structural_scan(&self.lexer, bytes, lex, certify, stats, sink);
        sink.flush();
        (sink.st.markup, *walk) = (sink.markup, sink.walk);
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
// The sink (monomorphized per collector × guard)
// ---------------------------------------------------------------------------

/// Where a pass stands between scans: the id of the next opened node,
/// the depth (HAR lanes register it), and the guard.
#[derive(Clone, Copy)]
struct Walk<G> {
    node: usize,
    depth: i64,
    guard: G,
}

/// What a multi-query run collects, one index window at a time.
trait Collect {
    /// Group `gi` (0 markup, 1 stack), `g`: per event of the window, the
    /// group entry's word (its hit flag and deciding state) and the id
    /// of the node the event opened (or of the next one); `spare` is
    /// room for a window's worth of masks and nodes.
    fn group(&mut self, gi: usize, g: &Group, words: &[u32], nodes: &[usize], spare: &mut Spare);

    /// Member `q`: a bit per event of the window, a word per 64 events,
    /// set where it selects the event's node `nodes[e]`.
    fn column(&mut self, q: usize, col: &[u64], nodes: &[usize]);
}

/// Room for one window's hits: each hit's deciding state, its mask word
/// and its node.
struct Spare {
    states: Vec<u32>,
    masks: Vec<u64>,
    nodes: Vec<usize>,
}

/// Per-member node lists.
impl Collect for [Vec<usize>] {
    /// The window's hits first, each its deciding state and node, in one
    /// branch-free pass; then per mask word each hit's mask, and per
    /// member with a hit in the window one branch-free pass over the
    /// hits that appends the nodes its bit selects.
    fn group(&mut self, _gi: usize, g: &Group, words: &[u32], nodes: &[usize], spare: &mut Spare) {
        let Spare {
            states,
            masks,
            nodes: kept,
        } = spare;
        let mut k = 0;
        for (&word, &node) in words.iter().zip(nodes) {
            states[k] = word >> DEC_SHIFT;
            kept[k] = node;
            k += (word & HIT) as usize;
        }
        let (states, masks, kept) = (&states[..k], &mut masks[..k], &kept[..k]);
        for w in 0..g.words {
            let mut any = 0;
            for (mask, &s) in masks.iter_mut().zip(states) {
                *mask = g.accept[s as usize * g.words + w];
                any |= *mask;
            }
            while any != 0 {
                let b = any.trailing_zeros();
                append_selected(&mut self[(w << 6) + b as usize], masks, kept, b);
                any &= any - 1;
            }
        }
    }

    fn column(&mut self, q: usize, col: &[u64], nodes: &[usize]) {
        let list = &mut self[q];
        list.reserve(col.iter().map(|b| b.count_ones() as usize).sum());
        for (block, &bits) in col.iter().enumerate() {
            let mut bits = bits;
            while bits != 0 {
                list.push(nodes[(block << 6) + bits.trailing_zeros() as usize]);
                bits &= bits - 1;
            }
        }
    }
}

/// Appends to `list` the `nodes` whose `masks` have bit `b` set: every
/// node is written at the list's end, which advances by the bit.
fn append_selected(list: &mut Vec<usize>, masks: &[u64], nodes: &[usize], b: u32) {
    let mut len = list.len();
    list.resize(len + nodes.len(), 0);
    for (&mask, &node) in masks.iter().zip(nodes) {
        list[len] = node;
        len += (mask >> b) as usize & 1;
    }
    list.truncate(len);
}

/// Per-member match counts.  A group's hits are counted per deciding
/// state, one branch-free add each, and spread over the members once
/// ([`Self::finish`]); a lane's are counted a word of events at a time.
struct Counts {
    counts: Vec<usize>,
    /// Hits per product state of the markup and the stack group, in
    /// [`HIT_WAYS`] counters per state: consecutive events add to
    /// different ones, so runs of one state (or of misses, which all add
    /// to state 0) wait on no earlier add.
    hits: [Vec<usize>; 2],
}

/// Counters per group state in [`Counts::hits`].
const HIT_WAYS: usize = 4;

impl Counts {
    fn new(m: &SetMachine) -> Counts {
        let states =
            |g: Option<&Group>| vec![0; g.map_or(0, |g| g.accept.len() / g.words * HIT_WAYS)];
        let stack = m.tail.as_ref().and_then(|t| t.stack.as_ref());
        Counts {
            counts: vec![0; m.seats.len()],
            hits: [states(m.markup.as_ref()), states(stack)],
        }
    }

    /// The counts, with every group state's hits added to its members.
    fn finish(mut self, m: &SetMachine) -> Vec<usize> {
        let stack = m.tail.as_ref().and_then(|t| t.stack.as_ref());
        for (g, hits) in [m.markup.as_ref(), stack].into_iter().zip(&self.hits) {
            let Some(g) = g else { continue };
            let per_state = hits.chunks(HIT_WAYS).map(|ways| ways.iter().sum::<usize>());
            for (s, n) in per_state.enumerate().filter(|&(_, n)| n > 0) {
                for (w, &bits) in g.masks(s as u32).iter().enumerate() {
                    let mut bits = bits;
                    while bits != 0 {
                        self.counts[(w << 6) + bits.trailing_zeros() as usize] += n;
                        bits &= bits - 1;
                    }
                }
            }
        }
        self.counts
    }
}

impl Collect for Counts {
    fn group(&mut self, gi: usize, _g: &Group, words: &[u32], _nodes: &[usize], _: &mut Spare) {
        let hits = &mut self.hits[gi];
        for (e, &word) in words.iter().enumerate() {
            let at = (word >> DEC_SHIFT) as usize * HIT_WAYS + e % HIT_WAYS;
            hits[at] += (word & HIT) as usize;
        }
    }

    fn column(&mut self, q: usize, col: &[u64], _nodes: &[usize]) {
        self.counts[q] += col.iter().map(|b| b.count_ones() as usize).sum::<usize>();
    }
}

/// The buffers a pass lends its scans: one index window's events as the
/// scan records them, and the columns deciding them takes.
struct Scratch {
    /// Per event: the markup table's entry index, and the event code
    /// above it.
    events: Vec<u64>,
    columns: Columns,
}

/// Per-event columns [`scatter`] fills.
struct Columns {
    /// The id of the node the event opened (or of the next one).
    nodes: Vec<usize>,
    /// A group's entry word.
    words: Vec<u32>,
    spare: Spare,
    /// The stack group's entry index.
    stack: Vec<u32>,
    /// Per family member and lane, in that order: a bit per event, a
    /// word per 64 events.
    bits: Vec<u64>,
}

/// Words of [`Columns::bits`] per family member or lane.
const BIT_WORDS: usize = WINDOW_EVENTS.div_ceil(64);

impl Scratch {
    fn new(m: &SetMachine) -> Scratch {
        let (stack, parts) = m.tail.as_ref().map_or((0, 0), |t| {
            let parts = t.family.members.len() + t.har.len() + t.lanes.len();
            (if t.stack.is_some() { WINDOW_EVENTS } else { 0 }, parts)
        });
        Scratch {
            events: vec![0; WINDOW_EVENTS],
            columns: Columns {
                nodes: vec![0; WINDOW_EVENTS],
                words: vec![0; WINDOW_EVENTS],
                spare: Spare {
                    states: vec![0; WINDOW_EVENTS],
                    masks: vec![0; WINDOW_EVENTS],
                    nodes: vec![0; WINDOW_EVENTS],
                },
                stack: vec![0; stack],
                bits: vec![0; parts * BIT_WORDS],
            },
        }
    }
}

/// Replays `events` through one lane's `step` (which returns whether the
/// lane selects the event's node) and sets the lane's bit per selecting
/// event in `bits`, a word per 64 events.
#[inline(always)]
fn lane_bits(events: &[u64], bits: &mut [u64], mut step: impl FnMut(u16) -> bool) {
    for (block, evs) in bits.iter_mut().zip(events.chunks(64)) {
        let mut word = 0u64;
        for (e, &c) in evs.iter().enumerate() {
            word |= u64::from(step((c >> 32) as u16)) << e;
        }
        *block = word;
    }
}

/// The next `n` bit columns.
fn bits_of<'c>(column: &mut impl FnMut() -> &'c mut [u64], n: usize) -> Vec<&'c mut [u64]> {
    (0..n).map(|_| column()).collect()
}

/// Replays `events` through `N` HAR lanes at once, from `depth`,
/// setting each lane's bit per selecting event in its column.
#[inline(always)]
fn har_replay<const N: usize>(
    runs: &mut [HarRun],
    lanes: &[(usize, HarMarkupProgram)],
    events: &[u64],
    cols: &mut [&mut [u64]],
    depth: i64,
) {
    let mut r: [HarRun; N] = std::array::from_fn(|i| runs[i]);
    let rows: [&[u32]; N] = std::array::from_fn(|i| lanes[i].1.core().rows());
    let mut d = [depth; N];
    for (block, evs) in events.chunks(64).enumerate() {
        let mut words = [0u64; N];
        for (e, &c) in evs.iter().enumerate() {
            let ev = (c >> 32) as u16;
            for i in 0..N {
                words[i] |= u64::from(r[i].step(rows[i], ev, &mut d[i]).1) << e;
            }
        }
        for (col, word) in cols.iter_mut().zip(words) {
            col[block] = word;
        }
    }
    runs[..N].copy_from_slice(&r);
}

/// Decides one index window's `events` and hands their matches to
/// `out`.  The markup group's decisions are in the entries the scan
/// read; every other part of the machine replays the event codes in a
/// loop of its own, from its state in `st` at the window's start (which
/// it advances; HAR lanes from the window's starting `depth`), with that
/// state in registers, and its selecting members get the nodes.  `node`
/// is the id of the window's first opened node.  Out of the scan's loop
/// and out of line: it gets the buffers' and the lists' addresses, never
/// one into the sink.  Returns the nodes the window opened.
#[inline(never)]
fn scatter<C: Collect + ?Sized>(
    out: &mut C,
    m: &SetMachine,
    st: &mut SetState,
    events: &[u64],
    columns: &mut Columns,
    (node, depth): (usize, i64),
) -> usize {
    let table = m.markup.as_ref().map_or(&m.idle, |g| &g.entries);
    let len = events.len();
    let Columns {
        nodes,
        words,
        spare,
        stack,
        bits,
    } = columns;
    let (nodes, words) = (&mut nodes[..len], &mut words[..len]);
    let mut n = node;
    for ((&c, id), word) in events.iter().zip(nodes.iter_mut()).zip(words.iter_mut()) {
        *word = table[c as u32 as usize].word;
        *id = n;
        n += usize::from(*word & OPENED != 0);
    }
    if let Some(g) = &m.markup {
        out.group(0, g, words, nodes, spare);
    }
    let Some(t) = m.tail.as_deref() else {
        return n - node;
    };
    if let Some(g) = &t.stack {
        let stack = &mut stack[..len];
        let mut run = std::mem::take(&mut st.stack);
        run.reserve(len);
        for (&c, at) in events.iter().zip(stack.iter_mut()) {
            let ev = (c >> 32) as u16;
            *at = run.at + u32::from(ev);
            run.step(&g.entries, ev);
        }
        st.stack = run;
        for (&at, word) in stack.iter().zip(words.iter_mut()) {
            *word = g.entries[at as usize].word;
        }
        out.group(1, g, words, nodes, spare);
    }
    let mut columns = bits.chunks_mut(BIT_WORDS);
    let mut column = || &mut columns.next().expect("a bit column per part")[..len.div_ceil(64)];
    let f = &t.family;
    for (s, &q) in st.family.iter_mut().zip(&f.members) {
        let col = column();
        lane_bits(events, col, |ev| {
            let e = f.entries[*s as usize + ev as usize];
            *s = e.next;
            e.word & HIT != 0
        });
        out.column(q, col, nodes);
    }
    // HAR lanes replay up to four at a time: each run's chain is one
    // long serial walk, and several of them in one loop overlap.
    for (runs, lanes) in st.har.chunks_mut(4).zip(t.har.chunks(4)) {
        let cols = &mut bits_of(&mut column, lanes.len());
        match runs.len() {
            4 => har_replay::<4>(runs, lanes, events, cols, depth),
            3 => har_replay::<3>(runs, lanes, events, cols, depth),
            2 => har_replay::<2>(runs, lanes, events, cols, depth),
            _ => har_replay::<1>(runs, lanes, events, cols, depth),
        }
        for ((q, _), col) in lanes.iter().zip(cols.iter()) {
            out.column(*q, col, nodes);
        }
    }
    for (run, (q, lane)) in st.lanes.iter_mut().zip(&t.lanes) {
        let col = column();
        run.reserve(len);
        lane_bits(events, col, |ev| run.step(&lane.entries, ev) & HIT != 0);
        out.column(*q, col, nodes);
    }
    n - node
}

/// The machine's event sink, which the scan owns by value.
///
/// Every event steps the markup table (the group's, or the idle one) and
/// records, at the next slot of the lent buffer, the entry index it read
/// and the event code.  Both are known before the entry loads, so
/// neither the slot nor the record waits on it and the walk runs at a
/// lone query's pace.  Once per index window ([`EventSink::reserve`])
/// [`scatter`] decides the recorded events: the markup entries' flags
/// and masks, and every other part of the machine replaying the event
/// codes in a loop of its own.
struct SetSink<'a, C: ?Sized, G> {
    machine: &'a SetMachine,
    /// The markup group's table, or the idle one.
    table: &'a [Entry],
    /// The markup group's row offset.
    markup: u32,
    /// Every other part's state, as of the window's start.
    st: &'a mut SetState,
    walk: Walk<G>,
    /// The depth at the window's start.
    depth: i64,
    events: &'a mut [u64],
    len: usize,
    columns: &'a mut Columns,
    out: &'a mut C,
}

impl<C: Collect + ?Sized, G: Guard> SetSink<'_, C, G> {
    /// Decides and scatters the window's events and moves the node count
    /// past them.
    #[inline(always)]
    fn flush(&mut self) {
        let (events, window) = (&self.events[..self.len], (self.walk.node, self.depth));
        self.walk.node += scatter(
            self.out,
            self.machine,
            self.st,
            events,
            self.columns,
            window,
        );
        (self.len, self.depth) = (0, self.walk.depth);
    }
}

impl<C: Collect + ?Sized, G: Guard> EventSink for SetSink<'_, C, G> {
    #[inline(always)]
    fn event(&mut self, ev: u16, _pos: usize) {
        let at = self.markup + u32::from(ev);
        let e = self.table[at as usize];
        self.markup = e.next;
        self.events[self.len] = u64::from(at) | u64::from(ev) << 32;
        self.len += 1;
        let (opened, closed) = (e.word & OPENED != 0, e.word & CLOSED != 0);
        self.walk.depth += i64::from(opened) - i64::from(closed);
        let v = Verdict {
            opened,
            closed,
            selected: false,
        };
        self.walk.guard.track(v, Some(self.walk.depth));
    }

    #[inline(always)]
    fn reserve(&mut self, events: usize) {
        debug_assert!(events <= self.events.len());
        self.flush();
    }

    #[inline(always)]
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

/// The engine half of a [`QuerySetSession`]: the machine state, the
/// per-member matches and the buffers every scan records its events
/// in.
struct SetRun<'q> {
    set: &'q QuerySet,
    state: SetState,
    matches: Vec<Vec<usize>>,
    scratch: Scratch,
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
        let end = self.set.drive(
            &mut self.state,
            w,
            core.lex,
            certify,
            &mut walk,
            &mut self.scratch,
            &mut self.matches[..],
            stats,
        );
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
                scratch: Scratch::new(&set.machine),
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
