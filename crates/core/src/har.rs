//! Lemma 3.8: compiling HAR languages to depth-register automata.
//!
//! The compiled program simulates the minimal automaton A of L on the word
//! ŵ labelling the path from the root to the current node, maintaining:
//!
//! * a *current* proxy state `p` that **meets** the true simulated state
//!   inside its SCC (and equals it exactly after every opening tag — which
//!   is what makes pre-selection exact), and
//! * a chain of records, one per SCC abandoned on the way down, each
//!   holding a proxy state (in control state) and the depth at which the
//!   SCC was left (in a register).
//!
//! Transitions:
//!
//! * **opening tag `a`** — by HAR + minimality, `p·a` is the true next
//!   state.  If it stays in the current SCC, just move; otherwise push the
//!   current proxy into the chain, loading the current depth into the
//!   chain's next register.
//! * **closing tag `ā`** — compare the current depth against the topmost
//!   record's register: if the register is *greater* (we climbed above the
//!   point where the SCC was left) pop the record and resume its proxy;
//!   otherwise *rewind inside the SCC*: move to the minimal state `p′` of
//!   the SCC with `p′·a` in the SCC and almost equivalent to `p` (the proof
//!   shows some `p′` exists on valid encodings and that any choice keeps
//!   the invariant).
//!
//! The chain length is bounded by the depth of A's SCC DAG, so the control
//! state ranges over a finite set and the register budget is fixed —
//! a genuine depth-register automaton.
//!
//! The blind variant (Theorem B.2) differs only in the rewind rule: the
//! closing tag carries no label, so `p′` is chosen so that **some** letter
//! `a` has `p′·a` in the SCC and almost equivalent to `p` — blind HAR makes
//! the choice of letter irrelevant.

use st_automata::dfa::{Dfa, State};
use st_automata::pairs::MeetMode;
use st_automata::Tag;
use st_trees::encode::TermEvent;

use crate::analysis::Analysis;
use crate::classify::check_har;
use crate::error::CoreError;
use crate::model::{DraProgram, LoadMask, RegCmps};

/// Shared core of the markup and term HAR programs.
#[derive(Clone, Debug)]
pub struct HarCore {
    dfa: Dfa,
    /// SCC id per state.
    component: Vec<usize>,
    /// Register budget: maximum chain length (SCC-DAG depth − 1).
    n_registers: usize,
    /// `rewind_markup[p * k + a]`: minimal `p′` in p's SCC with `p′·a` in
    /// the SCC and almost equivalent to `p`.
    rewind_markup: Vec<Option<State>>,
    /// `rewind_term[p]`: the blind variant (any witnessing letter).
    rewind_term: Vec<Option<State>>,
    /// The packed markup step, one entry per (state, lexer event code
    /// `1..=3k`); see [`packed_rows`].  Empty in a term program.
    rows: Vec<u32>,
}

/// A packed step entry holds the next state's row offset in its low
/// `ROW_BITS` bits, then the five flags below.
pub(crate) const ROW_BITS: u32 = 26;
/// The mask of a packed entry's next row offset.
pub(crate) const ROW_NEXT: u32 = (1 << ROW_BITS) - 1;
/// The open pushes the state it leaves, with the depth, as a frame.
pub(crate) const ROW_PUSH: u32 = 1 << ROW_BITS;
/// The close pops the top frame if its register is above the depth.
pub(crate) const ROW_POP: u32 = 1 << (ROW_BITS + 1);
/// The opened node is selected.
pub(crate) const ROW_ACCEPT: u32 = 1 << (ROW_BITS + 2);
/// The event opens a node: the depth rises by one before any push.
pub(crate) const ROW_OPEN: u32 = 1 << (ROW_BITS + 3);
/// The event closes a node: the depth falls by one before any pop.
pub(crate) const ROW_CLOSE: u32 = 1 << (ROW_BITS + 4);

/// The packed Lemma 3.8 markup step: one `u32` per (state, lexer event
/// code `1..=3k`), in rows of stride `3k + 1` (column 0 is unused).
/// Rows `m..2m` are the states' dead copies, which only move the depth:
/// a close that neither pops nor rewinds enters the dead copy of its
/// state, so the step never asks whether the run is dead.
fn packed_rows(dfa: &Dfa, component: &[usize], rewind: &[Option<State>]) -> Vec<u32> {
    let (m, k) = (dfa.n_states(), dfa.n_letters());
    let stride = 3 * k + 1;
    let row = |s: usize| (s * stride) as u32;
    let back = |s: usize, l: usize| row(rewind[s * k + l].unwrap_or(s + m));
    let mut rows = vec![0; 2 * m * stride];
    for s in 0..m {
        let (live, dead) = (s * stride + 1, (s + m) * stride + 1);
        for l in 0..k {
            let next = dfa.step(s, l);
            let accept = if dfa.is_accepting(next) {
                ROW_ACCEPT
            } else {
                0
            };
            let push = component[next] != component[s];
            let open = row(next) | ROW_OPEN | accept;
            rows[live + l] = open | if push { ROW_PUSH } else { 0 };
            rows[live + k + l] = back(s, l) | ROW_CLOSE | ROW_POP;
            // A self-close pops its own push, or rewinds from the state
            // it opened: a live run's top register never exceeds the
            // depth, so no older frame can pop.
            let after = if push { row(s) } else { back(next, l) };
            rows[live + 2 * k + l] = after | ROW_OPEN | ROW_CLOSE | accept;
            rows[dead + l] = row(s + m) | ROW_OPEN;
            rows[dead + k + l] = row(s + m) | ROW_CLOSE;
            rows[dead + 2 * k + l] = row(s + m) | ROW_OPEN | ROW_CLOSE;
        }
    }
    rows
}

/// Maximum SCC-chain length the inline control state supports.  The chain
/// is bounded by the depth of the minimal automaton's SCC DAG, so this cap
/// only bites for path automata with more than 16 strictly descending
/// SCCs — far beyond any realistic query.
pub const MAX_CHAIN: usize = 16;

/// Control state of a HAR program.
///
/// Ranges over a finite set: `chain` is a strictly DAG-descending sequence
/// of SCC proxies (length ≤ register budget) and `current` one state.
/// Stored inline and `Copy` so that the per-event state transition is a
/// few machine words — the "very low CPU cost" the paper promises of
/// depth-register transitions.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct HarState {
    /// Proxy states of abandoned SCCs, outermost first.  Register `i`
    /// holds the depth at which `chain[i]`'s SCC was left.
    chain: [u16; MAX_CHAIN],
    /// Number of live chain entries.
    chain_len: u8,
    /// Proxy for the current simulated state.
    current: u16,
    /// Dead flag (invalid encoding or broken invariant).
    dead: bool,
}

impl HarState {
    #[inline]
    fn current(&self) -> State {
        self.current as State
    }

    #[inline]
    fn top(&self) -> Option<State> {
        if self.chain_len == 0 {
            None
        } else {
            Some(self.chain[self.chain_len as usize - 1] as State)
        }
    }
}

impl HarCore {
    fn new(analysis: &Analysis) -> HarCore {
        let dfa = analysis.dfa.clone();
        let k = dfa.n_letters();
        let m = dfa.n_states();
        let component = analysis.scc.component.clone();
        let n_registers = analysis.scc.dag_depth(&dfa).saturating_sub(1);

        let mut rewind_markup = vec![None; m * k];
        let mut rewind_term = vec![None; m];
        for p in 0..m {
            let comp = component[p];
            let members = &analysis.scc.members[comp];
            for a in 0..k {
                rewind_markup[p * k + a] = members.iter().copied().find(|&p2| {
                    let t = dfa.step(p2, a);
                    component[t] == comp && analysis.almost_equivalent(t, p)
                });
            }
            rewind_term[p] = members.iter().copied().find(|&p2| {
                (0..k).any(|a| {
                    let t = dfa.step(p2, a);
                    component[t] == comp && analysis.almost_equivalent(t, p)
                })
            });
        }
        HarCore {
            dfa,
            component,
            n_registers,
            rewind_markup,
            rewind_term,
            rows: Vec::new(),
        }
    }

    /// The simulated minimal automaton (fused byte engine).
    pub(crate) fn dfa(&self) -> &Dfa {
        &self.dfa
    }

    /// SCC id per state (fused byte engine).
    pub(crate) fn component(&self) -> &[usize] {
        &self.component
    }

    /// The markup rewind table (the packed step's reference rule).
    #[cfg(test)]
    pub(crate) fn rewind_markup(&self) -> &[Option<State>] {
        &self.rewind_markup
    }

    /// The packed markup step (fused byte engine); see [`packed_rows`].
    pub(crate) fn rows(&self) -> &[u32] {
        &self.rows
    }

    /// The row stride of [`Self::rows`]: `3k + 1`.
    pub(crate) fn stride(&self) -> usize {
        3 * self.dfa.n_letters() + 1
    }

    /// The register budget.
    pub fn n_registers(&self) -> usize {
        self.n_registers
    }

    fn init_state(&self) -> HarState {
        HarState {
            chain: [0; MAX_CHAIN],
            chain_len: 0,
            current: self.dfa.init() as u16,
            dead: false,
        }
    }

    fn is_accepting(&self, s: &HarState) -> bool {
        !s.dead && self.dfa.is_accepting(s.current())
    }

    #[inline]
    fn step_open(&self, s: &HarState, letter: usize, cmps: RegCmps) -> (HarState, LoadMask) {
        // In a real run, opening tags never see `Greater` registers; the
        // stale mask matters only for the static restrictedness check over
        // the full transition table.
        let stale = self.stale_mask(cmps);
        if s.dead {
            return (*s, stale);
        }
        let next = self.dfa.step(s.current(), letter);
        let mut ns = *s;
        if self.component[next] == self.component[s.current()] {
            ns.current = next as u16;
            (ns, stale)
        } else {
            let reg = ns.chain_len as usize;
            debug_assert!(reg < self.n_registers, "chain exceeds SCC-DAG depth");
            ns.chain[reg] = s.current;
            ns.chain_len += 1;
            ns.current = next as u16;
            (ns, stale | (1u64 << reg))
        }
    }

    /// Stack-discipline mask (Section 2.2, *restricted* automata): every
    /// register whose value exceeds the current depth is overwritten.
    /// Such registers are exactly the stale ones (freed by pops), so the
    /// reload never changes behaviour — it makes the program formally
    /// restricted, backing the paper's conjecture that restricted DRAs
    /// suffice for all its constructions.
    #[inline]
    fn stale_mask(&self, cmps: RegCmps) -> LoadMask {
        cmps.greater()
    }

    #[inline]
    fn step_close(
        &self,
        s: &HarState,
        letter: Option<usize>,
        cmps: RegCmps,
    ) -> (HarState, LoadMask) {
        let stale = self.stale_mask(cmps);
        if s.dead {
            return (*s, stale);
        }
        let mut ns = *s;
        if let Some(top) = s.top() {
            let reg = s.chain_len as usize - 1;
            if cmps.is_greater(reg) {
                // Climbed above the depth where the top SCC was left: pop.
                ns.chain_len -= 1;
                ns.current = top as u16;
                return (ns, stale);
            }
        }
        // Rewind inside the current SCC.
        let target = match letter {
            Some(a) => self.rewind_markup[s.current() * self.dfa.n_letters() + a],
            None => self.rewind_term[s.current()],
        };
        match target {
            Some(p2) => ns.current = p2 as u16,
            None => ns.dead = true,
        }
        (ns, stale)
    }
}

/// Lemma 3.8 program over the markup encoding.
#[derive(Clone, Debug)]
pub struct HarMarkupProgram {
    core: HarCore,
}

impl HarMarkupProgram {
    /// Access to shared internals (diagnostics, benches).
    pub fn core(&self) -> &HarCore {
        &self.core
    }

    /// Specialized streaming pre-selection, semantically identical to
    /// driving the program through [`crate::model::DraRunner`] (tested for
    /// agreement) but keeping the configuration in locals and comparing
    /// only the top register — the single comparison the HAR transition
    /// actually reads.  This is the "transitions at very low CPU cost"
    /// execution mode the paper motivates.
    pub fn select(&self, tags: &[Tag]) -> Vec<usize> {
        let mut out = Vec::new();
        self.run(tags, |node, selected| {
            if selected {
                out.push(node);
            }
        });
        out
    }

    /// Streaming count of selected nodes (no id materialization).
    pub fn count(&self, tags: &[Tag]) -> usize {
        let mut n = 0usize;
        self.run(tags, |_, selected| {
            if selected {
                n += 1;
            }
        });
        n
    }

    fn run(&self, tags: &[Tag], mut on_open: impl FnMut(usize, bool)) {
        let core = &self.core;
        let k = core.dfa.n_letters();
        let mut regs = [0i64; MAX_CHAIN];
        let mut chain = [0u16; MAX_CHAIN];
        let mut chain_len = 0usize;
        let mut current = core.dfa.init();
        let mut dead = false;
        let mut depth: i64 = 0;
        let mut node = 0usize;
        for &t in tags {
            match t {
                Tag::Open(l) => {
                    depth += 1;
                    if !dead {
                        let next = core.dfa.step(current, l.index());
                        if core.component[next] != core.component[current] {
                            chain[chain_len] = current as u16;
                            regs[chain_len] = depth;
                            chain_len += 1;
                        }
                        current = next;
                        on_open(node, core.dfa.is_accepting(current));
                    } else {
                        on_open(node, false);
                    }
                    node += 1;
                }
                Tag::Close(l) => {
                    depth -= 1;
                    if !dead {
                        if chain_len > 0 && regs[chain_len - 1] > depth {
                            chain_len -= 1;
                            current = chain[chain_len] as usize;
                        } else {
                            match core.rewind_markup[current * k + l.index()] {
                                Some(p2) => current = p2,
                                None => dead = true,
                            }
                        }
                    }
                }
            }
        }
    }
}

impl DraProgram for HarMarkupProgram {
    type Input = Tag;
    type State = HarState;

    fn n_registers(&self) -> usize {
        self.core.n_registers
    }

    fn init_state(&self) -> HarState {
        self.core.init_state()
    }

    fn is_accepting(&self, s: &HarState) -> bool {
        self.core.is_accepting(s)
    }

    fn step(&self, s: &HarState, input: Tag, cmps: RegCmps) -> (HarState, LoadMask) {
        match input {
            Tag::Open(l) => self.core.step_open(s, l.index(), cmps),
            Tag::Close(l) => self.core.step_close(s, Some(l.index()), cmps),
        }
    }
}

/// Theorem B.2 program over the term encoding.
#[derive(Clone, Debug)]
pub struct HarTermProgram {
    core: HarCore,
}

impl DraProgram for HarTermProgram {
    type Input = TermEvent;
    type State = HarState;

    fn n_registers(&self) -> usize {
        self.core.n_registers
    }

    fn init_state(&self) -> HarState {
        self.core.init_state()
    }

    fn is_accepting(&self, s: &HarState) -> bool {
        self.core.is_accepting(s)
    }

    fn step(&self, s: &HarState, input: TermEvent, cmps: RegCmps) -> (HarState, LoadMask) {
        match input {
            TermEvent::Open(l) => self.core.step_open(s, l.index(), cmps),
            TermEvent::Close => self.core.step_close(s, None, cmps),
        }
    }
}

/// Compiles Q_L to a depth-register automaton over the markup encoding
/// (Lemma 3.8).
///
/// # Errors
///
/// [`CoreError::ClassMismatch`] if L is not HAR — by Theorem 3.1 no DRA
/// realizes Q_L then; [`CoreError::TooManyRegisters`] or
/// [`CoreError::FusedTooLarge`] past the inline chain, the `u16` state
/// ids or the packed step's table.
pub fn compile_query_markup(analysis: &Analysis) -> Result<HarMarkupProgram, CoreError> {
    let verdict = check_har(analysis, MeetMode::Synchronous);
    if !verdict.holds {
        return Err(CoreError::ClassMismatch {
            required: "hierarchically almost-reversible",
            witness: verdict.witness,
        });
    }
    budget_check(analysis)?;
    // A packed entry addresses `2^ROW_BITS` entries of the table.
    let (m, k) = (analysis.dfa.n_states(), analysis.dfa.n_letters());
    let entries = 2 * m * (3 * k + 1);
    if entries > ROW_NEXT as usize + 1 {
        return Err(CoreError::FusedTooLarge { states: entries });
    }
    let mut core = HarCore::new(analysis);
    core.rows = packed_rows(&core.dfa, &core.component, &core.rewind_markup);
    Ok(HarMarkupProgram { core })
}

/// The inline control state caps the chain at [`MAX_CHAIN`] entries and
/// state ids at `u16`; both bounds are far beyond query-sized automata but
/// are checked rather than assumed.
fn budget_check(analysis: &Analysis) -> Result<(), CoreError> {
    let budget = analysis.scc.dag_depth(&analysis.dfa).saturating_sub(1);
    if budget > MAX_CHAIN || analysis.dfa.n_states() > u16::MAX as usize {
        return Err(CoreError::TooManyRegisters { requested: budget });
    }
    Ok(())
}

/// Compiles Q_L to a depth-register automaton over the term encoding
/// (Theorem B.2).
///
/// # Errors
///
/// [`CoreError::ClassMismatch`] if L is not blindly HAR.
pub fn compile_query_term(analysis: &Analysis) -> Result<HarTermProgram, CoreError> {
    let verdict = check_har(analysis, MeetMode::Blind);
    if !verdict.holds {
        return Err(CoreError::ClassMismatch {
            required: "blindly hierarchically almost-reversible",
            witness: verdict.witness,
        });
    }
    budget_check(analysis)?;
    Ok(HarTermProgram {
        core: HarCore::new(analysis),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{accepts, preselect, ExistsAcceptor, ForallAcceptor};
    use st_automata::{compile_regex, Alphabet};
    use st_trees::encode::{markup_encode, term_encode};
    use st_trees::{generate, oracle};

    fn analysis(pattern: &str, sigma: &str) -> Analysis {
        let g = Alphabet::of_chars(sigma);
        Analysis::new(&compile_regex(pattern, &g).unwrap())
    }

    fn check_markup(pattern: &str, sigma: &str, seeds: std::ops::Range<u64>) {
        let g = Alphabet::of_chars(sigma);
        let a = analysis(pattern, sigma);
        let p = compile_query_markup(&a).unwrap();
        for seed in seeds {
            for (nodes, bias) in [(60, 0.3), (120, 0.6), (200, 0.85)] {
                let t = generate::random_attachment(&g, nodes, bias, seed);
                let tags = markup_encode(&t);
                let got = preselect(&p, &tags).unwrap();
                let want: Vec<usize> = oracle::select(&t, &a.dfa)
                    .into_iter()
                    .map(|v| v.index())
                    .collect();
                assert_eq!(got, want, "pattern {pattern} seed {seed} bias {bias}");
            }
        }
    }

    #[test]
    fn example_2_12_stackless_queries() {
        // The three stackless RPQs of Example 2.12.
        check_markup("a.*b", "abc", 0..8);
        check_markup("ab", "abc", 0..8);
        check_markup(".*a.*b", "abc", 0..8);
    }

    #[test]
    fn rejects_non_har() {
        let a = analysis(".*ab", "abc");
        assert!(matches!(
            compile_query_markup(&a),
            Err(CoreError::ClassMismatch { .. })
        ));
    }

    #[test]
    fn r_trivial_languages() {
        // Piecewise-testable / R-trivial examples (singleton SCCs).
        check_markup("abc", "abc", 0..5);
        check_markup("a+b+c", "abc", 0..5);
        check_markup("(a|b)c*", "abc", 0..5);
    }

    #[test]
    fn reversible_and_mixed_languages() {
        check_markup("(b*ab*a)*b*", "ab", 0..5);
        // Fig. 3c: Γ*a Γ*b — two nontrivial SCCs plus sink.
        check_markup(".*a.*b", "abc", 10..15);
    }

    #[test]
    fn register_budget_matches_scc_dag_depth() {
        let a = analysis(".*a.*b", "abc");
        let p = compile_query_markup(&a).unwrap();
        let depth = a.scc.dag_depth(&a.dfa);
        assert_eq!(p.n_registers(), depth - 1);
    }

    #[test]
    fn deep_chain_stress() {
        // Chains of alternating labels, deep enough that any stack would be
        // large, evaluated with ≤ 2 registers.
        let g = Alphabet::of_chars("abc");
        let a = analysis(".*a.*b", "abc");
        let p = compile_query_markup(&a).unwrap();
        assert!(p.n_registers() <= 2);
        let letters: Vec<_> = g.letters().collect();
        let t = generate::chain(&letters, 5000);
        let tags = markup_encode(&t);
        let got = preselect(&p, &tags).unwrap();
        let want: Vec<usize> = oracle::select(&t, &a.dfa)
            .into_iter()
            .map(|v| v.index())
            .collect();
        assert_eq!(got, want);
    }

    #[test]
    fn term_encoding_har_program() {
        // `ab` is R-trivial, hence blindly HAR (Section 4.2).
        let g = Alphabet::of_chars("abc");
        let a = analysis("ab", "abc");
        let p = compile_query_term(&a).unwrap();
        for seed in 0..10 {
            let t = generate::random_attachment(&g, 150, 0.5, seed);
            let events = term_encode(&t);
            let got = preselect(&p, &events).unwrap();
            let want: Vec<usize> = oracle::select(&t, &a.dfa)
                .into_iter()
                .map(|v| v.index())
                .collect();
            assert_eq!(got, want, "seed {seed}");
        }
    }

    #[test]
    fn term_compiler_rejects_non_blind_har() {
        // Even-number-of-a's: reversible (markup-HAR) but not blindly HAR.
        let a = analysis("(b*ab*a)*b*", "ab");
        assert!(compile_query_markup(&a).is_ok());
        assert!(matches!(
            compile_query_term(&a),
            Err(CoreError::ClassMismatch { .. })
        ));
    }

    #[test]
    fn el_and_al_via_wrappers() {
        // Theorem 3.1: from a stackless Q_L, EL and AL are stackless.
        let g = Alphabet::of_chars("abc");
        let a = analysis(".*a.*b", "abc");
        let p = compile_query_markup(&a).unwrap();
        for seed in 0..20 {
            let t = generate::random_attachment(&g, 80, 0.5, 7_000 + seed);
            let tags = markup_encode(&t);
            assert_eq!(
                accepts(&ExistsAcceptor::new(p.clone()), &tags).unwrap(),
                oracle::in_exists(&t, &a.dfa),
                "EL seed {seed}"
            );
            assert_eq!(
                accepts(&ForallAcceptor::new(p.clone()), &tags).unwrap(),
                oracle::in_forall(&t, &a.dfa),
                "AL seed {seed}"
            );
        }
    }

    #[test]
    fn specialized_runner_agrees_with_generic_runner() {
        let g = Alphabet::of_chars("abc");
        for pattern in ["a.*b", "ab", ".*a.*b", "(a|b)c*"] {
            let a = analysis(pattern, "abc");
            let p = compile_query_markup(&a).unwrap();
            for seed in 0..10 {
                let t = generate::random_attachment(&g, 150, 0.6, 31 * seed);
                let tags = markup_encode(&t);
                assert_eq!(
                    p.select(&tags),
                    preselect(&p, &tags).unwrap(),
                    "pattern {pattern} seed {seed}"
                );
                assert_eq!(p.count(&tags), p.select(&tags).len());
            }
        }
    }

    #[test]
    fn compiled_programs_are_restricted() {
        // Section 2.2: "all depth-register automata we construct are
        // restricted" — verified dynamically on random documents.
        use crate::model::check_restricted_run;
        let g = Alphabet::of_chars("abc");
        for pattern in ["a.*b", "ab", ".*a.*b"] {
            let a = analysis(pattern, "abc");
            let p = compile_query_markup(&a).unwrap();
            for seed in 0..10 {
                let t = generate::random_attachment(&g, 120, 0.7, seed);
                let tags = markup_encode(&t);
                assert!(
                    check_restricted_run(&p, &tags).unwrap(),
                    "pattern {pattern} seed {seed}"
                );
            }
        }
    }

    #[test]
    fn random_har_languages_against_oracle() {
        // Fuzz: random small DFAs filtered to HAR, compiled, validated.
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let g = Alphabet::of_chars("ab");
        let mut rng = StdRng::seed_from_u64(2024);
        let mut tested = 0;
        for _ in 0..400 {
            let n = rng.gen_range(2..=5);
            let rows: Vec<Vec<usize>> = (0..n)
                .map(|_| (0..2).map(|_| rng.gen_range(0..n)).collect())
                .collect();
            let accepting: Vec<bool> = (0..n).map(|_| rng.gen()).collect();
            let d = st_automata::Dfa::from_rows(2, 0, accepting, rows).unwrap();
            let a = Analysis::new(&d);
            let Ok(p) = compile_query_markup(&a) else {
                continue;
            };
            tested += 1;
            for seed in 0..3 {
                let t = generate::random_attachment(&g, 100, 0.6, seed);
                let tags = markup_encode(&t);
                let got = preselect(&p, &tags).unwrap();
                let want: Vec<usize> = oracle::select(&t, &a.dfa)
                    .into_iter()
                    .map(|v| v.index())
                    .collect();
                assert_eq!(got, want);
            }
        }
        assert!(tested > 20, "too few HAR samples generated ({tested})");
    }
}
