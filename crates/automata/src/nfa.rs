//! Nondeterministic finite automata with ε-moves and the subset
//! construction.
//!
//! The regex front end ([`crate::regex`]) compiles through Thompson NFAs;
//! Section 4.1's *specialized path DTDs* also produce nondeterministic
//! automata that must be determinized (and minimized!) before the paper's
//! flatness criteria apply — Fig. 6 of the paper is exactly the example
//! showing the criteria are wrong on the nondeterministic automaton.

use std::collections::{BTreeSet, HashMap};

use crate::dfa::Dfa;

/// A nondeterministic finite automaton over letters `0..n_letters`, with
/// ε-transitions, possibly many initial states.
#[derive(Clone, Debug, Default)]
pub struct Nfa {
    n_letters: usize,
    n_states: usize,
    initial: Vec<usize>,
    accepting: Vec<bool>,
    /// `(from, letter, to)` labelled transitions.
    transitions: Vec<(usize, usize, usize)>,
    /// `(from, to)` ε-transitions.
    epsilons: Vec<(usize, usize)>,
}

impl Nfa {
    /// Creates an empty NFA over the given alphabet size.
    pub fn new(n_letters: usize) -> Self {
        Self {
            n_letters,
            ..Self::default()
        }
    }

    /// Number of letters.
    pub fn n_letters(&self) -> usize {
        self.n_letters
    }

    /// Number of states.
    pub fn n_states(&self) -> usize {
        self.n_states
    }

    /// Adds a fresh state; returns its id.
    pub fn add_state(&mut self) -> usize {
        let s = self.n_states;
        self.n_states += 1;
        self.accepting.push(false);
        s
    }

    /// Marks a state initial.
    pub fn mark_initial(&mut self, s: usize) {
        assert!(s < self.n_states, "state {s} out of range");
        self.initial.push(s);
    }

    /// Marks (or unmarks) a state accepting.
    pub fn set_accepting(&mut self, s: usize, accepting: bool) {
        assert!(s < self.n_states, "state {s} out of range");
        self.accepting[s] = accepting;
    }

    /// Whether a state is accepting.
    pub fn is_accepting(&self, s: usize) -> bool {
        self.accepting[s]
    }

    /// Adds a labelled transition.
    pub fn add_transition(&mut self, from: usize, letter: usize, to: usize) {
        assert!(
            from < self.n_states && to < self.n_states,
            "state out of range"
        );
        assert!(letter < self.n_letters, "letter {letter} out of range");
        self.transitions.push((from, letter, to));
    }

    /// Adds an ε-transition.
    pub fn add_epsilon(&mut self, from: usize, to: usize) {
        assert!(
            from < self.n_states && to < self.n_states,
            "state out of range"
        );
        self.epsilons.push((from, to));
    }

    fn epsilon_closure(&self, set: &mut BTreeSet<usize>) {
        let mut adjacency: Vec<Vec<usize>> = vec![Vec::new(); self.n_states];
        for &(f, t) in &self.epsilons {
            adjacency[f].push(t);
        }
        let mut stack: Vec<usize> = set.iter().copied().collect();
        while let Some(s) = stack.pop() {
            for &t in &adjacency[s] {
                if set.insert(t) {
                    stack.push(t);
                }
            }
        }
    }

    /// Determinizes via the subset construction; the result is complete
    /// (the empty subset acts as the rejecting sink).
    pub fn determinize(&self) -> Dfa {
        self.determinize_within(usize::MAX)
            .expect("an unbounded subset construction always finishes")
    }

    /// [`Self::determinize`] that gives up, with `None`, once more than
    /// `max_states` subsets are reachable — so a hostile pattern cannot
    /// make the (exponential) construction exhaust time or memory.
    pub fn determinize_within(&self, max_states: usize) -> Option<Dfa> {
        let k = self.n_letters;
        // Letter-indexed adjacency.
        let mut by_letter: Vec<Vec<(usize, usize)>> = vec![Vec::new(); k];
        for &(f, a, t) in &self.transitions {
            by_letter[a].push((f, t));
        }

        let mut start: BTreeSet<usize> = self.initial.iter().copied().collect();
        self.epsilon_closure(&mut start);

        let mut ids: HashMap<BTreeSet<usize>, usize> = HashMap::new();
        let mut subsets: Vec<BTreeSet<usize>> = Vec::new();
        let mut rows: Vec<Vec<usize>> = Vec::new();
        ids.insert(start.clone(), 0);
        subsets.push(start);
        let mut next = 0usize;
        while next < subsets.len() {
            let current = subsets[next].clone();
            let mut row = Vec::with_capacity(k);
            for edges in by_letter.iter() {
                let mut succ: BTreeSet<usize> = BTreeSet::new();
                for &(f, t) in edges {
                    if current.contains(&f) {
                        succ.insert(t);
                    }
                }
                self.epsilon_closure(&mut succ);
                let id = match ids.get(&succ) {
                    Some(&id) => id,
                    None if subsets.len() >= max_states => return None,
                    None => {
                        ids.insert(succ.clone(), subsets.len());
                        subsets.push(succ);
                        subsets.len() - 1
                    }
                };
                row.push(id);
            }
            rows.push(row);
            next += 1;
        }
        let accepting: Vec<bool> = subsets
            .iter()
            .map(|set| set.iter().any(|&s| self.accepting[s]))
            .collect();
        Some(Dfa::from_rows(k, 0, accepting, rows).expect("subset construction is well-formed"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// NFA for Σ*a over {a=0, b=1}.
    fn ends_in_a() -> Nfa {
        let mut n = Nfa::new(2);
        let s0 = n.add_state();
        let s1 = n.add_state();
        n.mark_initial(s0);
        n.set_accepting(s1, true);
        n.add_transition(s0, 0, s0);
        n.add_transition(s0, 1, s0);
        n.add_transition(s0, 0, s1);
        n
    }

    #[test]
    fn determinize_ends_in_a() {
        let d = ends_in_a().determinize();
        assert!(d.accepts(&[0]));
        assert!(d.accepts(&[1, 1, 0]));
        assert!(!d.accepts(&[]));
        assert!(!d.accepts(&[0, 1]));
        assert_eq!(d.minimize().n_states(), 2);
    }

    #[test]
    fn epsilon_closure_reaches_through_chains() {
        // ε-chain 0 -> 1 -> 2, with 2 accepting: accepts ε.
        let mut n = Nfa::new(1);
        let s0 = n.add_state();
        let s1 = n.add_state();
        let s2 = n.add_state();
        n.mark_initial(s0);
        n.add_epsilon(s0, s1);
        n.add_epsilon(s1, s2);
        n.set_accepting(s2, true);
        let d = n.determinize();
        assert!(d.accepts(&[]));
        assert!(!d.accepts(&[0]));
    }

    #[test]
    fn no_initial_state_accepts_nothing() {
        let mut n = Nfa::new(1);
        let s = n.add_state();
        n.set_accepting(s, true);
        let d = n.determinize();
        assert!(!d.accepts(&[]));
        assert!(!d.accepts(&[0]));
    }

    #[test]
    fn multiple_initials_union() {
        // Initial states {0 accepting-after-a, 1 accepting-after-b}.
        let mut n = Nfa::new(2);
        let s0 = n.add_state();
        let s1 = n.add_state();
        let f = n.add_state();
        n.mark_initial(s0);
        n.mark_initial(s1);
        n.set_accepting(f, true);
        n.add_transition(s0, 0, f);
        n.add_transition(s1, 1, f);
        let d = n.determinize();
        assert!(d.accepts(&[0]));
        assert!(d.accepts(&[1]));
        assert!(!d.accepts(&[0, 0]));
    }
}
