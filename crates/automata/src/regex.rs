//! Regular-expression front end for path languages L ⊆ Γ*.
//!
//! The paper writes its example RPQs as regular expressions over Γ (Example
//! 2.12: `a Γ*b`, `ab`, `Γ*a Γ*b`, `Γ*ab`).  This module parses a compact
//! concrete syntax into a [`Regex`] AST and compiles it to the canonical
//! minimal [`Dfa`] through a Thompson NFA.
//!
//! # Syntax
//!
//! * a single character is the symbol of Γ with that spelling (`a`, `b`, …);
//! * `.` matches any symbol of Γ (the paper's Γ);
//! * `[abc]` / `[^abc]` are positive / negated classes;
//! * `(…)`, `|`, `*`, `+`, `?` have their usual meaning;
//! * whitespace is ignored, so `a .* b` reads like the paper's `a Γ*b`.

use crate::alphabet::{Alphabet, Letter};
use crate::dfa::Dfa;
use crate::error::AutomataError;
use crate::nfa::Nfa;

/// A regular expression AST over letters of some [`Alphabet`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Regex {
    /// The empty language ∅.
    Empty,
    /// The empty word ε.
    Epsilon,
    /// Any one symbol from the (non-empty) set.
    Class(Vec<Letter>),
    /// Concatenation, in order.
    Concat(Vec<Regex>),
    /// Union.
    Alt(Vec<Regex>),
    /// Kleene star.
    Star(Box<Regex>),
}

impl Regex {
    /// A single symbol.
    pub fn letter(l: Letter) -> Regex {
        Regex::Class(vec![l])
    }

    /// Any symbol of the alphabet (the paper's Γ).
    pub fn any(alphabet: &Alphabet) -> Regex {
        Regex::Class(alphabet.letters().collect())
    }

    /// `self · other`.
    pub fn then(self, other: Regex) -> Regex {
        Regex::Concat(vec![self, other])
    }

    /// `self | other`.
    pub fn or(self, other: Regex) -> Regex {
        Regex::Alt(vec![self, other])
    }

    /// `self*`.
    pub fn star(self) -> Regex {
        Regex::Star(Box::new(self))
    }

    /// `self+` = `self · self*`.
    pub fn plus(self) -> Regex {
        self.clone().then(self.star())
    }

    /// `self?` = `self | ε`.
    pub fn opt(self) -> Regex {
        self.or(Regex::Epsilon)
    }

    /// Thompson construction into an existing NFA; returns `(in, out)`
    /// states: the fragment matches a word iff it can route it from `in` to
    /// `out`.
    fn build(&self, nfa: &mut Nfa) -> (usize, usize) {
        match self {
            Regex::Empty => {
                let i = nfa.add_state();
                let o = nfa.add_state();
                (i, o)
            }
            Regex::Epsilon => {
                let i = nfa.add_state();
                let o = nfa.add_state();
                nfa.add_epsilon(i, o);
                (i, o)
            }
            Regex::Class(letters) => {
                let i = nfa.add_state();
                let o = nfa.add_state();
                for &l in letters {
                    nfa.add_transition(i, l.index(), o);
                }
                (i, o)
            }
            Regex::Concat(parts) => {
                if parts.is_empty() {
                    return Regex::Epsilon.build(nfa);
                }
                let mut first: Option<usize> = None;
                let mut prev_out: Option<usize> = None;
                for p in parts {
                    let (i, o) = p.build(nfa);
                    if let Some(po) = prev_out {
                        nfa.add_epsilon(po, i);
                    } else {
                        first = Some(i);
                    }
                    prev_out = Some(o);
                }
                (first.unwrap(), prev_out.unwrap())
            }
            Regex::Alt(parts) => {
                let i = nfa.add_state();
                let o = nfa.add_state();
                if parts.is_empty() {
                    return (i, o); // ∅
                }
                for p in parts {
                    let (pi, po) = p.build(nfa);
                    nfa.add_epsilon(i, pi);
                    nfa.add_epsilon(po, o);
                }
                (i, o)
            }
            Regex::Star(inner) => {
                let i = nfa.add_state();
                let o = nfa.add_state();
                let (ii, io) = inner.build(nfa);
                nfa.add_epsilon(i, o);
                nfa.add_epsilon(i, ii);
                nfa.add_epsilon(io, ii);
                nfa.add_epsilon(io, o);
                (i, o)
            }
        }
    }

    /// Compiles to a Thompson NFA over the alphabet.
    pub fn to_nfa(&self, alphabet: &Alphabet) -> Nfa {
        let mut nfa = Nfa::new(alphabet.len());
        let (i, o) = self.build(&mut nfa);
        nfa.mark_initial(i);
        nfa.set_accepting(o, true);
        nfa
    }

    /// Compiles to the canonical minimal DFA over the alphabet.
    pub fn to_min_dfa(&self, alphabet: &Alphabet) -> Dfa {
        self.to_nfa(alphabet).determinize().minimize()
    }
}

/// Parses `pattern` over `alphabet` and compiles it to the canonical minimal
/// DFA.
///
/// ```
/// use st_automata::{compile_regex, Alphabet};
///
/// let gamma = Alphabet::of_chars("ab");
/// let dfa = compile_regex("a.*b", &gamma).unwrap();
/// assert!(dfa.accepts(&[0, 1]));        // "ab"
/// assert!(dfa.accepts(&[0, 0, 1, 1]));  // "aabb"
/// assert!(!dfa.accepts(&[1]));          // "b"
/// ```
///
/// Patterns are client input, and what comes after them (the planner's
/// classification) grows steeply with the DFA's size, so the compile is
/// bounded: a minimal DFA may have at most [`MAX_PATTERN_STATES`] states,
/// and the subset construction gives up past [`MAX_SUBSET_STATES`].
/// [`Regex::to_min_dfa`] is the unbounded compile.
///
/// # Errors
///
/// Returns [`AutomataError::RegexParse`] on syntax errors,
/// [`AutomataError::UnknownLetter`] for symbols not in Γ, and
/// [`AutomataError::TooManyStates`] past either bound.
pub fn compile_regex(pattern: &str, alphabet: &Alphabet) -> Result<Dfa, AutomataError> {
    let dfa = parse_regex(pattern, alphabet)?
        .to_nfa(alphabet)
        .determinize_within(MAX_SUBSET_STATES)
        .ok_or(AutomataError::TooManyStates {
            limit: MAX_SUBSET_STATES,
        })?
        .minimize();
    if dfa.n_states() > MAX_PATTERN_STATES {
        return Err(AutomataError::TooManyStates {
            limit: MAX_PATTERN_STATES,
        });
    }
    Ok(dfa)
}

/// The most states the minimal DFA of a [`compile_regex`] pattern may
/// have.  Planning cost grows faster than cubically in it: `.*a` followed
/// by five dots (64 states) plans in 14–35 ms for 2–16 labels on a
/// 2-vCPU VM, one more dot (128 states) in 0.06–0.3 s.
pub const MAX_PATTERN_STATES: usize = 64;

/// The most subsets [`compile_regex`]'s subset construction explores
/// before giving up, so `.*a` followed by thirty dots fails fast instead
/// of exhausting memory.
pub const MAX_SUBSET_STATES: usize = 64 * MAX_PATTERN_STATES;

/// Parses `pattern` into a [`Regex`] without compiling.
pub fn parse_regex(pattern: &str, alphabet: &Alphabet) -> Result<Regex, AutomataError> {
    let mut p = Parser {
        bytes: pattern.as_bytes(),
        pos: 0,
        alphabet,
    };
    let r = p.alternation()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.error("unexpected trailing input"));
    }
    Ok(r)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    alphabet: &'a Alphabet,
}

impl<'a> Parser<'a> {
    fn error(&self, message: &str) -> AutomataError {
        AutomataError::RegexParse {
            position: self.pos,
            message: message.to_owned(),
        }
    }

    fn skip_ws(&mut self) {
        while self.pos < self.bytes.len() && self.bytes[self.pos].is_ascii_whitespace() {
            self.pos += 1;
        }
    }

    fn peek(&mut self) -> Option<u8> {
        self.skip_ws();
        self.bytes.get(self.pos).copied()
    }

    fn alternation(&mut self) -> Result<Regex, AutomataError> {
        let mut parts = vec![self.concatenation()?];
        while self.peek() == Some(b'|') {
            self.pos += 1;
            parts.push(self.concatenation()?);
        }
        Ok(if parts.len() == 1 {
            parts.pop().unwrap()
        } else {
            Regex::Alt(parts)
        })
    }

    fn concatenation(&mut self) -> Result<Regex, AutomataError> {
        let mut parts = Vec::new();
        while let Some(c) = self.peek() {
            if c == b'|' || c == b')' {
                break;
            }
            parts.push(self.repetition()?);
        }
        Ok(match parts.len() {
            0 => Regex::Epsilon,
            1 => parts.pop().unwrap(),
            _ => Regex::Concat(parts),
        })
    }

    fn repetition(&mut self) -> Result<Regex, AutomataError> {
        let mut r = self.atom()?;
        while let Some(c) = self.peek() {
            match c {
                b'*' => {
                    self.pos += 1;
                    r = r.star();
                }
                b'+' => {
                    self.pos += 1;
                    r = r.plus();
                }
                b'?' => {
                    self.pos += 1;
                    r = r.opt();
                }
                _ => break,
            }
        }
        Ok(r)
    }

    fn atom(&mut self) -> Result<Regex, AutomataError> {
        let Some(c) = self.peek() else {
            return Err(self.error("expected an atom, found end of pattern"));
        };
        match c {
            b'(' => {
                self.pos += 1;
                let inner = self.alternation()?;
                if self.peek() != Some(b')') {
                    return Err(self.error("expected ')'"));
                }
                self.pos += 1;
                Ok(inner)
            }
            b'.' => {
                self.pos += 1;
                Ok(Regex::any(self.alphabet))
            }
            b'[' => {
                self.pos += 1;
                let negated = self.bytes.get(self.pos) == Some(&b'^');
                if negated {
                    self.pos += 1;
                }
                let mut listed = Vec::new();
                loop {
                    let Some(&b) = self.bytes.get(self.pos) else {
                        return Err(self.error("unterminated character class"));
                    };
                    if b == b']' {
                        self.pos += 1;
                        break;
                    }
                    listed.push(self.symbol_letter(b)?);
                    self.pos += 1;
                }
                let letters: Vec<Letter> = if negated {
                    self.alphabet
                        .letters()
                        .filter(|l| !listed.contains(l))
                        .collect()
                } else {
                    listed
                };
                if letters.is_empty() {
                    Ok(Regex::Empty)
                } else {
                    Ok(Regex::Class(letters))
                }
            }
            b'*' | b'+' | b'?' | b')' | b']' | b'|' => Err(self.error("misplaced operator")),
            _ => {
                let l = self.symbol_letter(c)?;
                self.pos += 1;
                Ok(Regex::letter(l))
            }
        }
    }

    fn symbol_letter(&self, byte: u8) -> Result<Letter, AutomataError> {
        let s = (byte as char).to_string();
        self.alphabet
            .letter(&s)
            .ok_or(AutomataError::UnknownLetter { symbol: s })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn abc() -> Alphabet {
        Alphabet::of_chars("abc")
    }

    fn accepts(pattern: &str, word: &str) -> bool {
        let g = abc();
        let d = compile_regex(pattern, &g).unwrap();
        let w: Vec<usize> = word
            .chars()
            .map(|c| g.letter(&c.to_string()).unwrap().index())
            .collect();
        d.accepts(&w)
    }

    #[test]
    fn literals_and_concat() {
        assert!(accepts("ab", "ab"));
        assert!(!accepts("ab", "a"));
        assert!(!accepts("ab", "abc"));
    }

    #[test]
    fn star_plus_opt() {
        assert!(accepts("a*", ""));
        assert!(accepts("a*", "aaa"));
        assert!(!accepts("a+", ""));
        assert!(accepts("a+", "aa"));
        assert!(accepts("ab?", "a"));
        assert!(accepts("ab?", "ab"));
    }

    #[test]
    fn alternation_and_groups() {
        assert!(accepts("a|bc", "a"));
        assert!(accepts("a|bc", "bc"));
        assert!(!accepts("a|bc", "b"));
        assert!(accepts("(a|b)*c", "ababc"));
    }

    #[test]
    fn wildcard_is_gamma() {
        assert!(accepts("a.*b", "ab"));
        assert!(accepts("a.*b", "acccb"));
        assert!(!accepts("a.*b", "cb"));
    }

    #[test]
    fn character_classes() {
        assert!(accepts("[ab]c", "ac"));
        assert!(accepts("[ab]c", "bc"));
        assert!(!accepts("[ab]c", "cc"));
        assert!(accepts("[^a]c", "bc"));
        assert!(!accepts("[^a]c", "ac"));
    }

    #[test]
    fn whitespace_ignored() {
        assert!(accepts("a .* b", "acb"));
    }

    #[test]
    fn paper_example_2_12_languages_parse() {
        let g = abc();
        for p in ["a.*b", "ab", ".*a.*b", ".*ab"] {
            compile_regex(p, &g).unwrap();
        }
    }

    #[test]
    fn errors_are_positioned() {
        let g = abc();
        assert!(matches!(
            compile_regex("a)", &g),
            Err(AutomataError::RegexParse { .. })
        ));
        assert!(matches!(
            compile_regex("x", &g),
            Err(AutomataError::UnknownLetter { .. })
        ));
        assert!(matches!(
            compile_regex("(ab", &g),
            Err(AutomataError::RegexParse { .. })
        ));
        assert!(matches!(
            compile_regex("*a", &g),
            Err(AutomataError::RegexParse { .. })
        ));
    }

    #[test]
    fn compile_is_bounded_in_dfa_and_subset_states() {
        let g = abc();
        let dots = |n: usize| format!(".*a{}", ".".repeat(n));
        // `.*a` then n dots needs 2^(n+1) states.
        assert_eq!(compile_regex(&dots(5), &g).unwrap().n_states(), 64);
        for (n, limit) in [(6, MAX_PATTERN_STATES), (30, MAX_SUBSET_STATES)] {
            assert_eq!(
                compile_regex(&dots(n), &g),
                Err(AutomataError::TooManyStates { limit })
            );
        }
        // The unbounded compile still builds what the bound refuses.
        let unbounded = parse_regex(&dots(6), &g).unwrap().to_min_dfa(&g);
        assert_eq!(unbounded.n_states(), 128);
    }

    #[test]
    fn empty_class_is_empty_language() {
        let g = abc();
        let d = compile_regex("[^abc]", &g).unwrap();
        assert_eq!(d.minimize().n_states(), 1);
        assert!(!d.accepts(&[0]));
    }
}
