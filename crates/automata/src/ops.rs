//! Boolean operations and decision procedures on DFAs.
//!
//! Lemma 2.4 of the paper uses closure of registerless/stackless languages
//! under union, intersection, and complement; on the word-automaton level
//! those are the classical product constructions implemented here.

use crate::dfa::{Dfa, State};

/// How a product combines component acceptance.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BoolOp {
    /// Accept iff both components accept.
    And,
    /// Accept iff at least one component accepts.
    Or,
    /// Accept iff exactly one component accepts (used for equivalence
    /// testing: the product is empty iff the languages coincide).
    Xor,
}

/// Synchronous product of two DFAs over the same alphabet, restricted to the
/// reachable pairs.
///
/// # Panics
///
/// Panics if the alphabets disagree.
pub fn product(a: &Dfa, b: &Dfa, op: BoolOp) -> Dfa {
    assert_eq!(
        a.n_letters(),
        b.n_letters(),
        "product of DFAs over different alphabets"
    );
    let k = a.n_letters();
    let mut ids = std::collections::HashMap::new();
    let mut pairs: Vec<(State, State)> = Vec::new();
    let start = (a.init(), b.init());
    ids.insert(start, 0usize);
    pairs.push(start);
    let mut rows: Vec<Vec<usize>> = Vec::new();
    let mut i = 0;
    while i < pairs.len() {
        let (p, q) = pairs[i];
        let mut row = Vec::with_capacity(k);
        for letter in 0..k {
            let succ = (a.step(p, letter), b.step(q, letter));
            let id = *ids.entry(succ).or_insert_with(|| {
                pairs.push(succ);
                pairs.len() - 1
            });
            row.push(id);
        }
        rows.push(row);
        i += 1;
    }
    let accepting = pairs
        .iter()
        .map(|&(p, q)| {
            let (fa, fb) = (a.is_accepting(p), b.is_accepting(q));
            match op {
                BoolOp::And => fa && fb,
                BoolOp::Or => fa || fb,
                BoolOp::Xor => fa != fb,
            }
        })
        .collect();
    Dfa::from_rows(k, 0, accepting, rows).expect("product construction is well-formed")
}

/// Intersection L(a) ∩ L(b).
pub fn intersection(a: &Dfa, b: &Dfa) -> Dfa {
    product(a, b, BoolOp::And)
}

/// Union L(a) ∪ L(b).
pub fn union(a: &Dfa, b: &Dfa) -> Dfa {
    product(a, b, BoolOp::Or)
}

/// Whether the automaton accepts no word (no accepting state reachable).
pub fn is_empty(a: &Dfa) -> bool {
    let reachable = a.reachable();
    !(0..a.n_states()).any(|s| reachable[s] && a.is_accepting(s))
}

/// Whether two DFAs over the same alphabet accept the same language.
pub fn equivalent(a: &Dfa, b: &Dfa) -> bool {
    is_empty(&product(a, b, BoolOp::Xor))
}

/// Whether L(a) ⊆ L(b).
pub fn included(a: &Dfa, b: &Dfa) -> bool {
    is_empty(&intersection(a, &b.complement()))
}

/// Partitions the letters of a family of DFAs over one alphabet into
/// equivalence classes: two letters land in the same class iff they have
/// identical transition columns in *every* automaton of the family.
/// Letters in one class are indistinguishable to the whole family, so a
/// product construction only needs one table column per class — the
/// alphabet-compression step of the multi-query set compiler.
///
/// Returns `(class_of, n_classes)` where `class_of[a]` is the dense class
/// id of letter `a`, numbered in first-appearance order.
///
/// # Panics
///
/// Panics if the automata disagree on the alphabet size.
pub fn letter_classes(dfas: &[&Dfa]) -> (Vec<usize>, usize) {
    let Some(first) = dfas.first() else {
        return (Vec::new(), 0);
    };
    let k = first.n_letters();
    for d in dfas {
        assert_eq!(
            d.n_letters(),
            k,
            "letter classes of DFAs over different alphabets"
        );
    }
    let mut ids: std::collections::HashMap<Vec<State>, usize> = std::collections::HashMap::new();
    let mut class_of = Vec::with_capacity(k);
    for a in 0..k {
        let mut sig = Vec::new();
        for d in dfas {
            for s in 0..d.n_states() {
                sig.push(d.step(s, a));
            }
        }
        let next = ids.len();
        class_of.push(*ids.entry(sig).or_insert(next));
    }
    let n_classes = ids.len();
    (class_of, n_classes)
}

/// The reachable synchronous product of a whole family of DFAs over a
/// compressed alphabet (see [`letter_classes`]): one transition table
/// column per letter class, and the component-state tuple kept per
/// product state so callers can attribute acceptance per automaton.
#[derive(Clone, Debug)]
pub struct MultiProduct {
    /// Number of letter classes (the compressed alphabet size).
    pub n_classes: usize,
    /// Row-major transitions: `delta[s * n_classes + c]`.
    pub delta: Vec<usize>,
    /// `tuples[s]` is the component state of each automaton in product
    /// state `s`; state 0 is the tuple of initial states.
    pub tuples: Vec<Vec<State>>,
}

/// Builds the reachable product of `dfas` over the compressed alphabet
/// described by `class_of`/`n_classes` (as returned by
/// [`letter_classes`]; pass the identity map for an uncompressed
/// product).  Exploration is breadth-first from the tuple of initial
/// states; `None` when more than `max_states` product states are
/// reachable — the caller's cue to step the automata one by one.
///
/// # Panics
///
/// Panics if `class_of` does not cover every automaton's alphabet or the
/// automata disagree on the alphabet size.
pub fn product_many(
    dfas: &[&Dfa],
    class_of: &[usize],
    n_classes: usize,
    max_states: usize,
) -> Option<MultiProduct> {
    for d in dfas {
        assert_eq!(
            d.n_letters(),
            class_of.len(),
            "letter-class map does not cover the alphabet"
        );
    }
    // One representative letter per class; classes are numbered in
    // first-appearance order so every id below `n_classes` has one.
    let mut rep = vec![usize::MAX; n_classes];
    for (a, &c) in class_of.iter().enumerate() {
        if rep[c] == usize::MAX {
            rep[c] = a;
        }
    }
    let start: Vec<State> = dfas.iter().map(|d| d.init()).collect();
    let mut ids = std::collections::HashMap::new();
    let mut tuples = vec![start.clone()];
    ids.insert(start, 0usize);
    let mut delta: Vec<usize> = Vec::new();
    let mut i = 0usize;
    while i < tuples.len() {
        for &a in rep.iter().take(n_classes) {
            let succ: Vec<State> = dfas
                .iter()
                .zip(&tuples[i])
                .map(|(d, &s)| d.step(s, a))
                .collect();
            let id = match ids.get(&succ) {
                Some(&id) => id,
                None => {
                    if tuples.len() >= max_states {
                        return None;
                    }
                    let id = tuples.len();
                    ids.insert(succ.clone(), id);
                    tuples.push(succ);
                    id
                }
            };
            delta.push(id);
        }
        i += 1;
    }
    Some(MultiProduct {
        n_classes,
        delta,
        tuples,
    })
}

/// Returns a shortest accepted word, if any (BFS over reachable states).
pub fn shortest_accepted(a: &Dfa) -> Option<Vec<usize>> {
    let k = a.n_letters();
    let n = a.n_states();
    let mut parent: Vec<Option<(State, usize)>> = vec![None; n];
    let mut seen = vec![false; n];
    let mut queue = std::collections::VecDeque::from([a.init()]);
    seen[a.init()] = true;
    if a.is_accepting(a.init()) {
        return Some(Vec::new());
    }
    while let Some(s) = queue.pop_front() {
        for letter in 0..k {
            let t = a.step(s, letter);
            if seen[t] {
                continue;
            }
            seen[t] = true;
            parent[t] = Some((s, letter));
            if a.is_accepting(t) {
                let mut word = Vec::new();
                let mut cur = t;
                while let Some((p, l)) = parent[cur] {
                    word.push(l);
                    cur = p;
                }
                word.reverse();
                return Some(word);
            }
            queue.push_back(t);
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alphabet::Alphabet;
    use crate::regex::compile_regex;

    fn d(pattern: &str) -> Dfa {
        compile_regex(pattern, &Alphabet::of_chars("ab")).unwrap()
    }

    #[test]
    fn intersection_union_complement() {
        let has_a = d(".*a.*");
        let has_b = d(".*b.*");
        let both = intersection(&has_a, &has_b);
        assert!(both.accepts(&[0, 1]));
        assert!(!both.accepts(&[0, 0]));
        let either = union(&has_a, &has_b);
        assert!(either.accepts(&[0]));
        assert!(either.accepts(&[1]));
        assert!(!either.accepts(&[]));
        let neither = either.complement();
        assert!(neither.accepts(&[]));
        assert!(!neither.accepts(&[0]));
    }

    #[test]
    fn equivalence_and_inclusion() {
        assert!(equivalent(&d("a*"), &d("(a)*")));
        assert!(!equivalent(&d("a*"), &d("a+")));
        assert!(included(&d("a+"), &d("a*")));
        assert!(!included(&d("a*"), &d("a+")));
        assert!(equivalent(&d("(a|b)*"), &d(".*")));
    }

    #[test]
    fn emptiness_and_witness() {
        assert!(is_empty(&d("[^ab]")));
        assert!(!is_empty(&d("ab")));
        assert_eq!(shortest_accepted(&d("ab")), Some(vec![0, 1]));
        assert_eq!(shortest_accepted(&d("a*")), Some(vec![]));
        assert_eq!(shortest_accepted(&d("[^ab]")), None);
    }

    #[test]
    fn letter_classes_merge_indistinguishable_letters() {
        let g3 = Alphabet::of_chars("abc");
        // `.*a.*` over {a,b,c}: b and c act identically, a is distinct.
        let d1 = compile_regex(".*a.*", &g3).unwrap();
        let (classes, n) = letter_classes(&[&d1]);
        assert_eq!(n, 2);
        assert_eq!(classes[1], classes[2]);
        assert_ne!(classes[0], classes[1]);
        // Adding `.*b.*` separates b from c.
        let d2 = compile_regex(".*b.*", &g3).unwrap();
        let (classes2, n2) = letter_classes(&[&d1, &d2]);
        assert_eq!(n2, 3);
        assert_ne!(classes2[1], classes2[2]);
    }

    #[test]
    fn product_many_agrees_with_pairwise_product() {
        let a = d(".*a.*");
        let b = d(".*b.*");
        let (classes, n_classes) = letter_classes(&[&a, &b]);
        let mp = product_many(&[&a, &b], &classes, n_classes, 1024).expect("within budget");
        // Every reachable tuple's acceptance must match running the
        // components directly on a representative word; spot-check via
        // random words.
        let words: &[&[usize]] = &[&[], &[0], &[1], &[0, 1], &[1, 1, 0], &[0, 0, 1, 1]];
        for w in words {
            let mut s = 0usize;
            for &letter in *w {
                s = mp.delta[s * mp.n_classes + classes[letter]];
            }
            let tuple = &mp.tuples[s];
            assert_eq!(tuple[0], a.run(w));
            assert_eq!(tuple[1], b.run(w));
        }
    }

    #[test]
    fn product_many_respects_the_state_budget() {
        let a = d(".*a.*");
        let b = d(".*b.*");
        let (classes, n_classes) = letter_classes(&[&a, &b]);
        assert!(product_many(&[&a, &b], &classes, n_classes, 2).is_none());
    }

    #[test]
    fn product_many_of_empty_family_is_a_point() {
        let mp = product_many(&[], &[], 0, 16).expect("trivial");
        assert_eq!(mp.tuples, vec![Vec::<usize>::new()]);
        assert_eq!(mp.n_classes, 0);
    }

    #[test]
    fn de_morgan_on_automata() {
        let x = d("a.*");
        let y = d(".*b");
        let lhs = intersection(&x, &y).complement();
        let rhs = union(&x.complement(), &y.complement());
        assert!(equivalent(&lhs, &rhs));
    }
}
