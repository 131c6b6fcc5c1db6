//! Property-based tests over the whole stack (proptest).
//!
//! Strategies generate random trees (as preorder child-count shapes with
//! labels) and random DFAs; properties assert the paper's invariants and
//! the substrate's roundtrips.

use proptest::prelude::*;
use stackless_streamed_trees::automata::pairs::MeetMode;
use stackless_streamed_trees::automata::{Alphabet, Dfa, Letter};
use stackless_streamed_trees::baseline::StackEvaluator;
use stackless_streamed_trees::core::analysis::Analysis;
use stackless_streamed_trees::core::classify::classify_mode;
use stackless_streamed_trees::core::planner::CompiledQuery;
use stackless_streamed_trees::trees::encode::{
    markup_decode, markup_encode, term_decode, term_encode,
};
use stackless_streamed_trees::trees::{oracle, Tree, TreeBuilder};

/// Strategy: an arbitrary tree over an alphabet of `k` letters with at
/// most `max_nodes` nodes, built from a random event script.
fn arb_tree(k: u32, max_nodes: usize) -> impl Strategy<Value = Tree> {
    // A script of (label, n_children) pairs interpreted in preorder.
    proptest::collection::vec((0..k, 0usize..4), 1..max_nodes).prop_map(move |script| {
        let mut b = TreeBuilder::new();
        // frames: children budget remaining.
        let mut frames: Vec<usize> = Vec::new();
        let mut it = script.into_iter();
        let (l0, c0) = it.next().expect("nonempty script");
        b.open(Letter(l0));
        frames.push(c0);
        for (l, c) in it {
            // Close exhausted frames.
            while frames.last() == Some(&0) {
                frames.pop();
                b.close().expect("balanced");
            }
            if frames.is_empty() {
                break;
            }
            *frames.last_mut().unwrap() -= 1;
            b.open(Letter(l));
            frames.push(c);
        }
        while !frames.is_empty() {
            frames.pop();
            b.close().expect("balanced");
        }
        b.finish().expect("well-formed")
    })
}

/// Strategy: a random complete DFA over `letters` letters.
fn arb_dfa(letters: usize, max_states: usize) -> impl Strategy<Value = Dfa> {
    (1..=max_states).prop_flat_map(move |n| {
        (
            proptest::collection::vec(0..n, n * letters),
            proptest::collection::vec(any::<bool>(), n),
        )
            .prop_map(move |(flat, accepting)| {
                let rows: Vec<Vec<usize>> = flat.chunks(letters).map(|c| c.to_vec()).collect();
                Dfa::from_rows(letters, 0, accepting, rows).unwrap()
            })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Encoding roundtrips: ⟨·⟩ and [·] are injective on trees.
    #[test]
    fn markup_roundtrip(t in arb_tree(3, 40)) {
        let dec = markup_decode(&markup_encode(&t)).unwrap();
        prop_assert!(t.structurally_equal(&dec));
    }

    #[test]
    fn term_roundtrip(t in arb_tree(3, 40)) {
        let dec = term_decode(&term_encode(&t)).unwrap();
        prop_assert!(t.structurally_equal(&dec));
    }

    /// XML and JSON serializations roundtrip through their parsers.
    #[test]
    fn xml_roundtrip(t in arb_tree(3, 40)) {
        let g = Alphabet::of_chars("abc");
        let doc = stackless_streamed_trees::trees::xml::write_document(&t, &g);
        let tags: Result<Vec<_>, _> =
            stackless_streamed_trees::trees::xml::Scanner::new(doc.as_bytes(), &g).collect();
        let dec = markup_decode(&tags.unwrap()).unwrap();
        prop_assert!(t.structurally_equal(&dec));
    }

    #[test]
    fn json_roundtrip(t in arb_tree(3, 40)) {
        let g = Alphabet::of_chars("abc");
        let doc = stackless_streamed_trees::trees::json::write_json_document(&t, &g);
        // Scan against the same alphabet (a fresh parse would renumber
        // letters in document order).
        let events: Result<Vec<_>, _> =
            stackless_streamed_trees::trees::json::JsonScanner::new(doc.as_bytes(), &g).collect();
        let dec = term_decode(&events.unwrap()).unwrap();
        prop_assert!(t.structurally_equal(&dec));
    }

    /// The depth counter of the encoding equals tree depth at every
    /// opening tag, and ends at zero.
    #[test]
    fn depth_invariant(t in arb_tree(3, 40)) {
        let mut depth = 0i64;
        let mut max = 0i64;
        for e in markup_encode(&t) {
            depth += e.depth_delta();
            max = max.max(depth);
            prop_assert!(depth >= 0);
        }
        prop_assert_eq!(depth, 0);
        prop_assert_eq!(max, t.height() as i64);
    }

    /// Lemma 3.10 dualities on arbitrary DFAs.
    #[test]
    fn flatness_duality(d in arb_dfa(2, 5)) {
        let a = Analysis::new(&d);
        let ac = Analysis::new(&d.complement());
        for mode in [MeetMode::Synchronous, MeetMode::Blind] {
            let v = classify_mode(&a, mode);
            let vc = classify_mode(&ac, mode);
            prop_assert_eq!(v.a_flat.holds, vc.e_flat.holds);
            prop_assert_eq!(v.e_flat.holds, vc.a_flat.holds);
            prop_assert_eq!(v.har.holds, vc.har.holds);
            prop_assert_eq!(v.almost_reversible.holds, vc.almost_reversible.holds);
            prop_assert_eq!(
                v.almost_reversible.holds,
                v.e_flat.holds && v.a_flat.holds
            );
        }
    }

    /// The planner's chosen evaluator always agrees with the DOM oracle
    /// and the pushdown baseline — for arbitrary languages and trees.
    #[test]
    fn planner_always_correct(d in arb_dfa(3, 4), t in arb_tree(3, 50)) {
        let q = CompiledQuery::compile(&d);
        let tags = markup_encode(&t);
        let want: Vec<usize> = oracle::select(&t, q.minimal_dfa())
            .into_iter()
            .map(|v| v.index())
            .collect();
        prop_assert_eq!(&q.select(&tags), &want);
        prop_assert_eq!(
            q.select(&tags),
            StackEvaluator::select_indices(q.minimal_dfa(), &tags)
        );
        prop_assert_eq!(q.count(&tags), want.len());
        prop_assert_eq!(q.exists_branch(&tags), oracle::in_exists(&t, q.minimal_dfa()));
        prop_assert_eq!(q.forall_branches(&tags), oracle::in_forall(&t, q.minimal_dfa()));
    }

    /// Appendix B: the *blind* planner over the term encoding agrees with
    /// the DOM oracle and with the term-level pushdown baseline — for
    /// arbitrary languages and trees, whatever blind class the planner
    /// lands in.
    #[test]
    fn term_planner_always_correct(d in arb_dfa(3, 4), t in arb_tree(3, 50)) {
        use stackless_streamed_trees::baseline::stack::TermStackEvaluator;
        use stackless_streamed_trees::core::planner::CompiledTermQuery;
        let q = CompiledTermQuery::compile(&d);
        let events = term_encode(&t);
        let want: Vec<usize> = oracle::select(&t, q.minimal_dfa())
            .into_iter()
            .map(|v| v.index())
            .collect();
        prop_assert_eq!(&q.select(&events), &want);
        prop_assert_eq!(
            q.select(&events),
            TermStackEvaluator::select_indices(q.minimal_dfa(), &events)
        );
    }

    /// The blind pipeline end-to-end over raw JSON bytes: serialize the
    /// tree, scan it back to term events, evaluate — the result must match
    /// both the DOM oracle and the markup-encoding planner on the same
    /// tree (the two encodings answer the same query).
    #[test]
    fn json_byte_path_matches_markup_path(d in arb_dfa(3, 4), t in arb_tree(3, 40)) {
        use stackless_streamed_trees::core::planner::CompiledTermQuery;
        use stackless_streamed_trees::trees::json;
        let g = Alphabet::of_chars("abc");
        let tq = CompiledTermQuery::compile(&d);
        let mq = CompiledQuery::compile(&d);
        let doc = json::write_json_document(&t, &g);
        let events: Vec<_> = json::JsonScanner::new(doc.as_bytes(), &g)
            .collect::<Result<_, _>>()
            .unwrap();
        let want: Vec<usize> = oracle::select(&t, tq.minimal_dfa())
            .into_iter()
            .map(|v| v.index())
            .collect();
        prop_assert_eq!(&tq.select(&events), &want);
        prop_assert_eq!(mq.select(&markup_encode(&t)), want);
    }

    /// Boolean-operation laws on random DFAs, checked both algebraically
    /// (language equivalence) and pointwise (membership on random words).
    #[test]
    fn dfa_boolean_laws(a in arb_dfa(2, 4), b in arb_dfa(2, 4), w in proptest::collection::vec(0usize..2, 0..12)) {
        use stackless_streamed_trees::automata::ops;
        // Pointwise semantics of product constructions.
        prop_assert_eq!(
            ops::intersection(&a, &b).accepts(&w),
            a.accepts(&w) && b.accepts(&w)
        );
        prop_assert_eq!(
            ops::union(&a, &b).accepts(&w),
            a.accepts(&w) || b.accepts(&w)
        );
        prop_assert_eq!(a.complement().accepts(&w), !a.accepts(&w));
        // Algebraic laws.
        prop_assert!(ops::equivalent(&ops::union(&a, &b), &ops::union(&b, &a)));
        prop_assert!(ops::equivalent(
            &ops::intersection(&a, &b).complement(),
            &ops::union(&a.complement(), &b.complement())
        ));
        prop_assert!(ops::included(&ops::intersection(&a, &b), &a));
        prop_assert!(ops::included(&a, &ops::union(&a, &b)));
        // Hopcroft and Moore agree on the partition.
        let moore = a.equivalence_classes();
        let hopcroft = a.equivalence_classes_hopcroft();
        for p in 0..a.n_states() {
            for q in 0..a.n_states() {
                prop_assert_eq!(moore[p] == moore[q], hopcroft[p] == hopcroft[q]);
            }
        }
    }

    /// Regex algebra: the parser/compiler respects the expected identities.
    #[test]
    fn regex_algebra(w in proptest::collection::vec(0usize..2, 0..10)) {
        use stackless_streamed_trees::automata::{compile_regex, ops};
        let g = Alphabet::of_chars("ab");
        let c = |p: &str| compile_regex(p, &g).unwrap();
        prop_assert!(ops::equivalent(&c("(a|b)*"), &c(".*")));
        prop_assert!(ops::equivalent(&c("a|b"), &c("b|a")));
        prop_assert!(ops::equivalent(&c("(a*)*"), &c("a*")));
        prop_assert!(ops::equivalent(&c("a(ba)*"), &c("(ab)*a")));
        prop_assert!(ops::equivalent(&c("aa*"), &c("a+")));
        // ε and ∅ identities.
        prop_assert!(ops::equivalent(&c("()a"), &c("a")));
        prop_assert!(ops::equivalent(&c("[^ab]|b"), &c("b")));
        // Pointwise: a? ≡ (a|ε).
        prop_assert_eq!(c("a?b*").accepts(&w), c("(a|())b*").accepts(&w));
    }

    /// Minimization is canonical: equivalent automata minimize identically.
    #[test]
    fn minimization_canonical(d in arb_dfa(2, 5)) {
        let m = d.minimize();
        prop_assert_eq!(&m, &m.minimize());
        // Padding with an unreachable state changes nothing.
        prop_assert!(stackless_streamed_trees::automata::ops::equivalent(&d, &m));
    }

    /// Alphabet compression preserves per-query semantics: the markup
    /// product built over letter classes classifies every document
    /// identically, query by query, to N independent single-query runs.
    #[test]
    fn queryset_compression_preserves_per_query_semantics(
        t in arb_tree(2, 40),
        picks in proptest::collection::vec(0usize..5, 2..6),
    ) {
        use stackless_streamed_trees::core::{Query, QuerySet};
        use stackless_streamed_trees::trees::xml;

        // An all-almost-reversible pool, so every member steps in the
        // markup product and the compression seam is actually crossed.
        const POOL: [&str; 5] = ["a.*b", "a.*", "b.*a", ".*", "b.*"];
        let g = Alphabet::of_chars("ab");
        let patterns: Vec<&str> = picks.iter().map(|&i| POOL[i]).collect();
        let doc = xml::write_document(&t, &g).into_bytes();

        let compressed = QuerySet::compile(&patterns, &g).unwrap();
        let markup = compressed.grouping().markup.expect("all members registerless");
        prop_assert_eq!(markup.members.len(), patterns.len());
        prop_assert!(markup.classes <= 2 * g.len());

        let a = compressed.select_all(&doc).unwrap();
        for (p, ids) in patterns.iter().zip(&a) {
            let alone = Query::compile(p, &g).unwrap().select(&doc).unwrap();
            prop_assert_eq!(&alone, ids);
        }
    }
}
