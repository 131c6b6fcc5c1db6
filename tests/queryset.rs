//! Integration tests of the shared multi-query evaluator: checkpoint /
//! resume equivalence at every byte cut with and without products,
//! indexed-vs-forced-scalar lockstep across structural window edges,
//! hostile checkpoint rejection, and segment-size independence — the
//! multi-query mirrors of `tests/session.rs` and
//! `tests/chunk_boundaries.rs` — plus the equivalence of plan-built and
//! pattern-compiled sets, and the groups' projection onto per-member
//! checkpoint lanes, which makes checkpoints independent of the budget.

use std::ops::Range;

use stackless_streamed_trees::automata::Alphabet;
use stackless_streamed_trees::core::session::{Limits, SessionError};
use stackless_streamed_trees::core::structural::STRUCTURAL_WINDOW;
use stackless_streamed_trees::core::{
    Query, QueryError, QuerySet, QuerySetCheckpoint, Strategy, DEFAULT_PRODUCT_BUDGET,
};

/// All-almost-reversible members: one markup product at the default
/// budget, the family table at budget 0.
const AR_SET: [&str; 4] = ["a.*b", "a.*", "b.*a", ".*"];
/// Mixed strategies (registerless, stackless, stack): groups, lanes and
/// (at budget 0) the family table in one set.
const MIXED_SET: [&str; 4] = ["a.*b", "ab", ".*a.*b", ".*ab"];

/// Two members of every engine class: registerless (`a.*b`, `a.*`),
/// stackless (`ab`, `ba`) and stack (`.*ab`, `.*ba`), plus one more
/// stackless and one more registerless member.
const HYBRID_SET: [&str; 8] = ["a.*b", "a.*", "ab", "ba", ".*ab", ".*ba", ".*a.*b", ".*"];

/// Both pattern sets at the default budget and at budget 0.
fn budgeted_sets(g: &Alphabet) -> Vec<QuerySet> {
    [AR_SET, MIXED_SET]
        .iter()
        .flat_map(|p| [DEFAULT_PRODUCT_BUDGET, 0].map(|b| QuerySet::compile_with_budget(p, g, b)))
        .map(Result::unwrap)
        .collect()
}

/// A decorated document: attributes in both quote styles, a comment, a
/// self-closing leaf, text runs — everything the lexer must skip.
fn decorated_doc() -> Vec<u8> {
    b"<?xml version=\"1.0\"?><a id=\"x<y\"><b q='1'>text<a/><!-- c --></b>\n<b><a>deep</a></b></a><b><a></a></b>"
        .to_vec()
}

#[test]
fn a_pattern_that_does_not_parse_is_a_typed_pattern_error() {
    let g = Alphabet::of_chars("ab");
    assert!(matches!(
        QuerySet::compile(&["a.*", "("], &g),
        Err(QueryError::Pattern(_))
    ));
}

#[test]
fn resume_equals_whole_run_at_every_cut_on_every_tier() {
    let g = Alphabet::of_chars("ab");
    let doc = decorated_doc();
    let limits = Limits::none();
    for set in budgeted_sets(&g) {
        let whole = set.run_session(&doc, &limits).unwrap();
        for cut in 0..=doc.len() {
            let mut session = set.session(limits.clone());
            session.feed(&doc[..cut]).unwrap();
            let prefix: Vec<Vec<usize>> = session.matches().to_vec();
            let cp = session.checkpoint().unwrap();
            // Wire round trip: every resume crosses serialization.
            let cp = QuerySetCheckpoint::from_bytes(&cp.to_bytes()).unwrap();
            let tail = set.resume_from(&cp, &doc[cut..], &limits).unwrap();
            let stitched: Vec<Vec<usize>> = prefix
                .iter()
                .zip(&tail.matches)
                .map(|(p, t)| p.iter().chain(t).copied().collect())
                .collect();
            assert_eq!(
                stitched,
                whole.matches,
                "{} diverged at cut {cut}",
                set.grouping()
            );
            assert_eq!(tail.nodes, whole.nodes);
        }
    }
}

#[test]
fn segment_feeds_at_every_size_match_the_one_shot_engines() {
    let g = Alphabet::of_chars("ab");
    let doc = decorated_doc();
    let limits = Limits::none();
    for set in budgeted_sets(&g) {
        let oracle = set.select_all(&doc).unwrap();
        for size in 1..=doc.len() {
            let mut session = set.session(limits.clone());
            for chunk in doc.chunks(size) {
                session.feed(chunk).unwrap();
            }
            let out = session.finish().unwrap();
            assert_eq!(
                out.matches,
                oracle,
                "{} diverged at segment size {size}",
                set.grouping()
            );
        }
    }
}

/// A document whose interesting structure straddles byte `at`: text
/// padding, then nested tags opening exactly around the boundary.
fn doc_with_structure_at(at: usize) -> Vec<u8> {
    let mut d = b"<a>".to_vec();
    while d.len() < at.saturating_sub(2) {
        d.push(b'x');
    }
    d.extend_from_slice(b"<b><a></a></b>");
    d.extend_from_slice(b"</a><b><a/></b>");
    d
}

#[test]
fn indexed_and_forced_scalar_paths_agree_across_window_edges() {
    let g = Alphabet::of_chars("ab");
    // Tags at every alignment of the structural-index window edge, so
    // the SIMD certify-or-fallback seam is crossed in every phase.
    for offset in 0..8usize {
        let doc = doc_with_structure_at(STRUCTURAL_WINDOW + offset);
        for mut set in budgeted_sets(&g) {
            let indexed = set.select_all(&doc);
            set.set_force_scalar(true);
            let scalar = set.select_all(&doc);
            match (&indexed, &scalar) {
                (Ok(a), Ok(b)) => assert_eq!(a, b, "window edge +{offset}"),
                (Err(a), Err(b)) => assert_eq!(a.to_string(), b.to_string()),
                (a, b) => panic!("paths disagree at +{offset}: {a:?} vs {b:?}"),
            }
        }
    }
}

#[test]
fn truncation_at_the_window_edge_errors_identically_on_both_paths() {
    let g = Alphabet::of_chars("ab");
    let full = doc_with_structure_at(STRUCTURAL_WINDOW);
    // Truncate inside the tag that straddles the window edge.
    for cut in STRUCTURAL_WINDOW.saturating_sub(4)..full.len().min(STRUCTURAL_WINDOW + 8) {
        let doc = &full[..cut];
        for mut set in budgeted_sets(&g) {
            let indexed = set.count_all(doc).map_err(|e| e.to_string());
            set.set_force_scalar(true);
            let scalar = set.count_all(doc).map_err(|e| e.to_string());
            assert_eq!(indexed, scalar, "cut {cut}");
        }
    }
}

#[test]
fn run_with_checkpoints_and_resume_from_round_trip() {
    let g = Alphabet::of_chars("ab");
    let doc = decorated_doc();
    let limits = Limits::none();
    for set in budgeted_sets(&g) {
        let cuts: Vec<usize> = (0..=doc.len()).step_by(7).collect();
        let (whole, cps) = set.run_with_checkpoints(&doc, &cuts, &limits).unwrap();
        assert_eq!(cps.len(), cuts.iter().filter(|&&c| c <= doc.len()).count());
        for (cp, &cut) in cps.iter().zip(&cuts) {
            let tail = set.resume_from(cp, &doc[cut..], &limits).unwrap();
            assert_eq!(tail.nodes, whole.nodes);
            for (q, (tail_ids, whole_ids)) in tail.matches.iter().zip(&whole.matches).enumerate() {
                let expected: Vec<usize> = whole_ids
                    .iter()
                    .copied()
                    .filter(|id| !tail_ids.is_empty() && *id >= tail_ids[0])
                    .collect();
                // Tail matches are a suffix of the whole run's matches.
                assert!(
                    whole_ids.ends_with(tail_ids),
                    "query {q} at cut {cut}: {tail_ids:?} not a suffix of {whole_ids:?} \
                     (filtered {expected:?})"
                );
            }
        }
    }
}

#[test]
fn checkpoints_are_refused_by_foreign_sets_tiers_and_corruption() {
    let g = Alphabet::of_chars("ab");
    let doc = decorated_doc();
    let limits = Limits::none();
    let product = QuerySet::compile(&AR_SET, &g).unwrap();
    let lanes = QuerySet::compile_with_budget(&AR_SET, &g, 0).unwrap();
    let other = QuerySet::compile(&["a.*", ".*b"], &g).unwrap();

    let mut session = product.session(limits.clone());
    session.feed(&doc[..20]).unwrap();
    let cp = session.checkpoint().unwrap();

    // Same members under another budget: the same checkpoint.
    let mut lanes_session = lanes.session(limits.clone());
    lanes_session.feed(&doc[..20]).unwrap();
    assert_eq!(lanes_session.checkpoint().unwrap(), cp);
    assert!(lanes.resume(&cp, limits.clone()).is_ok());
    // Different member set: fingerprint mismatch.
    let mut other_session = other.session(limits.clone());
    other_session.feed(&doc[..20]).unwrap();
    let other_cp = other_session.checkpoint().unwrap();
    assert!(product.resume(&other_cp, limits.clone()).is_err());

    // Every single-bit corruption of the wire form must be rejected
    // with a typed error or deserialize to a resumable state — never
    // panic, never resume into an out-of-range state silently.
    let wire = cp.to_bytes();
    for i in 0..wire.len() {
        let mut bad = wire.clone();
        bad[i] ^= 1;
        if let Ok(parsed) = QuerySetCheckpoint::from_bytes(&bad) {
            // Structurally valid after the flip: resume either refuses
            // (fingerprint/range) or succeeds on a coherent state.
            let _ = product.resume(&parsed, limits.clone());
        }
    }
}

#[test]
fn forged_hybrid_har_chain_states_are_refused_at_resume() {
    let g = Alphabet::of_chars("ab");
    let set = QuerySet::compile(&MIXED_SET, &g).unwrap();
    let doc: &[u8] = b"<a><a><b><a></a></b></a></a>";
    let mut forged_cuts = 0;
    for cut in 0..=doc.len() {
        let mut session = set.session(Limits::none());
        session.feed(&doc[..cut]).unwrap();
        let wire = session.checkpoint().unwrap().to_bytes();
        for pos in har_chain_positions(&wire) {
            let mut forged = wire.clone();
            forged[pos..pos + 2].copy_from_slice(&60000u16.to_le_bytes());
            // The shape is intact, so the lie is semantic: resume must
            // refuse it rather than let the next feed index past the
            // member DFA.
            let cp = QuerySetCheckpoint::from_bytes(&forged).expect("shape is untouched");
            match set.resume(&cp, Limits::none()) {
                Err(SessionError::Checkpoint { .. }) => forged_cuts += 1,
                Err(other) => panic!("cut {cut}: wrong error kind {other:?}"),
                Ok(mut resumed) => {
                    let fed = resumed.feed(&doc[cut..]);
                    panic!("cut {cut}: forged chain state resumed (feed: {fed:?})");
                }
            }
        }
    }
    assert!(forged_cuts > 0, "no cut carried a HAR chain to forge");
}

/// A set whose members were compiled one by one, as a plan cache hands
/// them out.
fn plan_built(patterns: &[&str], g: &Alphabet, budget: usize) -> QuerySet {
    let queries: Vec<Query> = patterns
        .iter()
        .map(|p| Query::compile(p, g).unwrap())
        .collect();
    let members = patterns
        .iter()
        .map(|p| Some(*p))
        .zip(queries.iter().map(Query::plan));
    QuerySet::from_plans(members, g, budget)
}

/// A few kilobytes of nested markup over `a`/`b` with text, attributes
/// and self-closing leaves, from a fixed-seed generator.
fn long_doc() -> Vec<u8> {
    let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
    let mut next = |n: u64| {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x % n
    };
    let (mut doc, mut open) = (Vec::new(), Vec::new());
    while doc.len() < 4000 {
        let label = if next(2) == 0 { "a" } else { "b" };
        match next(6) {
            0 | 1 if open.len() < 12 => {
                doc.extend_from_slice(format!("<{label}>").as_bytes());
                open.push(label);
            }
            2 => doc.extend_from_slice(format!("<{label} k='v'/>").as_bytes()),
            3 => doc.extend_from_slice(b"text "),
            _ => {
                if let Some(l) = open.pop() {
                    doc.extend_from_slice(format!("</{l}>").as_bytes());
                }
            }
        }
    }
    while let Some(l) = open.pop() {
        doc.extend_from_slice(format!("</{l}>").as_bytes());
    }
    doc
}

#[test]
fn hybrid_set_has_two_members_of_every_engine_class() {
    let set = QuerySet::compile(&HYBRID_SET, &Alphabet::of_chars("ab")).unwrap();
    for class in [Strategy::Registerless, Strategy::Stackless, Strategy::Stack] {
        let n = (0..set.len())
            .filter(|&i| set.member_strategy(i) == class)
            .count();
        assert!(n >= 2, "{n} {class:?} member(s)");
    }
}

#[test]
fn plan_built_sets_equal_pattern_compiled_sets() {
    let g = Alphabet::of_chars("ab");
    let doc = long_doc();
    let limits = Limits::none();
    let cuts: Vec<usize> = (0..=doc.len()).step_by(97).collect();
    let cases: [(&[&str], usize); 4] = [
        (&AR_SET, DEFAULT_PRODUCT_BUDGET),
        (&AR_SET, 0),
        (&HYBRID_SET, DEFAULT_PRODUCT_BUDGET),
        (&HYBRID_SET, 0),
    ];
    for (patterns, budget) in cases {
        let compiled = QuerySet::compile_with_budget(patterns, &g, budget).unwrap();
        let planned = plan_built(patterns, &g, budget);
        assert_eq!(planned.grouping(), compiled.grouping());
        let grouping = compiled.grouping();
        let want = compiled.select_all(&doc).unwrap();
        assert_eq!(
            planned.select_all(&doc).unwrap(),
            want,
            "{grouping} {budget}"
        );
        let (whole, cps) = compiled.run_with_checkpoints(&doc, &cuts, &limits).unwrap();
        let (planned_whole, planned_cps) =
            planned.run_with_checkpoints(&doc, &cuts, &limits).unwrap();
        assert_eq!(whole.matches, want);
        assert_eq!(planned_whole, whole);
        assert_eq!(cps.len(), cuts.len());
        for ((cp, planned_cp), &cut) in cps.iter().zip(&planned_cps).zip(&cuts) {
            // The header carries the set fingerprint: equal bytes mean
            // equal fingerprints too.
            let wire = cp.to_bytes();
            assert_eq!(
                planned_cp.to_bytes(),
                wire,
                "{grouping} {budget}: cut {cut}"
            );
            let cp = QuerySetCheckpoint::from_bytes(&wire).unwrap();
            for set in [&compiled, &planned] {
                let tail = set.resume_from(&cp, &doc[cut..], &limits).unwrap();
                let stitched: Vec<Vec<usize>> = (whole.matches.iter().zip(&tail.matches))
                    .map(|(w, t)| {
                        let prefix = w.iter().filter(|&&n| n < cp.next_node());
                        prefix.chain(t).copied().collect()
                    })
                    .collect();
                assert_eq!(stitched, whole.matches, "{grouping} {budget}: cut {cut}");
                assert_eq!(tail.nodes, whole.nodes);
            }
        }
    }
}

#[test]
fn grouped_and_per_member_hybrid_checkpoints_are_byte_identical() {
    let g = Alphabet::of_chars("ab");
    let doc = long_doc();
    let limits = Limits::none();
    let cuts: Vec<usize> = (0..=doc.len()).step_by(31).collect();
    for patterns in [&HYBRID_SET[..], &AR_SET] {
        let grouped = QuerySet::compile(patterns, &g).unwrap();
        let per_member = QuerySet::compile_with_budget(patterns, &g, 0).unwrap();
        let (whole, cps) = grouped.run_with_checkpoints(&doc, &cuts, &limits).unwrap();
        let (reference, reference_cps) = per_member
            .run_with_checkpoints(&doc, &cuts, &limits)
            .unwrap();
        assert_eq!(whole, reference);
        for ((cp, reference_cp), &cut) in cps.iter().zip(&reference_cps).zip(&cuts) {
            assert_eq!(
                cp.to_bytes(),
                reference_cp.to_bytes(),
                "{patterns:?}: cut {cut}"
            );
            // Either machine resumes the other's checkpoint.
            let tail = grouped
                .resume_from(reference_cp, &doc[cut..], &limits)
                .unwrap();
            assert_eq!(tail.nodes, whole.nodes);
            let tail = per_member.resume_from(cp, &doc[cut..], &limits).unwrap();
            assert_eq!(tail.nodes, whole.nodes);
        }
    }
}

/// The lane list of a wire checkpoint: where the lane count sits, and
/// each lane's tag and payload range (after its tag byte).  Layout
/// after the shared header run (magic, version, layout byte,
/// fingerprint, alphabet, offset, node, depth): lexer state (u16), lane
/// count (u32), then per lane a tag byte and its payload.
fn wire_lanes(wire: &[u8]) -> (usize, Vec<(u8, Range<usize>)>) {
    let u16_at = |p: usize| u16::from_le_bytes([wire[p], wire[p + 1]]) as usize;
    let u32_at = |p: usize| u32::from_le_bytes(wire[p..p + 4].try_into().unwrap()) as usize;
    let mut pos = 4 + 2 + 1 + 8;
    let n_syms = u16_at(pos);
    pos += 2;
    for _ in 0..n_syms {
        pos += 2 + u16_at(pos);
    }
    pos += 8 + 8 + 8 + 2;
    let count_at = pos;
    pos += 4;
    let mut lanes = Vec::new();
    for _ in 0..u32_at(count_at) {
        let tag = wire[pos];
        let start = pos + 1;
        pos = start
            + match tag {
                0 => 4,
                1 => 7 + u16_at(start + 5) * 10,
                _ => 8 + 4 * u32_at(start + 4),
            };
        lanes.push((tag, start..pos));
    }
    assert_eq!(pos, wire.len(), "walked the whole lane payload");
    (count_at, lanes)
}

/// Byte offsets of every HAR lane's first chain state in a wire
/// checkpoint.
fn har_chain_positions(wire: &[u8]) -> Vec<usize> {
    let (_, lanes) = wire_lanes(wire);
    lanes
        .into_iter()
        .filter(|(tag, r)| {
            *tag == 1 && u16::from_le_bytes([wire[r.start + 5], wire[r.start + 6]]) > 0
        })
        .map(|(_, r)| r.start + 7)
        .collect()
}

/// Resumes a forged checkpoint on the per-member machine (which checks
/// each lane alone) and the grouped one; returns whether the per-member
/// machine accepted it while the grouped one refused it with a typed
/// checkpoint error.  The grouped machine never accepts what the
/// per-member one refuses.
fn refused_by_grouping(grouped: &QuerySet, per_member: &QuerySet, forged: &[u8]) -> bool {
    let cp = QuerySetCheckpoint::from_bytes(forged).expect("shape is untouched");
    let lone = per_member.resume(&cp, Limits::none());
    match grouped.resume(&cp, Limits::none()) {
        Ok(_) => {
            assert!(lone.is_ok(), "grouped machine accepted a refused lane");
            false
        }
        Err(SessionError::Checkpoint { .. }) => lone.is_ok(),
        Err(other) => panic!("wrong error kind {other:?}"),
    }
}

#[test]
fn forged_stack_lanes_with_unequal_frame_counts_are_refused() {
    let g = Alphabet::of_chars("ab");
    let grouped = QuerySet::compile(&HYBRID_SET, &g).unwrap();
    let per_member = QuerySet::compile_with_budget(&HYBRID_SET, &g, 0).unwrap();
    let doc: &[u8] = b"<a><b><a><b></b></a></b><a/></a>";
    let mut refused = 0;
    for cut in 0..=doc.len() {
        let mut session = grouped.session(Limits::none());
        session.feed(&doc[..cut]).unwrap();
        let wire = session.checkpoint().unwrap().to_bytes();
        let (_, lanes) = wire_lanes(&wire);
        // The first stack lane holding a frame drops its innermost one.
        let Some((_, r)) = lanes
            .iter()
            .find(|(tag, r)| *tag == 2 && wire[r.start + 4..r.start + 8] != [0; 4])
        else {
            continue;
        };
        let n_frames = u32::from_le_bytes(wire[r.start + 4..r.start + 8].try_into().unwrap());
        let mut forged = wire[..r.start + 4].to_vec();
        forged.extend_from_slice(&(n_frames - 1).to_le_bytes());
        forged.extend_from_slice(&wire[r.start + 8..r.end - 4]);
        forged.extend_from_slice(&wire[r.end..]);
        assert!(
            refused_by_grouping(&grouped, &per_member, &forged),
            "cut {cut}"
        );
        refused += 1;
    }
    assert!(refused > 0, "no cut held a stack frame to drop");
}

#[test]
fn forged_unreachable_lane_state_combinations_are_refused() {
    let g = Alphabet::of_chars("ab");
    let grouped = QuerySet::compile(&HYBRID_SET, &g).unwrap();
    let per_member = QuerySet::compile_with_budget(&HYBRID_SET, &g, 0).unwrap();
    let doc: &[u8] = b"<a><b></b></a><b><a></a></b>";
    let mut refused = 0;
    for cut in 0..=doc.len() {
        let mut session = grouped.session(Limits::none());
        session.feed(&doc[..cut]).unwrap();
        let wire = session.checkpoint().unwrap().to_bytes();
        let (_, lanes) = wire_lanes(&wire);
        // Rewrite the first registerless member's state, leaving the
        // second one's: each value alone is in range, not every pair is.
        let (_, r) = lanes
            .iter()
            .find(|(tag, _)| *tag == 0)
            .expect("a markup lane");
        for state in 0u32..8 {
            let mut forged = wire.clone();
            forged[r.start..r.start + 4].copy_from_slice(&state.to_le_bytes());
            if refused_by_grouping(&grouped, &per_member, &forged) {
                refused += 1;
            }
        }
    }
    assert!(refused > 0, "every forged pair was reachable");
}
