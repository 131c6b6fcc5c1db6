//! Integration tests of the shared multi-query evaluator: checkpoint /
//! resume equivalence at every byte cut on every compiler tier,
//! indexed-vs-forced-scalar lockstep across structural window edges,
//! hostile checkpoint rejection, and segment-size independence — the
//! multi-query mirrors of `tests/session.rs` and
//! `tests/chunk_boundaries.rs`.

use stackless_streamed_trees::automata::Alphabet;
use stackless_streamed_trees::core::session::{Limits, SessionError};
use stackless_streamed_trees::core::structural::STRUCTURAL_WINDOW;
use stackless_streamed_trees::core::{QuerySet, QuerySetCheckpoint, SetStrategy};

/// All-almost-reversible members: the shared product DFA at the default
/// budget, lane-wise simulation at budget 0.
const AR_SET: [&str; 4] = ["a.*b", "a.*", "b.*a", ".*"];
/// Mixed strategies (registerless, stackless, stack): the per-query
/// native-engine tier at every budget.
const MIXED_SET: [&str; 4] = ["a.*b", "ab", ".*a.*b", ".*ab"];

/// The three tier-forcing compilations of one pattern set each.
fn tiered_sets(g: &Alphabet) -> Vec<QuerySet> {
    let product = QuerySet::compile(&AR_SET, g).unwrap();
    assert_eq!(product.strategy(), SetStrategy::Product);
    let lanes = QuerySet::compile_with_budget(&AR_SET, g, 0).unwrap();
    assert_eq!(lanes.strategy(), SetStrategy::Lanes);
    let hybrid = QuerySet::compile(&MIXED_SET, g).unwrap();
    assert_eq!(hybrid.strategy(), SetStrategy::Hybrid);
    vec![product, lanes, hybrid]
}

/// A decorated document: attributes in both quote styles, a comment, a
/// self-closing leaf, text runs — everything the lexer must skip.
fn decorated_doc() -> Vec<u8> {
    b"<?xml version=\"1.0\"?><a id=\"x<y\"><b q='1'>text<a/><!-- c --></b>\n<b><a>deep</a></b></a><b><a></a></b>"
        .to_vec()
}

#[test]
fn resume_equals_whole_run_at_every_cut_on_every_tier() {
    let g = Alphabet::of_chars("ab");
    let doc = decorated_doc();
    let limits = Limits::none();
    for set in tiered_sets(&g) {
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
                "{:?} tier diverged at cut {cut}",
                set.strategy()
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
    for set in tiered_sets(&g) {
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
                "{:?} tier diverged at segment size {size}",
                set.strategy()
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
        for mut set in tiered_sets(&g) {
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
        for mut set in tiered_sets(&g) {
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
    for set in tiered_sets(&g) {
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

    // Same members, different tier: refused before fingerprinting.
    assert!(lanes.resume(&cp, limits.clone()).is_err());
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

/// Byte offsets of every HAR lane's first chain state in a hybrid-tier
/// wire checkpoint.  Layout after the shared header run (magic, version,
/// tier tag, fingerprint, alphabet, offset, node, depth): lexer state
/// (u16), lane count (u32), then per lane a tag byte and its payload.
fn har_chain_positions(wire: &[u8]) -> Vec<usize> {
    let u16_at = |p: usize| u16::from_le_bytes([wire[p], wire[p + 1]]) as usize;
    let u32_at = |p: usize| u32::from_le_bytes(wire[p..p + 4].try_into().unwrap()) as usize;
    let mut pos = 4 + 2 + 1 + 8;
    let n_syms = u16_at(pos);
    pos += 2;
    for _ in 0..n_syms {
        pos += 2 + u16_at(pos);
    }
    pos += 8 + 8 + 8 + 2;
    let n_lanes = u32_at(pos);
    pos += 4;
    let mut out = Vec::new();
    for _ in 0..n_lanes {
        let tag = wire[pos];
        pos += 1;
        match tag {
            0 => pos += 4,
            1 => {
                let chain_len = u16_at(pos + 5);
                if chain_len > 0 {
                    out.push(pos + 7);
                }
                pos += 7 + chain_len * 10;
            }
            _ => pos += 8 + 4 * u32_at(pos + 4),
        }
    }
    assert_eq!(pos, wire.len(), "walked the whole hybrid payload");
    out
}

#[test]
fn forged_hybrid_har_chain_states_are_refused_at_resume() {
    let g = Alphabet::of_chars("ab");
    let set = QuerySet::compile(&MIXED_SET, &g).unwrap();
    assert_eq!(set.strategy(), SetStrategy::Hybrid);
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
