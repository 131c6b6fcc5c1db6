//! Tier-1 tests for the resilient session layer: the checkpoint/resume
//! differential invariant at **every** cut position, the checkpoint wire
//! format, typed checkpoint errors, and the resource guards.
//!
//! The core invariant is *resume(checkpoint(prefix), rest) ≡ run(whole)*.
//! Checking it naively (a full tail run per cut) is quadratic, so the
//! sweep below uses an incremental scheme that still covers every cut:
//! one baseline session is fed byte-by-byte, snapshotting at each
//! boundary; each snapshot is serialized, deserialized, resumed, and fed
//! exactly one byte — and the resumed session's next snapshot must equal
//! the baseline's.  By induction over byte positions this pins the
//! resumed state at every cut, and a sampled set of full-tail runs checks
//! the end-to-end outcome equality directly.

use std::path::Path;
use std::time::Duration;

use stackless_streamed_trees::automata::{compile_regex, Alphabet};
use stackless_streamed_trees::conform::corpus::load_corpus;
use stackless_streamed_trees::conform::gen::{case_rng, gen_case};
use stackless_streamed_trees::conform::{resume_support, Case, EngineId, GenConfig};
use stackless_streamed_trees::core::engine::FusedQuery;
use stackless_streamed_trees::core::planner::{CompiledQuery, Strategy};
use stackless_streamed_trees::core::session::{
    EngineCheckpoint, LimitKind, Limits, SessionError, SessionOutcome,
};

fn fused_for(case: &Case) -> Option<FusedQuery> {
    let g = Alphabet::of_chars(&case.alphabet);
    let dfa = compile_regex(&case.pattern, &g).ok()?;
    CompiledQuery::compile(&dfa).fused(&g).ok()
}

/// Feeds `doc` byte-by-byte, returning the checkpoint at every byte
/// boundary (index i = state after `doc[..i]`) and the terminal result.
/// On a mid-stream error the checkpoint list stops at the last boundary
/// that was still healthy.
fn byte_by_byte(
    fused: &FusedQuery,
    doc: &[u8],
) -> (Vec<EngineCheckpoint>, Result<SessionOutcome, SessionError>) {
    let mut session = fused.session(Limits::none());
    let mut checkpoints = vec![session.checkpoint().expect("fresh session snapshots")];
    for i in 0..doc.len() {
        if session.feed(&doc[i..i + 1]).is_err() {
            break;
        }
        checkpoints.push(session.checkpoint().expect("healthy session snapshots"));
    }
    // `finish` propagates the sticky feed error, if any.
    let outcome = session.finish();
    (checkpoints, outcome)
}

/// The every-cut invariant for one case, via the incremental scheme plus
/// sampled full-tail runs.  Returns the strategy exercised (for coverage
/// accounting) or `None` if the byte engine is unavailable for the case.
fn check_every_cut(case: &Case) -> Option<Strategy> {
    let fused = fused_for(case)?;
    let strategy = fused.strategy();
    let doc = &case.doc;
    let (checkpoints, whole) = byte_by_byte(&fused, doc);

    // Incremental: each serialized snapshot, resumed and fed one byte,
    // must land exactly on the baseline's next snapshot.
    for (i, cp) in checkpoints.iter().enumerate() {
        let wire = cp.to_bytes();
        let thawed = EngineCheckpoint::from_bytes(&wire).expect("round-trip");
        assert_eq!(&thawed, cp, "wire round-trip must be lossless at cut {i}");
        let mut resumed = fused.resume(&thawed, Limits::none()).expect("same query");
        if i < doc.len() {
            let fed = resumed.feed(&doc[i..i + 1]);
            match checkpoints.get(i + 1) {
                Some(next) => {
                    fed.expect("baseline accepted this byte");
                    assert_eq!(
                        &resumed.checkpoint().expect("healthy"),
                        next,
                        "case {:?} cut {i}: resumed state diverged",
                        case.pattern
                    );
                }
                None => {
                    // The baseline failed on this byte; the resumed
                    // session must fail identically (same typed error,
                    // same absolute offset — offsets are global).
                    let want = whole.as_ref().expect_err("baseline failed");
                    assert_eq!(
                        fed.expect_err("resumed must fail on the same byte"),
                        want.clone(),
                        "case {:?} cut {i}: error drifted across resume",
                        case.pattern
                    );
                }
            }
        }
    }

    // Sampled full-tail runs: end-to-end outcome equality, including the
    // prefix+tail match-set concatenation property.
    let step = (checkpoints.len() / 8).max(1);
    for i in (0..checkpoints.len()).step_by(step) {
        let cp = &checkpoints[i];
        let mut prefix = fused.session(Limits::none());
        prefix.feed(&doc[..i]).expect("prefix was healthy");
        let prefix_matches = prefix.matches().to_vec();
        let tail = fused.resume_from(cp, &doc[i..], &Limits::none());
        match (&whole, tail) {
            (Ok(w), Ok(t)) => {
                let mut stitched = prefix_matches;
                stitched.extend_from_slice(&t.matches);
                assert_eq!(stitched, w.matches, "cut {i}: stitched matches diverged");
                assert_eq!(t.nodes, w.nodes, "cut {i}: node tally diverged");
            }
            (Err(w), Err(t)) => assert_eq!(&t, w, "cut {i}: tail error diverged"),
            (w, t) => panic!("cut {i}: acceptance diverged: whole {w:?} vs tail {t:?}"),
        }
    }
    Some(strategy)
}

/// Every committed reproducer, every cut position.
#[test]
fn corpus_resume_invariant_at_every_cut() {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("testdata/corpus");
    let entries = load_corpus(&dir).expect("corpus parses");
    assert!(!entries.is_empty());
    for (path, case) in entries {
        check_every_cut(&case)
            .unwrap_or_else(|| panic!("{}: corpus case must compile", path.display()));
    }
}

/// 512 structure-aware fuzzed cases (the generator's usual mix: deep
/// chains, wide fans, decorated renderings, and ~25% malformed-adjacent
/// mutations), every cut position each, across all three strategies.
#[test]
fn fuzzed_resume_invariant_512_cases() {
    let cfg = GenConfig::default();
    let mut by_strategy = [0usize; 3];
    for iter in 0..512u64 {
        let (case, _) = gen_case(&mut case_rng(1315, iter), &cfg);
        if let Some(strategy) = check_every_cut(&case) {
            by_strategy[match strategy {
                Strategy::Registerless => 0,
                Strategy::Stackless => 1,
                Strategy::Stack => 2,
            }] += 1;
        }
    }
    // The sweep is only meaningful if all three checkpoint shapes —
    // O(1) composite, O(1) register chain, O(depth) frames — showed up.
    assert!(
        by_strategy.iter().all(|&n| n > 10),
        "strategy coverage drifted: {by_strategy:?}"
    );
}

/// The five buffered-vs-streaming paths: resume is a fused-family
/// capability; the buffered paths answer with the documented typed error.
#[test]
fn buffered_engines_resume_is_a_typed_error() {
    for id in [
        EngineId::DomOracle,
        EngineId::StackBaseline,
        EngineId::EventPlan,
    ] {
        match resume_support(id) {
            Err(SessionError::ResumeUnsupported { engine }) => assert_eq!(engine, id.to_string()),
            other => panic!("expected ResumeUnsupported for {id}, got {other:?}"),
        }
    }
    for id in [EngineId::Fused, EngineId::Chunked(7), EngineId::Session] {
        assert!(resume_support(id).is_ok(), "{id} resumes");
    }
}

fn demo_query() -> (FusedQuery, Vec<u8>) {
    let g = Alphabet::of_chars("ab");
    let dfa = compile_regex("a.*b", &g).unwrap();
    let fused = CompiledQuery::compile(&dfa).fused(&g).unwrap();
    let doc = b"<a q=\"x<y>\"><b>text</b><b><a/></b></a>".to_vec();
    (fused, doc)
}

#[test]
fn run_with_checkpoints_and_resume_from_round_trip() {
    let (fused, doc) = demo_query();
    let limits = Limits::none();
    let whole = fused.run_session(&doc, &limits).unwrap();
    let cuts = vec![1, 7, doc.len() / 2, doc.len() - 1];
    let (outcome, checkpoints) = fused.run_with_checkpoints(&doc, &cuts, &limits).unwrap();
    assert_eq!(outcome, whole);
    assert_eq!(checkpoints.len(), cuts.len());
    for (cut, cp) in cuts.iter().zip(&checkpoints) {
        assert_eq!(cp.offset(), *cut);
        let tail = fused.resume_from(cp, &doc[*cut..], &limits).unwrap();
        assert_eq!(tail.nodes, whole.nodes, "cut {cut}");
    }
}

#[test]
fn checkpoint_rejects_corruption_and_foreign_queries() {
    let (fused, doc) = demo_query();
    let (_, cps) = fused
        .run_with_checkpoints(&doc, &[5], &Limits::none())
        .unwrap();
    let cp = &cps[0];
    let wire = cp.to_bytes();

    // Truncation at every prefix of the wire format: typed error, no panic.
    for n in 0..wire.len() {
        assert!(
            matches!(
                EngineCheckpoint::from_bytes(&wire[..n]),
                Err(SessionError::Checkpoint { .. })
            ),
            "truncated checkpoint at {n} bytes must be a typed error"
        );
    }
    // Bad magic and bad version.
    let mut bad = wire.clone();
    bad[0] ^= 0xFF;
    assert!(matches!(
        EngineCheckpoint::from_bytes(&bad),
        Err(SessionError::Checkpoint { .. })
    ));
    let mut bad = wire.clone();
    bad[4] = 0xEE;
    assert!(matches!(
        EngineCheckpoint::from_bytes(&bad),
        Err(SessionError::Checkpoint { .. })
    ));
    // Trailing garbage.
    let mut bad = wire.clone();
    bad.push(0);
    assert!(matches!(
        EngineCheckpoint::from_bytes(&bad),
        Err(SessionError::Checkpoint { .. })
    ));

    // A different query must refuse the checkpoint (fingerprint check).
    let g = Alphabet::of_chars("ab");
    let other = CompiledQuery::compile(&compile_regex("b.*a", &g).unwrap())
        .fused(&g)
        .unwrap();
    assert!(matches!(
        other.resume(cp, Limits::none()),
        Err(SessionError::Checkpoint { .. })
    ));
    // A different *strategy* must refuse before fingerprinting.
    let har = CompiledQuery::compile(&compile_regex(".*a.*b", &g).unwrap())
        .fused(&g)
        .unwrap();
    assert_ne!(har.strategy(), fused.strategy());
    assert!(matches!(
        har.resume(cp, Limits::none()),
        Err(SessionError::Checkpoint { .. })
    ));
}

#[test]
fn checkpoint_cost_is_o1_for_dra_and_odepth_for_pushdown() {
    let g = Alphabet::of_chars("ab");
    let deep: Vec<u8> = std::iter::repeat_n(&b"<a>"[..], 400)
        .flatten()
        .copied()
        .collect();

    // Registerless: composite state only — size independent of depth.
    let reg = CompiledQuery::compile(&compile_regex("a.*b", &g).unwrap())
        .fused(&g)
        .unwrap();
    assert_eq!(reg.strategy(), Strategy::Registerless);
    let (_, cps) = reg
        .run_with_checkpoints(&deep, &[3, deep.len()], &Limits::none())
        .unwrap();
    assert_eq!(cps[0].to_bytes().len(), cps[1].to_bytes().len());

    // Pushdown fallback: frames grow with depth.
    let stack = CompiledQuery::compile(&compile_regex(".*ab", &g).unwrap())
        .fused(&g)
        .unwrap();
    assert_eq!(stack.strategy(), Strategy::Stack);
    let (_, cps) = stack
        .run_with_checkpoints(&deep, &[3, deep.len()], &Limits::none())
        .unwrap();
    assert!(
        cps[1].to_bytes().len() > cps[0].to_bytes().len() + 700,
        "pushdown checkpoints must carry the O(depth) frame stack"
    );
}

#[test]
fn depth_limit_fires_with_offset() {
    let (fused, _) = demo_query();
    let doc: Vec<u8> = std::iter::repeat_n(&b"<a>"[..], 50)
        .flatten()
        .copied()
        .collect();
    let limits = Limits::none().with_max_depth(10);
    match fused.run_session(&doc, &limits) {
        Err(SessionError::Limit(e)) => {
            assert_eq!(e.kind, LimitKind::Depth);
            assert_eq!(e.limit, 10);
            // The 11th `<a>` spans bytes 30..33; its open event fires on
            // the `>` at byte 32.
            assert_eq!(e.offset, 32);
        }
        other => panic!("expected depth limit, got {other:?}"),
    }
    // At or under budget: the guard is invisible.
    let shallow = b"<a><a><a></a></a></a>";
    let got = fused
        .run_session(shallow, &Limits::none().with_max_depth(3))
        .unwrap();
    let want = fused.run_session(shallow, &Limits::none()).unwrap();
    assert_eq!(got, want);
}

#[test]
fn byte_limit_offset_is_deterministic_across_resume_seams() {
    let (fused, doc) = demo_query();
    let limits = Limits::none().with_max_bytes(9);
    let whole = fused.run_session(&doc, &limits).unwrap_err();
    match &whole {
        SessionError::Limit(e) => {
            assert_eq!(e.kind, LimitKind::Bytes);
            assert_eq!(e.offset, 9, "byte-limit offset is exactly the budget");
        }
        other => panic!("expected byte limit, got {other:?}"),
    }
    // Resuming mid-budget must fail at the same absolute offset.
    let (_, cps) = fused
        .run_with_checkpoints(&doc, &[4], &Limits::none())
        .unwrap();
    let resumed = fused.resume_from(&cps[0], &doc[4..], &limits).unwrap_err();
    assert_eq!(resumed, whole);
}

#[test]
fn imbalance_limit_fires_on_stray_closes() {
    let (fused, _) = demo_query();
    let doc = b"<a></a></b></b></b>";
    // Unlimited: the closure semantics tolerate the stray closes.
    assert!(fused.run_session(doc, &Limits::none()).is_ok());
    match fused.run_session(doc, &Limits::none().with_max_imbalance(2)) {
        Err(SessionError::Limit(e)) => assert_eq!(e.kind, LimitKind::Imbalance),
        other => panic!("expected imbalance limit, got {other:?}"),
    }
}

#[test]
fn time_budget_fires_between_windows() {
    use std::sync::atomic::{AtomicU64, Ordering};

    // An injected clock instead of real sleeps: the test advances time by
    // fiat, so the deadline breach is deterministic and instant.
    static FAKE_MS: AtomicU64 = AtomicU64::new(0);
    fn fake_clock() -> Duration {
        Duration::from_millis(FAKE_MS.load(Ordering::SeqCst))
    }

    let (fused, doc) = demo_query();
    let limits = Limits::none()
        .with_time_budget(Duration::from_millis(5))
        .with_clock(fake_clock);
    let mut session = fused.session(limits.clone());
    // Within budget: the same clock reading as at session start.
    session.feed(&doc[..2]).expect("no time has passed");
    // Cross the deadline between windows and the next feed must fail.
    FAKE_MS.store(20, Ordering::SeqCst);
    match session.feed(&doc[2..]) {
        Err(SessionError::Limit(e)) => {
            assert_eq!(e.kind, LimitKind::Time);
            assert_eq!(e.limit, 5, "diagnostic reports the budget in ms");
        }
        other => panic!("expected time limit, got {other:?}"),
    }
    // The breach is sticky, like every session error.
    assert!(matches!(
        session.feed(b"<a>"),
        Err(SessionError::Limit(e)) if e.kind == LimitKind::Time
    ));
}

#[test]
fn limited_select_matches_unlimited_and_keeps_scanner_diagnostics() {
    let (fused, doc) = demo_query();
    let roomy = Limits::none().with_max_depth(1000).with_max_bytes(1 << 20);
    assert_eq!(
        fused.select_bytes_limited(&doc, &roomy).unwrap(),
        fused.select_bytes(&doc).unwrap()
    );
    assert_eq!(
        fused.count_bytes_limited(&doc, &roomy).unwrap(),
        fused.count_bytes(&doc).unwrap()
    );
    // On malformed input the guarded path re-scans for the Scanner's
    // exact diagnostic, so error classes stay comparable engine-wide.
    let bad = b"<a><zz></a>";
    let want = fused.select_bytes(bad).unwrap_err();
    match fused.select_bytes_limited(bad, &roomy) {
        Err(SessionError::Parse(got)) => assert_eq!(format!("{got:?}"), format!("{want:?}")),
        other => panic!("expected scanner-grade parse error, got {other:?}"),
    }
}

#[test]
fn event_level_guarded_select() {
    use stackless_streamed_trees::trees::xml::parse_document;
    let g = Alphabet::of_chars("ab");
    let plan = CompiledQuery::compile(&compile_regex("a.*b", &g).unwrap());
    let (_, tags) = parse_document(b"<a><b></b><b></b></a>").unwrap();
    let got = plan
        .select_guarded(&tags, &Limits::none().with_max_depth(4))
        .unwrap();
    assert_eq!(got, plan.select(&tags));
    match plan.select_guarded(&tags, &Limits::none().with_max_depth(1)) {
        Err(SessionError::Limit(e)) => {
            assert_eq!(e.kind, LimitKind::Depth);
            assert_eq!(e.offset, 1, "offset is the event index");
        }
        other => panic!("expected depth limit, got {other:?}"),
    }
    // Stray closes drift below zero: the imbalance budget stops the
    // event that crosses it.
    use stackless_streamed_trees::automata::Tag;
    let a = g.letter("a").unwrap();
    let drift = [
        Tag::Close(a),
        Tag::Close(a),
        Tag::Open(a),
        Tag::Close(a),
        Tag::Close(a),
    ];
    match plan.select_guarded(&drift, &Limits::none().with_max_imbalance(2)) {
        Err(SessionError::Limit(e)) => {
            assert_eq!((e.kind, e.limit, e.offset), (LimitKind::Imbalance, 2, 4));
        }
        other => panic!("expected imbalance limit, got {other:?}"),
    }
}

// --- Structural-index window/feed adversaries -----------------------------
//
// The indexed scan runs per feed and re-enters mid-markup after a cut;
// these tests pin the seams the vectorized sweep cannot see across: a
// close tag `</b>` split between two feeds, a comment terminator `-->`
// split three ways, and checkpoint/resume at every byte cut across a
// STRUCTURAL_WINDOW edge — always bitwise against the forced-scalar twin.

use stackless_streamed_trees::core::structural::STRUCTURAL_WINDOW;

/// One-shot reference outcome for `doc` under `limits`.
fn one_shot(fused: &FusedQuery, doc: &[u8], limits: &Limits) -> String {
    format!("{:?}", fused.run_session(doc, limits))
}

/// Runs `doc` through a session split into the given feed segments.
fn fed(fused: &FusedQuery, segments: &[&[u8]], limits: Limits) -> String {
    let mut session = fused.session(limits);
    for seg in segments {
        if let Err(e) = session.feed(seg) {
            return format!("Err({e:?})");
        }
    }
    format!("{:?}", session.finish())
}

#[test]
fn close_tag_split_across_a_feed_boundary_matches_one_shot() {
    let (fused, _) = demo_query();
    let doc = b"<a><b>text</b><b/></a>";
    let want = one_shot(&fused, doc, &Limits::none());
    // Split inside `</b>`: after the `<`, and after the `</`.
    for cut in [10, 11, 12, 13] {
        let got = fed(&fused, &[&doc[..cut], &doc[cut..]], Limits::none());
        assert_eq!(got, want, "split at {cut}");
        let scalar = fed(
            &fused,
            &[&doc[..cut], &doc[cut..]],
            Limits::none().with_force_scalar(true),
        );
        assert_eq!(scalar, want, "forced-scalar split at {cut}");
    }
}

#[test]
fn comment_terminator_split_three_ways_matches_one_shot() {
    let (fused, _) = demo_query();
    let doc = b"<a><!-- <b> is commented out --><b/></a>";
    let want = one_shot(&fused, doc, &Limits::none());
    let dashes = doc.windows(3).position(|w| w == b"-->").unwrap();
    // Every way to split `-->` into three feeds (cuts inside and around
    // it), for both engines.
    for c1 in dashes..dashes + 3 {
        for c2 in c1 + 1..dashes + 4 {
            let segs: [&[u8]; 3] = [&doc[..c1], &doc[c1..c2], &doc[c2..]];
            assert_eq!(
                fed(&fused, &segs, Limits::none()),
                want,
                "cuts at {c1},{c2}"
            );
            assert_eq!(
                fed(&fused, &segs, Limits::none().with_force_scalar(true)),
                want,
                "forced-scalar cuts at {c1},{c2}"
            );
        }
    }
}

#[test]
fn indexed_and_scalar_checkpoint_bytes_agree_at_every_byte_cut() {
    // A document that crosses a window edge with structure on the seam:
    // the `</b>` begins on the last byte of window 0.  Feeding
    // byte-by-byte snapshots both engines at every cut; the serialized
    // checkpoints must be identical bytes (nothing about the structural
    // index may leak into the wire state).
    let (fused, _) = demo_query();
    let mut doc = b"<a><b>".to_vec();
    doc.resize(STRUCTURAL_WINDOW - 1, b'x');
    doc.extend_from_slice(b"</b><!-- y --><b q=\"<a>\"/></a>");
    let mut indexed = fused.session(Limits::none());
    let mut scalar = fused.session(Limits::none().with_force_scalar(true));
    for i in 0..doc.len() {
        indexed.feed(&doc[i..i + 1]).unwrap();
        scalar.feed(&doc[i..i + 1]).unwrap();
        let a = indexed.checkpoint().unwrap().to_bytes();
        let b = scalar.checkpoint().unwrap().to_bytes();
        assert_eq!(a, b, "checkpoint bytes diverged after byte {}", i + 1);
    }
    assert_eq!(
        format!("{:?}", indexed.finish()),
        format!("{:?}", scalar.finish())
    );
}

#[test]
fn resume_at_every_cut_across_the_window_edge_matches_one_shot() {
    // Checkpoint → serialize → deserialize → resume at every byte cut in
    // a band across the window edge (plus a coarse sweep elsewhere),
    // resuming the indexed run from a forced-scalar prefix and vice
    // versa — checkpoints are engine-agnostic in both directions.
    let (fused, _) = demo_query();
    let w = STRUCTURAL_WINDOW;
    let mut doc = b"<a><b>".to_vec();
    doc.resize(w - 2, b'x');
    doc.extend_from_slice(b"</b><!-- <b> --><b/></a>");
    let want = {
        let o = fused.run_session(&doc, &Limits::none()).unwrap();
        o.matches
    };
    let band = (w - 8..w + 20).chain((1..doc.len()).step_by(997));
    for cut in band {
        for (first, second) in [(false, true), (true, false)] {
            let mut session = fused.session(Limits::none().with_force_scalar(first));
            session.feed(&doc[..cut]).unwrap();
            let frozen = EngineCheckpoint::from_bytes(&session.checkpoint().unwrap().to_bytes())
                .expect("wire round-trip");
            let mut matches = session.matches().to_vec();
            let mut resumed = fused
                .resume(&frozen, Limits::none().with_force_scalar(second))
                .unwrap();
            resumed.feed(&doc[cut..]).unwrap();
            let tail = resumed.finish().unwrap();
            matches.extend_from_slice(&tail.matches);
            assert_eq!(matches, want, "cut at {cut} (scalar-first={first})");
        }
    }
}
