//! Emission determinism: the streamed match sequence is a pure function
//! of the document, never of the failure or chunking history.
//!
//! Three invariants, each checked across all three fused engine classes
//! and both the indexed and forced-scalar byte paths:
//!
//! 1. **Retraction-free truncation** — feeding any prefix of the
//!    document emits a prefix of the full run's emission sequence.
//!    A crash mid-stream can lose the tail, never un-say a match.
//! 2. **Resume transparency** — cutting the stream at *every* byte
//!    boundary, checkpointing, and resuming yields an emitted
//!    concatenation byte-identical to the uninterrupted run, and the
//!    resumed cursor (count + digest) agrees with the whole-run cursor.
//! 3. **Earliest emission** — matches are surfaced strictly before the
//!    end of the document (at their deciding open event's window), not
//!    at `finish`.

use stackless_streamed_trees::automata::{compile_regex, Alphabet};
use stackless_streamed_trees::core::emit::{EmissionCursor, StreamedMatch};
use stackless_streamed_trees::core::engine::FusedQuery;
use stackless_streamed_trees::core::planner::{CompiledQuery, Strategy};
use stackless_streamed_trees::core::session::Limits;

/// One fused query per engine class over a document whose matches are
/// spread across the stream, so the emission frontier advances many
/// times rather than once at the end.
fn corpus() -> Vec<(FusedQuery, Strategy, Vec<u8>)> {
    let g = Alphabet::of_chars("ab");
    let mut doc = b"<a x='1'><b>text</b><!-- c --><a><b/></a>".to_vec();
    for _ in 0..10 {
        doc.extend_from_slice(b"<a><b></b></a>");
    }
    doc.extend_from_slice(b"</a>");
    [
        ("a.*b", Strategy::Registerless),
        (".*a.*b", Strategy::Stackless),
        (".*ab", Strategy::Stack),
    ]
    .into_iter()
    .map(|(pattern, strategy)| {
        let dfa = compile_regex(pattern, &g).expect("pattern compiles");
        let fused = CompiledQuery::compile(&dfa).fused(&g).expect("fusable");
        assert_eq!(fused.strategy(), strategy, "{pattern}");
        (fused, strategy, doc.clone())
    })
    .collect()
}

fn limits_variants() -> [(&'static str, Limits); 2] {
    [
        ("indexed", Limits::none()),
        ("scalar", Limits::none().with_force_scalar(true)),
    ]
}

/// Feeds `doc` byte by byte, draining after every byte; returns the
/// emitted sequence in order plus the final cursor.
fn emit_byte_by_byte(
    fused: &FusedQuery,
    limits: &Limits,
    doc: &[u8],
) -> (Vec<StreamedMatch>, EmissionCursor) {
    let mut session = fused.session(limits.clone());
    let mut emitted = Vec::new();
    for b in doc {
        session.feed(std::slice::from_ref(b)).expect("clean corpus");
        emitted.extend(session.drain_emitted());
    }
    let outcome = session.finish().expect("balanced corpus");
    assert_eq!(
        emitted.len() as u64,
        outcome.cursor.count,
        "finish() must not invent emissions: every match is decided at an open event"
    );
    (emitted, outcome.cursor)
}

/// `emit_byte_by_byte` without the finish step: the emissions decided by
/// the prefix alone.
fn emit_prefix(fused: &FusedQuery, limits: &Limits, prefix: &[u8]) -> Vec<StreamedMatch> {
    let mut session = fused.session(limits.clone());
    let mut emitted = Vec::new();
    for b in prefix {
        session.feed(std::slice::from_ref(b)).expect("clean corpus");
        emitted.extend(session.drain_emitted());
    }
    emitted
}

#[test]
fn truncation_at_every_prefix_emits_a_prefix_of_the_full_run() {
    for (fused, strategy, doc) in corpus() {
        for (label, limits) in limits_variants() {
            let mut whole = fused.session(limits.clone());
            let mut full: Vec<StreamedMatch> = Vec::new();
            for b in &doc {
                whole.feed(std::slice::from_ref(b)).unwrap();
                full.extend(whole.drain_emitted());
            }
            let outcome = whole.finish().unwrap();
            assert_eq!(
                EmissionCursor::over(&full),
                outcome.cursor,
                "{strategy:?}/{label}: drained stream disagrees with the cursor"
            );
            assert_eq!(
                full.iter().map(|m| m.node).collect::<Vec<_>>(),
                outcome.matches,
                "{strategy:?}/{label}: emitted ≠ collected"
            );
            assert!(
                full.windows(2).all(|w| w[0].offset < w[1].offset),
                "{strategy:?}/{label}: offsets must be strictly increasing"
            );
            for cut in 0..=doc.len() {
                let part = emit_prefix(&fused, &limits, &doc[..cut]);
                assert_eq!(
                    part.as_slice(),
                    &full[..part.len()],
                    "{strategy:?}/{label} cut {cut}: truncated run retracted or reordered"
                );
            }
        }
    }
}

#[test]
fn resume_at_every_checkpoint_cut_is_emission_transparent() {
    for (fused, strategy, doc) in corpus() {
        for (label, limits) in limits_variants() {
            let (full, full_cursor) = emit_byte_by_byte(&fused, &limits, &doc);
            let _ = full; // the per-cut loop re-derives the stream below
            for cut in 0..=doc.len() {
                // Head run: feed the prefix, drain, checkpoint.
                let mut head = fused.session(limits.clone());
                head.feed(&doc[..cut]).unwrap();
                let head_emitted: Vec<_> = head.drain_emitted().collect();
                let cp = head.checkpoint().expect("healthy snapshot");
                assert_eq!(
                    cp.emission_cursor(),
                    EmissionCursor::over(&head_emitted),
                    "{strategy:?}/{label} cut {cut}: checkpoint cursor drifted"
                );

                // Tail run from the thawed checkpoint.
                let mut tail = fused.resume(&cp, limits.clone()).expect("same query");
                tail.feed(&doc[cut..]).unwrap();
                let mut stream = head_emitted;
                stream.extend(tail.drain_emitted());
                let outcome = tail.finish().unwrap();
                assert_eq!(
                    outcome.cursor, full_cursor,
                    "{strategy:?}/{label} cut {cut}: resumed cursor diverged"
                );
                assert_eq!(
                    EmissionCursor::over(&stream),
                    full_cursor,
                    "{strategy:?}/{label} cut {cut}: spliced stream diverged"
                );
            }
        }
    }
}

#[test]
fn matches_are_emitted_before_end_of_document() {
    for (fused, strategy, doc) in corpus() {
        for (label, limits) in limits_variants() {
            let mut session = fused.session(limits.clone());
            let mut first_emission_at = None;
            let mut fed = 0usize;
            for b in &doc {
                session.feed(std::slice::from_ref(b)).unwrap();
                fed += 1;
                if first_emission_at.is_none() && session.drain_emitted().len() > 0 {
                    first_emission_at = Some(fed);
                }
            }
            let outcome = session.finish().unwrap();
            assert!(
                !outcome.matches.is_empty(),
                "{strategy:?}: corpus must match"
            );
            let at = first_emission_at
                .unwrap_or_else(|| panic!("{strategy:?}/{label}: nothing emitted before finish"));
            assert!(
                at < doc.len(),
                "{strategy:?}/{label}: first emission at byte {at} of {} — not early",
                doc.len()
            );
        }
    }
}

/// `<a>` + 20 000 × `<b/>` + `</a>`: one 64 KiB window decides more
/// matches than a match sink's grow step, so the sinks grow mid-window
/// and are carried across window and feed boundaries full.
#[test]
fn dense_matches_survive_sink_growth_at_window_and_feed_boundaries() {
    const BS: usize = 20_000;
    let g = Alphabet::of_chars("ab");
    let mut doc = b"<a>".to_vec();
    for _ in 0..BS {
        doc.extend_from_slice(b"<b/>");
    }
    doc.extend_from_slice(b"</a>");
    // Each `<b/>` open event fires at the `>` that completes its tag.
    let opens: Vec<usize> = (0..BS).map(|i| 3 + 4 * i + 3).collect();
    assert!(doc[opens[BS - 1] - 3..].starts_with(b"<b/>"));
    for pattern in ["a.*b", ".*a.*b", ".*ab"] {
        let dfa = compile_regex(pattern, &g).expect("pattern compiles");
        let fused = CompiledQuery::compile(&dfa).fused(&g).expect("fusable");
        let expected = fused.select_bytes(&doc).expect("well-formed");
        assert_eq!(expected, (1..=BS).collect::<Vec<_>>(), "{pattern}");
        for (label, limits) in limits_variants() {
            for feed in [doc.len(), 1, 4095, 4097] {
                let mut session = fused.session(limits.clone());
                let mut emitted = Vec::new();
                for seg in doc.chunks(feed) {
                    session.feed(seg).expect("well-formed");
                    emitted.extend(session.drain_emitted());
                }
                let outcome = session.finish().expect("balanced");
                let ctx = format!("{pattern}/{label}/feed {feed}");
                assert_eq!(outcome.matches, expected, "{ctx}");
                let nodes: Vec<usize> = emitted.iter().map(|m| m.node).collect();
                let offsets: Vec<usize> = emitted.iter().map(|m| m.offset).collect();
                assert_eq!(nodes, expected, "{ctx}");
                assert_eq!(offsets, opens, "{ctx}");
                assert_eq!(outcome.cursor, EmissionCursor::over(&emitted), "{ctx}");
            }
        }
    }
}
