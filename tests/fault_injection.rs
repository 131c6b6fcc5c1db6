//! Fault injection: the panic-free guarantee under hostile conditions.
//!
//! Three fault families, per the robustness contract:
//!
//! * **Worker panics** — a panic inside a data-parallel chunk worker must
//!   surface as a clean [`CoreError::WorkerFailed`] through every chunked
//!   entry point, never an unwind or abort of the caller.
//! * **Hostile bytes** — mid-stream corruption at every position of a
//!   document must leave all engines in agreement (typed errors with
//!   deterministic offsets, or identical match sets), with zero panics.
//! * **Limit boundaries** — documents sitting exactly at, one under, and
//!   one over each resource budget must flip between success and the
//!   typed [`LimitExceeded`] exactly at the boundary.
//!
//! Recovery mode rides along: on the same hostile inputs the lenient
//! scanner must return partial matches plus structured diagnostics
//! instead of an error.

use stackless_streamed_trees::automata::{compile_regex, Alphabet};
use stackless_streamed_trees::conform::gen::{case_rng, gen_case};
use stackless_streamed_trees::conform::{run_case, Case, GenConfig, Mutation, Outcome};
use stackless_streamed_trees::core::registerless;
use stackless_streamed_trees::core::session::{ErrorClass, LimitKind, Limits, SessionError};
use stackless_streamed_trees::core::{Analysis, ByteDfa, CompiledQuery, CoreError, Query};

fn poisoned_byte_dfa() -> ByteDfa {
    let g = Alphabet::of_chars("ab");
    let dfa = compile_regex("a.*b", &g).unwrap();
    let markup = registerless::compile_query_markup(&Analysis::new(&dfa)).unwrap();
    let mut bd = ByteDfa::new(&markup, &g).unwrap();
    bd.poison_chunk_workers_for_tests();
    bd
}

/// Runs `f` with panic output silenced (the poisoned workers *do* panic;
/// that is the point — but their backtraces are noise in test logs).
fn quietly<T>(f: impl FnOnce() -> T) -> T {
    let prev = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let out = f();
    std::panic::set_hook(prev);
    out
}

/// Satellite: both former `.expect("chunk worker panicked")` join sites,
/// exercised through every chunked entry point with a table poisoned so
/// that **only** the chunk workers' factored automaton walk panics (the
/// sequential paths never read `qnext`).
#[test]
fn chunk_worker_panic_is_a_clean_error_not_an_abort() {
    let bd = poisoned_byte_dfa();
    // Large enough that the auto-chunking wrappers actually split
    // (they decline below 8 KiB and would run sequentially).
    let mut doc = b"<a>".to_vec();
    for _ in 0..1000 {
        doc.extend_from_slice(b"<b>some text</b>");
    }
    doc.extend_from_slice(b"</a>");
    // The sequential paths are untouched by the poison.
    let want = bd.select_bytes(&doc).unwrap();
    assert!(!want.is_empty());

    let cuts = vec![700, 1400, 2100];
    let (sel_at, cnt_at, sel_auto, cnt_auto) = quietly(|| {
        (
            bd.select_bytes_chunked_at(&doc, &cuts),
            bd.count_bytes_chunked_at(&doc, &cuts),
            // The auto-chunking wrappers go through the same join.
            bd.select_bytes_chunked(&doc, 8),
            bd.count_bytes_chunked(&doc, 8),
        )
    });
    match sel_at {
        Err(SessionError::Engine(CoreError::WorkerFailed { detail })) => {
            assert!(!detail.is_empty(), "panic payload is carried along");
        }
        other => panic!("select_bytes_chunked_at: expected WorkerFailed, got {other:?}"),
    }
    match cnt_at {
        Err(SessionError::Engine(CoreError::WorkerFailed { .. })) => {}
        other => panic!("count_bytes_chunked_at: expected WorkerFailed, got {other:?}"),
    }
    match sel_auto {
        Err(SessionError::Engine(CoreError::WorkerFailed { .. })) => {}
        other => panic!("select_bytes_chunked: expected WorkerFailed, got {other:?}"),
    }
    match cnt_auto {
        Err(SessionError::Engine(CoreError::WorkerFailed { .. })) => {}
        other => panic!("count_bytes_chunked: expected WorkerFailed, got {other:?}"),
    }
}

/// Mid-stream corruption sweep: every byte of the document, replaced by
/// each of a handful of hostile bytes, through all engine paths — no
/// panics, no cross-engine divergence.
#[test]
fn corruption_at_every_position_never_panics_or_diverges() {
    let doc = b"<a q=\"x<y>\"><b>text</b><b><a/></b></a>".to_vec();
    for pos in 0..doc.len() {
        for &bad in b"<>/\"z\0" {
            let mut mutated = doc.clone();
            mutated[pos] = bad;
            let case = Case {
                pattern: "a.*b".to_owned(),
                alphabet: "ab".to_owned(),
                doc: mutated,
                chunk_sizes: vec![3, 11],
            };
            let outcome = run_case(&case, Mutation::None);
            assert!(
                outcome.divergence.is_none(),
                "corrupt byte {bad:#x} at {pos}: {:?}",
                outcome.divergence
            );
            for (id, o) in &outcome.outcomes {
                assert!(
                    !matches!(o, Outcome::Panicked(_)),
                    "corrupt byte {bad:#x} at {pos}: {id} panicked: {o:?}"
                );
            }
        }
    }
}

/// Fault-mode fuzz: 200 generated cases with a guaranteed
/// malformed-adjacent mutation each (the CI smoke job runs the same
/// configuration through `stql fuzz --faults`).
#[test]
fn fault_mode_fuzz_runs_clean() {
    let cfg = GenConfig {
        faults: true,
        ..GenConfig::default()
    };
    let mut rejected = 0usize;
    for iter in 0..200u64 {
        let (case, _) = gen_case(&mut case_rng(77, iter), &cfg);
        let outcome = run_case(&case, Mutation::None);
        assert!(
            outcome.divergence.is_none(),
            "iter {iter}: {:?}",
            outcome.divergence
        );
        for (id, o) in &outcome.outcomes {
            assert!(
                !matches!(o, Outcome::Panicked(_)),
                "iter {iter}: {id} panicked"
            );
            if matches!(o, Outcome::Rejected(_)) {
                rejected += 1;
            }
        }
    }
    assert!(rejected > 50, "fault mode should actually produce errors");
}

/// Runs `doc` under `limits` through every guarded entry point — the
/// windowed session, and the one-shot `count_limited` / `select_limited`
/// — and asserts they agree: the same matches on success, the same typed
/// error (kind, limit, offset) on failure.  Returns the shared result.
fn guarded_everywhere(
    query: &Query,
    doc: &[u8],
    limits: &Limits,
    what: &str,
) -> Result<Vec<usize>, SessionError> {
    let session = query
        .fused()
        .run_session(doc, limits)
        .map(|outcome| outcome.matches);
    let select = query.select_limited(doc, limits);
    let count = query.count_limited(doc, limits);
    match (&session, &select, &count) {
        (Ok(s), Ok(sel), Ok(n)) => {
            assert_eq!(s, sel, "{what}: session vs select_limited");
            assert_eq!(s.len(), *n, "{what}: session vs count_limited");
        }
        (Err(SessionError::Limit(a)), Err(SessionError::Limit(b)), Err(SessionError::Limit(c))) => {
            assert_eq!(a, b, "{what}: session vs select_limited");
            assert_eq!(a, c, "{what}: session vs count_limited");
        }
        _ => panic!(
            "{what}: paths disagree: session {session:?}, select {select:?}, count {count:?}"
        ),
    }
    session
}

/// Limit-boundary documents: one under, exactly at, and one over each
/// budget; the typed error must appear exactly when the boundary is
/// crossed, at the exact offset of the breaching tag, identically on
/// every engine class, both byte paths (indexed and forced scalar), and
/// every guarded entry point.
#[test]
fn limit_boundaries_are_exact() {
    let g = Alphabet::of_chars("ab");
    // Depth: a chain nesting exactly `d` deep; the open of level `d`
    // ends at byte `3d - 1`.
    fn chain_doc(d: usize) -> Vec<u8> {
        let mut doc = b"<a>".repeat(d);
        doc.extend_from_slice(&b"</a>".repeat(d));
        doc
    }
    // Depth through a self-closing leaf: `d - 1` opens, then `<b/>`
    // peaks at depth `d` on its own `>` at byte `3(d - 1) + 3`.
    fn leaf_doc(d: usize) -> Vec<u8> {
        let mut doc = b"<a>".repeat(d - 1);
        doc.extend_from_slice(b"<b/>");
        doc.extend_from_slice(&b"</a>".repeat(d - 1));
        doc
    }
    // Imbalance: `d` unmatched closes; the `d`-th ends at byte `4d - 1`.
    fn closes_doc(d: usize) -> Vec<u8> {
        b"</a>".repeat(d)
    }
    /// A document shape: its name, the budget it breaches, the document
    /// at a given depth or imbalance, and the offset of the breaching byte.
    type Shape = (
        &'static str,
        LimitKind,
        fn(usize) -> Vec<u8>,
        fn(usize) -> usize,
    );
    let shapes: [Shape; 3] = [
        ("chain", LimitKind::Depth, chain_doc, |d| 3 * d - 1),
        ("leaf", LimitKind::Depth, leaf_doc, |d| 3 * (d - 1) + 3),
        ("closes", LimitKind::Imbalance, closes_doc, |d| 4 * d - 1),
    ];

    for pattern in ["a.*b", ".*a.*b", ".*ab"] {
        let query = Query::compile(pattern, &g).unwrap();
        for force_scalar in [false, true] {
            for budget in [1usize, 7, 64] {
                for (shape, kind, doc, offset) in shapes {
                    let limits = match kind {
                        LimitKind::Depth => Limits::none().with_max_depth(budget),
                        _ => Limits::none().with_max_imbalance(budget),
                    }
                    .with_force_scalar(force_scalar);
                    let what = |d: usize| {
                        format!("{pattern} {shape} scalar={force_scalar} budget {budget} doc {d}")
                    };
                    if budget > 1 || shape != "leaf" {
                        let d = budget - 1;
                        guarded_everywhere(&query, &doc(d), &limits, &what(d))
                            .unwrap_or_else(|e| panic!("{}: {e}", what(d)));
                    }
                    guarded_everywhere(&query, &doc(budget), &limits, &what(budget))
                        .unwrap_or_else(|e| panic!("{}: {e}", what(budget)));
                    let d = budget + 1;
                    match guarded_everywhere(&query, &doc(d), &limits, &what(d)) {
                        Err(SessionError::Limit(e)) => {
                            assert_eq!(e.kind, kind, "{}", what(d));
                            assert_eq!(e.limit, budget as u64, "{}", what(d));
                            assert_eq!(e.offset, offset(d), "{}", what(d));
                        }
                        other => panic!("{}: expected a limit error, got {other:?}", what(d)),
                    }
                }
            }
        }
    }

    // Bytes: a document of exactly the budget length passes; one byte
    // more fails at offset == budget.
    let query = Query::compile("a.*b", &g).unwrap();
    let doc = b"<a><b></b></a>".to_vec();
    let exact = Limits::none().with_max_bytes(doc.len());
    assert!(guarded_everywhere(&query, &doc, &exact, "bytes exact").is_ok());
    let mut over = doc.clone();
    over.push(b' ');
    match guarded_everywhere(&query, &over, &exact, "bytes over") {
        Err(SessionError::Limit(e)) => {
            assert_eq!(e.kind, LimitKind::Bytes);
            assert_eq!(e.offset, doc.len());
        }
        other => panic!("expected byte limit, got {other:?}"),
    }
}

/// Recovery mode: partial matches plus structured diagnostics on inputs
/// that abort the strict engines.
#[test]
fn recovery_mode_returns_partial_matches_and_diagnostics() {
    let g = Alphabet::of_chars("ab");
    for pattern in ["a.*b", ".*a.*b", ".*ab"] {
        let fused = CompiledQuery::compile(&compile_regex(pattern, &g).unwrap())
            .fused(&g)
            .unwrap();

        // Clean input: recovery is exactly the strict run.
        let clean = b"<a><b></b><b><a/></b></a>";
        let strict = fused.select_bytes(clean).unwrap();
        let rec = fused.select_bytes_recovering(clean);
        assert_eq!(rec.matches, strict, "pattern {pattern}");
        assert!(rec.diagnostics.is_empty() && rec.suppressed == 0);

        // One corrupt tag mid-document: the strict path aborts, the
        // lenient path records the offset/depth/class and keeps going —
        // the second <b> subtree still matches.
        let hostile = b"<a><b></b><zz!><b><a/></b></a>";
        assert!(fused.select_bytes(hostile).is_err());
        let rec = fused.select_bytes_recovering(hostile);
        assert_eq!(rec.diagnostics.len(), 1, "pattern {pattern}: {rec:?}");
        let d = &rec.diagnostics[0];
        assert_eq!(d.class, ErrorClass::Malformed);
        assert_eq!(d.depth, 1, "error sits under the root");
        assert!(
            (10..15).contains(&d.offset),
            "inside <zz!>, got {}",
            d.offset
        );
        assert!(
            rec.matches.len() >= strict.len().min(1),
            "pattern {pattern}: matches after the corrupt tag survive: {rec:?}"
        );

        // Truncation inside markup: a Truncated diagnostic at end of input.
        let truncated = b"<a><b></b><b";
        let rec = fused.select_bytes_recovering(truncated);
        assert_eq!(
            rec.diagnostics.last().map(|d| d.class),
            Some(ErrorClass::Truncated)
        );
        assert_eq!(rec.diagnostics.last().unwrap().offset, truncated.len());
    }
}

/// Diagnostics are capped, not unbounded: a document that is one long
/// error storm reports 64 and counts the rest.
#[test]
fn recovery_diagnostics_are_capped() {
    let g = Alphabet::of_chars("ab");
    let fused = CompiledQuery::compile(&compile_regex("a.*b", &g).unwrap())
        .fused(&g)
        .unwrap();
    let mut doc = Vec::new();
    for _ in 0..200 {
        // `z` is not in the query alphabet, so every tag is malformed.
        doc.extend_from_slice(b"<z>x");
    }
    let rec = fused.select_bytes_recovering(&doc);
    assert_eq!(rec.diagnostics.len(), 64);
    assert_eq!(rec.suppressed, 200 - 64);
    assert!(rec.matches.is_empty());
}

/// The cap is configurable through [`Limits::with_max_diagnostics`], with
/// exact behaviour at the boundary: a storm of `cap` errors fills the
/// buffer with nothing suppressed, and one more error suppresses exactly
/// one — for the default cap and for custom caps on either side of it.
#[test]
fn recovery_diagnostics_cap_is_configurable_with_exact_boundaries() {
    use stackless_streamed_trees::core::DEFAULT_MAX_DIAGNOSTICS;

    let g = Alphabet::of_chars("ab");
    let fused = CompiledQuery::compile(&compile_regex("a.*b", &g).unwrap())
        .fused(&g)
        .unwrap();
    let storm = |errors: usize| -> Vec<u8> {
        let mut doc = Vec::new();
        for _ in 0..errors {
            doc.extend_from_slice(b"<z>x");
        }
        doc
    };

    for cap in [1, 3, DEFAULT_MAX_DIAGNOSTICS, 200] {
        let limits = Limits::none().with_max_diagnostics(cap);
        // Exactly at the cap: every diagnostic retained, none suppressed.
        let at = fused.select_bytes_recovering_limited(&storm(cap), &limits);
        assert_eq!(at.diagnostics.len(), cap, "cap {cap}: at-cap storm");
        assert_eq!(at.suppressed, 0, "cap {cap}: nothing suppressed at cap");
        // One over: the buffer stays at the cap and one error is counted.
        let over = fused.select_bytes_recovering_limited(&storm(cap + 1), &limits);
        assert_eq!(over.diagnostics.len(), cap, "cap {cap}: buffer is capped");
        assert_eq!(over.suppressed, 1, "cap {cap}: exactly one suppressed");
        // Retained diagnostics are the *first* cap errors, in order.
        assert!(over
            .diagnostics
            .windows(2)
            .all(|w| w[0].offset < w[1].offset));
    }

    // The default-cap path and an explicit default-sized cap agree.
    let doc = storm(DEFAULT_MAX_DIAGNOSTICS + 1);
    let implicit = fused.select_bytes_recovering(&doc);
    let explicit = fused.select_bytes_recovering_limited(
        &doc,
        &Limits::none().with_max_diagnostics(DEFAULT_MAX_DIAGNOSTICS),
    );
    assert_eq!(implicit.diagnostics.len(), explicit.diagnostics.len());
    assert_eq!(implicit.suppressed, explicit.suppressed);
}
