//! Tier-1 conformance: replay the committed reproducer corpus, run a
//! fixed-seed differential smoke fuzz, and prove the harness still has
//! teeth by injecting a known engine fault and watching it get caught
//! and shrunk.

use std::path::Path;

use stackless_streamed_trees::conform::{
    corpus::load_corpus, fuzz, fuzz_multi, replay_corpus, replay_multi_corpus, run_case,
    run_multi_case, tree_nodes, Case, FuzzConfig, MultiMutation, Mutation, Outcome,
};

/// Every committed reproducer must replay cleanly: these are inputs on
/// which two engines once disagreed, so any new divergence here is a
/// regression of a previously fixed bug.
#[test]
fn corpus_replays_without_divergence() {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("testdata/corpus");
    let bad = replay_corpus(&dir).expect("corpus parses");
    assert!(
        bad.is_empty(),
        "corpus regressions:\n{}",
        bad.iter()
            .map(|(p, d)| format!("  {}: {d}", p.display()))
            .collect::<Vec<_>>()
            .join("\n")
    );
}

/// The corpus is not allowed to silently disappear — the replay test
/// above is vacuous on an empty directory.
#[test]
fn corpus_has_pinned_entries() {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("testdata/corpus");
    let n = std::fs::read_dir(&dir)
        .expect("testdata/corpus exists")
        .filter_map(|e| e.ok())
        .filter(|e| e.path().extension().is_some_and(|x| x == "case"))
        .count();
    assert!(n >= 2, "expected pinned corpus entries, found {n}");
}

/// Fixed-seed smoke fuzz: a few hundred structure-aware cases through
/// all five evaluation paths.  Deterministic, so a failure here is
/// immediately reproducible with `stql fuzz --seed 42`.
#[test]
fn fixed_seed_smoke_fuzz_is_clean() {
    let cfg = FuzzConfig {
        seed: 42,
        iters: 250,
        ..FuzzConfig::default()
    };
    let report = fuzz(&cfg);
    assert_eq!(report.iters_run, 250);
    assert!(
        report.clean(),
        "divergences: {:?}",
        report
            .failures
            .iter()
            .map(|f| (&f.detail, &f.shrunk))
            .collect::<Vec<_>>()
    );
    // The generator must actually exercise the interesting regions.
    assert!(report.tokenizable > 150, "generator mix drifted");
    assert!(report.well_formed > 100, "generator mix drifted");
}

/// Mutation test: with a classic off-by-one injected into the stack
/// baseline (pushing the successor state instead of the current one),
/// the fuzzer must notice within a modest budget and shrink the witness
/// to a tiny tree.  This is the harness's own end-to-end soundness
/// check: if a real bug of this shape appears, the suite will see it.
#[test]
fn injected_fault_is_caught_and_shrunk() {
    let cfg = FuzzConfig {
        seed: 1,
        iters: 200,
        mutation: Mutation::StackPushesSuccessor,
        max_failures: 1,
        ..FuzzConfig::default()
    };
    let report = fuzz(&cfg);
    let failure = report
        .failures
        .first()
        .expect("injected stack fault must be detected within 200 iterations");
    assert!(
        run_case(&failure.shrunk, Mutation::StackPushesSuccessor)
            .divergence
            .is_some(),
        "shrunk case must still reproduce"
    );
    if let Some(nodes) = tree_nodes(&failure.shrunk) {
        assert!(nodes <= 20, "reproducer not minimal: {nodes} nodes");
    }
}

/// Truncation determinism: every byte-prefix of every corpus document,
/// through every engine path the harness knows (scanner, fused select
/// and count, chunked, session, resumed-at-cuts, event plan, stack and
/// DOM baselines).  A truncated stream must be rejected with the same
/// error class by all byte-level engines — the harness's divergence
/// check enforces the cross-engine agreement — and the verdict must be
/// bit-for-bit deterministic run to run (stable error offsets).
#[test]
fn truncation_at_every_prefix_is_deterministic() {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("testdata/corpus");
    let corpus = load_corpus(&dir).expect("corpus parses");
    assert!(!corpus.is_empty());
    for (path, case) in &corpus {
        for cut in 0..case.doc.len() {
            let truncated = Case {
                doc: case.doc[..cut].to_vec(),
                ..case.clone()
            };
            let outcome = run_case(&truncated, Mutation::None);
            assert!(
                outcome.divergence.is_none(),
                "{} truncated at {cut}: {:?}",
                path.display(),
                outcome.divergence
            );
            for (id, o) in &outcome.outcomes {
                assert!(
                    !matches!(o, Outcome::Panicked(_)),
                    "{} truncated at {cut}: {id} panicked",
                    path.display()
                );
            }
            let again = run_case(&truncated, Mutation::None);
            assert_eq!(
                format!("{:?}", outcome.outcomes),
                format!("{:?}", again.outcomes),
                "{} truncated at {cut}: error offsets must be deterministic",
                path.display()
            );
        }
    }
}

/// Every committed multi-query reproducer must replay cleanly: the
/// shared pass must agree with N independent runs on every pinned
/// pattern set, at every budget of the oracle and both byte paths.
#[test]
fn multi_corpus_replays_without_divergence() {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("testdata/corpus");
    let bad = replay_multi_corpus(&dir).expect("multi corpus parses");
    assert!(
        bad.is_empty(),
        "multi corpus regressions:\n{}",
        bad.iter()
            .map(|(p, d)| format!("  {}: {d}", p.display()))
            .collect::<Vec<_>>()
            .join("\n")
    );
}

/// The multi corpus is not allowed to silently disappear either.
#[test]
fn multi_corpus_has_pinned_entries() {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("testdata/corpus");
    let n = std::fs::read_dir(&dir)
        .expect("testdata/corpus exists")
        .filter_map(|e| e.ok())
        .filter(|e| e.path().extension().is_some_and(|x| x == "mcase"))
        .count();
    assert!(n >= 1, "expected pinned multi corpus entries, found {n}");
}

/// Fixed-seed multi-query smoke fuzz: every case runs one shared
/// QuerySet pass per (tier, byte-path) variant and compares per-query
/// match sets bitwise against N independent single-query runs.
#[test]
fn fixed_seed_multi_query_smoke_fuzz_is_clean() {
    let cfg = FuzzConfig {
        seed: 42,
        iters: 150,
        ..FuzzConfig::default()
    };
    let report = fuzz_multi(&cfg, MultiMutation::None);
    assert_eq!(report.iters_run, 150);
    assert!(
        report.clean(),
        "multi divergences: {:?}",
        report
            .failures
            .iter()
            .map(|f| (&f.detail, &f.shrunk))
            .collect::<Vec<_>>()
    );
}

/// Multi-oracle soundness: an injected attribution fault (a dropped
/// match in the shared pass's answer) must be caught and shrunk.
#[test]
fn injected_multi_attribution_fault_is_caught_and_shrunk() {
    let cfg = FuzzConfig {
        seed: 3,
        iters: 150,
        max_failures: 1,
        ..FuzzConfig::default()
    };
    let report = fuzz_multi(&cfg, MultiMutation::DropLastMatch);
    let failure = report
        .failures
        .first()
        .expect("injected attribution fault must be detected within 150 iterations");
    assert!(
        run_multi_case(&failure.shrunk, MultiMutation::DropLastMatch).is_some(),
        "shrunk case must still reproduce"
    );
    assert!(failure.shrunk.doc.len() <= failure.case.doc.len());
}

/// The harness's reporting on malformed input is part of its contract:
/// byte-level engines must agree on the error class with the scanner.
#[test]
fn malformed_document_is_consistently_rejected() {
    let case = Case {
        pattern: ".*a".to_owned(),
        alphabet: "ab".to_owned(),
        doc: b"<a><b></a>".to_vec(),
        chunk_sizes: vec![1, 3],
    };
    let outcome = run_case(&case, Mutation::None);
    assert!(outcome.divergence.is_none(), "{:?}", outcome.divergence);
    assert!(outcome.tokenizable);
    assert!(!outcome.well_formed);
}

/// Every pinned reproducer must also stream cleanly: the emission
/// frontier gets no exemption on inputs that once broke *any* engine.
#[test]
fn corpus_replays_through_the_streaming_oracle() {
    use stackless_streamed_trees::conform::replay_stream_corpus;
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("testdata/corpus");
    let bad = replay_stream_corpus(&dir).expect("corpus parses");
    assert!(
        bad.is_empty(),
        "streaming regressions:\n{}",
        bad.iter()
            .map(|(p, d)| format!("  {}: {d}", p.display()))
            .collect::<Vec<_>>()
            .join("\n")
    );
}

/// Fixed-seed streaming smoke fuzz, plus the mutation self-test: an
/// injected lost-emission fault must be caught and shrunk, or the
/// streaming oracle has a blind spot.
#[test]
fn streaming_fuzz_is_clean_and_catches_injected_faults() {
    use stackless_streamed_trees::conform::{fuzz_stream, run_stream_case, StreamMutation};
    let cfg = FuzzConfig {
        seed: 42,
        iters: 200,
        ..FuzzConfig::default()
    };
    let report = fuzz_stream(&cfg, StreamMutation::None);
    assert_eq!(report.iters_run, 200);
    assert!(
        report.clean(),
        "divergences: {:?}",
        report
            .failures
            .iter()
            .map(|f| (&f.detail, &f.shrunk))
            .collect::<Vec<_>>()
    );

    let seeded = fuzz_stream(
        &FuzzConfig {
            seed: 42,
            iters: 200,
            max_failures: 1,
            ..FuzzConfig::default()
        },
        StreamMutation::DropFirstEmission,
    );
    let caught = seeded
        .failures
        .first()
        .expect("a dropped emission must diverge somewhere in 200 cases");
    assert!(
        run_stream_case(&caught.shrunk, StreamMutation::DropFirstEmission).is_some(),
        "shrunk case no longer reproduces the injected fault"
    );
    assert!(caught.shrunk.doc.len() <= caught.case.doc.len());
}
