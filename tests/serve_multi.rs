//! End-to-end tests of multi-query requests on the serving runtime:
//! each request runs one [`QuerySet`] pass of its own, per-query
//! attribution comes out exactly as N independent single-query runs
//! would, custom limits apply, and a query-set pass resumes mid-document
//! after a fault.

use std::sync::Arc;

use stackless_streamed_trees::automata::Alphabet;
use stackless_streamed_trees::core::session::Limits;
use stackless_streamed_trees::core::Query;
use stackless_streamed_trees::serve::{
    ChaosConfig, MultiJobSpec, PathTaken, ServeConfig, ServeError, ServeRuntime,
};

/// A well-formed document over {a, b}: nested runs with both labels.
fn mixed_doc(n: usize) -> Vec<u8> {
    let mut d = Vec::new();
    for i in 0..n {
        if i % 3 == 0 {
            d.extend_from_slice(b"<a><b></b></a>");
        } else {
            d.extend_from_slice(b"<b><a><a></a></a></b>");
        }
    }
    d
}

/// What N independent single-query runs produce — the attribution oracle.
fn oracle(patterns: &[&str], alphabet: &Alphabet, doc: &[u8]) -> Vec<Vec<usize>> {
    patterns
        .iter()
        .map(|p| {
            Query::compile(p, alphabet)
                .expect("pattern compiles")
                .select(doc)
                .expect("clean document")
        })
        .collect()
}

#[test]
fn query_set_requests_get_exact_attribution() {
    let g = Alphabet::of_chars("ab");
    let doc = Arc::new(mixed_doc(40));
    let other = Arc::new(mixed_doc(11));
    let sets: [(&[&str], &Arc<Vec<u8>>); 5] = [
        (&["a.*b", "ab"], &doc),
        (&[".*a.*b"], &doc),
        (&[".*ab", "a.*", ".*"], &doc),
        (&["b.*a", "a.*b"], &doc),
        (&["a.*b", "ab"], &other),
    ];
    let serve = ServeRuntime::start(ServeConfig::default().with_workers(2));
    let ids: Vec<_> = sets
        .iter()
        .map(|(ps, doc)| {
            let patterns = ps.iter().map(|p| p.to_string()).collect();
            let spec = MultiJobSpec::new(patterns, g.clone(), Arc::clone(doc));
            serve.submit_multi(spec).expect("multi admitted")
        })
        .collect();
    for ((ps, doc), id) in sets.iter().zip(&ids) {
        let report = serve.wait_multi(*id).expect("known job");
        let got = report.results.expect("the pass succeeds");
        assert_eq!(got, oracle(ps, &g, doc), "attribution for {ps:?}");
        assert_eq!(report.attempts, 1);
        assert!(report.failures.is_empty());
        // The plain report is the union of the request's own per-query
        // match sets.
        let plain = serve.wait(*id).expect("known job");
        let mut union: Vec<usize> = got.concat();
        union.sort_unstable();
        union.dedup();
        assert_eq!(plain.result.unwrap(), union);
        assert_eq!(plain.path, PathTaken::Session);
    }
    let stats = serve.shutdown();
    assert_eq!(stats.completed, sets.len() as u64);
    assert_eq!(stats.failed + stats.shed + stats.rejected, 0);
}

#[test]
fn custom_limits_opt_out_of_grouping_but_still_apply() {
    let g = Alphabet::of_chars("ab");
    let doc = Arc::new(mixed_doc(12));
    let patterns = vec!["a.*".to_string(), ".*b".to_string()];
    let serve = ServeRuntime::start(ServeConfig::default().with_workers(2));
    // A request whose limits it cannot satisfy fails with the engine's
    // typed limit error.
    let strict = MultiJobSpec::new(patterns.clone(), g.clone(), doc.clone())
        .with_limits(Limits::default().with_max_bytes(8));
    let id = serve.submit_multi(strict).unwrap();
    let report = serve.wait_multi(id).unwrap();
    match report.results {
        Err(ServeError::Failed { .. }) => {}
        other => panic!("expected terminal limit failure, got {other:?}"),
    }
    // The same request with satisfiable limits completes correctly.
    let ok = MultiJobSpec::new(patterns.clone(), g.clone(), doc.clone())
        .with_limits(Limits::default().with_max_bytes(1 << 20));
    let id = serve.submit_multi(ok).unwrap();
    let report = serve.wait_multi(id).unwrap();
    let ps: Vec<&str> = patterns.iter().map(|s| s.as_str()).collect();
    assert_eq!(report.results.unwrap(), oracle(&ps, &g, &doc));
    serve.shutdown();
}

#[test]
fn invalid_patterns_are_rejected_at_admission() {
    let g = Alphabet::of_chars("ab");
    let serve = ServeRuntime::start(ServeConfig::default().with_workers(1));
    let bad = MultiJobSpec::new(
        vec!["a.*".to_string(), "(".to_string()],
        g.clone(),
        mixed_doc(2),
    );
    match serve.submit_multi(bad) {
        Err(ServeError::Rejected { reason }) => {
            assert!(
                reason.contains("pattern 1"),
                "reason names the pattern: {reason}"
            );
        }
        other => panic!("expected admission rejection, got {other:?}"),
    }
    let stats = serve.shutdown();
    assert_eq!(stats.rejected, 1);
    assert_eq!(stats.submitted, 0);

    // One pattern past the member cap: refused before any is planned.
    let serve = ServeRuntime::start(ServeConfig::default().with_workers(1));
    let many = (1..=257).map(|n| "a".repeat(n)).collect();
    match serve.submit_multi(MultiJobSpec::new(many, g, mixed_doc(2))) {
        Err(ServeError::Rejected { reason }) => {
            assert!(reason.contains("257"), "reason names the count: {reason}")
        }
        other => panic!("expected admission rejection, got {other:?}"),
    }
    let stats = serve.shutdown();
    assert_eq!((stats.rejected, stats.submitted), (1, 0));
}

#[test]
fn single_query_requests_answer_wait_multi_with_one_entry() {
    let g = Alphabet::of_chars("ab");
    let doc = mixed_doc(6);
    let q = Query::compile("a.*b", &g).unwrap();
    let expected = q.select(&doc).unwrap();
    let serve = ServeRuntime::start(ServeConfig::default().with_workers(1));
    let id = serve
        .submit(stackless_streamed_trees::serve::JobSpec::new(
            Arc::new(q.into_fused()),
            doc,
        ))
        .unwrap();
    let report = serve.wait_multi(id).unwrap();
    assert_eq!(report.results.unwrap(), vec![expected]);
    serve.shutdown();
}

#[test]
fn query_set_passes_resume_mid_document_after_a_worker_panic() {
    let g = Alphabet::of_chars("ab");
    let doc = Arc::new(mixed_doc(60));
    let patterns = [".*a.*b", "a.*", ".*b", "b.*a"];
    // 1 120 bytes in 64-byte segments: 18 chaos rolls per attempt.  Seed
    // 3 panics job 1's first attempt at segment 6 and its second at
    // segment 11, then lets the third finish: two failovers, each after
    // a stored checkpoint, well inside the retry budget.
    let chaos = ChaosConfig {
        seed: 3,
        panic_per_mille: 60,
        stall_per_mille: 0,
        corrupt_per_mille: 0,
        stall_ms: 0,
    };
    let serve = ServeRuntime::start(
        ServeConfig::default()
            .with_workers(1)
            .with_checkpoint_every(64)
            .with_chaos(chaos),
    );
    let spec = MultiJobSpec::new(
        patterns.iter().map(|p| p.to_string()).collect(),
        g.clone(),
        doc.clone(),
    );
    let id = serve.submit_multi(spec).expect("admitted");
    let report = serve.wait_multi(id).expect("known job");
    assert_eq!(
        report.results.expect("finishes within its retries"),
        oracle(&patterns, &g, &doc),
        "prefix before the checkpoint + resumed tail = the clean run"
    );
    assert!(report.attempts >= 2, "the pass met a panic");
    let stats = serve.shutdown();
    assert!(stats.panics >= 1);
    assert!(stats.resumes >= 1, "a failover resumed mid-document");
    assert_eq!(stats.completed, 1);
}
