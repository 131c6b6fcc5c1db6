//! End-to-end tests of query-set requests on the serving runtime: each
//! [`Plan::Set`] job runs one [`QuerySet`] pass of its own, per-query
//! attribution comes out exactly as N independent single-query runs
//! would, custom limits apply, a query-set pass resumes mid-document
//! after a fault, and a streamed set is refused at admission.

use std::sync::Arc;

use stackless_streamed_trees::automata::Alphabet;
use stackless_streamed_trees::core::session::Limits;
use stackless_streamed_trees::core::{Query, QuerySet};
use stackless_streamed_trees::serve::{
    ChaosConfig, JobSpec, PathTaken, Plan, ServeConfig, ServeError, ServeRuntime,
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

/// A [`Plan::Set`] of `patterns`.
fn set(patterns: &[&str], alphabet: &Alphabet) -> Plan {
    Plan::Set(Arc::new(
        QuerySet::compile(patterns, alphabet).expect("patterns compile"),
    ))
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
            let spec = JobSpec::new(set(ps, &g), Arc::clone(doc));
            serve.submit(spec).expect("set admitted")
        })
        .collect();
    for ((ps, doc), id) in sets.iter().zip(&ids) {
        let report = serve.wait(*id).expect("known job");
        assert_eq!(
            report.per_query,
            oracle(ps, &g, doc),
            "attribution for {ps:?}"
        );
        assert_eq!(report.attempts, 1);
        assert!(report.failures.is_empty());
        // The match set is the union of the request's own per-query
        // match sets.
        let mut union: Vec<usize> = report.per_query.concat();
        union.sort_unstable();
        union.dedup();
        assert_eq!(report.result.unwrap(), union);
        assert_eq!(report.path, PathTaken::Session);
    }
    let stats = serve.shutdown();
    assert_eq!(stats.completed, sets.len() as u64);
    assert_eq!(stats.failed + stats.shed + stats.rejected, 0);
}

#[test]
fn custom_limits_opt_out_of_grouping_but_still_apply() {
    let g = Alphabet::of_chars("ab");
    let doc = Arc::new(mixed_doc(12));
    let patterns = ["a.*", ".*b"];
    let serve = ServeRuntime::start(ServeConfig::default().with_workers(2));
    // A request whose limits it cannot satisfy fails with the engine's
    // typed limit error.
    let strict = JobSpec::new(set(&patterns, &g), doc.clone())
        .with_limits(Limits::default().with_max_bytes(8));
    let id = serve.submit(strict).unwrap();
    let report = serve.wait(id).unwrap();
    match report.result {
        Err(ServeError::Failed { .. }) => {}
        other => panic!("expected terminal limit failure, got {other:?}"),
    }
    assert!(report.per_query.is_empty());
    // The same request with satisfiable limits completes correctly.
    let ok = JobSpec::new(set(&patterns, &g), doc.clone())
        .with_limits(Limits::default().with_max_bytes(1 << 20));
    let id = serve.submit(ok).unwrap();
    let report = serve.wait(id).unwrap();
    assert!(report.result.is_ok());
    assert_eq!(report.per_query, oracle(&patterns, &g, &doc));
    serve.shutdown();
}

#[test]
fn single_query_reports_have_no_per_query_lists() {
    let g = Alphabet::of_chars("ab");
    let doc = mixed_doc(6);
    let q = Query::compile("a.*b", &g).unwrap();
    let expected = q.select(&doc).unwrap();
    let serve = ServeRuntime::start(ServeConfig::default().with_workers(1));
    let id = serve
        .submit(JobSpec::new(Arc::new(q.into_fused()), doc))
        .unwrap();
    let report = serve.wait(id).unwrap();
    assert_eq!(report.result.unwrap(), expected);
    assert!(report.per_query.is_empty());
    serve.shutdown();
}

#[test]
fn streamed_query_sets_are_rejected_at_admission() {
    let g = Alphabet::of_chars("ab");
    let serve = ServeRuntime::start(ServeConfig::default().with_workers(1));
    let spec = JobSpec::new(set(&["a.*", ".*b"], &g), mixed_doc(2)).with_stream();
    match serve.submit(spec) {
        Err(ServeError::Rejected { reason }) => {
            assert!(
                reason.contains("query set"),
                "reason names the set: {reason}"
            )
        }
        other => panic!("expected admission rejection, got {other:?}"),
    }
    let stats = serve.shutdown();
    assert_eq!((stats.rejected, stats.submitted), (1, 0));
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
    let id = serve
        .submit(JobSpec::new(set(&patterns, &g), doc.clone()))
        .expect("admitted");
    let report = serve.wait(id).expect("known job");
    assert!(report.result.is_ok(), "finishes within its retries");
    assert_eq!(
        report.per_query,
        oracle(&patterns, &g, &doc),
        "prefix before the checkpoint + resumed tail = the clean run"
    );
    assert!(report.attempts >= 2, "the pass met a panic");
    let stats = serve.shutdown();
    assert!(stats.panics >= 1);
    assert!(stats.resumes >= 1, "a failover resumed mid-document");
    assert_eq!(stats.completed, 1);
}
