//! End-to-end tests of the batch-by-document multi-query scheduler:
//! grouped requests over one document are served by one shared
//! [`QuerySet`] pass, per-query attribution splits back out exactly as N
//! independent single-query runs would, and grouping respects its
//! eligibility rules (same fingerprint, no custom limits).

use std::sync::Arc;
use std::time::Duration;

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

/// Chaos that stalls (never kills) every segment, used to hold the one
/// worker busy while multi-query requests pile up behind it.  The stall
/// stays below the stall timeout, so the grouped work, which takes the
/// same stalls, is slowed but never failed over.
fn stall_only(ms: u64) -> ChaosConfig {
    ChaosConfig {
        seed: 7,
        panic_per_mille: 0,
        stall_per_mille: 1000,
        corrupt_per_mille: 0,
        stall_ms: ms,
    }
}

/// Occupies the single worker long enough for subsequent submissions to
/// queue up, by submitting a chaos-stalled single-query request.
fn submit_blocker(
    serve: &ServeRuntime,
    alphabet: &Alphabet,
) -> stackless_streamed_trees::serve::JobId {
    let q = Query::compile("a.*", alphabet).expect("pattern compiles");
    let spec =
        stackless_streamed_trees::serve::JobSpec::new(Arc::new(q.into_fused()), mixed_doc(4));
    let id = serve.submit(spec).expect("blocker admitted");
    // Give the dispatcher time to hand the blocker to the worker; the
    // injected stall then keeps that worker busy far longer than the
    // submissions below take.
    std::thread::sleep(Duration::from_millis(50));
    id
}

#[test]
fn grouped_requests_share_one_pass_with_exact_attribution() {
    let g = Alphabet::of_chars("ab");
    let doc = Arc::new(mixed_doc(40));
    let sets: [&[&str]; 4] = [
        &["a.*b", "ab"],
        &[".*a.*b"],
        &[".*ab", "a.*", ".*"],
        &["b.*a", "a.*b"],
    ];
    let serve = ServeRuntime::start(
        ServeConfig::default()
            .with_workers(1)
            .with_chaos(stall_only(400)),
    );
    let blocker = submit_blocker(&serve, &g);
    let ids: Vec<_> = sets
        .iter()
        .map(|ps| {
            let spec = MultiJobSpec::new(
                ps.iter().map(|p| p.to_string()).collect(),
                g.clone(),
                doc.clone(),
            );
            serve.submit_multi(spec).expect("multi admitted")
        })
        .collect();
    serve.wait(blocker).expect("blocker finishes");
    for (ps, id) in sets.iter().zip(&ids) {
        let report = serve.wait_multi(*id).expect("known job");
        let got = report.results.expect("shared pass succeeds");
        assert_eq!(got, oracle(ps, &g, &doc), "attribution for {ps:?}");
        assert_eq!(report.attempts, 1);
        assert_eq!(report.group_size, 4, "all four requests share one pass");
        assert!(report.failures.is_empty());
    }
    // The plain report of a grouped request is the union of its own
    // per-query match sets, flagged as the shared path.
    let lead = serve.wait(ids[0]).expect("known job");
    let mut union: Vec<usize> = oracle(sets[0], &g, &doc).concat();
    union.sort_unstable();
    union.dedup();
    assert_eq!(lead.result.unwrap(), union);
    assert_eq!(lead.path, PathTaken::Shared);
    let stats = serve.shutdown();
    assert_eq!(stats.multi_groups, 1, "one shared pass served the batch");
    assert_eq!(stats.multi_group_members, 4);
    assert_eq!(stats.completed, 5);
    assert_eq!(stats.failed + stats.shed + stats.rejected, 0);
}

#[test]
fn different_documents_and_budgets_do_not_group() {
    let g = Alphabet::of_chars("ab");
    let serve = ServeRuntime::start(
        ServeConfig::default()
            .with_workers(1)
            .with_chaos(stall_only(400)),
    );
    let blocker = submit_blocker(&serve, &g);
    let doc_a = Arc::new(mixed_doc(10));
    let doc_b = Arc::new(mixed_doc(11));
    let patterns = vec!["a.*b".to_string(), ".*a".to_string()];
    let id_a = serve
        .submit_multi(MultiJobSpec::new(
            patterns.clone(),
            g.clone(),
            doc_a.clone(),
        ))
        .unwrap();
    let id_b = serve
        .submit_multi(MultiJobSpec::new(
            patterns.clone(),
            g.clone(),
            doc_b.clone(),
        ))
        .unwrap();
    // Same document, but a different product budget changes the
    // fingerprint, so this one runs its own pass too.
    let id_c = serve
        .submit_multi(
            MultiJobSpec::new(patterns.clone(), g.clone(), doc_a.clone()).with_product_budget(0),
        )
        .unwrap();
    serve.wait(blocker).unwrap();
    for (id, doc) in [(id_a, &doc_a), (id_b, &doc_b), (id_c, &doc_a)] {
        let report = serve.wait_multi(id).unwrap();
        let ps: Vec<&str> = patterns.iter().map(|s| s.as_str()).collect();
        assert_eq!(report.results.unwrap(), oracle(&ps, &g, doc));
        assert_eq!(report.group_size, 1, "each request runs its own pass");
    }
    let stats = serve.shutdown();
    assert_eq!(stats.multi_groups, 3);
    assert_eq!(stats.multi_group_members, 3);
}

#[test]
fn custom_limits_opt_out_of_grouping_but_still_apply() {
    let g = Alphabet::of_chars("ab");
    let doc = Arc::new(mixed_doc(12));
    let patterns = vec!["a.*".to_string(), ".*b".to_string()];
    let serve = ServeRuntime::start(ServeConfig::default().with_workers(2));
    // A request whose limits it cannot satisfy fails with the engine's
    // typed limit error instead of grouping with its peers.
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
    assert_eq!(report.group_size, 0, "no shared pass served it");
    serve.shutdown();
}

#[test]
fn grouping_never_adopts_a_member_that_would_miss_its_deadline() {
    let g = Alphabet::of_chars("ab");
    let doc = Arc::new(mixed_doc(200));
    // A throughput hint of 1 byte/ms makes the projected shared-pass
    // finish for this ~3.7 KB document land seconds out, so a member
    // with a tighter deadline must be left out of the group — adopting
    // it would guarantee a missed deadline the moment the pool slows to
    // the advertised rate.
    let serve = ServeRuntime::start(
        ServeConfig::default()
            .with_workers(1)
            .with_group_rate_hint(1)
            .with_chaos(stall_only(300)),
    );
    let blocker = submit_blocker(&serve, &g);
    let mk = |p: &str| MultiJobSpec::new(vec![p.to_string()], g.clone(), doc.clone());
    let a = serve.submit_multi(mk("a.*b")).expect("admitted");
    let b = serve
        .submit_multi(mk(".*a.*b").with_deadline(Duration::from_millis(2000)))
        .expect("admitted");
    let c = serve
        .submit_multi(mk(".*ab").with_deadline(Duration::from_secs(600)))
        .expect("admitted");
    serve.wait(blocker).expect("blocker finishes");

    let ra = serve.wait_multi(a).expect("known job");
    let rb = serve.wait_multi(b).expect("known job");
    let rc = serve.wait_multi(c).expect("known job");
    assert_eq!(ra.group_size, 2, "generous peers still share the pass");
    assert_eq!(rc.group_size, 2, "a far-out deadline is no obstacle");
    assert_eq!(
        rb.group_size, 1,
        "a member whose deadline expires before the projected finish \
         must run its own pass, not gamble on the group's"
    );
    // Exclusion is scheduling-only: everyone still answers correctly.
    assert_eq!(ra.results.expect("succeeds"), oracle(&["a.*b"], &g, &doc));
    assert_eq!(rb.results.expect("succeeds"), oracle(&[".*a.*b"], &g, &doc));
    assert_eq!(rc.results.expect("succeeds"), oracle(&[".*ab"], &g, &doc));

    // The first pass measured the *real* throughput (orders of magnitude
    // above the pessimistic hint), so an identically tight deadline is
    // now projected to survive and gets adopted.
    let blocker2 = submit_blocker(&serve, &g);
    let d = serve.submit_multi(mk("a.*b")).expect("admitted");
    let e = serve
        .submit_multi(mk(".*a.*b").with_deadline(Duration::from_millis(2000)))
        .expect("admitted");
    serve.wait(blocker2).expect("blocker finishes");
    let rd = serve.wait_multi(d).expect("known job");
    let re = serve.wait_multi(e).expect("known job");
    assert_eq!(
        (rd.group_size, re.group_size),
        (2, 2),
        "a measured pass rate must replace the pessimistic hint"
    );

    let stats = serve.shutdown();
    assert_eq!(stats.completed, 7, "two blockers + five grouped requests");
    assert_eq!(stats.failed + stats.shed + stats.rejected, 0);
    assert_eq!(
        stats.deadline_expired, 0,
        "nobody actually missed a deadline"
    );
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
    // Custom limits keep the request out of any group: it always runs
    // alone, so every retry resumes over the same member list.
    let spec = MultiJobSpec::new(
        patterns.iter().map(|p| p.to_string()).collect(),
        g.clone(),
        doc.clone(),
    )
    .with_limits(Limits::default().with_max_bytes(1 << 20));
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
