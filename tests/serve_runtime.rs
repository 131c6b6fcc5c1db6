//! End-to-end tests of the supervised serving runtime: checkpoint
//! failover under injected worker panics and stalls, admission control
//! (shedding and budget rejection), the session path for every pass,
//! and typed terminal errors.
//!
//! The recovery contract under test: a request either completes with
//! exactly the match set an uninterrupted run produces, or fails with a
//! typed error that names why — no silent corruption, no lost sessions.

use std::sync::Arc;
use std::time::Duration;

use stackless_streamed_trees::automata::{compile_regex, Alphabet};
use stackless_streamed_trees::core::engine::FusedQuery;
use stackless_streamed_trees::core::planner::CompiledQuery;
use stackless_streamed_trees::core::session::Limits;
use stackless_streamed_trees::core::QuerySet;
use stackless_streamed_trees::serve::{
    ChaosConfig, FailureCause, Fault, JobSpec, PathTaken, Plan, ServeConfig, ServeError,
    ServeRuntime, ServiceBudget,
};

/// Compiles `pattern` over `alphabet` down to the fused byte engine.
fn fused(pattern: &str, alphabet: &str) -> Arc<FusedQuery> {
    let g = Alphabet::of_chars(alphabet);
    let dfa = compile_regex(pattern, &g).expect("pattern compiles");
    Arc::new(CompiledQuery::compile(&dfa).fused(&g).expect("fusable"))
}

/// A well-formed document with `n` matchable leaves: `<a><b/>…<b/></a>`.
fn doc_with_leaves(n: usize) -> Vec<u8> {
    let mut d = b"<a>".to_vec();
    for _ in 0..n {
        d.extend_from_slice(b"<b></b>");
    }
    d.extend_from_slice(b"</a>");
    d
}

/// Chaos with only the selected fault family armed.
fn only(seed: u64, panic: u16, stall: u16, corrupt: u16, stall_ms: u64) -> ChaosConfig {
    ChaosConfig {
        seed,
        panic_per_mille: panic,
        stall_per_mille: stall,
        corrupt_per_mille: corrupt,
        stall_ms,
    }
}

#[test]
fn clean_pool_serves_many_requests_correctly() {
    let q = fused("a.*b", "ab");
    let serve = ServeRuntime::start(ServeConfig::default().with_workers(3));
    let docs: Vec<Vec<u8>> = (1..=24).map(doc_with_leaves).collect();
    let ids: Vec<_> = docs
        .iter()
        .map(|d| serve.submit(JobSpec::new(q.clone(), d.clone())).unwrap())
        .collect();
    for (d, id) in docs.iter().zip(ids) {
        let report = serve.wait(id).unwrap();
        let clean = q.select_bytes(d).unwrap();
        assert_eq!(report.result.as_ref().unwrap(), &clean);
        assert_eq!(report.attempts, 1);
        assert!(report.failures.is_empty());
    }
    let stats = serve.shutdown();
    assert_eq!(stats.submitted, 24);
    assert_eq!(stats.completed, 24);
    assert_eq!(stats.failed + stats.shed + stats.rejected + stats.panics, 0);
}

#[test]
fn panic_failover_resumes_from_checkpoints_with_oracle_equal_matches() {
    let q = fused("a.*b", "ab");
    // Small cadence so every document spans many segments, and a panic
    // rate high enough that most requests lose at least one worker.
    let cfg = ServeConfig::default()
        .with_workers(2)
        .with_checkpoint_every(16)
        .with_max_retries(25)
        .with_chaos(only(0xFA11, 60, 0, 0, 0));
    let serve = ServeRuntime::start(cfg);
    let docs: Vec<Vec<u8>> = (8..=28).map(doc_with_leaves).collect();
    let ids: Vec<_> = docs
        .iter()
        .map(|d| serve.submit(JobSpec::new(q.clone(), d.clone())).unwrap())
        .collect();
    let mut total_attempts = 0u32;
    let mut total_resumes = 0u32;
    for (d, id) in docs.iter().zip(ids) {
        let report = serve.wait(id).unwrap();
        let clean = q.select_bytes(d).unwrap();
        assert_eq!(
            report.result.as_ref().unwrap(),
            &clean,
            "failover must reproduce the clean run (attempts {}, resumes {})",
            report.attempts,
            report.resumes
        );
        for f in &report.failures {
            assert!(matches!(f, FailureCause::WorkerPanic { .. }), "{f}");
        }
        total_attempts += report.attempts;
        total_resumes += report.resumes;
    }
    let stats = serve.shutdown();
    assert!(stats.panics > 0, "chaos rate should have killed workers");
    assert!(
        total_resumes > 0,
        "at least one retry must resume mid-document from a checkpoint \
         (attempts {total_attempts}, panics {})",
        stats.panics
    );
    assert!(
        stats.workers_spawned > 2,
        "dead workers must be replaced (spawned {})",
        stats.workers_spawned
    );
    assert_eq!(
        stats.failed, 0,
        "retry budget of 25 should absorb all chaos"
    );
}

#[test]
fn stall_detection_abandons_the_worker_and_recovers() {
    let q = fused("a.*b", "ab");
    let cfg = ServeConfig::default()
        .with_workers(2)
        .with_checkpoint_every(16)
        .with_max_retries(30)
        .with_stall_timeout(Duration::from_millis(40))
        // Stalls sleep 250ms >> the 40ms deadline, so the supervisor
        // always wins the race and the outcome is deterministic.
        .with_chaos(only(0x57A11, 0, 80, 0, 250));
    let serve = ServeRuntime::start(cfg);
    let docs: Vec<Vec<u8>> = (10..=18).map(doc_with_leaves).collect();
    let ids: Vec<_> = docs
        .iter()
        .map(|d| serve.submit(JobSpec::new(q.clone(), d.clone())).unwrap())
        .collect();
    for (d, id) in docs.iter().zip(ids) {
        let report = serve.wait(id).unwrap();
        let clean = q.select_bytes(d).unwrap();
        assert_eq!(report.result.as_ref().unwrap(), &clean);
        for f in &report.failures {
            assert!(matches!(f, FailureCause::WorkerStall { .. }), "{f}");
        }
    }
    let stats = serve.shutdown();
    assert!(
        stats.stalls > 0,
        "stall rate should have tripped the deadline"
    );
    assert_eq!(stats.failed, 0);
}

#[test]
fn corrupt_segments_exhaust_retries_into_a_typed_terminal_error() {
    let q = fused("a.*b", "ab");
    // Every segment is corrupt: every attempt fails immediately, so the
    // request deterministically burns 1 + max_retries attempts.
    let cfg = ServeConfig::default()
        .with_workers(1)
        .with_checkpoint_every(8)
        .with_max_retries(3)
        .with_chaos(only(1, 0, 0, 1000, 0));
    let serve = ServeRuntime::start(cfg);
    let id = serve
        .submit(JobSpec::new(q.clone(), doc_with_leaves(6)))
        .unwrap();
    let report = serve.wait(id).unwrap();
    match &report.result {
        Err(ServeError::Failed { attempts, last }) => {
            assert_eq!(*attempts, 4, "1 initial + 3 retries");
            assert!(matches!(last, FailureCause::SegmentCorrupted { offset: 0 }));
        }
        other => panic!("expected typed terminal failure, got {other:?}"),
    }
    assert_eq!(
        report.result.unwrap_err().class(),
        "failed(segment-corrupted)"
    );
    assert_eq!(report.failures.len(), 4);
    let stats = serve.shutdown();
    assert_eq!((stats.failed, stats.completed), (1, 0));
}

#[test]
fn limit_breaches_fail_fast_without_retries() {
    let q = fused("a.*b", "ab");
    // The service-level budget caps every inherited session at 64 bytes;
    // the document is far larger, so the breach is deterministic — and
    // being a typed engine limit, it must not burn retries.
    let budget = ServiceBudget {
        max_in_flight_bytes: None,
        session_limits: Limits::none().with_max_bytes(64),
    };
    let cfg = ServeConfig::default()
        .with_max_retries(5)
        .with_budget(budget);
    let serve = ServeRuntime::start(cfg);
    let id = serve
        .submit(JobSpec::new(q.clone(), doc_with_leaves(40)))
        .unwrap();
    let report = serve.wait(id).unwrap();
    match &report.result {
        Err(e @ ServeError::Failed { attempts, .. }) => {
            assert_eq!(*attempts, 1, "limit breaches are not retryable");
            assert_eq!(e.class(), "failed(engine-limit)");
        }
        other => panic!("expected limit failure, got {other:?}"),
    }
    // A per-job override loosens the inherited budget back to unbounded.
    let id = serve
        .submit(JobSpec::new(q.clone(), doc_with_leaves(40)).with_limits(Limits::none()))
        .unwrap();
    let report = serve.wait(id).unwrap();
    assert_eq!(
        report.result.unwrap(),
        q.select_bytes(&doc_with_leaves(40)).unwrap()
    );
    serve.shutdown();
}

#[test]
fn parse_errors_are_typed_after_the_retry_budget() {
    let q = fused("a.*b", "ab");
    let cfg = ServeConfig::default().with_max_retries(2);
    let serve = ServeRuntime::start(cfg);
    // A truncated document: the byte lexer rejects it deterministically.
    let id = serve
        .submit(JobSpec::new(q, b"<a><b></b".to_vec()))
        .unwrap();
    let report = serve.wait(id).unwrap();
    let err = report.result.unwrap_err();
    assert_eq!(err.class(), "failed(engine-parse)");
    serve.shutdown();
}

#[test]
fn full_queue_sheds_with_a_typed_error_and_loses_no_admitted_session() {
    let q = fused("a.*b", "ab");
    // One worker, tiny queue, slow jobs (big documents, small cadence):
    // most submissions must shed, and every admitted one must finish.
    let cfg = ServeConfig::default()
        .with_workers(1)
        .with_queue_capacity(2)
        .with_checkpoint_every(64)
        .with_chaos(only(7, 0, 0, 0, 0)); // force the (slow) session path
    let serve = ServeRuntime::start(cfg);
    let doc = doc_with_leaves(4000);
    let clean = q.select_bytes(&doc).unwrap();
    let mut admitted = Vec::new();
    let mut shed = 0usize;
    for _ in 0..40 {
        match serve.submit(JobSpec::new(q.clone(), doc.clone())) {
            Ok(id) => admitted.push(id),
            Err(ServeError::Overloaded { capacity, .. }) => {
                assert_eq!(capacity, 2);
                shed += 1;
            }
            Err(other) => panic!("unexpected admission error: {other}"),
        }
    }
    assert!(
        shed > 0,
        "40 instant submissions into a 2-deep queue must shed"
    );
    assert!(!admitted.is_empty());
    for id in &admitted {
        let report = serve.wait(*id).unwrap();
        assert_eq!(report.result.as_ref().unwrap(), &clean);
    }
    let stats = serve.shutdown();
    assert_eq!(stats.shed as usize, shed);
    assert_eq!(stats.completed as usize, admitted.len());
}

#[test]
fn byte_budget_rejects_oversized_submissions_deterministically() {
    let q = fused("a.*b", "ab");
    let budget = ServiceBudget {
        max_in_flight_bytes: Some(100),
        session_limits: Limits::none(),
    };
    let serve = ServeRuntime::start(ServeConfig::default().with_budget(budget));
    let small = doc_with_leaves(2); // 17 bytes, fits
    let big = doc_with_leaves(50); // 357 bytes, can never fit
    let id = serve
        .submit(JobSpec::new(q.clone(), small.clone()))
        .unwrap();
    match serve.submit(JobSpec::new(q.clone(), big.clone())) {
        Err(e @ ServeError::Rejected { .. }) => assert_eq!(e.class(), "rejected"),
        other => panic!("expected byte-budget rejection, got {other:?}"),
    }
    assert_eq!(
        serve.wait(id).unwrap().result.unwrap(),
        q.select_bytes(&small).unwrap()
    );
    let stats = serve.shutdown();
    assert_eq!(stats.rejected, 1);
}

#[test]
fn plain_large_registerless_jobs_checkpoint_and_resume_on_the_session_path() {
    let q = fused("a.*b", "ab");
    assert!(q.byte_dfa().is_some(), "registerless pattern expected");
    // Plain, unbounded jobs on documents above 64 KiB: every pass runs
    // the session path, checkpointing once per cadence.
    let cadence = 8 << 10;
    let cfg = ServeConfig::default()
        .with_workers(2)
        .with_checkpoint_every(cadence)
        .with_max_retries(25)
        .with_chaos(only(0x5E55, 100, 0, 0, 0));
    let serve = ServeRuntime::start(cfg);
    let docs: Vec<Vec<u8>> = (0..4).map(|i| doc_with_leaves(10_000 + 97 * i)).collect();
    let ids: Vec<_> = docs
        .iter()
        .map(|d| {
            assert!(d.len() > 64 << 10);
            let spec = JobSpec::new(q.clone(), d.clone()).with_limits(Limits::none());
            serve.submit(spec).unwrap()
        })
        .collect();
    let mut total_resumes = 0u32;
    for (d, id) in docs.iter().zip(ids) {
        let report = serve.wait(id).unwrap();
        assert_eq!(report.result.as_ref().unwrap(), &q.select_bytes(d).unwrap());
        assert_eq!(report.path, PathTaken::Session);
        total_resumes += report.resumes;
    }
    let stats = serve.shutdown();
    let segments: u64 = docs.iter().map(|d| d.len().div_ceil(cadence) as u64).sum();
    assert!(stats.panics > 0, "chaos rate should have killed workers");
    assert!(total_resumes > 0, "a retry must resume from a checkpoint");
    assert!(
        stats.checkpoints >= segments,
        "one checkpoint per cadence: {} minted, {segments} segments",
        stats.checkpoints
    );
    assert_eq!(stats.failed, 0);
}

/// Fake time for [`stall_detection_runs_on_the_injected_clock`]:
/// advanced explicitly by the test, never by wall-clock progress.
static FAKE_NOW_MS: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);

fn fake_clock() -> Duration {
    Duration::from_millis(FAKE_NOW_MS.load(std::sync::atomic::Ordering::SeqCst))
}

#[test]
fn stall_detection_runs_on_the_injected_clock() {
    use std::sync::atomic::{AtomicBool, Ordering};

    let q = fused("a.*b", "ab");
    // Every segment stalls, and the injected sleep (ten real minutes)
    // dwarfs the test budget: the one-hour stall deadline can only
    // expire through the injected clock, which the test drives forward
    // in hour-scale jumps.  Real time plays no part in the outcome.
    let budget = ServiceBudget {
        max_in_flight_bytes: None,
        session_limits: Limits::none().with_clock(fake_clock),
    };
    let cfg = ServeConfig::default()
        .with_workers(2)
        .with_checkpoint_every(8)
        .with_max_retries(1)
        .with_stall_timeout(Duration::from_secs(3600))
        .with_chaos(only(1, 0, 1000, 0, 600_000))
        .with_budget(budget);
    let serve = ServeRuntime::start(cfg);
    let id = serve.submit(JobSpec::new(q, doc_with_leaves(6))).unwrap();

    let stop = Arc::new(AtomicBool::new(false));
    let ticker = {
        let stop = stop.clone();
        std::thread::spawn(move || {
            while !stop.load(Ordering::SeqCst) {
                FAKE_NOW_MS.fetch_add(600_000, Ordering::SeqCst);
                std::thread::sleep(Duration::from_millis(2));
            }
        })
    };
    let waiter = std::thread::spawn(move || {
        let report = serve.wait(id).expect("id was issued by this runtime");
        (report, serve.shutdown())
    });

    // Watchdog: if the supervisor consulted the real clock instead of
    // the injected one, nothing resolves for an hour — fail fast.
    let deadline = std::time::Instant::now() + Duration::from_secs(30);
    while !waiter.is_finished() {
        assert!(
            std::time::Instant::now() < deadline,
            "stall never detected: supervisor is not on the injected clock"
        );
        std::thread::sleep(Duration::from_millis(5));
    }
    let (report, stats) = waiter.join().unwrap();
    stop.store(true, Ordering::SeqCst);
    ticker.join().unwrap();

    match &report.result {
        Err(ServeError::Failed { attempts, last }) => {
            assert_eq!(*attempts, 2, "1 initial + 1 retry, both stalled");
            assert!(matches!(last, FailureCause::WorkerStall { .. }), "{last}");
        }
        other => panic!("expected stall-exhausted failure, got {other:?}"),
    }
    for f in &report.failures {
        assert!(matches!(f, FailureCause::WorkerStall { .. }), "{f}");
    }
    assert_eq!(stats.stalls, 2);
    assert!(stats.workers_spawned >= 4, "both stalled slots replaced");
}

#[test]
fn shutdown_drains_and_then_refuses_new_work() {
    let q = fused("a.*b", "ab");
    let serve = ServeRuntime::start(ServeConfig::default());
    let doc = doc_with_leaves(10);
    let id = serve.submit(JobSpec::new(q.clone(), doc.clone())).unwrap();
    // Waiting first keeps the test deterministic; shutdown must still
    // report the completed request in its final counters.
    let report = serve.wait(id).unwrap();
    assert!(report.result.is_ok());
    let stats = serve.shutdown();
    assert_eq!((stats.submitted, stats.completed), (1, 1));

    let serve = ServeRuntime::start(ServeConfig::default());
    serve.begin_drain();
    match serve.submit(JobSpec::new(q, doc)) {
        Err(ServeError::ShuttingDown) => {}
        other => panic!("expected ShuttingDown, got {other:?}"),
    }
    serve.shutdown();
}

#[test]
fn zero_deadline_expires_in_queue_with_a_typed_error() {
    let q = fused("a.*b", "ab");
    let serve = ServeRuntime::start(ServeConfig::default().with_workers(1));
    // A deadline of zero is due the instant a worker claims the entry,
    // whatever the timing — the deadline check runs before any pass
    // starts.
    let id = serve
        .submit(JobSpec::new(q, doc_with_leaves(3)).with_deadline(Duration::ZERO))
        .unwrap();
    let report = serve.wait(id).unwrap();
    match &report.result {
        Err(ServeError::DeadlineExpired { .. }) => {}
        other => panic!("expected DeadlineExpired, got {other:?}"),
    }
    let stats = serve.shutdown();
    assert_eq!(stats.deadline_expired, 1);
    assert_eq!(stats.completed, 0);
}

#[test]
fn zero_deadline_expires_multi_requests_too() {
    let g = Alphabet::of_chars("ab");
    let set = QuerySet::compile(&["a.*b", ".*a"], &g).unwrap();
    let serve = ServeRuntime::start(ServeConfig::default().with_workers(1));
    let spec =
        JobSpec::new(Plan::Set(Arc::new(set)), doc_with_leaves(3)).with_deadline(Duration::ZERO);
    let id = serve.submit(spec).unwrap();
    let report = serve.wait(id).unwrap();
    assert!(report.per_query.is_empty());
    match &report.result {
        Err(ServeError::DeadlineExpired { .. }) => {}
        other => panic!("expected DeadlineExpired, got {other:?}"),
    }
    let stats = serve.shutdown();
    assert_eq!(stats.deadline_expired, 1);
}

#[test]
fn generous_deadline_does_not_expire() {
    let q = fused("a.*b", "ab");
    let serve = ServeRuntime::start(ServeConfig::default().with_workers(2));
    let doc = doc_with_leaves(5);
    let id = serve
        .submit(JobSpec::new(q.clone(), doc.clone()).with_deadline(Duration::from_secs(60)))
        .unwrap();
    let report = serve.wait(id).unwrap();
    assert_eq!(
        report.result.as_ref().unwrap(),
        &q.select_bytes(&doc).unwrap()
    );
    let stats = serve.shutdown();
    assert_eq!(stats.deadline_expired, 0);
    assert_eq!(stats.completed, 1);
}

#[test]
fn deadline_expiry_has_a_stable_class_and_wire_code() {
    use stackless_streamed_trees::serve::codes;
    let e = ServeError::DeadlineExpired { waited_ms: 7 };
    assert_eq!(e.class(), "deadline-expired");
    assert_eq!(e.wire_code(), codes::DEADLINE_EXPIRED);
    assert!(e.to_string().contains("7 ms"));
}

#[test]
fn streamed_jobs_deliver_exactly_once_across_failover() {
    use stackless_streamed_trees::core::emit::{EmissionCursor, StreamedMatch};

    let q = fused("a.*b", "ab");
    // Aggressive panic chaos with a small checkpoint cadence: most
    // requests lose at least one worker mid-stream and resume from a
    // checkpoint against a non-empty ledger.
    let cfg = ServeConfig::default()
        .with_workers(2)
        .with_checkpoint_every(16)
        .with_max_retries(25)
        .with_chaos(only(0xE817, 60, 0, 0, 0));
    let serve = ServeRuntime::start(cfg);
    let docs: Vec<Vec<u8>> = (8..=28).map(doc_with_leaves).collect();
    let ids: Vec<_> = docs
        .iter()
        .map(|d| {
            serve
                .submit(JobSpec::new(q.clone(), d.clone()).with_stream())
                .unwrap()
        })
        .collect();

    // Poll the live delivery ledgers while the pool churns: a consumer
    // must only ever see its stream *extend* — never shrink, never
    // rewrite what was already handed over.
    let mut seen: Vec<Vec<StreamedMatch>> = vec![Vec::new(); ids.len()];
    let mut done = vec![false; ids.len()];
    while !done.iter().all(|d| *d) {
        for (i, id) in ids.iter().enumerate() {
            if done[i] {
                continue;
            }
            // Completion first, then the tail: a job that ends between
            // the two reads still has its last matches polled.
            let finished = serve.try_report(*id).is_some();
            let tail = serve.emitted_prefix(*id, seen[i].len()).unwrap();
            seen[i].extend(tail);
            done[i] = finished;
        }
        std::thread::sleep(Duration::from_millis(1));
    }

    let mut any_suppressed = 0u64;
    for ((d, id), live) in docs.iter().zip(&ids).zip(&seen) {
        let report = serve.wait(*id).unwrap();
        let clean = q.select_bytes(d).unwrap();
        let final_ids: Vec<usize> = report.emitted.iter().map(|m| m.node).collect();
        assert_eq!(
            report.result.as_ref().unwrap(),
            &clean,
            "failover must reproduce the clean run"
        );
        assert_eq!(final_ids, clean, "delivered stream ≠ final matches");
        assert_eq!(
            &report.emitted, live,
            "live polling saw a different stream than the final ledger"
        );
        assert!(
            report.emitted.windows(2).all(|w| w[0].offset < w[1].offset),
            "delivered offsets must be strictly increasing"
        );
        // The ledger is append-only and verified: its digest is exactly
        // what an independent fold over the delivered stream computes.
        let _ = EmissionCursor::over(&report.emitted);
        any_suppressed += report.suppressed;
    }
    let stats = serve.shutdown();
    assert!(stats.panics > 0, "chaos rate should have killed workers");
    assert_eq!(stats.failed, 0, "retry budget should absorb all chaos");
    assert_eq!(
        stats.emission_suppressed, any_suppressed,
        "per-job suppression must sum to the pool total"
    );
    assert!(
        stats.emitted > 0,
        "streamed jobs must actually deliver through the ledger"
    );
}

#[test]
fn queued_deadline_expires_while_every_worker_is_busy() {
    let q = fused("a.*b", "ab");
    // The one worker sleeps 400 ms inside the long job's only segment;
    // the stall deadline is far away, so it stays busy, not abandoned.
    let cfg = ServeConfig::default()
        .with_workers(1)
        .with_stall_timeout(Duration::from_secs(30))
        .with_chaos(only(7, 0, 1000, 0, 400));
    let serve = ServeRuntime::start(cfg);
    let doc = doc_with_leaves(10);
    let long = serve
        .submit(JobSpec::new(q.clone(), doc.clone()).with_stream())
        .unwrap();
    let submitted = std::time::Instant::now();
    let short = serve
        .submit(JobSpec::new(q.clone(), doc.clone()).with_deadline(Duration::from_millis(5)))
        .unwrap();
    let report = serve.wait(short).unwrap();
    let waited = submitted.elapsed();
    assert!(
        matches!(report.result, Err(ServeError::DeadlineExpired { .. })),
        "expected DeadlineExpired, got {:?}",
        report.result
    );
    assert!(
        serve.try_report(long).is_none(),
        "the deadline must expire while the long job still holds the worker"
    );
    assert!(
        waited < Duration::from_millis(200),
        "expiry took {waited:?}"
    );
    let long = serve.wait(long).unwrap();
    assert_eq!(long.result.unwrap(), q.select_bytes(&doc).unwrap());
    let stats = serve.shutdown();
    assert_eq!((stats.deadline_expired, stats.completed), (1, 1));
}

/// Fake time for [`retry_waits_out_its_backoff_on_the_injected_clock`]
/// (its own, so the stall test's ticker cannot move it).
static BACKOFF_NOW_MS: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(1_000);

fn backoff_clock() -> Duration {
    Duration::from_millis(BACKOFF_NOW_MS.load(std::sync::atomic::Ordering::SeqCst))
}

#[test]
fn retry_waits_out_its_backoff_on_the_injected_clock() {
    use std::sync::atomic::Ordering;

    let q = fused("a.*b", "ab");
    let doc = doc_with_leaves(12);
    let segments = doc.len().div_ceil(16) as u64;
    // A chaos seed whose rolls corrupt the first attempt's first segment
    // and leave every segment of the second attempt clean (the first
    // request a runtime admits is job 1).
    let chaos = (0..)
        .map(|seed| only(seed, 0, 0, 500, 0))
        .find(|c| {
            c.roll(1, 1, 0) == Fault::Corrupt
                && (0..segments).all(|s| c.roll(1, 2, s) == Fault::None)
        })
        .unwrap();
    let budget = ServiceBudget {
        max_in_flight_bytes: None,
        session_limits: Limits::none().with_clock(backoff_clock),
    };
    let cfg = ServeConfig::default()
        .with_workers(1)
        .with_checkpoint_every(16)
        .with_backoff_base(Duration::from_millis(50))
        .with_chaos(chaos)
        .with_budget(budget);
    let serve = ServeRuntime::start(cfg);
    let id = serve.submit(JobSpec::new(q.clone(), doc.clone())).unwrap();

    let deadline = std::time::Instant::now() + Duration::from_secs(30);
    while serve.stats().retries == 0 {
        assert!(
            std::time::Instant::now() < deadline,
            "first attempt never failed"
        );
        std::thread::sleep(Duration::from_millis(1));
    }
    // The clock is frozen, so the 50 ms backoff never ends, however long
    // real time runs.
    std::thread::sleep(Duration::from_millis(150));
    assert!(
        serve.try_report(id).is_none(),
        "retry ran before its backoff"
    );
    assert_eq!(serve.stats().corruptions, 1);

    BACKOFF_NOW_MS.fetch_add(51, Ordering::SeqCst);
    let report = serve.wait(id).unwrap();
    assert_eq!(report.result.unwrap(), q.select_bytes(&doc).unwrap());
    assert_eq!(report.attempts, 2);
    assert!(matches!(
        report.failures.as_slice(),
        [FailureCause::SegmentCorrupted { offset: 0 }]
    ));
    serve.shutdown();
}
