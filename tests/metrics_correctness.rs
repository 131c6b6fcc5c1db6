//! Metrics-correctness differential suite.
//!
//! Observability must *observe*: every number the registry exports has to
//! equal a ground truth computed without it, and attaching a disabled
//! handle must leave engine outputs bitwise identical.  Three angles:
//!
//! 1. **Corpus differential** — run the conformance generator's corpus
//!    through instrumented sessions and check the counter sums (bytes
//!    fed, nodes opened, matches emitted, sessions started/finished)
//!    against the DOM oracle and the document lengths.
//! 2. **Soak mirror** — run a chaos soak with a handle attached and check
//!    every `serve_*_total` counter against the runtime's own
//!    [`ServeStats`] and the report's typed outcomes, number for number.
//! 3. **Prometheus round-trip** — a populated snapshot must survive
//!    `to_prometheus` → `parse_prometheus` exactly.
//!
//! Request latencies are recorded in nanoseconds on the injected clock,
//! so a sub-millisecond request lands in a nonzero log2 bucket.

use stackless_streamed_trees::baseline::dom;
use stackless_streamed_trees::conform::gen::{case_rng, gen_case, GenConfig};
use stackless_streamed_trees::prelude::*;
use stackless_streamed_trees::serve::{
    run_soak, JobSpec, RequestOutcome, ServeConfig, ServeRuntime, ServiceBudget, SoakConfig,
};
use stackless_streamed_trees::trees::xml::Scanner;

const SEED: u64 = 0x0B5C0DE;
const CASES: u64 = 160;

/// Generates case `i` of the fixed corpus and compiles its query, or
/// `None` when the pattern has no byte-level engine.
fn corpus_case(i: u64) -> Option<(Query, Dfa, Vec<u8>, String)> {
    let mut rng = case_rng(SEED, i);
    let (case, _) = gen_case(&mut rng, &GenConfig::default());
    let g = Alphabet::of_chars(&case.alphabet);
    let dfa = compile_regex(&case.pattern, &g).expect("generator emits compilable patterns");
    let query = Query::from_dfa(&dfa, &g).ok()?;
    Some((query, dfa, case.doc, case.alphabet))
}

#[test]
fn corpus_counter_sums_match_the_dom_oracle() {
    let obs = ObsHandle::new();
    let limits = Limits::none().with_obs(obs.clone());

    let mut runs = 0u64;
    let mut expect_bytes = 0u64;
    let mut expect_nodes = 0u64;
    let mut expect_matches = 0u64;

    for i in 0..CASES {
        let Some((query, dfa, doc, alphabet)) = corpus_case(i) else {
            continue;
        };
        let g = Alphabet::of_chars(&alphabet);
        // Ground truth needs a well-formed document the oracle accepts;
        // the mutated ~25% of the corpus is covered by the bitwise test.
        let Ok(tags) = Scanner::new(&doc, &g).collect::<Result<Vec<_>, _>>() else {
            continue;
        };
        let Ok(oracle) = dom::evaluate(&dfa, &tags) else {
            continue;
        };

        let outcome = query
            .run_session(&doc, &limits)
            .expect("oracle-accepted document must stream");
        assert_eq!(outcome.matches, oracle.selected, "case {i}");
        assert_eq!(outcome.nodes, oracle.n_nodes, "case {i}");

        runs += 1;
        expect_bytes += doc.len() as u64;
        expect_nodes += oracle.n_nodes as u64;
        expect_matches += oracle.selected.len() as u64;
    }
    assert!(runs >= 40, "corpus too thin to be a differential ({runs})");

    let snap = obs.snapshot();
    assert_eq!(snap.counter("session_started_total"), Some(runs));
    assert_eq!(snap.counter("session_finished_total"), Some(runs));
    assert_eq!(snap.counter("session_bytes_total"), Some(expect_bytes));
    assert_eq!(snap.counter("session_nodes_total"), Some(expect_nodes));
    assert_eq!(snap.counter("session_matches_total"), Some(expect_matches));
    // Registered eagerly by the first session, but never incremented:
    // unlimited runs must not breach.
    assert_eq!(snap.counter("session_limit_breaches_total"), Some(0));
}

#[test]
fn disabled_handle_leaves_outputs_bitwise_identical() {
    // The whole corpus, malformed mutants included: a plain run, a run
    // under a disabled handle, and a run under an enabled handle must
    // produce byte-for-byte the same Result — matches and errors alike.
    let enabled = Limits::none().with_obs(ObsHandle::new());
    let disabled = Limits::none().with_obs(ObsHandle::disabled());
    let plain = Limits::none();

    let mut compared = 0u64;
    for i in 0..CASES {
        let Some((query, _, doc, _)) = corpus_case(i) else {
            continue;
        };
        let bare = format!("{:?}", query.select_limited(&doc, &plain));
        let noop = format!("{:?}", query.select_limited(&doc, &disabled));
        let live = format!("{:?}", query.select_limited(&doc, &enabled));
        assert_eq!(bare, noop, "case {i}: no-op observability changed output");
        assert_eq!(bare, live, "case {i}: live observability changed output");
        compared += 1;
    }
    assert!(compared >= 100, "corpus too thin ({compared})");
}

#[test]
fn soak_snapshot_mirrors_typed_outcomes_exactly() {
    let obs = ObsHandle::new();
    let cfg = SoakConfig::new(0x5EED_0B50)
        .with_requests(64)
        .with_workers(3)
        .with_obs(obs.clone());
    let report = run_soak(&cfg);
    assert!(
        report.divergences.is_empty(),
        "soak diverged: {:?}",
        report.divergences
    );

    // Every serve counter must equal the runtime's own atomic tally.
    let snap = obs.snapshot();
    let s = &report.stats;
    let mirror: &[(&str, u64)] = &[
        ("serve_submitted_total", s.submitted),
        ("serve_completed_total", s.completed),
        ("serve_failed_total", s.failed),
        ("serve_shed_total", s.shed),
        ("serve_rejected_total", s.rejected),
        ("serve_retries_total", s.retries),
        ("serve_resumes_total", s.resumes),
        ("serve_panics_total", s.panics),
        ("serve_stalls_total", s.stalls),
        ("serve_corruptions_total", s.corruptions),
        ("serve_degraded_total", s.degraded),
        ("serve_checkpoints_total", s.checkpoints),
        ("serve_workers_spawned_total", s.workers_spawned),
        ("serve_emissions_total", s.emitted),
        ("serve_emission_suppressed_total", s.emission_suppressed),
    ];
    for (name, stat) in mirror {
        assert_eq!(
            snap.counter(name).unwrap_or(0),
            *stat,
            "{name} disagrees with ServeStats"
        );
    }

    // And the stats themselves must agree with the report's typed
    // per-request outcomes, so the chain snapshot == stats == outcomes
    // closes.
    let matched = report
        .outcomes
        .iter()
        .filter(|o| matches!(o, RequestOutcome::Matches(_)))
        .count() as u64;
    let failed = report
        .outcomes
        .iter()
        .filter(|o| matches!(o, RequestOutcome::Failed(_)))
        .count() as u64;
    let skipped = report
        .outcomes
        .iter()
        .filter(|o| matches!(o, RequestOutcome::Skipped))
        .count() as u64;
    assert_eq!(snap.counter("serve_completed_total").unwrap_or(0), matched);
    assert_eq!(snap.counter("serve_failed_total").unwrap_or(0), failed);
    assert_eq!(
        snap.counter("serve_submitted_total").unwrap_or(0),
        cfg.requests - skipped
    );

    // The drained pool holds no queued work and no in-flight bytes.
    assert_eq!(snap.gauge("serve_queue_depth"), Some(0));
    assert_eq!(snap.gauge("serve_in_flight_bytes"), Some(0));

    // Latency/attempt histograms saw every finished request.
    let finished = matched + failed;
    let attempts = snap
        .histogram("serve_request_attempts")
        .expect("attempt histogram populated");
    assert_eq!(attempts.count, finished);
    let latency = snap
        .histogram("serve_request_latency_ns")
        .expect("latency histogram populated");
    assert_eq!(latency.count, finished);
}

/// A clock that moves 100 ns per read: a timed span is a count of clock
/// reads, far below a millisecond for one small request.
static STEPPED_NS: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);

fn stepped_clock() -> std::time::Duration {
    let ns = STEPPED_NS.fetch_add(100, std::sync::atomic::Ordering::SeqCst);
    std::time::Duration::from_nanos(ns)
}

#[test]
fn sub_millisecond_requests_land_in_a_nonzero_latency_bucket() {
    let obs = ObsHandle::new();
    let limits = Limits::none().with_clock(stepped_clock);
    let cfg = ServeConfig::default()
        .with_workers(1)
        .with_budget(ServiceBudget::default().with_session_limits(limits))
        .with_obs(obs.clone());
    let serve = ServeRuntime::start(cfg);
    let g = Alphabet::of_chars("ab");
    let dfa = compile_regex(".*a", &g).unwrap();
    let fused = std::sync::Arc::new(CompiledQuery::compile(&dfa).fused(&g).unwrap());
    let id = serve
        .submit(JobSpec::new(fused, b"<a><b></b></a>".to_vec()))
        .unwrap();
    assert_eq!(serve.wait(id).unwrap().result.unwrap(), vec![0]);
    serve.shutdown();

    let latency = obs
        .snapshot()
        .histogram("serve_request_latency_ns")
        .cloned()
        .expect("latency histogram populated");
    assert_eq!(latency.count, 1);
    assert!(
        latency.sum > 0 && latency.sum < 1_000_000,
        "a handful of 100 ns clock steps, got {} ns",
        latency.sum
    );
    assert_eq!(
        latency.buckets[0], 0,
        "a sub-millisecond request read as zero"
    );
}

#[test]
fn prometheus_export_round_trips_a_populated_snapshot() {
    // Populate all three metric families through real engine runs, then
    // demand an exact round-trip through the text exposition format.
    let obs = ObsHandle::new();
    let cfg = SoakConfig::new(0xF00D)
        .with_requests(24)
        .with_workers(2)
        .with_fault_rates(0, 0, 0)
        .with_obs(obs.clone());
    let report = run_soak(&cfg);
    assert!(report.divergences.is_empty());

    let snap = obs.snapshot();
    assert!(!snap.counters.is_empty(), "soak must populate counters");
    assert!(!snap.histograms.is_empty(), "soak must populate histograms");
    let reparsed = Snapshot::parse_prometheus(&snap.to_prometheus()).expect("parses");
    assert_eq!(reparsed, snap, "Prometheus text format must be lossless");

    // JSON export is syntactically sound and carries the same counters.
    let json = snap.to_json();
    for name in snap.counters.keys() {
        assert!(json.contains(&format!("\"{name}\"")), "{name} missing");
    }
}
