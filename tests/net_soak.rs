//! The network chaos soak: a seeded hostile-client storm (mid-stream
//! disconnects, torn frames, read-deadline stalls, duplicate uploads)
//! against a live loopback server, checked against the DOM oracle and
//! the uninterrupted clean run.
//!
//! The headline invariant is *capacity independence*: fault rolls are
//! pure in `(seed, request, attempt, segment)` and requests are driven
//! sequentially, so the per-request outcome vector must be bitwise
//! identical whatever connection capacity the server runs with.

use stackless_streamed_trees::core::session::Limits;
use stackless_streamed_trees::obs::ObsHandle;
use stackless_streamed_trees::serve::{
    run_net_soak, NetClient, NetConfig, NetResponse, NetServer, NetSoakConfig, ServiceBudget,
};

const SEED: u64 = 0xC0FFEE;

#[test]
fn chaos_soak_holds_the_contract_and_exercises_every_defense() {
    let report = run_net_soak(&NetSoakConfig::new(SEED));
    assert!(
        report.ok(),
        "contract violations:\n{}",
        report.reproducer(SEED)
    );
    // The run must actually exercise the machinery it certifies: chaos
    // that never trips a defense proves nothing.
    assert!(
        report.completed > 0,
        "no request ever completed: {report:?}"
    );
    assert!(report.chaos_retries > 0, "no fault ever fired: {report:?}");
    assert!(report.resends > 0, "no duplicate upload played: {report:?}");
    assert!(
        report.stats.read_timeouts > 0,
        "no stall ever hit the read deadline: {}",
        report.stats
    );
    assert!(
        report.stats.rejected > 0,
        "the oversized probe never tripped admission: {}",
        report.stats
    );
    assert!(
        report.stats.checkpoints > 0,
        "no in-flight session ever checkpointed: {}",
        report.stats
    );
    assert!(
        report.cache.hits > 0,
        "the plan cache never hit: {:?}",
        report.cache
    );
    assert_eq!(
        report.stats.in_flight_bytes, 0,
        "budget bytes leaked through the chaos: {}",
        report.stats
    );
}

#[test]
fn soak_outcomes_are_identical_across_server_capacities() {
    let one = run_net_soak(&NetSoakConfig::new(SEED).with_connections(1));
    let four = run_net_soak(&NetSoakConfig::new(SEED).with_connections(4));
    assert!(one.ok(), "{}", one.reproducer(SEED));
    assert!(four.ok(), "{}", four.reproducer(SEED));
    assert_eq!(
        one.outcomes, four.outcomes,
        "outcomes depend on connection capacity"
    );
}

#[test]
fn soak_counters_are_exported_through_obs() {
    let obs = ObsHandle::new();
    let report = run_net_soak(&NetSoakConfig::new(SEED).with_obs(obs.clone()));
    assert!(report.ok(), "{}", report.reproducer(SEED));

    let snap = obs.snapshot();
    let counter = |name: &str| *snap.counters.get(name).unwrap_or(&0);
    // The plan-cache hit rate and the timeout/shed counters are the
    // acceptance surface of the robustness layer: they must be exported
    // and (where the soak exercises them) nonzero.
    assert!(counter("plan_cache_hits_total") > 0, "{:?}", snap.counters);
    assert!(counter("plan_cache_misses_total") > 0);
    assert!(counter("net_read_timeouts_total") > 0);
    assert!(counter("net_rejected_total") > 0);
    assert!(counter("net_requests_total") > 0);
    assert!(counter("net_completed_total") > 0);
    assert!(counter("net_checkpoints_total") > 0);
    // Exported even when this run never trips them.
    assert!(snap.counters.contains_key("net_shed_total"));
    assert!(snap.counters.contains_key("net_slow_clients_total"));
    assert!(snap.counters.contains_key("net_write_timeouts_total"));
    assert!(
        snap.histograms.contains_key("net_request_latency_ns"),
        "latency histogram missing: {:?}",
        snap.histograms.keys()
    );
    assert!(snap.histograms.contains_key("net_request_doc_bytes"));
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
    let cfg = NetConfig::default()
        .with_budget(ServiceBudget::default().with_session_limits(limits))
        .with_obs(obs.clone());
    let server = NetServer::bind("127.0.0.1:0", cfg).unwrap();
    let mut client = NetClient::connect(&server.local_addr().to_string()).unwrap();
    match client.query(".*a", "a,b", b"<a><b></b></a>", 4).unwrap() {
        NetResponse::Matches(ids) => assert_eq!(ids, vec![0]),
        other => panic!("expected matches, got {other:?}"),
    }
    drop(client);
    server.shutdown();

    let latency = obs
        .snapshot()
        .histogram("net_request_latency_ns")
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
