//! Behavioural tests of the TCP front-end: request round trips
//! (single, multi, keep-alive), the shared compiled-plan cache,
//! connection deadlines, the slow-client watchdog on the injectable
//! clock, backpressure and load shedding against the in-flight byte
//! budget, and graceful drain.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use stackless_streamed_trees::core::session::Limits;
use stackless_streamed_trees::prelude::Query;
use stackless_streamed_trees::serve::{
    codes, NetClient, NetConfig, NetResponse, NetServer, ServiceBudget,
};

use stackless_streamed_trees::automata::Alphabet;
use stackless_streamed_trees::obs::{ObsHandle, TraceEvent};

/// The reference answer for `pattern` over `alphabet` on `doc`.
fn clean(pattern: &str, alphabet: &str, doc: &[u8]) -> Vec<usize> {
    let g = Alphabet::of_chars(alphabet);
    Query::compile(pattern, &g)
        .expect("pattern compiles")
        .select(doc)
        .expect("document parses")
}

#[test]
fn single_query_round_trip_matches_the_clean_run() {
    let server = NetServer::bind("127.0.0.1:0", NetConfig::default()).unwrap();
    let addr = server.local_addr().to_string();
    let doc = b"<a><b></b><b><a></a></b></a>";
    for chunk in [1, 3, 7, doc.len()] {
        let mut c = NetClient::connect(&addr).unwrap();
        let got = c.query(".*a", "a,b", doc, chunk).unwrap();
        assert_eq!(
            got,
            NetResponse::Matches(clean(".*a", "ab", doc)),
            "chunk size {chunk}"
        );
    }
    let stats = server.stats();
    assert_eq!(stats.completed, 4);
    assert_eq!(stats.failed, 0);
    assert_eq!(stats.in_flight_bytes, 0, "budget bytes leaked: {stats}");
}

#[test]
fn multi_query_round_trip_matches_per_pattern_clean_runs() {
    let server = NetServer::bind("127.0.0.1:0", NetConfig::default()).unwrap();
    let addr = server.local_addr().to_string();
    let doc = b"<a><b></b><b><a></a></b></a>";
    let patterns = [".*a", ".*b", "a.*"];
    let mut c = NetClient::connect(&addr).unwrap();
    let got = c.multi_query(&patterns, "a,b", doc, 5).unwrap();
    let want: Vec<Vec<usize>> = patterns.iter().map(|p| clean(p, "ab", doc)).collect();
    assert_eq!(got, NetResponse::MultiMatches(want));
}

#[test]
fn keep_alive_connection_serves_many_requests_and_hits_the_plan_cache() {
    let server = NetServer::bind("127.0.0.1:0", NetConfig::default()).unwrap();
    let addr = server.local_addr().to_string();
    let doc = b"<a><b></b></a>";
    let want = NetResponse::Matches(clean(".*a", "ab", doc));
    let mut c = NetClient::connect(&addr).unwrap();
    for _ in 0..3 {
        assert_eq!(c.query(".*a", "a,b", doc, 4).unwrap(), want);
    }
    // A second connection replaying the same pattern shares the plan.
    let mut c2 = NetClient::connect(&addr).unwrap();
    assert_eq!(c2.query(".*a", "a,b", doc, 4).unwrap(), want);

    let cache = server.plan_cache().stats();
    assert_eq!(cache.misses, 1, "one compile for four requests: {cache:?}");
    assert_eq!(cache.hits, 3);
    assert_eq!(server.stats().completed, 4);
}

#[test]
fn multi_query_members_compile_through_the_plan_cache() {
    let server = NetServer::bind("127.0.0.1:0", NetConfig::default()).unwrap();
    let addr = server.local_addr().to_string();
    let doc = b"<a><b></b><a></a></a>";
    let mut c = NetClient::connect(&addr).unwrap();
    c.query(".*a", "a,b", doc, 4).unwrap();
    let patterns = [".*a", "b"];
    let want: Vec<Vec<usize>> = patterns.iter().map(|p| clean(p, "ab", doc)).collect();
    let got = c.multi_query(&patterns, "a,b", doc, 4).unwrap();
    assert_eq!(got, NetResponse::MultiMatches(want));
    // `.*a` is planned once for both requests; only `b` is new.
    let cache = server.plan_cache().stats();
    assert_eq!((cache.hits, cache.misses), (1, 2), "{cache:?}");
}

#[test]
fn hostile_patterns_are_refused_before_planning() {
    let server = NetServer::bind("127.0.0.1:0", NetConfig::default()).unwrap();
    let addr = server.local_addr().to_string();
    // 2^11 DFA states: planning it would stall the connection's thread
    // for far longer than a second.
    let hostile = format!(".*a{}", ".".repeat(10));
    let doc = b"<a><b></b></a>";
    let started = std::time::Instant::now();
    let mut c = NetClient::connect(&addr).unwrap();
    match c.query(&hostile, "a,b", doc, 4).unwrap() {
        NetResponse::ServerError { code, .. } => assert_eq!(code, codes::BAD_QUERY),
        other => panic!("expected BAD_QUERY, got {other:?}"),
    }
    let mut c = NetClient::connect(&addr).unwrap();
    match c.multi_query(&[".*a", &hostile], "a,b", doc, 4).unwrap() {
        NetResponse::ServerError { code, .. } => assert_eq!(code, codes::BAD_QUERY),
        other => panic!("expected BAD_QUERY, got {other:?}"),
    }
    // One pattern past the member cap: refused before any is planned.
    let many: Vec<String> = (1..=257).map(|n| "a".repeat(n)).collect();
    let mut c = NetClient::connect(&addr).unwrap();
    match c.multi_query(&many, "a,b", doc, 4).unwrap() {
        NetResponse::ServerError { code, .. } => assert_eq!(code, codes::BAD_QUERY),
        other => panic!("expected BAD_QUERY, got {other:?}"),
    }
    let took = started.elapsed();
    assert!(took < Duration::from_secs(1), "refusals took {took:?}");
}

#[test]
fn read_deadline_kills_a_silent_request_with_a_typed_code() {
    let server = NetServer::bind(
        "127.0.0.1:0",
        NetConfig::default().with_timeouts(Duration::from_millis(60), Duration::from_secs(2)),
    )
    .unwrap();
    let addr = server.local_addr().to_string();
    let mut c = NetClient::connect(&addr).unwrap();
    c.send_query(".*a", "a,b").unwrap();
    // ... and then silence: the server must not wait past its deadline.
    match c.read_response().unwrap() {
        NetResponse::ServerError { code, .. } => assert_eq!(code, codes::READ_TIMEOUT),
        other => panic!("expected READ_TIMEOUT, got {other:?}"),
    }
    assert_eq!(server.stats().read_timeouts, 1);
    assert_eq!(server.stats().in_flight_bytes, 0);
}

static SLOW_CLOCK_MS: AtomicU64 = AtomicU64::new(0);

fn slow_clock() -> Duration {
    Duration::from_millis(SLOW_CLOCK_MS.load(Ordering::SeqCst))
}

#[test]
fn slow_client_watchdog_fires_on_the_injected_clock() {
    // The watchdog is pure virtual time: the test advances an injected
    // clock by "five seconds" in an instant, and the trickling upload
    // dies with SLOW_CLIENT without the test ever actually waiting.
    SLOW_CLOCK_MS.store(0, Ordering::SeqCst);
    let server = NetServer::bind(
        "127.0.0.1:0",
        NetConfig::default()
            .with_min_throughput(1000, Duration::from_millis(10))
            .with_budget(
                ServiceBudget::default()
                    .with_session_limits(Limits::default().with_clock(slow_clock)),
            ),
    )
    .unwrap();
    let addr = server.local_addr().to_string();
    let mut c = NetClient::connect(&addr).unwrap();
    c.send_query(".*a", "a,b").unwrap();
    c.send_chunk(b"<a>").unwrap();
    // Let the server open the upload and admit the first chunk while the
    // clock still reads zero.
    std::thread::sleep(Duration::from_millis(150));
    SLOW_CLOCK_MS.store(5000, Ordering::SeqCst);
    // 5 virtual seconds for ~5 bytes is far below the 1000 B/s floor.
    c.send_chunk(b"<b").unwrap();
    match c.read_response().unwrap() {
        NetResponse::ServerError { code, .. } => assert_eq!(code, codes::SLOW_CLIENT),
        other => panic!("expected SLOW_CLIENT, got {other:?}"),
    }
    assert_eq!(server.stats().slow_clients, 1);
    assert_eq!(server.stats().in_flight_bytes, 0);
}

#[test]
fn backpressure_sheds_past_the_byte_budget_and_recovers() {
    // Budget of 100 bytes.  Connection A parks 80 bytes in flight
    // (chunk admitted, no FINISH); connection B's 50-byte chunk cannot
    // fit, waits out shed_wait, and is shed with OVERLOADED.  A then
    // finishes normally: shedding B must not corrupt A.
    let server = NetServer::bind(
        "127.0.0.1:0",
        NetConfig::default()
            .with_budget(ServiceBudget::default().with_max_in_flight_bytes(100))
            .with_shed_wait(Duration::from_millis(80)),
    )
    .unwrap();
    let addr = server.local_addr().to_string();

    let mut doc = b"<a>".to_vec();
    doc.extend_from_slice(&[b'x'; 73]);
    doc.extend_from_slice(b"</a>"); // 80 bytes total
    let mut a = NetClient::connect(&addr).unwrap();
    a.send_query(".*a", "a").unwrap();
    a.send_chunk(&doc).unwrap();
    // Wait until A's bytes are actually charged against the budget.
    let deadline = std::time::Instant::now() + Duration::from_secs(2);
    while server.stats().in_flight_bytes < 80 && std::time::Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(5));
    }
    assert_eq!(server.stats().in_flight_bytes, 80);

    let mut b = NetClient::connect(&addr).unwrap();
    b.send_query(".*a", "a").unwrap();
    b.send_chunk(&[b'y'; 50]).unwrap();
    match b.read_response().unwrap() {
        NetResponse::ServerError { code, .. } => assert_eq!(code, codes::OVERLOADED),
        other => panic!("expected OVERLOADED, got {other:?}"),
    }
    assert_eq!(server.stats().shed, 1);

    a.send_finish().unwrap();
    assert_eq!(
        a.read_response().unwrap(),
        NetResponse::Matches(clean(".*a", "a", &doc))
    );
    assert_eq!(server.stats().in_flight_bytes, 0);
}

#[test]
fn a_chunk_that_can_never_fit_the_budget_is_rejected_outright() {
    let server = NetServer::bind(
        "127.0.0.1:0",
        NetConfig::default().with_budget(ServiceBudget::default().with_max_in_flight_bytes(100)),
    )
    .unwrap();
    let addr = server.local_addr().to_string();
    let mut c = NetClient::connect(&addr).unwrap();
    c.send_query(".*a", "a,b").unwrap();
    c.send_chunk(&[b'x'; 200]).unwrap();
    match c.read_response().unwrap() {
        NetResponse::ServerError { code, .. } => assert_eq!(code, codes::REJECTED),
        other => panic!("expected REJECTED, got {other:?}"),
    }
    assert_eq!(server.stats().rejected, 1);
    assert_eq!(server.stats().in_flight_bytes, 0);
}

#[test]
fn graceful_drain_finishes_in_flight_work_and_refuses_new() {
    let server = NetServer::bind("127.0.0.1:0", NetConfig::default()).unwrap();
    let addr = server.local_addr().to_string();

    // A is mid-request when the drain begins.
    let mut a = NetClient::connect(&addr).unwrap();
    a.send_query(".*a", "a,b").unwrap();
    a.send_chunk(b"<a><b>").unwrap();
    let deadline = std::time::Instant::now() + Duration::from_secs(2);
    while server.stats().requests < 1 && std::time::Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(5));
    }
    server.begin_drain();
    assert!(server.is_draining());

    // New connections are turned away with a typed SHUTTING_DOWN.
    let mut b = NetClient::connect(&addr).unwrap();
    match b.read_response().unwrap() {
        NetResponse::ServerError { code, .. } => assert_eq!(code, codes::SHUTTING_DOWN),
        other => panic!("expected SHUTTING_DOWN, got {other:?}"),
    }

    // A's in-flight request checkpoints and finishes normally.
    a.send_chunk(b"</b></a>").unwrap();
    a.send_finish().unwrap();
    assert_eq!(
        a.read_response().unwrap(),
        NetResponse::Matches(clean(".*a", "ab", b"<a><b></b></a>"))
    );
    // ... but the drained server refuses a *new* request on the same
    // connection.
    match a.read_response().unwrap() {
        NetResponse::ServerError { code, .. } => assert_eq!(code, codes::SHUTTING_DOWN),
        other => panic!("expected SHUTTING_DOWN, got {other:?}"),
    }

    server.shutdown();
    let stats = server.stats();
    assert_eq!(stats.completed, 1);
    assert!(stats.refused >= 1, "{stats}");
    assert_eq!(stats.open, 0);
}

#[test]
fn shutdown_cuts_through_a_connection_blocked_on_its_socket() {
    // A client that opens a request and goes silent is blocked inside
    // the server's socket read; shutdown must not wait for the (long)
    // read deadline.
    let server = NetServer::bind(
        "127.0.0.1:0",
        NetConfig::default()
            .with_timeouts(Duration::from_secs(30), Duration::from_secs(2))
            .with_drain_timeout(Duration::from_millis(100)),
    )
    .unwrap();
    let addr = server.local_addr().to_string();
    let mut c = NetClient::connect(&addr).unwrap();
    c.send_query(".*a", "a,b").unwrap();
    let deadline = std::time::Instant::now() + Duration::from_secs(2);
    while server.stats().requests < 1 && std::time::Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(5));
    }
    let started = std::time::Instant::now();
    server.shutdown();
    assert!(
        started.elapsed() < Duration::from_secs(5),
        "shutdown waited on a dead client: {:?}",
        started.elapsed()
    );
    assert_eq!(server.stats().open, 0);
}

#[test]
fn shutdown_wakes_the_blocking_accept_loop_and_releases_the_port() {
    // The accept loop blocks in `accept`; shutdown must wake it (also
    // when bound to the unspecified address), join it, and so drop the
    // listener well before the drain deadline.
    for bind in ["127.0.0.1:0", "0.0.0.0:0"] {
        let server = NetServer::bind(bind, NetConfig::default()).unwrap();
        let addr = server.local_addr();
        let started = std::time::Instant::now();
        server.shutdown();
        assert!(
            started.elapsed() < Duration::from_secs(2),
            "{bind}: shutdown took {:?}",
            started.elapsed()
        );
        std::net::TcpListener::bind(addr)
            .unwrap_or_else(|e| panic!("{bind}: port still held after shutdown: {e}"));
    }
}

#[test]
fn streaming_round_trip_delivers_verified_parts_before_the_end() {
    let server = NetServer::bind("127.0.0.1:0", NetConfig::default()).unwrap();
    let addr = server.local_addr().to_string();
    let mut doc = Vec::new();
    for _ in 0..12 {
        doc.extend_from_slice(b"<a><b></b></a>");
    }
    let want = clean(".*a", "ab", &doc);
    let chunk = 8usize;
    let total_parts = doc.len().div_ceil(chunk);

    let mut c = NetClient::connect(&addr).unwrap();
    let mut part_no = 0usize;
    let mut first_delivery = None;
    let got = c
        .stream_query(".*a", "a,b", &doc, chunk, |batch| {
            if first_delivery.is_none() && !batch.is_empty() {
                first_delivery = Some(part_no);
            }
            part_no += 1;
        })
        .unwrap();
    match got {
        NetResponse::StreamMatches { ids, parts, cursor } => {
            assert_eq!(ids, want, "streamed answer ≠ clean run");
            assert_eq!(parts.len(), want.len());
            assert_eq!(cursor.count, want.len() as u64);
        }
        other => panic!("expected StreamMatches, got {other:?}"),
    }
    assert_eq!(part_no, total_parts, "one MATCH_PART per chunk, lock step");
    let first = first_delivery.expect("matches were delivered");
    assert!(
        first + 1 < total_parts,
        "earliest emission must beat end-of-document: first delivery in \
         part {first} of {total_parts}"
    );

    // The same connection still answers plain queries: the two reply
    // shapes are per-request, not per-connection.
    assert_eq!(
        c.query(".*a", "a,b", &doc, 16).unwrap(),
        NetResponse::Matches(want)
    );
}

#[test]
fn streaming_request_hits_the_read_deadline_like_any_other() {
    let server = NetServer::bind(
        "127.0.0.1:0",
        NetConfig::default().with_timeouts(Duration::from_millis(60), Duration::from_secs(2)),
    )
    .unwrap();
    let addr = server.local_addr().to_string();
    let mut c = NetClient::connect(&addr).unwrap();
    // Open the stream and then go silent: the lock-step protocol owes
    // the server a chunk, and the read deadline must cut the stream with
    // the same typed code a silent plain query gets.
    c.send_stream_query(".*a", "a,b").unwrap();
    match c.read_response().unwrap() {
        NetResponse::ServerError { code, .. } => assert_eq!(code, codes::READ_TIMEOUT),
        other => panic!("expected READ_TIMEOUT, got {other:?}"),
    }
    assert_eq!(server.stats().read_timeouts, 1);
    assert_eq!(server.stats().in_flight_bytes, 0);
}

/// Sends `.*a` over a document whose second chunk is malformed markup,
/// then more chunks and FINISH, and returns the reply.
fn malformed_upload(c: &mut NetClient) -> NetResponse {
    c.send_query(".*a", "a,b").unwrap();
    for chunk in [&b"<a><b></b>"[..], b"<><a>", b"</a></a>"] {
        c.send_chunk(chunk).unwrap();
    }
    c.send_finish().unwrap();
    c.read_response().unwrap()
}

#[test]
fn a_malformed_document_mid_upload_gets_the_typed_engine_code() {
    let server = NetServer::bind("127.0.0.1:0", NetConfig::default()).unwrap();
    let addr = server.local_addr().to_string();
    let mut c = NetClient::connect(&addr).unwrap();
    // The server drains the rest of the upload, then answers.
    match malformed_upload(&mut c) {
        NetResponse::ServerError { code, .. } => assert_eq!(code, codes::ENGINE),
        other => panic!("expected ENGINE, got {other:?}"),
    }
    let stats = server.stats();
    assert_eq!((stats.requests, stats.failed), (1, 1), "{stats}");
    assert_eq!(stats.in_flight_bytes, 0, "budget bytes leaked: {stats}");
}

#[test]
fn edge_requests_join_the_trace_as_jobs() {
    let obs = ObsHandle::new();
    let server =
        NetServer::bind("127.0.0.1:0", NetConfig::default().with_obs(obs.clone())).unwrap();
    let addr = server.local_addr().to_string();
    let doc = b"<a><b></b><b><a></a></b></a>";
    let mut c = NetClient::connect(&addr).unwrap();
    assert!(matches!(
        c.query(".*a", "a,b", doc, 7).unwrap(),
        NetResponse::Matches(_)
    ));
    let streamed = c.stream_query(".*a", "a,b", doc, 7, |_| {}).unwrap();
    assert!(matches!(streamed, NetResponse::StreamMatches { .. }));
    let mut bad = NetClient::connect(&addr).unwrap();
    assert!(matches!(
        malformed_upload(&mut bad),
        NetResponse::ServerError { .. }
    ));

    let jobs: Vec<u64> = obs
        .trace_records()
        .into_iter()
        .filter_map(|r| match r.event {
            TraceEvent::JobAdmitted { job, .. } => Some(job),
            _ => None,
        })
        .collect();
    assert_eq!(jobs.len(), 3, "one job per request");
    for &job in &jobs[..2] {
        let events: Vec<TraceEvent> = obs
            .trace_for_job(job)
            .into_iter()
            .map(|r| r.event)
            .collect();
        let has = |f: fn(&TraceEvent) -> bool| events.iter().any(f);
        assert!(
            has(|e| matches!(e, TraceEvent::JobAdmitted { .. })),
            "{events:?}"
        );
        assert!(
            has(|e| matches!(e, TraceEvent::SessionStart { .. })),
            "{events:?}"
        );
        assert!(
            has(|e| matches!(e, TraceEvent::SessionFeed { .. })),
            "{events:?}"
        );
        assert!(
            has(|e| matches!(e, TraceEvent::JobCompleted { .. })),
            "{events:?}"
        );
    }
    let failed = TraceEvent::JobFailed {
        job: jobs[2],
        attempts: 1,
        cause: "engine",
    };
    assert!(
        obs.trace_for_job(jobs[2]).iter().any(|r| r.event == failed),
        "{:?}",
        obs.trace_for_job(jobs[2])
    );
}

/// The number of samples in histogram `name`, once it reaches `want` or
/// two seconds pass (a reply's write is timed after the client has it).
fn samples(obs: &ObsHandle, name: &str, want: u64) -> u64 {
    let deadline = std::time::Instant::now() + Duration::from_secs(2);
    loop {
        let got = obs.snapshot().histogram(name).map_or(0, |h| h.count);
        if got >= want || std::time::Instant::now() >= deadline {
            return got;
        }
        std::thread::sleep(Duration::from_millis(2));
    }
}

#[test]
fn frame_reads_and_reply_writes_are_timed_per_frame() {
    let doc = b"<a><b></b><b><a></a></b></a>";
    let chunk = doc.len().div_ceil(3);
    assert_eq!(doc.chunks(chunk).count(), 3);

    // QUERY: 3 CHUNK + FINISH read, one MATCHES written.
    let obs = ObsHandle::new();
    let server =
        NetServer::bind("127.0.0.1:0", NetConfig::default().with_obs(obs.clone())).unwrap();
    let mut c = NetClient::connect(&server.local_addr().to_string()).unwrap();
    let reply = c.query(".*a", "a,b", doc, chunk).unwrap();
    assert_eq!(reply, NetResponse::Matches(clean(".*a", "ab", doc)));
    assert_eq!(samples(&obs, "net_frame_read_ns", 4), 4);
    assert_eq!(samples(&obs, "net_reply_write_ns", 1), 1);

    // STREAMQUERY: the same reads, a MATCH_PART per CHUNK and the final
    // MATCHES written.
    let obs = ObsHandle::new();
    let server =
        NetServer::bind("127.0.0.1:0", NetConfig::default().with_obs(obs.clone())).unwrap();
    let mut c = NetClient::connect(&server.local_addr().to_string()).unwrap();
    let reply = c.stream_query(".*a", "a,b", doc, chunk, |_| {}).unwrap();
    assert!(
        matches!(reply, NetResponse::StreamMatches { .. }),
        "{reply:?}"
    );
    assert_eq!(samples(&obs, "net_frame_read_ns", 4), 4);
    assert_eq!(samples(&obs, "net_reply_write_ns", 4), 4);
}
