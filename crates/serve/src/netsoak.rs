//! The deterministic *network* chaos-soak harness (feature `chaos`).
//!
//! One soak run: bind a [`NetServer`] on a loopback port, generate a
//! seeded stream of conformance cases, compute each case's *clean*
//! reference (an uninterrupted
//! [`st_core::engine::FusedQuery::select_bytes`] run, plus
//! the DOM oracle on well-formed documents), then play each request
//! over the wire as a hostile client — seeded mid-stream disconnects,
//! torn frames, read-deadline stalls, and duplicate uploads
//! ([`crate::netchaos`]) — and hold the front-end to its contract:
//!
//! * every request that is **accepted and completed** returns a match
//!   set bitwise-equal to the clean run's (and the DOM oracle's, when
//!   the document is well-formed), no matter how many faulted attempts
//!   preceded it, and a duplicate upload of it returns the identical
//!   reply;
//! * every request the server **refuses or kills** dies with a *typed*
//!   wire code from the stable registry ([`crate::error::codes`]) —
//!   never a hang, never a panic, never a garbage frame;
//! * the server outlives all of it: after the chaos the harness runs
//!   one clean request and requires a correct answer.
//!
//! Fault rolls are pure in `(seed, request, attempt, segment)`, and
//! requests are driven sequentially, so [`NetSoakReport::outcomes`] is
//! identical whatever [`NetSoakConfig::connections`] capacity the
//! server runs with — the determinism suite runs the same seed against
//! different capacities and asserts exactly that.

use std::io::Write;
use std::time::Duration;

use st_conform::gen::GenConfig;
use st_core::plancache::PlanCacheStats;
use st_obs::ObsHandle;

use crate::config::ServiceBudget;
use crate::error::codes;
use crate::frame::{FrameError, FrameKind};
use crate::net::{NetClient, NetConfig, NetResponse, NetServer, NetStats};
use crate::netchaos::{NetChaosConfig, NetFault};
use crate::soak::{prepare, Prepared, SoakDivergence};

/// Parameters of one network soak run.  Everything that influences
/// behaviour is here, so `(NetSoakConfig, seed)` fully reproduces a
/// run.
#[derive(Clone, Debug)]
pub struct NetSoakConfig {
    /// Master seed: drives case generation and fault injection.
    pub seed: u64,
    /// Requests to generate and play.
    pub requests: u64,
    /// Server connection capacity (the "pool size" of the front-end).
    /// Outcomes must not depend on it.
    pub connections: usize,
    /// Client chunk size: documents are streamed in frames of this many
    /// bytes, and fault rolls land at these boundaries.
    pub segment_bytes: usize,
    /// Attempts per request (first try + reconnects after faults).
    pub max_attempts: u32,
    /// Server read deadline in milliseconds.  Keep it comfortably below
    /// the injected stall ([`NetChaosConfig::stall_ms`]) so the server
    /// always wins the race and stall outcomes stay deterministic.
    pub read_timeout_ms: u64,
    /// Server in-flight byte budget.  The harness appends one synthetic
    /// request larger than it, which must die with a typed `REJECTED`.
    pub in_flight_budget: usize,
    /// Checkpoint cadence of in-flight sessions, in bytes.
    pub checkpoint_every: usize,
    /// The seeded fault profile.
    pub chaos: NetChaosConfig,
    /// Observability sink the server records into.  Excluded from
    /// equality: it observes the run, it does not shape it.
    pub obs: ObsHandle,
}

/// Two soak profiles are equal when they would *behave* identically:
/// every field except the observability handle.
impl PartialEq for NetSoakConfig {
    fn eq(&self, other: &NetSoakConfig) -> bool {
        self.seed == other.seed
            && self.requests == other.requests
            && self.connections == other.connections
            && self.segment_bytes == other.segment_bytes
            && self.max_attempts == other.max_attempts
            && self.read_timeout_ms == other.read_timeout_ms
            && self.in_flight_budget == other.in_flight_budget
            && self.checkpoint_every == other.checkpoint_every
            && self.chaos == other.chaos
    }
}

impl Eq for NetSoakConfig {}

impl NetSoakConfig {
    /// A moderate network-soak profile for the given seed.
    pub fn new(seed: u64) -> NetSoakConfig {
        NetSoakConfig {
            seed,
            requests: 40,
            connections: 2,
            segment_bytes: 48,
            max_attempts: 4,
            read_timeout_ms: 60,
            in_flight_budget: 64 << 10,
            checkpoint_every: 64,
            chaos: NetChaosConfig::with_seed(seed),
            obs: ObsHandle::disabled(),
        }
    }

    /// Sets the request count.
    pub fn with_requests(mut self, requests: u64) -> NetSoakConfig {
        self.requests = requests;
        self
    }

    /// Sets the server connection capacity.
    pub fn with_connections(mut self, connections: usize) -> NetSoakConfig {
        self.connections = connections.max(1);
        self
    }

    /// Sets the seeded fault profile.
    pub fn with_chaos(mut self, chaos: NetChaosConfig) -> NetSoakConfig {
        self.chaos = chaos;
        self
    }

    /// Attaches an observability handle to the server.
    pub fn with_obs(mut self, obs: ObsHandle) -> NetSoakConfig {
        self.obs = obs;
        self
    }

    /// The server configuration this soak profile induces.
    pub fn net_config(&self) -> NetConfig {
        NetConfig::default()
            .with_max_connections(self.connections)
            .with_timeouts(
                Duration::from_millis(self.read_timeout_ms),
                Duration::from_secs(2),
            )
            .with_checkpoint_every(self.checkpoint_every)
            .with_budget(ServiceBudget::default().with_max_in_flight_bytes(self.in_flight_budget))
            .with_obs(self.obs.clone())
    }
}

/// How one request ended, in a form comparable across runs and server
/// capacities: match sets verbatim, failures by stable wire code.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum NetRequestOutcome {
    /// Completed with these matches (document-order node ids).
    Matches(Vec<usize>),
    /// Refused or killed with this typed wire code.
    Failed(u16),
    /// Every attempt was eaten by injected chaos; the request was
    /// abandoned (counted, not a contract violation).
    GaveUp,
}

/// The result of one network soak run.
#[derive(Clone, Debug)]
pub struct NetSoakReport {
    /// Per-request outcomes, in submission order.  The cross-capacity
    /// determinism invariant is over exactly this vector.
    pub outcomes: Vec<NetRequestOutcome>,
    /// Requests that completed and matched the clean reference.
    pub completed: usize,
    /// Requests that died with an expected typed code (the clean run
    /// rejects their document/pattern too, or the budget refused them).
    pub typed_failures: usize,
    /// Reconnect attempts consumed by injected faults.
    pub chaos_retries: u64,
    /// Requests abandoned after every attempt faulted.
    pub gave_up: usize,
    /// Duplicate uploads replayed (each verified bitwise against the
    /// original reply).
    pub resends: usize,
    /// Contract violations.  Empty on a healthy front-end.
    /// Their `job` is `None`: the edge keeps no job ids.
    pub divergences: Vec<SoakDivergence>,
    /// Final server counters.
    pub stats: NetStats,
    /// Final plan-cache counters (duplicate patterns and resends hit).
    pub cache: PlanCacheStats,
}

impl NetSoakReport {
    /// Whether the run upheld the contract.
    pub fn ok(&self) -> bool {
        self.divergences.is_empty()
    }

    /// Reproducers for every divergence, concatenated (empty when
    /// [`NetSoakReport::ok`]).
    pub fn reproducer(&self, seed: u64) -> String {
        self.divergences
            .iter()
            .map(|d| d.reproducer(seed))
            .collect::<Vec<_>>()
            .join("\n")
    }
}

/// The wire form of a case's alphabet: its letters, comma-separated.
fn csv(alphabet: &str) -> String {
    alphabet
        .chars()
        .map(String::from)
        .collect::<Vec<_>>()
        .join(",")
}

/// Sends the header and a strict prefix of one `CHUNK` frame — a torn
/// frame the server must answer with a typed `TRUNCATED_FRAME`.
fn send_torn_chunk(client: &mut NetClient, seg: &[u8]) {
    let mut raw = Vec::with_capacity(5 + seg.len() / 2);
    raw.push(FrameKind::Chunk.as_byte());
    raw.extend_from_slice(&(seg.len() as u32).to_le_bytes());
    raw.extend_from_slice(&seg[..seg.len() / 2]);
    let _ = client.stream_mut().write_all(&raw);
    let _ = client.stream_mut().flush();
}

/// Waits until no connection is open on the server.
///
/// Capacity independence needs this: after a faulted attempt the
/// client's socket is gone, but the server-side handler may linger until
/// its read deadline notices.  Reconnecting while that zombie still
/// counts against `max_connections` would get refused on a capacity-1
/// server but accepted on a larger one — the outcome would depend on
/// capacity, which is exactly what the soak exists to rule out.  The
/// harness is the server's only client and drives requests sequentially,
/// so quiescence is always reached within a read deadline.
fn wait_quiesce(server: &NetServer) {
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    while server.stats().open > 0 && std::time::Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(1));
    }
}

enum AttemptEnd {
    Completed(Vec<usize>),
    TypedFailure(u16, String),
    /// The attempt was cut by an injected fault (or its aftermath);
    /// reconnect and retry.
    Faulted,
}

/// How a reply ends an attempt.  A transport fault or a transient
/// service condition is retried on a fresh connection; a reply the
/// client's own checks refuse (a mis-tiled part, a cursor or node-id
/// disagreement, a garbage frame) is a divergence, never retried away.
fn attempt_end(reply: Result<NetResponse, FrameError>) -> AttemptEnd {
    match reply {
        Ok(NetResponse::Matches(ids) | NetResponse::StreamMatches { ids, .. }) => {
            AttemptEnd::Completed(ids)
        }
        Ok(NetResponse::MultiMatches(_)) => AttemptEnd::TypedFailure(
            0,
            "server answered a single query with the wrong reply shape".into(),
        ),
        Ok(NetResponse::ServerError { code, message }) => match code {
            codes::READ_TIMEOUT | codes::WRITE_TIMEOUT | codes::OVERLOADED => AttemptEnd::Faulted,
            _ => AttemptEnd::TypedFailure(code, message),
        },
        Err(FrameError::BadPayload { detail }) => AttemptEnd::TypedFailure(0, detail),
        Err(_) => AttemptEnd::Faulted,
    }
}

fn play_attempt(
    server: &NetServer,
    addr: &str,
    p: &Prepared,
    cfg: &NetSoakConfig,
    request: u64,
    attempt: u32,
) -> AttemptEnd {
    let before = server.stats().connections;
    let Ok(mut client) =
        NetClient::connect_with_timeouts(addr, Duration::from_secs(2), Duration::from_secs(2))
    else {
        return AttemptEnd::Faulted;
    };
    // Wait for the accept loop to actually take this connection.  A
    // faulted attempt can write and hang up entirely inside the accept
    // loop's polling interval, leaving its socket in the kernel backlog
    // where [`wait_quiesce`] cannot see it; the zombie would then be
    // accepted *during* the next attempt and spuriously trip the
    // connection cap on small-capacity servers.
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    while server.stats().connections <= before && std::time::Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(1));
    }
    // Half the requests exercise the lock-step streaming protocol, so
    // faults land between MATCH_PART exchanges too.  The choice is a
    // pure function of the request index: every retry of a request (and
    // every pool capacity) replays the same protocol.
    let stream = request.is_multiple_of(2);
    let (pattern, csv) = (&p.case.pattern, csv(&p.case.alphabet));
    let sent = if stream {
        client.send_stream_query(pattern, &csv)
    } else {
        client.send_query(pattern, &csv)
    };
    if sent.is_err() {
        return AttemptEnd::Faulted;
    }
    let mut parts = Vec::new();
    let segs: Vec<&[u8]> = p.case.doc.chunks(cfg.segment_bytes.max(1)).collect();
    // One roll per segment boundary, plus one before FINISH, so faults
    // can land anywhere in the upload including its very end.
    for s in 0..=segs.len() {
        let seg = segs.get(s).copied();
        match cfg.chaos.roll(request, attempt, s as u64) {
            NetFault::None => {}
            NetFault::Disconnect => return AttemptEnd::Faulted,
            NetFault::Torn => {
                send_torn_chunk(&mut client, seg.unwrap_or(b"x"));
                return AttemptEnd::Faulted;
            }
            NetFault::Stall => {
                std::thread::sleep(Duration::from_millis(cfg.chaos.stall_ms));
                return AttemptEnd::Faulted;
            }
        }
        let Some(seg) = seg else { break };
        if client.send_chunk(seg).is_err() {
            return AttemptEnd::Faulted;
        }
        if stream {
            if let Some(reply) = client.read_stream_part(&mut parts).transpose() {
                return attempt_end(reply);
            }
        }
    }
    // A streamed reply is verified against the parts collected in lock
    // step before it counts as completed.
    attempt_end(if stream {
        client.finish_stream(parts)
    } else {
        client.send_finish().and_then(|()| client.read_response())
    })
}

/// Runs one network chaos soak and checks the front-end contract.  See
/// the module docs for the invariants.
pub fn run_net_soak(cfg: &NetSoakConfig) -> NetSoakReport {
    let gen_cfg = GenConfig::default();
    let prepared: Vec<Prepared> = (0..cfg.requests)
        .map(|i| prepare(cfg.seed, i, &gen_cfg))
        .collect();

    let server = NetServer::bind("127.0.0.1:0", cfg.net_config()).expect("bind loopback");
    let addr = server.local_addr().to_string();

    let mut outcomes = Vec::with_capacity(prepared.len() + 1);
    let mut divergences = Vec::new();
    let mut completed = 0usize;
    let mut typed_failures = 0usize;
    let mut chaos_retries = 0u64;
    let mut gave_up = 0usize;
    let mut resends = 0usize;

    for (i, p) in prepared.iter().enumerate() {
        let diverge = |detail: String| SoakDivergence {
            request: i as u64,
            pattern: p.case.pattern.clone(),
            alphabet: p.case.alphabet.clone(),
            doc: p.case.doc.clone(),
            job: None,
            detail,
        };
        let mut outcome = NetRequestOutcome::GaveUp;
        for attempt in 1..=cfg.max_attempts {
            wait_quiesce(&server);
            match play_attempt(&server, &addr, p, cfg, i as u64, attempt) {
                AttemptEnd::Completed(ids) => {
                    match &p.clean {
                        Ok(cm) if &ids == cm => {
                            completed += 1;
                            if let Some(oracle) = &p.oracle {
                                if oracle != &ids {
                                    divergences.push(diverge(format!(
                                        "served matches {ids:?} disagree with DOM oracle {oracle:?}"
                                    )));
                                }
                            }
                        }
                        Ok(cm) => divergences.push(diverge(format!(
                            "served matches {ids:?} != clean run {cm:?} (attempt {attempt})"
                        ))),
                        Err(e) => divergences.push(diverge(format!(
                            "request completed with {ids:?} where the clean run rejects: {e}"
                        ))),
                    }
                    // Duplicate upload: replay the whole request on a
                    // fresh connection; the reply must be identical.
                    if cfg.chaos.roll_resend(i as u64) {
                        resends += 1;
                        wait_quiesce(&server);
                        match NetClient::connect(&addr)
                            .map_err(|e| e.to_string())
                            .and_then(|mut c| {
                                let csv = csv(&p.case.alphabet);
                                c.query(&p.case.pattern, &csv, &p.case.doc, cfg.segment_bytes)
                                    .map_err(|e| e.to_string())
                            }) {
                            Ok(NetResponse::Matches(ids2)) if ids2 == ids => {}
                            other => divergences.push(diverge(format!(
                                "duplicate upload diverged: first {ids:?}, then {other:?}"
                            ))),
                        }
                    }
                    outcome = NetRequestOutcome::Matches(ids);
                    break;
                }
                AttemptEnd::TypedFailure(code, message) => {
                    // A typed failure must be *expected*: the clean run
                    // rejects this case too (engine error or a pattern
                    // that does not compile/fuse).
                    if p.clean.is_err() && matches!(code, codes::ENGINE | codes::BAD_QUERY) {
                        typed_failures += 1;
                    } else {
                        divergences.push(diverge(format!(
                            "unexpected typed failure {code}: {message} \
                             (clean run: {:?})",
                            p.clean
                        )));
                    }
                    outcome = NetRequestOutcome::Failed(code);
                    break;
                }
                AttemptEnd::Faulted => {
                    chaos_retries += 1;
                }
            }
        }
        if outcome == NetRequestOutcome::GaveUp {
            gave_up += 1;
        }
        outcomes.push(outcome);
    }

    // The synthetic oversized request: one chunk larger than the whole
    // in-flight budget must die with a typed REJECTED, not a hang.
    {
        wait_quiesce(&server);
        let big = vec![b'x'; cfg.in_flight_budget + 1];
        // No FINISH after the chunk: the server rejects on the chunk
        // itself, and the reply must be readable on a quiet connection.
        let end = NetClient::connect(&addr)
            .map_err(|e| e.to_string())
            .and_then(|mut c| {
                c.send_query(".*a", "a,b").map_err(|e| e.to_string())?;
                c.send_chunk(&big).map_err(|e| e.to_string())?;
                c.read_response().map_err(|e| e.to_string())
            });
        match end {
            Ok(NetResponse::ServerError { code, .. }) if code == codes::REJECTED => {
                typed_failures += 1;
                outcomes.push(NetRequestOutcome::Failed(code));
            }
            other => {
                divergences.push(SoakDivergence {
                    request: cfg.requests,
                    pattern: ".*a".to_owned(),
                    alphabet: "ab".to_owned(),
                    doc: Vec::new(),
                    job: None,
                    detail: format!("oversized request did not REJECT: {other:?}"),
                });
                outcomes.push(NetRequestOutcome::GaveUp);
            }
        }
    }

    // The server must outlive the chaos: one clean request afterwards.
    {
        wait_quiesce(&server);
        let end = NetClient::connect(&addr)
            .map_err(|e| e.to_string())
            .and_then(|mut c| {
                c.query(".*a", "a,b", b"<a><b></b></a>", 4)
                    .map_err(|e| e.to_string())
            });
        if end != Ok(NetResponse::Matches(vec![0])) {
            divergences.push(SoakDivergence {
                request: cfg.requests + 1,
                pattern: ".*a".to_owned(),
                alphabet: "ab".to_owned(),
                doc: b"<a><b></b></a>".to_vec(),
                job: None,
                detail: format!("post-chaos clean request failed: {end:?}"),
            });
        }
    }

    let stats = server.stats();
    let cache = server.plan_cache().stats();
    server.shutdown();
    NetSoakReport {
        outcomes,
        completed,
        typed_failures,
        chaos_retries,
        gave_up,
        resends,
        divergences,
        stats,
        cache,
    }
}
