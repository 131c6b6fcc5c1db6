//! `edge-small`: the TCP edge on loopback.  Two closed-loop client
//! connections send a seeded mix of QUERY, STREAMQUERY and MULTIQUERY
//! requests over ~40 KB documents; one request in ten opens a fresh
//! connection first, as each `stql ask` invocation does.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use st_core::emit::{EmissionCursor, StreamedMatch};
use st_core::session::Limits;
use st_serve::frame::{
    decode_error, decode_match_part, decode_matches_with_cursor, read_frame, FrameKind,
    RESPONSE_MAX_FRAME_LEN,
};
use st_serve::{NetClient, NetConfig, NetResponse, NetServer, ServiceBudget};

use crate::inputs::{pattern_pool, Corpus, ALPHABET_CSV};
use crate::run::{Outcome, Span, Tally};
use crate::util::{ms, secs, us, Rng, Window, Zipf};

/// Upload frame size, as `stql ask` sends.
pub const CHUNK: usize = 16 << 10;
const POOL_PATTERNS: usize = 100;
const DOCS_PER_SHAPE: usize = 4;
const NODES: usize = 6_000;
const ZIPF_S: f64 = 1.3;
const MULTI_SIZE: usize = 8;
const CLIENTS: usize = 2;
const POOL_SEED: u64 = 0x5EED_0F9A_77E2_4000;

#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Kind {
    Query,
    Stream,
    Multi,
}

impl Kind {
    pub fn label(self) -> &'static str {
        match self {
            Kind::Query => "QUERY",
            Kind::Stream => "STREAMQUERY",
            Kind::Multi => "MULTIQUERY",
        }
    }
}

#[derive(Clone)]
pub struct Request {
    pub kind: Kind,
    pub doc: usize,
    /// One pattern index, or `MULTI_SIZE` distinct ones for MULTIQUERY.
    pub pats: Vec<usize>,
    pub fresh: bool,
}

pub struct Edge {
    pub corpus: Corpus,
    zipf: Zipf,
    pub cfg: NetConfig,
}

impl Edge {
    pub fn prepare(rng: &Rng, tiny: bool) -> Edge {
        let (pool, nodes, per_shape) = if tiny {
            (24, 600, 1)
        } else {
            (POOL_PATTERNS, NODES, DOCS_PER_SHAPE)
        };
        // The pool itself is the same for every seed (the popular
        // queries of a deployment do not change from run to run); the
        // seed drives the documents and which patterns each request
        // draws.
        let patterns = pattern_pool(&Rng::new(POOL_SEED), pool);
        let corpus = Corpus::build(rng, per_shape, nodes, patterns);
        let cfg = NetConfig::default().with_budget(service_budget(&corpus, CLIENTS));
        Edge {
            zipf: Zipf::new(corpus.patterns.len(), ZIPF_S),
            corpus,
            cfg,
        }
    }

    /// The next request of one client's seeded stream: ~60% QUERY, ~25%
    /// STREAMQUERY, ~15% MULTIQUERY; patterns by Zipf rank.
    pub fn next_request(&self, rng: &mut Rng) -> Request {
        let roll = rng.below(100);
        let kind = match roll {
            0..=59 => Kind::Query,
            60..=84 => Kind::Stream,
            _ => Kind::Multi,
        };
        let doc = rng.below(self.corpus.docs.len());
        let mut pats = vec![self.zipf.draw(rng)];
        if kind == Kind::Multi {
            let want = MULTI_SIZE.min(self.corpus.patterns.len());
            while pats.len() < want {
                let p = self.zipf.draw(rng);
                if !pats.contains(&p) {
                    pats.push(p);
                }
            }
        }
        Request {
            kind,
            doc,
            pats,
            fresh: rng.below(10) == 0,
        }
    }
}

/// A service budget whose guards run on every request but never fire:
/// in-flight bytes, depth, imbalance and document bytes all sit above
/// anything `clients` concurrent requests over this corpus reach.  The
/// in-flight cap also stays at more than twice what they can hold, so
/// the runtime's degradation ladder (which steps down at half the
/// budget) never engages either.
pub fn service_budget(corpus: &Corpus, clients: usize) -> ServiceBudget {
    let max = corpus.max_bytes();
    ServiceBudget::default()
        .with_max_in_flight_bytes(max * (2 * clients + 2))
        .with_session_limits(guard_limits(corpus))
}

pub fn guard_limits(corpus: &Corpus) -> Limits {
    Limits::none()
        .with_max_depth(corpus.max_depth() * 2 + 16)
        .with_max_imbalance(16)
        .with_max_bytes(corpus.max_bytes() * 2)
}

/// One request's client-side timings.
pub struct Exchange {
    pub upload: Duration,
    pub reply: Duration,
    /// Per STREAMQUERY chunk: end of its CHUNK write → read of its
    /// MATCH_PART, in ms.
    pub lags_ms: Vec<f64>,
    /// `Err` describes a wrong answer or a typed server error.
    pub verdict: Result<(), String>,
}

fn frame_err(e: st_serve::FrameError) -> String {
    format!("transport: {e}")
}

/// Sends one request over `client` and verifies the reply against the
/// corpus references.  `Err` is a transport failure.
pub fn exchange(
    client: &mut NetClient,
    corpus: &Corpus,
    req: &Request,
) -> Result<Exchange, String> {
    let doc = &corpus.docs[req.doc].bytes;
    let reference = |p: usize| &corpus.refs[req.doc][p];
    let t0 = Instant::now();
    match req.kind {
        Kind::Query | Kind::Multi => {
            if req.kind == Kind::Query {
                let pattern = &corpus.patterns[req.pats[0]].text;
                client
                    .send_query(pattern, ALPHABET_CSV)
                    .map_err(frame_err)?;
            } else {
                let texts: Vec<&str> = req
                    .pats
                    .iter()
                    .map(|&p| corpus.patterns[p].text.as_str())
                    .collect();
                client
                    .send_multi_query(&texts, ALPHABET_CSV)
                    .map_err(frame_err)?;
            }
            for seg in doc.chunks(CHUNK) {
                client.send_chunk(seg).map_err(frame_err)?;
            }
            client.send_finish().map_err(frame_err)?;
            let t1 = Instant::now();
            let resp = client.read_response().map_err(frame_err)?;
            let t2 = Instant::now();
            let verdict = match resp {
                NetResponse::Matches(ids) if req.kind == Kind::Query => {
                    check(&ids, reference(req.pats[0]), "QUERY")
                }
                NetResponse::MultiMatches(members) if req.kind == Kind::Multi => {
                    if members.len() != req.pats.len() {
                        Err(format!(
                            "MULTIQUERY answered {} members, asked {}",
                            members.len(),
                            req.pats.len()
                        ))
                    } else {
                        members
                            .iter()
                            .zip(&req.pats)
                            .try_for_each(|(ids, &p)| check(ids, reference(p), "MULTIQUERY member"))
                    }
                }
                NetResponse::ServerError { code, message } => {
                    Err(format!("server error {code}: {message}"))
                }
                other => Err(format!("unexpected reply {other:?}")),
            };
            Ok(Exchange {
                upload: t1 - t0,
                reply: t2 - t1,
                lags_ms: Vec::new(),
                verdict,
            })
        }
        Kind::Stream => stream_exchange(client, corpus, req, t0),
    }
}

/// STREAMQUERY in lock step: one MATCH_PART per CHUNK, then the final
/// cursor-carrying reply.  The parts must tile the stream, their digest
/// must equal the server's cursor, and their node ids must equal both
/// the final list and the reference.
fn stream_exchange(
    client: &mut NetClient,
    corpus: &Corpus,
    req: &Request,
    t0: Instant,
) -> Result<Exchange, String> {
    let doc = &corpus.docs[req.doc].bytes;
    let pattern = &corpus.patterns[req.pats[0]].text;
    client
        .send_stream_query(pattern, ALPHABET_CSV)
        .map_err(frame_err)?;
    let mut parts: Vec<StreamedMatch> = Vec::new();
    let mut lags_ms = Vec::with_capacity(doc.len() / CHUNK + 1);
    let mut server_error = None;
    for seg in doc.chunks(CHUNK) {
        client.send_chunk(seg).map_err(frame_err)?;
        let sent = Instant::now();
        let frame = read_frame(client.stream_mut(), RESPONSE_MAX_FRAME_LEN).map_err(frame_err)?;
        lags_ms.push(ms(sent.elapsed()));
        match frame.kind {
            FrameKind::MatchPart => {
                let (start, batch) = decode_match_part(&frame.payload).map_err(frame_err)?;
                if start != parts.len() as u64 {
                    return Err(format!(
                        "MATCH_PART starts at {start} after {} matches",
                        parts.len()
                    ));
                }
                parts.extend_from_slice(&batch);
            }
            FrameKind::Error => {
                let (code, message) = decode_error(&frame.payload).map_err(frame_err)?;
                server_error = Some(format!("server error {code}: {message}"));
                break;
            }
            other => return Err(format!("{other:?} frame as a stream part")),
        }
    }
    let t1 = Instant::now();
    let verdict = if let Some(e) = server_error {
        Err(e)
    } else {
        client.send_finish().map_err(frame_err)?;
        let frame = read_frame(client.stream_mut(), RESPONSE_MAX_FRAME_LEN).map_err(frame_err)?;
        match frame.kind {
            FrameKind::Matches => {
                let (ids, cursor) =
                    decode_matches_with_cursor(&frame.payload).map_err(frame_err)?;
                if EmissionCursor::over(&parts) != cursor {
                    Err("stream parts disagree with the final cursor".to_owned())
                } else if parts.iter().map(|m| m.node).ne(ids.iter().copied()) {
                    Err("stream parts differ from the final match list".to_owned())
                } else {
                    check(&ids, &corpus.refs[req.doc][req.pats[0]], "STREAMQUERY")
                }
            }
            FrameKind::Error => {
                let (code, message) = decode_error(&frame.payload).map_err(frame_err)?;
                Err(format!("server error {code}: {message}"))
            }
            other => return Err(format!("{other:?} frame as a stream reply")),
        }
    };
    // For a stream the "upload" span runs to the last MATCH_PART and the
    // "reply" span covers FINISH → final reply.
    Ok(Exchange {
        upload: t1 - t0,
        reply: t1.elapsed(),
        lags_ms,
        verdict,
    })
}

pub fn check(got: &[usize], want: &[usize], what: &str) -> Result<(), String> {
    if got == want {
        Ok(())
    } else {
        Err(format!(
            "{what}: {} ids differ from the {} reference ids",
            got.len(),
            want.len()
        ))
    }
}

/// The `QUERY` used as the set-up probe: the most popular pattern over
/// the first document.
pub fn probe_request() -> Request {
    Request {
        kind: Kind::Query,
        doc: 0,
        pats: vec![0],
        fresh: true,
    }
}

/// Bind → connect → first verified reply, as one set-up sample.
///
/// The probe connects a fixed millisecond after `bind` returns, and that
/// millisecond is left out of the sample.  Connecting at once would race
/// the accept thread's first poll: won, the connection is accepted at
/// once; lost, it waits out the 2 ms `WouldBlock` sleep — so samples
/// were bimodal and their median flipped between runs.  At a fixed
/// phase every sample waits the same part of the sleep.
pub fn setup_once(edge: &Edge) -> (Duration, NetServer) {
    let t0 = Instant::now();
    let server = NetServer::bind("127.0.0.1:0", edge.cfg.clone()).expect("bind loopback");
    let idle = Instant::now();
    std::thread::sleep(Duration::from_millis(1));
    let idle = idle.elapsed();
    let mut client = NetClient::connect(&server.local_addr().to_string()).expect("connect");
    let ex = exchange(&mut client, &edge.corpus, &probe_request()).expect("set-up request");
    let took = t0.elapsed() - idle;
    ex.verdict.expect("set-up reply is correct");
    drop(client);
    (took, server)
}

struct ClientLog {
    tally: Tally,
    lags_ms: Vec<f64>,
    spans: Vec<Span>,
    mix: BTreeMap<String, u64>,
}

/// Runs the closed loop against `server` for `secs` seconds.
pub fn drive(
    edge: &Edge,
    server: &NetServer,
    rng: &Rng,
    secs: f64,
    trace: bool,
    phase: u64,
) -> Outcome {
    let addr = server.local_addr().to_string();
    let window = Window::open();
    let start = window.start();
    let deadline = start + Duration::from_secs_f64(secs);
    let logs: Vec<ClientLog> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let addr = addr.clone();
                let mut rng = rng.fork(0xC11E_0000 + phase * 16 + c as u64);
                s.spawn(move || client_loop(edge, &addr, &mut rng, deadline, start, trace))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });
    let totals = window.close();
    let mut out = Outcome::new(totals);
    for log in logs {
        out.tally.merge(log.tally);
        out.lags_ms.extend(log.lags_ms);
        out.spans.push(log.spans);
        for (k, v) in log.mix {
            *out.mix.entry(k).or_default() += v;
        }
    }
    out
}

fn client_loop(
    edge: &Edge,
    addr: &str,
    rng: &mut Rng,
    deadline: Instant,
    epoch: Instant,
    trace: bool,
) -> ClientLog {
    let mut log = ClientLog {
        tally: Tally::default(),
        lags_ms: Vec::new(),
        spans: Vec::new(),
        mix: BTreeMap::new(),
    };
    let mut client: Option<NetClient> = None;
    let mut req_id = 0u64;
    while Instant::now() < deadline {
        let req = edge.next_request(rng);
        req_id += 1;
        let t0 = Instant::now();
        if req.fresh || client.is_none() {
            client = None;
            match NetClient::connect(addr) {
                Ok(c) => client = Some(c),
                Err(e) => {
                    log.tally.fail(format!("connect: {e}"));
                    continue;
                }
            }
        }
        let t_conn = Instant::now();
        let c = client.as_mut().expect("connected above");
        let result = exchange(c, &edge.corpus, &req);
        let done = Instant::now();
        *log.mix.entry(req.kind.label().to_owned()).or_default() += 1;
        if req.fresh {
            *log.mix.entry("fresh_connection".to_owned()).or_default() += 1;
        }
        match result {
            Ok(ex) => {
                let bytes = edge.corpus.docs[req.doc].bytes.len();
                match ex.verdict {
                    Ok(()) => {
                        log.tally.ok(bytes, secs(t0 - epoch), secs(done - epoch));
                        log.tally.samples.push(crate::run::Sample {
                            doc: req.doc,
                            pattern: req.pats[0],
                            latency_ms: ms(done - t0),
                            kind: req.kind.label(),
                            stream: req.kind == Kind::Stream,
                        });
                    }
                    Err(e) => {
                        log.tally.wrong(e);
                        // A connection whose request failed is closed by
                        // the server; start over on a fresh one.
                        client = None;
                    }
                }
                log.lags_ms.extend(ex.lags_ms);
                if trace {
                    let at = |t: Instant| us(t - epoch);
                    let root =
                        Span::new(req_id, "request", req.kind.label(), at(t0), us(done - t0));
                    if req.fresh {
                        log.spans
                            .push(Span::new(req_id, "connect", "", at(t0), us(t_conn - t0)));
                    }
                    log.spans
                        .push(Span::new(req_id, "upload", "", at(t_conn), us(ex.upload)));
                    log.spans.push(Span::new(
                        req_id,
                        "reply",
                        "",
                        at(t_conn) + us(ex.upload),
                        us(ex.reply),
                    ));
                    log.spans.push(root);
                }
            }
            Err(e) => {
                log.tally.fail(e);
                client = None;
            }
        }
    }
    log
}

/// Runs the set-up probe `n` times; the samples in seconds.
pub fn setup_samples(edge: &Edge, n: usize) -> Vec<f64> {
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        let (took, server) = setup_once(edge);
        server.shutdown();
        out.push(took.as_secs_f64());
    }
    out
}

/// The server's view of the window, for the per-layer report.
pub fn server_counters(server: &NetServer) -> (u64, u64, u64) {
    let cache = server.plan_cache().stats();
    (cache.hits, cache.misses, server.stats().checkpoints)
}
