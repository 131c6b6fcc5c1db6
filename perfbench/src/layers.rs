//! The traced run's per-layer figures.
//!
//! Spans are taken in benchmark code only, so self time is estimated
//! with a ladder: sampled requests are replayed one layer down on the
//! same (document, pattern) — net or runtime, then session, then
//! engine, then the structural index — and each layer's self time is
//! its replay minus the replay one layer below.  The residual is the
//! observed request latency minus the outermost replay: what load,
//! concurrency and the request mix add.
//!
//! Every metric is measured on every workload, on that workload's own
//! documents and patterns; which ones a workload is expected to move is
//! recorded in `perfbench/README.md`.

use std::hint::black_box;
use std::time::{Duration, Instant};

use st_core::plancache::PlanCache;
use st_core::queryset::QuerySet;
use st_core::session::Limits;
use st_core::structural::{structural_census, structural_flatten_census, ScanStats};
use st_core::Query;
use st_serve::{NetClient, NetConfig, NetServer, ServeConfig, ServeRuntime};

use crate::edge::{exchange, guard_limits, service_budget, Kind, Request, CHUNK};
use crate::inputs::{class_slug, gamma, Corpus};
use crate::pool::nproc;
use crate::run::{Outcome, Sample};
use crate::util::{median, pct, us, Metrics};

/// Where the workload's requests enter: the TCP edge or the pool.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Entry {
    Net,
    Runtime,
}

pub struct LayerInput<'a> {
    pub corpus: &'a Corpus,
    pub entry: Entry,
    /// The serving configuration the workload ran (budget, cadence,
    /// chaos), reused for runtime replays.
    pub serve_cfg: ServeConfig,
    /// Feed size of the workload's sessions: the wire chunk on the edge,
    /// the checkpoint cadence in the pool.
    pub feed_chunk: usize,
    /// The untraced window (samples, counters, stream lags).
    pub workload: &'a Outcome,
    /// The edge server the workload ran against, idle by now.
    pub server: Option<&'a NetServer>,
    /// Per-measurement time budget.
    pub budget: Duration,
    pub reps: usize,
    pub max_samples: usize,
}

pub fn measure(input: &LayerInput, m: &mut Metrics) {
    ladder(input, m);
    compile_layer(input, m);
    queryset_layer(input, m);
    session_layer(input, m);
    engine_layer(input, m);
    structural_layer(input, m);
}

/// Repeats `f` over the documents until `budget` has passed and every
/// document ran at least once; returns MB/s of document bytes.
fn rate(corpus: &Corpus, budget: Duration, mut f: impl FnMut(&[u8])) -> f64 {
    let start = Instant::now();
    let mut bytes = 0usize;
    let mut rounds = 0usize;
    while rounds < corpus.docs.len() || start.elapsed() < budget {
        let doc = &corpus.docs[rounds % corpus.docs.len()].bytes;
        f(black_box(doc));
        bytes += doc.len();
        rounds += 1;
    }
    bytes as f64 / 1e6 / start.elapsed().as_secs_f64()
}

/// Times `f` repeatedly until `budget` has passed (at least `min`
/// times); returns the per-call durations in µs.
fn timings(budget: Duration, min: usize, mut f: impl FnMut(usize)) -> Vec<f64> {
    let start = Instant::now();
    let mut out = Vec::new();
    while out.len() < min || start.elapsed() < budget {
        let t = Instant::now();
        f(out.len());
        out.push(us(t.elapsed()));
    }
    out
}

fn median_of(reps: usize, mut f: impl FnMut() -> f64) -> f64 {
    let v: Vec<f64> = (0..reps.max(1)).map(|_| f()).collect();
    median(&v)
}

/// A session run as the serving layers drive one: fed in `chunk`-byte
/// segments under the service guards, a checkpoint minted every
/// `cadence` bytes, and (for streams) the emission frontier drained
/// after every feed.
pub struct SessionRun {
    pub took: Duration,
    pub frontier_lag_bytes: Vec<f64>,
    pub matches: Vec<usize>,
}

pub fn session_run(
    query: &Query,
    doc: &[u8],
    limits: &Limits,
    chunk: usize,
    cadence: usize,
    drain: bool,
) -> SessionRun {
    let t0 = Instant::now();
    let mut session = query.session(limits.clone());
    let (mut fed, mut since) = (0usize, 0usize);
    let mut frontier_lag_bytes = Vec::new();
    for seg in doc.chunks(chunk) {
        session.feed(seg).expect("session feed");
        fed += seg.len();
        since += seg.len();
        if drain {
            for m in session.drain_emitted() {
                frontier_lag_bytes.push((fed - m.offset) as f64);
            }
        }
        if since >= cadence {
            since = 0;
            black_box(session.checkpoint().expect("checkpoint"));
        }
    }
    let outcome = session.finish().expect("session finish");
    SessionRun {
        took: t0.elapsed(),
        frontier_lag_bytes,
        matches: outcome.matches,
    }
}

/// Feeds the first half of `doc`, then times one checkpoint and one
/// resume from it: (checkpoint µs, serialised bytes, resume µs).
fn checkpoint_probe(query: &Query, doc: &[u8], limits: &Limits, chunk: usize) -> (f64, usize, f64) {
    let mut session = query.session(limits.clone());
    let half = doc.len() / 2;
    for seg in doc[..half].chunks(chunk) {
        session.feed(seg).expect("session feed");
    }
    let t = Instant::now();
    let cp = session.checkpoint().expect("checkpoint");
    let checkpoint_us = us(t.elapsed());
    let t = Instant::now();
    let mut resumed = query.fused().resume(&cp, limits.clone()).expect("resume");
    let resume_us = us(t.elapsed());
    resumed.feed(&doc[half..]).expect("resumed feed");
    black_box(resumed.finish().expect("resumed finish"));
    (checkpoint_us, cp.to_bytes().len(), resume_us)
}

// ---------------------------------------------------------------------------
// The ladder: net / runtime → session → engine → structural
// ---------------------------------------------------------------------------

fn ladder_samples(input: &LayerInput) -> Vec<Sample> {
    let all = &input.workload.tally.samples;
    let mut picked: Vec<Sample> = Vec::new();
    match input.entry {
        Entry::Net => {
            let plain: Vec<&Sample> = all
                .iter()
                .filter(|s| s.kind == Kind::Query.label())
                .collect();
            let step = (plain.len() / input.max_samples).max(1);
            picked.extend(
                plain
                    .iter()
                    .step_by(step)
                    .take(input.max_samples)
                    .map(|s| (*s).clone()),
            );
        }
        Entry::Runtime => {
            // One sample per (document, pattern) pair of the streamed
            // (session-path) jobs, carrying the pair's median latency.
            for d in 0..input.corpus.docs.len() {
                for p in 0..input.corpus.patterns.len() {
                    let lat: Vec<f64> = all
                        .iter()
                        .filter(|s| s.stream && s.doc == d && s.pattern == p)
                        .map(|s| s.latency_ms)
                        .collect();
                    if !lat.is_empty() {
                        picked.push(Sample {
                            doc: d,
                            pattern: p,
                            latency_ms: median(&lat),
                            kind: "session",
                            stream: true,
                        });
                    }
                }
            }
            picked.truncate(input.max_samples);
        }
    }
    if picked.is_empty() {
        // A window too short to leave a sample: replay the probe pair.
        picked.push(Sample {
            doc: 0,
            pattern: 0,
            latency_ms: f64::NAN,
            kind: "probe",
            stream: true,
        });
    }
    picked
}

fn ladder(input: &LayerInput, m: &mut Metrics) {
    let corpus = input.corpus;
    let limits = guard_limits(corpus);
    let cadence = input.serve_cfg.checkpoint_every;
    let samples = ladder_samples(input);

    // A quiet edge: the workload's own server, or one bound for the
    // replays when the workload ran in-process.
    let own_server;
    let server = match input.server {
        Some(s) => s,
        None => {
            let cfg = NetConfig::default().with_budget(service_budget(corpus, 1));
            own_server = NetServer::bind("127.0.0.1:0", cfg).expect("bind loopback");
            &own_server
        }
    };
    let addr = server.local_addr().to_string();
    let before = server.stats();
    let mut client = NetClient::connect(&addr).expect("connect");

    // A quiet runtime with the workload's configuration.
    let rt = ServeRuntime::start(input.serve_cfg.clone());
    let queries = crate::pool::compile_queries(corpus);

    let (
        mut net_self,
        mut rt_self,
        mut session_self,
        mut engine_self,
        mut structural,
        mut residual,
    ) = (vec![], vec![], vec![], vec![], vec![], vec![]);
    let (mut upload, mut reply, mut submit, mut lags) = (vec![], vec![], vec![], vec![]);
    let mut observed = vec![];
    let mut uploaded = 0usize;
    for s in &samples {
        let doc = &corpus.docs[s.doc].bytes;
        let pattern = &corpus.patterns[s.pattern];
        let want = &corpus.refs[s.doc][s.pattern];
        let req = Request {
            kind: Kind::Query,
            doc: s.doc,
            pats: vec![s.pattern],
            fresh: false,
        };
        let net = median_of(input.reps, || {
            let t = Instant::now();
            let ex = exchange(&mut client, corpus, &req).expect("net replay");
            let took = us(t.elapsed());
            ex.verdict.expect("net replay reply is correct");
            upload.push(us(ex.upload));
            reply.push(us(ex.reply));
            uploaded += doc.len();
            took
        });
        let stream_req = Request {
            kind: Kind::Stream,
            ..req.clone()
        };
        let ex = exchange(&mut client, corpus, &stream_req).expect("net stream replay");
        ex.verdict.expect("net stream replay is correct");
        uploaded += doc.len();
        lags.extend(ex.lags_ms);

        let runtime = median_of(input.reps, || {
            let spec = st_serve::JobSpec::new(
                queries[s.pattern].clone(),
                corpus.docs[s.doc].bytes.clone(),
            )
            .with_stream();
            let t = Instant::now();
            let id = rt.submit(spec).expect("runtime replay submit");
            submit.push(us(t.elapsed()));
            let report = rt.wait(id).expect("runtime replay wait");
            let took = us(t.elapsed());
            assert_eq!(
                report.result.as_ref().ok(),
                Some(&**want),
                "runtime replay is correct"
            );
            took
        });
        let session_at = |chunk: usize, drain: bool| {
            median_of(input.reps, || {
                let run = session_run(&pattern.query, doc, &limits, chunk, cadence, drain);
                assert_eq!(&run.matches, &**want, "session replay is correct");
                us(run.took)
            })
        };
        // The edge's QUERY sessions: 16 KiB feeds, no draining; the
        // pool's streamed sessions: cadence-sized feeds, drained.
        let session_net = session_at(CHUNK, false);
        let session_rt = session_at(cadence, true);
        let engine = median_of(input.reps, || {
            let t = Instant::now();
            let got = pattern.fused().select_bytes(doc).expect("engine replay");
            let took = us(t.elapsed());
            assert_eq!(&got, &**want, "engine replay is correct");
            took
        });
        let index = median_of(input.reps, || {
            let t = Instant::now();
            black_box(structural_flatten_census(black_box(doc)));
            us(t.elapsed())
        });
        net_self.push(net - session_net);
        rt_self.push(runtime - session_rt);
        let (outer, session) = match input.entry {
            Entry::Net => (net, session_net),
            Entry::Runtime => (runtime, session_rt),
        };
        session_self.push(session - engine);
        engine_self.push(engine - index);
        structural.push(index);
        if s.latency_ms.is_finite() {
            observed.push(s.latency_ms * 1e3);
            residual.push(s.latency_ms * 1e3 - outer);
        }
    }
    let after = server.stats();
    drop(client);

    // Fresh connection → first reply of a one-node QUERY: what a new
    // `stql ask` pays before its document matters (accept loop included).
    let tiny_doc: &[u8] = b"<a></a>";
    let connect = timings(input.budget, 10, |_| {
        let mut c = NetClient::connect(&addr).expect("connect");
        c.query("a", crate::inputs::ALPHABET_CSV, tiny_doc, CHUNK)
            .expect("tiny query");
    });
    m.put("net.connect_ms_p50", median(&connect) / 1e3, "ms");
    m.put("net.upload_us_p50", median(&upload), "us");
    m.put("net.reply_us_p50", median(&reply), "us");
    m.put("net.self_us_p50", median(&net_self), "us");
    m.put("net.self_us_p99", pct(&net_self, 0.99), "us");
    let (checkpoints, mb) = match input.entry {
        Entry::Net => (
            input
                .workload
                .counters
                .get("net_checkpoints")
                .copied()
                .unwrap_or(0.0),
            input.workload.mb(),
        ),
        Entry::Runtime => (
            (after.checkpoints - before.checkpoints) as f64,
            uploaded as f64 / 1e6,
        ),
    };
    m.put("net.checkpoints_per_mb", checkpoints / mb, "1/MB");
    let workload_lags = &input.workload.lags_ms;
    let lag = if workload_lags.is_empty() {
        &lags
    } else {
        workload_lags
    };
    m.put("net.match_lag_p50_ms", median(lag), "ms");
    m.put("net.match_lag_p99_ms", pct(lag, 0.99), "ms");

    let ladder_stats = rt.shutdown();
    let w = &input.workload.counters;
    let from_workload = input.entry == Entry::Runtime;
    let counter = |key: &str, fallback: f64| {
        if from_workload {
            w.get(key).copied().unwrap_or(fallback)
        } else {
            fallback
        }
    };
    let replays = (samples.len() * input.reps.max(1)) as f64;
    let replay_mb = samples
        .iter()
        .map(|s| corpus.docs[s.doc].bytes.len())
        .sum::<usize>() as f64
        * input.reps.max(1) as f64
        / 1e6;
    m.put(
        "runtime.submit_us_p50",
        counter("submit_us_p50", median(&submit)),
        "us",
    );
    m.put("runtime.self_ms_p50", median(&rt_self) / 1e3, "ms");
    m.put("runtime.self_ms_p99", pct(&rt_self, 0.99) / 1e3, "ms");
    m.put(
        "runtime.chunked_ratio",
        counter("chunked_ratio", 0.0),
        "ratio",
    );
    let rt_checkpoints = if from_workload {
        w.get("runtime_checkpoints").copied().unwrap_or(0.0) / input.workload.mb()
    } else {
        ladder_stats.checkpoints as f64 / replay_mb
    };
    m.put("runtime.checkpoints_per_mb", rt_checkpoints, "1/MB");
    m.put(
        "runtime.resumes_per_job",
        counter("resumes_per_job", ladder_stats.resumes as f64 / replays),
        "count",
    );
    m.put(
        "runtime.retries_per_job",
        counter("retries_per_job", ladder_stats.retries as f64 / replays),
        "count",
    );
    m.put(
        "runtime.suppressed_per_job",
        counter(
            "suppressed_per_job",
            ladder_stats.emission_suppressed as f64 / replays,
        ),
        "count",
    );
    m.put(
        "runtime.workers_spawned",
        counter("workers_spawned", ladder_stats.workers_spawned as f64),
        "count",
    );

    let outer_self = match input.entry {
        Entry::Net => &net_self,
        Entry::Runtime => &rt_self,
    };
    m.put("ladder.samples", samples.len() as f64, "count");
    m.put("ladder.observed_us_p50", median(&observed), "us");
    m.put("ladder.outer_self_us_p50", median(outer_self), "us");
    m.put("ladder.session_self_us_p50", median(&session_self), "us");
    m.put("ladder.engine_self_us_p50", median(&engine_self), "us");
    m.put("ladder.structural_us_p50", median(&structural), "us");
    m.put("ladder.residual_us_p50", median(&residual), "us");
}

// ---------------------------------------------------------------------------
// compile, queryset, session, engine, structural
// ---------------------------------------------------------------------------

fn compile_layer(input: &LayerInput, m: &mut Metrics) {
    let corpus = input.corpus;
    let g = gamma();
    let n = corpus.patterns.len();
    let compile = timings(input.budget, n, |i| {
        black_box(Query::compile(&corpus.patterns[i % n].text, &g).expect("compiles"));
    });
    m.put("compile.query_us_p50", median(&compile), "us");
    m.put("compile.query_us_p99", pct(&compile, 0.99), "us");

    let hit_ratio = match input.workload.counters.get("plan_cache_hits") {
        Some(&hits) => hits / (hits + input.workload.counters["plan_cache_misses"]).max(1.0),
        None => {
            // The pool compiles at set-up; price its request sequence as
            // if it went through a 64-entry plan cache.
            let cache = PlanCache::new(64);
            for s in &input.workload.tally.samples {
                cache
                    .get_or_compile(&corpus.patterns[s.pattern].text, &g)
                    .expect("compiles");
            }
            let st = cache.stats();
            st.hits as f64 / (st.hits + st.misses).max(1) as f64
        }
    };
    m.put("plancache.hit_ratio", hit_ratio, "ratio");
    let cache = PlanCache::new(64);
    let warm = n.min(64);
    for p in &corpus.patterns[..warm] {
        cache.get_or_compile(&p.text, &g).expect("compiles");
    }
    let hit = timings(input.budget, warm, |i| {
        black_box(
            cache
                .get_or_compile(&corpus.patterns[i % warm].text, &g)
                .expect("cached"),
        );
    });
    m.put("plancache.hit_us_p50", median(&hit), "us");
}

fn queryset_layer(input: &LayerInput, m: &mut Metrics) {
    let corpus = input.corpus;
    let g = gamma();
    let n = corpus.patterns.len();
    let size = n.min(8);
    // Sets of `size` consecutive pool patterns (rank order), as a
    // MULTIQUERY names them.
    let set_of = |i: usize| -> Vec<&str> {
        (0..size)
            .map(|j| corpus.patterns[(i + j) % n].text.as_str())
            .collect()
    };
    let compile = timings(input.budget, 4, |i| {
        black_box(QuerySet::compile(&set_of(i), &g).expect("set compiles"));
    });
    m.put("queryset.compile_us_p50", median(&compile), "us");
    let set = QuerySet::compile(&set_of(0), &g).expect("set compiles");
    let idx: Vec<usize> = (0..size).collect();
    for (d, doc) in corpus.docs.iter().enumerate() {
        let counts = set.count_all(&doc.bytes).expect("count_all");
        let want: Vec<usize> = idx.iter().map(|&j| corpus.refs[d][j % n].len()).collect();
        assert_eq!(counts, want, "count_all agrees with the references");
    }
    m.put(
        "queryset.count_all_mb_s",
        rate(corpus, input.budget, |doc| {
            black_box(set.count_all(doc).expect("count_all"));
        }),
        "MB/s",
    );
}

fn session_layer(input: &LayerInput, m: &mut Metrics) {
    let corpus = input.corpus;
    let limits = guard_limits(corpus);
    let cadence = input.serve_cfg.checkpoint_every;
    let (mut checkpoint_us, mut checkpoint_bytes, mut resume_us) = (vec![], vec![], vec![]);
    let (mut lags, mut request_us) = (vec![], vec![]);
    for &p in &corpus.one_per_class() {
        let pattern = &corpus.patterns[p];
        let feed = rate(corpus, input.budget, |doc| {
            let run = session_run(
                &pattern.query,
                doc,
                &limits,
                input.feed_chunk,
                cadence,
                true,
            );
            lags.extend(run.frontier_lag_bytes);
        });
        m.put(
            &format!("session.feed_mb_s.{}", class_slug(pattern.class)),
            feed,
            "MB/s",
        );
        for (d, doc) in corpus.docs.iter().enumerate() {
            let (c, b, r) = checkpoint_probe(&pattern.query, &doc.bytes, &limits, input.feed_chunk);
            checkpoint_us.push(c);
            checkpoint_bytes.push(b);
            resume_us.push(r);
            // A whole request as the edge serves a QUERY: 16 KiB feeds, a
            // checkpoint per cadence, finish.
            let run = session_run(&pattern.query, &doc.bytes, &limits, CHUNK, cadence, false);
            assert_eq!(
                &run.matches, &*corpus.refs[d][p],
                "session request is correct"
            );
            request_us.push(us(run.took));
        }
    }
    m.put("session.request_us_p50", median(&request_us), "us");
    m.put("session.checkpoint_us_p50", median(&checkpoint_us), "us");
    m.put(
        "session.checkpoint_bytes_max",
        checkpoint_bytes.iter().copied().max().unwrap_or(0) as f64,
        "bytes",
    );
    m.put("session.resume_us_p50", median(&resume_us), "us");
    m.put("emit.frontier_lag_bytes_p50", median(&lags), "bytes");

    // Session ÷ engine on the same bytes, registerless.
    let pattern = &corpus.patterns[corpus.one_per_class()[0]];
    let (mut session_s, mut engine_s) = (0.0, 0.0);
    for d in &corpus.docs {
        session_s += median_of(3, || {
            session_run(
                &pattern.query,
                &d.bytes,
                &limits,
                input.feed_chunk,
                cadence,
                true,
            )
            .took
            .as_secs_f64()
        });
        engine_s += median_of(3, || {
            let t = Instant::now();
            black_box(pattern.fused().select_bytes(&d.bytes).expect("select"));
            t.elapsed().as_secs_f64()
        });
    }
    m.put(
        "session.over_engine.registerless",
        session_s / engine_s,
        "ratio",
    );
}

fn engine_layer(input: &LayerInput, m: &mut Metrics) {
    let corpus = input.corpus;
    for &p in &corpus.one_per_class() {
        let fused = corpus.patterns[p].fused();
        let slug = class_slug(corpus.patterns[p].class);
        let count = rate(corpus, input.budget, |doc| {
            black_box(fused.count_bytes(doc).expect("count"));
        });
        let select = rate(corpus, input.budget, |doc| {
            black_box(fused.select_bytes(doc).expect("select"));
        });
        m.put(&format!("engine.count_mb_s.{slug}"), count, "MB/s");
        m.put(&format!("engine.select_mb_s.{slug}"), select, "MB/s");
    }
    let fused = corpus.patterns[corpus.one_per_class()[0]].fused();
    let threads = nproc();
    m.put(
        "engine.parallel_mb_s.registerless",
        rate(corpus, input.budget, |doc| {
            black_box(
                fused
                    .count_bytes_parallel(doc, threads)
                    .expect("parallel count"),
            );
        }),
        "MB/s",
    );
}

fn structural_layer(input: &LayerInput, m: &mut Metrics) {
    let corpus = input.corpus;
    let gbps = |mb_s: f64| mb_s * 8.0 / 1e3;
    m.put(
        "structural.census_gbps",
        gbps(rate(corpus, input.budget, |doc| {
            black_box(structural_census(doc));
        })),
        "Gb/s",
    );
    m.put(
        "structural.flatten_gbps",
        gbps(rate(corpus, input.budget, |doc| {
            black_box(structural_flatten_census(doc));
        })),
        "Gb/s",
    );
    let fused = corpus.patterns[corpus.one_per_class()[0]].fused();
    let mut stats = ScanStats::default();
    for doc in &corpus.docs {
        fused
            .count_bytes_stats(&doc.bytes, &mut stats)
            .expect("count");
    }
    let windows = (stats.simd_windows + stats.fallback_windows).max(1);
    m.put(
        "structural.indexed_window_ratio",
        stats.simd_windows as f64 / windows as f64,
        "ratio",
    );
}
