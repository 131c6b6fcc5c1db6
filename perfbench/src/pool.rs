//! `pool-large` and `failover`: the in-process pool runtime.  Two
//! closed-loop submitters keep two jobs in flight; every report is
//! checked against the references, streamed jobs also against their
//! emission ledger, and the runtime's `emitted` counter against the
//! total of the reference matches (the exactly-once check).

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use st_core::engine::FusedQuery;
use st_core::session::Limits;
use st_core::Query;
use st_serve::{ChaosConfig, Fault, JobSpec, PathTaken, ServeConfig, ServeRuntime};

use crate::edge::{check, service_budget};
use crate::inputs::{class_patterns, class_slug, gamma, Corpus, BYTES_PER_NODE};
use crate::run::{Epoch, Outcome, Sample, Span, Tally};
use crate::util::{cpu_time, ms, secs, us, Rng, Window};

const SUBMITTERS: usize = 2;
/// Jobs served by one runtime before the next epoch starts afresh: one
/// rotation on `pool-large` (18 combinations), two on `failover` (9).
const EPOCH_JOBS: usize = 18;
/// Injected faults per `failover` epoch: about what 2‰ + 2‰ per segment
/// gives over 18 jobs of 64 segments.
const FAULTS_PER_EPOCH: u64 = 4;
/// No runtime of a run sees more jobs than this (an epoch serves two
/// rotations; set-up and the ladder fewer), so the chaos seed can be
/// vetted up front (see [`vetted_chaos`]).
const JOB_CAP: u64 = 1_000;

pub struct Pool {
    pub corpus: Corpus,
    /// The configuration of set-up and ladder runtimes; epochs use
    /// [`Pool::epoch_cfg`].
    pub cfg: ServeConfig,
    pub failover: bool,
    chaos_rng: Rng,
    segments: u64,
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(2, |n| n.get())
}

impl Pool {
    pub fn prepare(rng: &Rng, failover: bool, tiny: bool) -> Pool {
        let target = match (tiny, failover) {
            (true, _) => 200 << 10,
            (false, false) => 8 << 20,
            (false, true) => 4 << 20,
        };
        let corpus = Corpus::build(rng, 1, target / BYTES_PER_NODE, class_patterns());
        let mut cfg = ServeConfig::default()
            .with_workers(nproc())
            .with_budget(service_budget(&corpus, SUBMITTERS));
        let segments = corpus.max_bytes().div_ceil(cfg.checkpoint_every) as u64;
        let chaos_rng = rng.fork(0xC4A0_5EED);
        if failover {
            // Job 1 is the set-up probe: fault-free, so `setup_s` never
            // includes a recovery.
            let chaos = vetted_chaos(&chaos_rng, segments, cfg.max_retries, JOB_CAP, |f| {
                f[0] == 0
            });
            cfg = cfg.with_chaos(chaos);
        }
        Pool {
            corpus,
            cfg,
            failover,
            chaos_rng,
            segments,
        }
    }

    /// The configuration of epoch `e`.  On `failover` each epoch draws
    /// its own chaos seed, vetted to inject exactly [`FAULTS_PER_EPOCH`]
    /// faults over the epoch's job ids, so every epoch carries the same
    /// recovery load while the faults land on different jobs and
    /// segments.
    pub fn epoch_cfg(&self, e: u64) -> ServeConfig {
        let cfg = self.cfg.clone();
        if !self.failover {
            return cfg;
        }
        let chaos = vetted_chaos(
            &self.chaos_rng.fork(e + 1),
            self.segments,
            cfg.max_retries,
            EPOCH_JOBS as u64,
            |f| f.iter().sum::<u64>() == FAULTS_PER_EPOCH,
        );
        cfg.with_chaos(chaos)
    }

    /// Every (document, query class, streamed or plain) combination, in
    /// a seeded order that both submitters walk from opposite ends, so
    /// each window serves a balanced mix.  On `failover` every job is
    /// streamed.
    fn rotation(&self, rng: &Rng) -> Vec<(usize, usize, bool)> {
        let modes: &[bool] = if self.failover {
            &[true]
        } else {
            &[true, false]
        };
        let mut combos = Vec::new();
        for doc in 0..self.corpus.docs.len() {
            for pattern in 0..self.corpus.patterns.len() {
                combos.extend(modes.iter().map(|&stream| (doc, pattern, stream)));
            }
        }
        let mut r = rng.fork(0x0DE5);
        for i in (1..combos.len()).rev() {
            combos.swap(i, r.below(i + 1));
        }
        combos
    }

    /// Plain jobs carry unbounded limits, the only configuration in which
    /// the runtime may take its chunked path (registerless queries on
    /// documents above `parallel_threshold`); streamed jobs inherit the
    /// service guards.
    pub fn spec(
        &self,
        queries: &[Arc<FusedQuery>],
        doc: usize,
        pattern: usize,
        stream: bool,
    ) -> JobSpec {
        let spec = JobSpec::new(
            queries[pattern].clone(),
            self.corpus.docs[doc].bytes.clone(),
        );
        if stream {
            spec.with_stream()
        } else {
            spec.with_limits(Limits::none())
        }
    }
}

/// The set-up compiles: one fused engine per pool query.
pub fn compile_queries(corpus: &Corpus) -> Vec<Arc<FusedQuery>> {
    let g = gamma();
    corpus
        .patterns
        .iter()
        .map(|p| {
            Arc::new(
                Query::compile(&p.text, &g)
                    .expect("pool query compiles")
                    .into_fused(),
            )
        })
        .collect()
}

/// Panics and corrupt segments only (no stalls), at 2‰ each per 64 KiB
/// segment, from a seed derived from the workload seed.  The fault rolls
/// are a pure function of (seed, job, attempt, segment), so the seed is
/// vetted up front: every job id up to `jobs` must finish within
/// `max_retries` retries, and `accept` must approve the faults each id
/// meets (`faults[i]` for job id `i + 1`).  Each fault fails one attempt,
/// which resumes at the segment that faulted (its checkpoint is the one
/// before it).  Every document has the same length, so a job id's faults
/// do not depend on which document it runs.
pub fn vetted_chaos(
    rng: &Rng,
    segments: u64,
    max_retries: u32,
    jobs: u64,
    accept: impl Fn(&[u64]) -> bool,
) -> ChaosConfig {
    let mut r = rng.clone();
    loop {
        let chaos = ChaosConfig {
            seed: r.next_u64(),
            panic_per_mille: 2,
            stall_per_mille: 0,
            corrupt_per_mille: 2,
            stall_ms: 0,
        };
        // The faults job `job` meets, or `None` if it runs out of retries.
        let faults_of = |job: u64| {
            let (mut attempt, mut seg) = (1u32, 0u64);
            while seg < segments {
                if chaos.roll(job, attempt, seg) == Fault::None {
                    seg += 1;
                } else if attempt > max_retries {
                    return None;
                } else {
                    attempt += 1;
                }
            }
            Some(u64::from(attempt - 1))
        };
        let faults: Option<Vec<u64>> = (1..=jobs).map(faults_of).collect();
        if faults.is_some_and(|f| accept(&f)) {
            return chaos;
        }
    }
}

/// Checks one report against the references.  For a streamed job the
/// ledger's node ids must equal the result, and `emitted_prefix` must
/// return the same ledger.
fn verify(
    rt: &ServeRuntime,
    pool: &Pool,
    id: st_serve::JobId,
    report: &st_serve::JobReport,
    doc: usize,
    pattern: usize,
    stream: bool,
) -> Result<(), String> {
    let want = &pool.corpus.refs[doc][pattern];
    let ids = report
        .result
        .as_ref()
        .map_err(|e| format!("job failed: {e}"))?;
    check(ids, want, "job result")?;
    if stream {
        if report
            .emitted
            .iter()
            .map(|m| m.node)
            .ne(ids.iter().copied())
        {
            return Err("emission ledger differs from the result".to_owned());
        }
        let prefix = rt.emitted_prefix(id, 0).map_err(|e| e.to_string())?;
        if prefix != report.emitted {
            return Err("emitted_prefix differs from the report's ledger".to_owned());
        }
    }
    Ok(())
}

/// Start → set-up compiles → first verified report, as one sample.
pub fn setup_once(pool: &Pool) -> Duration {
    let t0 = Instant::now();
    let rt = ServeRuntime::start(pool.cfg.clone());
    let queries = compile_queries(&pool.corpus);
    let id = rt
        .submit(pool.spec(&queries, 0, 0, true))
        .expect("set-up submit");
    let report = rt.wait(id).expect("set-up wait");
    let took = t0.elapsed();
    verify(&rt, pool, id, &report, 0, 0, true).expect("set-up report is correct");
    rt.shutdown();
    took
}

pub fn setup_samples(pool: &Pool, n: usize) -> Vec<f64> {
    (0..n).map(|_| setup_once(pool).as_secs_f64()).collect()
}

#[derive(Default)]
struct Submitter {
    tally: Tally,
    spans: Vec<Span>,
    submit_us: Vec<f64>,
    streamed_matches: u64,
    jobs: u64,
    chunked: u64,
    resumes: u64,
    retries: u64,
    suppressed: u64,
}

/// Runs the closed loop for `secs` seconds as a series of epochs.  Each
/// epoch starts a fresh runtime and serves the same batch of
/// [`EPOCH_JOBS`] jobs (the rotation, repeated), the submitters pulling
/// the next job from a shared index.  The runtime keeps every finished
/// job's report, so a fresh runtime per epoch keeps the resident set
/// independent of how many jobs a faster build completes in the window;
/// and since every complete epoch serves the identical mix, per-epoch
/// rates compare like with like.
pub fn drive(pool: &Pool, rng: &Rng, secs: f64, trace: bool, phase: u64) -> Outcome {
    let rotation = pool.rotation(&rng.fork(phase));
    let epoch_jobs: Vec<_> = rotation.iter().copied().cycle().take(EPOCH_JOBS).collect();
    let mut subs: Vec<Submitter> = (0..SUBMITTERS).map(|_| Submitter::default()).collect();
    let mut stats = Vec::new();
    let mut streamed_by_epoch = Vec::new();
    let window = Window::open();
    let start = window.start();
    let deadline = start + Duration::from_secs_f64(secs);
    let req = AtomicU64::new(0);
    let mut epochs = Vec::new();
    while Instant::now() < deadline {
        let (t0, cpu0) = (Instant::now(), cpu_time());
        let before: Vec<(usize, u64)> = subs
            .iter()
            .map(|s| (s.tally.latencies_ms.len(), s.tally.bytes_ok))
            .collect();
        let rt = ServeRuntime::start(pool.epoch_cfg(phase * 10_000 + epochs.len() as u64));
        let queries = compile_queries(&pool.corpus);
        let next = AtomicU64::new(0);
        let streamed_before: u64 = subs.iter().map(|s| s.streamed_matches).sum();
        std::thread::scope(|s| {
            for sub in subs.iter_mut() {
                let (rt, queries, next, req, epoch_jobs) =
                    (&rt, &queries, &next, &req, &epoch_jobs);
                s.spawn(move || {
                    while Instant::now() < deadline {
                        let Some(&job) =
                            epoch_jobs.get(next.fetch_add(1, Ordering::SeqCst) as usize)
                        else {
                            break;
                        };
                        let id = req.fetch_add(1, Ordering::SeqCst);
                        one_job(rt, pool, queries, job, start, trace, id, sub);
                    }
                });
            }
        });
        stats.push(rt.shutdown());
        streamed_by_epoch
            .push(subs.iter().map(|s| s.streamed_matches).sum::<u64>() - streamed_before);
        let mut epoch = Epoch {
            start_s: (t0 - start).as_secs_f64(),
            wall_s: t0.elapsed().as_secs_f64(),
            cpu_ms: ms(cpu_time().saturating_sub(cpu0)),
            mb: 0.0,
            latencies_ms: Vec::new(),
            complete: next.load(Ordering::SeqCst) as usize >= epoch_jobs.len(),
        };
        for (sub, (lat, bytes)) in subs.iter().zip(before) {
            epoch.latencies_ms.extend(&sub.tally.latencies_ms[lat..]);
            epoch.mb += (sub.tally.bytes_ok - bytes) as f64 / 1e6;
        }
        epochs.push(epoch);
    }
    let totals = window.close();
    let mut out = Outcome::new(totals);
    out.epochs = epochs;
    let mut submit_us = Vec::new();
    let (mut jobs, mut chunked, mut resumes, mut retries, mut suppressed) = (0, 0, 0, 0, 0);
    for sub in subs {
        out.tally.merge(sub.tally);
        out.spans.push(sub.spans);
        submit_us.extend(sub.submit_us);
        jobs += sub.jobs;
        chunked += sub.chunked;
        resumes += sub.resumes;
        retries += sub.retries;
        suppressed += sub.suppressed;
    }
    // Exactly-once: every streamed job delivered each reference match
    // once, so each runtime's ledger total equals their sum.
    for (st, want) in stats.iter().zip(&streamed_by_epoch) {
        if st.emitted != *want {
            out.tally.wrong(format!(
                "runtime emitted {} matches, the references total {want}",
                st.emitted
            ));
        }
    }
    let total = |f: fn(&st_serve::ServeStats) -> u64| stats.iter().map(f).sum::<u64>();
    let epochs = stats.len() as u64;
    let per_job = |n: u64| n as f64 / jobs.max(1) as f64;
    let c = &mut out.counters;
    c.insert("jobs", jobs as f64);
    c.insert("chunked_ratio", per_job(chunked));
    c.insert("resumes_per_job", per_job(resumes));
    c.insert("retries_per_job", per_job(retries));
    c.insert("suppressed_per_job", per_job(suppressed));
    c.insert("epochs", epochs as f64);
    c.insert("runtime_emitted", total(|s| s.emitted) as f64);
    c.insert("runtime_checkpoints", total(|s| s.checkpoints) as f64);
    c.insert("runtime_resumes", total(|s| s.resumes) as f64);
    c.insert("runtime_retries", total(|s| s.retries) as f64);
    c.insert("runtime_panics", total(|s| s.panics) as f64);
    c.insert("runtime_corruptions", total(|s| s.corruptions) as f64);
    c.insert(
        "runtime_suppressed",
        total(|s| s.emission_suppressed) as f64,
    );
    // The initial pool plus every replacement, per runtime.
    c.insert(
        "workers_spawned",
        total(|s| s.workers_spawned) as f64 / epochs.max(1) as f64,
    );
    out.mix = mix_of(&pool.corpus, &out.tally.samples);
    out.counters
        .insert("submit_us_p50", crate::util::median(&submit_us));
    out
}

#[allow(clippy::too_many_arguments)]
fn one_job(
    rt: &ServeRuntime,
    pool: &Pool,
    queries: &[Arc<FusedQuery>],
    (doc, pattern, stream): (usize, usize, bool),
    epoch: Instant,
    trace: bool,
    req: u64,
    sub: &mut Submitter,
) {
    let bytes = pool.corpus.docs[doc].bytes.len();
    let spec = pool.spec(queries, doc, pattern, stream);
    let t0 = Instant::now();
    let id = match rt.submit(spec) {
        Ok(id) => id,
        Err(e) => return sub.tally.fail(format!("submit: {e}")),
    };
    let t1 = Instant::now();
    let report = match rt.wait(id) {
        Ok(r) => r,
        Err(e) => return sub.tally.fail(format!("wait: {e}")),
    };
    let t2 = Instant::now();
    let verdict = verify(rt, pool, id, &report, doc, pattern, stream);
    let done = Instant::now();
    sub.jobs += 1;
    sub.submit_us.push(us(t1 - t0));
    sub.resumes += u64::from(report.resumes);
    sub.retries += u64::from(report.attempts.saturating_sub(1));
    sub.suppressed += report.suppressed;
    if report.path == PathTaken::Chunked {
        sub.chunked += 1;
    }
    if stream {
        sub.streamed_matches += pool.corpus.refs[doc][pattern].len() as u64;
    }
    match verdict {
        Ok(()) => {
            sub.tally.ok(bytes, secs(t0 - epoch), secs(done - epoch));
            sub.tally.samples.push(Sample {
                doc,
                pattern,
                latency_ms: ms(done - t0),
                kind: if report.path == PathTaken::Chunked {
                    "chunked"
                } else {
                    "session"
                },
                stream,
            });
        }
        Err(e) => sub.tally.wrong(e),
    }
    if trace {
        let at = |t: Instant| us(t - epoch);
        sub.spans
            .push(Span::new(req, "submit", "", at(t0), us(t1 - t0)));
        sub.spans
            .push(Span::new(req, "wait", "", at(t1), us(t2 - t1)));
        sub.spans
            .push(Span::new(req, "verify", "", at(t2), us(done - t2)));
        sub.spans.push(Span::new(
            req,
            "request",
            if stream { "stream" } else { "plain" },
            at(t0),
            us(done - t0),
        ));
    }
}

/// Verified jobs by engine class, streamed or plain, and path taken.
fn mix_of(corpus: &Corpus, samples: &[Sample]) -> BTreeMap<String, u64> {
    let mut mix = BTreeMap::new();
    for s in samples {
        let class = class_slug(corpus.patterns[s.pattern].class);
        let key = format!(
            "{class}/{}/{}",
            if s.stream { "stream" } else { "plain" },
            s.kind
        );
        *mix.entry(key).or_default() += 1;
    }
    mix
}
