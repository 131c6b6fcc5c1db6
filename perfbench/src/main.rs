//! The serving benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload edge-small --seed 1 --seconds 10 --trace 0
//! cargo run --release --manifest-path perfbench/Cargo.toml -- --self-test
//! ```
//!
//! One run generates the workload's inputs from the seed, computes the
//! reference answers, starts the service in-process, drives it for the
//! given number of seconds, checks every reply, and prints a report
//! followed by one JSON result line.  `--trace 0` reports the end-to-end
//! metrics; `--trace 1` reports the per-layer metrics of `layers.rs`.
//! The workloads, metrics and the layer → end-to-end mapping are
//! described in `perfbench/README.md`.

mod edge;
mod inputs;
mod layers;
mod pool;
mod run;
mod util;

use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use edge::Edge;
use inputs::{class_slug, Corpus};
use layers::{Entry, LayerInput};
use pool::Pool;
use run::{Epoch, Outcome, Params};
use util::{median, mix, pct, supported, Metrics, Rng};

pub const WORKLOADS: [&str; 3] = ["edge-small", "pool-large", "failover"];

pub const END_TO_END: [&str; 6] = [
    "setup_s",
    "doc_mb_per_s",
    "latency_p50_ms",
    "latency_p90_ms",
    "cpu_ms_per_mb",
    "peak_rss_mb",
];

pub const PER_LAYER: [&str; 50] = [
    "net.connect_ms_p50",
    "net.upload_us_p50",
    "net.reply_us_p50",
    "net.self_us_p50",
    "net.self_us_p99",
    "net.checkpoints_per_mb",
    "net.match_lag_p50_ms",
    "net.match_lag_p99_ms",
    "runtime.submit_us_p50",
    "runtime.self_ms_p50",
    "runtime.self_ms_p99",
    "runtime.chunked_ratio",
    "runtime.checkpoints_per_mb",
    "runtime.resumes_per_job",
    "runtime.retries_per_job",
    "runtime.suppressed_per_job",
    "runtime.workers_spawned",
    "compile.query_us_p50",
    "compile.query_us_p99",
    "plancache.hit_ratio",
    "plancache.hit_us_p50",
    "queryset.compile_us_p50",
    "queryset.count_all_mb_s",
    "session.feed_mb_s.registerless",
    "session.feed_mb_s.stackless",
    "session.feed_mb_s.stack",
    "session.request_us_p50",
    "session.over_engine.registerless",
    "session.checkpoint_us_p50",
    "session.checkpoint_bytes_max",
    "session.resume_us_p50",
    "emit.frontier_lag_bytes_p50",
    "engine.count_mb_s.registerless",
    "engine.count_mb_s.stackless",
    "engine.count_mb_s.stack",
    "engine.select_mb_s.registerless",
    "engine.select_mb_s.stackless",
    "engine.select_mb_s.stack",
    "engine.parallel_mb_s.registerless",
    "structural.census_gbps",
    "structural.flatten_gbps",
    "structural.indexed_window_ratio",
    "trace.overhead_ratio",
    "ladder.samples",
    "ladder.observed_us_p50",
    "ladder.outer_self_us_p50",
    "ladder.session_self_us_p50",
    "ladder.engine_self_us_p50",
    "ladder.structural_us_p50",
    "ladder.residual_us_p50",
];

/// What one run produced.
pub struct Report {
    pub metrics: Metrics,
    pub attempted: u64,
    pub failed: u64,
    pub compared: u64,
    /// Human-readable lines printed before the result line.
    pub lines: Vec<String>,
}

impl Report {
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.compared > 0
    }

    fn names(trace: bool) -> &'static [&'static str] {
        if trace {
            &PER_LAYER
        } else {
            &END_TO_END
        }
    }

    pub fn result_line(&self, trace: bool) -> String {
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
            self.correct(),
            self.attempted,
            self.failed,
            self.metrics.to_json(Self::names(trace))
        )
    }

    /// Names of expected metrics that are missing or not finite.
    pub fn missing(&self, trace: bool) -> Vec<&'static str> {
        Self::names(trace)
            .iter()
            .copied()
            .filter(|n| !self.metrics.get(n).is_some_and(f64::is_finite))
            .collect()
    }
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>\n       perfbench --self-test",
        WORKLOADS.join("|")
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--self-test") {
        return if self_test() {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        };
    }
    let value = |flag: &str| {
        args.iter()
            .position(|a| a == flag)
            .and_then(|i| args.get(i + 1))
    };
    let (Some(workload), Some(seed), Some(seconds)) =
        (value("--workload"), value("--seed"), value("--seconds"))
    else {
        return usage();
    };
    let (Ok(seed), Ok(seconds)) = (seed.parse::<u64>(), seconds.parse::<f64>()) else {
        return usage();
    };
    if !WORKLOADS.contains(&workload.as_str()) || !seconds.is_finite() || seconds <= 0.0 {
        return usage();
    }
    let params = Params {
        workload: workload.clone(),
        seed,
        seconds,
        trace: value("--trace").is_some_and(|t| t == "1"),
        tiny: false,
        corrupt: false,
    };
    let report = run_workload(&params);
    for line in &report.lines {
        println!("{line}");
    }
    let missing = report.missing(params.trace);
    if !missing.is_empty() {
        eprintln!("metrics missing or not finite: {missing:?}");
    }
    println!("{}", report.result_line(params.trace));
    if report.correct() && missing.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// The runs' common shape: set-up samples, a warm-up window, the
/// measured window, and (traced) a traced window plus the layer figures.
pub fn run_workload(p: &Params) -> Report {
    let rng = Rng::new(mix(p.seed));
    let warm = if p.tiny { 0.1 } else { 0.5 };
    let mut lines = vec![format!(
        "# workload {} seed {} seconds {} trace {}",
        p.workload,
        p.seed,
        p.seconds,
        u8::from(p.trace)
    )];
    let budget = Duration::from_secs_f64(if p.tiny { 0.02 } else { 0.15 });
    let started = Instant::now();
    let mut windows: Vec<Outcome> = Vec::new();
    let (measured, traced, setup, corpus_lines, layer_metrics);
    if p.workload == "edge-small" {
        let mut edge = Edge::prepare(&rng, p.tiny);
        if p.corrupt {
            edge.corpus.corrupt_reference(1, 0);
        }
        corpus_lines = describe(&edge.corpus);
        lines.push(format!(
            "# inputs generated and verified in {:.2} s",
            started.elapsed().as_secs_f64()
        ));
        setup = edge::setup_samples(&edge, if p.tiny { 5 } else { 41 });
        let (_, server) = edge::setup_once(&edge);
        windows.push(edge::drive(&edge, &server, &rng, warm, false, 0));
        let before = edge::server_counters(&server);
        let secs = if p.trace { p.seconds / 2.0 } else { p.seconds };
        let mut out = edge::drive(&edge, &server, &rng, secs, false, 1);
        let after = edge::server_counters(&server);
        out.counters
            .insert("plan_cache_hits", (after.0 - before.0) as f64);
        out.counters
            .insert("plan_cache_misses", (after.1 - before.1) as f64);
        out.counters
            .insert("net_checkpoints", (after.2 - before.2) as f64);
        traced = p
            .trace
            .then(|| edge::drive(&edge, &server, &rng, secs, true, 2));
        layer_metrics = p.trace.then(|| {
            let mut m = Metrics::default();
            let serve_cfg = st_serve::ServeConfig::default()
                .with_workers(pool::nproc())
                .with_budget(edge::service_budget(&edge.corpus, 2));
            layers::measure(
                &LayerInput {
                    corpus: &edge.corpus,
                    entry: Entry::Net,
                    serve_cfg,
                    feed_chunk: edge::CHUNK,
                    workload: &out,
                    server: Some(&server),
                    budget,
                    reps: if p.tiny { 1 } else { 3 },
                    max_samples: if p.tiny { 4 } else { 24 },
                },
                &mut m,
            );
            m
        });
        server.shutdown();
        measured = out;
    } else {
        let mut pool = Pool::prepare(&rng, p.workload == "failover", p.tiny);
        if p.corrupt {
            pool.corpus.corrupt_reference(1, 0);
        }
        corpus_lines = describe(&pool.corpus);
        lines.push(format!(
            "# inputs generated and verified in {:.2} s",
            started.elapsed().as_secs_f64()
        ));
        if let Some(chaos) = &pool.cfg.chaos {
            lines.push(format!(
                "# chaos seed {:#018x}: panic {}‰, corrupt {}‰ per {} KiB segment, no stalls",
                chaos.seed,
                chaos.panic_per_mille,
                chaos.corrupt_per_mille,
                pool.cfg.checkpoint_every >> 10
            ));
        }
        setup = pool::setup_samples(&pool, if p.tiny { 3 } else { 7 });
        windows.push(pool::drive(&pool, &rng, warm, false, 0));
        let secs = if p.trace { p.seconds / 2.0 } else { p.seconds };
        let out = pool::drive(&pool, &rng, secs, false, 1);
        traced = p.trace.then(|| pool::drive(&pool, &rng, secs, true, 2));
        layer_metrics = p.trace.then(|| {
            let mut m = Metrics::default();
            layers::measure(
                &LayerInput {
                    corpus: &pool.corpus,
                    entry: Entry::Runtime,
                    serve_cfg: pool.cfg.clone(),
                    feed_chunk: pool.cfg.checkpoint_every,
                    workload: &out,
                    server: None,
                    budget,
                    reps: if p.tiny { 1 } else { 2 },
                    max_samples: 9,
                },
                &mut m,
            );
            m
        });
        measured = out;
    }
    lines.extend(corpus_lines);

    let mut m = Metrics::default();
    let t = &measured.tally;
    // Throughput, CPU cost, resident-set peak and latency are medians
    // over units of equal work, so a short stall on a shared host moves
    // them little: the window's one-second slices on the edge, whole
    // epochs in the pool (the same batch of jobs each).  Latency
    // percentiles, too, are each unit's own, then the median over units:
    // pooled over the window, a few slow seconds on a shared host filled
    // the pool's top decile and moved its p90 by a fifth.
    let complete: Vec<&Epoch> = measured.epochs.iter().filter(|e| e.complete).collect();
    let (rates, cpu, rss, p50s, p90s): (Vec<f64>, Vec<f64>, Vec<f64>, Vec<f64>, Vec<f64>);
    if complete.is_empty() {
        let slices = measured.slices();
        rss = slices.iter().map(|s| s.peak_rss_mb).collect();
        rates = slices.iter().map(|s| s.mb_per_s).collect();
        cpu = slices.iter().map(|s| s.cpu_ms_per_mb).collect();
        p50s = slices.iter().map(|s| s.p50_ms).collect();
        p90s = slices.iter().map(|s| s.p90_ms).collect();
    } else {
        rss = complete
            .iter()
            .map(|e| measured.totals.peak_rss_mb(e.start_s, e.start_s + e.wall_s))
            .collect();
        rates = complete.iter().map(|e| e.mb / e.wall_s).collect();
        cpu = complete.iter().map(|e| e.cpu_ms / e.mb).collect();
        p50s = complete.iter().map(|e| pct(&e.latencies_ms, 0.5)).collect();
        p90s = complete.iter().map(|e| pct(&e.latencies_ms, 0.9)).collect();
    }
    let lat = &t.latencies_ms;
    m.put("setup_s", median(&setup), "s");
    m.put("doc_mb_per_s", median(&rates), "MB/s");
    m.put("latency_p50_ms", median(&p50s), "ms");
    m.put("latency_p90_ms", median(&p90s), "ms");
    m.put("cpu_ms_per_mb", median(&cpu), "ms/MB");
    m.put("peak_rss_mb", median(&rss), "MB");

    lines.push(format!(
        "# set-up: {} samples, median {:.4} s (min {:.4}, max {:.4})",
        setup.len(),
        median(&setup),
        pct(&setup, 0.0),
        pct(&setup, 1.0)
    ));
    lines.push(format!(
        "# window {:.2} s: {} requests, {} compared, {} failed (failed_ratio {:.4}), {:.1} MB verified",
        measured.totals.wall.as_secs_f64(),
        t.attempted,
        t.compared,
        t.failed,
        t.failed as f64 / t.attempted.max(1) as f64,
        measured.mb()
    ));
    lines.push(format!("# latency: {}", percentiles(lat, "ms")));
    let unit = if complete.is_empty() {
        "one-second slice"
    } else {
        "complete epoch"
    };
    let list = |v: &[f64]| {
        v.iter()
            .map(|r| format!("{r:.1}"))
            .collect::<Vec<_>>()
            .join(" ")
    };
    lines.push(format!(
        "# MB/s per {unit}: {} (whole window {:.2})",
        list(&rates),
        measured.mb_per_s()
    ));
    lines.push(format!("# latency p90 per {unit}: {} ms", list(&p90s)));
    if !measured.lags_ms.is_empty() {
        lines.push(format!(
            "# match lag per STREAMQUERY chunk: {}",
            percentiles(&measured.lags_ms, "ms")
        ));
    }
    lines.push(format!("# request mix served: {}", mix_line(&measured.mix)));
    for (k, v) in &measured.counters {
        lines.push(format!("# counter {k}: {v}"));
    }
    for e in &t.errors {
        lines.push(format!("# error: {e}"));
    }
    for (name, (v, unit)) in &m.values {
        lines.push(format!("{name} = {v:.6} {unit}"));
    }

    if let (Some(traced), Some(layer)) = (&traced, layer_metrics) {
        m = layer;
        m.put(
            "trace.overhead_ratio",
            measured.mb_per_s() / traced.mb_per_s(),
            "ratio",
        );
        lines.push(format!(
            "# traced window: {} requests, {:.1} MB/s (untraced {:.1} MB/s), {} spans",
            traced.tally.attempted,
            traced.mb_per_s(),
            measured.mb_per_s(),
            traced.spans.iter().map(Vec::len).sum::<usize>()
        ));
        if let Some(path) = write_spans(p, traced) {
            lines.push(format!("# spans written to {path}"));
        }
        lines.extend(ladder_lines(
            &m,
            if p.workload == "edge-small" {
                "net"
            } else {
                "runtime"
            },
        ));
        for name in PER_LAYER {
            if let Some(v) = m.get(name) {
                let unit = m.values[name].1;
                lines.push(format!("{name} = {v:.6} {unit}"));
            }
        }
    }

    let all = windows
        .iter()
        .chain(std::iter::once(&measured))
        .chain(traced.as_ref());
    let (mut attempted, mut failed, mut compared) = (0, 0, 0);
    for w in all {
        attempted += w.tally.attempted;
        failed += w.tally.failed;
        compared += w.tally.compared;
        for e in &w.tally.errors {
            eprintln!("error: {e}");
        }
    }
    lines.push(format!(
        "# run took {:.2} s",
        started.elapsed().as_secs_f64()
    ));
    Report {
        metrics: m,
        attempted,
        failed,
        compared,
        lines,
    }
}

fn percentiles(v: &[f64], unit: &str) -> String {
    let mut s = format!("n={} p50={:.4}{unit}", v.len(), pct(v, 0.5));
    for q in [0.9, 0.99, 0.999] {
        if supported(v.len(), q) {
            let _ = write!(s, " p{}={:.4}{unit}", q * 100.0, pct(v, q));
        }
    }
    s
}

fn mix_line(mix: &std::collections::BTreeMap<String, u64>) -> String {
    mix.iter()
        .map(|(k, v)| format!("{k}={v}"))
        .collect::<Vec<_>>()
        .join(" ")
}

fn describe(corpus: &Corpus) -> Vec<String> {
    let mut lines = Vec::new();
    for (i, d) in corpus.docs.iter().enumerate() {
        lines.push(format!(
            "# doc {i} {}: {} bytes, {} nodes, depth {}",
            d.shape,
            d.bytes.len(),
            d.nodes,
            d.depth
        ));
    }
    let mut classes = std::collections::BTreeMap::new();
    for p in &corpus.patterns {
        *classes.entry(class_slug(p.class)).or_insert(0) += 1;
    }
    lines.push(format!(
        "# {} patterns ({}); most popular: {}",
        corpus.patterns.len(),
        classes
            .iter()
            .map(|(k, v)| format!("{k} {v}"))
            .collect::<Vec<_>>()
            .join(", "),
        corpus
            .patterns
            .iter()
            .take(5)
            .map(|p| p.text.as_str())
            .collect::<Vec<_>>()
            .join("  ")
    ));
    lines
}

/// The median per-request breakdown of the ladder, outermost first.
fn ladder_lines(m: &Metrics, outer: &str) -> Vec<String> {
    let get = |k: &str| m.get(k).unwrap_or(f64::NAN);
    vec![
        format!(
            "# ladder ({} samples, medians in µs; each layer's self time is its replay minus the replay below):",
            get("ladder.samples")
        ),
        format!(
            "#   observed {:.1} = {outer} self {:.1} + session self {:.1} + engine {:.1} + structural {:.1} + residual {:.1}",
            get("ladder.observed_us_p50"),
            get("ladder.outer_self_us_p50"),
            get("ladder.session_self_us_p50"),
            get("ladder.engine_self_us_p50"),
            get("ladder.structural_us_p50"),
            get("ladder.residual_us_p50"),
        ),
        "#   (medians of per-sample differences need not add up exactly; the residual is what load and the mix add)".to_owned(),
    ]
}

/// Writes the traced window's spans as JSON lines under `.bench_out/`.
fn write_spans(p: &Params, traced: &Outcome) -> Option<String> {
    let dir = std::path::Path::new(".bench_out");
    std::fs::create_dir_all(dir).ok()?;
    let path = dir.join(format!("spans-{}-seed{}.jsonl", p.workload, p.seed));
    let mut body = String::new();
    for (thread, spans) in traced.spans.iter().enumerate() {
        for s in spans {
            body.push_str(&s.to_json(thread));
            body.push('\n');
        }
    }
    std::fs::write(&path, body).ok()?;
    Some(path.display().to_string())
}

/// Every workload briefly at tiny scale on two fixed seeds, both modes:
/// every named metric must be present and finite and replies must have
/// been compared.  Then the mutation check: with one reference
/// corrupted, each workload must report wrong answers.
fn self_test() -> bool {
    let mut ok = true;
    for seed in [7, 8] {
        for workload in WORKLOADS {
            for trace in [false, true] {
                let params = Params {
                    workload: workload.to_owned(),
                    seed,
                    seconds: 0.4,
                    trace,
                    tiny: true,
                    corrupt: false,
                };
                let r = run_workload(&params);
                let missing = r.missing(trace);
                let pass = r.correct() && missing.is_empty();
                println!(
                    "self-test {workload} seed {seed} trace {}: {} ({} compared, {} failed, missing {missing:?})",
                    u8::from(trace),
                    if pass { "ok" } else { "FAIL" },
                    r.compared,
                    r.failed
                );
                if !pass {
                    for l in &r.lines {
                        println!("  {l}");
                    }
                }
                ok &= pass;
            }
        }
    }
    for workload in WORKLOADS {
        let params = Params {
            workload: workload.to_owned(),
            seed: 7,
            seconds: 0.4,
            trace: false,
            tiny: true,
            corrupt: true,
        };
        let r = run_workload(&params);
        let caught = !r.correct() && r.failed > 0;
        println!(
            "self-test mutation {workload}: corrupted reference {} ({} failed of {})",
            if caught { "caught" } else { "NOT caught" },
            r.failed,
            r.attempted
        );
        ok &= caught;
    }
    println!("self-test {}", if ok { "passed" } else { "FAILED" });
    ok
}
