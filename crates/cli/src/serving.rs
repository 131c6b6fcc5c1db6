//! `stql serve` / `stql batch`: the supervised serving runtime on the
//! command line.
//!
//! * `serve` multiplexes many documents over one worker pool with
//!   checkpoint failover, admission control, and per-request reports
//!   (attempts, resumes, path taken); `--chaos` switches to the seeded
//!   fault-injection soak and exits non-zero on any contract violation,
//!   writing a reproducer file.
//! * `batch` is the tabular variant: one `count<TAB>file` line per
//!   document, errors inline, for piping into sort/awk.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use st_serve::{
    run_soak, JobSpec, ServeConfig, ServeRuntime, ServeStats, ServiceBudget, SoakConfig,
};
use stackless_streamed_trees::prelude::{Alphabet, ObsHandle, Query};

use crate::{flag_value, parse_query, select_limits};

/// Flags that consume the next argument; everything else that does not
/// start with `--` is a positional (query, then files).
const VALUE_FLAGS: &[&str] = &[
    "--workers",
    "--queue",
    "--cadence",
    "--retries",
    "--alphabet",
    "--max-depth",
    "--max-bytes",
    "--time-budget",
    "--max-in-flight",
    "--seed",
    "--requests",
    "--panic",
    "--stall",
    "--corrupt",
    "--stall-ms",
    "--stall-timeout",
    "--reproducer",
    "--metrics-out",
    "--metrics-every",
];

fn positionals(args: &[String]) -> Vec<&String> {
    let mut out = Vec::new();
    let mut i = 0;
    while i < args.len() {
        let a = &args[i];
        if VALUE_FLAGS.contains(&a.as_str()) {
            i += 2;
        } else if a.starts_with("--") {
            i += 1;
        } else {
            out.push(a);
            i += 1;
        }
    }
    out
}

fn parse_num(args: &[String], flag: &str, default: u64) -> Result<u64, String> {
    match flag_value(args, flag) {
        None => Ok(default),
        Some(v) => v.parse().map_err(|e| format!("bad {flag} {v:?}: {e}")),
    }
}

/// Builds the pool configuration shared by `serve` and `batch`.
fn serve_config(args: &[String], obs: &ObsHandle) -> Result<ServeConfig, String> {
    let d = ServeConfig::default();
    let mut budget = ServiceBudget::default().with_session_limits(select_limits(args)?);
    if let Some(v) = flag_value(args, "--max-in-flight") {
        budget = budget.with_max_in_flight_bytes(
            v.parse()
                .map_err(|e| format!("bad --max-in-flight {v:?}: {e}"))?,
        );
    }
    Ok(d.clone()
        .with_workers(parse_num(args, "--workers", d.workers as u64)? as usize)
        .with_queue_capacity(parse_num(args, "--queue", d.queue_capacity as u64)? as usize)
        .with_checkpoint_every(parse_num(args, "--cadence", d.checkpoint_every as u64)? as usize)
        .with_max_retries(parse_num(args, "--retries", d.max_retries as u64)? as u32)
        .with_budget(budget)
        .with_obs(obs.clone()))
}

/// The `--metrics-out` sink: an enabled handle whose snapshot is dumped
/// periodically (every `--metrics-every` ms) and flushed at exit; or a
/// disabled no-op handle when the flag is absent.
pub(crate) struct MetricsSink {
    pub(crate) obs: ObsHandle,
    path: Option<String>,
    stop: Arc<AtomicBool>,
    dumper: Option<JoinHandle<()>>,
}

impl MetricsSink {
    pub(crate) fn from_args(args: &[String]) -> Result<MetricsSink, String> {
        let Some(path) = flag_value(args, "--metrics-out") else {
            return Ok(MetricsSink {
                obs: ObsHandle::disabled(),
                path: None,
                stop: Arc::new(AtomicBool::new(true)),
                dumper: None,
            });
        };
        let every_ms = parse_num(args, "--metrics-every", 1000)?.max(10);
        let obs = ObsHandle::new();
        let stop = Arc::new(AtomicBool::new(false));
        let (obs2, path2, stop2) = (obs.clone(), path.to_owned(), stop.clone());
        let dumper = std::thread::Builder::new()
            .name("stql-metrics-dump".to_owned())
            .spawn(move || {
                // Tick in short steps so exit (stop flag) is prompt even
                // with a long dump interval.
                let mut since_dump = 0u64;
                while !stop2.load(Ordering::SeqCst) {
                    std::thread::sleep(Duration::from_millis(10));
                    since_dump += 10;
                    if since_dump >= every_ms {
                        since_dump = 0;
                        let _ = std::fs::write(&path2, obs2.snapshot().to_json());
                    }
                }
            })
            .expect("spawn metrics dump thread");
        Ok(MetricsSink {
            obs,
            path: Some(path.to_owned()),
            stop,
            dumper: Some(dumper),
        })
    }

    /// Stops the periodic dumper and writes the final snapshot.
    pub(crate) fn flush(mut self) -> Result<(), String> {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(h) = self.dumper.take() {
            let _ = h.join();
        }
        if let Some(path) = &self.path {
            std::fs::write(path, self.obs.snapshot().to_json())
                .map_err(|e| format!("cannot write {path}: {e}"))?;
            eprintln!("metrics snapshot written to {path}");
        }
        Ok(())
    }
}

/// Compiles `query` against `path`'s document into a pool request.  Each
/// file may carry its own alphabet, so each gets its own fused engine.
fn prepare(query: &str, path: &str, args: &[String]) -> Result<JobSpec, String> {
    if !path.ends_with(".xml") {
        return Err(format!("{path}: the serving runtime takes .xml documents"));
    }
    let bytes = std::fs::read(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let alphabet = match flag_value(args, "--alphabet") {
        Some(sigma) => {
            Alphabet::from_symbols(sigma.split(',')).map_err(|e| format!("bad alphabet: {e}"))?
        }
        None => {
            st_trees::xml::parse_document(&bytes)
                .map_err(|e| format!("{path}: cannot infer alphabet: {e}"))?
                .0
        }
    };
    let q = parse_query(query, &alphabet)?;
    let compiled =
        Query::from_dfa(&q.dfa, &alphabet).map_err(|e| format!("cannot fuse query: {e}"))?;
    Ok(JobSpec::new(Arc::new(compiled.into_fused()), bytes))
}

fn print_stats(stats: &ServeStats) {
    eprintln!("pool: {stats}");
}

pub(crate) fn cmd_serve(args: &[String]) -> Result<(), String> {
    if args.iter().any(|a| a == "--chaos") {
        return cmd_chaos(args);
    }
    let pos = positionals(args);
    let (query, files) = pos
        .split_first()
        .filter(|(_, files)| !files.is_empty())
        .ok_or("serve needs a query and at least one file (or --chaos)")?;
    let count_only = args.iter().any(|a| a == "--count");
    let sink = MetricsSink::from_args(args)?;
    let runtime = ServeRuntime::start(serve_config(args, &sink.obs)?);

    // Admit everything first (blocking on queue space, so nothing is
    // shed), then collect reports in submission order.
    let mut admitted = Vec::new();
    for path in files {
        let outcome = prepare(query, path, args).and_then(|spec| {
            runtime
                .submit_blocking(spec)
                .map_err(|e| format!("refused ({e})"))
        });
        admitted.push((path, outcome));
    }
    let mut failed = 0usize;
    for (path, outcome) in admitted {
        match outcome {
            Err(message) => {
                println!("{path}: {message}");
                failed += 1;
            }
            Ok(id) => {
                let report = runtime.wait(id).map_err(|e| e.to_string())?;
                match report.result {
                    Ok(matches) => {
                        let path_taken = match report.path {
                            st_serve::PathTaken::Chunked => "chunked",
                            st_serve::PathTaken::Session => "session",
                        };
                        println!(
                            "{path}: {} match(es) [{path_taken}, {} attempt(s), {} resume(s)]",
                            matches.len(),
                            report.attempts,
                            report.resumes
                        );
                        if !count_only {
                            for id in matches {
                                println!("  {id}");
                            }
                        }
                    }
                    Err(e) => {
                        println!("{path}: {e}");
                        failed += 1;
                    }
                }
            }
        }
    }
    print_stats(&runtime.shutdown());
    sink.flush()?;
    if failed > 0 {
        Err(format!("{failed} request(s) failed"))
    } else {
        Ok(())
    }
}

pub(crate) fn cmd_batch(args: &[String]) -> Result<(), String> {
    let pos = positionals(args);
    let (query, files) = pos
        .split_first()
        .filter(|(_, files)| !files.is_empty())
        .ok_or("batch needs a query and at least one file")?;
    let sink = MetricsSink::from_args(args)?;
    let runtime = ServeRuntime::start(serve_config(args, &sink.obs)?);
    let mut admitted = Vec::new();
    for path in files {
        let outcome = prepare(query, path, args)
            .and_then(|spec| runtime.submit_blocking(spec).map_err(|e| e.class()));
        admitted.push((path, outcome));
    }
    let mut failed = 0usize;
    for (path, outcome) in admitted {
        let cell = match outcome {
            Ok(id) => {
                let report = runtime.wait(id).map_err(|e| e.to_string())?;
                match report.result {
                    Ok(matches) => matches.len().to_string(),
                    Err(e) => {
                        failed += 1;
                        format!("ERR({})", e.class())
                    }
                }
            }
            Err(class) => {
                failed += 1;
                format!("ERR({class})")
            }
        };
        println!("{cell}\t{path}");
    }
    print_stats(&runtime.shutdown());
    sink.flush()?;
    if failed > 0 {
        Err(format!("{failed} request(s) failed"))
    } else {
        Ok(())
    }
}

/// `stql serve --chaos`: the deterministic fault-injection soak.  Every
/// completed request must match a clean (fault-free) run and the DOM
/// oracle; every failed request must carry a typed, chaos-attributable
/// error.  Any violation exits non-zero, writes a reproducer, and prints
/// the supervisor-decision trace of each losing request as a post-mortem.
fn cmd_chaos(args: &[String]) -> Result<(), String> {
    let seed = parse_num(args, "--seed", 42)?;
    // Chaos always records: the trace ring is the post-mortem on a
    // divergence, and the counters feed --metrics-out when requested.
    let sink = MetricsSink::from_args(args)?;
    let obs = if sink.obs.is_enabled() {
        sink.obs.clone()
    } else {
        ObsHandle::new()
    };
    let d = SoakConfig::new(seed);
    let cfg = d
        .clone()
        .with_requests(parse_num(args, "--requests", d.requests)?)
        .with_workers(parse_num(args, "--workers", d.workers as u64)? as usize)
        .with_checkpoint_every(parse_num(args, "--cadence", d.checkpoint_every as u64)? as usize)
        .with_max_retries(parse_num(args, "--retries", d.max_retries as u64)? as u32)
        .with_fault_rates(
            parse_num(args, "--panic", d.panic_per_mille as u64)? as u16,
            parse_num(args, "--stall", d.stall_per_mille as u64)? as u16,
            parse_num(args, "--corrupt", d.corrupt_per_mille as u64)? as u16,
        )
        .with_stall_profile(
            parse_num(args, "--stall-ms", d.stall_ms)?,
            parse_num(args, "--stall-timeout", d.stall_timeout_ms)?,
        )
        .with_obs(obs.clone());
    eprintln!(
        "chaos soak: seed {seed}, {} request(s), {} worker(s), cadence {} byte(s), \
         rates {}/{}/{} per mille (panic/stall/corrupt)",
        cfg.requests,
        cfg.workers,
        cfg.checkpoint_every,
        cfg.panic_per_mille,
        cfg.stall_per_mille,
        cfg.corrupt_per_mille
    );
    let report = run_soak(&cfg);
    eprintln!(
        "outcomes: {} completed, {} chaos casualties, {} clean rejections, {} skipped",
        report.completed, report.chaos_casualties, report.clean_rejections, report.skipped
    );
    print_stats(&report.stats);
    sink.flush()?;
    if report.ok() {
        println!(
            "contract holds: {}/{} completed requests match the fault-free runs",
            report.completed,
            report.outcomes.len()
        );
        return Ok(());
    }
    // Post-mortem: the structured trace of every losing request — what
    // the supervisor saw and decided, attempt by attempt.
    for div in &report.divergences {
        let Some(job) = div.job else { continue };
        eprintln!(
            "--- trace of losing request {} (job {job}) ---",
            div.request
        );
        for record in obs.trace_for_job(job) {
            eprintln!("  {record}");
        }
    }
    let text = report.reproducer(seed);
    match flag_value(args, "--reproducer") {
        Some(path) => {
            std::fs::write(path, &text).map_err(|e| format!("cannot write {path}: {e}"))?;
            eprintln!("reproducer written to {path}");
        }
        None => eprint!("{text}"),
    }
    Err(format!(
        "{} divergence(s) from the recovery contract",
        report.divergences.len()
    ))
}
