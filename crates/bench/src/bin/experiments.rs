//! Experiment harness: regenerates every paper artifact as console tables.
//!
//! Run with `cargo run --release -p st-bench --bin experiments`; the output
//! is the source of EXPERIMENTS.md.  With `--json [path]` it instead runs
//! the throughput matrix (fixed seeds) and writes it as JSON (default
//! `BENCH_throughput.json`) — the machine-readable artifact CI uploads.

use std::hint::black_box;
use std::time::Instant;

use st_automata::pairs::MeetMode;
use st_automata::{compile_regex, Alphabet, Letter, Tag};
use st_baseline::{scan, StackEvaluator};
use st_bench::{chain_workload, gamma, records_workload, standard_workloads};
use st_core::analysis::Analysis;
use st_core::classify::classify_mode;
use st_core::model::{preselect, DraProgram, TagDfaProgram};
use st_core::planner::{CompiledQuery, Strategy};
use st_core::{classify, dtd, fooling, har, papers, registerless, term};
use st_trees::xml::Scanner;
use stackless_streamed_trees::prelude::{Limits, ObsHandle, Query};
use stackless_streamed_trees::serve::{
    JobSpec, NetClient, NetConfig, NetResponse, NetServer, ServeConfig, ServeRuntime,
};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if let Some(i) = args.iter().position(|a| a == "--json") {
        let path = args
            .get(i + 1)
            .filter(|p| !p.starts_with('-'))
            .map(String::as_str)
            .unwrap_or("BENCH_throughput.json");
        write_throughput_json(path);
        return;
    }
    if args.iter().any(|a| a == "--check-sets") {
        // CI gate: an 8-member registerless set's shared pass must stay
        // within a fixed multiple of one member's single-query pass.
        if !check_sets() {
            eprintln!("FAIL: the 8-member set costs more than {SET_RATIO_BAR}x one member");
            std::process::exit(1);
        }
        return;
    }
    if args.iter().any(|a| a == "--check-obs-overhead") {
        // CI gate: only the observability-overhead experiment, exiting
        // non-zero when the no-op handle costs more than the 2% budget.
        if !e19c_obs_overhead(true) {
            eprintln!("FAIL: no-op observability overhead exceeds the 2% budget");
            std::process::exit(1);
        }
        return;
    }
    println!("# Stackless Processing of Streamed Trees — experiment harness");
    println!("# (paper: Barloy, Murlak, Paperman; PODS 2021)");
    println!();
    e1_table_2_12();
    e21_term_table();
    e2_fig2_gap();
    e3_fig3_verdicts();
    e4_fig6_dtd();
    e8_to_e12_fooling();
    e18_rpqness();
    e19_throughput();
    e19_limits_overhead();
    e19c_obs_overhead(false);
    e22_structural_index();
    e23_multi_query();
    e24_net_throughput();
    e24b_emission_latency();
    e20_memory();
}

/// The E23 query mix: 16 almost-reversible patterns over Γ = {a,b,c}
/// (every `x.*y` pair, the three `x.*` prefixes, `.*`, and three
/// repeats — realistic workloads re-ask popular queries): all
/// registerless, so at the default budget they step as one markup
/// product.
fn multi_patterns() -> Vec<String> {
    let mut out = Vec::new();
    for x in ["a", "b", "c"] {
        for y in ["a", "b", "c"] {
            out.push(format!("{x}.*{y}"));
        }
    }
    for x in ["a", "b", "c"] {
        out.push(format!("{x}.*"));
    }
    out.push(".*".to_owned());
    for p in ["a.*b", "b.*c", "c.*"] {
        out.push(p.to_owned());
    }
    assert_eq!(out.len(), 16);
    out
}

/// The mixed-class 8-query set over Γ = {a,b,c}: three registerless
/// (`x.*y`, `c.*`), three stackless (`ab`, `ba`, `.*a.*b`) and two stack
/// members (`.*ab`, `.*bc`), so the set groups every engine class.
const HYBRID_PATTERNS: [&str; 8] = ["a.*b", "b.*c", "c.*", "ab", "ba", ".*a.*b", ".*ab", ".*bc"];

/// Eight members of one engine class each, over Γ: at the default
/// budget the registerless ones step as one markup product, the stack
/// ones as one stack product, the stackless ones as eight HAR lanes.
const CLASS_SETS: [(&str, [&str; 8]); 3] = [
    (
        "registerless",
        ["a.*b", "a.*c", "b.*a", "b.*c", "c.*a", "c.*b", "a.*", "b.*"],
    ),
    (
        "stack",
        [
            ".*ab", ".*ba", ".*bc", ".*cb", ".*ac", ".*ca", ".*aa", ".*bb",
        ],
    ),
    (
        "stackless",
        ["ab", "ba", "bc", "cb", "ac", "ca", ".*a.*b", ".*b.*c"],
    ),
];

/// Median µs per call of `a` and of `b`, timed in `batches` interleaved
/// batches of `reps` calls each (`a`'s batch, then `b`'s), so that a
/// drift of the host's speed reaches both alike.
fn paired_medians(
    batches: usize,
    reps: u32,
    mut a: impl FnMut(),
    mut b: impl FnMut(),
) -> (f64, f64) {
    let time = |f: &mut dyn FnMut()| {
        let start = Instant::now();
        for _ in 0..reps {
            f();
        }
        start.elapsed().as_secs_f64() * 1e6 / f64::from(reps)
    };
    let (mut ta, mut tb) = (Vec::new(), Vec::new());
    for _ in 0..batches {
        ta.push(time(&mut a));
        tb.push(time(&mut b));
    }
    let median = |mut v: Vec<f64>| {
        v.sort_by(f64::total_cmp);
        v[v.len() / 2]
    };
    (median(ta), median(tb))
}

/// A set of eight members against its first member alone on `xml`:
/// medians of 31 interleaved batches of the set's `count_all` and the
/// member's `count_bytes`, in µs per call.
fn set_against_one(members: &[&str], xml: &[u8]) -> (f64, f64) {
    let g = gamma();
    let set = st_core::QuerySet::compile(members, &g).unwrap();
    let one = Query::compile(members[0], &g).unwrap();
    assert_eq!(set.count_all(xml).unwrap()[0], one.count(xml).unwrap());
    paired_medians(
        31,
        20,
        || {
            black_box(set.count_all(black_box(xml)).unwrap());
        },
        || {
            black_box(one.fused().count_bytes(black_box(xml)).unwrap());
        },
    )
}

/// The `--check-sets` bar on `count_all` of the 8-member registerless set
/// ÷ `count_bytes` of one member on the ~42 KB `mixed` document.  An A/A
/// calibration (one build, eight runs on a shared 2-vCPU VM) read the
/// ratio at 1.77–1.79 with the packed set step; eight runs of the build
/// before it, interleaved with those, read 2.83–3.88.  The bar sits 26%
/// above the calibrated spread and below every reading of the old step.
const SET_RATIO_BAR: f64 = 2.25;

/// CI gate: the 8-member registerless product's shared pass against one
/// member's single-query pass on the ~42 KB `mixed` document.
fn check_sets() -> bool {
    let mixed = standard_workloads(6_000).remove(1);
    let (set, one) = set_against_one(&CLASS_SETS[0].1, &mixed.xml);
    let ratio = set / one;
    println!(
        "8 registerless members: count_all {set:.1} µs, one member's count_bytes {one:.1} µs: \
         {ratio:.2}x (bar {SET_RATIO_BAR}x)"
    );
    ratio <= SET_RATIO_BAR
}

/// Median wall time of `f` in microseconds over 200 runs after one warm
/// run: compiles are sub-millisecond and one-off, so the median (not a
/// best batch) is the honest price of one.
fn median_us(mut f: impl FnMut()) -> f64 {
    f();
    let mut times: Vec<f64> = (0..200)
        .map(|_| {
            let start = Instant::now();
            f();
            start.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    times.sort_by(f64::total_cmp);
    times[times.len() / 2]
}

/// The compile ledger, in µs: one fresh [`Query::compile`] per planner
/// class (regex → DFA → plan → fuse, with the alphabet's lexer live, as
/// on a serving edge), and the 8-query hybrid set compiled fresh from
/// its patterns vs built from plan-cache hits.
fn compile_series(g: &Alphabet) -> Vec<(String, f64)> {
    let _live_lexer = Query::compile("a", g).unwrap();
    let mut series = Vec::new();
    for pattern in ["a.*b", ".*a.*b", ".*ab"] {
        let slug = strategy_slug(Query::compile(pattern, g).unwrap().strategy());
        series.push((
            format!("compile_query/{slug}"),
            median_us(|| {
                black_box(Query::compile(black_box(pattern), g).unwrap());
            }),
        ));
    }
    series.push((
        "compile_set_fresh/8q".to_owned(),
        median_us(|| {
            black_box(st_core::QuerySet::compile(&HYBRID_PATTERNS, g).unwrap());
        }),
    ));
    let cache = st_core::PlanCache::new(64);
    series.push((
        "compile_set_plans/8q".to_owned(),
        median_us(|| {
            let plans: Vec<_> = HYBRID_PATTERNS
                .iter()
                .map(|p| cache.get_or_plan(p, g).unwrap())
                .collect();
            let members = HYBRID_PATTERNS
                .iter()
                .map(|p| Some(*p))
                .zip(plans.iter().map(|p| &**p));
            let set = st_core::QuerySet::from_plans(members, g, st_core::DEFAULT_PRODUCT_BUDGET);
            black_box(set);
        }),
    ));
    series
}

/// The pool ledger, in µs: submit→wait latency through a quiet 1-worker
/// [`ServeRuntime`], p50 and p99, for plain jobs (depth-guarded, so the
/// session path, not the chunked one) and for streamed jobs, over the
/// one `.*a.*b` query.  Each mode runs on its own runtime: 8 warm-up
/// jobs, then 128 MiB of document's worth of jobs, clamped to 64–1 000.
fn pool_series(g: &Alphabet, xml: &[u8]) -> Vec<(String, f64)> {
    let plan = CompiledQuery::compile(&compile_regex(".*a.*b", g).unwrap());
    let query = std::sync::Arc::new(plan.fused(g).unwrap());
    let doc = std::sync::Arc::new(xml.to_vec());
    let runs = ((128 << 20) / xml.len()).clamp(64, 1000);
    let mut series = Vec::new();
    for stream in [false, true] {
        let pool = ServeRuntime::start(ServeConfig::default().with_workers(1));
        let job = || {
            let spec = JobSpec::new(query.clone(), doc.clone());
            if stream {
                spec.with_stream()
            } else {
                spec.with_limits(Limits::none().with_max_depth(1 << 20))
            }
        };
        let mut times: Vec<f64> = (0..runs + 8)
            .map(|_| {
                let start = Instant::now();
                let id = pool.submit(job()).unwrap();
                black_box(pool.wait(id).unwrap().result.unwrap());
                start.elapsed().as_secs_f64() * 1e6
            })
            .skip(8)
            .collect();
        pool.shutdown();
        times.sort_by(f64::total_cmp);
        let mode = if stream { "streamed" } else { "plain" };
        series.push((format!("{mode}_p50"), times[times.len() / 2]));
        series.push((format!("{mode}_p99"), times[times.len() * 99 / 100]));
    }
    series
}

/// Throughput of one operation in gigabits per second over `bytes` of
/// input: warm once, then take the best of twenty 25 ms batches.  A
/// single long window under-reports badly on shared machines (one
/// scheduler stall poisons the whole budget); the peak batch rate is
/// stable run to run and is what the committed artifact records.
fn gbit_per_s(bytes: usize, mut f: impl FnMut()) -> f64 {
    f();
    let mut best = 0.0f64;
    for _ in 0..20 {
        let start = Instant::now();
        let mut reps = 0u32;
        loop {
            f();
            reps += 1;
            if start.elapsed().as_millis() >= 25 {
                break;
            }
        }
        let rate = (bytes as f64 * f64::from(reps) * 8.0) / start.elapsed().as_secs_f64() / 1e9;
        best = best.max(rate);
    }
    best
}

/// The alphabet in the comma-separated form the wire protocol carries.
fn net_alphabet_csv(g: &Alphabet) -> String {
    (0..g.len())
        .map(|i| g.symbol(Letter(i as u32)))
        .collect::<Vec<_>>()
        .join(",")
}

/// E24 measurement core: one loopback listener, one document, and one
/// rate per service mode.  Each closure iteration is a complete request
/// (upload in 16 KiB chunks, evaluate, reply), so the rates price the
/// whole front end — framing, plan lookup, the checkpointed session,
/// and the reply — not just the engine.  Returns the series in Gb/s of
/// document bytes uploaded, plus the plan-cache counters from the
/// hit-path and miss-path servers.
fn net_series(
    xml: &[u8],
    csv: &str,
) -> (
    Vec<(String, f64)>,
    st_core::plancache::PlanCacheStats,
    st_core::plancache::PlanCacheStats,
) {
    let chunk = 16 * 1024;
    let mut out: Vec<(String, f64)> = Vec::new();

    let server = NetServer::bind("127.0.0.1:0", NetConfig::default()).expect("bind loopback");
    let addr = server.local_addr().to_string();

    // Correctness before timing: the plain reply, the streamed parts,
    // and the local fused engine must agree on this document.
    {
        let g = gamma();
        let mut warm = NetClient::connect(&addr).expect("connect");
        let plain = match warm.query("a.*b", csv, xml, chunk).unwrap() {
            NetResponse::Matches(ids) => ids,
            other => panic!("unexpected plain reply: {other:?}"),
        };
        let streamed = match warm.stream_query("a.*b", csv, xml, chunk, |_| {}).unwrap() {
            NetResponse::StreamMatches { ids, .. } => ids,
            other => panic!("unexpected stream reply: {other:?}"),
        };
        assert_eq!(plain, streamed, "streamed ids must equal the plain reply");
        let local = Query::compile("a.*b", &g).unwrap();
        assert_eq!(plain.len(), local.fused().count_bytes(xml).unwrap());
    }

    // Keep-alive connection re-asking one hot pattern: the steady state
    // of a monitoring client, and all plan-cache hits after the first.
    {
        let mut c = NetClient::connect(&addr).expect("connect");
        out.push((
            "net_keepalive_hit/a.*b".to_owned(),
            gbit_per_s(xml.len(), || {
                black_box(c.query("a.*b", csv, black_box(xml), chunk).unwrap());
            }),
        ));
        // The earliest-emission protocol on the same connection: one
        // MATCH_PART read in lock step with every uploaded chunk, the
        // final reply verified against the delivered parts.
        out.push((
            "net_stream/a.*b".to_owned(),
            gbit_per_s(xml.len(), || {
                let r = c
                    .stream_query("a.*b", csv, black_box(xml), chunk, |batch| {
                        black_box(batch);
                    })
                    .unwrap();
                black_box(r);
            }),
        ));
    }
    // A fresh TCP connect per request: what ephemeral clients pay.
    out.push((
        "net_cold_connect/a.*b".to_owned(),
        gbit_per_s(xml.len(), || {
            let mut c = NetClient::connect(&addr).expect("connect");
            black_box(c.query("a.*b", csv, black_box(xml), chunk).unwrap());
        }),
    ));
    // Four keep-alive connections uploading concurrently; the rate is
    // aggregate bytes across all four.
    {
        let mut pool: Vec<NetClient> = (0..4)
            .map(|_| NetClient::connect(&addr).expect("connect"))
            .collect();
        out.push((
            "net_parallel_4/a.*b".to_owned(),
            gbit_per_s(4 * xml.len(), || {
                std::thread::scope(|s| {
                    for c in &mut pool {
                        s.spawn(move || {
                            black_box(c.query("a.*b", csv, black_box(xml), chunk).unwrap());
                        });
                    }
                });
            }),
        ));
    }
    let hit_stats = server.plan_cache().stats();

    // Plan-cache misses: a capacity-one cache with two alternating
    // patterns evicts on every lookup, so each request pays a full
    // compile (parse, determinize, classify, build the byte engine).
    let miss_server = NetServer::bind(
        "127.0.0.1:0",
        NetConfig::default().with_plan_cache_capacity(1),
    )
    .expect("bind loopback");
    let miss_addr = miss_server.local_addr().to_string();
    {
        let mut c = NetClient::connect(&miss_addr).expect("connect");
        let mut flip = false;
        out.push((
            "net_keepalive_miss/alternating".to_owned(),
            gbit_per_s(xml.len(), || {
                flip = !flip;
                let p = if flip { "a.*b" } else { ".*a.*b" };
                black_box(c.query(p, csv, black_box(xml), chunk).unwrap());
            }),
        ));
    }
    let miss_stats = miss_server.plan_cache().stats();
    (out, hit_stats, miss_stats)
}

fn strategy_slug(s: Strategy) -> &'static str {
    match s {
        Strategy::Registerless => "registerless",
        Strategy::Stackless => "stackless",
        Strategy::Stack => "stack",
    }
}

/// The machine-readable throughput matrix: every strategy × workload in
/// gigabits per second, both the event pipeline from bytes (tokenize,
/// then evaluate) and the fused single-pass byte engines, under fixed
/// seeds so successive runs are comparable.
fn write_throughput_json(path: &str) {
    let g = gamma();
    let patterns = ["a.*b", "ab", ".*a.*b", ".*ab"];
    let threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);

    // Guards that run on every event but never fire on these documents.
    let session_guards = Limits::none()
        .with_max_depth(1 << 20)
        .with_max_imbalance(1 << 20);

    let mut workload_objects: Vec<String> = Vec::new();
    // `ledger`: the ~40 KB shapes also record the compile ledger, the
    // edge's 16 KiB session series and the mixed-class 8-query series.  The mixed shapes also record the pool
    // ledger.
    let mut measure_workload = |name: &str, nodes: usize, depth: u32, xml: &[u8], ledger: bool| {
        let mut series: Vec<(String, f64)> = Vec::new();
        series.push((
            "scan".to_owned(),
            gbit_per_s(xml.len(), || {
                black_box(scan::count_byte(black_box(xml), b'<'));
            }),
        ));
        series.push((
            "tokenize".to_owned(),
            gbit_per_s(xml.len(), || {
                let mut events = 0usize;
                for e in Scanner::new(black_box(xml), &g) {
                    e.unwrap();
                    events += 1;
                }
                black_box(events);
            }),
        ));
        for pattern in patterns {
            let query = Query::compile(pattern, &g).unwrap();
            let plan = query.plan();
            let fused = query.fused();
            let slug = strategy_slug(query.strategy());
            series.push((
                format!("events_{slug}/{pattern}"),
                gbit_per_s(xml.len(), || {
                    let tags: Vec<Tag> = Scanner::new(black_box(xml), &g)
                        .collect::<Result<_, _>>()
                        .unwrap();
                    black_box(plan.count(&tags));
                }),
            ));
            series.push((
                format!("fused_{slug}/{pattern}"),
                gbit_per_s(xml.len(), || {
                    black_box(fused.count_bytes(black_box(xml)).unwrap());
                }),
            ));
            series.push((
                format!("select_{slug}/{pattern}"),
                gbit_per_s(xml.len(), || {
                    black_box(fused.select_bytes(black_box(xml)).unwrap());
                }),
            ));
            // The streamed session as a serving worker runs it: 64 KiB
            // feeds under depth/imbalance guards, the emitted matches
            // drained and a checkpoint minted after every feed.
            series.push((
                format!("session_stream_{slug}/{pattern}"),
                gbit_per_s(xml.len(), || {
                    let mut session = fused.session(session_guards.clone());
                    let mut emitted = 0usize;
                    for feed in black_box(xml).chunks(64 << 10) {
                        session.feed(feed).unwrap();
                        emitted += session.drain_emitted().len();
                        black_box(session.checkpoint().unwrap());
                    }
                    black_box(session.finish().unwrap());
                    black_box(emitted);
                }),
            ));
            // The edge's per-request path: one 16 KiB feed per CHUNK,
            // the emitted matches drained after each, and a checkpoint
            // once 64 KiB have passed (none, on a ~40 KB document).
            if ledger {
                series.push((
                    format!("session_16k_{slug}/{pattern}"),
                    gbit_per_s(xml.len(), || {
                        let mut session = fused.session(session_guards.clone());
                        let (mut emitted, mut since) = (0usize, 0usize);
                        for feed in black_box(xml).chunks(16 << 10) {
                            session.feed(feed).unwrap();
                            emitted += session.drain_emitted().len();
                            since += feed.len();
                            if since >= 64 << 10 {
                                since = 0;
                                black_box(session.checkpoint().unwrap());
                            }
                        }
                        black_box(session.finish().unwrap());
                        black_box(emitted);
                    }),
                ));
            }
            // The forced-scalar reference: the same structural scan
            // with certification off, so every tag goes through the
            // byte-at-a-time lexer excursion; kept in the matrix so the
            // artifact itself records the structural-index speedup.
            let scalar_query = Query::compile(pattern, &g).unwrap().with_force_scalar(true);
            let scalar_fused = scalar_query.fused();
            series.push((
                format!("fused_scalar_{slug}/{pattern}"),
                gbit_per_s(xml.len(), || {
                    black_box(scalar_fused.count_bytes(black_box(xml)).unwrap());
                }),
            ));
            if fused.byte_dfa().is_some() && threads > 1 {
                series.push((
                    format!("fused_parallel_{slug}/{pattern}"),
                    gbit_per_s(xml.len(), || {
                        black_box(fused.count_bytes_parallel(black_box(xml), threads).unwrap());
                    }),
                ));
            }
        }
        // E23: one shared pass answering 16 queries vs 16 sequential
        // fused passes, at the default budget (one markup product) and
        // at budget 0 (the family table); the series keep their names.
        let multi = multi_patterns();
        let product_set = st_core::QuerySet::compile(&multi, &g).unwrap();
        let lanes_set = st_core::QuerySet::compile_with_budget(&multi, &g, 0).unwrap();
        let singles: Vec<Query> = multi
            .iter()
            .map(|p| Query::compile(p, &g).unwrap())
            .collect();
        series.push((
            "multi_shared_product/16q".to_owned(),
            gbit_per_s(xml.len(), || {
                black_box(product_set.count_all(black_box(xml)).unwrap());
            }),
        ));
        series.push((
            "multi_shared_lanes/16q".to_owned(),
            gbit_per_s(xml.len(), || {
                black_box(lanes_set.count_all(black_box(xml)).unwrap());
            }),
        ));
        series.push((
            "multi_sequential/16q".to_owned(),
            gbit_per_s(xml.len(), || {
                for q in &singles {
                    black_box(q.fused().count_bytes(black_box(xml)).unwrap());
                }
            }),
        ));
        let mut ledgers = String::new();
        if ledger {
            let hybrid_set = st_core::QuerySet::compile(&HYBRID_PATTERNS, &g).unwrap();
            series.push((
                "multi_hybrid/8q".to_owned(),
                gbit_per_s(xml.len(), || {
                    black_box(hybrid_set.count_all(black_box(xml)).unwrap());
                }),
            ));
            // A MULTIQUERY as the edge runs it: the mixed-class set in a
            // session, 16 KiB feeds under service-like guards, with its
            // per-member match lists.
            let edge_guards = Limits::none()
                .with_max_depth(depth as usize * 2 + 16)
                .with_max_imbalance(16)
                .with_max_bytes(xml.len() * 2);
            series.push((
                "multi_session_edge8/8q".to_owned(),
                gbit_per_s(xml.len(), || {
                    let mut session = hybrid_set.session(edge_guards.clone());
                    for feed in black_box(xml).chunks(16 << 10) {
                        session.feed(feed).unwrap();
                    }
                    black_box(session.finish().unwrap());
                }),
            ));
            let times = compile_series(&g)
                .iter()
                .map(|(k, v)| format!("        \"{k}\": {v:.2}"))
                .collect::<Vec<_>>()
                .join(",\n");
            ledgers = format!(",\n      \"compile_us\": {{\n{times}\n      }}");
        }
        if matches!(name, "mixed" | "mixed_4mib") {
            let times = pool_series(&g, xml)
                .iter()
                .map(|(k, v)| format!("        \"{k}\": {v:.1}"))
                .collect::<Vec<_>>()
                .join(",\n");
            ledgers += &format!(",\n      \"pool_us\": {{\n{times}\n      }}");
        }
        let rates = series
            .iter()
            .map(|(k, v)| format!("        \"{k}\": {v:.4}"))
            .collect::<Vec<_>>()
            .join(",\n");
        let gbit = format!("      \"gbit_per_s\": {{\n{rates}\n      }}");
        workload_objects.push(format!(
            "    {{\n      \"workload\": \"{name}\",\n      \"bytes\": {bytes},\n      \"nodes\": {nodes},\n      \"depth\": {depth},\n{gbit}{ledgers}\n    }}",
            bytes = xml.len(),
        ));
    };

    // ~40 KB standard shapes (fixed seeds 101/202/303 in st-bench).
    for w in standard_workloads(6_000) {
        measure_workload(w.name, w.nodes, w.depth, &w.xml, true);
    }
    // A ~4 MiB document of the mixed shape, beyond the caches the
    // ~40 KB shapes fit in.
    let large = st_trees::generate::random_attachment(&g, 600_000, 0.5, 202);
    let large_xml = st_trees::xml::write_document(&large, &g).into_bytes();
    measure_workload("mixed_4mib", large.len(), large.height(), &large_xml, false);
    // The deep chain where stack memory hurts; fused DRA stays constant.
    let chain = chain_workload(100_000);
    measure_workload("deep_chain", chain.nodes, chain.depth, &chain.xml, false);

    // E24: the same artifact records the network front-end on loopback
    // (one ~40 KB standard workload; Gb/s of document bytes uploaded
    // per complete request through the frame protocol).
    let net_workload = standard_workloads(6_000).remove(1);
    let csv = net_alphabet_csv(&g);
    let (net, _, _) = net_series(&net_workload.xml, &csv);
    let net_rates = net
        .iter()
        .map(|(k, v)| format!("      \"{k}\": {v:.4}"))
        .collect::<Vec<_>>()
        .join(",\n");
    let net_object = format!(
        "  \"net\": {{\n    \"workload\": \"{}\",\n    \"bytes\": {},\n    \"gbit_per_s\": {{\n{net_rates}\n    }}\n  }},",
        net_workload.name,
        net_workload.xml.len(),
    );

    let json = format!(
        "{{\n  \"experiment\": \"throughput\",\n  \"unit\": \"gigabits per second of XML input\",\n  \"threads\": {threads},\n  \"workload_seeds\": [101, 202, 303],\n{net_object}\n  \"workloads\": [\n{}\n  ]\n}}\n",
        workload_objects.join(",\n")
    );
    std::fs::write(path, &json).expect("write throughput json");
    eprintln!("wrote {path}");
}

fn tick(b: bool) -> &'static str {
    if b {
        "yes"
    } else {
        "no "
    }
}

/// E1: Example 2.12's table under the markup encoding.
fn e1_table_2_12() {
    println!("## E1 — Example 2.12 (markup encoding)");
    println!(
        "{:<10} {:<10} {:<10} {:<14} {:<10}",
        "XPath", "JSONPath", "RegEx", "registerless", "stackless"
    );
    for row in papers::table_2_12() {
        println!(
            "{:<10} {:<10} {:<10} {:<14} {:<10}",
            row.xpath,
            row.jsonpath,
            row.regex_display,
            tick(row.report.query_registerless()),
            tick(row.report.query_stackless()),
        );
    }
    println!();
}

/// E21: the same table under the term encoding (Section 4.2).
fn e21_term_table() {
    println!("## E21 — Example 2.12 under the term encoding (Section 4.2)");
    println!(
        "{:<10} {:<18} {:<14}",
        "RegEx", "term-registerless", "term-stackless"
    );
    for row in papers::table_2_12() {
        println!(
            "{:<10} {:<18} {:<14}",
            row.regex_display,
            tick(row.report.query_term_registerless()),
            tick(row.report.query_term_stackless()),
        );
    }
    println!();
}

/// E2: Fig. 2 / Section 4.2 — the cost of succinctness.
fn e2_fig2_gap() {
    println!("## E2 — Fig. 2's language (even number of a's): markup vs term");
    let analysis = Analysis::new(&papers::fig2());
    let report = classify(&analysis);
    println!(
        "markup:  registerless={} stackless={}",
        tick(report.query_registerless()),
        tick(report.query_stackless())
    );
    println!(
        "term:    registerless={} stackless={}   (\"this is the cost of succinctness\")",
        tick(report.query_term_registerless()),
        tick(report.query_term_stackless())
    );
    println!();
}

/// E3: Fig. 3's four languages, full verdict matrix.
fn e3_fig3_verdicts() {
    println!("## E3 — Fig. 3 verdict matrix (markup)");
    println!(
        "{:<10} {:<8} {:<18} {:<8} {:<8} {:<8}",
        "language", "states", "almost-reversible", "HAR", "E-flat", "A-flat"
    );
    for which in [
        papers::Fig3::A,
        papers::Fig3::B,
        papers::Fig3::C,
        papers::Fig3::D,
    ] {
        let dfa = papers::fig3(which);
        let analysis = Analysis::new(&dfa);
        let v = classify_mode(&analysis, MeetMode::Synchronous);
        println!(
            "{:<10} {:<8} {:<18} {:<8} {:<8} {:<8}",
            which.caption(),
            dfa.n_states(),
            tick(v.almost_reversible.holds),
            tick(v.har.holds),
            tick(v.e_flat.holds),
            tick(v.a_flat.holds),
        );
    }
    println!();
}

/// E4: Fig. 6 — flatness must be checked after determinization.
fn e4_fig6_dtd() {
    println!("## E4 — Fig. 6 specialized DTD");
    let sdtd = dtd::fig6_dtd();
    let minimal = sdtd.minimal_path_dfa();
    let analysis = Analysis::new(&minimal);
    let v = classify_mode(&analysis, MeetMode::Synchronous);
    println!(
        "minimal path automaton: {} states; A-flat after minimization: {}",
        minimal.n_states(),
        tick(v.a_flat.holds)
    );
    println!("(the raw nondeterministic automaton looks A-flat — Fig. 6's warning)");
    println!();
}

/// E8–E12: fooling constructions.
fn e8_to_e12_fooling() {
    println!("## E8–E12 — fooling constructions");
    let g = gamma();
    let (a, b, c) = (
        g.letter("a").unwrap(),
        g.letter("b").unwrap(),
        g.letter("c").unwrap(),
    );

    // E10: Fig. 4 (Lemma 3.12) on the non-E-flat language `ab`.
    let analysis = Analysis::new(&compile_regex("ab", &g).unwrap());
    let pair = fooling::eflat_fooling_pair(&analysis, 3).expect("ab is not E-flat");
    println!(
        "E10 Fig.4 pair for L=ab: |S|={} |S'|={} nodes; S in EL: {}; defeats DFAs with <= {} states",
        pair.original.len(),
        pair.pumped.len(),
        pair.original_in_language,
        pair.defeats_n_states
    );

    // E12: Fig. 7 (Appendix B) on Fig. 2's language.
    let g2 = Alphabet::of_chars("ab");
    let analysis2 = Analysis::new(&compile_regex("(b*ab*a)*b*", &g2).unwrap());
    let pair2 = term::blind_eflat_fooling_pair(&analysis2, 3)
        .expect("Fig. 2's language is not blindly E-flat");
    println!(
        "E12 Fig.7 blind pair: |S|={} |S'|={} nodes; S in EL: {}",
        pair2.original.len(),
        pair2.pumped.len(),
        pair2.original_in_language
    );

    // E8: Example 2.9 — strict patterns fool the non-strict matcher.
    let fam = fooling::family(fooling::FamilyKind::StrictPattern, 6, a, b, c);
    let pattern = st_core::pattern::parse_pattern("b{b{a{}c{}}c{}}", &g).unwrap();
    let program = st_core::pattern::PatternProgram::new(&pattern).unwrap();
    match fooling::pigeonhole_fool(&program, &fam) {
        Some(demo) => println!(
            "E8  Example 2.9: pigeonhole found flags {:?} vs {:?} (flag {}), memberships {:?}, program says {} for both",
            demo.flags_a, demo.flags_b, demo.differing_flag, demo.in_language, demo.program_verdict
        ),
        None => println!("E8  Example 2.9: no collision at this size (increase flags)"),
    }

    // E9: Example 2.10 — sibling combinations fool a compiled DRA.
    let fam = fooling::family(fooling::FamilyKind::TripleSiblings, 7, a, b, c);
    let analysis3 = Analysis::new(&compile_regex(".*a.*b", &g).unwrap());
    let dra = har::compile_query_markup(&analysis3).unwrap();
    match fooling::pigeonhole_fool(&dra, &fam) {
        Some(demo) => println!(
            "E9  Example 2.10: HAR program ({} registers) conflated docs of {} tags, memberships {:?}",
            dra.n_registers(),
            demo.doc_a.len(),
            demo.in_language
        ),
        None => println!("E9  Example 2.10: no collision at this size"),
    }
    println!();
}

/// E18: bounded Proposition 2.13.
fn e18_rpqness() {
    println!("## E18 — Proposition 2.13 (bounded RPQ-ness check)");
    let g = Alphabet::of_chars("ab");
    let analysis = Analysis::new(&compile_regex(".*a.*b", &g).unwrap());
    let program = har::compile_query_markup(&analysis).unwrap();
    let report = st_core::rpqness::bounded_rpq_check(&program, &g, 5);
    println!(
        "compiled HAR program for G*aG*b is a path query on all trees with <= {} nodes: {}",
        report.max_nodes,
        tick(report.path_query_up_to_bound)
    );
    println!();
}

fn mbps(bytes: usize, elapsed: std::time::Duration) -> f64 {
    bytes as f64 / elapsed.as_secs_f64() / 1e6
}

fn time<R>(f: impl FnOnce() -> R) -> (R, std::time::Duration) {
    let start = Instant::now();
    let r = f();
    (r, start.elapsed())
}

/// E19: quick throughput ladder (use `cargo bench` for rigorous numbers).
fn e19_throughput() {
    println!("## E19 — throughput ladder (MB/s over XML bytes; quick measurement)");
    let g = gamma();
    let reps = 8usize;
    for w in standard_workloads(120_000) {
        let total = w.xml.len() * reps;
        let (_, d_scan) = time(|| {
            let mut acc = 0usize;
            for _ in 0..reps {
                acc += scan::count_byte(&w.xml, b'<');
            }
            acc
        });
        let (_, d_tok) = time(|| {
            let mut acc = 0usize;
            for _ in 0..reps {
                acc += st_trees::xml::Scanner::new(&w.xml, &g)
                    .inspect(|e| assert!(e.is_ok(), "well-formed"))
                    .count();
            }
            acc
        });
        let pattern = ".*a.*b";
        let analysis = Analysis::new(&compile_regex(pattern, &g).unwrap());
        let dra = har::compile_query_markup(&analysis).unwrap();
        let (_, d_dra) = time(|| {
            let mut acc = 0usize;
            for _ in 0..reps {
                acc += dra.count(&w.tags);
            }
            acc
        });
        let (_, d_stack) = time(|| {
            let mut acc = 0usize;
            for _ in 0..reps {
                acc += StackEvaluator::count_selected(&analysis.dfa, &w.tags);
            }
            acc
        });
        let ar = Analysis::new(&compile_regex("a.*b", &g).unwrap());
        let q = registerless::compile_query_markup(&ar).unwrap();
        let prog = TagDfaProgram::new(&q);
        let (_, d_dfa) = time(|| {
            let mut acc = 0usize;
            for _ in 0..reps {
                acc += preselect(&prog, &w.tags).unwrap().len();
            }
            acc
        });
        // Fused byte engines: one pass over the raw XML, no event
        // materialization — the E19 columns the fused engine competes in.
        let fused_dfa = Query::compile("a.*b", &g).unwrap().into_fused();
        let (_, d_fused_dfa) = time(|| {
            let mut acc = 0usize;
            for _ in 0..reps {
                acc += fused_dfa.count_bytes(&w.xml).unwrap();
            }
            acc
        });
        let fused_dra = Query::compile(pattern, &g).unwrap().into_fused();
        let (_, d_fused_dra) = time(|| {
            let mut acc = 0usize;
            for _ in 0..reps {
                acc += fused_dra.count_bytes(&w.xml).unwrap();
            }
            acc
        });
        println!(
            "{:<6} ({} nodes, depth {:>5}): scan {:>8.1} | tokenize {:>8.1} | DFA(aG*b) {:>8.1} | fused-DFA {:>8.1} | DRA(G*aG*b) {:>8.1} | fused-DRA {:>8.1} | stack {:>8.1}",
            w.name,
            w.nodes,
            w.depth,
            mbps(total, d_scan),
            mbps(total, d_tok),
            mbps(total, d_dfa),
            mbps(total, d_fused_dfa),
            mbps(total, d_dra),
            mbps(total, d_fused_dra),
            mbps(total, d_stack),
        );
    }
    println!(
        "(DFA/DRA/stack columns step pre-tokenized tags; fused columns are end-to-end \
         from raw bytes — compare them against the tokenize∘automaton serial composition)"
    );
    // Records workload end to end (tokenize + query), the intro's scenario.
    let w = records_workload(50_000, 12);
    let galpha = Alphabet::from_symbols(["doc", "record", "name", "value", "item"]).unwrap();
    let dfa = st_rpq::PathQuery::from_xpath("//record//name", &galpha)
        .unwrap()
        .dfa;
    let analysis = Analysis::new(&dfa);
    let dra = har::compile_query_markup(&analysis).unwrap();
    let (selected, d) = time(|| {
        let mut runner = st_core::model::DraRunner::new(&dra).unwrap();
        let mut selected = 0usize;
        for e in st_trees::xml::Scanner::new(&w.xml, &galpha) {
            let tag = e.expect("well-formed");
            if runner.step(tag) && tag.is_open() {
                selected += 1;
            }
        }
        selected
    });
    println!(
        "records ({} nodes): tokenize+query //record//name = {:.1} MB/s, {} nodes selected",
        w.nodes,
        mbps(w.xml.len(), d),
        selected
    );
    println!();
}

/// E19b: resource guards on the fused hot loop.  Byte/time budgets are
/// checked once per window; depth/imbalance are tracked on tag events
/// and checked once per 4 KiB index window.  For the DRA/stack engines
/// the guards vanish in the register loop (the bar is a ≤2% regression);
/// the indexed fused-DFA sweep is so lean that the per-event depth
/// tracking costs a visible fraction of its throughput — the bar there
/// is that the guarded loop beats both the scalar engine and the
/// pre-index guarded loop (~300 MB/s) outright.
fn e19_limits_overhead() {
    println!("## E19b — fused throughput with resource guards (MB/s; overhead vs unguarded)");
    let g = gamma();
    let reps = 8usize;
    // Roomy budgets: every guard is armed, none ever fires.
    let limits = st_core::session::Limits::none()
        .with_max_depth(1 << 24)
        .with_max_bytes(1 << 40)
        .with_max_imbalance(1 << 24);
    for w in standard_workloads(120_000) {
        let total = w.xml.len() * reps;
        for (name, pattern) in [("fused-DFA", "a.*b"), ("fused-DRA", ".*a.*b")] {
            let fused = Query::compile(pattern, &g).unwrap().into_fused();
            // Alternate the two measurements and keep the best of several
            // trials each: the quick harness runs on shared machines, and
            // a single pair is dominated by scheduler noise.
            let mut d_plain = std::time::Duration::MAX;
            let mut d_guarded = std::time::Duration::MAX;
            for _ in 0..7 {
                let (plain_n, d1) = time(|| {
                    let mut acc = 0usize;
                    for _ in 0..reps {
                        acc += fused.count_bytes(&w.xml).unwrap();
                    }
                    acc
                });
                let (guarded_n, d2) = time(|| {
                    let mut acc = 0usize;
                    for _ in 0..reps {
                        acc += fused.count_bytes_limited(&w.xml, &limits).unwrap();
                    }
                    acc
                });
                assert_eq!(plain_n, guarded_n, "guards must not change answers");
                d_plain = d_plain.min(d1);
                d_guarded = d_guarded.min(d2);
            }
            let plain = mbps(total, d_plain);
            let guarded = mbps(total, d_guarded);
            println!(
                "{:<6} {:<9}: unguarded {:>8.1} | guarded {:>8.1} | overhead {:>+6.2}%",
                w.name,
                name,
                plain,
                guarded,
                (plain / guarded - 1.0) * 100.0,
            );
        }
    }
    println!();
}

/// E19c: observability on the fused hot loop.  The engine records
/// per-run totals (bytes, events, matches) once per call — never per
/// byte — so the disabled (no-op) handle must track the uninstrumented
/// entry point within noise.  The acceptance bar is ≤2% overhead on the
/// E19-style fused-count runs; `--check-obs-overhead` turns the bar into
/// an exit code for CI.
fn e19c_obs_overhead(check: bool) -> bool {
    println!("## E19c — fused throughput with a no-op observability handle (MB/s)");
    let g = gamma();
    let reps = 8usize;
    let noop = ObsHandle::disabled();
    let mut ok = true;
    for w in standard_workloads(120_000) {
        let total = w.xml.len() * reps;
        for (name, pattern) in [("fused-DFA", "a.*b"), ("fused-DRA", ".*a.*b")] {
            let query = Query::compile(pattern, &g).unwrap();
            // Alternate and keep the best of several trials, as in E19b:
            // scheduler noise dominates any single pair.
            let mut d_plain = std::time::Duration::MAX;
            let mut d_observed = std::time::Duration::MAX;
            for _ in 0..7 {
                let (plain_n, d1) = time(|| {
                    let mut acc = 0usize;
                    for _ in 0..reps {
                        acc += query.count(&w.xml).unwrap();
                    }
                    acc
                });
                let (observed_n, d2) = time(|| {
                    let mut acc = 0usize;
                    for _ in 0..reps {
                        acc += query.fused().count_bytes_observed(&w.xml, &noop).unwrap();
                    }
                    acc
                });
                assert_eq!(plain_n, observed_n, "observation must not change answers");
                d_plain = d_plain.min(d1);
                d_observed = d_observed.min(d2);
            }
            let plain = mbps(total, d_plain);
            let observed = mbps(total, d_observed);
            let overhead = (plain / observed - 1.0) * 100.0;
            ok &= overhead <= 2.0;
            println!(
                "{:<6} {:<9}: bare {:>8.1} | no-op obs {:>8.1} | overhead {:>+6.2}%{}",
                w.name,
                name,
                plain,
                observed,
                overhead,
                if check && overhead > 2.0 {
                    "  <-- OVER BUDGET"
                } else {
                    ""
                }
            );
        }
    }
    println!();
    ok
}

/// E22: the structural index — two-pass SIMD scan vs the scalar fused
/// loop.  Prices each layer of the indexed pipeline (raw bitmap census,
/// position flattening, the sink-free certified sweep, the full fused
/// count) against the forced-scalar engine on the same ~40 KB standard
/// workloads E19 uses, and reports how many 4 KiB windows certified
/// cleanly.  The acceptance bar is indexed ≥ 3× scalar.
fn e22_structural_index() {
    use st_core::structural::{
        simd_kernel, structural_census, structural_flatten_census, ScanStats,
    };
    println!("## E22 — structural index: SIMD two-pass vs scalar fused loop (Gb/s)");
    println!("kernel: {}", simd_kernel());
    let g = gamma();
    for w in standard_workloads(6_000) {
        let query = Query::compile("a.*b", &g).unwrap();
        let fused = query.fused();
        let dfa = fused.byte_dfa().expect("a.*b compiles registerless");
        let scalar_query = Query::compile("a.*b", &g).unwrap().with_force_scalar(true);
        let scalar_fused = scalar_query.fused();
        let census = gbit_per_s(w.xml.len(), || {
            black_box(structural_census(black_box(&w.xml)));
        });
        let flatten = gbit_per_s(w.xml.len(), || {
            black_box(structural_flatten_census(black_box(&w.xml)));
        });
        let sweep = gbit_per_s(w.xml.len(), || {
            black_box(dfa.probe_events_noop(black_box(&w.xml)));
        });
        let indexed = gbit_per_s(w.xml.len(), || {
            black_box(fused.count_bytes(black_box(&w.xml)).unwrap());
        });
        let scalar = gbit_per_s(w.xml.len(), || {
            black_box(scalar_fused.count_bytes(black_box(&w.xml)).unwrap());
        });
        let mut stats = ScanStats::default();
        fused.count_bytes_stats(&w.xml, &mut stats).unwrap();
        println!(
            "{:<6}: census {:>6.2} | flatten {:>6.2} | sweep {:>5.2} | indexed {:>5.2} | scalar {:>5.2} | speedup {:>4.1}x | windows {}/{} indexed",
            w.name,
            census,
            flatten,
            sweep,
            indexed,
            scalar,
            indexed / scalar,
            stats.simd_windows,
            stats.simd_windows + stats.fallback_windows,
        );
    }
    println!(
        "(census/flatten price the bitmap passes alone; sweep adds certification and \
         striding with a no-op sink; indexed is the full fused count from raw bytes)"
    );
    println!();
}

/// E23: shared multi-query evaluation — one byte pass answering N=16
/// queries vs 16 sequential fused passes over the same document, on the
/// standard workloads.  Reports the set at the default budget (its
/// members step as one markup product) and at budget 0 (they step
/// through the family table); the acceptance bar is shared-product ≥ 4×
/// sequential.
fn e23_multi_query() {
    use st_core::QuerySet;
    println!("## E23 — shared multi-query pass vs 16 sequential passes (Gb/s)");
    let g = gamma();
    let patterns = multi_patterns();
    let product = QuerySet::compile(&patterns, &g).unwrap();
    let lanes = QuerySet::compile_with_budget(&patterns, &g, 0).unwrap();
    let singles: Vec<Query> = patterns
        .iter()
        .map(|p| Query::compile(p, &g).unwrap())
        .collect();
    println!(
        "{} markup letters; default budget: {}; budget 0: {}",
        2 * g.len(),
        product.grouping(),
        lanes.grouping(),
    );
    for w in standard_workloads(6_000) {
        // Correctness cross-check before timing anything.
        let shared_counts = product.count_all(&w.xml).unwrap();
        let lane_counts = lanes.count_all(&w.xml).unwrap();
        let single_counts: Vec<usize> = singles
            .iter()
            .map(|q| q.fused().count_bytes(&w.xml).unwrap())
            .collect();
        assert_eq!(shared_counts, single_counts);
        assert_eq!(lane_counts, single_counts);

        let shared = gbit_per_s(w.xml.len(), || {
            black_box(product.count_all(black_box(&w.xml)).unwrap());
        });
        let lane = gbit_per_s(w.xml.len(), || {
            black_box(lanes.count_all(black_box(&w.xml)).unwrap());
        });
        let sequential = gbit_per_s(w.xml.len(), || {
            for q in &singles {
                black_box(q.fused().count_bytes(black_box(&w.xml)).unwrap());
            }
        });
        println!(
            "{:<6}: shared-product {:>6.2} | shared-lanes {:>6.2} | 16 sequential {:>5.2} | speedup {:>4.1}x (lanes {:>4.1}x)",
            w.name,
            shared,
            lane,
            sequential,
            shared / sequential,
            lane / sequential,
        );
    }
    println!(
        "(rates are per document byte: the sequential series reads the same bytes 16 \
         times, the shared series once; speedup is wall-clock one-pass vs 16-pass)"
    );
    // The mixed-class 8-query set with its registerless and stack
    // members grouped (default budget) vs no products (budget 0).
    let grouped = QuerySet::compile(&HYBRID_PATTERNS, &g).unwrap();
    let per_member = QuerySet::compile_with_budget(&HYBRID_PATTERNS, &g, 0).unwrap();
    for w in standard_workloads(6_000) {
        let counts = grouped.count_all(&w.xml).unwrap();
        assert_eq!(counts, per_member.count_all(&w.xml).unwrap());
        let rate = |set: &QuerySet| {
            gbit_per_s(w.xml.len(), || {
                black_box(set.count_all(black_box(&w.xml)).unwrap());
            })
        };
        let (fast, slow) = (rate(&grouped), rate(&per_member));
        println!(
            "{:<6}: hybrid 8q grouped {:>5.2} | budget 0 {:>5.2} | {:>4.2}x",
            w.name,
            fast,
            slow,
            fast / slow
        );
    }
    // One class at a time: eight members against one member's pass
    // (medians of interleaved batches, µs per call).
    let mixed = standard_workloads(6_000).remove(1);
    for (class, members) in CLASS_SETS {
        let set = QuerySet::compile(&members, &g).unwrap();
        let (shared, one) = set_against_one(&members, &mixed.xml);
        println!(
            "mixed : 8 {class:<12} members ({}): count_all {shared:>6.1} µs | one member {one:>5.1} µs | {:>4.2}x",
            set.grouping(),
            shared / one
        );
    }
    let ledger = compile_series(&g);
    let us = |key: &str| {
        ledger
            .iter()
            .find(|(k, _)| k == key)
            .map_or(0.0, |(_, v)| *v)
    };
    println!(
        "8q hybrid set build: {:.0} µs compiled fresh, {:.0} µs from plan-cache hits",
        us("compile_set_fresh/8q"),
        us("compile_set_plans/8q"),
    );
    println!();
}

/// E24: the TCP front-end on loopback — sustained MB/s through the
/// frame protocol under every service mode: a keep-alive connection
/// with plan-cache hits, the same connection on the earliest-emission
/// streaming protocol, a fresh connect per request, four connections
/// in parallel, and a keep-alive connection whose every request misses
/// the plan cache (capacity one, alternating patterns).
fn e24_net_throughput() {
    println!("## E24 — network front-end on loopback: MB/s through the frame protocol");
    let g = gamma();
    let csv = net_alphabet_csv(&g);
    let mb = |gbit: f64| gbit * 1000.0 / 8.0;
    let mut last_hit = None;
    let mut last_miss = None;
    for w in standard_workloads(6_000) {
        let (series, hit, miss) = net_series(&w.xml, &csv);
        let rate = |key: &str| {
            series
                .iter()
                .find(|(k, _)| k.starts_with(key))
                .map(|(_, v)| mb(*v))
                .unwrap()
        };
        println!(
            "{:<6}: keep-alive {:>6.1} | stream {:>6.1} | cold {:>6.1} | 4-conn {:>6.1} | cache-miss {:>6.1}",
            w.name,
            rate("net_keepalive_hit"),
            rate("net_stream"),
            rate("net_cold_connect"),
            rate("net_parallel_4"),
            rate("net_keepalive_miss"),
        );
        last_hit = Some(hit);
        last_miss = Some(miss);
    }
    let (hit, miss) = (last_hit.unwrap(), last_miss.unwrap());
    println!(
        "(each request uploads the whole document in 16 KiB chunks and waits for the \
         verified reply; 4-conn counts aggregate bytes across four keep-alive \
         connections; hit server cache {} hit(s)/{} miss(es), miss server {} hit(s)/{} \
         miss(es))",
        hit.hits, hit.misses, miss.hits, miss.misses,
    );
    println!();
}

/// The index of the log2 bucket holding a histogram's median
/// observation (bucket `i > 0` covers `2^(i-1) ..= 2^i - 1`).
fn median_bucket(h: &stackless_streamed_trees::obs::HistogramSnapshot) -> usize {
    let half = h.count.div_ceil(2).max(1);
    let mut acc = 0u64;
    for (i, b) in h.buckets.iter().enumerate() {
        acc += b;
        if acc >= half {
            return i;
        }
    }
    0
}

/// The inclusive upper bound of log2 bucket `i`.
fn bucket_hi(i: usize) -> u64 {
    if i == 0 {
        0
    } else {
        (1u64 << i) - 1
    }
}

/// E24b: emission latency at the certainty frontier vs end-of-document
/// reporting, in bytes, read from the st-obs
/// `session_emission_latency_bytes` histogram.  A session fed in 16 KiB
/// chunks (the E24 wire chunk) records, per emitted match, the distance
/// from its deciding open event to the window boundary that released
/// it; the alternative — holding every match until the reply at end of
/// document — would pay `doc_len - match_offset` instead.  Both go
/// through the same log2 bucketing; the robustness bar is the frontier
/// median strictly below the end-of-document median.
fn e24b_emission_latency() {
    println!("## E24b — emission latency: certainty frontier vs end-of-document (bytes)");
    let g = gamma();
    let chunk = 16 * 1024;
    for w in standard_workloads(6_000) {
        let obs = ObsHandle::new();
        // `.*b` matches whatever label the seeded root drew, so every
        // workload contributes a populated histogram.
        let query = Query::compile(".*b", &g).unwrap();
        let limits = st_core::session::Limits::none().with_obs(obs.clone());
        let mut session = query.fused().session(limits);
        let mut emitted = Vec::new();
        for seg in w.xml.chunks(chunk) {
            session.feed(seg).unwrap();
            emitted.extend(session.drain_emitted());
        }
        let outcome = session.finish().unwrap();
        assert_eq!(emitted.len(), outcome.matches.len(), "emitted ≡ collected");
        assert!(!emitted.is_empty(), "{}: workload must match", w.name);

        // The counterfactual: every match held back to the final byte.
        let eod = obs.histogram("eod_latency_bytes");
        for m in &emitted {
            eod.record(w.xml.len() as u64 - m.offset as u64);
        }
        let snap = obs.snapshot();
        let frontier = &snap.histograms["session_emission_latency_bytes"];
        let end = &snap.histograms["eod_latency_bytes"];
        assert_eq!(frontier.count, emitted.len() as u64);
        let (fb, eb) = (median_bucket(frontier), median_bucket(end));
        assert!(
            fb < eb,
            "{}: frontier median bucket {fb} must sit strictly below the \
             end-of-document bucket {eb}",
            w.name,
        );
        println!(
            "{:<6}: {:>5} matches | frontier median ≤ {:>6} B (mean {:>6.0}) | \
             end-of-document median ≤ {:>6} B (mean {:>6.0})",
            w.name,
            emitted.len(),
            bucket_hi(fb),
            frontier.sum as f64 / frontier.count as f64,
            bucket_hi(eb),
            end.sum as f64 / end.count as f64,
        );
    }
    println!(
        "(16 KiB feed windows; a match's frontier latency is bounded by its window, \
         while end-of-document latency grows with the bytes still to come — the \
         asserted invariant is frontier median strictly below the end-of-document \
         median, bucket to bucket)"
    );
    println!();
}

/// E20: the memory story — registers vs stack high-water mark.
fn e20_memory() {
    println!("## E20 — memory: registers vs stack high-water mark");
    let g = gamma();
    let analysis = Analysis::new(&compile_regex(".*a.*b", &g).unwrap());
    let dra = har::compile_query_markup(&analysis).unwrap();
    let q = CompiledQuery::compile(&analysis.dfa);
    assert_eq!(q.strategy(), Strategy::Stackless);
    let fused = q.fused(&g).unwrap();
    println!(
        "{:>9} {:>16} {:>16} {:>16} {:>16}",
        "depth", "DRA registers", "stack high-water", "fused-DRA MB/s", "ev.stack MB/s"
    );
    for depth in [100usize, 10_000, 1_000_000] {
        let w = chain_workload(depth);
        let mut ev = StackEvaluator::new(&analysis.dfa);
        for &t in &w.tags {
            ev.step(t);
        }
        let _ = preselect(&dra, &w.tags).unwrap();
        // Time side of the same story, from raw bytes: the fused DRA in a
        // single pass vs tokenizing and feeding the pushdown baseline.
        let (_, d_fused) = time(|| fused.count_bytes(&w.xml).unwrap());
        let (_, d_stack) = time(|| {
            let tags: Vec<_> = st_trees::xml::Scanner::new(&w.xml, &g)
                .collect::<Result<_, _>>()
                .unwrap();
            StackEvaluator::count_selected(&analysis.dfa, &tags)
        });
        println!(
            "{:>9} {:>16} {:>16} {:>16.1} {:>16.1}",
            depth,
            dra.n_registers(),
            ev.max_depth(),
            mbps(w.xml.len(), d_fused),
            mbps(w.xml.len(), d_stack),
        );
    }
    println!();
}
