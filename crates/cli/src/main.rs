//! `stql` — query and validate streamed XML/JSON documents with the
//! stackless evaluators of *Stackless Processing of Streamed Trees*
//! (Barloy, Murlak, Paperman; PODS 2021).
//!
//! ```text
//! stql explain <query> [--alphabet a,b,c]
//! stql select  <query> <file>   [--count] [--fused]
//! stql validate <schema> <file>
//! ```
//!
//! * `<query>` — an XPath (`/a//b`), JSONPath (`$.a..b`), or path regex.
//! * `<file>`  — `.xml` documents use the markup pipeline; `.json` and
//!   `.term` documents use the term (blind) pipeline.
//! * `<schema>` — a path-DTD file; see [`schema::parse`] for the format.

use std::process::ExitCode;

mod netcmd;
mod schema;
mod serving;

use st_core::planner::CompiledTermQuery;
use stackless_streamed_trees::prelude::{
    Alphabet, CompiledQuery, Limits, ObsHandle, PathQuery, Query,
};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("explain") => cmd_explain(&args[1..]),
        Some("select") => cmd_select(&args[1..]),
        Some("validate") => cmd_validate(&args[1..]),
        Some("stats") => cmd_stats(&args[1..]),
        Some("serve") => serving::cmd_serve(&args[1..]),
        Some("batch") => serving::cmd_batch(&args[1..]),
        Some("listen") => netcmd::cmd_listen(&args[1..]),
        Some("ask") => netcmd::cmd_ask(&args[1..]),
        Some("extract") => cmd_extract(&args[1..]),
        Some("multi") => cmd_multi(&args[1..]),
        Some("fuzz") => cmd_fuzz(&args[1..]),
        Some("--help") | Some("-h") | None => {
            eprintln!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        Some(other) => Err(format!("unknown subcommand {other:?}\n{USAGE}")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("stql: {message}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "usage:
  stql explain <query> [--alphabet a,b,c] [--dot]
  stql select  <query> <file.xml|file.json|file.term> [--count] [--fused]
               [--max-depth D] [--max-bytes B] [--time-budget MS]
               [--checkpoint-out FILE] [--resume FILE]
               [--recover] [--alphabet a,b,c] [--stats]
  stql validate <schema.dtd> <file.xml>
  stql stats   <file.xml|file.json|file.term>
  stql extract <query> <file.xml>
  stql serve   <query> <file.xml>... [--count] [--workers N] [--queue N]
               [--cadence BYTES] [--retries N] [--max-in-flight BYTES]
               [--max-depth D] [--max-bytes B] [--time-budget MS]
               [--metrics-out FILE] [--metrics-every MS]
  stql serve   --chaos [--seed N] [--requests N] [--workers N]
               [--cadence BYTES] [--retries N] [--panic PM] [--stall PM]
               [--corrupt PM] [--stall-ms MS] [--stall-timeout MS]
               [--reproducer FILE] [--metrics-out FILE]
  stql batch   <query> <file.xml>... [serve pool flags]
  stql listen  <addr> [--max-conns N] [--read-timeout MS] [--write-timeout MS]
               [--min-throughput BPS] [--grace MS] [--max-in-flight BYTES]
               [--cadence BYTES] [--shed-wait MS] [--plan-cache N]
               [--metrics-out FILE] [--metrics-every MS]
  stql listen  --chaos [--seed N] [--requests N] [--connections N]
               [--reproducer FILE] [--metrics-out FILE]
  stql ask     <addr> <query>... <file.xml> [--count] [--chunk BYTES]
               [--timeout MS] [--alphabet a,b,c] [--stream]
  stql multi   <file.xml> <query>... [--count] [--alphabet a,b,c]
               [--budget N]
  stql fuzz    [--seed N] [--iters M] [--max-depth D] [--max-nodes K]
               [--corpus DIR] [--mutation NAME] [--faults] [--multi]
               [--stream] [--replay FILE.case|FILE.mcase]

select resource guards and sessions (.xml only, fused engine):
  --max-depth/--max-bytes/--time-budget abort with a typed limit error;
  --checkpoint-out serializes the session state after the input instead
  of finishing, --resume reopens one and continues on the given bytes;
  --recover scans leniently, printing matches plus diagnostics (needs
  --alphabet when the document is too broken to infer one);
  --stats prints the per-run metrics report (counters, gauges,
  histogram totals) to stderr after the run.

serve/batch run documents through the supervised worker pool (worker
panics and stalls fail over via checkpoints; full queues shed with a
typed error); batch prints one `count<TAB>file` line per document.
serve --chaos runs the seeded fault-injection soak and exits non-zero
on any divergence from the recovery contract, printing each losing
request's supervisor trace as a post-mortem.
--metrics-out dumps the runtime metrics snapshot as JSON periodically
(every --metrics-every ms, default 1000) and flushes it at exit.

listen serves the length-prefixed frame protocol over TCP (plan cache,
read/write deadlines, slow-client watchdog, in-flight byte budget with
backpressure, graceful drain); stdin is the control channel: `stats`,
`drain`, `quit` (EOF quits).  Bind port 0 and read the first stdout
line for the ephemeral address.
listen --chaos runs the seeded network fault-injection soak (torn
frames, disconnects, stalls, duplicate uploads against a live loopback
listener) and exits non-zero on any divergence from the DOM oracle,
writing a reproducer.
ask streams a local .xml document to a listener in --chunk-byte frames
(path-regex queries; several queries share one upload) and prints
match ids like a local select.

multi evaluates every query in one shared byte pass (a QuerySet:
registerless queries step as one product DFA over compressed letter
classes, stack queries as one product over a shared frame stack, each
while it fits the --budget state budget; past it, registerless queries
step through one flat family table and the others keep a native lane
each, as stackless queries always do; --budget 0 forces that) and prints
the grouping on stderr and one `count-or-ids<TAB>query` line per query.";

/// Parses a query in whichever of the three syntaxes it is written.
fn parse_query(query: &str, alphabet: &Alphabet) -> Result<PathQuery, String> {
    let parsed = if query.starts_with('/') {
        PathQuery::from_xpath(query, alphabet)
    } else if query.starts_with('$') {
        PathQuery::from_jsonpath(query, alphabet)
    } else {
        PathQuery::from_regex(query, alphabet)
    };
    parsed.map_err(|e| format!("cannot parse query {query:?}: {e}"))
}

fn flag_value<'a>(args: &'a [String], flag: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

fn cmd_explain(args: &[String]) -> Result<(), String> {
    let query = args.first().ok_or("explain needs a query")?;
    let sigma = flag_value(args, "--alphabet").unwrap_or("a,b,c");
    let alphabet =
        Alphabet::from_symbols(sigma.split(',')).map_err(|e| format!("bad alphabet: {e}"))?;
    let q = parse_query(query, &alphabet)?;
    let markup = CompiledQuery::compile(&q.dfa);
    let term = CompiledTermQuery::compile(&q.dfa);
    let report = markup.report();
    println!("query        : {query}");
    println!("alphabet     : {alphabet}");
    println!("minimal DFA  : {} states", markup.minimal_dfa().n_states());
    println!();
    println!(
        "markup (XML) : almost-reversible={} HAR={} E-flat={} A-flat={}",
        report.markup.almost_reversible.holds,
        report.markup.har.holds,
        report.markup.e_flat.holds,
        report.markup.a_flat.holds
    );
    println!(
        "               strategy {:?}, {} register(s)",
        markup.strategy(),
        markup.n_registers()
    );
    println!(
        "term (JSON)  : blindly-AR={} blindly-HAR={}",
        report.term.almost_reversible.holds, report.term.har.holds
    );
    println!("               strategy {:?}", term.strategy());
    if args.iter().any(|a| a == "--dot") {
        println!();
        println!("# minimal automaton of the path language (Graphviz):");
        print!(
            "{}",
            markup
                .minimal_dfa()
                .to_dot(|a| alphabet.symbol(st_automata::Letter(a as u32)).to_owned())
        );
    }
    Ok(())
}

/// The document kinds the pipeline understands.
enum DocKind {
    Xml,
    Json,
    Term,
}

fn doc_kind(path: &str) -> Result<DocKind, String> {
    if path.ends_with(".xml") {
        Ok(DocKind::Xml)
    } else if path.ends_with(".json") {
        Ok(DocKind::Json)
    } else if path.ends_with(".term") {
        Ok(DocKind::Term)
    } else {
        Err(format!(
            "cannot tell the encoding of {path:?}; use .xml, .json, or .term"
        ))
    }
}

/// Warns when a tag stream is not a well-formed encoding: the evaluators
/// follow the paper's weak-validation premise (input is assumed
/// well-formed), so on unbalanced documents the answer is only meaningful
/// for the balanced prefix.
fn warn_if_unbalanced(tags: &[st_automata::Tag]) {
    let mut depth: i64 = 0;
    let mut dipped = false;
    for t in tags {
        depth += t.depth_delta();
        dipped |= depth < 0;
    }
    if depth != 0 || dipped {
        eprintln!(
            "warning: document is not well-formed ({} unclosed element(s)); \
             results assume the paper's well-formedness premise",
            depth.max(0)
        );
    }
}

/// Collects the `--max-depth`/`--max-bytes`/`--time-budget` guard flags
/// of `stql select` into a [`Limits`].
fn select_limits(args: &[String]) -> Result<st_core::session::Limits, String> {
    let parse = |flag: &str| -> Result<Option<u64>, String> {
        match flag_value(args, flag) {
            None => Ok(None),
            Some(v) => v
                .parse()
                .map(Some)
                .map_err(|e| format!("bad {flag} {v:?}: {e}")),
        }
    };
    let mut limits = st_core::session::Limits::none();
    if let Some(d) = parse("--max-depth")? {
        limits = limits.with_max_depth(d as usize);
    }
    if let Some(b) = parse("--max-bytes")? {
        limits = limits.with_max_bytes(b as usize);
    }
    if let Some(ms) = parse("--time-budget")? {
        limits = limits.with_time_budget(std::time::Duration::from_millis(ms));
    }
    Ok(limits)
}

/// Emits the match ids (or count) accumulated by a session so far and,
/// with `--checkpoint-out`, serializes the live state instead of
/// finishing; without it the session is finished strictly.
fn finish_session(
    session: st_core::session::EngineSession<'_>,
    checkpoint_out: Option<&str>,
    count_only: bool,
) -> Result<(), String> {
    let emit = |ids: &[usize]| {
        if count_only {
            println!("{}", ids.len());
        } else {
            for id in ids {
                println!("{id}");
            }
        }
    };
    match checkpoint_out {
        Some(out) => {
            let cp = session.checkpoint().map_err(|e| e.to_string())?;
            std::fs::write(out, cp.to_bytes()).map_err(|e| format!("cannot write {out}: {e}"))?;
            eprintln!("checkpoint written to {out} at byte {}", session.offset());
            emit(session.matches());
        }
        None => {
            let outcome = session.finish().map_err(|e| e.to_string())?;
            emit(&outcome.matches);
        }
    }
    Ok(())
}

/// Streaming-session variant of `select` (fused engine): resource guards,
/// checkpoint capture, resume, and lenient recovery.  With `--stats`, an
/// enabled [`ObsHandle`] rides along in the limits and the per-run
/// metrics report is printed to stderr after the run — successful or not.
fn select_session(
    query: &str,
    bytes: &[u8],
    args: &[String],
    count_only: bool,
) -> Result<(), String> {
    let stats = args.iter().any(|a| a == "--stats");
    let obs = if stats {
        ObsHandle::new()
    } else {
        ObsHandle::disabled()
    };
    let limits = select_limits(args)?.with_obs(obs.clone());
    let result = select_session_run(query, bytes, args, count_only, limits);
    if stats {
        print_run_report(&obs);
    }
    result
}

/// One-shot per-run metrics report (stderr): every counter and gauge the
/// run recorded, plus histogram totals.
fn print_run_report(obs: &ObsHandle) {
    let snap = obs.snapshot();
    eprintln!("-- run metrics --");
    for (name, value) in &snap.counters {
        eprintln!("{name:<34} {value}");
    }
    for (name, value) in &snap.gauges {
        eprintln!("{name:<34} {value}");
    }
    for (name, h) in &snap.histograms {
        eprintln!("{name:<34} count={} sum={}", h.count, h.sum);
    }
}

fn select_session_run(
    query: &str,
    bytes: &[u8],
    args: &[String],
    count_only: bool,
    limits: Limits,
) -> Result<(), String> {
    let checkpoint_out = flag_value(args, "--checkpoint-out");
    let recover = args.iter().any(|a| a == "--recover");

    if let Some(cp_path) = flag_value(args, "--resume") {
        // The checkpoint carries the alphabet, so the query is recompiled
        // over exactly the fingerprinted automaton — no document scan.
        let cp_bytes = std::fs::read(cp_path).map_err(|e| format!("cannot read {cp_path}: {e}"))?;
        let cp = st_core::session::EngineCheckpoint::from_bytes(&cp_bytes)
            .map_err(|e| format!("{cp_path}: {e}"))?;
        let alphabet = Alphabet::from_symbols(cp.alphabet_symbols().iter().map(String::as_str))
            .map_err(|e| format!("{cp_path}: bad alphabet: {e}"))?;
        let q = parse_query(query, &alphabet)?;
        let compiled =
            Query::from_dfa(&q.dfa, &alphabet).map_err(|e| format!("cannot fuse query: {e}"))?;
        let mut session = compiled.resume(&cp, limits).map_err(|e| e.to_string())?;
        eprintln!(
            "resumed {:?} session at byte {}",
            compiled.strategy(),
            session.offset()
        );
        session.feed(bytes).map_err(|e| e.to_string())?;
        return finish_session(session, checkpoint_out, count_only);
    }

    // Fresh session: the alphabet comes from --alphabet, or from a strict
    // scan of the document (which a --recover target may well fail).
    let alphabet = match flag_value(args, "--alphabet") {
        Some(sigma) => {
            Alphabet::from_symbols(sigma.split(',')).map_err(|e| format!("bad alphabet: {e}"))?
        }
        None => {
            st_trees::xml::parse_document(bytes)
                .map_err(|e| {
                    format!("cannot infer alphabet: {e} (pass --alphabet for broken documents)")
                })?
                .0
        }
    };
    let q = parse_query(query, &alphabet)?;
    let compiled =
        Query::from_dfa(&q.dfa, &alphabet).map_err(|e| format!("cannot fuse query: {e}"))?;
    eprintln!(
        "strategy {:?} ({} registers), fused session engine",
        compiled.strategy(),
        compiled.plan().n_registers()
    );

    if recover {
        let rec = compiled.select_recovering(bytes, &limits);
        for d in &rec.diagnostics {
            eprintln!(
                "diagnostic: {:?} at byte {} (depth {})",
                d.class, d.offset, d.depth
            );
        }
        if rec.suppressed > 0 {
            eprintln!("... {} further diagnostic(s) suppressed", rec.suppressed);
        }
        if count_only {
            println!("{}", rec.matches.len());
        } else {
            for id in rec.matches {
                println!("{id}");
            }
        }
        return Ok(());
    }

    let mut session = compiled.session(limits);
    session.feed(bytes).map_err(|e| e.to_string())?;
    finish_session(session, checkpoint_out, count_only)
}

fn cmd_select(args: &[String]) -> Result<(), String> {
    let query = args.first().ok_or("select needs a query and a file")?;
    let path = args.get(1).ok_or("select needs a file")?;
    let count_only = args.iter().any(|a| a == "--count");
    let fused = args.iter().any(|a| a == "--fused");
    let limits = select_limits(args)?;
    let session_mode = !limits.is_unbounded()
        || flag_value(args, "--resume").is_some()
        || flag_value(args, "--checkpoint-out").is_some()
        || args.iter().any(|a| a == "--recover")
        || args.iter().any(|a| a == "--stats");
    let bytes = std::fs::read(path).map_err(|e| format!("cannot read {path}: {e}"))?;

    let kind = doc_kind(path)?;
    if session_mode {
        if !matches!(kind, DocKind::Xml) {
            return Err("sessions (limits/checkpoints/recovery) support .xml documents".into());
        }
        return select_session(query, &bytes, args, count_only);
    }
    match kind {
        DocKind::Xml => {
            let (alphabet, tags) = st_trees::xml::parse_document(&bytes)
                .map_err(|e| format!("cannot parse {path}: {e}"))?;
            warn_if_unbalanced(&tags);
            let q = parse_query(query, &alphabet)?;
            let plan = CompiledQuery::compile(&q.dfa);
            eprintln!(
                "strategy {:?} ({} registers){}",
                plan.strategy(),
                plan.n_registers(),
                if fused { ", fused byte engine" } else { "" }
            );
            if fused {
                // Single pass over the raw bytes — no event buffer.
                let compiled = Query::from_dfa(&q.dfa, &alphabet)
                    .map_err(|e| format!("cannot fuse query: {e}"))?;
                if count_only {
                    let n = compiled.count(&bytes).map_err(|e| e.to_string())?;
                    println!("{n}");
                } else {
                    for id in compiled.select(&bytes).map_err(|e| e.to_string())? {
                        println!("{id}");
                    }
                }
            } else if count_only {
                println!("{}", plan.count(&tags));
            } else {
                for id in plan.select(&tags) {
                    println!("{id}");
                }
            }
        }
        DocKind::Json | DocKind::Term => {
            if fused {
                return Err("--fused currently supports .xml documents".into());
            }
            let (alphabet, events) = if matches!(kind, DocKind::Json) {
                st_trees::json::parse_json_document(&bytes)
            } else {
                st_trees::json::parse_term_document(&bytes)
            }
            .map_err(|e| format!("cannot parse {path}: {e}"))?;
            let q = parse_query(query, &alphabet)?;
            let plan = CompiledTermQuery::compile(&q.dfa);
            eprintln!("strategy {:?} (term encoding)", plan.strategy());
            let selected = plan.select(&events);
            if count_only {
                println!("{}", selected.len());
            } else {
                for id in selected {
                    println!("{id}");
                }
            }
        }
    }
    Ok(())
}

/// Extracts the subtree of every outermost selected node as an XML
/// snippet — the paper's pre-selection payoff (Section 2.3), with one
/// extra register and no stack.
fn cmd_extract(args: &[String]) -> Result<(), String> {
    let query = args.first().ok_or("extract needs a query and a file")?;
    let path = args.get(1).ok_or("extract needs a file")?;
    if !matches!(doc_kind(path)?, DocKind::Xml) {
        return Err("extract currently supports .xml documents".into());
    }
    let bytes = std::fs::read(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let (alphabet, tags) =
        st_trees::xml::parse_document(&bytes).map_err(|e| format!("cannot parse {path}: {e}"))?;
    warn_if_unbalanced(&tags);
    let q = parse_query(query, &alphabet)?;
    let analysis = st_core::analysis::Analysis::new(&q.dfa);
    let program = st_core::har::compile_query_markup(&analysis)
        .map_err(|e| format!("query is not stackless, cannot extract without a stack: {e}"))?;
    let matches = st_core::extract::extract_subtrees(&program, &tags).map_err(|e| e.to_string())?;
    for m in &matches {
        println!("{}", st_trees::xml::write_events(&m.events, &alphabet));
    }
    eprintln!("{} match(es)", matches.len());
    Ok(())
}

/// Evaluates N queries over one document in a single shared byte pass
/// via [`st_core::QuerySet`], printing per-query attribution.
fn cmd_multi(args: &[String]) -> Result<(), String> {
    let path = args
        .first()
        .ok_or("multi needs a file and at least one query")?;
    if !matches!(doc_kind(path)?, DocKind::Xml) {
        return Err("multi currently supports .xml documents".into());
    }
    let queries: Vec<&String> = args[1..]
        .iter()
        .take_while(|a| !a.starts_with("--"))
        .collect();
    if queries.is_empty() {
        return Err("multi needs at least one query".into());
    }
    let count_only = args.iter().any(|a| a == "--count");
    let budget = match flag_value(args, "--budget") {
        None => st_core::queryset::DEFAULT_PRODUCT_BUDGET,
        Some(v) => v.parse().map_err(|e| format!("bad --budget {v:?}: {e}"))?,
    };
    let bytes = std::fs::read(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let alphabet = match flag_value(args, "--alphabet") {
        Some(sigma) => {
            Alphabet::from_symbols(sigma.split(',')).map_err(|e| format!("bad alphabet: {e}"))?
        }
        None => {
            st_trees::xml::parse_document(&bytes)
                .map_err(|e| format!("cannot parse {path}: {e}"))?
                .0
        }
    };
    let dfas: Vec<st_automata::Dfa> = queries
        .iter()
        .map(|q| parse_query(q, &alphabet).map(|p| p.dfa))
        .collect::<Result<_, _>>()?;
    let set = st_core::QuerySet::from_dfas_with_budget(dfas, &alphabet, budget);
    eprintln!("{} query(ies) in one pass: {}", set.len(), set.grouping());
    let results = set.select_all(&bytes).map_err(|e| e.to_string())?;
    for (q, ids) in queries.iter().zip(&results) {
        if count_only {
            println!("{}\t{q}", ids.len());
        } else {
            let list = ids
                .iter()
                .map(|id| id.to_string())
                .collect::<Vec<_>>()
                .join(" ");
            println!("{list}\t{q}");
        }
    }
    Ok(())
}

/// Streaming document statistics: everything here is computable with the
/// depth counter alone — no stack, no tree.
fn cmd_stats(args: &[String]) -> Result<(), String> {
    let path = args.first().ok_or("stats needs a file")?;
    let bytes = std::fs::read(path).map_err(|e| format!("cannot read {path}: {e}"))?;

    let mut depth: i64 = 0;
    let mut max_depth: i64 = 0;
    let mut nodes: u64 = 0;
    let mut leaves: u64 = 0;
    let mut prev_open = false;
    let mut per_label: Vec<u64> = Vec::new();
    let alphabet;

    let kind = doc_kind(path)?;
    match kind {
        DocKind::Xml => {
            let (g, tags) = st_trees::xml::parse_document(&bytes)
                .map_err(|e| format!("cannot parse {path}: {e}"))?;
            per_label.resize(g.len(), 0);
            for tag in tags {
                match tag {
                    st_automata::Tag::Open(l) => {
                        depth += 1;
                        max_depth = max_depth.max(depth);
                        nodes += 1;
                        per_label[l.index()] += 1;
                        prev_open = true;
                    }
                    st_automata::Tag::Close(_) => {
                        depth -= 1;
                        if prev_open {
                            leaves += 1;
                        }
                        prev_open = false;
                    }
                }
            }
            alphabet = g;
        }
        DocKind::Json | DocKind::Term => {
            let (g, events) = if matches!(kind, DocKind::Json) {
                st_trees::json::parse_json_document(&bytes)
            } else {
                st_trees::json::parse_term_document(&bytes)
            }
            .map_err(|e| format!("cannot parse {path}: {e}"))?;
            per_label.resize(g.len(), 0);
            for event in events {
                match event {
                    st_trees::encode::TermEvent::Open(l) => {
                        depth += 1;
                        max_depth = max_depth.max(depth);
                        nodes += 1;
                        per_label[l.index()] += 1;
                        prev_open = true;
                    }
                    st_trees::encode::TermEvent::Close => {
                        depth -= 1;
                        if prev_open {
                            leaves += 1;
                        }
                        prev_open = false;
                    }
                }
            }
            alphabet = g;
        }
    }
    println!("bytes     : {}", bytes.len());
    println!("nodes     : {nodes}");
    println!("leaves    : {leaves}");
    println!("max depth : {max_depth}");
    println!("labels    :");
    for (l, count) in per_label.iter().enumerate() {
        println!(
            "  {:<12} {count}",
            alphabet.symbol(st_automata::Letter(l as u32))
        );
    }
    if depth != 0 {
        return Err(format!("document is unbalanced ({depth} unclosed)"));
    }
    Ok(())
}

/// Differential conformance fuzzing (see `st_conform`): generates seeded
/// tree/pattern cases, runs every evaluation path on each, and fails on
/// any divergence in match sets, boolean verdicts, or error classes.
/// Divergences are delta-debugged to minimal reproducers and, with
/// `--corpus`, persisted for the tier-1 replay test.
fn cmd_fuzz(args: &[String]) -> Result<(), String> {
    let multi = args.iter().any(|a| a == "--multi");
    let stream = args.iter().any(|a| a == "--stream");
    if multi && stream {
        return Err("--multi and --stream are separate oracles; pick one".into());
    }
    if let Some(path) = flag_value(args, "--replay") {
        let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
        if stream {
            let case =
                st_conform::corpus::parse_entry(&text).map_err(|e| format!("{path}: {e}"))?;
            return match st_conform::run_stream_case(&case, st_conform::StreamMutation::None) {
                None => {
                    println!(
                        "agreement: streamed emission ≡ collect-at-end ≡ DOM oracle \
                         on all chunkings"
                    );
                    Ok(())
                }
                Some(d) => Err(format!("divergence: {d}")),
            };
        }
        if multi || path.ends_with(".mcase") {
            let case =
                st_conform::corpus::parse_multi_entry(&text).map_err(|e| format!("{path}: {e}"))?;
            return match st_conform::run_multi_case(&case, st_conform::MultiMutation::None) {
                None => {
                    println!(
                        "agreement: {} query(ies), shared pass ≡ independent runs on all variants",
                        case.patterns.len()
                    );
                    Ok(())
                }
                Some(d) => Err(format!("divergence: {d}")),
            };
        }
        let case = st_conform::corpus::parse_entry(&text).map_err(|e| format!("{path}: {e}"))?;
        let outcome = st_conform::run_case(&case, st_conform::Mutation::None);
        for (engine, result) in &outcome.outcomes {
            println!("{engine:<14} {result:?}");
        }
        return match outcome.divergence {
            None => {
                println!("agreement: all paths concur");
                Ok(())
            }
            Some(d) => Err(format!("divergence: {d}")),
        };
    }

    let parse_num = |flag: &str, default: u64| -> Result<u64, String> {
        match flag_value(args, flag) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|e| format!("bad {flag} {v:?}: {e}")),
        }
    };
    let seed = parse_num("--seed", 42)?;
    let iters = parse_num("--iters", 1000)?;
    let mut gen = st_conform::GenConfig::default();
    gen.max_depth = parse_num("--max-depth", gen.max_depth as u64)? as usize;
    gen.max_nodes = parse_num("--max-nodes", gen.max_nodes as u64)? as usize;
    gen.faults = args.iter().any(|a| a == "--faults");
    let mutation = match flag_value(args, "--mutation") {
        None => st_conform::Mutation::None,
        Some(name) => st_conform::Mutation::parse(name).ok_or_else(|| {
            let known: Vec<&str> = st_conform::Mutation::ALL.iter().map(|(n, _)| *n).collect();
            format!("unknown mutation {name:?}; known: {}", known.join(", "))
        })?,
    };
    let cfg = st_conform::FuzzConfig {
        seed,
        iters,
        gen,
        corpus_dir: flag_value(args, "--corpus").map(Into::into),
        mutation,
        max_failures: 5,
    };
    if stream {
        let report = st_conform::fuzz_stream(&cfg, st_conform::StreamMutation::None);
        eprintln!(
            "fuzz --stream: seed {seed}, {} iteration(s), streamed emission vs \
             collect-at-end vs DOM oracle, budgeted runs vs the per-event guard",
            report.iters_run
        );
        if report.clean() {
            println!(
                "agreement: every chunking streams the collect-at-end answer in order \
                 and ends each budgeted run as the per-event guard does"
            );
            return Ok(());
        }
        for f in &report.failures {
            eprintln!("--- divergence at iteration {} ---", f.iter);
            eprintln!("  {}", f.detail);
            eprintln!(
                "  shrunk: pattern {:?}, alphabet {:?}, {} byte(s), chunks {:?}",
                f.shrunk.pattern,
                f.shrunk.alphabet,
                f.shrunk.doc.len(),
                f.shrunk.chunk_sizes
            );
            eprintln!("  doc: {}", String::from_utf8_lossy(&f.shrunk.doc));
            if let Some(p) = &f.corpus_path {
                eprintln!("  corpus: {}", p.display());
            }
        }
        return Err(format!("{} divergence(s) found", report.failures.len()));
    }
    if multi {
        let report = st_conform::fuzz_multi(&cfg, st_conform::MultiMutation::None);
        eprintln!(
            "fuzz --multi: seed {seed}, {} iteration(s), shared pass vs independent runs",
            report.iters_run
        );
        if report.clean() {
            println!("agreement: zero divergences across budgets, byte paths and set builds");
            return Ok(());
        }
        for f in &report.failures {
            eprintln!("--- divergence at iteration {} ---", f.iter);
            eprintln!("  {}", f.detail);
            eprintln!(
                "  shrunk: {} pattern(s) {:?}, alphabet {:?}, {} byte(s)",
                f.shrunk.patterns.len(),
                f.shrunk.patterns,
                f.shrunk.alphabet,
                f.shrunk.doc.len()
            );
            eprintln!("  doc: {}", String::from_utf8_lossy(&f.shrunk.doc));
            if let Some(p) = &f.corpus_path {
                eprintln!("  corpus: {}", p.display());
            }
        }
        return Err(format!("{} divergence(s) found", report.failures.len()));
    }
    let report = st_conform::fuzz(&cfg);
    eprintln!(
        "fuzz: seed {seed}, {} iteration(s); {} tokenizable, {} well-formed",
        report.iters_run, report.tokenizable, report.well_formed
    );
    if report.clean() {
        println!("agreement: zero divergences across all evaluation paths");
        return Ok(());
    }
    for f in &report.failures {
        eprintln!("--- divergence at iteration {} ---", f.iter);
        eprintln!("  {}", f.detail);
        eprintln!(
            "  shrunk: pattern {:?}, alphabet {:?}, {} byte(s), chunks {:?}",
            f.shrunk.pattern,
            f.shrunk.alphabet,
            f.shrunk.doc.len(),
            f.shrunk.chunk_sizes
        );
        eprintln!("  doc: {}", String::from_utf8_lossy(&f.shrunk.doc));
        if let Some(p) = &f.corpus_path {
            eprintln!("  corpus: {}", p.display());
        }
    }
    Err(format!("{} divergence(s) found", report.failures.len()))
}

fn cmd_validate(args: &[String]) -> Result<(), String> {
    let schema_path = args.first().ok_or("validate needs a schema and a file")?;
    let doc_path = args.get(1).ok_or("validate needs a file")?;
    let schema_text = std::fs::read_to_string(schema_path)
        .map_err(|e| format!("cannot read {schema_path}: {e}"))?;
    let dtd = schema::parse(&schema_text)?;
    let verdicts = dtd.weak_validation_verdicts();
    eprintln!(
        "schema: A-flat={} (weakly validatable), HAR={}",
        verdicts.a_flat.holds, verdicts.har.holds
    );

    let bytes = std::fs::read(doc_path).map_err(|e| format!("cannot read {doc_path}: {e}"))?;
    let valid = match dtd.compile_validator() {
        Ok(validator) => {
            eprintln!(
                "mode: streaming (registerless validator, {} states)",
                validator.n_states()
            );
            let program = st_core::model::TagDfaProgram::new(&validator);
            let mut runner = st_core::model::DraRunner::new(&program).map_err(|e| e.to_string())?;
            let mut verdict = runner.is_accepting();
            for event in st_trees::xml::Scanner::new(&bytes, dtd.alphabet()) {
                let tag = event.map_err(|e| format!("parse error: {e}"))?;
                verdict = runner.step(tag);
            }
            verdict
        }
        Err(_) => {
            eprintln!("mode: DOM fallback (schema not A-flat; no streaming validator exists)");
            let mut events = Vec::new();
            for event in st_trees::xml::Scanner::new(&bytes, dtd.alphabet()) {
                events.push(event.map_err(|e| format!("parse error: {e}"))?);
            }
            let tree = st_trees::encode::markup_decode(&events)
                .map_err(|e| format!("not a well-formed document: {e}"))?;
            dtd.validates(&tree)
        }
    };
    println!("{}", if valid { "VALID" } else { "INVALID" });
    if valid {
        Ok(())
    } else {
        Err("document does not satisfy the schema".into())
    }
}
