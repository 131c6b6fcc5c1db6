//! The streaming-emission oracle: `stql fuzz --stream`.
//!
//! A streamed consumer sees matches as the certainty frontier advances,
//! not when the document ends.  This module pins what that stream is
//! allowed to look like, differentially, on generated cases:
//!
//! * **Order and identity** — on a successful run, the drained stream's
//!   node ids must equal the collect-at-end match list exactly, and the
//!   DOM oracle's selection when the document is well-formed.  Streaming
//!   is an earlier *view* of the same answer, never a different one.
//! * **Offsets** — deciding byte offsets are strictly increasing (every
//!   match is decided at a distinct open event, in document order).
//! * **Cursor** — the engine's emission cursor must equal an independent
//!   FNV-1a fold over the delivered stream, for every chunking.
//! * **Chunking independence** — any chunk size yields the same stream.
//! * **Indexed/scalar twin** — the forced-scalar byte path delivers a
//!   bitwise-identical stream, and on malformed documents the two twins
//!   fail identically with identical delivered prefixes.
//! * **Budgets** — under depth, imbalance and byte budgets drawn from the
//!   case (breaching ones included), every chunking of both twins ends
//!   with the typed [`LimitExceeded`] the per-event reference
//!   ([`crate::guard::reference_breach`]) finds, or, when it finds none,
//!   exactly as the run without the structural budgets does.
//!
//! Like the other oracles, the loop can inject deliberate faults
//! ([`StreamMutation`]) to prove it catches and shrinks real bugs, and
//! persists shrunk reproducers as ordinary `.case` corpus entries.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};

use st_automata::{compile_regex, Alphabet};
use st_baseline::dom;
use st_core::emit::{EmissionCursor, StreamedMatch};
use st_core::prelude::{Limits, Query};
use st_core::session::{LimitExceeded, SessionError};
use st_trees::encode::markup_decode;
use st_trees::xml::Scanner;

use crate::corpus;
use crate::engines::cuts_for;
use crate::gen::{case_rng, gen_case, Case};
use crate::guard::{depth_extent, reference_breach};
use crate::pattern::Pat;
use crate::runner::FuzzConfig;

/// Deliberate fault injected into the streamed path so the oracle can
/// prove it catches real emission bugs; [`StreamMutation::None`] in
/// production.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StreamMutation {
    /// Production behaviour.
    None,
    /// Silently drop the first delivered match — the classic
    /// "lost emission" failure a crash between emit and ack causes.
    DropFirstEmission,
    /// Corrupt the first delivered offset — a frontier that lies about
    /// *when* a match became certain.
    SkewFirstOffset,
}

/// A streamed run's view: the drained emission sequence, plus the
/// terminal outcome (final match list and cursor) or the error that
/// ended the stream.
type StreamView = (
    Vec<StreamedMatch>,
    Result<(Vec<usize>, EmissionCursor), String>,
);

/// One streamed run of `fused` over `doc`, cut every `chunk` bytes:
/// drains after every feed, so the emitted sequence is exactly what a
/// consumer polling the session would have been handed.
fn streamed_run(fused: &st_core::prelude::FusedQuery, doc: &[u8], chunk: usize) -> StreamView {
    let mut session = fused.session(Limits::none());
    let mut emitted = Vec::new();
    let mut prev = 0usize;
    for cut in cuts_for(chunk, doc.len()) {
        if let Err(e) = session.feed(&doc[prev..cut]) {
            return (emitted, Err(format!("{e:?}")));
        }
        emitted.extend(session.drain_emitted());
        prev = cut;
    }
    if let Err(e) = session.feed(&doc[prev..]) {
        return (emitted, Err(format!("{e:?}")));
    }
    emitted.extend(session.drain_emitted());
    match session.finish() {
        Ok(out) => (emitted, Ok((out.matches, out.cursor))),
        Err(e) => (emitted, Err(format!("{e:?}"))),
    }
}

/// One session run of `fused` over `doc` under `limits`, cut every
/// `chunk` bytes: the final matches, or the typed error that ended it.
fn limited_run(
    fused: &st_core::prelude::FusedQuery,
    doc: &[u8],
    chunk: usize,
    limits: &Limits,
) -> Result<Vec<usize>, SessionError> {
    let mut session = fused.session(limits.clone());
    let mut prev = 0usize;
    for cut in cuts_for(chunk, doc.len()).into_iter().chain([doc.len()]) {
        session.feed(&doc[prev..cut])?;
        prev = cut;
    }
    session.finish().map(|out| out.matches)
}

/// Budgets drawn from `case` (a pure function of it, so shrinking and
/// replay see the same draws), centred on the depth extent of the
/// document so that about a third of them breach: a depth budget from two
/// below to one above the deepest point, an imbalance budget likewise
/// around the lowest, and a byte budget somewhere in the document.
fn limit_draws(case: &Case, alphabet: &Alphabet) -> Vec<Limits> {
    let (peak, trough) = depth_extent(&case.doc, alphabet);
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    for &b in case.pattern.as_bytes().iter().chain(&case.doc) {
        h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01B3);
    }
    let mut draw = move |n: u64| {
        h ^= h << 13;
        h ^= h >> 7;
        h ^= h << 17;
        h % n
    };
    let around = |x: i64, d: u64| (x + d as i64 - 2).max(0) as usize;
    (0..3)
        .map(|_| {
            let mut limits = Limits::none();
            if draw(4) != 0 {
                limits = limits.with_max_depth(around(peak, draw(4)));
            }
            if draw(2) == 0 {
                limits = limits.with_max_imbalance(around(-trough, draw(4)));
            }
            if draw(3) == 0 {
                limits = limits.with_max_bytes(draw(case.doc.len() as u64 + 1) as usize);
            }
            limits
        })
        .collect()
}

/// The budgets axis of [`run_stream_case`]: the first disagreement
/// between a budgeted session and the per-event reference.
fn check_budgets(
    case: &Case,
    alphabet: &Alphabet,
    fused: &st_core::prelude::FusedQuery,
    chunks: &[usize],
    twin: &str,
) -> Option<String> {
    for limits in limit_draws(case, alphabet) {
        let budgets = format!(
            "depth {:?} imbalance {:?} bytes {:?}",
            limits.max_depth, limits.max_imbalance, limits.max_bytes
        );
        let breach: Option<LimitExceeded> = reference_breach(&case.doc, alphabet, &limits, 0);
        let mut unguarded = limits.clone();
        (unguarded.max_depth, unguarded.max_imbalance) = (None, None);
        for &s in chunks {
            let run = catch_unwind(AssertUnwindSafe(|| {
                limited_run(fused, &case.doc, s, &limits)
            }));
            let Ok(got) = run else {
                return Some(format!(
                    "[{budgets} chunk {s} {twin}] budgeted run panicked"
                ));
            };
            let want = match &breach {
                Some(b) => Err(SessionError::Limit(b.clone())),
                None => limited_run(fused, &case.doc, s, &unguarded),
            };
            if got != want {
                return Some(format!(
                    "[{budgets} chunk {s} {twin}] outcome {got:?} vs per-event reference {want:?}"
                ));
            }
        }
    }
    None
}

/// Runs one case through the streamed path at every chunk size, indexed
/// and forced-scalar, and cross-checks against the collect-at-end run
/// and the DOM oracle, then under drawn budgets against the per-event
/// reference.  Returns the first disagreement, or `None` when
/// every view concurs (or the case is inert, e.g. the pattern no longer
/// compiles after shrinking).
pub fn run_stream_case(case: &Case, mutation: StreamMutation) -> Option<String> {
    let g = Alphabet::of_chars(&case.alphabet);
    let dfa = compile_regex(&case.pattern, &g).ok()?;
    // DOM oracle selection, available when the document scans and
    // decodes to a well-formed tree the oracle accepts.
    let dom_ref: Option<Vec<usize>> = Scanner::new(&case.doc, &g)
        .collect::<Result<Vec<_>, _>>()
        .ok()
        .filter(|tags| markup_decode(tags).is_ok())
        .and_then(|tags| dom::evaluate(&dfa, &tags).ok())
        .map(|r| r.selected);

    let mut chunks: Vec<usize> = case.chunk_sizes.clone();
    chunks.push(case.doc.len().max(1));
    let mut reference: Option<StreamView> = None;
    for force_scalar in [false, true] {
        let query = match Query::from_dfa(&dfa, &g) {
            Ok(q) => {
                if force_scalar {
                    q.with_force_scalar(true)
                } else {
                    q
                }
            }
            Err(_) => return None, // composite table over budget: inert
        };
        let fused = query.fused();
        let twin = if force_scalar { "scalar" } else { "indexed" };
        if let Some(detail) = check_budgets(case, &g, fused, &chunks, twin) {
            return Some(detail);
        }
        for &s in &chunks {
            let variant = format!(
                "chunk {s} {}",
                if force_scalar { "scalar" } else { "indexed" }
            );
            let run = catch_unwind(AssertUnwindSafe(|| streamed_run(fused, &case.doc, s)));
            let (mut emitted, end) = match run {
                Ok(r) => r,
                Err(_) => return Some(format!("[{variant}] streamed run panicked")),
            };
            match mutation {
                StreamMutation::None => {}
                StreamMutation::DropFirstEmission => {
                    if !emitted.is_empty() {
                        emitted.remove(0);
                    }
                }
                StreamMutation::SkewFirstOffset => {
                    if let Some(first) = emitted.first_mut() {
                        first.offset += 1;
                    }
                }
            }
            if let Some(w) = emitted.windows(2).find(|w| w[0].offset >= w[1].offset) {
                return Some(format!(
                    "[{variant}] deciding offsets not strictly increasing: \
                     {} then {}",
                    w[0].offset, w[1].offset
                ));
            }
            match &end {
                Ok((matches, cursor)) => {
                    let ids: Vec<usize> = emitted.iter().map(|m| m.node).collect();
                    if &ids != matches {
                        return Some(format!(
                            "[{variant}] streamed {ids:?} vs collect-at-end {matches:?}"
                        ));
                    }
                    if &EmissionCursor::over(&emitted) != cursor {
                        return Some(format!(
                            "[{variant}] cursor does not fold the delivered stream \
                             (count {}, claimed {})",
                            emitted.len(),
                            cursor.count
                        ));
                    }
                    if let Some(want) = &dom_ref {
                        if &ids != want {
                            return Some(format!(
                                "[{variant}] streamed {ids:?} vs DOM oracle {want:?}"
                            ));
                        }
                    }
                }
                Err(_) => {
                    // A failed run's stream is still a *stream*: ordered,
                    // offset-monotone (checked above), and whatever was
                    // delivered stays delivered.  Cross-twin equality is
                    // checked against the indexed reference below.
                }
            }
            match &reference {
                None => reference = Some((emitted, end)),
                Some((ref_emitted, ref_end)) => {
                    // Chunking and the indexed/scalar choice may change
                    // *when* the frontier advances, never what crossed it
                    // by the end: the total stream and terminal outcome
                    // are invariant.
                    if ref_end.is_ok() || end.is_ok() {
                        if &emitted != ref_emitted {
                            return Some(format!(
                                "[{variant}] delivered stream {emitted:?} \
                                 vs reference {ref_emitted:?}"
                            ));
                        }
                        if &end != ref_end {
                            return Some(format!(
                                "[{variant}] terminal outcome {end:?} \
                                 vs reference {ref_end:?}"
                            ));
                        }
                    } else {
                        // Both runs failed: smaller chunks flush more
                        // windows before the failing one, so the shorter
                        // stream must be a prefix of the longer.
                        let (short, long) = if emitted.len() <= ref_emitted.len() {
                            (&emitted, ref_emitted)
                        } else {
                            (ref_emitted, &emitted)
                        };
                        if long[..short.len()] != short[..] {
                            return Some(format!(
                                "[{variant}] failed-run stream {emitted:?} is not \
                                 prefix-compatible with reference {ref_emitted:?}"
                            ));
                        }
                    }
                }
            }
        }
    }
    None
}

/// Minimizes a diverging stream case while it keeps diverging: byte
/// windows, chunk-size list, then the pattern AST when available.
pub fn shrink_stream(case: &Case, pat: Option<&Pat>, mutation: StreamMutation) -> Case {
    let mut budget = 600usize;
    let diverges = |c: &Case, budget: &mut usize| -> bool {
        if *budget == 0 {
            return false;
        }
        *budget -= 1;
        run_stream_case(c, mutation).is_some()
    };
    if !diverges(case, &mut budget) {
        return case.clone();
    }
    let mut best = case.clone();
    let mut cur_pat: Option<Pat> = pat.cloned();
    loop {
        let mut any = false;
        // Axis 1: byte-window deletion at halving granularity.
        let mut w = best.doc.len() / 2;
        while w >= 1 && budget > 0 {
            let mut at = 0usize;
            while at + w <= best.doc.len() && budget > 0 {
                let mut cand = best.clone();
                cand.doc.drain(at..at + w);
                if diverges(&cand, &mut budget) {
                    best = cand;
                    any = true;
                } else {
                    at += w;
                }
            }
            w /= 2;
        }
        // Axis 2: drop chunk sizes.
        let mut i = 0usize;
        while best.chunk_sizes.len() > 1 && i < best.chunk_sizes.len() && budget > 0 {
            let mut cand = best.clone();
            cand.chunk_sizes.remove(i);
            if diverges(&cand, &mut budget) {
                best = cand;
                any = true;
            } else {
                i += 1;
            }
        }
        // Axis 3: structural shrink of the pattern AST.
        if let Some(p) = cur_pat.as_mut() {
            let g = Alphabet::of_chars(&best.alphabet);
            let mut progress = true;
            while progress && budget > 0 {
                progress = false;
                for cand_pat in p.shrink_candidates() {
                    let rendered = cand_pat.render();
                    if compile_regex(&rendered, &g).is_err() {
                        continue;
                    }
                    let mut cand = best.clone();
                    cand.pattern = rendered;
                    if diverges(&cand, &mut budget) {
                        best = cand;
                        *p = cand_pat;
                        any = true;
                        progress = true;
                        break;
                    }
                }
            }
        }
        if !any || budget == 0 {
            break;
        }
    }
    best
}

/// One divergence found by the streaming loop.
#[derive(Clone, Debug)]
pub struct StreamFuzzFailure {
    /// Iteration that produced the case.
    pub iter: u64,
    /// The generated input.
    pub case: Case,
    /// The delta-debugged minimal reproducer.
    pub shrunk: Case,
    /// First disagreement, human-readable.
    pub detail: String,
    /// Corpus file written, when persistence is on.
    pub corpus_path: Option<PathBuf>,
}

/// Aggregate statistics of a `fuzz --stream` run.
#[derive(Clone, Debug, Default)]
pub struct StreamFuzzReport {
    /// Iterations actually executed.
    pub iters_run: u64,
    /// All divergences found.
    pub failures: Vec<StreamFuzzFailure>,
}

impl StreamFuzzReport {
    /// True when no divergence was found.
    pub fn clean(&self) -> bool {
        self.failures.is_empty()
    }
}

/// The `fuzz --stream` loop: generate, run the streaming oracle, shrink,
/// persist as an ordinary `.case` corpus entry (replayable with
/// `stql fuzz --stream --replay`).
pub fn fuzz_stream(cfg: &FuzzConfig, mutation: StreamMutation) -> StreamFuzzReport {
    let mut report = StreamFuzzReport::default();
    for iter in 0..cfg.iters {
        let mut rng = case_rng(cfg.seed, iter);
        let (case, pat) = gen_case(&mut rng, &cfg.gen);
        report.iters_run += 1;
        let Some(detail) = run_stream_case(&case, mutation) else {
            continue;
        };
        let shrunk = shrink_stream(&case, Some(&pat), mutation);
        let corpus_path = cfg.corpus_dir.as_ref().and_then(|dir| {
            corpus::write_entry(dir, &corpus::entry_name(cfg.seed, iter), &shrunk, &detail).ok()
        });
        report.failures.push(StreamFuzzFailure {
            iter,
            case,
            shrunk,
            detail,
            corpus_path,
        });
        if cfg.max_failures > 0 && report.failures.len() >= cfg.max_failures {
            break;
        }
    }
    report
}

/// Replays every `.case` entry under `dir` through the streaming oracle;
/// returns the diverging entries.  Pinned reproducers found by *any*
/// loop must also stream cleanly — an emission bug on a known-hard input
/// is exactly what this net exists to catch.
pub fn replay_stream_corpus(dir: &Path) -> Result<Vec<(PathBuf, String)>, String> {
    let mut bad = Vec::new();
    for (path, case) in corpus::load_corpus(dir)? {
        if let Some(detail) = run_stream_case(&case, StreamMutation::None) {
            bad.push((path, detail));
        }
    }
    Ok(bad)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn demo_case() -> Case {
        let mut doc = Vec::new();
        for _ in 0..6 {
            doc.extend_from_slice(b"<a><b></b></a>");
        }
        Case {
            pattern: "a.*b".to_owned(),
            alphabet: "ab".to_owned(),
            doc,
            chunk_sizes: vec![1, 5, 9],
        }
    }

    #[test]
    fn clean_case_streams_without_divergence() {
        assert_eq!(run_stream_case(&demo_case(), StreamMutation::None), None);
    }

    #[test]
    fn injected_faults_are_caught_and_shrunk() {
        for mutation in [
            StreamMutation::DropFirstEmission,
            StreamMutation::SkewFirstOffset,
        ] {
            let case = demo_case();
            let detail = run_stream_case(&case, mutation)
                .unwrap_or_else(|| panic!("{mutation:?} must diverge"));
            assert!(!detail.is_empty());
            let shrunk = shrink_stream(&case, None, mutation);
            assert!(
                run_stream_case(&shrunk, mutation).is_some(),
                "{mutation:?}: shrunk case no longer reproduces"
            );
            assert!(shrunk.doc.len() <= case.doc.len());
        }
    }

    #[test]
    fn fuzz_stream_is_clean_on_production_engines() {
        let cfg = FuzzConfig {
            seed: 11,
            iters: 150,
            ..FuzzConfig::default()
        };
        let report = fuzz_stream(&cfg, StreamMutation::None);
        assert_eq!(report.iters_run, 150);
        assert!(report.clean(), "divergences: {:?}", report.failures);
    }

    #[test]
    fn budget_draws_include_breaching_ones() {
        let cfg = FuzzConfig::default();
        let (mut draws, mut breaching) = (0usize, 0usize);
        for iter in 0..100 {
            let (case, _) = gen_case(&mut case_rng(11, iter), &cfg.gen);
            let g = Alphabet::of_chars(&case.alphabet);
            for limits in limit_draws(&case, &g) {
                draws += 1;
                breaching += usize::from(reference_breach(&case.doc, &g, &limits, 0).is_some());
            }
        }
        assert!(
            breaching * 4 >= draws,
            "{breaching} of {draws} draws breach"
        );
        assert!(
            breaching * 3 <= draws * 2,
            "{breaching} of {draws} draws breach"
        );
    }

    #[test]
    fn malformed_documents_stream_prefixes_then_fail_like_the_batch_run() {
        // Unclosed root: the session fails at finish, after matches in
        // completed windows were already delivered.
        let case = Case {
            pattern: "a.*b".to_owned(),
            alphabet: "ab".to_owned(),
            doc: b"<a><b></b><b></b>".to_vec(),
            chunk_sizes: vec![1, 4],
        };
        assert_eq!(run_stream_case(&case, StreamMutation::None), None);
    }
}
