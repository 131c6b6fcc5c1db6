//! Multi-query differential oracle: one shared [`QuerySet`] pass versus
//! N independent single-query runs.
//!
//! The property under test is the query-set compiler's whole contract:
//! for every generated document and every 2–8 pattern set, the shared
//! pass must produce *bitwise identical* per-query match sets and the
//! identical error verdict to running each query alone — at three
//! product budgets: the default (every class group is a product), 0 (no
//! products: the family table and one lane per other member) and a
//! small one ([`SMALL_BUDGET`], where small groups stay products and
//! large ones fall back, so one set mixes groups, the family table and
//! lanes), each under both the SIMD-indexed and the forced-scalar byte
//! paths.  Each of those six runs three ways: the set compiled from its
//! patterns, the same set built from individually compiled [`Query`]
//! plans ([`QuerySet::from_plans`], the serving edge's plan-cache path),
//! and a session checkpointed at a pseudo-random cut, serialized and
//! resumed (which puts the groups' projection onto per-member lanes,
//! and the lift back, under the fuzzer).  Eighteen shared-pass variants
//! per case, all compared against the same single-query oracle.
//!
//! Divergences shrink along three axes (drop patterns, delete byte
//! windows, structurally shrink pattern ASTs) and persist as `.mcase`
//! corpus entries next to the single-query `.case` reproducers.

use std::path::{Path, PathBuf};

use rand::prelude::*;
use st_automata::{compile_regex, Alphabet};
use st_core::session::{Limits, SessionError};
use st_core::{Query, QuerySet, QuerySetCheckpoint};

use crate::corpus;
use crate::gen::{case_rng, gen_case, GenConfig};
use crate::pattern::Pat;
use crate::runner::FuzzConfig;

/// The small product budget of the oracle's budget axis: enough states
/// for small groups' products, too few for most large ones.
pub const SMALL_BUDGET: usize = 8;

/// One self-contained multi-query differential case.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MultiCase {
    /// Query patterns in `compile_regex` syntax (the per-query order).
    pub patterns: Vec<String>,
    /// Alphabet characters, e.g. `"ab"`.
    pub alphabet: String,
    /// Raw document bytes.
    pub doc: Vec<u8>,
}

/// Deliberate oracle fault, used by the harness's own soundness tests:
/// a fault must be caught and shrunk, or the multi oracle has a blind
/// spot.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MultiMutation {
    /// Production behaviour.
    None,
    /// Drops the last match of the last non-empty per-query result from
    /// every shared pass — the attribution bug the oracle must see.
    DropLastMatch,
}

/// Draws one multi-query case from `rng`: the single-case generator's
/// document and pattern, plus 1–7 extra patterns over the same alphabet.
pub fn gen_multi_case(rng: &mut StdRng, cfg: &GenConfig) -> (MultiCase, Vec<Pat>) {
    let (case, first) = gen_case(rng, cfg);
    let g = Alphabet::of_chars(&case.alphabet);
    let chars: Vec<char> = case.alphabet.chars().collect();
    let mut pats = vec![first];
    let extra = rng.gen_range(1usize..=7);
    while pats.len() < 1 + extra {
        let p = Pat::random(rng, &chars, 3);
        if compile_regex(&p.render(), &g).is_ok() {
            pats.push(p);
        }
    }
    let patterns = pats.iter().map(Pat::render).collect();
    (
        MultiCase {
            patterns,
            alphabet: case.alphabet,
            doc: case.doc,
        },
        pats,
    )
}

/// The single-query oracle: each pattern run alone through the fused
/// engine.  `Err` carries the (shared, document-level) error rendering.
fn independent_runs(
    case: &MultiCase,
    g: &Alphabet,
    force_scalar: bool,
) -> Option<Vec<Result<Vec<usize>, String>>> {
    let mut out = Vec::with_capacity(case.patterns.len());
    for p in &case.patterns {
        let q = Query::compile(p, g).ok()?.with_force_scalar(force_scalar);
        out.push(q.select(&case.doc).map_err(|e| e.to_string()));
    }
    Some(out)
}

/// How a shared-pass variant builds and runs its set.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Build {
    /// Compiled from the patterns, one-shot pass.
    Compiled,
    /// Built from individually compiled queries' plans, one-shot pass.
    FromPlans,
    /// Compiled from the patterns; a session checkpointed at
    /// [`resume_cut`], serialized, and resumed for the rest.
    Resumed,
}

/// The variant's cut for [`Build::Resumed`]: a hash of the case, so a
/// replay or a shrink step re-derives it.
fn resume_cut(case: &MultiCase) -> usize {
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    for b in case
        .patterns
        .iter()
        .flat_map(|p| p.bytes())
        .chain(case.doc.iter().copied())
    {
        h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3);
    }
    (h % (case.doc.len() as u64 + 1)) as usize
}

/// Runs `doc[..cut]` through a session, freezes it, round-trips the
/// checkpoint through its wire form and resumes for `doc[cut..]`;
/// prefix and tail matches stitched per query.  A refused checkpoint is
/// an error of its own kind: a real run's checkpoint always resumes.
fn resumed_select(set: &QuerySet, doc: &[u8], cut: usize) -> Result<Vec<Vec<usize>>, SessionError> {
    let mut session = set.session(Limits::none());
    session.feed(&doc[..cut])?;
    let prefix = session.matches().to_vec();
    let wire = session.checkpoint()?.to_bytes();
    let cp = QuerySetCheckpoint::from_bytes(&wire)?;
    let tail = set.resume_from(&cp, &doc[cut..], &Limits::none())?;
    Ok(prefix
        .into_iter()
        .zip(tail.matches)
        .map(|(mut p, t)| {
            p.extend(t);
            p
        })
        .collect())
}

/// One shared pass at the given budget/byte-path/build, with the fault
/// knob applied to its answer.  Errors of a [`Build::Resumed`] pass
/// render as `checkpoint: …` when the checkpoint was refused and as
/// `session error` otherwise (a session cannot re-scan bytes it no
/// longer holds, so its diagnostic differs from the one-shot's).
fn shared_pass(
    case: &MultiCase,
    g: &Alphabet,
    budget: usize,
    force_scalar: bool,
    build: Build,
    mutation: MultiMutation,
) -> Option<Result<Vec<Vec<usize>>, String>> {
    let mut set = if build == Build::FromPlans {
        let queries: Vec<Query> = case
            .patterns
            .iter()
            .map(|p| Query::compile(p, g))
            .collect::<Result<_, _>>()
            .ok()?;
        let names = case.patterns.iter().map(|p| Some(p.as_str()));
        QuerySet::from_plans(names.zip(queries.iter().map(Query::plan)), g, budget)
    } else {
        QuerySet::compile_with_budget(&case.patterns, g, budget).ok()?
    };
    set.set_force_scalar(force_scalar);
    let mut result = if build == Build::Resumed {
        resumed_select(&set, &case.doc, resume_cut(case)).map_err(|e| match e {
            SessionError::Checkpoint { detail } => format!("checkpoint: {detail}"),
            _ => "session error".to_owned(),
        })
    } else {
        set.select_all(&case.doc).map_err(|e| e.to_string())
    };
    if mutation == MultiMutation::DropLastMatch {
        if let Ok(per) = result.as_mut() {
            if let Some(last) = per.iter_mut().rev().find(|ids| !ids.is_empty()) {
                last.pop();
            }
        }
    }
    Some(result)
}

/// Runs one case through every shared-pass variant and compares each
/// against the independent-run oracle.  Returns the first disagreement,
/// or `None` when all variants agree (or the case is not runnable, e.g.
/// a pattern no longer compiles after shrinking).
pub fn run_multi_case(case: &MultiCase, mutation: MultiMutation) -> Option<String> {
    if case.patterns.is_empty() {
        return None;
    }
    let g = Alphabet::of_chars(&case.alphabet);
    for force_scalar in [false, true] {
        let singles = independent_runs(case, &g, force_scalar)?;
        let runs = [st_core::DEFAULT_PRODUCT_BUDGET, 0, SMALL_BUDGET]
            .into_iter()
            .flat_map(|b| [Build::Compiled, Build::FromPlans, Build::Resumed].map(|m| (b, m)));
        for (budget, build) in runs {
            let shared = shared_pass(case, &g, budget, force_scalar, build, mutation)?;
            let variant = format!(
                "budget={budget} {} {build:?}",
                if force_scalar { "scalar" } else { "indexed" }
            );
            match &shared {
                Err(set_err) => {
                    // A document-level error must hit every independent
                    // run with the identical rendering (a resumed
                    // session's with an error of its own).
                    for (i, s) in singles.iter().enumerate() {
                        match s {
                            Err(e) if e == set_err => {}
                            Err(_) if build == Build::Resumed && set_err == "session error" => {}
                            Err(e) => {
                                return Some(format!(
                                    "[{variant}] query {i}: shared error {set_err:?} \
                                     vs independent error {e:?}"
                                ));
                            }
                            Ok(ids) => {
                                return Some(format!(
                                    "[{variant}] query {i}: shared pass errored \
                                     ({set_err:?}) but independent run matched {ids:?}"
                                ));
                            }
                        }
                    }
                }
                Ok(per) => {
                    for (i, (s, got)) in singles.iter().zip(per).enumerate() {
                        match s {
                            Ok(ids) if ids == got => {}
                            Ok(ids) => {
                                return Some(format!(
                                    "[{variant}] query {i} ({:?}): shared {got:?} \
                                     vs independent {ids:?}",
                                    case.patterns[i]
                                ));
                            }
                            Err(e) => {
                                return Some(format!(
                                    "[{variant}] query {i}: independent run errored \
                                     ({e:?}) but shared pass matched {got:?}"
                                ));
                            }
                        }
                    }
                }
            }
        }
    }
    None
}

/// Minimizes a diverging multi case while it keeps diverging.  `pats`
/// is the generating pattern AST list when available (corpus replays
/// have none and skip that axis).
pub fn shrink_multi(case: &MultiCase, pats: Option<&[Pat]>, mutation: MultiMutation) -> MultiCase {
    let mut budget = 600usize;
    let diverges = |c: &MultiCase, budget: &mut usize| -> bool {
        if *budget == 0 {
            return false;
        }
        *budget -= 1;
        run_multi_case(c, mutation).is_some()
    };
    if !diverges(case, &mut budget) {
        return case.clone();
    }
    let mut best = case.clone();
    let mut cur_pats: Option<Vec<Pat>> = pats.map(|p| p.to_vec());
    loop {
        let mut any = false;
        // Axis 1: drop whole patterns (the biggest reduction first).
        let mut i = 0usize;
        while best.patterns.len() > 1 && i < best.patterns.len() && budget > 0 {
            let mut cand = best.clone();
            cand.patterns.remove(i);
            if diverges(&cand, &mut budget) {
                best = cand;
                if let Some(ps) = cur_pats.as_mut() {
                    ps.remove(i);
                }
                any = true;
            } else {
                i += 1;
            }
        }
        // Axis 2: byte-window deletion at halving granularity.
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
        // Axis 3: structural shrink of each surviving pattern AST.
        if let Some(ps) = cur_pats.as_mut() {
            let g = Alphabet::of_chars(&best.alphabet);
            for (qi, p) in ps.iter_mut().enumerate() {
                let mut progress = true;
                while progress && budget > 0 {
                    progress = false;
                    for cand_pat in p.shrink_candidates() {
                        let rendered = cand_pat.render();
                        if compile_regex(&rendered, &g).is_err() {
                            continue;
                        }
                        let mut cand = best.clone();
                        cand.patterns[qi] = rendered;
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
        }
        if !any || budget == 0 {
            break;
        }
    }
    best
}

/// One divergence found by the multi-query loop.
#[derive(Clone, Debug)]
pub struct MultiFuzzFailure {
    /// Iteration that produced the case (regenerate with
    /// [`case_rng`]`(seed, iter)`).
    pub iter: u64,
    /// The generated input.
    pub case: MultiCase,
    /// The delta-debugged minimal reproducer.
    pub shrunk: MultiCase,
    /// Human-readable description of the first disagreement.
    pub detail: String,
    /// Corpus file written, when persistence is on.
    pub corpus_path: Option<PathBuf>,
}

/// Aggregate statistics of a multi-query fuzzing run.
#[derive(Clone, Debug, Default)]
pub struct MultiFuzzReport {
    /// Iterations actually executed.
    pub iters_run: u64,
    /// All divergences found.
    pub failures: Vec<MultiFuzzFailure>,
}

impl MultiFuzzReport {
    /// True when no divergence was found.
    pub fn clean(&self) -> bool {
        self.failures.is_empty()
    }
}

/// Injected fault for the loop; [`MultiMutation::None`] in production.
/// Rides in via a dedicated field-free parameter (the single-query
/// [`FuzzConfig`] carries everything else: seed, iters, generator
/// tunables, corpus directory, failure cap).
pub fn fuzz_multi(cfg: &FuzzConfig, mutation: MultiMutation) -> MultiFuzzReport {
    let mut report = MultiFuzzReport::default();
    for iter in 0..cfg.iters {
        let mut rng = case_rng(cfg.seed, iter);
        let (case, pats) = gen_multi_case(&mut rng, &cfg.gen);
        report.iters_run += 1;
        let Some(detail) = run_multi_case(&case, mutation) else {
            continue;
        };
        let shrunk = shrink_multi(&case, Some(&pats), mutation);
        let corpus_path = cfg.corpus_dir.as_ref().and_then(|dir| {
            corpus::write_multi_entry(
                dir,
                &corpus::multi_entry_name(cfg.seed, iter),
                &shrunk,
                &detail,
            )
            .ok()
        });
        report.failures.push(MultiFuzzFailure {
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

/// Replays every `.mcase` corpus entry under `dir` with the production
/// oracle; returns the diverging entries.
pub fn replay_multi_corpus(dir: &Path) -> Result<Vec<(PathBuf, String)>, String> {
    let mut bad = Vec::new();
    for (path, case) in corpus::load_multi_corpus(dir)? {
        if let Some(detail) = run_multi_case(&case, MultiMutation::None) {
            bad.push((path, detail));
        }
    }
    Ok(bad)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic_per_seed() {
        let cfg = GenConfig::default();
        for iter in 0..25u64 {
            let (a, _) = gen_multi_case(&mut case_rng(42, iter), &cfg);
            let (b, _) = gen_multi_case(&mut case_rng(42, iter), &cfg);
            assert_eq!(a, b);
            assert!((2..=8).contains(&a.patterns.len()));
        }
    }

    #[test]
    fn injected_attribution_fault_is_caught_and_shrunk() {
        let cfg = FuzzConfig {
            seed: 3,
            iters: 120,
            max_failures: 1,
            ..FuzzConfig::default()
        };
        let report = fuzz_multi(&cfg, MultiMutation::DropLastMatch);
        let failure = report
            .failures
            .first()
            .expect("dropped-match fault must be detected within 120 iterations");
        assert!(
            run_multi_case(&failure.shrunk, MultiMutation::DropLastMatch).is_some(),
            "shrunk case must still reproduce"
        );
        assert!(failure.shrunk.patterns.len() <= failure.case.patterns.len());
        assert!(failure.shrunk.doc.len() <= failure.case.doc.len());
    }
}
