//! Differential conformance harness for the stackless streamed-trees
//! reproduction.
//!
//! The paper's central claims are *equivalences between constructions*
//! (Theorems 3.1/3.2, Lemmas 3.5/3.8/3.11): the registerless DFA, the
//! depth-register program, and the classical pushdown evaluator all
//! compute the same query, and the fused byte engine computes the same
//! answers straight from raw XML.  This crate turns those equivalences
//! into an executable oracle:
//!
//! * [`gen`] — a deterministic, seed-reproducible, structure-aware case
//!   generator biased toward deep chains, wide fans, the Lemma 3.12
//!   fooling shapes, decorated/malformed-adjacent documents, and
//!   near-boundary chunk sizes;
//! * [`engines`] — runs every evaluation path (DOM oracle, stack
//!   baseline, event plan, fused byte engine, chunked data-parallel at
//!   several cut vectors) on one case and cross-checks match sets,
//!   boolean verdicts, and error classes;
//! * [`mod@shrink`] — delta-debugs any divergence to a minimal reproducer
//!   (subtree deletion/promotion, byte windows, chunk list, pattern AST);
//! * [`corpus`] — persists shrunk reproducers under `testdata/corpus/`
//!   in a text format whose filename alone regenerates the original
//!   fuzzing stream;
//! * [`runner`] — the generate → run → shrink → persist loop, exposed to
//!   the CLI as `stql fuzz` and replayed from the corpus by a tier-1
//!   test on every run;
//! * [`multi`] — the multi-query oracle: every 2–8 pattern set evaluated
//!   by one shared [`st_core::QuerySet`] pass must agree bitwise with N
//!   independent single-query runs at three product budgets (every
//!   product, none, and a small one that mixes them), indexed and
//!   forced-scalar alike;
//! * [`guard`] — the per-event reference for the depth and imbalance
//!   budgets, against which the streaming oracle checks the byte
//!   engines' window-checked guard.
//!
//! Deliberate engine faults ([`engines::Mutation`]) let the harness test
//! itself: a fault must be caught *and* shrunk to a small reproducer,
//! otherwise the oracle has a blind spot.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod corpus;
pub mod engines;
pub mod gen;
pub mod guard;
pub mod multi;
pub mod pattern;
pub mod runner;
pub mod shrink;
pub mod stream;

pub use engines::{resume_support, run_case, CaseOutcome, Divergence, EngineId, Mutation, Outcome};
pub use gen::{Case, GenConfig};
pub use multi::{
    fuzz_multi, gen_multi_case, replay_multi_corpus, run_multi_case, shrink_multi, MultiCase,
    MultiFuzzFailure, MultiFuzzReport, MultiMutation,
};
pub use pattern::Pat;
pub use runner::{fuzz, replay_corpus, FuzzConfig, FuzzFailure, FuzzReport};
pub use shrink::{shrink, tree_nodes};
pub use stream::{
    fuzz_stream, replay_stream_corpus, run_stream_case, shrink_stream, StreamFuzzFailure,
    StreamFuzzReport, StreamMutation,
};
