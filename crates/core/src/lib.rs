//! The paper's contribution: depth-register automata and everything proved
//! about them in *Stackless Processing of Streamed Trees* (Barloy, Murlak,
//! Paperman; PODS 2021).
//!
//! # What lives where
//!
//! * [`model`] — Definition 2.1: the depth-register automaton (DRA) model,
//!   with an interface that makes cheating impossible: programs only ever
//!   see order comparisons between register contents and the current depth.
//! * [`table`] — explicitly tabulated DRAs and the *restricted* (stack
//!   discipline) check of Section 2.2.
//! * [`analysis`] / [`classify`](classify()) — the four syntactic classes
//!   (almost-reversible, HAR, E-flat, A-flat; Definitions 3.4, 3.6, 3.9)
//!   and their *blind* variants (Appendix B), decided in PTIME on the
//!   minimal automaton, with witnesses.
//! * [`registerless`] — Lemma 3.5: almost-reversible ⇒ a plain DFA realizes
//!   Q_L over the markup encoding; plus the EL/AL acceptor derivations used
//!   by Theorems 3.1 and 3.2.
//! * [`eflat`] — Lemma 3.11 + Appendix A: E-flat ⇒ a finite *synopsis
//!   automaton* recognizes EL; A-flat AL via duality.
//! * [`har`] — Lemma 3.8: HAR ⇒ a depth-register automaton realizes Q_L.
//! * [`pattern`] — Proposition 2.8: descendent patterns are stackless.
//! * [`fooling`] — the inexpressibility gadgets (Examples 2.9, 2.10,
//!   Lemmas 3.12, 3.16, Appendix B) as executable tree generators.
//! * [`dtd`] — Section 4.1: path DTDs and Segoufin–Vianu weak validation.
//! * [`term`] — Section 4.2 / Appendix B: the term-encoding (JSON-style)
//!   compilers for blind classes.
//! * [`rpqness`] — Proposition 2.13 (bounded-exhaustive variant).
//! * [`planner`] — the database face: classify a query, pick the cheapest
//!   evaluator, run it.
//! * [`engine`] — the fused byte→automaton streaming engine: the
//!   tokenizer composed with the planned evaluator into one machine, so a
//!   single pass over raw XML bytes evaluates the query
//!   ([`planner::CompiledQuery::fused`]); registerless queries also get a
//!   data-parallel chunked path.
//! * [`papers`] — every automaton, language, and example the paper names,
//!   as constructors keyed by figure/example number.
//!
//! # Example
//!
//! Classify a path language and evaluate it stacklessly:
//!
//! ```
//! use st_automata::{compile_regex, Alphabet};
//! use st_core::planner::{CompiledQuery, Strategy};
//! use st_trees::{encode::markup_encode, generate};
//!
//! let gamma = Alphabet::of_chars("abc");
//! // Γ*a Γ*b — Example 2.12's third row: stackless, not registerless.
//! let dfa = compile_regex(".*a.*b", &gamma).unwrap();
//! let plan = CompiledQuery::compile(&dfa);
//! assert_eq!(plan.strategy(), Strategy::Stackless);
//! assert_eq!(plan.n_registers(), 1);
//!
//! let doc = generate::random_attachment(&gamma, 500, 0.6, 42);
//! let tags = markup_encode(&doc);
//! let selected = plan.select(&tags); // document-order node ids
//! assert_eq!(selected.len(), plan.count(&tags));
//! ```

// Unsafe is denied crate-wide and re-allowed in exactly one module:
// `simd`, the vector kernels behind runtime feature detection.
#![deny(unsafe_code)]
#![deny(missing_docs)]

pub mod analysis;
pub mod classify;
pub mod closure;
pub mod dtd;
pub mod eflat;
pub mod emit;
pub mod engine;
pub mod error;
pub mod extensions;
pub mod extract;
pub mod fooling;
pub mod har;
pub mod model;
pub mod papers;
pub mod pattern;
pub mod plancache;
pub mod planner;
pub mod query;
pub mod queryset;
pub mod registerless;
pub mod restricted;
pub mod rpqness;
pub mod session;
mod simd;
pub mod structural;
pub mod table;
pub mod term;

pub use analysis::Analysis;
pub use classify::{classify, ClassReport, Verdict};
pub use emit::{EmissionCursor, EmitSink, MatchStream, StreamedMatch};
pub use engine::{ByteDfa, FusedQuery, TagLexer};
pub use error::CoreError;
pub use model::{DraProgram, DraRunner, LoadMask, StreamSymbol};
pub use plancache::{plan_fingerprint, PlanCache, PlanCacheStats};
pub use planner::{CompiledQuery, CompiledTermQuery, Strategy};
pub use query::{Query, QueryError};
pub use queryset::{
    ProductShape, QuerySet, QuerySetCheckpoint, QuerySetOutcome, QuerySetSession, SetGrouping,
    DEFAULT_PRODUCT_BUDGET, MAX_SET_MEMBERS,
};
pub use session::{
    check_event_limits, monotonic_clock, CheckpointState, ClockFn, Diagnostic, EngineCheckpoint,
    EngineSession, ErrorClass, LimitExceeded, LimitKind, Limits, RecoveryOutcome, SessionError,
    SessionOutcome, DEFAULT_MAX_DIAGNOSTICS,
};

/// One coherent import surface for query evaluation: the [`Query`]
/// builder, the streaming session machinery, resource limits, and the
/// observability handle they all accept.
///
/// ```
/// use st_core::prelude::*;
/// # use st_automata::Alphabet;
/// let q = Query::compile(".*a", &Alphabet::of_chars("ab")).unwrap();
/// assert_eq!(q.count(b"<a></a>").unwrap(), 1);
/// ```
pub mod prelude {
    pub use crate::emit::{EmissionCursor, EmitSink, MatchStream, StreamedMatch};
    pub use crate::engine::FusedQuery;
    pub use crate::plancache::{PlanCache, PlanCacheStats};
    pub use crate::planner::{CompiledQuery, Strategy};
    pub use crate::query::{Query, QueryError};
    pub use crate::queryset::{
        QuerySet, QuerySetCheckpoint, QuerySetOutcome, QuerySetSession, SetGrouping,
    };
    pub use crate::session::{
        monotonic_clock, ClockFn, Diagnostic, EngineCheckpoint, EngineSession, ErrorClass,
        LimitExceeded, LimitKind, Limits, RecoveryOutcome, SessionError, SessionOutcome,
    };
    pub use st_obs::{ObsHandle, Snapshot, TraceEvent};
}
