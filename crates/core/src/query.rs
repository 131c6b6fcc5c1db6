//! The front-door query API: compile a path pattern once, let the
//! planner pick the cheapest streaming engine, and evaluate documents
//! through one coherent handle.
//!
//! Before this module, callers assembled the pipeline by hand —
//! `compile_regex` → [`CompiledQuery::compile`] → [`CompiledQuery::fused`]
//! — and reached into `FusedQuery::{registerless,stackless,stack}` when
//! they wanted a specific backend.  [`Query`] folds those steps into one
//! constructor and carries both artifacts: the event-level plan (for
//! buffered tag streams) and the fused byte engine (for raw document
//! bytes, sessions, and checkpoints).
//!
//! ```
//! use st_core::prelude::*;
//! use st_automata::Alphabet;
//!
//! let gamma = Alphabet::of_chars("ab");
//! let query = Query::compile(".*a", &gamma).unwrap();
//! assert_eq!(query.strategy(), Strategy::Registerless);
//! let n = query.count(b"<a><b></b></a>").unwrap();
//! assert_eq!(n, 1);
//! ```

use std::sync::Arc;

use st_automata::{compile_regex, Alphabet, AutomataError, Dfa};
use st_trees::error::TreeError;

use crate::engine::FusedQuery;
use crate::error::CoreError;
use crate::planner::{CompiledQuery, Strategy};
use crate::session::{
    EngineCheckpoint, EngineSession, Limits, RecoveryOutcome, SessionError, SessionOutcome,
};

/// Why a [`Query`] could not be built.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum QueryError {
    /// The path pattern did not parse as a regex over the alphabet.
    Pattern(AutomataError),
    /// The planner's chosen engine could not be fused with the byte
    /// lexer (e.g. the composite table exceeds its state budget).
    Engine(CoreError),
}

impl std::fmt::Display for QueryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            QueryError::Pattern(e) => write!(f, "bad pattern: {e}"),
            QueryError::Engine(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for QueryError {}

impl From<AutomataError> for QueryError {
    fn from(e: AutomataError) -> QueryError {
        QueryError::Pattern(e)
    }
}

impl From<CoreError> for QueryError {
    fn from(e: CoreError) -> QueryError {
        QueryError::Engine(e)
    }
}

/// A compiled path query: the planner-chosen evaluation strategy, the
/// event-level plan, and the fused byte engine, behind one handle.
///
/// Construct with [`Query::compile`] (a regex-style path pattern) or
/// [`Query::from_dfa`] (an already-built ancestor-string DFA, e.g. from
/// an XPath/JSONPath translator).  Evaluate with [`Query::count`] /
/// [`Query::select`] (one-shot over raw bytes), their `_limited`
/// variants (resource-guarded), or open a checkpointable streaming
/// [`Query::session`].
pub struct Query {
    alphabet: Alphabet,
    /// Shared with the query sets built from it
    /// ([`crate::plancache::PlanCache::get_or_plan`]).
    plan: Arc<CompiledQuery>,
    fused: FusedQuery,
}

impl Query {
    /// Compiles `pattern` (a regex over the alphabet's symbols, matched
    /// against each node's ancestor string) and plans the cheapest
    /// engine for it.
    ///
    /// # Errors
    ///
    /// [`QueryError::Pattern`] if the pattern does not parse,
    /// [`QueryError::Engine`] if the chosen engine cannot be fused.
    pub fn compile(pattern: &str, alphabet: &Alphabet) -> Result<Query, QueryError> {
        let dfa = compile_regex(pattern, alphabet)?;
        Ok(Query::from_dfa(&dfa, alphabet)?)
    }

    /// Like [`Query::compile`], but consults (and on a miss, fills) the
    /// given [`crate::plancache::PlanCache`], so hot patterns skip
    /// determinization entirely.  Cached and fresh compiles are
    /// indistinguishable — compilation is deterministic, and the cache
    /// verifies the full `(pattern, alphabet)` key on every hit.
    ///
    /// # Errors
    ///
    /// As [`Query::compile`]; failures are never cached.
    pub fn compile_cached(
        pattern: &str,
        alphabet: &Alphabet,
        cache: &crate::plancache::PlanCache,
    ) -> Result<std::sync::Arc<Query>, QueryError> {
        cache.get_or_compile(pattern, alphabet)
    }

    /// Plans and fuses a query given directly as a DFA over the
    /// alphabet (ancestor-string semantics, as produced by
    /// `compile_regex` or the `st-rpq` translators).
    ///
    /// # Errors
    ///
    /// See [`CompiledQuery::fused`].
    pub fn from_dfa(dfa: &Dfa, alphabet: &Alphabet) -> Result<Query, CoreError> {
        let plan = CompiledQuery::compile(dfa);
        let fused = plan.fused(alphabet)?;
        Ok(Query {
            alphabet: alphabet.clone(),
            plan: Arc::new(plan),
            fused,
        })
    }

    /// The strategy the planner chose (Registerless / Stackless /
    /// Stack).
    pub fn strategy(&self) -> Strategy {
        self.fused.strategy()
    }

    /// Forces (or re-enables) the scalar byte path for every evaluation
    /// through this query — the builder form of the process-wide
    /// `ST_FORCE_SCALAR` escape hatch and of
    /// [`Limits::with_force_scalar`]: the structural scan runs with
    /// certification off, so the tag lexer steps every byte of markup.
    /// Results are bitwise identical either way; this exists as a kill
    /// switch and as the reference side of differential testing.
    pub fn with_force_scalar(mut self, on: bool) -> Query {
        self.fused.set_force_scalar(on);
        self
    }

    /// The alphabet the query was compiled against.
    pub fn alphabet(&self) -> &Alphabet {
        &self.alphabet
    }

    /// The event-level plan, for callers that evaluate buffered tag
    /// streams ([`CompiledQuery::select`] / [`CompiledQuery::count`])
    /// or inspect the classification report.
    pub fn plan(&self) -> &CompiledQuery {
        &self.plan
    }

    /// A shared handle on [`Self::plan`].
    pub(crate) fn shared_plan(&self) -> Arc<CompiledQuery> {
        Arc::clone(&self.plan)
    }

    /// The fused byte engine (for the data-parallel chunked entry
    /// points and the serving runtime, which shares engines via `Arc`).
    pub fn fused(&self) -> &FusedQuery {
        &self.fused
    }

    /// Consumes the query, keeping only the fused byte engine.
    pub fn into_fused(self) -> FusedQuery {
        self.fused
    }

    /// Streaming count of selected nodes over raw document bytes.
    ///
    /// # Errors
    ///
    /// The scanner's diagnostic if the document is malformed.
    pub fn count(&self, bytes: &[u8]) -> Result<usize, TreeError> {
        self.fused.count_bytes(bytes)
    }

    /// Document-order ids of selected nodes over raw document bytes.
    ///
    /// # Errors
    ///
    /// The scanner's diagnostic if the document is malformed.
    pub fn select(&self, bytes: &[u8]) -> Result<Vec<usize>, TreeError> {
        self.fused.select_bytes(bytes)
    }

    /// Resource-guarded count; see [`FusedQuery::count_bytes_limited`].
    ///
    /// # Errors
    ///
    /// [`SessionError::Parse`] or [`SessionError::Limit`].
    pub fn count_limited(&self, bytes: &[u8], limits: &Limits) -> Result<usize, SessionError> {
        self.fused.count_bytes_limited(bytes, limits)
    }

    /// Resource-guarded select; see [`FusedQuery::select_bytes_limited`].
    ///
    /// # Errors
    ///
    /// [`SessionError::Parse`] or [`SessionError::Limit`].
    pub fn select_limited(
        &self,
        bytes: &[u8],
        limits: &Limits,
    ) -> Result<Vec<usize>, SessionError> {
        self.fused.select_bytes_limited(bytes, limits)
    }

    /// Lenient evaluation with diagnostics; see
    /// [`FusedQuery::select_bytes_recovering_limited`].
    pub fn select_recovering(&self, bytes: &[u8], limits: &Limits) -> RecoveryOutcome {
        self.fused.select_bytes_recovering_limited(bytes, limits)
    }

    /// Opens a checkpointable streaming session under `limits`.
    pub fn session(&self, limits: Limits) -> EngineSession<'_> {
        self.fused.session(limits)
    }

    /// Reopens a session from a checkpoint minted by the same query.
    ///
    /// # Errors
    ///
    /// See [`FusedQuery::resume`].
    pub fn resume(
        &self,
        checkpoint: &EngineCheckpoint,
        limits: Limits,
    ) -> Result<EngineSession<'_>, SessionError> {
        self.fused.resume(checkpoint, limits)
    }

    /// Runs the whole document through a session in one call.
    ///
    /// # Errors
    ///
    /// As for [`EngineSession::feed`] / [`EngineSession::finish`].
    pub fn run_session(
        &self,
        bytes: &[u8],
        limits: &Limits,
    ) -> Result<SessionOutcome, SessionError> {
        self.fused.run_session(bytes, limits)
    }
}
