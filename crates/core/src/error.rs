//! Error type for the core crate.

use std::fmt;

/// Errors raised by compilers and decision procedures.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CoreError {
    /// A compiler was invoked on a language outside its class (e.g. the
    /// Lemma 3.5 compiler on a language that is not almost-reversible).
    ClassMismatch {
        /// The class the compiler requires.
        required: &'static str,
        /// A pair of states witnessing the violation, in the minimal
        /// automaton's numbering.
        witness: Option<(usize, usize)>,
    },
    /// A depth-register automaton exceeded the 64-register limit of the
    /// runner.
    TooManyRegisters {
        /// The requested register count.
        requested: usize,
    },
    /// A table-DRA description was malformed.
    MalformedTable {
        /// Human-readable description of the defect.
        detail: String,
    },
    /// A fused byte engine's dense table would outgrow what its entries
    /// address: the registerless composite table (tag lexer × query DFA)
    /// past its `u16` states, or the packed HAR step past `2^26` entries.
    FusedTooLarge {
        /// The table size that was requested.
        states: usize,
    },
    /// A DTD was malformed (e.g. a production references an unknown
    /// symbol).
    MalformedDtd {
        /// Human-readable description of the defect.
        detail: String,
    },
    /// A data-parallel chunk worker panicked.  The panic is caught at
    /// `JoinHandle::join` and converted into this error instead of
    /// unwinding through (or aborting) the caller; the sequential paths
    /// are deliberately *not* retried, so an engine bug cannot hide
    /// behind the certify-or-fallback machinery.
    WorkerFailed {
        /// The panic payload, when it carried a message.
        detail: String,
    },
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::ClassMismatch { required, witness } => {
                write!(f, "language is not {required}")?;
                if let Some((p, q)) = witness {
                    write!(f, " (witness states {p}, {q})")?;
                }
                Ok(())
            }
            CoreError::TooManyRegisters { requested } => {
                write!(
                    f,
                    "{requested} registers requested; the runner supports at most 64"
                )
            }
            CoreError::MalformedTable { detail } => write!(f, "malformed table DRA: {detail}"),
            CoreError::FusedTooLarge { states } => {
                write!(
                    f,
                    "fused byte engine needs a dense table of {states}, more than its entries address"
                )
            }
            CoreError::MalformedDtd { detail } => write!(f, "malformed DTD: {detail}"),
            CoreError::WorkerFailed { detail } => {
                write!(f, "a chunk worker panicked: {detail}")
            }
        }
    }
}

impl std::error::Error for CoreError {}
