//! Error type for automata construction.

use std::fmt;

/// Errors raised while building alphabets, automata, or regexes.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum AutomataError {
    /// A symbol was interned twice in one alphabet.
    DuplicateSymbol(String),
    /// The empty string is not a valid symbol.
    EmptySymbol,
    /// A letter does not belong to the alphabet in use.
    UnknownLetter {
        /// The offending symbol as written by the user.
        symbol: String,
    },
    /// A transition table row has the wrong arity or points outside the
    /// state space.
    MalformedTransitions {
        /// Human-readable description of the defect.
        detail: String,
    },
    /// Regex parse error with byte position.
    RegexParse {
        /// Byte offset of the error in the pattern.
        position: usize,
        /// What went wrong.
        message: String,
    },
    /// A pattern's automaton needs more states than
    /// [`crate::regex::MAX_PATTERN_STATES`] (or its subset construction
    /// more than [`crate::regex::MAX_SUBSET_STATES`]).
    TooManyStates {
        /// The bound that was exceeded.
        limit: usize,
    },
}

impl fmt::Display for AutomataError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AutomataError::DuplicateSymbol(s) => write!(f, "duplicate symbol {s:?} in alphabet"),
            AutomataError::EmptySymbol => write!(f, "empty string is not a valid symbol"),
            AutomataError::UnknownLetter { symbol } => {
                write!(f, "symbol {symbol:?} is not in the alphabet")
            }
            AutomataError::MalformedTransitions { detail } => {
                write!(f, "malformed transition table: {detail}")
            }
            AutomataError::RegexParse { position, message } => {
                write!(f, "regex parse error at byte {position}: {message}")
            }
            AutomataError::TooManyStates { limit } => {
                write!(f, "pattern needs more than {limit} automaton states")
            }
        }
    }
}

impl std::error::Error for AutomataError {}
