//! Earliest streaming match emission: sinks, cursors, and the
//! [`MatchStream`] layer over [`EngineSession`].
//!
//! All three engine classes of the paper decide selection at a node's
//! *open* event — each engine's per-event step reports the verdict with the
//! open (the registerless event table carries it in the open entry, and
//! the stackless/stack steps test `dfa.is_accepting` immediately after
//! stepping on the open letter).  The byte offset of the open tag is therefore the
//! **earliest offset at which the match is certain** (Gienieczko–Muñoz–
//! Murlak–Paperman, "Earliest query answering over streamed trees"),
//! and the collected match list equals the emitted stream: no candidate
//! is ever retracted on a well-formed continuation.
//!
//! What *can* invalidate a tentative match is the window it was decided
//! in failing later — a parse error or a limit breach aborts the window
//! before the session's state advances past it, and the whole run
//! reports the typed error with no matches.  The session therefore
//! maintains a **certainty frontier**: matches decided inside a window
//! are held back until the window completes, then folded into the
//! [`EmissionCursor`] and released.  The emitted prefix of a failed
//! session is exactly the emitted prefix of every successful re-run of
//! the same bytes, which is what makes failover replay dedupable.
//!
//! The cursor (count + a word-wise FNV-1a digest over `(node, offset)`
//! pairs in emission order) travels inside every
//! [`crate::session::EngineCheckpoint`], so a resuming side knows
//! precisely how much of the stream was already delivered — and a forged
//! cursor is detected, never silently trusted.  The digest folds each
//! pair as two `u64` words, `h = (h ^ w) * FNV_PRIME`, so a match costs
//! two dependent multiplies.  Each step is a bijection in `h` and
//! injective in `w`, so changing the node *or* the offset of any single
//! match changes the digest; changing both can collide, as any fold of
//! two words into one must.  The runtime does not lean on the digest for
//! replayed positions: it compares each replayed match with its ledger
//! entry directly.

use crate::engine::FusedQuery;
use crate::session::{EngineSession, Limits, SessionError, SessionOutcome, WINDOW};

/// One match as the streaming layer delivers it: the document-order node
/// id plus the absolute byte offset of the open event that decided it —
/// the earliest offset at which the match is certain.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct StreamedMatch {
    /// Document-order id of the selected node.
    pub node: usize,
    /// Absolute byte offset of the deciding open event.
    pub offset: usize,
}

/// A crash-consistent position in the emitted match stream: how many
/// matches have crossed the certainty frontier, plus a word-wise FNV-1a
/// digest of the emitted prefix (folding each `(node, offset)` pair in
/// order, one `u64` word per field).
///
/// Two runs over the same document emit identical streams, so equal
/// counts imply equal digests — a digest mismatch at equal counts is
/// proof of a forged or corrupted cursor, and the session layer turns it
/// into a typed error rather than a silent duplicate or gap.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct EmissionCursor {
    /// Matches emitted (i.e. past the certainty frontier) so far.
    pub count: u64,
    /// Word-wise FNV-1a digest of the emitted prefix.
    pub digest: u64,
}

const FNV_PRIME: u64 = 0x0000_0100_0000_01B3;
const FNV_BASIS: u64 = 0xCBF2_9CE4_8422_2325;

impl Default for EmissionCursor {
    fn default() -> EmissionCursor {
        EmissionCursor::new()
    }
}

impl EmissionCursor {
    /// The cursor of an empty stream (count 0, FNV offset basis).
    pub const fn new() -> EmissionCursor {
        EmissionCursor {
            count: 0,
            digest: FNV_BASIS,
        }
    }

    /// Folds one emitted match into the cursor: `node`, then `offset`,
    /// each as one `u64` word.
    #[inline]
    pub fn push(&mut self, m: StreamedMatch) {
        let h = (self.digest ^ m.node as u64).wrapping_mul(FNV_PRIME);
        self.digest = (h ^ m.offset as u64).wrapping_mul(FNV_PRIME);
        self.count += 1;
    }

    /// The cursor obtained by emitting `matches` in order from an empty
    /// stream — the reference against which a wire cursor is verified.
    pub fn over(matches: &[StreamedMatch]) -> EmissionCursor {
        let mut c = EmissionCursor::new();
        for &m in matches {
            c.push(m);
        }
        c
    }
}

/// A consumer of emitted matches.  Implemented for `Vec<StreamedMatch>`
/// (collect) and for closures (push each match onward as it is decided).
pub trait EmitSink {
    /// Receives one match the moment it crosses the certainty frontier.
    fn emit(&mut self, m: StreamedMatch);
}

impl EmitSink for Vec<StreamedMatch> {
    fn emit(&mut self, m: StreamedMatch) {
        self.push(m);
    }
}

impl<F: FnMut(StreamedMatch)> EmitSink for F {
    fn emit(&mut self, m: StreamedMatch) {
        self(m)
    }
}

/// A streaming run of a [`FusedQuery`]: an [`EngineSession`] whose
/// emitted matches are drained to the caller after every fed segment,
/// rather than collected until end-of-document.
///
/// ```
/// use st_core::prelude::*;
/// # use st_automata::Alphabet;
///
/// let q = Query::compile("a.*b", &Alphabet::of_chars("ab")).unwrap();
/// let mut s = MatchStream::new(q.fused(), Limits::none());
/// let early = s.feed(b"<a><b></b>").unwrap();
/// assert_eq!(early.len(), 1); // delivered before the document ends
/// let (outcome, cursor) = s.finish(b"</a>").unwrap();
/// assert_eq!(cursor.count, 1);
/// assert_eq!(outcome.matches, vec![1]);
/// ```
pub struct MatchStream<'q> {
    session: EngineSession<'q>,
}

impl<'q> MatchStream<'q> {
    /// Opens a streaming run under `limits`.
    pub fn new(query: &'q FusedQuery, limits: Limits) -> MatchStream<'q> {
        MatchStream {
            session: query.session(limits),
        }
    }

    /// Wraps an existing session (fresh or resumed from a checkpoint);
    /// the emitted stream continues from the session's cursor.
    pub fn from_session(session: EngineSession<'q>) -> MatchStream<'q> {
        MatchStream { session }
    }

    /// Feeds the next segment and returns the matches that crossed the
    /// certainty frontier during it, in emission order.
    ///
    /// # Errors
    ///
    /// As for [`EngineSession::feed`]; on error nothing new is emitted.
    pub fn feed(&mut self, segment: &[u8]) -> Result<Vec<StreamedMatch>, SessionError> {
        self.session.feed(segment)?;
        Ok(self.session.drain_emitted().collect())
    }

    /// The session's emission cursor (count + digest of everything
    /// emitted so far, including pre-resume history).
    pub fn cursor(&self) -> EmissionCursor {
        self.session.emission_cursor()
    }

    /// The underlying session (offset, depth, checkpointing).
    pub fn session(&self) -> &EngineSession<'q> {
        &self.session
    }

    /// Feeds a final segment (possibly empty), declares end-of-input,
    /// and returns the outcome together with the final cursor.
    ///
    /// # Errors
    ///
    /// As for [`EngineSession::feed`] / [`EngineSession::finish`].
    pub fn finish(
        mut self,
        segment: &[u8],
    ) -> Result<(SessionOutcome, EmissionCursor), SessionError> {
        self.session.feed(segment)?;
        let cursor = self.session.emission_cursor();
        let outcome = self.session.finish()?;
        Ok((outcome, cursor))
    }
}

impl FusedQuery {
    /// Streamed select over a whole in-memory document: every match is
    /// handed to `sink` at the earliest window boundary after it is
    /// decided (64 KiB granularity), rather than at end-of-document.
    /// The collected outcome is returned too and always agrees with the
    /// emitted stream — that identity is fuzzed by st-conform.
    ///
    /// # Errors
    ///
    /// As for [`EngineSession::feed`] / [`EngineSession::finish`]; on
    /// error the sink has received exactly the matches every successful
    /// re-run of the same prefix would emit.
    pub fn select_bytes_streamed(
        &self,
        bytes: &[u8],
        limits: &Limits,
        sink: &mut dyn EmitSink,
    ) -> Result<SessionOutcome, SessionError> {
        let mut session = self.session(limits.clone());
        let mut pos = 0usize;
        while pos < bytes.len() {
            let end = (pos + WINDOW).min(bytes.len());
            session.feed(&bytes[pos..end])?;
            for m in session.drain_emitted() {
                sink.emit(m);
            }
            pos = end;
        }
        session.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn m(node: usize, offset: usize) -> StreamedMatch {
        StreamedMatch { node, offset }
    }

    #[test]
    fn digest_of_a_fixed_stream_is_pinned() {
        // The checkpoint wire format (version 3) carries this digest; a
        // change here is a format change and needs a version bump.
        let c = EmissionCursor::over(&[m(1, 3), m(4, 10), m(7, 25)]);
        assert_eq!(c.count, 3);
        assert_eq!(c.digest, 0x4AD5_3325_29B5_F7AF);
        assert_eq!(EmissionCursor::over(&[]), EmissionCursor::new());
    }

    #[test]
    fn digest_changes_with_either_field_of_a_match() {
        let base = [m(1, 3), m(4, 10), m(7, 25)];
        let d = EmissionCursor::over(&base).digest;
        for i in 0..base.len() {
            for edit in [
                m(base[i].node + 1, base[i].offset),
                m(base[i].node, base[i].offset + 1),
                m(base[i].offset, base[i].node),
            ] {
                let mut changed = base;
                changed[i] = edit;
                assert_ne!(EmissionCursor::over(&changed).digest, d, "{i} {edit:?}");
            }
        }
    }
}
