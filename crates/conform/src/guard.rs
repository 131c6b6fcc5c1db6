//! The per-event reference for the structural budgets.
//!
//! The byte engines track the depth per event but check the depth and
//! imbalance budgets once per index window, replaying only a window that
//! crosses one.  This module is the rule they must agree with, written
//! the plain way: every event of the `Scanner` (a tokenizer independent
//! of the byte lexer that accepts the same documents) moves the depth
//! and is checked at once.

use st_automata::{Alphabet, Tag};
use st_core::session::{LimitExceeded, LimitKind, Limits};
use st_trees::xml::Scanner;

/// The first depth or imbalance breach a per-event check finds in `doc`.
///
/// An event's offset is that of the `>` that fires it; events at or past
/// `limits.max_bytes` are never reached.  Events before `from` move the
/// depth unchecked, as they do for a session resumed at `from`.  Every
/// event is checked against both budgets: the depth it peaks at (one
/// deeper than before for an open) against `max_depth`, then the depth
/// it leaves against `-max_imbalance`.  `None` when no event breaches
/// before the first malformed tag.
pub fn reference_breach(
    doc: &[u8],
    alphabet: &Alphabet,
    limits: &Limits,
    from: usize,
) -> Option<LimitExceeded> {
    let max = limits.max_depth.map_or(i64::MAX, |d| d as i64);
    let min = limits.max_imbalance.map_or(i64::MIN, |d| -(d as i64));
    let end = limits.max_bytes.unwrap_or(usize::MAX);
    let mut scanner = Scanner::new(doc, alphabet);
    let mut depth = 0i64;
    while let Some(Ok(tag)) = scanner.next() {
        let offset = scanner.position() - 1;
        debug_assert_eq!(doc[offset], b'>');
        if offset >= end {
            break;
        }
        let (peak, left) = match tag {
            Tag::Open(_) => (depth + 1, depth + 1),
            Tag::Close(_) => (depth, depth - 1),
        };
        if offset >= from {
            let breach = |kind, limit: i64| LimitExceeded {
                kind,
                limit: limit.unsigned_abs(),
                offset,
            };
            if peak > max {
                return Some(breach(LimitKind::Depth, max));
            }
            if left < min {
                return Some(breach(LimitKind::Imbalance, min));
            }
        }
        depth = left;
    }
    None
}

/// The highest depth any event of `doc` reaches and the lowest it
/// leaves, up to the first malformed tag: `(0, 0)` for a document
/// without tags.  Budget draws centre on these.
pub fn depth_extent(doc: &[u8], alphabet: &Alphabet) -> (i64, i64) {
    let (mut depth, mut peak, mut trough) = (0i64, 0i64, 0i64);
    for tag in Scanner::new(doc, alphabet).map_while(Result::ok) {
        depth += if tag.is_open() { 1 } else { -1 };
        peak = peak.max(depth);
        trough = trough.min(depth);
    }
    (peak, trough)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_reports_the_first_breaching_event() {
        let g = Alphabet::of_chars("ab");
        let doc = b"<a><b><a/></b></a></a>";
        let limits = Limits::none().with_max_depth(2);
        let b = reference_breach(doc, &g, &limits, 0).expect("the self-close peaks at 3");
        assert_eq!((b.kind, b.limit, b.offset), (LimitKind::Depth, 2, 9));
        let limits = Limits::none().with_max_imbalance(0);
        let b = reference_breach(doc, &g, &limits, 0).expect("the stray close");
        assert_eq!((b.kind, b.limit, b.offset), (LimitKind::Imbalance, 0, 21));
        // Events before `from` only move the depth; a cut past every
        // breach reports none, and a byte budget before it hides it.
        assert_eq!(reference_breach(doc, &g, &limits, 22), None);
        let limits = limits.with_max_bytes(21);
        assert_eq!(reference_breach(doc, &g, &limits, 0), None);
        assert_eq!(depth_extent(doc, &g), (3, -1));
    }

    #[test]
    fn reference_stops_at_the_first_malformed_tag() {
        let g = Alphabet::of_chars("a");
        let limits = Limits::none().with_max_depth(1);
        assert_eq!(reference_breach(b"<a>< a><a>", &g, &limits, 0), None);
        assert!(reference_breach(b"<a><a>< a>", &g, &limits, 0).is_some());
    }
}
