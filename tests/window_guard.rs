//! The window-checked depth guard against the per-event reference.
//!
//! The byte engines track the depth per event but compare it with the
//! depth and imbalance budgets once per 4 KiB index window, replaying a
//! window through the exact per-event rule only when it crosses one.
//! These tests place breaches where that scheme could slip — on the
//! first and last byte of an index window and of a 64 KiB session
//! window, and on tags cut by those boundaries — and check every guarded
//! entry point (sessions of one query and of a query set, the limited
//! one-shot runs, and sessions resumed from a checkpoint), indexed and
//! forced-scalar, against `st_conform::guard::reference_breach`: the
//! same typed `LimitExceeded` kind, limit and offset, or, where the
//! reference finds no breach, exactly the outcome of the run without the
//! structural budgets.  A breach and a malformed tag in one window
//! report whichever comes first.

use stackless_streamed_trees::automata::Alphabet;
use stackless_streamed_trees::conform::guard::reference_breach;
use stackless_streamed_trees::core::session::{LimitKind, Limits, SessionError};
use stackless_streamed_trees::core::structural::STRUCTURAL_WINDOW;
use stackless_streamed_trees::core::{FusedQuery, Query, QuerySet, Strategy};

/// Bytes per session window: the unit of the byte and clock checks.
const SESSION_WINDOW: usize = 64 << 10;

/// One query per engine class.
const PATTERNS: [(&str, Strategy); 3] = [
    ("a.*b", Strategy::Registerless),
    (".*a.*b", Strategy::Stackless),
    (".*ab", Strategy::Stack),
];

/// Offsets for the byte that fires the breaching event: the last and
/// first byte of an index window and of a session window, and the `>` of
/// tags whose `<` lies before the boundary.
fn targets() -> Vec<usize> {
    let mut t = vec![150];
    for edge in [STRUCTURAL_WINDOW, 2 * STRUCTURAL_WINDOW, SESSION_WINDOW] {
        t.extend([edge - 1, edge, edge + 1, edge + 2]);
    }
    t
}

/// `depth - 1` nested `<a>` opens, text, then a `tag` whose `>` is byte
/// `t`, then every element closed: the tag reaches depth `depth`.
fn deep_doc(t: usize, depth: usize, tag: &str) -> Vec<u8> {
    let mut doc = b"<a>".repeat(depth - 1);
    assert!(doc.len() + tag.len() <= t + 1, "target {t} too early");
    doc.resize(t + 1 - tag.len(), b'x');
    doc.extend_from_slice(tag.as_bytes());
    if !tag.ends_with("/>") {
        doc.extend_from_slice(b"</b>");
    }
    doc.extend(b"</a>".repeat(depth - 1));
    doc
}

/// `strays - 1` unmatched `</a>`, text, and one more whose `>` is byte
/// `t`, inside an `<a>` element opened after them.
fn stray_doc(t: usize, strays: usize) -> Vec<u8> {
    let mut doc = b"</a>".repeat(strays - 1);
    doc.resize(t - 3, b'x');
    doc.extend_from_slice(b"</a><a><b/></a>");
    doc
}

/// The outcome of one guarded run, typed: matches (one list per set
/// member) or the error.
type Outcome = Result<Vec<Vec<usize>>, SessionError>;

/// Every guarded entry point over `doc` under `limits`, resumed ones
/// from a checkpoint at `cut` taken without budgets.
fn runs(
    fused: &FusedQuery,
    set: &QuerySet,
    doc: &[u8],
    limits: &Limits,
    cut: usize,
) -> Vec<(&'static str, Outcome)> {
    let one = |r: Result<Vec<usize>, SessionError>| r.map(|m| vec![m]);
    let fed = |size: usize| {
        let mut s = fused.session(limits.clone());
        for chunk in doc.chunks(size) {
            s.feed(chunk)?;
        }
        s.finish().map(|o| o.matches)
    };
    let resumed = || {
        let mut s = fused.session(Limits::none());
        s.feed(&doc[..cut]).expect("the prefix is well-formed");
        let mut s = fused.resume(&s.checkpoint().unwrap(), limits.clone())?;
        s.feed(&doc[cut..])?;
        s.finish().map(|o| o.matches)
    };
    let set_fed = || {
        let mut s = set.session(limits.clone());
        s.feed(doc)?;
        s.finish().map(|o| o.matches)
    };
    let set_resumed = || {
        let mut s = set.session(Limits::none());
        s.feed(&doc[..cut]).expect("the prefix is well-formed");
        let mut s = set.resume(&s.checkpoint().unwrap(), limits.clone())?;
        s.feed(&doc[cut..])?;
        s.finish().map(|o| o.matches)
    };
    vec![
        ("session", one(fed(doc.len().max(1)))),
        ("session/1000", one(fed(1000))),
        ("session/64k+7", one(fed(SESSION_WINDOW + 7))),
        (
            "select_limited",
            one(fused.select_bytes_limited(doc, limits)),
        ),
        (
            "count_limited",
            fused
                .count_bytes_limited(doc, limits)
                .map(|n| vec![vec![n]]),
        ),
        ("resumed", one(resumed())),
        ("set_session", set_fed()),
        ("set_resumed", set_resumed()),
    ]
}

/// Checks every entry point, indexed and forced-scalar, against the
/// reference; returns how many runs reported a breach.
fn check(g: &Alphabet, doc: &[u8], limits: &Limits, cut: usize, what: &str) -> usize {
    let mut breaches = 0;
    let mut unguarded = limits.clone();
    (unguarded.max_depth, unguarded.max_imbalance) = (None, None);
    for (pattern, strategy) in PATTERNS {
        let query = Query::compile(pattern, g).unwrap();
        assert_eq!(query.strategy(), strategy, "{pattern}");
        let set = QuerySet::compile(&[pattern, "b"], g).unwrap();
        for scalar in [false, true] {
            let limits = limits.clone().with_force_scalar(scalar);
            let unguarded = unguarded.clone().with_force_scalar(scalar);
            let got = runs(query.fused(), &set, doc, &limits, cut);
            let free = runs(query.fused(), &set, doc, &unguarded, cut);
            for ((entry, got), (_, free)) in got.into_iter().zip(free) {
                let from = if entry.ends_with("resumed") { cut } else { 0 };
                let want = match reference_breach(doc, g, &limits, from) {
                    Some(b) => Err(SessionError::Limit(b)),
                    None => free,
                };
                assert_eq!(
                    got, want,
                    "{what}: {pattern} {entry} (scalar {scalar}, cut {cut})"
                );
                breaches += usize::from(matches!(got, Err(SessionError::Limit(_))));
            }
        }
    }
    breaches
}

#[test]
fn depth_breaches_at_window_edges_match_the_per_event_rule() {
    let g = Alphabet::of_chars("ab");
    for t in targets() {
        for (depth, tag) in [(3, "<b>"), (3, "<b/>"), (3, "<b x>"), (40, "<b>")] {
            let doc = deep_doc(t, depth, tag);
            let limits = Limits::none().with_max_depth(depth - 1);
            let b = reference_breach(&doc, &g, &limits, 0).expect("placed breach");
            assert_eq!((b.kind, b.offset), (LimitKind::Depth, t), "{tag} at {t}");
            let what = format!("depth {depth} {tag} at {t}");
            assert!(check(&g, &doc, &limits, t / 2, &what) > 0, "{what}");
            // At the budget, not past it: the window check replays and
            // finds no breach.
            let limits = Limits::none().with_max_depth(depth);
            assert_eq!(check(&g, &doc, &limits, t / 2, &what), 0, "{what}");
        }
    }
}

#[test]
fn imbalance_breaches_at_window_edges_match_the_per_event_rule() {
    let g = Alphabet::of_chars("ab");
    for t in targets() {
        for strays in [1, 3] {
            let doc = stray_doc(t, strays);
            let limits = Limits::none().with_max_imbalance(strays - 1);
            let b = reference_breach(&doc, &g, &limits, 0).expect("placed breach");
            assert_eq!(
                (b.kind, b.offset),
                (LimitKind::Imbalance, t),
                "{strays} at {t}"
            );
            let what = format!("{strays} strays, last at {t}");
            assert!(check(&g, &doc, &limits, t / 2, &what) > 0, "{what}");
            // Both budgets, the depth one loose: the imbalance still wins.
            let both = limits.with_max_depth(4);
            check(&g, &doc, &both, t / 2, &what);
        }
    }
}

#[test]
fn breach_and_malformed_tag_in_one_window_report_the_first() {
    let g = Alphabet::of_chars("ab");
    for t in targets().into_iter().filter(|&t| t > 100) {
        let limits = Limits::none().with_max_depth(2);
        // The breach, then a malformed tag six bytes on.
        let mut doc = deep_doc(t, 3, "<b>");
        doc.splice(t + 1..t + 1, *b"x< a>");
        assert_eq!(check(&g, &doc, &limits, t / 2, "breach first"), 48);
        // A malformed tag a few bytes before the breach.
        let mut doc = deep_doc(t, 3, "<b>");
        doc.splice(t - 10..t - 10, *b"< a>");
        assert_eq!(check(&g, &doc, &limits, t / 2, "error first"), 0);
        // The input ends inside the breaching tag's window, after it.
        let mut doc = deep_doc(t, 3, "<b>");
        doc.truncate(t + 3);
        assert_eq!(check(&g, &doc, &limits, t / 2, "truncated"), 48);
    }
}

#[test]
fn byte_budget_cuts_before_or_after_the_depth_breach() {
    let g = Alphabet::of_chars("ab");
    let t = SESSION_WINDOW + 1;
    let doc = deep_doc(t, 3, "<b>");
    for bytes in [t - 2, t, t + 1, t + 2, doc.len()] {
        let limits = Limits::none().with_max_depth(2).with_max_bytes(bytes);
        check(&g, &doc, &limits, t / 2, &format!("bytes {bytes}"));
    }
}
