//! Structural indexing: the simdjson-style two-pass byte walker every
//! fused evaluation runs on.
//!
//! A per-byte lexer walk pays one dependent table load per byte — the
//! throughput ceiling.  This module replaces the per-byte walk with two
//! passes over fixed-size windows ([`STRUCTURAL_WINDOW`] bytes):
//!
//! 1. **Index build** (`crate::simd`): a vectorized scan produces three
//!    bitmaps per window — `<` positions, `>` positions, and *hazard*
//!    positions (`"` `'` `!` `?`).
//! 2. **Stride**: the driver jumps from `<` to `<`.  For each candidate
//!    tag `[lt, j]` (where `j` is the first `>` after `lt` in the
//!    window), it *certifies* that the span is a plain element tag the
//!    bitmaps fully determine, and if so synthesizes the lexer's event
//!    code directly — the bytes in between are never stepped through.
//!
//! `structural_scan` is the only byte walker of the fused engines: the
//! one-shot runs, the guarded runs, session windows, the chunked pass,
//! the multi-query sets and the recovery scanner all hand it an
//! `EventSink` (see `crate::engine::Drive`: one engine-class step, a
//! sink and a guard) by value.  Once per index window the scan settles
//! the events of the window before (the guard's budget check) and
//! reserves room for the next window's events.
//!
//! # Certification rules
//!
//! A span certifies only if all of the following hold (each rule is what
//! makes "first `>` after `<` ends the tag" and the shortcut
//! classification sound against the [`crate::engine::TagLexer`] grammar):
//!
//! * **No hazard byte strictly inside `(lt, j)`.**  Quotes can hide a
//!   `>` from the tag-end rule; `!` / `?` after `<` open comments or
//!   declarations.  Without them, the lexer's in-tag states only leave on
//!   `>`.
//! * **A `>` exists in the scanned bytes.**  A tag straddling the index
//!   window edge is certified from the bytes that follow the window:
//!   its `>` and the hazard rule are checked there directly (up to 256
//!   bytes on), since the window's bitmaps do not cover them.  A tag
//!   split across a session feed (the scanned bytes end inside it) is
//!   not certified.
//! * **The name classifies.**  Close tags must be exactly
//!   `</name ws* >`; open tags must start with a name-start byte whose
//!   maximal name run is a known label (junk attributes after the name
//!   are fine — the lexer's attribute states accept anything unquoted
//!   except `>`).  Self-closing iff the byte before `>` is `/`, matching
//!   the scanner's `bytes[i-1] == b'/'` test.
//!
//! # Fallback
//!
//! Any failed certification falls back to a *scalar excursion*: the
//! [`crate::engine::TagLexer`] steps byte-at-a-time from the `<` until it
//! returns to its text state (possibly crossing many windows — a long
//! comment, a quoted attribute, a declaration), then striding resumes.  A
//! scan entered mid-markup (session resume at an arbitrary byte cut)
//! starts with such an excursion.  The certified path emits exactly the
//! event codes the lexer would, so results — counts, match sets, error
//! offsets, checkpoint bytes — are bitwise identical whether a span
//! certifies or not.
//!
//! With certification off, every `<` takes the excursion: that is the
//! forced-scalar mode (`ST_FORCE_SCALAR`, any non-empty value except `0`,
//! process-wide; `Limits::with_force_scalar` and
//! `Query::with_force_scalar` per run), the lexer-only reference run the
//! conformance suite's indexed-vs-scalar oracle compares against.
//! Fallback pressure is observable: [`ScanStats`] counts fully-strided
//! windows against windows that needed at least one scalar excursion,
//! surfaced as the obs counters `engine_simd_windows` /
//! `engine_scalar_fallback_windows` (a scan with certification off builds
//! no index and tallies nothing).

use std::mem::ManuallyDrop;
use std::sync::OnceLock;

use crate::engine::{find_lt, is_name_byte, is_name_start, TagLexer, EV_ERROR, EV_NONE, TEXT};
use crate::session::LimitExceeded;
use crate::simd;

/// Bytes per structural-index window: the unit of the build-then-stride
/// pipeline and of certify-or-fallback accounting.  Small enough that
/// the three bitmaps (3 × 512 B) live on the stack and the index of a
/// partially-consumed window stays cache-hot; large enough that the
/// vector kernel amortizes its setup.
pub const STRUCTURAL_WINDOW: usize = 4096;

/// Per-scan structural-index tallies: how many windows were fully
/// strided from the index versus how many needed at least one scalar
/// excursion (hazards, straddling tags, unknown names, or a mid-markup
/// entry state).  Surfaced as the obs counters `engine_simd_windows` and
/// `engine_scalar_fallback_windows`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ScanStats {
    /// Windows consumed entirely by the indexed stride.
    pub simd_windows: u64,
    /// Windows where at least one span failed to certify and the scalar
    /// lexer ran (plus one for a scan entered mid-markup).
    pub fallback_windows: u64,
}

impl ScanStats {
    /// Accumulates another scan's tallies (sessions aggregate across
    /// windows and feeds).
    pub fn merge(&mut self, other: ScanStats) {
        self.simd_windows += other.simd_windows;
        self.fallback_windows += other.fallback_windows;
    }
}

/// How a [`structural_scan`] ended.
pub(crate) enum ScanEnd {
    /// All input consumed; the lexer's final state (TEXT unless the
    /// input ended mid-markup).
    Complete {
        /// Final lexer state.
        lex: u16,
    },
    /// The sink's guard found a budget breach when it settled; the
    /// offset is within the scanned bytes.  The scan stopped at the
    /// settle point, so the step and sink may have run past the
    /// breaching event (at most one index window).
    Breach(LimitExceeded),
    /// Malformed input: the byte offset of the first offending byte,
    /// exactly where the scalar lexer errors.
    Error {
        /// Offset of the offending byte.
        pos: usize,
    },
}

/// Whether `ST_FORCE_SCALAR` disables the indexed path process-wide
/// (read once; any non-empty value except `0` counts).
pub(crate) fn force_scalar_env() -> bool {
    static FORCE: OnceLock<bool> = OnceLock::new();
    *FORCE.get_or_init(|| {
        std::env::var_os("ST_FORCE_SCALAR").is_some_and(|v| !v.is_empty() && v != *"0")
    })
}

/// The vector kernel the structural index is built with on this machine
/// (`"avx2"`, `"sse2"`, `"neon"`, or `"swar"`).  Diagnostic; the
/// experiment harness records it next to throughput numbers.
pub fn simd_kernel() -> &'static str {
    simd::kernel_name()
}

/// Label lookup for the certified classifier: maps a complete element
/// name to its letter without walking the lexer's trie.  Single-byte
/// names (the common case for the paper's Γ alphabets) are one table
/// load; longer names binary-search a sorted list.
#[derive(Clone, Debug)]
pub(crate) struct NameTable {
    /// `letter + 1` for single-byte labels; 0 = no such label.
    single: [u16; 256],
    /// The event code of a short tag with a single-byte name, indexed
    /// by tag kind (open, close, self-closing; a fourth, all-zero row
    /// makes every masked index in bounds) times 256 plus the name byte;
    /// 0 = no such label.
    codes: [u16; 4 * 256],
    /// Sorted `(name, letter)` for labels of length ≥ 2.
    multi: Vec<(Vec<u8>, u16)>,
}

impl NameTable {
    /// Builds the table from the same filtered label set the lexer
    /// compiles into its tries, over an alphabet of `k` letters.
    pub(crate) fn new(labels: &[(Vec<u8>, usize)], k: usize) -> NameTable {
        let mut single = [0u16; 256];
        let mut codes = [0u16; 4 * 256];
        let mut multi: Vec<(Vec<u8>, u16)> = Vec::new();
        for (name, l) in labels {
            if name.len() == 1 {
                single[name[0] as usize] = *l as u16 + 1;
                for kind in 0..3 {
                    codes[kind * 256 + name[0] as usize] = (kind * k + l + 1) as u16;
                }
            } else {
                multi.push((name.clone(), *l as u16));
            }
        }
        multi.sort();
        NameTable {
            single,
            codes,
            multi,
        }
    }

    /// The event code of a short tag of `kind` (0 open, 1 close, 2
    /// self-closing) named by the single byte `b`, 0 if `b` names no
    /// label — the branch-poor short-tag fast path's one load.
    #[inline]
    pub(crate) fn code(&self, kind: usize, b: u8) -> u16 {
        self.codes[(kind & 3) * 256 + b as usize]
    }

    /// The letter of an exact, complete label; `None` otherwise.
    #[inline]
    pub(crate) fn lookup(&self, name: &[u8]) -> Option<u16> {
        match name.len() {
            0 => None,
            1 => {
                let v = self.single[name[0] as usize];
                if v != 0 {
                    Some(v - 1)
                } else {
                    None
                }
            }
            _ => self
                .multi
                .binary_search_by(|(n, _)| n.as_slice().cmp(name))
                .ok()
                .map(|i| self.multi[i].1),
        }
    }
}

/// Most events a scan fires between two [`EventSink::reserve`] calls
/// that cover `w` bytes: every event after the first is a tag whose `<`
/// lies in those bytes, and tags are disjoint and at least 3 bytes long
/// (`<a>`), so there are at most ⌈w/3⌉ of them; one more covers an
/// excursion entered mid-tag.  Dense markup reaches ⌊w/3⌋+1 events in
/// w bytes (see `event_bound_holds_for_dense_markup` and
/// `reserves_cover_every_event`).
#[inline]
pub(crate) const fn max_events(w: usize) -> usize {
    w / 3 + 2
}

/// Where [`structural_scan`] delivers events.
///
/// A plain `FnMut(u16, usize)` closure is a valid sink via the blanket
/// impl (the chunk summary and the probes use one).  The engines go
/// through `crate::engine::Drive`, a struct of scalar fields the scan
/// owns by value: with the sweep inlined and no call on the per-event
/// path receiving a pointer into it, the compiler splits it into scalars
/// it can keep in registers.  Two hooks run once per index window:
/// [`Self::reserve`] pre-sizes the sink's buffers, so per-event writes
/// are bounds-checked stores that never grow, and [`Self::settle`]
/// checks the budgets.  Their out-of-line parts take what they change by
/// value, never a pointer into the sink.
pub(crate) trait EventSink {
    /// Applies one event at byte offset `pos` of the scanned bytes.
    fn event(&mut self, ev: u16, pos: usize);

    /// Makes room for `events` more events: the scan calls this before
    /// each stretch of bytes it drives, with [`max_events`] of its length.
    #[inline]
    fn reserve(&mut self, _events: usize) {}

    /// Checks the events fired since the previous settle point: `seg`
    /// are the bytes they came from, at offset `base` of the scanned
    /// bytes, entered in lexer state `lex` (enough to replay them).  An
    /// `Err` ends the scan with [`ScanEnd::Breach`].
    #[inline]
    fn settle(
        &mut self,
        _lexer: &TagLexer,
        _seg: &[u8],
        _lex: u16,
        _base: usize,
    ) -> Result<(), LimitExceeded> {
        Ok(())
    }
}

impl<F: FnMut(u16, usize)> EventSink for F {
    #[inline]
    fn event(&mut self, ev: u16, pos: usize) {
        self(ev, pos)
    }
}

/// Steps the scalar lexer from `i` (entry state `*lex`) until it returns
/// to TEXT — the certify-failure fallback.  Events fire through the same
/// sink as the certified path, so the composition is exactly the scalar
/// run; an excursion fires at most one event (the lexer is back in TEXT
/// right after a tag's `>`).  `Ok` is the offset back in TEXT (resume
/// striding there); `Err` ends the scan (input exhausted mid-markup, or
/// lexical error).  Always inlined: an out-of-line excursion would force
/// the sink's state through memory at every irregular tag.
#[inline(always)]
fn scalar_excursion(
    lexer: &TagLexer,
    bytes: &[u8],
    mut i: usize,
    lex: &mut u16,
    sink: &mut impl EventSink,
) -> Result<usize, ScanEnd> {
    let n = bytes.len();
    while i < n {
        let (l2, ev) = lexer.step(*lex, bytes[i]);
        *lex = l2;
        if ev != EV_NONE {
            if ev == EV_ERROR {
                return Err(ScanEnd::Error { pos: i });
            }
            sink.event(ev, i);
        }
        i += 1;
        if *lex == TEXT {
            return Ok(i);
        }
    }
    Err(ScanEnd::Complete { lex: *lex })
}

/// Any hazard bit in the half-open window-relative range `[a, b)`?
#[inline]
fn hazard_between(hz: &[u64], a: usize, b: usize) -> bool {
    if a >= b {
        return false;
    }
    let (wa, wb) = (a >> 6, (b - 1) >> 6);
    let lo = !0u64 << (a & 63);
    let hi = !0u64 >> (63 - ((b - 1) & 63));
    if wa == wb {
        return hz[wa] & lo & hi != 0;
    }
    if hz[wa] & lo != 0 {
        return true;
    }
    if hz[wa + 1..wb].iter().any(|&w| w != 0) {
        return true;
    }
    hz[wb] & hi != 0
}

/// Classifies a hazard-free candidate span `bytes[lt..=j]`
/// (`bytes[lt] == b'<'`, `bytes[j]` the first `>` after it) into the
/// lexer's event code, or `None` if the span is not a certifiably plain
/// element tag (the caller falls back to the scalar lexer, which either
/// handles it or reports the error at the exact offending byte).
#[inline]
fn classify_tag(bytes: &[u8], lt: usize, j: usize, names: &NameTable, k: u16) -> Option<u16> {
    debug_assert_eq!(bytes[lt], b'<');
    debug_assert_eq!(bytes[j], b'>');
    let b1 = bytes[lt + 1]; // lt + 1 <= j, in bounds
    if b1 == b'/' {
        // Close tag: exactly `</name ws* >`.
        let mut e = j;
        while e > lt + 2 && bytes[e - 1].is_ascii_whitespace() {
            e -= 1;
        }
        let l = names.lookup(&bytes[lt + 2..e])?;
        Some(k + l + 1)
    } else if is_name_start(b1) {
        // Open tag: the maximal name run must be a known label; after
        // it, unquoted attribute junk runs to the `>` (hazards were
        // excluded, so the lexer's attr states cannot leave early), and
        // `/` immediately before `>` self-closes.
        let mut e = lt + 2;
        while e < j && is_name_byte(bytes[e]) {
            e += 1;
        }
        let l = names.lookup(&bytes[lt + 1..e])?;
        if e != j && bytes[j - 1] == b'/' {
            Some(2 * k + l + 1)
        } else {
            Some(l + 1)
        }
    } else {
        None
    }
}

/// Why [`certified_sweep`] returned.
enum Sweep {
    /// No `<` left in the window.
    Exhausted,
    /// The span starting at window-relative `ltrel` is not a short
    /// single-letter tag (or sits within 3 bytes of the window edge).
    Irregular { ltrel: u16 },
}

/// The certified hot loop for hazard-free windows: consumes consecutive
/// `<x>` / `</x>` / `<x/>` spans with single-byte names straight off the
/// flattened `<`-position array, firing one event per tag.
///
/// Inlined into [`structural_scan`], which owns the sink by value: the
/// loop's live set — cursor, the 4-byte tag register, and the sink's own
/// scalar fields — is SSA values the register allocator is free to keep
/// in registers, because nothing in the loop takes the sink's address.
/// The sink's `event` is *inlined into
/// the loop body* rather than batched, so the out-of-order core overlaps
/// the independent per-tag certification work with the sink's serial
/// dependent-load chain (the event-table walk), which is the throughput
/// floor.  Two further deliberate asymmetries with the general loop:
///
/// * No `>` positions at all: one 4-byte load covers every byte a short
///   tag can touch, and the closing `>` is found *in that register*
///   (`b2 == '>'` ⇒ length 2, `b3 == '>'` ⇒ length 3).  A `<` cannot
///   occur inside a certified short span, so the `<` array alone drives
///   the walk and nothing needs resyncing between tags.
/// * The certify predicate is computed with `&`/`|` (never `&&`/`||`),
///   so the open/close distinction never becomes a conditional branch
///   the predictor has to guess on tag-soup documents — the single
///   certified/irregular branch is almost always taken the same way.
#[inline(always)]
fn certified_sweep<S: EventSink>(
    w: &[u8],
    wbase: usize,
    rel: u16,
    lts: &[u16],
    ai: &mut usize,
    names: &NameTable,
    sink: &mut S,
) -> Sweep {
    let mut a = *ai;
    // Resync after an excursion or a classified long tag: skip the
    // positions the byte cursor already passed (stray `<` in attribute
    // junk).  Zero iterations in steady state.
    while a < lts.len() && lts[a] < rel {
        a += 1;
    }
    let end = loop {
        if a >= lts.len() {
            break Sweep::Exhausted;
        }
        let ltrel = lts[a];
        let lt = ltrel as usize;
        if lt + 4 > w.len() {
            break Sweep::Irregular { ltrel };
        }
        let x = u32::from_le_bytes([w[lt], w[lt + 1], w[lt + 2], w[lt + 3]]);
        let b1 = (x >> 8) as u8;
        let b2 = (x >> 16) as u8;
        let b3 = (x >> 24) as u8;
        let is_close = b1 == b'/';
        // For length-2 tags `b2` is the closing `>` itself, so this is
        // false exactly when it should be.
        let is_self = !is_close & (b2 == b'/');
        let gt2 = b2 == b'>';
        let gt3 = b3 == b'>';
        // `b1` is a name byte or `/` and `b2` is a name byte or `/` in
        // every certified shape, so the first `>` after `lt` really is
        // the one found here.
        let kind = is_close as usize + 2 * is_self as usize;
        let ev = names.code(kind, if is_close { b2 } else { b1 });
        let certified = (ev != 0) & (gt2 | (gt3 & (is_close | is_self)));
        if !certified {
            break Sweep::Irregular { ltrel };
        }
        let j = lt + 3 - gt2 as usize;
        a += 1;
        sink.event(ev, wbase + j);
    };
    *ai = a;
    end
}

/// First set bit at or after window-relative `from`, scanning mask
/// words — the rare-path `>` finder for spans the sweep bailed on.
fn next_bit_at_or_after(words: &[u64], from: usize) -> Option<usize> {
    let mut wi = from >> 6;
    if wi >= words.len() {
        return None;
    }
    let mut m = words[wi] & (!0u64 << (from & 63));
    loop {
        if m != 0 {
            return Some((wi << 6) + m.trailing_zeros() as usize);
        }
        wi += 1;
        if wi >= words.len() {
            return None;
        }
        m = words[wi];
    }
}

/// Longest stretch past the window edge searched for the `>` of a tag
/// that straddles it; a longer tag takes the scalar excursion.
const STRADDLE_REACH: usize = 256;

/// The `>` ending a tag that straddles the window edge: the first `>` in
/// `bytes[from..]` (`from` is the window end), provided no hazard byte
/// precedes it there — the bitmaps' rule, checked on bytes the window's
/// index does not cover.
fn straddle_end(bytes: &[u8], from: usize) -> Option<usize> {
    let reach = &bytes[from..(from + STRADDLE_REACH).min(bytes.len())];
    match reach
        .iter()
        .position(|&b| matches!(b, b'>' | b'"' | b'\'' | b'!' | b'?'))
    {
        Some(d) if reach[d] == b'>' => Some(from + d),
        _ => None,
    }
}

/// Ends a scan with `end`, settling the events since the last settle
/// point (those of `bytes[mark..]`, or up to the offending byte of an
/// error) first: a breach among them comes before the error.
#[inline(always)]
fn end_scan<S: EventSink>(
    lexer: &TagLexer,
    bytes: &[u8],
    mark: usize,
    mark_lex: u16,
    end: ScanEnd,
    mut sink: ManuallyDrop<S>,
) -> (ScanEnd, S) {
    let to = match end {
        ScanEnd::Error { pos } => pos,
        _ => bytes.len(),
    };
    let end = match sink.settle(lexer, &bytes[mark..to], mark_lex, mark) {
        Ok(()) => end,
        Err(b) => ScanEnd::Breach(b),
    };
    (end, ManuallyDrop::into_inner(sink))
}

/// The byte walker: emits exactly the event stream (and error offsets)
/// of the scalar `TagLexer` run from `entry_lex`, windowed so it composes
/// with session feeds and checkpoint cuts at arbitrary byte offsets.
/// `sink.event(code, pos)` receives the lexer event code and the offset
/// (within `bytes`) of the byte that fired it (`>` for certified tags).
/// The scan owns the sink and hands it back; before each index window
/// (each [`STRUCTURAL_WINDOW`] bytes of excursions with certification
/// off) it settles the previous one and reserves room for the next, and
/// it settles once more before it returns.  With `certify` off no index
/// is built and every `<` takes the scalar excursion (the forced-scalar
/// reference run).
///
/// A panic mid-scan leaks what the sink owns (see below): a one-shot
/// select's partial result and a pushdown step's frames.  A session's
/// match lists and emit scratch are lent to its sink, not moved in, so
/// the unwind frees them as usual.
pub(crate) fn structural_scan<S: EventSink>(
    lexer: &TagLexer,
    bytes: &[u8],
    entry_lex: u16,
    certify: bool,
    stats: &mut ScanStats,
    sink: S,
) -> (ScanEnd, S) {
    // A local the compiler splits into registers, where the argument
    // lives behind the caller's pointer.  No unwind path drops it: a
    // panic mid-scan leaks the sink's buffers instead, so the compiler
    // need not keep the sink's memory current for a landing pad.
    let mut sink = ManuallyDrop::new(sink);
    let n = bytes.len();
    let mut lex = entry_lex;
    let mut i = 0usize;
    // The unsettled stretch: `bytes[mark..]`, entered in `mark_lex`.
    let (mut mark, mut mark_lex) = (0usize, entry_lex);
    macro_rules! settle_at {
        ($at:expr, $len:expr) => {{
            let at = $at;
            if let Err(b) = sink.settle(lexer, &bytes[mark..at], mark_lex, mark) {
                return (ScanEnd::Breach(b), ManuallyDrop::into_inner(sink));
            }
            (mark, mark_lex) = (at, lex);
            sink.reserve(max_events($len));
        }};
    }
    // Lexer-only stretches: a mid-markup entry (resume at an arbitrary
    // cut) runs scalar until the lexer is back in TEXT, however many
    // windows that takes; with certification off the whole input does,
    // from `<` to `<`, settling every `STRUCTURAL_WINDOW` bytes of
    // excursion starts.  One excursion call site here (plus the two
    // fallbacks below) keeps the excursion inlined into every scan.
    let mut stretch_end = 0usize;
    while !certify || lex != TEXT {
        if lex == TEXT {
            i = find_lt(bytes, i);
            if i >= n {
                let end = ScanEnd::Complete { lex };
                return end_scan(lexer, bytes, mark, mark_lex, end, sink);
            }
        } else if certify {
            stats.fallback_windows += 1;
        }
        if i >= stretch_end {
            stretch_end = i + STRUCTURAL_WINDOW;
            settle_at!(i, STRUCTURAL_WINDOW);
        }
        match scalar_excursion(lexer, bytes, i, &mut lex, &mut *sink) {
            Ok(e) => i = e,
            Err(end) => return end_scan(lexer, bytes, mark, mark_lex, end, sink),
        }
    }
    let k = lexer.k() as u16;
    let names = lexer.names();
    let mut masks = simd::MaskSet::new();
    // Flattened structural index: window-relative positions of every `<`
    // and `>`, in order.  Walking sorted position arrays (instead of
    // re-deriving word index + shift from the byte cursor for each tag)
    // breaks the loop-carried dependency between consecutive tags — the
    // out-of-order core overlaps the certification loads of tag n+1 with
    // the event table walk of tag n.
    let mut lt_buf: simd::FlatBuf = [0; STRUCTURAL_WINDOW + simd::FLAT_SLACK];
    let mut gt_buf: simd::FlatBuf = [0; STRUCTURAL_WINDOW + simd::FLAT_SLACK];
    while i < n {
        let wbase = i;
        let wend = (wbase + STRUCTURAL_WINDOW).min(n);
        settle_at!(wbase, wend - wbase);
        let words = (wend - wbase).div_ceil(64);
        simd::build_masks(&bytes[wbase..wend], &mut masks);
        // Pure-skeleton windows (no quotes/comments/decls anywhere) skip
        // the per-span hazard probe entirely.
        let hz_any = masks.hz[..words].iter().any(|&w| w != 0);
        let nl = simd::flatten_positions(&masks.lt[..words], &mut lt_buf);
        let lts = &lt_buf[..nl];
        // The certified sweep finds each tag's `>` in the same 4-byte
        // load that certifies it, so the `>` array is only materialized
        // for hazardous windows (the general loop needs it).
        let ng = if hz_any {
            simd::flatten_positions(&masks.gt[..words], &mut gt_buf)
        } else {
            0
        };
        let gts = &gt_buf[..ng];
        let mut ai = 0usize;
        let mut bi = 0usize;
        let mut clean = true;
        if !hz_any {
            // Hazard-free window: drive the lean certified sweep, which
            // consumes runs of short plain tags with a minimal live set
            // (see [`certified_sweep`]), and handle whatever it bails on
            // here — long-but-plain tags via `classify_tag`, everything
            // else via a scalar excursion.
            'sweep: while i < wend {
                let rel = (i - wbase) as u16;
                let sw = certified_sweep(
                    &bytes[wbase..wend],
                    wbase,
                    rel,
                    lts,
                    &mut ai,
                    names,
                    &mut *sink,
                );
                let ltrel = match sw {
                    Sweep::Exhausted => {
                        i = wend;
                        break 'sweep;
                    }
                    Sweep::Irregular { ltrel } => ltrel,
                };
                let lt = wbase + ltrel as usize;
                // The first `>` after the `<`: in the window, or — for a
                // tag straddling its edge — in the bytes that follow.
                let j = match next_bit_at_or_after(&masks.gt[..words], ltrel as usize + 1) {
                    Some(jrel) => Some(wbase + jrel),
                    None => straddle_end(bytes, wend),
                };
                if let Some(j) = j {
                    if let Some(ev) = classify_tag(bytes, lt, j, names, k) {
                        sink.event(ev, j);
                        i = j + 1;
                        continue 'sweep;
                    }
                }
                // Unclassifiable span: scalar from the `<` until TEXT —
                // which may run past wend (long comment); the loop
                // bounds handle both cases.
                clean = false;
                match scalar_excursion(lexer, bytes, lt, &mut lex, &mut *sink) {
                    Ok(e) => i = e,
                    Err(end) => {
                        tally(stats, false);
                        return end_scan(lexer, bytes, mark, mark_lex, end, sink);
                    }
                }
            }
            tally(stats, clean);
            continue;
        }
        'window: while i < wend {
            // Next `<` at or after i (skips any stray `<` the previous
            // certified span strode over).
            let rel = (i - wbase) as u16;
            while ai < lts.len() && lts[ai] < rel {
                ai += 1;
            }
            if ai >= lts.len() {
                i = wend;
                break 'window;
            }
            let ltrel = lts[ai];
            let lt = wbase + ltrel as usize;
            // First `>` strictly after lt: within this window, or past
            // its edge when the tag straddles it.
            while bi < gts.len() && gts[bi] <= ltrel {
                bi += 1;
            }
            let hz = &masks.hz[..words];
            let j = if bi < gts.len() {
                let jrel = gts[bi] as usize;
                (!hazard_between(hz, ltrel as usize + 1, jrel)).then_some(wbase + jrel)
            } else if !hazard_between(hz, ltrel as usize + 1, wend - wbase) {
                straddle_end(bytes, wend)
            } else {
                None
            };
            if let Some(j) = j {
                if let Some(ev) = classify_tag(bytes, lt, j, names, k) {
                    sink.event(ev, j);
                    i = j + 1;
                    // Consume this tag's `<` and `>` here so the resync
                    // loops above run zero iterations in steady state —
                    // they only fire on stray `<` in attribute junk, text
                    // `>`, or after excursions.
                    ai += 1;
                    bi += 1;
                    continue 'window;
                }
            }
            // Certification failed (hazard, an overlong straddling tag,
            // or unknown name): scalar from the `<` until TEXT — which
            // may run past wend (long comment); the loop bounds handle
            // both cases.
            clean = false;
            match scalar_excursion(lexer, bytes, lt, &mut lex, &mut *sink) {
                Ok(e) => i = e,
                Err(end) => {
                    tally(stats, false);
                    return end_scan(lexer, bytes, mark, mark_lex, end, sink);
                }
            }
        }
        tally(stats, clean);
    }
    // Excursions that end mid-markup return above, so reaching here the
    // lexer is in TEXT.
    end_scan(
        lexer,
        bytes,
        mark,
        mark_lex,
        ScanEnd::Complete { lex },
        sink,
    )
}

#[inline]
fn tally(stats: &mut ScanStats, clean: bool) {
    if clean {
        stats.simd_windows += 1;
    } else {
        stats.fallback_windows += 1;
    }
}

/// Counts structural positions (`<`, `>`, hazard bytes) over the whole
/// input through the windowed index builder — the pass-1-only probe the
/// E22 experiment times to separate index-build cost from stride cost.
#[doc(hidden)]
pub fn structural_census(bytes: &[u8]) -> (usize, usize, usize) {
    let mut masks = simd::MaskSet::new();
    let (mut lt, mut gt, mut hz) = (0usize, 0usize, 0usize);
    for w in bytes.chunks(STRUCTURAL_WINDOW) {
        simd::build_masks(w, &mut masks);
        let words = w.len().div_ceil(64);
        for wi in 0..words {
            lt += masks.lt[wi].count_ones() as usize;
            gt += masks.gt[wi].count_ones() as usize;
            hz += masks.hz[wi].count_ones() as usize;
        }
    }
    (lt, gt, hz)
}

/// Census through the flattened position arrays (pass 1 + bit
/// extraction, no tag walk) — the E22 probe that prices the structural
/// index build on its own.
#[doc(hidden)]
pub fn structural_flatten_census(bytes: &[u8]) -> usize {
    let mut masks = simd::MaskSet::new();
    let mut lt_buf: simd::FlatBuf = [0; STRUCTURAL_WINDOW + simd::FLAT_SLACK];
    let mut gt_buf: simd::FlatBuf = [0; STRUCTURAL_WINDOW + simd::FLAT_SLACK];
    let mut total = 0usize;
    for w in bytes.chunks(STRUCTURAL_WINDOW) {
        simd::build_masks(w, &mut masks);
        let words = w.len().div_ceil(64);
        total += simd::flatten_positions(&masks.lt[..words], &mut lt_buf);
        total += simd::flatten_positions(&masks.gt[..words], &mut gt_buf);
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use st_automata::Alphabet;

    /// Collects `(event, pos)` pairs plus the end through the scan, with
    /// certification on (indexed) or off (lexer excursions only).
    fn run_scan(
        lexer: &TagLexer,
        bytes: &[u8],
        entry: u16,
        certify: bool,
    ) -> (Vec<(u16, usize)>, String) {
        let mut evs = Vec::new();
        let mut stats = ScanStats::default();
        let (end, _) = structural_scan(lexer, bytes, entry, certify, &mut stats, |ev, pos| {
            evs.push((ev, pos))
        });
        (evs, describe(end))
    }

    fn run_scalar(lexer: &TagLexer, bytes: &[u8], entry: u16) -> (Vec<(u16, usize)>, String) {
        // Byte-at-a-time oracle with the same event/position contract.
        let mut evs = Vec::new();
        let mut lex = entry;
        for (i, &b) in bytes.iter().enumerate() {
            let (l2, ev) = lexer.step(lex, b);
            lex = l2;
            if ev != EV_NONE {
                if ev == EV_ERROR {
                    return (evs, format!("error@{i}"));
                }
                evs.push((ev, i));
            }
        }
        (evs, format!("complete@{lex}"))
    }

    fn describe(end: ScanEnd) -> String {
        match end {
            ScanEnd::Complete { lex } => format!("complete@{lex}"),
            ScanEnd::Breach(b) => format!("breach {b:?}"),
            ScanEnd::Error { pos } => format!("error@{pos}"),
        }
    }

    fn assert_agree(lexer: &TagLexer, bytes: &[u8], what: &str) {
        let want = run_scalar(lexer, bytes, TEXT);
        assert_eq!(run_scan(lexer, bytes, TEXT, true), want, "{what}");
        assert_eq!(
            run_scan(lexer, bytes, TEXT, false),
            want,
            "{what} (certify off)"
        );
    }

    #[test]
    fn indexed_matches_scalar_on_corpus() {
        let g = Alphabet::of_chars("abc");
        let lexer = TagLexer::new(&g);
        let corpus: &[&[u8]] = &[
            b"",
            b"no tags at all",
            b"<a></a>",
            b"<a><b></b><c/></a>",
            b"<a>text<b>more</b>tail</a>",
            b"<?xml version=\"1.0\"?><a><b/></a>",
            b"<a><!-- comment with <b> inside --><b></b></a>",
            b"<a x=\"1\" y='2'><b class='q/\"z'/></a>",
            b"<a x=\">\"><b/></a>",
            b"<a />",
            b"<a><b   ></b   ></a>",
            b"<a\t\n><b/></a\n>",
            b"<!---->",
            b"<!>",
            b"<a x<y></a>", // stray '<' in unquoted attribute junk
            b"<a/ ></a>",   // '/' not last: plain open
            // Errors at exact offsets:
            b"<a><",
            b"< a></a>",
            b"<a></ >",
            b"<a><!-- unterminated",
            b"<unknown/>",
            b"<ab></ab>",
            b"<a></ab>",
            b"<>",
            b"</>",
            b"<a",
            b"<",
        ];
        for &doc in corpus {
            assert_agree(
                &lexer,
                doc,
                &format!("doc {:?}", String::from_utf8_lossy(doc)),
            );
        }
    }

    #[test]
    fn indexed_matches_scalar_across_window_edges() {
        let g = Alphabet::of_chars("ab");
        let lexer = TagLexer::new(&g);
        // Place structural bytes at every offset around the window edge.
        for tag in ["<a>", "</a>", "<a/>", "<!-- x -->", "<a q='>'>", "<ab>"] {
            for delta in 0..2 * tag.len() + 2 {
                let mut doc = vec![b'.'; STRUCTURAL_WINDOW - tag.len().min(delta) - 1];
                doc.extend_from_slice(tag.as_bytes());
                doc.extend_from_slice(b"<b></b>");
                assert_agree(&lexer, &doc, &format!("tag {tag} delta {delta}"));
            }
        }
        // `<` at the very last byte of a window, and of the input.
        let mut doc = vec![b'.'; STRUCTURAL_WINDOW - 1];
        doc.push(b'<');
        doc.extend_from_slice(b"a></a>");
        assert_agree(&lexer, &doc, "lt at last window byte");
        let mut doc = vec![b'.'; STRUCTURAL_WINDOW - 1];
        doc.push(b'<');
        assert_agree(&lexer, &doc, "lt at last input byte");
    }

    #[test]
    fn indexed_matches_scalar_on_random_docs() {
        let g = Alphabet::of_chars("abc");
        let lexer = TagLexer::new(&g);
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut rand = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for _ in 0..30 {
            let mut doc = Vec::new();
            while doc.len() < 3 * STRUCTURAL_WINDOW {
                match rand() % 12 {
                    0 => doc.extend_from_slice(b"<a>"),
                    1 => doc.extend_from_slice(b"</a>"),
                    2 => doc.extend_from_slice(b"<b/>"),
                    3 => doc.extend_from_slice(b"<c x=\"1\">"),
                    4 => doc.extend_from_slice(b"<!-- <a> -->"),
                    5 => doc.extend_from_slice(b"text "),
                    6 => doc.extend_from_slice(b"<?pi?>"),
                    7 => doc.extend_from_slice(b"<a q='v'></a>"),
                    8 => doc.extend_from_slice(b"<ab>"), // unknown name
                    9 => doc.push(b'<'),
                    10 => doc.push(b'>'),
                    _ => doc.extend_from_slice(b"</c >"),
                }
            }
            assert_agree(&lexer, &doc, "random doc");
        }
    }

    #[test]
    fn mid_markup_entry_runs_scalar_until_text() {
        use crate::engine::LT;
        let g = Alphabet::of_chars("ab");
        let lexer = TagLexer::new(&g);
        // Entry state LT, as if the previous feed ended right after '<'.
        let want = run_scalar(&lexer, b"a></a>", LT);
        assert_eq!(run_scan(&lexer, b"a></a>", LT, true), want);
        assert_eq!(run_scan(&lexer, b"a></a>", LT, false), want);
    }

    #[test]
    fn stats_tally_windows() {
        let g = Alphabet::of_chars("a");
        let lexer = TagLexer::new(&g);
        let mut stats = ScanStats::default();
        // 8-byte unit so no tag straddles a window edge (a straddling
        // tag is a legitimate fallback even in a pure skeleton).
        let doc = b"<a></a>.".repeat(3 * STRUCTURAL_WINDOW / 8);
        match structural_scan(&lexer, &doc, TEXT, true, &mut stats, |_, _| {}).0 {
            ScanEnd::Complete { lex } => assert_eq!(lex, TEXT),
            _ => panic!("clean doc"),
        }
        assert_eq!(stats.fallback_windows, 0, "pure skeleton never falls back");
        assert_eq!(
            stats.simd_windows,
            doc.len().div_ceil(STRUCTURAL_WINDOW) as u64
        );
        // A comment forces at least one fallback window.
        let mut stats = ScanStats::default();
        let mut doc = doc;
        doc.extend_from_slice(b"<!-- c --><a></a>");
        match structural_scan(&lexer, &doc, TEXT, true, &mut stats, |_, _| {}).0 {
            ScanEnd::Complete { lex } => assert_eq!(lex, TEXT),
            _ => panic!("clean doc"),
        }
        assert!(stats.fallback_windows >= 1);
    }

    /// Dense markup: runs of the shortest tags, multi-byte names, and
    /// mixes, over alphabet `{a, ab}`.
    const DENSE: [&str; 6] = ["<a>", "</a>", "<a/>", "<ab>", "</ab><ab/>", "<a><a/></a>"];

    /// The event bound [`max_events`] pre-sizes for: no `w` bytes of
    /// markup, entered in any lexer state, fire more than ⌊w/3⌋+1
    /// events, for every `w` up to one index window.
    #[test]
    fn event_bound_holds_for_dense_markup() {
        let g = Alphabet::from_symbols(["a", "ab"]).unwrap();
        let lexer = TagLexer::new(&g);
        for unit in DENSE {
            let doc = unit.repeat(2 * STRUCTURAL_WINDOW / unit.len() + 2);
            // Entries at every offset of the unit: in TEXT, after `<`,
            // mid-name, after `/`.
            for entry in 0..unit.len() {
                let mut lex = TEXT;
                for &b in &doc.as_bytes()[..entry] {
                    lex = lexer.step(lex, b).0;
                }
                let bytes = &doc.as_bytes()[entry..];
                let (evs, _) = run_scan(&lexer, bytes, lex, true);
                assert_eq!(evs, run_scan(&lexer, bytes, lex, false).0);
                let mut fired = 0;
                for w in 1..=STRUCTURAL_WINDOW {
                    while fired < evs.len() && evs[fired].1 < w {
                        fired += 1;
                    }
                    assert!(
                        fired <= w / 3 + 1,
                        "{unit} from {entry}: {fired} events in {w} bytes"
                    );
                }
            }
        }
    }

    /// The scan never fires more events between two reserves than the
    /// last one asked room for: a sink that counts its room down stops
    /// the test at the first overrun, as a pre-sized buffer's
    /// bounds-checked write would.
    #[test]
    fn reserves_cover_every_event() {
        struct Room(usize);
        impl EventSink for Room {
            fn event(&mut self, _ev: u16, pos: usize) {
                assert!(self.0 > 0, "event at {pos} past the reserved room");
                self.0 -= 1;
            }
            fn reserve(&mut self, events: usize) {
                self.0 = events;
            }
        }
        let g = Alphabet::from_symbols(["a", "ab"]).unwrap();
        let lexer = TagLexer::new(&g);
        for unit in DENSE.iter().chain(&["<a>text<ab x='>'/><!-- c -->"]) {
            let doc = unit.repeat(3 * STRUCTURAL_WINDOW / unit.len());
            for entry in 0..unit.len() {
                let mut lex = TEXT;
                for &b in &doc.as_bytes()[..entry] {
                    lex = lexer.step(lex, b).0;
                }
                for certify in [true, false] {
                    let bytes = &doc.as_bytes()[entry..];
                    let mut stats = ScanStats::default();
                    structural_scan(&lexer, bytes, lex, certify, &mut stats, Room(0));
                }
            }
        }
    }

    #[test]
    fn straddling_tags_certify_from_the_bytes_past_the_window() {
        let g = Alphabet::from_symbols(["a", "ab"]).unwrap();
        let lexer = TagLexer::new(&g);
        // Every phase of every short shape against the window edge, in a
        // pure skeleton and next to a hazard (a comment keeps the window
        // on the general loop).
        for unit in ["<a>", "</a>", "<a/>", "<ab>", "<ab x/>", "</ab >"] {
            for prefix in ["", "<!--c-->"] {
                for phase in 0..unit.len() + 2 {
                    let mut doc = prefix.as_bytes().to_vec();
                    doc.resize(STRUCTURAL_WINDOW - phase, b'.');
                    doc.extend_from_slice(unit.as_bytes());
                    doc.extend_from_slice(b"<a></a>");
                    assert_agree(&lexer, &doc, &format!("{unit} at phase {phase}"));
                    let mut stats = ScanStats::default();
                    let _ = structural_scan(&lexer, &doc, TEXT, true, &mut stats, |_, _| {});
                    assert_eq!(
                        stats.fallback_windows,
                        u64::from(!prefix.is_empty()),
                        "{unit} at phase {phase} {prefix:?}: {stats:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn census_matches_scalar() {
        let census_scalar = |bytes: &[u8]| {
            let (mut lt, mut gt, mut hz) = (0usize, 0usize, 0usize);
            for &b in bytes {
                match b {
                    b'<' => lt += 1,
                    b'>' => gt += 1,
                    b'"' | b'\'' | b'!' | b'?' => hz += 1,
                    _ => {}
                }
            }
            (lt, gt, hz)
        };
        let doc = b"<a x=\"1\"><!-- ? --></a>".repeat(700);
        assert_eq!(structural_census(&doc), census_scalar(&doc));
    }
}
