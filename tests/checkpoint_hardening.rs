//! Hostile-input hardening of both checkpoint wire formats: the
//! single-query `EngineCheckpoint` (magic `STCK`) and the query-set
//! `QuerySetCheckpoint` (magic `STQS`), on every engine class and every
//! query-set tier.
//!
//! A serving runtime migrates sessions between workers by shipping
//! serialized checkpoints, so the deserializer must treat its input as
//! untrusted: truncated buffers, bit flips, and length fields that lie
//! about the payload must produce a typed error — never a panic and
//! never an attacker-sized allocation.  A global counting allocator
//! watches the largest single allocation the parser makes, pinning the
//! "length-lying buffers cannot cause over-allocation" property for
//! real rather than by code review.
//!
//! Valid checkpoints, by contrast, must round-trip exactly: parse,
//! resume, and reproduce the uninterrupted run byte for byte — and the
//! bytes themselves are pinned, one golden checkpoint per engine class
//! and per tier, so a codec change cannot move a wire byte unnoticed.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

use proptest::prelude::*;
use stackless_streamed_trees::automata::{compile_regex, Alphabet};
use stackless_streamed_trees::core::engine::FusedQuery;
use stackless_streamed_trees::core::planner::{CompiledQuery, Strategy};
use stackless_streamed_trees::core::session::{EngineCheckpoint, Limits, SessionError};
use stackless_streamed_trees::core::{QuerySet, QuerySetCheckpoint, SetStrategy};

/// Tracks the largest single allocation while `WATCHING` is set.  The
/// checkpoint parser must never allocate anywhere near this bound no
/// matter what its length fields claim; concurrent test threads allocate
/// small buffers and cannot trip it either.
struct WatchfulAlloc;

static WATCHING: AtomicBool = AtomicBool::new(false);
static LARGEST: AtomicUsize = AtomicUsize::new(0);

unsafe impl GlobalAlloc for WatchfulAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if WATCHING.load(Ordering::Relaxed) {
            LARGEST.fetch_max(layout.size(), Ordering::Relaxed);
        }
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOC: WatchfulAlloc = WatchfulAlloc;

const OVER_ALLOCATION_BOUND: usize = 16 << 20;

/// A session kind under test: one fused query or one query set.  Both
/// are driven through the same steps, so every sweep below runs
/// unchanged over both wire formats.
enum Subject {
    Query(FusedQuery),
    Set(QuerySet),
}

impl Subject {
    fn label(&self) -> String {
        match self {
            Subject::Query(q) => format!("STCK {:?}", q.strategy()),
            Subject::Set(s) => format!("STQS {:?}", s.strategy()),
        }
    }

    /// Matches of the uninterrupted run, one list per member (a single
    /// query is one member).
    fn whole(&self, doc: &[u8]) -> Vec<Vec<usize>> {
        match self {
            Subject::Query(q) => vec![q.run_session(doc, &Limits::none()).unwrap().matches],
            Subject::Set(s) => s.run_session(doc, &Limits::none()).unwrap().matches,
        }
    }

    /// Feeds `doc[..cut]`; returns the matches so far and the serialized
    /// checkpoint at the cut.
    fn cut(&self, doc: &[u8], cut: usize) -> (Vec<Vec<usize>>, Vec<u8>) {
        match self {
            Subject::Query(q) => {
                let mut session = q.session(Limits::none());
                session.feed(&doc[..cut]).expect("corpus docs are clean");
                let wire = session.checkpoint().expect("healthy snapshot").to_bytes();
                (vec![session.matches().to_vec()], wire)
            }
            Subject::Set(s) => {
                let mut session = s.session(Limits::none());
                session.feed(&doc[..cut]).expect("corpus docs are clean");
                let wire = session.checkpoint().expect("healthy snapshot").to_bytes();
                (session.matches().to_vec(), wire)
            }
        }
    }

    /// Parses `wire` and serializes the result again.
    fn reserialize(&self, wire: &[u8]) -> Result<Vec<u8>, SessionError> {
        match self {
            Subject::Query(_) => EngineCheckpoint::from_bytes(wire).map(|cp| cp.to_bytes()),
            Subject::Set(_) => QuerySetCheckpoint::from_bytes(wire).map(|cp| cp.to_bytes()),
        }
    }

    /// Parses `wire`, resumes from it, feeds `rest` and finishes: the
    /// full attack surface of a shipped checkpoint.
    fn resume(&self, wire: &[u8], rest: &[u8]) -> Result<Vec<Vec<usize>>, SessionError> {
        match self {
            Subject::Query(q) => {
                let cp = EngineCheckpoint::from_bytes(wire)?;
                let mut session = q.resume(&cp, Limits::none())?;
                session.feed(rest)?;
                Ok(vec![session.finish()?.matches])
            }
            Subject::Set(s) => {
                let cp = QuerySetCheckpoint::from_bytes(wire)?;
                let mut session = s.resume(&cp, Limits::none())?;
                session.feed(rest)?;
                Ok(session.finish()?.matches)
            }
        }
    }

    /// Serialized checkpoints over `doc` at a spread of cuts.
    fn wire_checkpoints(&self, doc: &[u8]) -> Vec<Vec<u8>> {
        [0, 1, 7, doc.len() / 2, doc.len() - 1, doc.len()]
            .into_iter()
            .map(|cut| self.cut(doc, cut).1)
            .collect()
    }

    /// Drives hostile bytes through parse + resume + feed + finish,
    /// which must fail typed or behave, but never panic or
    /// over-allocate.
    fn probe(&self, bytes: &[u8]) {
        let _ = self.resume(bytes, b"<a><b></b></a>");
    }
}

fn corpus_doc() -> Vec<u8> {
    let mut doc = b"<a x='1'><b>text</b><!-- c --><a><b/></a>".to_vec();
    for _ in 0..12 {
        doc.extend_from_slice(b"<a><b></b></a>");
    }
    doc.extend_from_slice(b"</a>");
    doc
}

fn fused(pattern: &str, g: &Alphabet) -> FusedQuery {
    let dfa = compile_regex(pattern, g).expect("pattern compiles");
    CompiledQuery::compile(&dfa).fused(g).expect("fusable")
}

/// One fused query per backend: the single-query format has three
/// state payloads (composite state, register file, frame stack).
fn engine_corpus() -> Vec<FusedQuery> {
    let g = Alphabet::of_chars("ab");
    let expect = [
        ("a.*b", Strategy::Registerless),
        (".*a.*b", Strategy::Stackless),
        (".*ab", Strategy::Stack),
    ];
    expect
        .into_iter()
        .map(|(pattern, strategy)| {
            let q = fused(pattern, &g);
            assert_eq!(q.strategy(), strategy, "{pattern}");
            q
        })
        .collect()
}

/// All-almost-reversible members (product DFA, or lanes at budget 0) and
/// mixed strategies (hybrid: markup, HAR and stack lanes).
const AR_SET: [&str; 4] = ["a.*b", "a.*", "b.*a", ".*"];
const MIXED_SET: [&str; 4] = ["a.*b", "ab", ".*a.*b", ".*ab"];

/// One query set per tier: the query-set format has three tier payloads.
fn set_corpus() -> Vec<QuerySet> {
    let g = Alphabet::of_chars("ab");
    let sets = vec![
        QuerySet::compile(&AR_SET, &g).unwrap(),
        QuerySet::compile_with_budget(&AR_SET, &g, 0).unwrap(),
        QuerySet::compile(&MIXED_SET, &g).unwrap(),
    ];
    let tiers: Vec<SetStrategy> = sets.iter().map(QuerySet::strategy).collect();
    assert_eq!(
        tiers,
        [
            SetStrategy::Product,
            SetStrategy::Lanes,
            SetStrategy::Hybrid
        ]
    );
    sets
}

/// Every engine class and every tier, each with a document its sessions
/// accept.
fn corpus() -> Vec<(Subject, Vec<u8>)> {
    let queries = engine_corpus().into_iter().map(Subject::Query);
    let sets = set_corpus().into_iter().map(Subject::Set);
    queries.chain(sets).map(|s| (s, corpus_doc())).collect()
}

#[test]
fn valid_checkpoints_round_trip_and_resume_exactly() {
    for (subject, doc) in corpus() {
        let whole = subject.whole(&doc);
        for cut in [0, 1, doc.len() / 3, doc.len() / 2, doc.len() - 1] {
            let (prefix, wire) = subject.cut(&doc, cut);
            let again = subject.reserialize(&wire).expect("round-trip parses");
            assert_eq!(
                again,
                wire,
                "{}: re-serialization is stable",
                subject.label()
            );
            let tail = subject.resume(&wire, &doc[cut..]).unwrap();
            let stitched: Vec<Vec<usize>> = prefix
                .iter()
                .zip(&tail)
                .map(|(p, t)| p.iter().chain(t).copied().collect())
                .collect();
            assert_eq!(
                stitched,
                whole,
                "{}: resume({cut}) ≡ run(whole)",
                subject.label()
            );
        }
    }
}

#[test]
fn truncation_at_every_prefix_fails_typed() {
    for (subject, doc) in corpus() {
        for wire in subject.wire_checkpoints(&doc) {
            for len in 0..wire.len() {
                assert!(
                    subject.reserialize(&wire[..len]).is_err(),
                    "{}: a strict prefix ({len}/{} bytes) must not parse",
                    subject.label(),
                    wire.len()
                );
            }
        }
    }
}

#[test]
fn length_lying_buffers_neither_panic_nor_over_allocate() {
    let all = corpus();
    let wires: Vec<Vec<Vec<u8>>> = all.iter().map(|(s, doc)| s.wire_checkpoints(doc)).collect();
    LARGEST.store(0, Ordering::SeqCst);
    WATCHING.store(true, Ordering::SeqCst);
    for ((subject, _), wires) in all.iter().zip(&wires) {
        for wire in wires {
            // Overwrite every window with 0xFF: whichever bytes encode a
            // count or length now claim an absurd payload.  And the dual:
            // zero windows, shrinking claimed lengths.
            for fill in [0xFF, 0] {
                for start in 0..wire.len() {
                    let mut lying = wire.clone();
                    for b in lying.iter_mut().skip(start).take(8) {
                        *b = fill;
                    }
                    subject.probe(&lying);
                }
            }
        }
    }
    WATCHING.store(false, Ordering::SeqCst);
    let largest = LARGEST.load(Ordering::SeqCst);
    assert!(
        largest < OVER_ALLOCATION_BOUND,
        "a lying length field drove a {largest}-byte allocation"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Arbitrary bit flips: a corrupted checkpoint either fails typed or
    /// yields a state the engine still handles without panicking.
    #[test]
    fn bit_flipped_checkpoints_never_panic(
        case in 0usize..36,
        flips in proptest::collection::vec(any::<usize>(), 1..6)
    ) {
        let all = corpus();
        let (subject, doc) = &all[case % all.len()];
        let wires = subject.wire_checkpoints(doc);
        let wire = &wires[case / all.len() % wires.len()];
        let mut bent = wire.clone();
        for f in flips {
            let bit = f % (bent.len() * 8);
            bent[bit / 8] ^= 1 << (bit % 8);
        }
        subject.probe(&bent);
    }

    /// Entirely random buffers — and random buffers grafted onto a valid
    /// header — must never panic the parser.
    #[test]
    fn random_buffers_never_panic(
        case in 0usize..6,
        keep in 0usize..48,
        junk in proptest::collection::vec(any::<u8>(), 0..200)
    ) {
        let all = corpus();
        let (subject, doc) = &all[case % all.len()];
        subject.probe(&junk);
        // Graft: valid prefix (magic/version/fingerprint survive), junk tail.
        let wire = &subject.wire_checkpoints(doc)[0];
        let mut grafted = wire[..keep.min(wire.len())].to_vec();
        grafted.extend_from_slice(&junk);
        subject.probe(&grafted);
    }
}

/// One checkpoint per engine class and per tier, at a mid-tag cut (the
/// lexer state is nonzero) with nonempty HAR chains and stack frames,
/// pinned byte for byte: the shared header codec moves no wire byte.
#[test]
fn golden_wire_bytes_are_pinned() {
    const GOLDEN: [(&str, &str); 6] = [
        (
            "STCK Registerless",
            "5354434b030013240ce5ca3a59f102000100610100620e000000000000000400000000000000\
             04000000000000000100000000000000d743f1b4075c3908003800",
        ),
        (
            "STCK Stackless",
            "5354434b0300b430a8d49c60e84602000100610100620e000000000000000400000000000000\
             04000000000000000100000000000000d743f1b4075c3908010b000100000100000100000000\
             000000",
        ),
        (
            "STCK Stack",
            "5354434b030015f8fe4735bbf7e402000100610100620e000000000000000400000000000000\
             04000000000000000100000000000000d743f1b4075c3908020b000100040000000000010001\
             000200",
        ),
        (
            "STQS Product",
            "53545153010000553c5632a1671e2e02000100610100620e0000000000000004000000000000\
             0004000000000000000b0001000000",
        ),
        (
            "STQS Lanes",
            "5354515301000168cdfdda11f89d3d02000100610100620e0000000000000004000000000000\
             0004000000000000000b000400000001000000060000000a0000000e000000",
        ),
        (
            "STQS Hybrid",
            "53545153010002cdfafc10691df68302000100610100620e0000000000000004000000000000\
             0004000000000000000b00040000000001000000010200000000020000000100000000000000\
             0100020000000000000001010000000001000000010000000000000002010000000400000000\
             000000010000000100000002000000",
        ),
    ];
    let doc: &[u8] = b"<a><a><b><a></a></b></a></a>";
    let subjects = engine_corpus()
        .into_iter()
        .map(Subject::Query)
        .chain(set_corpus().into_iter().map(Subject::Set));
    for (subject, (label, hex)) in subjects.zip(GOLDEN) {
        assert_eq!(subject.label(), label);
        let (prefix, wire) = subject.cut(doc, 14);
        let got: String = wire.iter().map(|b| format!("{b:02x}")).collect();
        assert_eq!(got, hex, "{label}: wire bytes moved");
        let whole = subject.whole(doc);
        let tail = subject.resume(&wire, &doc[14..]).unwrap();
        for ((p, t), w) in prefix.iter().zip(&tail).zip(&whole) {
            assert_eq!(&[p.as_slice(), t].concat(), w, "{label}: golden resume");
        }
    }
}

#[test]
fn a_full_har_chain_that_is_not_a_dag_path_is_refused_at_resume() {
    // `ab` runs through singleton SCCs, pushing one register per open
    // that leaves one.  After `<a>` the run sits in state 1 with one
    // register.  A chain of MAX_CHAIN (16) copies of that entry is
    // well-formed on the wire and every state is in range, but no run
    // pushes it, and the next `<b>` would push a seventeenth entry.
    let q = fused("ab", &Alphabet::of_chars("ab"));
    assert_eq!(q.strategy(), Strategy::Stackless);
    let mut session = q.session(Limits::none());
    session.feed(b"<a>").unwrap();
    let wire = session.checkpoint().unwrap().to_bytes();
    // Payload: tag, lex, current, dead, chain length, then the pairs.
    let payload = wire.len() - (1 + 2 + 2 + 1 + 1 + 10);
    assert_eq!(wire[payload], 1, "stackless payload");
    assert_eq!(wire[payload + 6], 1, "one register at the cut");
    let pair = wire[payload + 7..].to_vec();
    let mut forged = wire[..payload + 6].to_vec();
    forged.push(16);
    for _ in 0..16 {
        forged.extend_from_slice(&pair);
    }
    let cp = EngineCheckpoint::from_bytes(&forged).expect("shape is intact");
    match q.resume(&cp, Limits::none()) {
        Err(SessionError::Checkpoint { detail }) => {
            assert_eq!(detail, "HAR chain is not a path of the SCC DAG")
        }
        Err(other) => panic!("wrong error kind {other:?}"),
        Ok(mut resumed) => {
            let fed = resumed.feed(b"<b></b></a>");
            panic!("a 16-register chain resumed (feed: {fed:?})");
        }
    }
}

#[test]
fn older_checkpoint_versions_are_refused_with_the_version_error() {
    // STCK version 2 carried a byte-wise emission digest; resuming it
    // under the word-wise fold would reject an honest stream, so the
    // parser refuses it up front, as it refuses version 1.  STQS is at
    // version 1; its neighbours are refused the same way.
    for (subject, doc) in corpus() {
        let (_, wire) = subject.cut(&doc, doc.len() / 2);
        let current = u16::from_le_bytes([wire[4], wire[5]]);
        let (expected, others) = match subject {
            Subject::Query(_) => (3, [1u16, 2]),
            Subject::Set(_) => (1, [0u16, 2]),
        };
        assert_eq!(current, expected, "{}: current version", subject.label());
        for old in others {
            let mut retagged = wire.clone();
            retagged[4..6].copy_from_slice(&old.to_le_bytes());
            match subject.reserialize(&retagged) {
                Err(SessionError::Checkpoint { detail }) => assert_eq!(
                    detail,
                    format!("version {old} (this build reads {expected})"),
                    "wrong detail"
                ),
                other => panic!("version {old} must be refused, got {other:?}"),
            }
        }
    }
}

/// Byte offset of the `emit_count` field in a serialized checkpoint:
/// magic(4) + version(2) + fingerprint(8) + symbol count(2) + the
/// variable-length alphabet block + offset/node/depth (8 each).
fn emit_count_pos(wire: &[u8]) -> usize {
    let n = u16::from_le_bytes([wire[14], wire[15]]) as usize;
    let mut pos = 16;
    for _ in 0..n {
        let len = u16::from_le_bytes([wire[pos], wire[pos + 1]]) as usize;
        pos += 2 + len;
    }
    pos + 24
}

#[test]
fn forged_emission_count_is_rejected_at_resume() {
    for fused in engine_corpus() {
        let doc = corpus_doc();
        let mut session = fused.session(Limits::none());
        session.feed(&doc[..doc.len() / 2]).unwrap();
        let wire = session.checkpoint().unwrap().to_bytes();
        let pos = emit_count_pos(&wire);
        let node = u64::from_le_bytes(wire[pos - 16..pos - 8].try_into().unwrap());
        let mut forged = wire.clone();
        forged[pos..pos + 8].copy_from_slice(&(node + 1).to_le_bytes());
        // The shape is untouched, so the parser accepts it — the lie is
        // semantic and must die at resume, as a typed error.
        let cp = EngineCheckpoint::from_bytes(&forged).expect("shape is untouched");
        assert_eq!(cp.emission_cursor().count, node + 1);
        let err = fused
            .resume(&cp, Limits::none())
            .err()
            .expect("a cursor claiming more deliveries than nodes must not resume");
        assert!(
            err.to_string()
                .contains("emission cursor exceeds nodes opened"),
            "wrong error: {err}"
        );
    }
}

#[test]
fn tampered_emission_digest_is_tamper_evident() {
    // A digest flip with a plausible count cannot be refuted by the
    // engine alone (it has no ledger), but it must never *launder*: the
    // forged digest is seeded into the resumed cursor, so the final
    // cursor provably disagrees with the honest stream — any consumer
    // holding the delivered prefix (the serve ledger, a net client)
    // catches it on the next verification.
    for fused in engine_corpus() {
        let doc = corpus_doc();
        let cut = doc.len() / 2;
        let clean = fused.run_session(&doc, &Limits::none()).unwrap();
        let mut session = fused.session(Limits::none());
        session.feed(&doc[..cut]).unwrap();
        let wire = session.checkpoint().unwrap().to_bytes();
        let digest_pos = emit_count_pos(&wire) + 8;
        let mut forged = wire.clone();
        forged[digest_pos] ^= 0x01;
        let cp = EngineCheckpoint::from_bytes(&forged).expect("shape is untouched");
        let mut resumed = fused
            .resume(&cp, Limits::none())
            .expect("count is plausible");
        resumed.feed(&doc[cut..]).unwrap();
        let out = resumed.finish().unwrap();

        let honest = EngineCheckpoint::from_bytes(&wire).expect("round-trips");
        let mut href = fused.resume(&honest, Limits::none()).expect("resumes");
        href.feed(&doc[cut..]).unwrap();
        let hout = href.finish().unwrap();

        assert_eq!(
            hout.cursor, clean.cursor,
            "honest resume converges with the uninterrupted run"
        );
        assert_eq!(
            out.matches, hout.matches,
            "matches are positional, not hashed"
        );
        assert_ne!(
            out.cursor, hout.cursor,
            "a tampered digest must never reconverge with the honest one"
        );
    }
}
