//! Hostile-input hardening of the checkpoint wire format
//! (`EngineCheckpoint::from_bytes`).
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
//! resume, and reproduce the uninterrupted run byte for byte.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

use proptest::prelude::*;
use stackless_streamed_trees::automata::{compile_regex, Alphabet};
use stackless_streamed_trees::core::engine::FusedQuery;
use stackless_streamed_trees::core::planner::{CompiledQuery, Strategy};
use stackless_streamed_trees::core::session::{EngineCheckpoint, Limits, SessionError};

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

/// One fused query per backend, with a document its sessions accept:
/// the wire format has three state payloads (composite state, register
/// file, frame stack) and all three deserializers face hostile input.
fn corpus() -> Vec<(FusedQuery, Vec<u8>)> {
    let g = Alphabet::of_chars("ab");
    let mut doc = b"<a x='1'><b>text</b><!-- c --><a><b/></a>".to_vec();
    for _ in 0..12 {
        doc.extend_from_slice(b"<a><b></b></a>");
    }
    doc.extend_from_slice(b"</a>");
    let expect = [
        ("a.*b", Strategy::Registerless),
        (".*a.*b", Strategy::Stackless),
        (".*ab", Strategy::Stack),
    ];
    expect
        .into_iter()
        .map(|(pattern, strategy)| {
            let dfa = compile_regex(pattern, &g).expect("pattern compiles");
            let fused = CompiledQuery::compile(&dfa).fused(&g).expect("fusable");
            assert_eq!(fused.strategy(), strategy, "{pattern}");
            (fused, doc.clone())
        })
        .collect()
}

/// Serialized checkpoints of `fused` over `doc` at a spread of cuts.
fn wire_checkpoints(fused: &FusedQuery, doc: &[u8]) -> Vec<Vec<u8>> {
    let cuts = [0, 1, 7, doc.len() / 2, doc.len() - 1, doc.len()];
    let mut out = Vec::new();
    let mut session = fused.session(Limits::none());
    let mut fed = 0;
    for &cut in &cuts {
        if cut < fed {
            continue;
        }
        session.feed(&doc[fed..cut]).expect("corpus docs are clean");
        fed = cut;
        out.push(session.checkpoint().expect("healthy snapshot").to_bytes());
    }
    out
}

/// Parses hostile bytes and, when parsing succeeds anyway, drives the
/// result through resume + feed — the full attack surface, which must
/// fail typed or behave, but never panic or over-allocate.
fn probe(fused: &FusedQuery, bytes: &[u8]) {
    if let Ok(cp) = EngineCheckpoint::from_bytes(bytes) {
        if let Ok(mut s) = fused.resume(&cp, Limits::none()) {
            let _ = s.feed(b"<a><b></b></a>");
            let _ = s.finish();
        }
    }
}

#[test]
fn valid_checkpoints_round_trip_and_resume_exactly() {
    for (fused, doc) in corpus() {
        let whole = fused
            .run_session(&doc, &Limits::none())
            .expect("corpus docs are clean");
        for cut in [0, 1, doc.len() / 3, doc.len() / 2, doc.len() - 1] {
            let mut session = fused.session(Limits::none());
            session.feed(&doc[..cut]).unwrap();
            let wire = session.checkpoint().unwrap().to_bytes();
            let mut prefix = session.matches().to_vec();

            let thawed = EngineCheckpoint::from_bytes(&wire).expect("round-trip parses");
            assert_eq!(thawed.to_bytes(), wire, "re-serialization is stable");
            let mut resumed = fused.resume(&thawed, Limits::none()).unwrap();
            resumed.feed(&doc[cut..]).unwrap();
            let tail = resumed.finish().unwrap();
            prefix.extend_from_slice(&tail.matches);
            assert_eq!(prefix, whole.matches, "resume({cut}) ≡ run(whole)");
        }
    }
}

#[test]
fn truncation_at_every_prefix_fails_typed() {
    for (fused, doc) in corpus() {
        for wire in wire_checkpoints(&fused, &doc) {
            for len in 0..wire.len() {
                assert!(
                    EngineCheckpoint::from_bytes(&wire[..len]).is_err(),
                    "a strict prefix ({len}/{} bytes) must not parse",
                    wire.len()
                );
            }
        }
    }
}

#[test]
fn length_lying_buffers_neither_panic_nor_over_allocate() {
    LARGEST.store(0, Ordering::SeqCst);
    WATCHING.store(true, Ordering::SeqCst);
    for (fused, doc) in corpus() {
        for wire in wire_checkpoints(&fused, &doc) {
            // Overwrite every window with 0xFF: whichever bytes encode a
            // count or length now claim an absurd payload.
            for start in 0..wire.len() {
                let mut lying = wire.clone();
                for b in lying.iter_mut().skip(start).take(8) {
                    *b = 0xFF;
                }
                probe(&fused, &lying);
            }
            // And the dual: zero windows, shrinking claimed lengths.
            for start in 0..wire.len() {
                let mut lying = wire.clone();
                for b in lying.iter_mut().skip(start).take(8) {
                    *b = 0;
                }
                probe(&fused, &lying);
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
        case in 0usize..6,
        flips in proptest::collection::vec(any::<usize>(), 1..6)
    ) {
        let all = corpus();
        let (fused, doc) = &all[case % all.len()];
        let wires = wire_checkpoints(fused, doc);
        let wire = &wires[case % wires.len()];
        let mut bent = wire.clone();
        for f in flips {
            let bit = f % (bent.len() * 8);
            bent[bit / 8] ^= 1 << (bit % 8);
        }
        probe(fused, &bent);
    }

    /// Entirely random buffers — and random buffers grafted onto a valid
    /// header — must never panic the parser.
    #[test]
    fn random_buffers_never_panic(
        case in 0usize..3,
        keep in 0usize..24,
        junk in proptest::collection::vec(any::<u8>(), 0..200)
    ) {
        let all = corpus();
        let (fused, doc) = &all[case % all.len()];
        probe(fused, &junk);
        // Graft: valid prefix (magic/version/fingerprint survive), junk tail.
        let wire = &wire_checkpoints(fused, doc)[0];
        let mut grafted = wire[..keep.min(wire.len())].to_vec();
        grafted.extend_from_slice(&junk);
        probe(fused, &grafted);
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
    for (fused, doc) in corpus() {
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
    for (fused, doc) in corpus() {
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

#[test]
fn older_checkpoint_versions_are_refused_with_the_version_error() {
    // Version 2 carried a byte-wise emission digest; resuming it under
    // the word-wise fold would reject an honest stream, so the parser
    // refuses it up front, as it refuses version 1.
    for (fused, doc) in corpus() {
        let mut session = fused.session(Limits::none());
        session.feed(&doc[..doc.len() / 2]).unwrap();
        let wire = session.checkpoint().unwrap().to_bytes();
        assert_eq!(&wire[4..6], &3u16.to_le_bytes(), "current version");
        for old in [1u16, 2] {
            let mut retagged = wire.clone();
            retagged[4..6].copy_from_slice(&old.to_le_bytes());
            match EngineCheckpoint::from_bytes(&retagged) {
                Err(SessionError::Checkpoint { detail }) => assert_eq!(
                    detail,
                    format!("version {old} (this build reads 3)"),
                    "wrong detail"
                ),
                other => panic!("version {old} must be refused, got {other:?}"),
            }
        }
    }
}
