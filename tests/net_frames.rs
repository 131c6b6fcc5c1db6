//! Hostile-framing tests of the network front-end: every malformed
//! thing a client can put on the wire — garbage preambles, torn frames
//! at every split point, byte-at-a-time delivery, oversized and
//! length-lying headers, zero-length and out-of-place frames — must die
//! with a *typed* error code from the stable registry, never a panic,
//! never a hang, never a garbage reply.
//!
//! These tests drive a live loopback [`NetServer`] with a raw
//! [`TcpStream`], below the [`stackless_streamed_trees::serve::NetClient`]
//! convenience layer, so nothing well-behaved stands between the test
//! and the server's codec.

use std::io::Write;
use std::net::{Shutdown, TcpStream};
use std::time::Duration;

use stackless_streamed_trees::serve::frame::{
    self, encode_query, read_frame, write_frame, write_preamble, FrameKind, RESPONSE_MAX_FRAME_LEN,
};
use stackless_streamed_trees::serve::{codes, NetConfig, NetServer};

/// A server with deadlines short enough that a stuck test fails fast.
fn server() -> NetServer {
    NetServer::bind(
        "127.0.0.1:0",
        NetConfig::default().with_timeouts(Duration::from_millis(300), Duration::from_secs(2)),
    )
    .expect("bind loopback")
}

/// A raw connection with test-friendly socket deadlines (no preamble).
fn raw(server: &NetServer) -> TcpStream {
    let s = TcpStream::connect(server.local_addr()).expect("connect");
    s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    s.set_write_timeout(Some(Duration::from_secs(5))).unwrap();
    s.set_nodelay(true).unwrap();
    s
}

/// Reads the server's ERROR frame and returns its wire code.
fn read_error_code(stream: &mut TcpStream) -> u16 {
    let f = read_frame(stream, RESPONSE_MAX_FRAME_LEN).expect("a reply frame");
    assert_eq!(f.kind, FrameKind::Error, "expected an ERROR frame");
    let (code, _msg) = frame::decode_error(&f.payload).expect("well-formed ERROR payload");
    code
}

#[test]
fn garbage_preamble_is_refused_with_a_typed_code() {
    let server = server();
    let mut s = raw(&server);
    s.write_all(b"GET / HTTP/1.1\r\n\r\n").unwrap();
    s.flush().unwrap();
    assert_eq!(read_error_code(&mut s), codes::BAD_PREAMBLE);
    assert_eq!(server.stats().bad_frames, 1);
}

#[test]
fn previous_protocol_version_is_refused_as_a_bad_preamble() {
    // An STN1 peer hashes its emission cursor byte-wise; serving it
    // would fail every streamed cursor check, so it is refused up front.
    let server = server();
    let mut s = raw(&server);
    s.write_all(b"STN1").unwrap();
    write_frame(&mut s, FrameKind::Query, &encode_query("a,b", ".*a")).unwrap();
    s.flush().unwrap();
    assert_eq!(read_error_code(&mut s), codes::BAD_PREAMBLE);
    assert_eq!(server.stats().bad_frames, 1);
}

#[test]
fn byte_at_a_time_delivery_still_parses() {
    // The codec must reassemble frames across arbitrary read boundaries:
    // deliver an entire valid request one byte at a time, flushing after
    // each, and require the correct answer.
    let server = server();
    let mut wire = Vec::new();
    write_preamble(&mut wire).unwrap();
    write_frame(&mut wire, FrameKind::Query, &encode_query("a,b", ".*a")).unwrap();
    for seg in b"<a><b></b></a>".chunks(3) {
        write_frame(&mut wire, FrameKind::Chunk, seg).unwrap();
    }
    write_frame(&mut wire, FrameKind::Finish, &[]).unwrap();

    let mut s = raw(&server);
    for b in wire {
        s.write_all(&[b]).unwrap();
        s.flush().unwrap();
    }
    let f = read_frame(&mut s, RESPONSE_MAX_FRAME_LEN).unwrap();
    assert_eq!(f.kind, FrameKind::Matches);
    assert_eq!(frame::decode_matches(&f.payload).unwrap(), vec![0]);
}

#[test]
fn torn_query_frame_at_every_split_point_is_typed_truncation() {
    // One full QUERY frame, cut at every interior byte boundary (after
    // the preamble).  Whatever the cut exposes — a bare kind byte, half
    // a length header, a prefix of the payload — the server must answer
    // with TRUNCATED_FRAME on the half-closed socket.
    let server = server();
    let mut query = Vec::new();
    write_frame(&mut query, FrameKind::Query, &encode_query("a,b", ".*a")).unwrap();
    for cut in 1..query.len() {
        let mut s = raw(&server);
        write_preamble(&mut s).unwrap();
        s.write_all(&query[..cut]).unwrap();
        s.flush().unwrap();
        // Half-close: the server sees EOF mid-frame but can still write
        // its typed goodbye back to us.
        s.shutdown(Shutdown::Write).unwrap();
        assert_eq!(
            read_error_code(&mut s),
            codes::TRUNCATED_FRAME,
            "cut at byte {cut} of {}",
            query.len()
        );
    }
}

#[test]
fn clean_disconnect_between_requests_is_not_an_error() {
    let server = server();
    {
        let mut s = raw(&server);
        write_preamble(&mut s).unwrap();
        // Polite EOF with no frame in flight.
        s.shutdown(Shutdown::Write).unwrap();
        // The server closes without an error frame.
        let got = read_frame(&mut s, RESPONSE_MAX_FRAME_LEN);
        assert!(got.is_err(), "no reply expected on a clean EOF");
    }
    // Wait for the handler to notice and close out.
    let deadline = std::time::Instant::now() + Duration::from_secs(2);
    while server.stats().open > 0 && std::time::Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(5));
    }
    let stats = server.stats();
    assert_eq!(stats.failed, 0, "clean EOF counted as a failure: {stats}");
    assert_eq!(stats.bad_frames, 0);
}

#[test]
fn oversized_header_is_refused_before_any_allocation() {
    // The declared length (u32::MAX) far exceeds both the configured
    // maximum and anything allocatable; the typed refusal must come from
    // the length check, immediately, with no payload read.
    let server = NetServer::bind(
        "127.0.0.1:0",
        NetConfig::default()
            .with_max_frame_len(1024)
            .with_timeouts(Duration::from_millis(300), Duration::from_secs(2)),
    )
    .unwrap();
    let mut s = raw(&server);
    write_preamble(&mut s).unwrap();
    let mut header = vec![FrameKind::Query.as_byte()];
    header.extend_from_slice(&u32::MAX.to_le_bytes());
    s.write_all(&header).unwrap();
    s.flush().unwrap();
    assert_eq!(read_error_code(&mut s), codes::FRAME_TOO_LARGE);
}

#[test]
fn length_lying_header_is_typed_truncation() {
    // The header claims 100 payload bytes but only 10 arrive before the
    // half-close: a length lie, reported as truncation.
    let server = server();
    let mut s = raw(&server);
    write_preamble(&mut s).unwrap();
    let mut lie = vec![FrameKind::Chunk.as_byte()];
    lie.extend_from_slice(&100u32.to_le_bytes());
    lie.extend_from_slice(&[b'x'; 10]);
    s.write_all(&lie).unwrap();
    s.flush().unwrap();
    s.shutdown(Shutdown::Write).unwrap();
    assert_eq!(read_error_code(&mut s), codes::TRUNCATED_FRAME);
}

#[test]
fn unknown_frame_type_is_typed() {
    let server = server();
    let mut s = raw(&server);
    write_preamble(&mut s).unwrap();
    s.write_all(&[0x7f, 0, 0, 0, 0]).unwrap();
    s.flush().unwrap();
    assert_eq!(read_error_code(&mut s), codes::BAD_FRAME_TYPE);
}

#[test]
fn reply_kind_from_a_client_is_a_protocol_error() {
    // MATCHES is a server-to-client kind; a client sending one is
    // violating the state machine, not the codec.
    let server = server();
    let mut s = raw(&server);
    write_preamble(&mut s).unwrap();
    write_frame(&mut s, FrameKind::Matches, &frame::encode_matches(&[1])).unwrap();
    assert_eq!(read_error_code(&mut s), codes::PROTOCOL);
}

#[test]
fn document_bytes_before_any_query_are_a_protocol_error() {
    let server = server();
    let mut s = raw(&server);
    write_preamble(&mut s).unwrap();
    write_frame(&mut s, FrameKind::Chunk, b"<a></a>").unwrap();
    assert_eq!(read_error_code(&mut s), codes::PROTOCOL);
}

#[test]
fn zero_length_chunk_inside_a_request_is_typed() {
    let server = server();
    let mut s = raw(&server);
    write_preamble(&mut s).unwrap();
    write_frame(&mut s, FrameKind::Query, &encode_query("a,b", ".*a")).unwrap();
    write_frame(&mut s, FrameKind::Chunk, &[]).unwrap();
    assert_eq!(read_error_code(&mut s), codes::BAD_PAYLOAD);
}

#[test]
fn finish_with_payload_is_typed() {
    let server = server();
    let mut s = raw(&server);
    write_preamble(&mut s).unwrap();
    write_frame(&mut s, FrameKind::Query, &encode_query("a,b", ".*a")).unwrap();
    write_frame(&mut s, FrameKind::Chunk, b"<a></a>").unwrap();
    write_frame(&mut s, FrameKind::Finish, b"junk").unwrap();
    assert_eq!(read_error_code(&mut s), codes::BAD_PAYLOAD);
}

#[test]
fn malformed_query_payloads_are_typed_not_crashes() {
    // Structurally-lying QUERY payloads: alphabet length past the
    // payload, empty alphabet, empty pattern, non-UTF-8 text.
    let bad_payloads: Vec<Vec<u8>> = vec![
        vec![],                       // shorter than its own header
        vec![0xff, 0xff, b'a'],       // alphabet length lies
        encode_query("", ".*a"),      // empty alphabet
        encode_query("a,b", ""),      // empty pattern
        vec![2, 0, 0xc3, 0x28, b'a'], // alphabet is invalid UTF-8
    ];
    let server = server();
    for payload in bad_payloads {
        let mut s = raw(&server);
        write_preamble(&mut s).unwrap();
        write_frame(&mut s, FrameKind::Query, &payload).unwrap();
        assert_eq!(
            read_error_code(&mut s),
            codes::BAD_PAYLOAD,
            "payload {payload:02x?}"
        );
    }
}

#[test]
fn uncompilable_query_is_a_typed_bad_query() {
    let server = server();
    for (csv, pattern) in [("a,a", ".*a"), ("a,b", "(")] {
        let mut s = raw(&server);
        write_preamble(&mut s).unwrap();
        write_frame(&mut s, FrameKind::Query, &encode_query(csv, pattern)).unwrap();
        assert_eq!(
            read_error_code(&mut s),
            codes::BAD_QUERY,
            "query {pattern:?} over {csv:?}"
        );
    }
}

#[test]
fn wire_code_registry_is_stable() {
    // The registry is append-only: these numbers are the protocol
    // contract, and renumbering any of them breaks deployed clients.
    // This test pins every released value.
    assert_eq!(codes::OVERLOADED, 1);
    assert_eq!(codes::REJECTED, 2);
    assert_eq!(codes::SHUTTING_DOWN, 3);
    assert_eq!(codes::FAILED, 4);
    assert_eq!(codes::UNKNOWN_JOB, 5);
    assert_eq!(codes::DEADLINE_EXPIRED, 6);
    assert_eq!(codes::BAD_PREAMBLE, 100);
    assert_eq!(codes::BAD_FRAME_TYPE, 101);
    assert_eq!(codes::FRAME_TOO_LARGE, 102);
    assert_eq!(codes::TRUNCATED_FRAME, 103);
    assert_eq!(codes::READ_TIMEOUT, 104);
    assert_eq!(codes::WRITE_TIMEOUT, 105);
    assert_eq!(codes::SLOW_CLIENT, 106);
    assert_eq!(codes::BAD_QUERY, 107);
    assert_eq!(codes::PROTOCOL, 108);
    assert_eq!(codes::ENGINE, 109);
    assert_eq!(codes::BAD_PAYLOAD, 110);
}
