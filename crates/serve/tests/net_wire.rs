//! Adversarial coverage of the `MGW1` wire codec.
//!
//! The contract under test: the codec **never panics** and **never trusts
//! the peer** — every malformed input (truncation at any byte, a flipped
//! bit anywhere, hostile declared lengths, future protocol versions,
//! unknown frame kinds, garbage payloads) is answered with a typed
//! [`WireError`], and frames that do decode round-trip bit-identically.

use mogul_core::{CoreError, OutOfSampleResult, RankedNode, SearchStats, TopKResult};
use mogul_serve::net::wire::{
    decode_query_request, decode_query_response, decode_serve_error, decode_stats_report,
    encode_frame, encode_query_request, encode_query_response, encode_serve_error,
    encode_stats_report, read_frame,
};
use mogul_serve::net::{Frame, FrameKind, ServerStatsReport, WireError, MAX_FRAME_PAYLOAD};
use mogul_serve::{QueryRequest, QueryResponse, ServeError};
use std::io::Cursor;

fn decode_one(bytes: &[u8]) -> Result<Option<Frame>, WireError> {
    read_frame(&mut Cursor::new(bytes))
}

fn sample_frame() -> Vec<u8> {
    let mut payload = Vec::new();
    encode_query_request(&QueryRequest::in_database(42, 10), &mut payload);
    encode_frame(FrameKind::Query, 7, &payload).unwrap()
}

// ---------------------------------------------------------------------------
// Round trips
// ---------------------------------------------------------------------------

#[test]
fn frames_of_every_kind_round_trip() {
    for kind in [
        FrameKind::Query,
        FrameKind::Stats,
        FrameKind::Drain,
        FrameKind::Answer,
        FrameKind::StatsReport,
        FrameKind::Error,
        FrameKind::DrainStarted,
    ] {
        for payload in [&b""[..], &b"x"[..], &[0u8; 1024][..]] {
            let bytes = encode_frame(kind, 0xdead_beef_cafe_f00d, payload).unwrap();
            let frame = decode_one(&bytes).unwrap().unwrap();
            assert_eq!(frame.kind, kind);
            assert_eq!(frame.request_id, 0xdead_beef_cafe_f00d);
            assert_eq!(frame.payload, payload);
        }
    }
}

#[test]
fn consecutive_frames_stream_off_one_reader() {
    let mut stream = Vec::new();
    stream.extend_from_slice(&encode_frame(FrameKind::Stats, 1, &[]).unwrap());
    stream.extend_from_slice(&sample_frame());
    stream.extend_from_slice(&encode_frame(FrameKind::Drain, 3, &[]).unwrap());
    let mut cursor = Cursor::new(stream);
    assert_eq!(
        read_frame(&mut cursor).unwrap().unwrap().kind,
        FrameKind::Stats
    );
    assert_eq!(
        read_frame(&mut cursor).unwrap().unwrap().kind,
        FrameKind::Query
    );
    assert_eq!(
        read_frame(&mut cursor).unwrap().unwrap().kind,
        FrameKind::Drain
    );
    // Clean EOF at a frame boundary is the normal end of a connection.
    assert_eq!(read_frame(&mut cursor).unwrap(), None);
}

#[test]
fn query_request_payloads_round_trip() {
    let extreme = vec![
        0.0,
        -0.0,
        f64::MIN_POSITIVE,
        f64::MAX,
        f64::MIN,
        1e-308, // subnormal territory on the way down
        std::f64::consts::PI,
    ];
    for request in [
        QueryRequest::in_database(0, 1),
        QueryRequest::in_database(usize::MAX, usize::MAX),
        QueryRequest::out_of_sample(Vec::<f64>::new(), 3),
        QueryRequest::out_of_sample(extreme, 10),
    ] {
        let mut payload = Vec::new();
        encode_query_request(&request, &mut payload);
        let back = decode_query_request(&payload).unwrap();
        assert_eq!(back, request);
    }
}

#[test]
fn query_response_payloads_round_trip_bit_identically() {
    // Scores chosen to be unrepresentable in any decimal shortcut: raw-bits
    // transport must reproduce them with `==`.
    let top_k = TopKResult::new(vec![
        RankedNode {
            node: 3,
            score: 0.1 + 0.2, // famously not 0.3
        },
        RankedNode {
            node: 9,
            score: f64::MIN_POSITIVE,
        },
        RankedNode {
            node: 1,
            score: -1.0 / 3.0,
        },
    ]);
    let in_db = QueryResponse::InDatabase(top_k.clone());
    let mut payload = Vec::new();
    encode_query_response(&in_db, &mut payload);
    match decode_query_response(&payload).unwrap() {
        QueryResponse::InDatabase(back) => assert_eq!(back, top_k),
        other => panic!("wrong variant: {other:?}"),
    }

    let oos = QueryResponse::OutOfSample(Box::new(OutOfSampleResult {
        top_k: top_k.clone(),
        neighbors: vec![5, 0, 11],
        nearest_neighbor_secs: 1.5e-4,
        top_k_secs: 0.25 * f64::EPSILON,
        stats: SearchStats {
            clusters_considered: 7,
            clusters_pruned: 5,
            nodes_scored: 123,
            bound_evaluations: 456,
        },
    }));
    let mut payload = Vec::new();
    encode_query_response(&oos, &mut payload);
    match decode_query_response(&payload).unwrap() {
        QueryResponse::OutOfSample(back) => {
            assert_eq!(back.top_k, top_k);
            assert_eq!(back.neighbors, vec![5, 0, 11]);
            assert_eq!(back.nearest_neighbor_secs.to_bits(), 1.5e-4f64.to_bits());
            assert_eq!(back.top_k_secs.to_bits(), (0.25 * f64::EPSILON).to_bits());
            assert_eq!(back.stats.nodes_scored, 123);
        }
        other => panic!("wrong variant: {other:?}"),
    }
}

#[test]
fn serve_error_payloads_round_trip() {
    let cases = vec![
        ServeError::Overloaded {
            queue_depth: 128,
            queue_capacity: 128,
        },
        ServeError::Draining,
        ServeError::BadRequest {
            reason: "k must be at least 1 — and unicode survives: ∎".into(),
        },
        ServeError::Config {
            reason: "queue_capacity must be at least 1".into(),
        },
        ServeError::Durability {
            reason: "i/o failure during append wal record: disk full".into(),
        },
    ];
    for error in cases {
        let mut payload = Vec::new();
        encode_serve_error(&error, &mut payload);
        assert_eq!(decode_serve_error(&payload).unwrap(), error);
    }
    // Index errors travel as their message; the variant survives, the inner
    // structure collapses to InvalidInput (documented lossy).
    let index = ServeError::Index(CoreError::InvalidInput("singular factor".into()));
    let mut payload = Vec::new();
    encode_serve_error(&index, &mut payload);
    match decode_serve_error(&payload).unwrap() {
        ServeError::Index(inner) => assert!(inner.to_string().contains("singular factor")),
        other => panic!("wrong variant: {other:?}"),
    }
}

#[test]
fn stats_report_payload_round_trips() {
    let report = ServerStatsReport {
        epoch: 17,
        items: 100_000,
        uptime_secs: 12.75,
        connections: 3,
        queue_depth: 9,
        queue_capacity: 1024,
        inflight: 12,
        completed: 987_654,
        shed_overloaded: 321,
        shed_draining: 2,
        bad_requests: 45,
        index_errors: 1,
        p50_us: 83.5,
        p95_us: 412.25,
        qps: 11_930.5,
        rebuild_support: 512,
        rebuild_fraction: 0.256,
        draining: true,
        shed_deadline: 7,
        answered_by_reader: 65_432,
    };
    let mut payload = Vec::new();
    encode_stats_report(&report, &mut payload);
    assert_eq!(decode_stats_report(&payload).unwrap(), report);
}

#[test]
fn stats_report_without_trailing_shed_deadline_decodes_zero() {
    // A v1 server never wrote the trailing `shed_deadline` field, and a
    // server predating the reader path never wrote `answered_by_reader`; a
    // new client must decode their payloads with the missing counters
    // defaulting to zero.
    let mut report = ServerStatsReport {
        epoch: 3,
        items: 10,
        uptime_secs: 1.0,
        connections: 1,
        queue_depth: 0,
        queue_capacity: 64,
        inflight: 0,
        completed: 5,
        shed_overloaded: 0,
        shed_draining: 0,
        bad_requests: 0,
        index_errors: 0,
        p50_us: 10.0,
        p95_us: 20.0,
        qps: 100.0,
        rebuild_support: 0,
        rebuild_fraction: 0.0,
        draining: false,
        shed_deadline: 42,
        answered_by_reader: 9,
    };
    let mut payload = Vec::new();
    encode_stats_report(&report, &mut payload);
    // Strip trailing u64s to reconstruct the old-server payloads.
    payload.truncate(payload.len() - 8);
    report.answered_by_reader = 0;
    assert_eq!(decode_stats_report(&payload).unwrap(), report);
    payload.truncate(payload.len() - 8);
    report.shed_deadline = 0;
    assert_eq!(decode_stats_report(&payload).unwrap(), report);
}

// ---------------------------------------------------------------------------
// Hostile input
// ---------------------------------------------------------------------------

#[test]
fn truncation_at_every_byte_is_a_typed_error_never_a_panic() {
    let bytes = sample_frame();
    for cut in 1..bytes.len() {
        match decode_one(&bytes[..cut]) {
            Err(WireError::Truncated { .. }) => {}
            other => panic!("cut at {cut}: expected Truncated, got {other:?}"),
        }
    }
    // Zero bytes is a clean close, not an error.
    assert_eq!(decode_one(&[]).unwrap(), None);
}

#[test]
fn a_flipped_bit_anywhere_is_a_typed_error_never_a_panic() {
    let bytes = sample_frame();
    for i in 0..bytes.len() {
        for bit in 0..8 {
            let mut corrupt = bytes.clone();
            corrupt[i] ^= 1 << bit;
            let result = decode_one(&corrupt);
            assert!(
                result.is_err(),
                "flipping bit {bit} of byte {i} must not yield a valid frame"
            );
        }
    }
}

#[test]
fn checksum_guards_the_payload_bytes() {
    let bytes = sample_frame();
    // Flip a payload byte (past the header, before the trailer): only the
    // checksum can catch this.
    let mut corrupt = bytes.clone();
    let idx = 19 + 2;
    corrupt[idx] ^= 0x40;
    match decode_one(&corrupt) {
        Err(WireError::ChecksumMismatch { expected, actual }) => assert_ne!(expected, actual),
        other => panic!("expected ChecksumMismatch, got {other:?}"),
    }
}

#[test]
fn hostile_declared_lengths_are_rejected_before_allocation() {
    // A valid header with payload_len = u32::MAX: must fail fast with
    // FrameTooLarge, not attempt a 4 GiB allocation or a 4 GiB read.
    let mut bytes = sample_frame();
    bytes[15..19].copy_from_slice(&u32::MAX.to_le_bytes());
    match decode_one(&bytes) {
        Err(WireError::FrameTooLarge { declared, max }) => {
            assert_eq!(declared, u32::MAX as usize);
            assert_eq!(max, MAX_FRAME_PAYLOAD);
        }
        other => panic!("expected FrameTooLarge, got {other:?}"),
    }
    // Just past the bound is rejected; the bound itself is the contract.
    let mut bytes = sample_frame();
    bytes[15..19].copy_from_slice(&((MAX_FRAME_PAYLOAD as u32) + 1).to_le_bytes());
    assert!(matches!(
        decode_one(&bytes),
        Err(WireError::FrameTooLarge { .. })
    ));
}

#[test]
fn oversized_payloads_are_rejected_at_encode_time_too() {
    let huge = vec![0u8; MAX_FRAME_PAYLOAD + 1];
    assert!(matches!(
        encode_frame(FrameKind::Query, 1, &huge),
        Err(WireError::FrameTooLarge { .. })
    ));
}

#[test]
fn future_versions_and_unknown_kinds_are_typed_errors() {
    let mut bytes = sample_frame();
    bytes[4..6].copy_from_slice(&2u16.to_le_bytes());
    assert_eq!(
        decode_one(&bytes),
        Err(WireError::UnsupportedVersion { got: 2 })
    );

    let mut bytes = sample_frame();
    bytes[6] = 0x7f;
    assert_eq!(
        decode_one(&bytes),
        Err(WireError::UnknownKind { got: 0x7f })
    );

    let mut bytes = sample_frame();
    bytes[..4].copy_from_slice(b"HTTP");
    assert_eq!(
        decode_one(&bytes),
        Err(WireError::BadMagic { got: *b"HTTP" })
    );
}

#[test]
fn garbage_payloads_fail_their_codec_with_typed_errors() {
    // Unknown tag.
    assert!(matches!(
        decode_query_request(&[99]),
        Err(WireError::Payload(_))
    ));
    // Empty payload where a tag is required.
    assert!(matches!(
        decode_query_request(&[]),
        Err(WireError::Payload(_))
    ));
    assert!(matches!(
        decode_query_response(&[]),
        Err(WireError::Payload(_))
    ));
    assert!(matches!(
        decode_serve_error(&[]),
        Err(WireError::Payload(_))
    ));
    assert!(matches!(
        decode_stats_report(&[]),
        Err(WireError::Payload(_))
    ));
    // A count that promises more elements than the payload holds: rejected
    // by the pre-allocation length check inherited from the MOG1 reader.
    let mut payload = Vec::new();
    payload.push(1u8); // out-of-sample tag
    payload.extend_from_slice(&5u64.to_le_bytes()); // k
    payload.extend_from_slice(&u64::MAX.to_le_bytes()); // feature count: hostile
    assert!(matches!(
        decode_query_request(&payload),
        Err(WireError::Payload(_))
    ));
    // Trailing bytes after a complete decode are an error, not ignored.
    let mut payload = Vec::new();
    encode_query_request(&QueryRequest::in_database(1, 2), &mut payload);
    payload.push(0);
    assert!(matches!(
        decode_query_request(&payload),
        Err(WireError::Payload(_))
    ));
}

#[test]
fn random_byte_soup_never_panics_the_frame_reader() {
    // Deterministic xorshift soup: enough to sweep a wide spread of headers.
    let mut state = 0x9e37_79b9_7f4a_7c15u64;
    let mut soup = Vec::with_capacity(1 << 12);
    for _ in 0..(1 << 12) {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        soup.push((state >> 56) as u8);
    }
    for start in 0..256 {
        let _ = decode_one(&soup[start..]); // must return, never panic
    }
}
