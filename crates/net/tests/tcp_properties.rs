//! Property tests of the TCP state machines: byte conservation and
//! sender invariants under adversarial delivery orders.
//!
//! Each property runs 256 randomized cases drawn from the workspace's
//! own seeded RNG, so the suite is deterministic and needs no external
//! crate. Every case has its own seed; a failing case prints it
//! (`eyeorg_stats::rng::for_each_case`).

use eyeorg_net::tcp::{TcpReceiver, TcpSender, MSS};
use eyeorg_net::SimTime;
use eyeorg_stats::rng::for_each_case;

/// Cases per property.
const CASES: u64 = 256;

/// Whatever order segments arrive in (duplicates and overlaps
/// included), the receiver delivers each byte exactly once and ends
/// with the full prefix once all segments have been seen.
#[test]
fn receiver_conserves_bytes() {
    for_each_case(1, CASES, |rng| {
        let total_segments = rng.random_range(1usize..30);
        let order: Vec<usize> =
            (0..rng.random_range(1usize..90)).map(|_| rng.random_range(0usize..30)).collect();
        let mut r = TcpReceiver::new();
        let mut delivered = 0u64;
        let mut seen = vec![false; total_segments];
        for i in order.iter().copied().chain(0..total_segments) {
            let i = i % total_segments;
            seen[i] = true;
            let start = i as u64 * MSS;
            let out = r.on_segment(start, start + MSS);
            delivered += out.newly_delivered;
            assert!(out.ack <= total_segments as u64 * MSS);
            assert_eq!(out.ack, r.delivered());
        }
        // The chained iterator guarantees every segment arrived at least once.
        assert_eq!(delivered, total_segments as u64 * MSS);
        assert_eq!(r.buffered(), 0);
    });
}

/// The sender never has more unacked fresh data than its window
/// allows, never sends beyond the app limit, and always terminates
/// when acks eventually cover everything.
#[test]
fn sender_window_invariants() {
    for_each_case(2, CASES, |rng| {
        let app_bytes = rng.random_range(1u64..400_000);
        let ack_chunks: Vec<u64> =
            (0..rng.random_range(1usize..200)).map(|_| rng.random_range(1u64..40)).collect();
        let mut s = TcpSender::new();
        s.app_write(app_bytes);
        let mut now_us = 0u64;
        let mut acked = 0u64;
        let mut chunk_iter = ack_chunks.iter().cycle();
        let mut guard = 0;
        while !s.all_acked() {
            guard += 1;
            assert!(guard < 10_000, "must terminate");
            // Drain the window.
            while let Some(seg) = s.next_segment() {
                assert!(seg.end <= app_bytes, "never beyond app data");
                assert!(!seg.is_empty());
                s.mark_sent(seg, SimTime::from_micros(now_us));
                assert!(s.in_flight() <= s.cwnd_bytes() + MSS);
            }
            // Ack forward by an arbitrary chunk.
            let step = *chunk_iter.next().expect("cycle") * MSS;
            acked = (acked + step).min(s.in_flight() + acked).min(app_bytes);
            now_us += 10_000;
            s.on_ack(acked, SimTime::from_micros(now_us));
        }
        assert_eq!(acked, app_bytes);
    });
}
