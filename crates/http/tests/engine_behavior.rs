//! Behavioural tests of the fetch engine: the protocol-level effects the
//! paper's H1-vs-H2 campaign rests on must *emerge* from the simulation.

use eyeorg_http::{FetchEngine, FetchEvent, HttpConfig, OriginId, Priority, Protocol, Request, RequestId};
use eyeorg_net::{LossModel, NetworkProfile, SimDuration, SimTime};
use eyeorg_stats::Seed;

fn small_object(origin: u32) -> Request {
    Request {
        origin: OriginId(origin),
        request_header_bytes: 400,
        response_header_bytes: 300,
        body_bytes: 15_000,
        priority: Priority::Low,
        server_think: SimDuration::from_millis(10),
    }
}

/// Run a set of requests submitted at t=0 to completion; return the time
/// the last one finished.
fn run_all(cfg: HttpConfig, profile: NetworkProfile, seed: Seed, reqs: Vec<Request>) -> SimTime {
    let mut eng = FetchEngine::new(cfg, profile, seed);
    let ids: Vec<RequestId> = reqs.into_iter().map(|r| eng.submit(SimTime::ZERO, r)).collect();
    let mut last = SimTime::ZERO;
    while let Some((t, ev)) = eng.next_event() {
        if matches!(ev, FetchEvent::Completed { .. }) {
            last = t;
        }
    }
    for id in &ids {
        assert!(eng.is_completed(*id), "request {id:?} never completed");
    }
    last
}

#[test]
fn single_request_lifecycle_timings_ordered() {
    let mut eng = FetchEngine::new(
        HttpConfig::new(Protocol::Http2),
        NetworkProfile::lossless_test(),
        Seed(1),
    );
    let id = eng.submit(SimTime::ZERO, small_object(0));
    let mut saw_headers = false;
    let mut saw_data = false;
    let mut saw_complete = false;
    while let Some((_, ev)) = eng.next_event() {
        match ev {
            FetchEvent::HeadersReceived { .. } => {
                assert!(!saw_data, "headers must precede data");
                saw_headers = true;
            }
            FetchEvent::Data { .. } => saw_data = true,
            FetchEvent::Completed { .. } => saw_complete = true,
        }
    }
    assert!(saw_headers && saw_data && saw_complete);
    let t = eng.timing(id);
    let submitted = t.submitted.unwrap();
    let sent = t.sent.unwrap();
    let at_server = t.request_at_server.unwrap();
    let headers = t.headers_received.unwrap();
    let completed = t.completed.unwrap();
    assert!(submitted <= sent && sent < at_server && at_server < headers && headers <= completed);
    // Server think time must separate arrival and response by >= 10ms + 0.5 RTT.
    assert!(headers.since(at_server) >= SimDuration::from_millis(10));
}

#[test]
fn h2_beats_h1_on_many_small_objects() {
    // The canonical H2 win: 30 small objects on one origin. H1 pays six
    // handshakes and per-connection queueing; H2 pays one handshake and
    // multiplexes.
    let profile = NetworkProfile::cable();
    let reqs: Vec<Request> = (0..30).map(|_| small_object(0)).collect();
    let h1 = run_all(HttpConfig::new(Protocol::Http1), profile.clone(), Seed(10), reqs.clone());
    let h2 = run_all(HttpConfig::new(Protocol::Http2), profile, Seed(10), reqs);
    assert!(
        h2 < h1,
        "H2 ({h2}) should beat H1 ({h1}) on many small objects"
    );
}

#[test]
fn h2_suffers_more_under_heavy_loss() {
    // Transport HOL blocking: loss hurts H2's single connection
    // relatively more than H1's six. Compare slowdown factors.
    let clean = NetworkProfile::lossless_test();
    let lossy = NetworkProfile {
        loss: LossModel::Bernoulli { p: 0.02 },
        ..NetworkProfile::lossless_test()
    };
    let reqs: Vec<Request> = (0..12)
        .map(|_| Request { body_bytes: 60_000, ..small_object(0) })
        .collect();
    // Average slowdown across seeds to smooth individual loss patterns.
    let mut h1_slow = 0.0;
    let mut h2_slow = 0.0;
    let n = 8;
    for s in 0..n {
        let h1_clean = run_all(HttpConfig::new(Protocol::Http1), clean.clone(), Seed(s), reqs.clone());
        let h1_lossy = run_all(HttpConfig::new(Protocol::Http1), lossy.clone(), Seed(s), reqs.clone());
        let h2_clean = run_all(HttpConfig::new(Protocol::Http2), clean.clone(), Seed(s), reqs.clone());
        let h2_lossy = run_all(HttpConfig::new(Protocol::Http2), lossy.clone(), Seed(s), reqs.clone());
        h1_slow += h1_lossy.as_secs_f64() / h1_clean.as_secs_f64();
        h2_slow += h2_lossy.as_secs_f64() / h2_clean.as_secs_f64();
    }
    h1_slow /= n as f64;
    h2_slow /= n as f64;
    assert!(
        h2_slow > h1_slow,
        "loss should hurt H2 relatively more: H1 slowdown {h1_slow:.3}, H2 slowdown {h2_slow:.3}"
    );
}

#[test]
fn h1_pool_opens_at_most_six_connections() {
    let mut eng = FetchEngine::new(
        HttpConfig::new(Protocol::Http1),
        NetworkProfile::lossless_test(),
        Seed(2),
    );
    for _ in 0..20 {
        eng.submit(SimTime::ZERO, small_object(0));
    }
    while eng.next_event().is_some() {}
    assert_eq!(eng.connections_to(OriginId(0)), 6);
}

#[test]
fn h2_uses_single_connection() {
    let mut eng = FetchEngine::new(
        HttpConfig::new(Protocol::Http2),
        NetworkProfile::lossless_test(),
        Seed(2),
    );
    for _ in 0..20 {
        eng.submit(SimTime::ZERO, small_object(0));
    }
    while eng.next_event().is_some() {}
    assert_eq!(eng.connections_to(OriginId(0)), 1);
}

#[test]
fn h2_priorities_speed_up_critical_resources() {
    // A big Lowest-priority response and a small Critical one become
    // ready together; with H2 weighting, Critical must finish well before
    // the bulk transfer.
    let bulk = Request {
        origin: OriginId(0),
        request_header_bytes: 400,
        response_header_bytes: 200,
        body_bytes: 800_000,
        priority: Priority::Lowest,
        server_think: SimDuration::from_millis(5),
    };
    let critical = Request {
        body_bytes: 30_000,
        priority: Priority::Critical,
        ..bulk.clone()
    };
    let mut eng = FetchEngine::new(
        HttpConfig::new(Protocol::Http2),
        NetworkProfile::dsl(),
        Seed(3),
    );
    let bulk_id = eng.submit(SimTime::ZERO, bulk);
    let crit_id = eng.submit(SimTime::ZERO, critical);
    while eng.next_event().is_some() {}
    let bulk_done = eng.timing(bulk_id).completed.unwrap();
    let crit_done = eng.timing(crit_id).completed.unwrap();
    assert!(
        crit_done.as_secs_f64() < bulk_done.as_secs_f64() * 0.5,
        "critical at {crit_done}, bulk at {bulk_done}"
    );
}

#[test]
fn hpack_reduces_uplink_bytes() {
    let reqs: Vec<Request> = (0..20).map(|_| small_object(0)).collect();
    let mut h1 = FetchEngine::new(
        HttpConfig::new(Protocol::Http1),
        NetworkProfile::lossless_test(),
        Seed(4),
    );
    let mut h2 = FetchEngine::new(
        HttpConfig::new(Protocol::Http2),
        NetworkProfile::lossless_test(),
        Seed(4),
    );
    for r in &reqs {
        h1.submit(SimTime::ZERO, r.clone());
        h2.submit(SimTime::ZERO, r.clone());
    }
    while h1.next_event().is_some() {}
    while h2.next_event().is_some() {}
    assert!(
        h2.uplink_wire_bytes() < h1.uplink_wire_bytes() / 2,
        "HPACK should at least halve request bytes: h2={} h1={}",
        h2.uplink_wire_bytes(),
        h1.uplink_wire_bytes()
    );
}

#[test]
fn engine_is_deterministic() {
    let reqs: Vec<Request> = (0..15).map(|i| small_object(i % 3)).collect();
    let run = |seed| {
        let mut eng =
            FetchEngine::new(HttpConfig::new(Protocol::Http2), NetworkProfile::cable(), seed);
        let ids: Vec<RequestId> =
            reqs.iter().map(|r| eng.submit(SimTime::ZERO, r.clone())).collect();
        let mut log = Vec::new();
        while let Some((t, ev)) = eng.next_event() {
            log.push((t, format!("{ev:?}")));
        }
        (log, ids.iter().map(|&i| eng.timing(i)).collect::<Vec<_>>())
    };
    assert_eq!(run(Seed(5)), run(Seed(5)));
}

#[test]
fn bounded_pumping_respects_limit() {
    let mut eng = FetchEngine::new(
        HttpConfig::new(Protocol::Http2),
        NetworkProfile::lossless_test(),
        Seed(6),
    );
    eng.submit(SimTime::ZERO, small_object(0));
    // Nothing can complete within 1 ms (handshake alone is 40 ms RTT).
    assert!(eng.next_event_until(SimTime::from_millis(1)).is_none());
    // With no bound the lifecycle completes.
    let mut events = 0;
    while eng.next_event().is_some() {
        events += 1;
    }
    assert!(events >= 3, "expected headers/data/completed, got {events}");
}

#[test]
fn staggered_submissions_follow_submit_times() {
    let mut eng = FetchEngine::new(
        HttpConfig::new(Protocol::Http1),
        NetworkProfile::lossless_test(),
        Seed(7),
    );
    let early = eng.submit(SimTime::ZERO, small_object(0));
    let late_at = SimTime::from_secs(2);
    let late = eng.submit(late_at, small_object(0));
    while eng.next_event().is_some() {}
    let t_early = eng.timing(early);
    let t_late = eng.timing(late);
    assert!(t_early.completed.unwrap() < late_at, "early finishes before late starts");
    assert!(t_late.sent.unwrap() >= late_at, "late must not be sent before submission");
}

#[test]
fn multiple_origins_open_separate_pools() {
    let mut eng = FetchEngine::new(
        HttpConfig::new(Protocol::Http2),
        NetworkProfile::cable(),
        Seed(8),
    );
    for origin in 0..4 {
        for _ in 0..3 {
            eng.submit(SimTime::ZERO, small_object(origin));
        }
    }
    while eng.next_event().is_some() {}
    for origin in 0..4 {
        assert_eq!(eng.connections_to(OriginId(origin)), 1);
    }
}

#[test]
fn sharding_helps_h1_but_not_h2() {
    // Domain sharding (splitting objects across hostnames) was an H1-era
    // optimisation the paper's intro mentions. It pays off when H1
    // connections are idle-time-bound — small objects over a high-RTT
    // path — because more connections mean more exchanges in flight. It
    // cannot help (and only adds handshakes) under H2's multiplexing.
    let profile = NetworkProfile {
        name: "highRTT",
        down_bps: 1_600_000,
        up_bps: 768_000,
        rtt: SimDuration::from_millis(300),
        loss: LossModel::None,
        queue_limit: 512,
    };
    let tiny = |origin: u32| Request {
        origin: OriginId(origin),
        request_header_bytes: 400,
        response_header_bytes: 200,
        body_bytes: 2_000,
        priority: Priority::Low,
        server_think: SimDuration::from_millis(20),
    };
    let one_origin: Vec<Request> = (0..48).map(|_| tiny(0)).collect();
    let sharded: Vec<Request> = (0..48).map(|i| tiny(i % 4)).collect();
    let h1_one = run_all(HttpConfig::new(Protocol::Http1), profile.clone(), Seed(9), one_origin.clone());
    let h1_shard = run_all(HttpConfig::new(Protocol::Http1), profile.clone(), Seed(9), sharded.clone());
    let h2_one = run_all(HttpConfig::new(Protocol::Http2), profile.clone(), Seed(9), one_origin);
    let h2_shard = run_all(HttpConfig::new(Protocol::Http2), profile, Seed(9), sharded);
    assert!(
        h1_shard.as_secs_f64() < 0.7 * h1_one.as_secs_f64(),
        "sharding should substantially help idle-bound H1: {h1_shard} vs {h1_one}"
    );
    // Sharding may still buy H2 a little aggregate write-window (flow
    // control) but nothing like the H1 gain.
    assert!(
        h2_shard.as_secs_f64() > 0.8 * h2_one.as_secs_f64(),
        "sharding should not meaningfully help H2: {h2_shard} vs {h2_one}"
    );
}

#[test]
fn server_push_skips_the_request_round_trip() {
    // The same CSS delivered by push vs by a discovered request: the
    // pushed copy must complete earlier (no discovery wait, no request
    // upload, no extra server think scheduling).
    let profile = NetworkProfile::lossless_test();
    let html = Request {
        origin: OriginId(0),
        request_header_bytes: 450,
        response_header_bytes: 300,
        body_bytes: 40_000,
        priority: Priority::Critical,
        server_think: SimDuration::from_millis(50),
    };
    let css = Request {
        request_header_bytes: 400,
        response_header_bytes: 250,
        body_bytes: 25_000,
        priority: Priority::High,
        server_think: SimDuration::from_millis(120),
        ..html.clone()
    };

    // Pulled: the CSS is requested 250ms later (discovered in the HTML)
    // and then pays its own request trip and server think.
    let mut pulled = FetchEngine::new(HttpConfig::new(Protocol::Http2), profile.clone(), Seed(1));
    pulled.submit(SimTime::ZERO, html.clone());
    let css_pull = pulled.submit(SimTime::from_millis(250), css.clone());
    while pulled.next_event().is_some() {}
    let t_pull = pulled.timing(css_pull).completed.expect("completed");

    // Pushed: the CSS rides with the document.
    let mut pushed = FetchEngine::new(HttpConfig::new(Protocol::Http2), profile, Seed(1));
    let root = pushed.submit(SimTime::ZERO, html);
    let css_push = pushed.submit_pushed(SimTime::ZERO, root, css);
    while pushed.next_event().is_some() {}
    let t_push = pushed.timing(css_push).completed.expect("completed");
    assert!(
        t_push < t_pull,
        "push should beat pull: {t_push} vs {t_pull}"
    );
    // The push consumed no uplink request bytes.
    assert!(pushed.uplink_wire_bytes() < pulled.uplink_wire_bytes());
}

#[test]
#[should_panic(expected = "requires HTTP/2")]
fn push_rejected_on_http1() {
    let mut eng = FetchEngine::new(
        HttpConfig::new(Protocol::Http1),
        NetworkProfile::lossless_test(),
        Seed(2),
    );
    let root = eng.submit(SimTime::ZERO, small_object(0));
    eng.submit_pushed(SimTime::ZERO, root, small_object(0));
}

#[test]
#[should_panic(expected = "parent's origin")]
fn push_rejected_cross_origin() {
    let mut eng = FetchEngine::new(
        HttpConfig::new(Protocol::Http2),
        NetworkProfile::lossless_test(),
        Seed(3),
    );
    let root = eng.submit(SimTime::ZERO, small_object(0));
    eng.submit_pushed(SimTime::ZERO, root, small_object(1));
}

/// The network simulator's lazy retransmission timer must keep the
/// engine's timer-versus-network decisions of the eager timer, which
/// the per-segment reference path (`set_burst_batching(false)`) runs.
///
/// In this scenario the second request is submitted at exactly the
/// instant the first response's last segment arrives, and at that
/// moment a superseded retransmission deadline of the first transfer is
/// still pending, earlier than the submission. The eager queue therefore
/// enters the network first: the arrival completes the first response
/// and frees the connection, and the second request reuses it. Deciding
/// on the real queue alone would run the submission's timer first and
/// open a second connection.
#[test]
fn lazy_timer_keeps_engine_ties() {
    let profile =
        NetworkProfile { loss: LossModel::Bernoulli { p: 0.03 }, ..NetworkProfile::lte() };
    let tie = SimTime::from_micros(637_678);
    let run = |batching: bool| {
        let mut eng =
            FetchEngine::new(HttpConfig::new(Protocol::Http1), profile.clone(), Seed(118));
        eng.set_burst_batching(batching);
        let first = eng.submit(
            SimTime::ZERO,
            Request {
                server_think: SimDuration::from_millis(43),
                body_bytes: 154_442,
                ..small_object(0)
            },
        );
        eng.submit(tie, Request { body_bytes: 30_000, ..small_object(0) });
        let events: Vec<(SimTime, FetchEvent)> = std::iter::from_fn(|| eng.next_event()).collect();
        assert_eq!(eng.timing(first).completed, Some(tie), "the first response ends at the tie");
        (events, eng.connections_to(OriginId(0)))
    };
    let (fast, fast_conns) = run(true);
    let (reference, reference_conns) = run(false);
    assert_eq!(reference_conns, 1, "the freed connection is reused");
    assert_eq!(fast_conns, reference_conns);
    assert_eq!(fast, reference);
}
