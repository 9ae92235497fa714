//! Burst batching must be invisible: the batched `NetSim` emits a
//! `NetEvent` trace (and statistics, and qlog) identical to the
//! per-segment reference across seeded loss and bandwidth profiles.
//!
//! The scenario driver below exercises the shapes page loads produce —
//! many small objects on parallel connections (where batching engages),
//! a large ACK-clocked transfer (where it mostly cannot), and loss
//! (where it must fall back) — and compares the complete observable
//! output of the two paths event by event.

use eyeorg_net::loss::LossModel;
use eyeorg_net::profile::{NetworkProfile, TlsMode};
use eyeorg_net::sim::{ConnId, ConnStats, NetEvent, NetSim};
use eyeorg_net::{ConnLog, SimTime};
use eyeorg_stats::Seed;

/// Everything the application can observe from one scenario run, plus
/// the simulator's logical event count.
type Observed = (Vec<(SimTime, NetEvent)>, Vec<ConnStats>, Vec<Option<ConnLog>>, u64);

/// One simulated "page": a handful of connections fetching a mix of
/// object sizes, with follow-up requests issued as responses complete.
fn run_scenario(
    profile: NetworkProfile,
    seed: Seed,
    batching: bool,
    conns: usize,
    objects: &[u64],
) -> Observed {
    let mut sim = NetSim::new(profile, seed);
    sim.set_burst_batching(batching);
    sim.set_logging(true);
    let ids: Vec<ConnId> = (0..conns).map(|_| sim.open(SimTime::ZERO, TlsMode::None)).collect();
    // Round-robin the object list over the connections; each connection
    // requests its next object when the previous response completes.
    let mut next_obj: Vec<usize> = (0..conns).collect();
    let mut expecting: Vec<u64> = vec![0; conns];
    let mut requested: Vec<u64> = vec![0; conns];
    let mut trace = Vec::new();
    while let Some((t, ev)) = sim.next_event() {
        trace.push((t, ev));
        match ev {
            NetEvent::Established { conn } => {
                if next_obj[conn.0] < objects.len() {
                    requested[conn.0] += 120;
                    sim.client_send(conn, t, 120);
                }
            }
            NetEvent::RequestDelivered { conn, total_bytes } => {
                if total_bytes == requested[conn.0] {
                    let obj = objects[next_obj[conn.0]];
                    next_obj[conn.0] += conns;
                    expecting[conn.0] += obj;
                    sim.server_send(conn, t, obj);
                }
            }
            NetEvent::Delivered { conn, total_bytes } => {
                if total_bytes == expecting[conn.0] && next_obj[conn.0] < objects.len() {
                    requested[conn.0] += 120;
                    sim.client_send(conn, t, 120);
                }
            }
        }
    }
    let stats = ids.iter().map(|&c| sim.conn_stats(c)).collect();
    let logs = ids.iter().map(|&c| sim.take_log(c)).collect();
    (trace, stats, logs, sim.events_processed())
}

/// Run a scenario on both paths, assert their observable output is
/// identical, and return the `(batched, reference)` event counts.
fn assert_equivalent(
    profile: NetworkProfile,
    seed: Seed,
    conns: usize,
    objects: &[u64],
    tag: &str,
) -> (u64, u64) {
    let reference = run_scenario(profile.clone(), seed, false, conns, objects);
    let batched = run_scenario(profile, seed, true, conns, objects);
    assert_eq!(
        batched.0.len(),
        reference.0.len(),
        "{tag}: event counts diverge ({} batched vs {} reference)",
        batched.0.len(),
        reference.0.len()
    );
    for (i, (b, r)) in batched.0.iter().zip(reference.0.iter()).enumerate() {
        assert_eq!(b, r, "{tag}: NetEvent #{i} diverges");
    }
    assert_eq!(batched.1, reference.1, "{tag}: conn stats diverge");
    for (i, (b, r)) in batched.2.iter().zip(reference.2.iter()).enumerate() {
        assert_eq!(
            format!("{b:?}"),
            format!("{r:?}"),
            "{tag}: qlog for conn {i} diverges"
        );
    }
    (batched.3, reference.3)
}

/// Object mix shaped like a page: many smalls, a few mediums, one large.
const PAGE_OBJECTS: &[u64] = &[
    4_200, 1_100, 9_000, 65_000, 2_800, 14_600, 700, 30_000, 5_500, 250_000, 3_000, 12_000,
];

#[test]
fn identical_traces_lossless_profiles() {
    for (pi, profile) in [
        NetworkProfile::lossless_test(),
        NetworkProfile::fiber(),
        NetworkProfile::dsl(),
    ]
    .into_iter()
    .enumerate()
    {
        for s in 0..3u64 {
            assert_equivalent(
                profile.clone(),
                Seed(100 + s),
                6,
                PAGE_OBJECTS,
                &format!("lossless profile#{pi} seed#{s}"),
            );
        }
    }
}

#[test]
fn identical_traces_under_random_loss() {
    for (li, loss) in [
        LossModel::Bernoulli { p: 0.01 },
        LossModel::Bernoulli { p: 0.05 },
    ]
    .into_iter()
    .enumerate()
    {
        let profile = NetworkProfile { loss, ..NetworkProfile::lossless_test() };
        for s in 0..4u64 {
            assert_equivalent(
                profile.clone(),
                Seed(500 + s),
                4,
                PAGE_OBJECTS,
                &format!("loss model#{li} seed#{s}"),
            );
        }
    }
}

#[test]
fn identical_traces_under_bursty_loss_and_presets() {
    // Gilbert–Elliott loss plus every WebPageTest-style preset (3G's
    // narrow link forces drop-tail, LTE exercises the large-BDP path).
    for (pi, profile) in NetworkProfile::presets().into_iter().enumerate() {
        assert_equivalent(
            profile,
            Seed(900 + pi as u64),
            3,
            &PAGE_OBJECTS[..8],
            &format!("preset#{pi}"),
        );
    }
}

#[test]
fn identical_single_large_transfer() {
    // ACK-clocked bulk flow: batching rarely engages mid-stream but must
    // still agree byte-for-byte, including the app-limited tail.
    for s in 0..3u64 {
        assert_equivalent(
            NetworkProfile::lossless_test(),
            Seed(40 + s),
            1,
            &[2_000_000],
            &format!("bulk seed#{s}"),
        );
    }
}

#[test]
fn batching_reduces_event_count() {
    // Sanity: the optimisation actually removes event-queue round trips
    // on a batching-friendly workload (it would be easy to pass the
    // equivalence tests by never engaging).
    let run = |batching: bool| {
        let mut sim = NetSim::new(NetworkProfile::lossless_test(), Seed(7));
        sim.set_burst_batching(batching);
        let conn = sim.open(SimTime::ZERO, TlsMode::None);
        let mut served = 0;
        while let Some((t, ev)) = sim.next_event() {
            match ev {
                NetEvent::Established { .. } => sim.client_send(conn, t, 120),
                NetEvent::RequestDelivered { total_bytes, .. }
                    if total_bytes == 120 * (served + 1) =>
                {
                    sim.server_send(conn, t, 10_000);
                    served += 1;
                }
                NetEvent::Delivered { total_bytes, .. }
                    if total_bytes == served * 10_000 && served < 20 =>
                {
                    sim.client_send(conn, t, 120);
                }
                _ => {}
            }
        }
        sim.events_processed()
    };
    let batched = run(true);
    let reference = run(false);
    assert!(
        batched < reference,
        "batching should shrink event count: {batched} vs {reference}"
    );
}

/// The loss model × preset matrix: every WebPageTest-style preset under
/// its own loss model, under no loss, under 5 % Bernoulli loss, and
/// under bursty Gilbert–Elliott loss.
fn loss_preset_matrix() -> Vec<(String, NetworkProfile)> {
    let losses = [
        ("own", None),
        ("none", Some(LossModel::None)),
        ("bern5", Some(LossModel::Bernoulli { p: 0.05 })),
        (
            "ge",
            Some(LossModel::GilbertElliott {
                p_good_to_bad: 0.02,
                p_bad_to_good: 0.3,
                loss_good: 0.0,
                loss_bad: 0.5,
            }),
        ),
    ];
    let mut out = Vec::new();
    for (pi, preset) in NetworkProfile::presets().into_iter().enumerate() {
        for (tag, loss) in &losses {
            let loss = loss.unwrap_or(preset.loss);
            out.push((format!("preset#{pi}/{tag}"), NetworkProfile { loss, ..preset.clone() }));
        }
    }
    out
}

/// `NetSim::events_processed()` for the batched and the per-segment
/// reference path, per cell of the loss model × preset matrix (seed
/// 700 + cell index, 4 connections, the page object mix). The counter
/// is a logical event count: it must not move when the simulator changes
/// how it schedules internal events, only when the simulated behaviour
/// changes.
const PINNED_EVENT_COUNTS: &[(u64, u64)] = &[
    // preset#0: own loss, none, 5 % Bernoulli, Gilbert–Elliott
    (780, 882), (780, 882), (848, 894), (857, 903),
    // preset#1: own loss, none, 5 % Bernoulli, Gilbert–Elliott
    (780, 882), (780, 882), (855, 889), (849, 889),
    // preset#2: own loss, none, 5 % Bernoulli, Gilbert–Elliott
    (780, 882), (780, 882), (823, 885), (825, 883),
    // preset#3: own loss, none, 5 % Bernoulli, Gilbert–Elliott
    (885, 889), (885, 889), (880, 888), (886, 890),
    // preset#4: own loss, none, 5 % Bernoulli, Gilbert–Elliott
    (796, 882), (796, 882), (870, 904), (871, 887),
    // preset#5: own loss, none, 5 % Bernoulli, Gilbert–Elliott
    (1032, 1032), (1032, 1032), (887, 887), (883, 883),
];

#[test]
fn event_counts_are_pinned_across_loss_models_and_presets() {
    let got: Vec<(u64, u64)> = loss_preset_matrix()
        .into_iter()
        .enumerate()
        .map(|(i, (tag, profile))| {
            assert_equivalent(profile, Seed(700 + i as u64), 4, PAGE_OBJECTS, &tag)
        })
        .collect();
    assert_eq!(got, PINNED_EVENT_COUNTS, "logical event counts moved");
}
