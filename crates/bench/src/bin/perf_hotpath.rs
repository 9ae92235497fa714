//! Hot-path performance harness (no external benchmark framework).
//!
//! Times the single-thread capture pipeline — simulated TCP event
//! processing, page loads, frame-timeline materialisation, rewind
//! scans, and visual-progress curves — against in-process reference
//! implementations of each optimisation:
//!
//! * **network**: burst batching on vs. the per-segment reference path
//!   (`load_page_reference` / `NetSim::set_burst_batching(false)`);
//! * **video**: incremental delta-driven rewinds and completeness
//!   curves vs. the definitional full-grid scans (`rewind_suggestion`,
//!   render-and-diff per change point).
//!
//! Writes `results/BENCH_hotpath.json` with events/sec, segments/sec,
//! and frames/sec, and **exits non-zero** when any optimised output is
//! not byte-identical to its reference — the optimisations must be
//! invisible. Pass `--smoke` for a down-sized run (CI-friendly).

use std::time::Instant;

use eyeorg_browser::{load_page, load_page_reference, BrowserConfig, LoadTrace};
use eyeorg_metrics::visual_progress_curve;
use eyeorg_net::profile::TlsMode;
use eyeorg_net::sim::{NetEvent, NetSim};
use eyeorg_net::tcp::MSS;
use eyeorg_net::{NetworkProfile, SimDuration, SimTime};
use eyeorg_stats::Seed;
use eyeorg_video::{rewind_suggestion, EarliestSimilarTable, Video};
use eyeorg_workload::{alexa_like, Website};

/// One simulated page worth of objects, round-robined over connections;
/// returns wall seconds, events processed, bytes delivered, and the
/// full observable trace (for the divergence gate).
fn net_stage(
    batching: bool,
    conns: usize,
    objects: &[u64],
    seed: Seed,
) -> (f64, u64, u64, Vec<(SimTime, NetEvent)>) {
    let t0 = Instant::now();
    let mut sim = NetSim::new(NetworkProfile::lossless_test(), seed);
    sim.set_burst_batching(batching);
    let ids: Vec<_> = (0..conns).map(|_| sim.open(SimTime::ZERO, TlsMode::None)).collect();
    let mut next_obj: Vec<usize> = (0..conns).collect();
    let mut expecting = vec![0u64; conns];
    let mut requested = vec![0u64; conns];
    let mut delivered = 0u64;
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
                    delivered += obj;
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
    drop(ids);
    (t0.elapsed().as_secs_f64(), sim.events_processed(), delivered, trace)
}

/// The pre-optimisation visual-progress curve: render every change
/// point and diff full grids against the final frame.
fn naive_curve(video: &Video) -> Vec<(SimTime, f64)> {
    let fold = video.trace().fold_y;
    let end = SimTime::from_micros(video.duration().as_micros());
    let mut change_times: Vec<SimTime> = video
        .trace()
        .paints
        .iter()
        .filter(|p| p.time <= end)
        .filter(|p| p.rect.above_fold(fold).is_some())
        .map(|p| p.time)
        .collect();
    change_times.dedup();
    let Some(&last) = change_times.last() else {
        return vec![(SimTime::ZERO, 1.0)];
    };
    let final_frame = video.render_at(last);
    let mut curve = Vec::with_capacity(change_times.len() + 1);
    let blank = video.render_at(SimTime::ZERO);
    curve.push((SimTime::ZERO, 1.0 - blank.diff_fraction(&final_frame)));
    for t in change_times {
        curve.push((t, 1.0 - video.render_at(t).diff_fraction(&final_frame)));
    }
    curve
}

/// Output of one capture-pipeline pass, complete enough that equal
/// fingerprints mean byte-identical pipelines.
struct PipelineOutput {
    secs: f64,
    frames: u64,
    fingerprint: String,
}

/// Run the per-site capture pipeline: load, capture, materialise the
/// frame timeline, answer every rewind query, compute the progress
/// curve. `optimised` selects batched loads + incremental scans;
/// otherwise the per-segment loader and the definitional full-grid
/// implementations run.
fn capture_stage(sites: &[Website], seed: Seed, optimised: bool) -> PipelineOutput {
    let cfg = BrowserConfig::new();
    let loader: fn(&Website, &BrowserConfig, Seed) -> LoadTrace =
        if optimised { load_page } else { load_page_reference };
    let t0 = Instant::now();
    let mut frames = 0u64;
    let mut fingerprint = String::new();
    for (i, site) in sites.iter().enumerate() {
        let trace = loader(site, &cfg, seed.derive_index("load", i as u64));
        let video = Video::capture(trace, 10, SimDuration::from_secs(5));
        let n = video.frame_count();
        frames += n as u64;
        let rewinds: Vec<usize> = if optimised {
            EarliestSimilarTable::of(&video).as_slice().to_vec()
        } else {
            (0..n).map(|c| rewind_suggestion(&video, c)).collect()
        };
        let curve =
            if optimised { visual_progress_curve(&video) } else { naive_curve(&video) };
        fingerprint.push_str(&format!("{:?};{rewinds:?};{curve:?}\n", video.trace()));
    }
    PipelineOutput { secs: t0.elapsed().as_secs_f64(), frames, fingerprint }
}

fn main() {
    // Instrumentation on: the hot paths are timed with their counters
    // live, so a counter that costs real throughput shows up here.
    eyeorg_obs::enable();
    let smoke = std::env::args().any(|a| a == "--smoke");
    let (n_sites, net_objects, net_conns) = if smoke { (3, 24, 4) } else { (10, 96, 6) };
    let seed = Seed(2016).derive("perf-hotpath");
    let mut divergence = false;

    // --- network stage ---
    let objects: Vec<u64> = (0..net_objects)
        .map(|i| match i % 6 {
            0 => 2_500,
            1 => 14_000,
            2 => 700,
            3 => 40_000,
            4 => 9_000,
            _ => 120_000,
        })
        .collect();
    let (ref_secs, ref_events, _, ref_trace) =
        net_stage(false, net_conns, &objects, seed.derive("net"));
    let (net_secs, net_events, net_bytes, net_trace) =
        net_stage(true, net_conns, &objects, seed.derive("net"));
    if net_trace != ref_trace {
        divergence = true;
        eprintln!("DIVERGENCE: batched NetSim trace differs from per-segment reference");
    }
    let events_per_sec = net_events as f64 / net_secs.max(1e-9);
    let segments = net_bytes.div_ceil(MSS);
    let segments_per_sec = segments as f64 / net_secs.max(1e-9);
    let event_reduction = ref_events as f64 / net_events.max(1) as f64;
    println!(
        "net: {net_events} events in {net_secs:.3}s ({events_per_sec:.0} events/s, \
         {segments_per_sec:.0} segments/s, {event_reduction:.2}x fewer events than reference)"
    );

    // --- capture pipeline stage ---
    let sites = alexa_like(seed.derive("sites"), n_sites);
    let optimised = capture_stage(&sites, seed.derive("cap"), true);
    let reference = capture_stage(&sites, seed.derive("cap"), false);
    if optimised.fingerprint != reference.fingerprint {
        divergence = true;
        eprintln!("DIVERGENCE: optimised capture pipeline differs from reference");
    }
    let frames_per_sec = optimised.frames as f64 / optimised.secs.max(1e-9);
    let capture_speedup = reference.secs / optimised.secs.max(1e-9);
    println!(
        "capture: {} frames in {:.3}s ({frames_per_sec:.0} frames/s); reference {:.3}s \
         => {capture_speedup:.2}x",
        optimised.frames, optimised.secs, reference.secs
    );

    let env = eyeorg_bench::env_metadata_json();
    let json = format!(
        "{{\n  \"smoke\": {smoke},\n  \"sites\": {n_sites},\n  {env},\n  \"net\": {{\"conns\": {net_conns}, \"objects\": {net_objects}, \"batched_secs\": {net_secs:.6}, \"reference_secs\": {ref_secs:.6}, \"events_processed\": {net_events}, \"events_processed_reference\": {ref_events}, \"event_reduction\": {event_reduction:.3}, \"events_per_sec\": {events_per_sec:.0}, \"segments_per_sec\": {segments_per_sec:.0}}},\n  \"capture\": {{\"optimised_secs\": {:.6}, \"reference_secs\": {:.6}, \"frames\": {}, \"frames_per_sec\": {frames_per_sec:.0}, \"speedup\": {capture_speedup:.3}}},\n  \"target_speedup\": 2.0,\n  \"target_met\": {},\n  \"identical_to_reference\": {}\n}}\n",
        optimised.secs,
        reference.secs,
        optimised.frames,
        capture_speedup >= 2.0,
        !divergence
    );
    eyeorg_bench::write_result("BENCH_hotpath.json", &json);
    println!("wrote results/BENCH_hotpath.json");

    if divergence {
        eprintln!("FAIL: optimised hot paths diverged from reference outputs");
        std::process::exit(1);
    }
}
