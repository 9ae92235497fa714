//! Pipeline performance harness (no external benchmark framework).
//!
//! Times the three stages of the reproduction pipeline — corpus
//! generation, webpeg capture fan-out, and campaign execution — at 1, 2,
//! and the machine's available thread count, using plain
//! [`std::time::Instant`]. Writes `results/BENCH_pipeline.json` and
//! **exits non-zero** when any multi-threaded run produces a campaign
//! that is not byte-identical to the single-threaded run (the
//! determinism contract of `eyeorg_stats::par`).
//!
//! Sizing: 20 sites × 3 capture repeats × 300 participants — the
//! mid-size regime where both the capture fan-out and the
//! per-participant response generation have enough work to spread.

use std::time::Instant;

use eyeorg_bench::campaigns::{capture_browser, protocol_capture_browser};
use eyeorg_core::prelude::*;
use eyeorg_crowd::CrowdFlower;
use eyeorg_stats::{default_threads, Seed};
use eyeorg_video::{shared_capture_cache, CaptureConfig};
use eyeorg_workload::alexa_like;

const SITES: usize = 20;
const REPEATS: usize = 3;
const PARTICIPANTS: usize = 300;

struct StageTimes {
    threads: usize,
    capture_secs: f64,
    timeline_secs: f64,
    ab_secs: f64,
}

fn main() {
    // Instrumentation on: the determinism gate below also compares the
    // observability counters across thread counts, and the stage timings
    // measure the enabled-path overhead the counters are allowed to cost.
    eyeorg_obs::enable();
    let seed = Seed(2016).derive("perf-pipeline");
    let max_threads = default_threads().max(4);
    let mut counts = vec![1usize, 2, 4, max_threads];
    counts.dedup();

    let t0 = Instant::now();
    let sites = alexa_like(seed.derive("sites"), SITES);
    let corpus_secs = t0.elapsed().as_secs_f64();
    let capture = CaptureConfig { repeats: REPEATS, ..CaptureConfig::default() };

    let mut timings: Vec<StageTimes> = Vec::new();
    let mut baseline: Option<(String, String)> = None;
    let mut identical = true;

    let mut counter_baseline: Option<String> = None;
    let mut counters_identical = true;
    for &threads in &counts {
        // Cold captures every round: the shared cache would otherwise
        // answer the repeat rounds instantly and the comparison across
        // thread counts would time map lookups, not captures.
        shared_capture_cache().clear();
        // Fresh counters per round so each round's totals are directly
        // comparable: equal workload must yield equal counts at every
        // thread count.
        eyeorg_obs::reset();
        let t = Instant::now();
        let tl_stimuli = timeline_stimuli_threads(
            &sites,
            &capture_browser(),
            &capture,
            seed.derive("tl-cap"),
            threads,
        );
        let capture_secs = t.elapsed().as_secs_f64();

        let cfg = ExperimentConfig { threads, ..ExperimentConfig::default() };
        let t = Instant::now();
        let tl = run_timeline_campaign(
            tl_stimuli,
            &CrowdFlower,
            PARTICIPANTS,
            &cfg,
            seed.derive("tl-run"),
        );
        let timeline_secs = t.elapsed().as_secs_f64();

        let ab_stimuli = protocol_ab_stimuli(
            &sites,
            &protocol_capture_browser(),
            &capture,
            seed.derive("ab-cap"),
        );
        let t = Instant::now();
        let ab = run_ab_campaign(
            ab_stimuli,
            &CrowdFlower,
            PARTICIPANTS,
            &cfg,
            seed.derive("ab-run"),
        );
        let ab_secs = t.elapsed().as_secs_f64();

        // The Debug rendering covers every field of every row, so equal
        // strings mean byte-identical campaigns.
        let fingerprint = (format!("{tl:?}"), format!("{ab:?}"));
        match &baseline {
            None => baseline = Some(fingerprint),
            Some(base) => {
                if *base != fingerprint {
                    identical = false;
                    eprintln!(
                        "DIVERGENCE: {threads}-thread campaign differs from 1-thread run"
                    );
                }
            }
        }
        let counter_fp = eyeorg_obs::snapshot("perf-pipeline", threads).counter_fingerprint();
        match &counter_baseline {
            None => counter_baseline = Some(counter_fp),
            Some(base) => {
                if *base != counter_fp {
                    identical = false;
                    counters_identical = false;
                    eprintln!(
                        "DIVERGENCE: {threads}-thread observability counters differ from 1-thread run"
                    );
                }
            }
        }
        timings.push(StageTimes { threads, capture_secs, timeline_secs, ab_secs });
        println!(
            "threads={threads:>2}  capture {capture_secs:7.3}s  timeline {timeline_secs:7.3}s  ab {ab_secs:7.3}s"
        );
    }

    let at = |n: usize, f: &dyn Fn(&StageTimes) -> f64| {
        timings.iter().find(|t| t.threads == n).map(f)
    };
    let speedup = |f: &dyn Fn(&StageTimes) -> f64| -> f64 {
        match (at(1, f), at(4, f)) {
            (Some(one), Some(four)) if four > 0.0 => one / four,
            _ => 1.0,
        }
    };
    let capture_speedup = speedup(&|t| t.capture_secs);
    let timeline_speedup = speedup(&|t| t.timeline_secs);
    let ab_speedup = speedup(&|t| t.ab_secs);
    let campaign_speedup = speedup(&|t| t.timeline_secs + t.ab_secs);

    // The capture cache's effect is hardware-independent: time the same
    // capture fan-out cold (cache cleared) and warm (fully populated).
    shared_capture_cache().clear();
    let t = Instant::now();
    let cold = timeline_stimuli_threads(
        &sites,
        &capture_browser(),
        &capture,
        seed.derive("cache-probe"),
        1,
    );
    let cold_secs = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let warm = timeline_stimuli_threads(
        &sites,
        &capture_browser(),
        &capture,
        seed.derive("cache-probe"),
        1,
    );
    let warm_secs = t.elapsed().as_secs_f64();
    if format!("{:?}", cold.iter().map(|s| &s.video).collect::<Vec<_>>())
        != format!("{:?}", warm.iter().map(|s| &s.video).collect::<Vec<_>>())
    {
        identical = false;
        eprintln!("DIVERGENCE: cached capture differs from cold capture");
    }
    let cache_speedup = if warm_secs > 0.0 { cold_secs / warm_secs } else { f64::MAX };

    // lint:allow(D8): cpus only annotates BENCH_pipeline.json metadata, never digest bytes
    let cpus = std::thread::available_parallelism().map(usize::from).unwrap_or(1);

    let mut rows = String::new();
    for t in &timings {
        if !rows.is_empty() {
            rows.push_str(",\n");
        }
        rows.push_str(&format!(
            "    {{\"threads\": {}, \"capture_secs\": {:.6}, \"timeline_secs\": {:.6}, \"ab_secs\": {:.6}}}",
            t.threads, t.capture_secs, t.timeline_secs, t.ab_secs
        ));
    }
    let env = eyeorg_bench::env_metadata_json();
    let json = format!(
        "{{\n  \"sites\": {SITES},\n  \"repeats\": {REPEATS},\n  \"participants\": {PARTICIPANTS},\n  {env},\n  \"corpus_secs\": {corpus_secs:.6},\n  \"timings\": [\n{rows}\n  ],\n  \"speedup_at_4_threads\": {{\"capture\": {capture_speedup:.3}, \"timeline\": {timeline_speedup:.3}, \"ab\": {ab_speedup:.3}, \"campaign\": {campaign_speedup:.3}}},\n  \"capture_cache\": {{\"cold_secs\": {cold_secs:.6}, \"warm_secs\": {warm_secs:.6}, \"speedup\": {cache_speedup:.3}}},\n  \"counters_identical_across_thread_counts\": {counters_identical},\n  \"identical_across_thread_counts\": {identical}\n}}\n"
    );
    eyeorg_bench::write_result("BENCH_pipeline.json", &json);
    println!(
        "speedup at 4 threads ({cpus} cpu(s) available): capture {capture_speedup:.2}x, timeline {timeline_speedup:.2}x, ab {ab_speedup:.2}x"
    );
    println!("capture cache: cold {cold_secs:.3}s, warm {warm_secs:.3}s ({cache_speedup:.0}x)");
    println!("wrote results/BENCH_pipeline.json");

    if !identical {
        eprintln!("FAIL: campaigns diverged across thread counts");
        std::process::exit(1);
    }
}
