//! Scale harness for the sharded campaign engine (`core::flat`).
//!
//! Two modes:
//!
//! * `--smoke` — small configuration used by `scripts/verify.sh` and CI:
//!   runs the materializing engine once, then the sharded engine across
//!   several shard sizes and thread knobs, and **exits non-zero** when
//!   any digest or observability-counter fingerprint diverges. With
//!   `--fingerprint-out PATH` it also writes the sharded engine's
//!   digest and counter fingerprints so the caller can `cmp` runs at
//!   different `EYEORG_THREADS`.
//! * full (default) — the headline measurement: a 1,000,000-participant
//!   × 20-stimulus timeline campaign in bounded memory, plus a thread
//!   sweep (1 / 2 / auto via the `ExperimentConfig::threads` knob).
//!   Gates: (a) the digest is byte-identical across shard sizes at full
//!   scale, across every sweep point, and to the materializing engine
//!   at the capped size, (b) retained bytes stay bounded, (c) the
//!   sharded engine keeps its ≥10x advantage over the materializing
//!   engine, and (d) on boxes with more than one hardware thread, the
//!   auto-thread sweep clears [`PARALLEL_EFFICIENCY_FLOOR`] (on a
//!   1-core box the measurement is recorded but the gate is disarmed —
//!   pool = 1 reads ~1.0 by definition). Writes
//!   `results/BENCH_scale.json`.
//!
//! Memory is reported two ways: the digest's own retained-bytes
//! accounting (exact, hardware-independent) and the process peak-RSS
//! proxy from `/proc/self/status` (`VmHWM`, Linux-only, informational).

use std::time::Instant;

use eyeorg_bench::campaigns::{alexa_stimuli, flat_run};
use eyeorg_core::prelude::*;
use eyeorg_crowd::CrowdFlower;
use eyeorg_stats::Seed;

const FULL_PARTICIPANTS: usize = 1_000_000;
const FULL_SITES: usize = 20;
const BOUND_PROBE_PARTICIPANTS: usize = 100_000;
const MATERIALIZING_CAP: usize = 20_000;
/// Crowd size of the thread sweep (big enough to dominate fixed costs,
/// small enough that the 1-thread run stays cheap).
const SWEEP_PARTICIPANTS: usize = 200_000;
/// Shard size of the headline runs. The fast-path arena (DESIGN.md
/// §3k) keeps per-cell sessions, leaf seeds and expanded RNG blocks
/// resident for a whole shard, so the sweet spot moved down from the
/// pre-fast-path 8192: 512 rows × 6 cells keeps the arena inside
/// cache and measures ~20% faster on the reference box. Digest
/// identity across shard sizes is gated below (and in the smoke
/// matrix), so the knob is pure tuning.
const FULL_SHARD: usize = 512;
/// Contrast shard for the full-scale identity gate (the pre-fast-path
/// headline size).
const ALT_SHARD: usize = 8192;

const SMOKE_SITES: usize = 4;
const SMOKE_PARTICIPANTS: usize = 400;

/// Parallel-efficiency floor for the auto-thread sweep
/// (auto-thread speedup over 1 thread, divided by the worker pool
/// used). Gated only when the box actually has more than one hardware
/// thread: on a 1-core box the sweep degenerates to pool = 1 and the
/// ratio reads ~1.0 *by definition*, so gating (or advertising) it
/// there would be vacuous — the residual of ROADMAP item 4.
const PARALLEL_EFFICIENCY_FLOOR: f64 = 0.6;

/// Peak resident set size in bytes (`VmHWM`), or 0 where unavailable.
fn peak_rss_bytes() -> u64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else { return 0 };
    for line in status.lines() {
        if let Some(rest) = line.strip_prefix("VmHWM:") {
            let kb: u64 = rest
                .trim()
                .trim_end_matches("kB")
                .trim()
                .parse()
                .unwrap_or(0);
            return kb * 1024;
        }
    }
    0
}

fn materializing_run(
    stimuli: &[TimelineStimulus],
    n: usize,
    seed: Seed,
) -> (TimelineDigest, f64) {
    eyeorg_obs::reset();
    let cfg = ExperimentConfig::default();
    let t = Instant::now();
    let campaign = run_timeline_campaign(stimuli.to_vec(), &CrowdFlower, n, &cfg, seed);
    let report = filter_timeline(&campaign, &paper_pipeline());
    let digest = digest_timeline(&campaign, &report, n, &DigestParams::default());
    (digest, t.elapsed().as_secs_f64())
}

fn smoke(fp_out: Option<String>) {
    let seed = Seed(2016).derive("perf-scale-smoke");
    let stimuli = alexa_stimuli(SMOKE_SITES, 2, seed);
    let n = SMOKE_PARTICIPANTS;

    let (reference, mat_secs) = materializing_run(&stimuli, n, seed.derive("run"));
    let reference_fp = reference.fingerprint();
    let reference_counters = eyeorg_obs::snapshot("scale-smoke", 0).counter_fingerprint();

    let mut identical = true;
    // Divergence gate: the materializing reference, across shard sizes
    // *and* the in-process thread knob.
    let mut flat_fp = String::new();
    let mut flat_counters = String::new();
    for shard in [64usize, 128, n + 1] {
        for threads in [1usize, 2, 0] {
            let (digest, secs) = flat_run(&stimuli, n, seed.derive("run"), shard, threads);
            let fp = digest.fingerprint();
            let counters = eyeorg_obs::snapshot("scale-smoke", threads).counter_fingerprint();
            if fp != reference_fp {
                identical = false;
                eprintln!(
                    "DIVERGENCE: flat shard={shard} threads={threads} digest differs \
                     from materializing engine"
                );
            }
            if counters != reference_counters {
                identical = false;
                eprintln!(
                    "DIVERGENCE: flat shard={shard} threads={threads} counters differ \
                     from materializing engine"
                );
            }
            println!(
                "smoke flat shard={shard:>4} threads={threads}: {secs:.3}s \
                 (materializing {mat_secs:.3}s)"
            );
            flat_fp = fp;
            flat_counters = counters;
        }
    }

    if let Some(path) = fp_out {
        // Digest + counter fingerprints of the sharded runs; callers
        // compare this file byte-for-byte across EYEORG_THREADS values.
        let contents = format!("{flat_fp}\n{flat_counters}\n");
        eyeorg_bench::write_file(&path, &contents);
        println!("wrote {path}");
    }

    if !identical {
        eprintln!("FAIL: engine diverged from materializing reference");
        std::process::exit(1);
    }
    println!("smoke OK: flat == materializing across shard sizes and threads");
}

fn full() {
    let seed = Seed(2016).derive("perf-scale");
    let stimuli = alexa_stimuli(FULL_SITES, 3, seed);

    // Headline run: a million participants, bounded memory.
    let (full_digest, full_secs) =
        flat_run(&stimuli, FULL_PARTICIPANTS, seed.derive("run"), FULL_SHARD, 0);
    let flat_pps = FULL_PARTICIPANTS as f64 / full_secs;
    let full_retained = full_digest.retained_bytes();
    println!(
        "flat       n={FULL_PARTICIPANTS} shard={FULL_SHARD}: {full_secs:.2}s \
         ({flat_pps:.0} participants/sec, digest {full_retained} bytes)"
    );

    // Shard-size invariance gate at full scale.
    let mut identical = true;
    let (alt_digest, alt_secs) =
        flat_run(&stimuli, FULL_PARTICIPANTS, seed.derive("run"), ALT_SHARD, 0);
    if alt_digest.fingerprint() != full_digest.fingerprint() {
        identical = false;
        eprintln!("DIVERGENCE: shard={ALT_SHARD} digest differs from shard={FULL_SHARD}");
    }
    println!("flat       n={FULL_PARTICIPANTS} shard={ALT_SHARD}: {alt_secs:.2}s");

    // Thread sweep via the in-process knob; every point must reproduce
    // the 1-thread digest byte for byte.
    let mut sweep_fp = None;
    let mut flat_sweep = Vec::new(); // (threads, secs, pps)
    for threads in [1usize, 2, 0] {
        let (d, secs) =
            flat_run(&stimuli, SWEEP_PARTICIPANTS, seed.derive("sweep"), FULL_SHARD, threads);
        let fp = d.fingerprint();
        if *sweep_fp.get_or_insert_with(|| fp.clone()) != fp {
            identical = false;
            eprintln!("DIVERGENCE: flat threads={threads} digest differs at n={SWEEP_PARTICIPANTS}");
        }
        let pps = SWEEP_PARTICIPANTS as f64 / secs;
        println!("flat       n={SWEEP_PARTICIPANTS} threads={threads}: {secs:.2}s ({pps:.0} participants/sec)");
        flat_sweep.push((threads, secs, pps));
    }
    let flat_1t_pps = flat_sweep[0].2;
    let flat_2t_pps = flat_sweep[1].2;
    let flat_auto_pps = flat_sweep[2].2;
    let auto_threads = eyeorg_stats::effective_pool(eyeorg_stats::resolve_threads(0));
    // Parallel efficiency: auto-thread speedup over 1 thread, divided by
    // the pool actually used (1.0 = perfect scaling). Only a real
    // measurement when the hardware offers >1 thread; a 1-core box
    // degrades the sweep to pool=1 and the ratio reads ~1.0 by
    // definition, so the floor below is disarmed there.
    let parallel_efficiency = (flat_auto_pps / flat_1t_pps) / auto_threads.max(1) as f64;
    // lint:allow(D8): hw_parallelism only arms the efficiency gate and annotates JSON metadata, never digest bytes
    let hw_parallelism = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    let par_eff_gated = hw_parallelism > 1;
    println!(
        "parallel efficiency at {auto_threads} threads: {parallel_efficiency:.2}{}",
        if par_eff_gated { "" } else { " (ungated: 1 hardware thread)" }
    );

    // Boundedness gate: once every sketch has spilled, the digest's
    // retained bytes are a constant — the same at 100k and 1M.
    let (probe_digest, _) =
        flat_run(&stimuli, BOUND_PROBE_PARTICIPANTS, seed.derive("run"), FULL_SHARD, 0);
    let probe_retained = probe_digest.retained_bytes();
    let bounded = full_retained <= probe_retained;
    if !bounded {
        eprintln!(
            "FAIL: retained bytes grew with n ({probe_retained} at \
             n={BOUND_PROBE_PARTICIPANTS} vs {full_retained} at n={FULL_PARTICIPANTS})"
        );
    }

    // Throughput comparison: the materializing engine at a capped crowd
    // size (row retention makes the full million impractical — which is
    // the point of the sharded engine).
    let (mat_digest, mat_secs) =
        materializing_run(&stimuli, MATERIALIZING_CAP, seed.derive("run"));
    let materializing_pps = MATERIALIZING_CAP as f64 / mat_secs;
    let speedup = flat_pps / materializing_pps;
    println!(
        "materializing n={MATERIALIZING_CAP}: {mat_secs:.2}s \
         ({materializing_pps:.0} participants/sec) -> flat speedup {speedup:.1}x"
    );
    // Equivalence spot-check at the capped size too.
    let (mat_check, _) =
        flat_run(&stimuli, MATERIALIZING_CAP, seed.derive("run"), FULL_SHARD, 0);
    if mat_check.fingerprint() != mat_digest.fingerprint() {
        identical = false;
        eprintln!("DIVERGENCE: flat digest differs from materializing at n={MATERIALIZING_CAP}");
    }

    let peak_rss = peak_rss_bytes();
    let speedup_ok = speedup >= 10.0;
    if !speedup_ok {
        eprintln!("FAIL: flat speedup {speedup:.1}x over materializing is below the 10x gate");
    }
    let par_eff_ok = !par_eff_gated || parallel_efficiency >= PARALLEL_EFFICIENCY_FLOOR;
    if !par_eff_ok {
        eprintln!(
            "FAIL: parallel efficiency {parallel_efficiency:.2} at {auto_threads} threads \
             is below the {PARALLEL_EFFICIENCY_FLOOR} floor ({hw_parallelism} hardware \
             threads available)"
        );
    }

    let env = eyeorg_bench::env_metadata_json();
    let json = format!(
        "{{\n  \"participants\": {FULL_PARTICIPANTS},\n  \"stimuli\": {FULL_SITES},\n  \
         \"shard_size\": {FULL_SHARD},\n  \"alt_shard_size\": {ALT_SHARD},\n  \
         {env},\n  \
         \"flat_secs\": {full_secs:.6},\n  \
         \"flat_participants_per_sec\": {flat_pps:.1},\n  \
         \"alt_shard_secs\": {alt_secs:.6},\n  \
         \"sweep_participants\": {SWEEP_PARTICIPANTS},\n  \
         \"flat_1thread_participants_per_sec\": {flat_1t_pps:.1},\n  \
         \"flat_2thread_participants_per_sec\": {flat_2t_pps:.1},\n  \
         \"flat_auto_participants_per_sec\": {flat_auto_pps:.1},\n  \
         \"parallel_efficiency\": {parallel_efficiency:.3},\n  \
         \"parallel_efficiency_floor\": {PARALLEL_EFFICIENCY_FLOOR},\n  \
         \"hw_parallelism\": {hw_parallelism},\n  \
         \"parallel_efficiency_gated\": {par_eff_gated},\n  \
         \"parallel_efficiency_ok\": {par_eff_ok},\n  \
         \"materializing_participants\": {MATERIALIZING_CAP},\n  \
         \"materializing_secs\": {mat_secs:.6},\n  \
         \"materializing_participants_per_sec\": {materializing_pps:.1},\n  \
         \"speedup\": {speedup:.2},\n  \
         \"digest_retained_bytes\": {full_retained},\n  \
         \"digest_retained_bytes_at_{BOUND_PROBE_PARTICIPANTS}\": {probe_retained},\n  \
         \"retained_bytes_bounded\": {bounded},\n  \
         \"peak_rss_bytes\": {peak_rss},\n  \
         \"speedup_gate_10x\": {speedup_ok},\n  \
         \"identical_across_shards_threads_and_materializing\": {identical}\n}}\n"
    );
    eyeorg_bench::write_result("BENCH_scale.json", &json);
    println!("wrote results/BENCH_scale.json");

    if !identical || !bounded || !speedup_ok || !par_eff_ok {
        eprintln!("FAIL: scale gates not met");
        std::process::exit(1);
    }
}

fn main() {
    eyeorg_obs::enable();
    let mut smoke_mode = false;
    let mut fp_out = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--smoke" => smoke_mode = true,
            "--fingerprint-out" => {
                fp_out = Some(args.next().expect("--fingerprint-out needs a path"));
            }
            other => {
                eprintln!("unknown argument: {other}");
                std::process::exit(2);
            }
        }
    }
    if smoke_mode {
        smoke(fp_out);
    } else {
        full();
    }
}
