//! Checkpoint serialization properties (DESIGN.md §3i).
//!
//! * `load(save(state))` is **bit-identical** for every accumulator —
//!   `Moments` (incl. rejected counts and the empty accumulator's
//!   `±inf` min/max sentinels), `QuantileSketch` in both the exact and
//!   spilled regimes, `Histogram`, the tallies, and the full
//!   per-stimulus digest set — checked through the digest fingerprint
//!   (canonical `Debug`) after a worker-checkpoint round trip.
//! * Interrupt → save → load → resume composes to the uninterrupted
//!   run's digest fingerprint, adaptive and plain.
//! * Split ranges merged through checkpoints equal the single run.
//! * A/B checkpoints (interrupted at every barrier, or split across
//!   workers) equal `flat_ab_campaign` in digest *and* counter
//!   fingerprint.
//! * Truncated or corrupted bytes come back as typed
//!   [`CheckpointError`]s — never a panic (D4 discipline end to end),
//!   and so do forged counters that overflow when merged or resumed.
//! * The v1 bytes themselves are pinned by hash.
//!
//! The obs registry is process-global, so every test here holds
//! [`obs_lock`]: the one test that enables the registry and compares
//! counter fingerprints never shares it with a concurrent campaign.

use std::sync::{Mutex, MutexGuard, OnceLock};

use eyeorg_browser::BrowserConfig;
use eyeorg_core::digest::MergeError;
use eyeorg_core::prelude::*;
use eyeorg_crowd::CrowdFlower;
use eyeorg_stats::Seed;
use eyeorg_video::CaptureConfig;
use eyeorg_workload::alexa_like;

const N: usize = 300;

/// Serializes this binary's tests around the global obs registry.
fn obs_lock() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

fn counters() -> String {
    eyeorg_obs::snapshot("checkpoint-roundtrip", 0).counter_fingerprint()
}

fn capture() -> CaptureConfig {
    CaptureConfig { repeats: 2, ..CaptureConfig::default() }
}

fn tl_stimuli() -> &'static Vec<TimelineStimulus> {
    static STIMULI: OnceLock<Vec<TimelineStimulus>> = OnceLock::new();
    STIMULI.get_or_init(|| {
        let sites = alexa_like(Seed(1431), 3);
        timeline_stimuli(&sites, &BrowserConfig::new(), &capture(), Seed(1432))
    })
}

fn ab_stimuli() -> &'static Vec<AbStimulus> {
    static STIMULI: OnceLock<Vec<AbStimulus>> = OnceLock::new();
    STIMULI.get_or_init(|| {
        let sites = alexa_like(Seed(1433), 3);
        protocol_ab_stimuli(&sites, &BrowserConfig::new(), &capture(), Seed(1434))
    })
}

fn cfg() -> ExperimentConfig {
    ExperimentConfig { threads: 2, ..ExperimentConfig::default() }
}

fn sc(shard: usize, exact_cap: usize) -> StreamConfig {
    StreamConfig {
        shard_size: shard,
        params: DigestParams { exact_cap, ..DigestParams::default() },
    }
}

fn inactive() -> AdaptiveConfig {
    AdaptiveConfig { epoch: 64, epsilon: 0.0, min_n: 8, max_n: 0 }
}

/// One worker checkpoint over `[lo, hi)` for the shared campaign.
fn tl_worker(lo: usize, hi: usize, shard: usize, exact_cap: usize) -> TimelineCheckpoint {
    timeline_worker_checkpoint(
        tl_stimuli(),
        &CrowdFlower,
        lo,
        hi,
        &cfg(),
        &paper_pipeline(),
        Seed(1440),
        &sc(shard, exact_cap),
    )
    .expect("worker checkpoint")
}

fn reference_fp(exact_cap: usize) -> String {
    flat_timeline_campaign(
        tl_stimuli(),
        &CrowdFlower,
        N,
        &cfg(),
        &paper_pipeline(),
        Seed(1440),
        &sc(64, exact_cap),
    )
    .fingerprint()
}

// -------------------------------------------------------------------
// Round trips
// -------------------------------------------------------------------

/// Save→load→finalize of a full-range worker checkpoint reproduces the
/// plain sharded run's digest fingerprint bit for bit, in both
/// sketch regimes. With `exact_cap = 2048` every sketch stays exact
/// (full sorted sample as bit-patterns); with `exact_cap = 4` every
/// sketch has spilled to bins — both must round-trip exactly. This
/// exercises every accumulator the digest carries: `Moments` with its
/// i128 fixed-point sums, min/max bit patterns, and rejected counts;
/// `QuantileSketch` in both regimes; `Histogram`; the filter, control,
/// and behaviour states.
#[test]
fn save_load_round_trip_is_bit_exact_in_both_sketch_regimes() {
    let _obs = obs_lock();
    for exact_cap in [2048, 4] {
        let ck = tl_worker(0, N, 64, exact_cap);
        let reloaded = TimelineCheckpoint::load(&ck.save()).expect("round trip loads");
        assert_eq!(ck.save(), reloaded.save(), "serialized form is a fixed point");
        let fp = reloaded
            .finalize(tl_stimuli(), &CrowdFlower)
            .expect("finalize round-tripped checkpoint")
            .fingerprint();
        assert_eq!(fp, reference_fp(exact_cap), "exact_cap={exact_cap}");
    }
}

/// Empty-range checkpoints round-trip too: every `Moments` carries its
/// `+inf`/`-inf` empty min/max sentinels through the bit-level
/// encoding, and the digest equals a zero-participant run.
#[test]
fn empty_checkpoint_round_trips_inf_sentinels() {
    let _obs = obs_lock();
    let ck = tl_worker(0, 0, 64, 2048);
    let reloaded = TimelineCheckpoint::load(&ck.save()).expect("empty checkpoint loads");
    assert_eq!(ck.save(), reloaded.save());
    let digest =
        reloaded.finalize(tl_stimuli(), &CrowdFlower).expect("finalize empty checkpoint");
    let direct = flat_timeline_campaign(
        tl_stimuli(),
        &CrowdFlower,
        0,
        &cfg(),
        &paper_pipeline(),
        Seed(1440),
        &sc(64, 2048),
    );
    assert_eq!(digest.fingerprint(), direct.fingerprint());
}

/// A/B worker checkpoints round-trip and finalize to the sharded A/B
/// digest.
#[test]
fn ab_save_load_round_trip_is_bit_exact() {
    let _obs = obs_lock();
    let ck = ab_worker_checkpoint(
        ab_stimuli(),
        &CrowdFlower,
        0,
        N,
        &cfg(),
        &paper_pipeline(),
        Seed(1441),
        &sc(64, 2048),
    )
    .expect("ab worker checkpoint");
    let reloaded = AbCheckpoint::load(&ck.save()).expect("ab round trip loads");
    assert_eq!(ck.save(), reloaded.save());
    let fp = reloaded
        .finalize(ab_stimuli(), &CrowdFlower)
        .expect("finalize ab checkpoint")
        .fingerprint();
    let direct = flat_ab_campaign(
        ab_stimuli(),
        &CrowdFlower,
        N,
        &cfg(),
        &paper_pipeline(),
        Seed(1441),
        &sc(64, 2048),
    );
    assert_eq!(fp, direct.fingerprint());
}

// -------------------------------------------------------------------
// Split / merge
// -------------------------------------------------------------------

/// Three worker checkpoints over adjacent ranges — written and reloaded
/// through the serialized form, with *different* shard sizes per worker
/// — merge into the single-process run's digest fingerprint.
#[test]
fn split_ranges_merge_to_single_run_fingerprint() {
    let _obs = obs_lock();
    let mut left = TimelineCheckpoint::load(&tl_worker(0, 100, 32, 2048).save()).expect("w0");
    let mid = TimelineCheckpoint::load(&tl_worker(100, 220, 64, 2048).save()).expect("w1");
    let right = TimelineCheckpoint::load(&tl_worker(220, N, 16, 2048).save()).expect("w2");
    left.merge(&mid).expect("adjacent ranges merge");
    left.merge(&right).expect("adjacent ranges merge");
    assert_eq!(left.range(), (0, N as u64));
    let fp = left
        .finalize(tl_stimuli(), &CrowdFlower)
        .expect("finalize merged checkpoint")
        .fingerprint();
    assert_eq!(fp, reference_fp(2048));
}

/// Merge refuses non-adjacent ranges, admitted-index discontinuities,
/// and params mismatches — with typed errors, leaving the receiver
/// unchanged.
#[test]
fn merge_rejects_gaps_and_mismatches() {
    let _obs = obs_lock();
    let w0 = tl_worker(0, 100, 64, 2048);
    let w2 = tl_worker(150, 200, 64, 2048);
    let mut acc = TimelineCheckpoint::load(&w0.save()).expect("w0");
    let before = acc.save();
    match acc.merge(&w2) {
        Err(CheckpointError::RangeGap { left_hi: 100, right_lo: 150 }) => {}
        other => panic!("expected RangeGap, got {other:?}"),
    }
    assert_eq!(acc.save(), before, "failed merge left the receiver unchanged");

    // Adjacent range whose admitted base disagrees (forged header).
    let w1 = tl_worker(100, 150, 64, 2048);
    let mut doctored = w1.save();
    let base = w1.admitted_before();
    doctored = doctored.replacen(
        &format!("\"admitted_before\":{base}"),
        &format!("\"admitted_before\":{}", base + 1),
        1,
    );
    let forged = TimelineCheckpoint::load(&doctored).expect("forged file still parses");
    match acc.merge(&forged) {
        Err(CheckpointError::AdmittedGap { .. }) => {}
        other => panic!("expected AdmittedGap, got {other:?}"),
    }

    // Same range, different digest params.
    let coarse = tl_worker(100, 150, 64, 4);
    match acc.merge(&coarse) {
        Err(CheckpointError::ParamsMismatch { .. }) => {}
        other => panic!("expected ParamsMismatch, got {other:?}"),
    }
}

// -------------------------------------------------------------------
// Interrupt / resume
// -------------------------------------------------------------------

fn run_checkpointed(
    ac: &AdaptiveConfig,
    resume: Option<&TimelineCheckpoint>,
    stop_after: Option<usize>,
) -> RunOutcome {
    let mut seen = 0usize;
    checkpointed_timeline_campaign(
        tl_stimuli(),
        &CrowdFlower,
        N,
        &cfg(),
        &paper_pipeline(),
        Seed(1440),
        &sc(32, 2048),
        ac,
        AdaptiveBackend::Flat,
        resume,
        &CheckpointConfig { every_shards: 2 },
        &mut |ev| match ev {
            CheckpointEvent::Checkpoint(_) => {
                seen += 1;
                stop_after.is_none_or(|k| seen < k)
            }
            CheckpointEvent::Live(_) => true,
        },
    )
    .expect("checkpointed run")
}

/// Interrupt at the first barrier, serialize, reload, resume: the
/// composition's digest fingerprint equals the uninterrupted run, for
/// plain + adaptive configs.
#[test]
fn interrupt_resume_composes_to_uninterrupted_fingerprint() {
    let _obs = obs_lock();
    let active = AdaptiveConfig { epoch: 64, epsilon: 0.25, min_n: 16, max_n: 0 };
    for ac in [inactive(), active] {
        let RunOutcome::Complete(full) = run_checkpointed(&ac, None, None) else {
            panic!("uninterrupted run must complete");
        };
        let RunOutcome::Interrupted(ck) = run_checkpointed(&ac, None, Some(1)) else {
            panic!("observer interrupts at the first barrier");
        };
        assert!(ck.is_resumable());
        let reloaded = TimelineCheckpoint::load(&ck.save()).expect("driver checkpoint loads");
        let RunOutcome::Complete(resumed) = run_checkpointed(&ac, Some(&reloaded), None) else {
            panic!("resumed run must complete");
        };
        assert_eq!(
            resumed.digest.fingerprint(),
            full.digest.fingerprint(),
            "epsilon {}",
            ac.epsilon
        );
        assert_eq!(resumed.decision_fingerprint(), full.decision_fingerprint());
    }
}

/// Live-mode lines: one per barrier plus a final line, all valid JSON,
/// monotone in `processed`, and the final line equals the digest's own
/// read-outs via [`live_line_from_digest`].
#[test]
fn live_lines_progress_and_final_matches_digest() {
    let _obs = obs_lock();
    let mut lines: Vec<String> = Vec::new();
    let outcome = checkpointed_timeline_campaign(
        tl_stimuli(),
        &CrowdFlower,
        N,
        &cfg(),
        &paper_pipeline(),
        Seed(1440),
        &sc(32, 2048),
        &inactive(),
        AdaptiveBackend::Flat,
        None,
        &CheckpointConfig { every_shards: 2 },
        &mut |ev| {
            if let CheckpointEvent::Live(l) = ev {
                lines.push(l.to_string());
            }
            true
        },
    )
    .expect("checkpointed run");
    let RunOutcome::Complete(outcome) = outcome else { panic!("run completes") };
    // 300 participants, shard 32, every_shards 2 → barriers at 64, 128,
    // 192, 256, 300, plus the final line.
    assert_eq!(lines.len(), 6);
    let processed: Vec<u64> = lines
        .iter()
        .map(|l| {
            let v: serde::Value = serde_json::from_str(l).expect("live line is valid JSON");
            v.field("processed").as_u64().expect("processed field")
        })
        .collect();
    assert_eq!(processed, vec![64, 128, 192, 256, 300, 300]);
    assert_eq!(
        lines.last().expect("non-empty"),
        &live_line_from_digest(&outcome.digest, N as u64, true)
    );
}

/// The A/B driver interrupt/resume composition equals the plain
/// uninterrupted A/B run.
#[test]
fn ab_interrupt_resume_composes() {
    let _obs = obs_lock();
    let run = |resume: Option<&AbCheckpoint>, stop_after: Option<usize>| {
        let mut seen = 0usize;
        checkpointed_ab_campaign(
            ab_stimuli(),
            &CrowdFlower,
            N,
            &cfg(),
            &paper_pipeline(),
            Seed(1441),
            &sc(32, 2048),
            resume,
            &CheckpointConfig { every_shards: 2 },
            &mut |_| {
                seen += 1;
                stop_after.is_none_or(|k| seen < k)
            },
        )
        .expect("checkpointed ab run")
    };
    let AbRunOutcome::Complete(full) = run(None, None) else { panic!("completes") };
    let AbRunOutcome::Interrupted(ck) = run(None, Some(1)) else { panic!("interrupts") };
    let reloaded = AbCheckpoint::load(&ck.save()).expect("ab checkpoint loads");
    let AbRunOutcome::Complete(resumed) = run(Some(&reloaded), None) else {
        panic!("resumed run completes")
    };
    assert_eq!(resumed.fingerprint(), full.fingerprint());
}

/// A/B checkpointing rides the flat fold: `checkpointed_ab_campaign`
/// interrupted at *every* barrier (each leg reloaded from its bytes
/// into a reset registry, as a fresh process would) and
/// `ab_worker_checkpoint` ranges split across workers and merged both
/// land on `flat_ab_campaign`'s digest and counter fingerprints, at
/// every shard size and thread count.
#[test]
fn ab_checkpoints_match_flat_campaign_digest_and_counters() {
    let _obs = obs_lock();
    // Capture the stimuli before enabling obs: a first capture inside
    // the enabled window would count its page loads into the reference
    // counters only.
    ab_stimuli();
    eyeorg_obs::enable();
    for shard in [1usize, 16, 64] {
        for threads in [1usize, 2] {
            let cfg = ExperimentConfig { threads, ..ExperimentConfig::default() };
            let sc = sc(shard, 2048);
            let ctx = format!("shard={shard} threads={threads}");
            eyeorg_obs::reset();
            let reference = flat_ab_campaign(
                ab_stimuli(),
                &CrowdFlower,
                N,
                &cfg,
                &paper_pipeline(),
                Seed(1441),
                &sc,
            )
            .fingerprint();
            let reference_counters = counters();

            // Interrupt at every barrier; the last leg resumes from a
            // checkpoint that already covers every participant.
            eyeorg_obs::reset();
            let mut resume: Option<AbCheckpoint> = None;
            let mut legs = 0usize;
            let resumed = loop {
                let out = checkpointed_ab_campaign(
                    ab_stimuli(),
                    &CrowdFlower,
                    N,
                    &cfg,
                    &paper_pipeline(),
                    Seed(1441),
                    &sc,
                    resume.as_ref(),
                    &CheckpointConfig { every_shards: 2 },
                    &mut |_| false,
                )
                .expect("checkpointed ab leg");
                match out {
                    AbRunOutcome::Complete(digest) => break digest,
                    AbRunOutcome::Interrupted(ck) => {
                        legs += 1;
                        let bytes = ck.save();
                        eyeorg_obs::reset();
                        resume = Some(AbCheckpoint::load(&bytes).expect("ab checkpoint loads"));
                    }
                }
            };
            assert_eq!(legs, N.div_ceil(2 * shard), "{ctx}");
            assert_eq!(resumed.fingerprint(), reference, "resume {ctx}");
            assert_eq!(counters(), reference_counters, "resume counters {ctx}");

            // Split across three workers, each in a fresh registry.
            let mut parts = [(0usize, 100usize), (100, 220), (220, N)].map(|(lo, hi)| {
                eyeorg_obs::reset();
                let ck = ab_worker_checkpoint(
                    ab_stimuli(),
                    &CrowdFlower,
                    lo,
                    hi,
                    &cfg,
                    &paper_pipeline(),
                    Seed(1441),
                    &sc,
                )
                .expect("ab worker checkpoint");
                AbCheckpoint::load(&ck.save()).expect("ab worker checkpoint loads")
            });
            let [merged, rest @ ..] = &mut parts;
            for part in rest.iter() {
                merged.merge(part).expect("adjacent ab ranges merge");
            }
            let digest =
                merged.finalize(ab_stimuli(), &CrowdFlower).expect("finalize merged ab checkpoint");
            eyeorg_obs::reset();
            merged.restore_counters();
            assert_eq!(digest.fingerprint(), reference, "split {ctx}");
            assert_eq!(counters(), reference_counters, "split counters {ctx}");
        }
    }
    eyeorg_obs::reset();
    eyeorg_obs::disable();
}

// -------------------------------------------------------------------
// Hostile bytes
// -------------------------------------------------------------------

/// Every truncation of a valid file — at line granularity and at byte
/// granularity — and a battery of corruptions load as typed errors,
/// never a panic.
#[test]
fn truncated_and_corrupted_bytes_yield_typed_errors() {
    let _obs = obs_lock();
    let good = tl_worker(0, 100, 64, 4).save();

    // Whole-line truncations.
    let lines: Vec<&str> = good.lines().collect();
    for keep in 0..lines.len() {
        let doc = lines[..keep].join("\n");
        let err = TimelineCheckpoint::load(&doc).expect_err("truncated file must not load");
        assert!(
            matches!(err, CheckpointError::Truncated { .. }),
            "kept {keep} lines: {err:?}"
        );
    }

    // Byte truncations (cut mid-line → Parse or Truncated).
    for cut in (1..good.len()).step_by(97) {
        if !good.is_char_boundary(cut) {
            continue;
        }
        assert!(TimelineCheckpoint::load(&good[..cut]).is_err(), "cut at byte {cut}");
    }

    // Corruptions with a specific expected class.
    let cases: Vec<(String, &str)> = vec![
        (good.replacen("eyeorg-checkpoint", "not-a-checkpoint", 1), "bad format tag"),
        (good.replacen("\"version\":1", "\"version\":99", 1), "future version"),
        (good.replacen("\"kind\":\"timeline\"", "\"kind\":\"ab\"", 1), "wrong kind"),
        (good.replacen("\"spilled\":true", "\"spilled\":false", 1), "regime flip"),
        (good.replacen("\"qsum\":\"", "\"qsum\":\"x", 1), "unparseable i128"),
        (format!("{good}{{\"end\":\"eyeorg-checkpoint\"}}\n"), "trailing line"),
        (good.replace("\"counts\"", "\"c0unts\""), "missing field"),
        ("{\"not\":\"json\"".to_string(), "unterminated JSON"),
        ("null\n".to_string(), "non-object header"),
    ];
    for (doc, what) in &cases {
        assert!(TimelineCheckpoint::load(doc).is_err(), "{what} must not load");
    }

    // Flipping a sketch count must fail validation (n bookkeeping).
    if let Some(pos) = good.find("\"spilled\":true") {
        let prefix = &good[..pos];
        if let Some(cpos) = prefix.rfind("\"counts\":[") {
            let mut doc = good.clone();
            doc.insert_str(cpos + "\"counts\":[".len(), "999999,");
            assert!(
                matches!(
                    TimelineCheckpoint::load(&doc),
                    Err(CheckpointError::State { .. } | CheckpointError::Parse { .. })
                ),
                "inflated bin counts must fail the n cross-check"
            );
        }
    }

    // The original still loads after all that slicing.
    assert!(TimelineCheckpoint::load(&good).is_ok());
}

/// Replace the first `"key":<number>` in `doc` with `"key":<value>`.
fn forge(doc: &str, key: &str, value: u64) -> String {
    let tag = format!("\"{key}\":");
    let at = doc.find(&tag).expect("key present") + tag.len();
    let digits = doc[at..].bytes().take_while(u8::is_ascii_digit).count();
    format!("{}{value}{}", &doc[..at], &doc[at + digits..])
}

/// A worker checkpoint whose filter tally is forged to `u64::MAX` still
/// loads (every field is individually valid), but merging it with a
/// real neighbour overflows the tally: the merge returns a typed
/// overflow error and leaves the receiver unchanged, in debug and
/// release builds alike.
#[test]
fn forged_tally_overflow_is_a_typed_merge_error() {
    let _obs = obs_lock();
    let forged = forge(&tl_worker(0, 100, 64, 2048).save(), "kept", u64::MAX);
    let mut left = TimelineCheckpoint::load(&forged).expect("forged tally still loads");
    let before = left.save();
    let right = tl_worker(100, 150, 64, 2048);
    match left.merge(&right) {
        Err(CheckpointError::Merge(MergeError::Overflow { counter: "filters.kept" })) => {}
        other => panic!("expected a kept-tally overflow, got {other:?}"),
    }
    assert_eq!(left.save(), before, "failed merge left the receiver unchanged");
}

/// Resuming from a driver checkpoint whose filter tally is forged to
/// `u64::MAX` fails with a typed overflow error at the first merge of
/// a fresh epoch into it — never a panic or a silent wrap.
#[test]
fn forged_tally_overflow_is_a_typed_resume_error() {
    let _obs = obs_lock();
    let RunOutcome::Interrupted(driver) = run_checkpointed(&inactive(), None, Some(1)) else {
        panic!("interrupts")
    };
    let forged = forge(&driver.save(), "kept", u64::MAX);
    let resume = TimelineCheckpoint::load(&forged).expect("forged tally still loads");
    let err = checkpointed_timeline_campaign(
        tl_stimuli(),
        &CrowdFlower,
        N,
        &cfg(),
        &paper_pipeline(),
        Seed(1440),
        &sc(32, 2048),
        &inactive(),
        AdaptiveBackend::Flat,
        Some(&resume),
        &CheckpointConfig { every_shards: 2 },
        &mut |_| true,
    )
    .expect_err("an overflowing tally must not resume");
    assert!(
        matches!(err, CheckpointError::Merge(MergeError::Overflow { counter: "filters.kept" })),
        "{err:?}"
    );
}

/// A worker checkpoint cannot seed a resume, and a resume under
/// different digest params is refused.
#[test]
fn resume_rejects_worker_checkpoints_and_params_drift() {
    let _obs = obs_lock();
    let worker = tl_worker(0, 100, 64, 2048);
    assert!(!worker.is_resumable());
    let err = checkpointed_timeline_campaign(
        tl_stimuli(),
        &CrowdFlower,
        N,
        &cfg(),
        &paper_pipeline(),
        Seed(1440),
        &sc(32, 2048),
        &inactive(),
        AdaptiveBackend::Flat,
        Some(&worker),
        &CheckpointConfig::default(),
        &mut |_| true,
    )
    .expect_err("worker checkpoint must not resume");
    assert!(matches!(err, CheckpointError::Config { .. }), "{err:?}");

    let RunOutcome::Interrupted(driver) = run_checkpointed(&inactive(), None, Some(1)) else {
        panic!("interrupts")
    };
    let err = checkpointed_timeline_campaign(
        tl_stimuli(),
        &CrowdFlower,
        N,
        &cfg(),
        &paper_pipeline(),
        Seed(1440),
        &sc(32, 4), // different exact_cap than the checkpoint's params
        &inactive(),
        AdaptiveBackend::Flat,
        Some(&driver),
        &CheckpointConfig::default(),
        &mut |_| true,
    )
    .expect_err("params drift must be refused");
    assert!(matches!(err, CheckpointError::ParamsMismatch { .. }), "{err:?}");
}

// -------------------------------------------------------------------
// Format v1 byte pins
// -------------------------------------------------------------------

/// FNV-1a (64-bit) of a checkpoint document, as 16 hex digits.
fn fnv_hex(text: &str) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in text.as_bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    format!("{h:016x}")
}

/// The exact bytes `save()` writes for a small fixed campaign, pinned
/// by hash: format v1 must stay byte-identical for every accumulator
/// and both kinds. The pins cover an exact-regime timeline worker over
/// the whole crowd, a spilled-regime worker over an inner range (non-
/// zero `admitted_before`), an empty worker (the `±inf` sentinels), an
/// adaptive driver checkpoint carrying stop decisions, and an A/B
/// worker. Obs is off and freshly reset, so the counters line is the
/// all-zero registry.
#[test]
fn v1_bytes_are_pinned() {
    let _obs = obs_lock();
    eyeorg_obs::disable();
    eyeorg_obs::reset();
    let ab = ab_worker_checkpoint(
        ab_stimuli(),
        &CrowdFlower,
        100,
        220,
        &cfg(),
        &paper_pipeline(),
        Seed(1441),
        &sc(64, 2048),
    )
    .expect("ab worker checkpoint");
    let adaptive = AdaptiveConfig { epoch: 64, epsilon: 0.25, min_n: 16, max_n: 40 };
    let RunOutcome::Interrupted(driver) = run_checkpointed(&adaptive, None, Some(1)) else {
        panic!("observer interrupts at the first barrier");
    };
    let driver = driver.save();
    assert!(driver.contains("\"decisions\":[{"), "the driver pin must carry decisions");
    let docs = [
        ("timeline worker, exact", tl_worker(0, N, 64, 2048).save()),
        ("timeline worker, spilled", tl_worker(100, 220, 32, 4).save()),
        ("timeline worker, empty", tl_worker(0, 0, 64, 2048).save()),
        ("adaptive driver", driver),
        ("ab worker", ab.save()),
    ];
    let got: Vec<(&str, String)> = docs.iter().map(|(what, doc)| (*what, fnv_hex(doc))).collect();
    let pinned = [
        ("timeline worker, exact", "0470f34422b11527"),
        ("timeline worker, spilled", "e40689a82ab6a774"),
        ("timeline worker, empty", "87035abcd2bc81b9"),
        ("adaptive driver", "844d552ab4b74628"),
        ("ab worker", "db45b62a626b17b9"),
    ];
    let pinned: Vec<(&str, String)> =
        pinned.iter().map(|(what, h)| (*what, (*h).to_string())).collect();
    assert_eq!(got, pinned);
}
