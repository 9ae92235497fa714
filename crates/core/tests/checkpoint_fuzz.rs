//! Seeded mutation fuzzing of checkpoint JSONL, both kinds.
//!
//! Valid timeline and A/B checkpoints — worker and driver, the timeline
//! driver carrying stop decisions — are mutated with a fixed-seed
//! generator: bit flips, line splices (from either kind's documents),
//! duplicates and swaps, numeric extremes (0, `u64::MAX` and one past
//! it, `i64::MIN`, `i128::MIN`/`MAX` as strings and bare, NaN/±inf bit
//! patterns), and header/param skew. Every mutant goes through `load`
//! (as both kinds), and every mutant that loads through `merge` with a
//! real neighbour on either side, `finalize`, and a resumed run. Each
//! step must return `Ok` or a typed [`CheckpointError`] — a panic fails
//! the test with the mutant that caused it. The iteration count is
//! bounded so the test stays fast in a debug build.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::OnceLock;

use eyeorg_browser::BrowserConfig;
use eyeorg_core::prelude::*;
use eyeorg_crowd::CrowdFlower;
use eyeorg_stats::rng::Rng;
use eyeorg_stats::Seed;
use eyeorg_video::CaptureConfig;
use eyeorg_workload::alexa_like;

const N: usize = 96;
const MUTANTS_PER_DOC: usize = 256;
const SEED: u64 = 0x5eed_c4ec_4b01;

/// Replacement values for a numeric token.
const EXTREMES: &[&str] = &[
    "0",
    "1",
    "4294967295",
    "4294967296",
    "18446744073709551615",
    "18446744073709551616",
    "-1",
    "-9223372036854775808",
    "-170141183460469231731687303715884105728",
    "170141183460469231731687303715884105727",
    "\"-170141183460469231731687303715884105728\"",
    "\"170141183460469231731687303715884105727\"",
    "9221120237041090560",  // NaN bits
    "9218868437227405312",  // +inf bits
    "18442240474082181120", // -inf bits
    "1e308",
];

/// Header keys whose values the skew mutation perturbs.
const HEADER_KEYS: &[&str] = &[
    "version",
    "hist_bins",
    "sketch_bins",
    "exact_cap",
    "range_lo",
    "range_hi",
    "admitted_before",
    "stimuli",
    "lines",
];

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
    ExperimentConfig { threads: 1, ..ExperimentConfig::default() }
}

/// Exact cap 4: every sketch spills, so bin counts are in play.
fn sc() -> StreamConfig {
    let params = DigestParams { exact_cap: 4, ..DigestParams::default() };
    StreamConfig { shard_size: 16, params }
}

fn ck() -> CheckpointConfig {
    CheckpointConfig { every_shards: 2 }
}

fn adaptive() -> AdaptiveConfig {
    AdaptiveConfig { epoch: 32, epsilon: 0.25, min_n: 8, max_n: 12 }
}

/// A timeline run over `N` participants, resumed from `resume` when
/// given; `stop_after` interrupts at that barrier.
fn run_tl(
    resume: Option<&TimelineCheckpoint>,
    stop_after: Option<usize>,
) -> Result<RunOutcome, CheckpointError> {
    let mut seen = 0usize;
    checkpointed_timeline_campaign(
        tl_stimuli(),
        &CrowdFlower,
        N,
        &cfg(),
        &paper_pipeline(),
        Seed(1440),
        &sc(),
        &adaptive(),
        AdaptiveBackend::Flat,
        resume,
        &ck(),
        &mut |ev| match ev {
            CheckpointEvent::Checkpoint(_) => {
                seen += 1;
                stop_after.is_none_or(|k| seen < k)
            }
            CheckpointEvent::Live(_) => true,
        },
    )
}

/// An A/B run over `N` participants; see [`run_tl`].
fn run_ab(
    resume: Option<&AbCheckpoint>,
    stop_after: Option<usize>,
) -> Result<AbRunOutcome, CheckpointError> {
    let mut seen = 0usize;
    checkpointed_ab_campaign(
        ab_stimuli(),
        &CrowdFlower,
        N,
        &cfg(),
        &paper_pipeline(),
        Seed(1441),
        &sc(),
        resume,
        &ck(),
        &mut |_| {
            seen += 1;
            stop_after.is_none_or(|k| seen < k)
        },
    )
}

/// The seed documents of both kinds: worker halves `[0, N/2)` and
/// `[N/2, N)`, and a driver checkpoint from the first barrier.
struct Docs {
    tl: [String; 3],
    ab: [String; 3],
}

fn docs() -> Docs {
    let half = N / 2;
    let tl_worker = |lo, hi| {
        timeline_worker_checkpoint(
            tl_stimuli(),
            &CrowdFlower,
            lo,
            hi,
            &cfg(),
            &paper_pipeline(),
            Seed(1440),
            &sc(),
        )
        .expect("timeline worker")
        .save()
    };
    let ab_worker = |lo, hi| {
        ab_worker_checkpoint(
            ab_stimuli(),
            &CrowdFlower,
            lo,
            hi,
            &cfg(),
            &paper_pipeline(),
            Seed(1441),
            &sc(),
        )
        .expect("ab worker")
        .save()
    };
    let Ok(RunOutcome::Interrupted(tl_driver)) = run_tl(None, Some(1)) else {
        panic!("the timeline driver interrupts at its first barrier");
    };
    let Ok(AbRunOutcome::Interrupted(ab_driver)) = run_ab(None, Some(1)) else {
        panic!("the A/B driver interrupts at its first barrier");
    };
    let tl_driver = tl_driver.save();
    assert!(tl_driver.contains("\"decisions\":[{"), "the timeline driver seed carries decisions");
    Docs {
        tl: [tl_worker(0, half), tl_worker(half, N), tl_driver],
        ab: [ab_worker(0, half), ab_worker(half, N), ab_driver.save()],
    }
}

/// Byte spans of the digit runs in `doc` (with a leading `-`).
fn numbers(doc: &str) -> Vec<(usize, usize)> {
    let b = doc.as_bytes();
    let mut spans = Vec::new();
    let mut i = 0;
    while i < b.len() {
        if b[i].is_ascii_digit() {
            let start = if i > 0 && b[i - 1] == b'-' { i - 1 } else { i };
            let mut end = i;
            while end < b.len() && b[end].is_ascii_digit() {
                end += 1;
            }
            spans.push((start, end));
            i = end;
        } else {
            i += 1;
        }
    }
    spans
}

fn pick<'a, T>(rng: &mut Rng, items: &'a [T]) -> &'a T {
    &items[rng.below(items.len() as u64) as usize]
}

/// One mutant of `doc` and a description of the mutation.
fn mutate(rng: &mut Rng, doc: &str, donors: &[&str]) -> (String, String) {
    let mut lines: Vec<String> = doc.lines().map(str::to_string).collect();
    let n = lines.len() as u64;
    let line = |rng: &mut Rng| rng.below(n) as usize;
    let what = match rng.below(6) {
        0 => {
            let mut bytes = doc.as_bytes().to_vec();
            let at = rng.below(bytes.len() as u64) as usize;
            let bit = rng.below(8);
            bytes[at] ^= 1 << bit;
            let text = String::from_utf8_lossy(&bytes).into_owned();
            return (text, format!("bit {bit} of byte {at} flipped"));
        }
        1 => {
            let donor: Vec<&str> = pick(rng, donors).lines().collect();
            let (i, j) = (line(rng), rng.below(donor.len() as u64) as usize);
            lines[i] = donor[j].to_string();
            format!("line {i} replaced by donor line {j}")
        }
        2 => {
            let i = line(rng);
            lines.insert(i, lines[i].clone());
            format!("line {i} duplicated")
        }
        3 => {
            let (i, j) = (line(rng), line(rng));
            lines.swap(i, j);
            format!("lines {i} and {j} swapped")
        }
        4 => {
            // Line first, then a number on it: the short totals,
            // behaviour and counters lines weigh as much as the long
            // sketch lines.
            let i = line(rng);
            let spans = numbers(&lines[i]);
            if spans.is_empty() {
                return (doc.to_string(), "unchanged".to_string());
            }
            let (start, end) = *pick(rng, &spans);
            let value = pick(rng, EXTREMES);
            let old = lines[i][start..end].to_string();
            lines[i].replace_range(start..end, value);
            format!("line {i} number {old} set to {value}")
        }
        _ => {
            let key = pick(rng, HEADER_KEYS);
            let tag = format!("\"{key}\":");
            let header = &lines[0];
            let at = header.find(&tag).map_or(0, |p| p + tag.len());
            let digits = header[at..].bytes().take_while(u8::is_ascii_digit).count();
            let old: u64 = header[at..at + digits].parse().unwrap_or(0);
            let new = *pick(rng, &[old.wrapping_add(1), old.wrapping_sub(1), 0, u64::MAX, old * 2]);
            lines[0] = format!("{}{new}{}", &header[..at], &header[at + digits..]);
            format!("header {key} {old} -> {new}")
        }
    };
    (lines.join("\n") + "\n", what)
}

/// Run `step` on a mutant, turning a panic into a failure report.
fn guarded<T>(failures: &mut Vec<String>, label: &str, step: impl FnOnce() -> T) {
    if catch_unwind(AssertUnwindSafe(step)).is_err() {
        failures.push(label.to_string());
    }
}

/// Drive one timeline mutant through load, merge, finalize and resume.
fn timeline_mutant(text: &str, docs: &Docs, failures: &mut Vec<String>, label: &str) {
    guarded(failures, &format!("{label}: load as A/B"), || AbCheckpoint::load(text).is_ok());
    let mut loaded = None;
    guarded(failures, &format!("{label}: load"), || loaded = TimelineCheckpoint::load(text).ok());
    let Some(ck) = loaded else { return };
    guarded(failures, &format!("{label}: merge as right side"), || {
        let mut left = TimelineCheckpoint::load(&docs.tl[0]).expect("seed loads");
        left.merge(&ck).is_ok()
    });
    guarded(failures, &format!("{label}: merge as left side"), || {
        let mut left = TimelineCheckpoint::load(text).expect("mutant reloads");
        let right = TimelineCheckpoint::load(&docs.tl[1]).expect("seed loads");
        left.merge(&right).is_ok()
    });
    guarded(failures, &format!("{label}: finalize"), || {
        ck.finalize(tl_stimuli(), &CrowdFlower).is_ok()
    });
    guarded(failures, &format!("{label}: resume"), || run_tl(Some(&ck), None).is_ok());
}

/// Drive one A/B mutant through load, merge, finalize and resume.
fn ab_mutant(text: &str, docs: &Docs, failures: &mut Vec<String>, label: &str) {
    guarded(failures, &format!("{label}: load as timeline"), || {
        TimelineCheckpoint::load(text).is_ok()
    });
    let mut loaded = None;
    guarded(failures, &format!("{label}: load"), || loaded = AbCheckpoint::load(text).ok());
    let Some(ck) = loaded else { return };
    guarded(failures, &format!("{label}: merge as right side"), || {
        let mut left = AbCheckpoint::load(&docs.ab[0]).expect("seed loads");
        left.merge(&ck).is_ok()
    });
    guarded(failures, &format!("{label}: merge as left side"), || {
        let mut left = AbCheckpoint::load(text).expect("mutant reloads");
        let right = AbCheckpoint::load(&docs.ab[1]).expect("seed loads");
        left.merge(&right).is_ok()
    });
    guarded(failures, &format!("{label}: finalize"), || {
        ck.finalize(ab_stimuli(), &CrowdFlower).is_ok()
    });
    guarded(failures, &format!("{label}: resume"), || run_ab(Some(&ck), None).is_ok());
}

#[test]
fn mutated_checkpoints_fail_only_with_typed_errors() {
    let docs = docs();
    // The seeds themselves merge, finalize and resume cleanly.
    let mut left = TimelineCheckpoint::load(&docs.tl[0]).expect("timeline seed loads");
    left.merge(&TimelineCheckpoint::load(&docs.tl[1]).expect("seed loads")).expect("seeds merge");
    left.finalize(tl_stimuli(), &CrowdFlower).expect("seeds finalize");
    let mut left = AbCheckpoint::load(&docs.ab[0]).expect("A/B seed loads");
    left.merge(&AbCheckpoint::load(&docs.ab[1]).expect("seed loads")).expect("seeds merge");
    left.finalize(ab_stimuli(), &CrowdFlower).expect("seeds finalize");

    let donors: Vec<&str> = docs.tl.iter().chain(&docs.ab).map(String::as_str).collect();
    let mut rng = Rng::seed_from_u64(SEED);
    let mut failures = Vec::new();
    let mut loaded = 0usize;
    for (kind, seeds) in [("timeline", &docs.tl), ("ab", &docs.ab)] {
        for (d, doc) in seeds.iter().enumerate() {
            for m in 0..MUTANTS_PER_DOC {
                let (text, what) = mutate(&mut rng, doc, &donors);
                let label = format!("{kind} doc {d} mutant {m} ({what})");
                if kind == "timeline" {
                    loaded += usize::from(TimelineCheckpoint::load(&text).is_ok());
                    timeline_mutant(&text, &docs, &mut failures, &label);
                } else {
                    loaded += usize::from(AbCheckpoint::load(&text).is_ok());
                    ab_mutant(&text, &docs, &mut failures, &label);
                }
            }
        }
    }
    assert!(failures.is_empty(), "mutants panicked:\n{}", failures.join("\n"));
    // Some mutants must survive loading, or merge/finalize/resume were
    // never exercised.
    assert!(loaded >= MUTANTS_PER_DOC / 2, "only {loaded} mutants loaded");
}
