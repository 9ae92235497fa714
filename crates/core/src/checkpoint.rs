//! Checkpoint/resume and multi-process merge for the sharded engines.
//!
//! A checkpoint is the full accumulator state of a campaign over a
//! participant index range `[range_lo, range_hi)` — every per-stimulus
//! digest, the behaviour moments, the filter/control tallies, the shard
//! totals, the adaptive driver's mask/decision state (driver
//! checkpoints only), and the obs counter totals at the barrier —
//! serialized as versioned JSONL through the vendored serde shim, so
//! the format is hermetic and byte-stable. The contract is strict
//! **byte-identity**: `load(save(state))` reproduces the same digest
//! fingerprint and counter fingerprint as the uninterrupted run, at any
//! shard size and thread count (pinned by `checkpoint_roundtrip` tests
//! and the `merge_digests` verify gates).
//!
//! Three workflows build on that:
//!
//! * **Resume** — [`checkpointed_timeline_campaign`] /
//!   [`checkpointed_ab_campaign`] consult an observer at every shard
//!   barrier; a `false` return interrupts the run and hands back a
//!   checkpoint, and a later call with `resume` replays only the
//!   remaining index range, byte-identical to never stopping.
//! * **Multi-process merge** — [`timeline_worker_checkpoint`] /
//!   [`ab_worker_checkpoint`] fold a disjoint index range in an
//!   independent process; [`TimelineCheckpoint::merge`] stitches the
//!   written files back together (range-adjacency and admitted-index
//!   continuity checked), and `finalize` yields the single-run digest.
//! * **Live mode** — the driver emits an incremental JSONL line per
//!   barrier ([`CheckpointEvent::Live`]) with per-stimulus UPLT
//!   percentile/CI read-outs; the final line equals the end-of-run
//!   digest's read-outs ([`live_line_from_digest`]).
//!
//! ## Format (version 1)
//!
//! One JSON object per line. Timeline files are `S + 6` lines (header,
//! totals, behaviour, `S` stimulus lines, drive, counters, end); A/B
//! files are `S + 5` (no drive line). Floats are carried as
//! `f64::to_bits()` integers (canonical — `±inf` sentinels and `-0.0`
//! round-trip exactly), the `Moments` fixed-point sums as decimal
//! `i128` strings (the shim has no native i128). The header pins the
//! [`DigestParams`] the accumulators were built with; loading validates
//! every per-stimulus state against it. See DESIGN.md §3i.
//!
//! ## Error discipline
//!
//! Checkpoint bytes are **untrusted input**: every malformed,
//! truncated, or inconsistent file surfaces as a typed
//! [`CheckpointError`] — never a panic. The accumulator rebuilds go
//! through the validating `from_state` constructors of `eyeorg_stats`,
//! and cross-checkpoint merges go through the fallible
//! [`MergeError`]-returning digest merges. Resume additionally
//! **probe-merges** the loaded state against a freshly constructed
//! accumulator before the epoch loop starts, so the engine-internal
//! infallible shard merges stay unreachable from disk.
//!
//! ## Obs counter contract
//!
//! Checkpoints record the **absolute** registry totals at the barrier
//! ([`CounterState`]). A resuming (or merging) process must
//! `eyeorg_obs::reset()` before the run; the driver then restores the
//! recorded totals, the continuation adds its own, and the final
//! snapshot's `counter_fingerprint` equals the uninterrupted run's.
//! Worker processes likewise reset first, so a worker checkpoint's
//! counters are exactly its range's contribution (counter totals are
//! per-shard sums, hence partition-independent).

use std::collections::BTreeMap;

use eyeorg_crowd::RecruitmentService;
use eyeorg_obs::HistogramSnapshot;
use eyeorg_stats::{
    resolve_threads, Histogram, HistogramState, Moments, MomentsState, QuantileSketch,
    QuantileSketchState, Seed,
};
use serde::{Deserialize, Serialize, Value};

use crate::adaptive::{
    drive_resumable, AdaptiveBackend, AdaptiveOutcome, DriveEnd, DriveState, StopCause,
    StopDecision, ADAPTIVE_Z,
};
use crate::digest::{
    AbDigest, AbStimulusDigest, BehaviorDigest, ControlTally, DigestParams, MergeError,
    StimulusDigest, TimelineDigest,
};
use crate::experiment::{AbStimulus, AdaptiveConfig, ExperimentConfig, TimelineStimulus};
use crate::filtering::{FilterTally, ParticipantFilter};
use crate::flat::{
    admitted_bases_range, flat_ab_epoch, flat_tl_epoch, merge_ab_shards, AbShard, FlatAbCtx,
    FlatTlCtx, StreamConfig, TlShard,
};

/// Checkpoint format version this build writes and accepts.
pub const CHECKPOINT_VERSION: u64 = 1;

const FORMAT_TAG: &str = "eyeorg-checkpoint";

// ---------------------------------------------------------------------
// Errors
// ---------------------------------------------------------------------

/// Why checkpoint bytes were rejected, or why two checkpoints refused
/// to combine. Every variant is reachable from untrusted input, so the
/// loader returns these instead of panicking.
#[derive(Debug, Clone, PartialEq)]
pub enum CheckpointError {
    /// A line was not the JSON object the format expects.
    Parse {
        /// 1-based line number.
        line: usize,
        /// The parser/deserializer message.
        detail: String,
    },
    /// The document structure disagrees with the format contract.
    Format {
        /// 1-based line number.
        line: usize,
        /// What disagreed.
        detail: String,
    },
    /// The file was written by an unsupported format version.
    Version {
        /// Version in the file.
        found: u64,
        /// Version this build supports.
        supported: u64,
    },
    /// The file ends before the header's announced line count.
    Truncated {
        /// Lines the header announced.
        expected: usize,
        /// Lines actually present.
        found: usize,
    },
    /// An accumulator state failed its `from_state` validation.
    State {
        /// 1-based line number.
        line: usize,
        /// The validator's message.
        detail: String,
    },
    /// Two accumulators refused to merge (identity/config mismatch).
    Merge(MergeError),
    /// The checkpoint was built under different [`DigestParams`] than
    /// the run (or the sibling checkpoint) it is combined with.
    ParamsMismatch {
        /// Both sides' parameters.
        detail: String,
    },
    /// Merged ranges are not adjacent: the right side does not start
    /// where the left side ends.
    RangeGap {
        /// Left side's `range_hi`.
        left_hi: u64,
        /// Right side's `range_lo`.
        right_lo: u64,
    },
    /// The right side's admitted-index base disagrees with the left
    /// side's admission count — the pieces come from different
    /// campaigns (seed/config) or a worker lied about its base.
    AdmittedGap {
        /// Admitted base the left side implies.
        expected: u64,
        /// Admitted base the right side recorded.
        found: u64,
    },
    /// A finalize/resume was attempted on a checkpoint that does not
    /// start at participant index 0.
    PartialRange {
        /// The checkpoint's `range_lo`.
        lo: u64,
    },
    /// The checkpoint is structurally valid but unusable in this role.
    Config {
        /// What disqualified it.
        detail: String,
    },
}

impl std::fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckpointError::Parse { line, detail } => {
                write!(f, "checkpoint line {line}: parse error: {detail}")
            }
            CheckpointError::Format { line, detail } => {
                write!(f, "checkpoint line {line}: {detail}")
            }
            CheckpointError::Version { found, supported } => {
                write!(f, "checkpoint version {found} unsupported (this build reads {supported})")
            }
            CheckpointError::Truncated { expected, found } => {
                write!(f, "checkpoint truncated: header announces {expected} lines, found {found}")
            }
            CheckpointError::State { line, detail } => {
                write!(f, "checkpoint line {line}: invalid accumulator state: {detail}")
            }
            CheckpointError::Merge(e) => write!(f, "checkpoint merge: {e}"),
            CheckpointError::ParamsMismatch { detail } => {
                write!(f, "checkpoint digest-params mismatch: {detail}")
            }
            CheckpointError::RangeGap { left_hi, right_lo } => {
                write!(f, "checkpoint ranges not adjacent: [..{left_hi}) then [{right_lo}..)")
            }
            CheckpointError::AdmittedGap { expected, found } => write!(
                f,
                "admitted-index discontinuity: left side implies base {expected}, right side \
                 recorded {found}"
            ),
            CheckpointError::PartialRange { lo } => {
                write!(f, "checkpoint starts at participant {lo}, not 0; merge the earlier ranges first")
            }
            CheckpointError::Config { detail } => write!(f, "checkpoint unusable: {detail}"),
        }
    }
}

impl std::error::Error for CheckpointError {}

impl From<MergeError> for CheckpointError {
    fn from(e: MergeError) -> CheckpointError {
        CheckpointError::Merge(e)
    }
}

// ---------------------------------------------------------------------
// Line structs (the on-disk schema, version 1)
// ---------------------------------------------------------------------

#[derive(Serialize, Deserialize)]
struct HeaderLine {
    format: String,
    version: u64,
    kind: String,
    hist_bins: usize,
    sketch_bins: usize,
    exact_cap: usize,
    range_lo: u64,
    range_hi: u64,
    admitted_before: u64,
    stimuli: usize,
    lines: usize,
}

/// `Moments` raw state; `qsum`/`qsumsq` as decimal i128 strings,
/// `min`/`max` as `to_bits()`.
#[derive(Serialize, Deserialize)]
struct MomentsLine {
    n: u64,
    qsum: String,
    qsumsq: String,
    min: u64,
    max: u64,
    rejected: u64,
}

#[derive(Serialize, Deserialize)]
struct HistLine {
    lo: u64,
    hi: u64,
    counts: Vec<u32>,
    outside: u32,
}

#[derive(Serialize, Deserialize)]
struct SketchLine {
    lo: u64,
    hi: u64,
    bins: usize,
    cap: usize,
    exact: Vec<u64>,
    counts: Vec<u64>,
    spilled: bool,
    min: u64,
    max: u64,
    n: u64,
    rejected: u64,
}

#[derive(Serialize, Deserialize)]
struct FiltersLine {
    engagement: u64,
    soft: u64,
    control: u64,
    kept: u64,
}

#[derive(Serialize, Deserialize)]
struct ControlsLine {
    passed: u64,
    failed: u64,
}

#[derive(Serialize, Deserialize)]
struct TotalsLine {
    admitted: u64,
    rejected: u64,
    collected: u64,
    skipped: u64,
    pruned: u64,
    filters: FiltersLine,
    controls: ControlsLine,
}

#[derive(Serialize, Deserialize)]
struct AbTotalsLine {
    admitted: u64,
    rejected: u64,
    cast: u64,
    skipped: u64,
    filters: FiltersLine,
    controls: ControlsLine,
}

#[derive(Serialize, Deserialize)]
struct BehaviorLine {
    minutes_on_site: MomentsLine,
    actions: MomentsLine,
    out_of_focus_secs: MomentsLine,
    max_video_load_secs: MomentsLine,
}

#[derive(Serialize, Deserialize)]
struct StimulusLine {
    name: String,
    uplt: MomentsLine,
    hist: HistLine,
    sketch: SketchLine,
}

#[derive(Serialize, Deserialize)]
struct AbStimulusLine {
    name: String,
    a: u32,
    b: u32,
    nd: u32,
    shows: u64,
    a_left_shows: u64,
}

#[derive(Serialize, Deserialize)]
struct DecisionLine {
    epoch: u64,
    stimulus: usize,
    name: String,
    retained: u64,
    half_width: u64,
    cause: String,
}

#[derive(Serialize, Deserialize)]
struct AdaptiveLine {
    live: Vec<bool>,
    epochs: u64,
    stopped_at: Vec<Option<u64>>,
    decisions: Vec<DecisionLine>,
}

#[derive(Serialize, Deserialize)]
struct DriveLine {
    adaptive: Option<AdaptiveLine>,
}

/// Mirror of `eyeorg_obs::HistogramSnapshot`, re-declared because the
/// obs struct is (deliberately) serialize-only: the checkpoint layer
/// owns the deserialization and its validation.
#[derive(Serialize, Deserialize)]
struct HistSnapLine {
    count: u64,
    sum: u64,
    buckets: Vec<(usize, u64)>,
}

#[derive(Serialize, Deserialize)]
struct CountersLine {
    counters: BTreeMap<String, u64>,
    labeled: BTreeMap<String, BTreeMap<String, u64>>,
    histograms: BTreeMap<String, HistSnapLine>,
}

#[derive(Serialize, Deserialize)]
struct EndLine {
    end: String,
}

/// Compact one-line JSON of a line struct. The vendored writer is
/// total (non-finite floats never occur here: every float is carried
/// as `to_bits()` integers), so the `Result` is vacuous.
fn json_line<T: Serialize>(v: &T) -> String {
    serde_json::to_string(v).unwrap_or_default()
}

fn parse_line<T: Deserialize>(s: &str, line: usize) -> Result<T, CheckpointError> {
    serde_json::from_str::<T>(s)
        .map_err(|e| CheckpointError::Parse { line, detail: e.to_string() })
}

// ---------------------------------------------------------------------
// Accumulator <-> line conversions
// ---------------------------------------------------------------------

fn moments_line(m: &Moments) -> MomentsLine {
    let s = m.state();
    MomentsLine {
        n: s.n,
        qsum: s.qsum.to_string(),
        qsumsq: s.qsumsq.to_string(),
        min: s.min_bits,
        max: s.max_bits,
        rejected: s.rejected,
    }
}

fn moments_of(l: &MomentsLine, line: usize) -> Result<Moments, CheckpointError> {
    let parse_i128 = |s: &str, what: &str| -> Result<i128, CheckpointError> {
        s.parse::<i128>().map_err(|_| CheckpointError::State {
            line,
            detail: format!("{what} is not a decimal i128: {s:?}"),
        })
    };
    Ok(Moments::from_state(&MomentsState {
        n: l.n,
        qsum: parse_i128(&l.qsum, "qsum")?,
        qsumsq: parse_i128(&l.qsumsq, "qsumsq")?,
        min_bits: l.min,
        max_bits: l.max,
        rejected: l.rejected,
    }))
}

fn hist_line(h: &Histogram) -> HistLine {
    let s = h.state();
    HistLine { lo: s.lo_bits, hi: s.hi_bits, counts: s.counts, outside: s.outside }
}

fn hist_of(l: &HistLine, line: usize) -> Result<Histogram, CheckpointError> {
    Histogram::from_state(&HistogramState {
        lo_bits: l.lo,
        hi_bits: l.hi,
        counts: l.counts.clone(),
        outside: l.outside,
    })
    .map_err(|e| CheckpointError::State { line, detail: e.0.to_string() })
}

fn sketch_line(s: &QuantileSketch) -> SketchLine {
    let st = s.state();
    SketchLine {
        lo: st.lo_bits,
        hi: st.hi_bits,
        bins: st.bins,
        cap: st.exact_cap,
        exact: st.exact_bits,
        counts: st.counts,
        spilled: st.spilled,
        min: st.min_bits,
        max: st.max_bits,
        n: st.n,
        rejected: st.rejected,
    }
}

fn sketch_of(l: &SketchLine, line: usize) -> Result<QuantileSketch, CheckpointError> {
    QuantileSketch::from_state(&QuantileSketchState {
        lo_bits: l.lo,
        hi_bits: l.hi,
        bins: l.bins,
        exact_cap: l.cap,
        exact_bits: l.exact.clone(),
        counts: l.counts.clone(),
        spilled: l.spilled,
        min_bits: l.min,
        max_bits: l.max,
        n: l.n,
        rejected: l.rejected,
    })
    .map_err(|e| CheckpointError::State { line, detail: e.0.to_string() })
}

fn behavior_line(b: &BehaviorDigest) -> BehaviorLine {
    BehaviorLine {
        minutes_on_site: moments_line(&b.minutes_on_site),
        actions: moments_line(&b.actions),
        out_of_focus_secs: moments_line(&b.out_of_focus_secs),
        max_video_load_secs: moments_line(&b.max_video_load_secs),
    }
}

fn behavior_of(l: &BehaviorLine, line: usize) -> Result<BehaviorDigest, CheckpointError> {
    Ok(BehaviorDigest {
        minutes_on_site: moments_of(&l.minutes_on_site, line)?,
        actions: moments_of(&l.actions, line)?,
        out_of_focus_secs: moments_of(&l.out_of_focus_secs, line)?,
        max_video_load_secs: moments_of(&l.max_video_load_secs, line)?,
    })
}

fn filters_line(t: &FilterTally) -> FiltersLine {
    FiltersLine { engagement: t.engagement, soft: t.soft, control: t.control, kept: t.kept }
}

fn filters_of(l: &FiltersLine) -> FilterTally {
    FilterTally { engagement: l.engagement, soft: l.soft, control: l.control, kept: l.kept }
}

fn controls_line(t: &ControlTally) -> ControlsLine {
    ControlsLine { passed: t.passed, failed: t.failed }
}

fn controls_of(l: &ControlsLine) -> ControlTally {
    ControlTally { passed: l.passed, failed: l.failed }
}

// ---------------------------------------------------------------------
// Counter state
// ---------------------------------------------------------------------

/// The deterministic sections of an obs snapshot (counters, labeled
/// counters, histograms) as plain maps — what a checkpoint records and
/// what `eyeorg_obs::restore` re-applies on resume. See the module
/// docs for the reset/restore contract.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CounterState {
    /// Counter totals by name.
    pub counters: BTreeMap<String, u64>,
    /// Labeled-counter totals by name then label.
    pub labeled: BTreeMap<String, BTreeMap<String, u64>>,
    /// Histogram snapshots by name.
    pub histograms: BTreeMap<String, HistogramSnapshot>,
}

impl CounterState {
    /// Snapshot the live registry's deterministic sections.
    pub fn capture(threads: usize) -> CounterState {
        let r = eyeorg_obs::snapshot("checkpoint", threads);
        CounterState { counters: r.counters, labeled: r.labeled, histograms: r.histograms }
    }

    /// Re-apply these totals onto the live registry (additive; no-op
    /// when obs is disabled).
    pub fn restore(&self) {
        eyeorg_obs::restore(&self.counters, &self.labeled, &self.histograms);
    }

    /// Sum another process's totals in. Saturating: the inputs are
    /// untrusted file contents, and a forged near-`u64::MAX` total must
    /// not abort a debug build.
    fn merge_from(&mut self, other: &CounterState) {
        for (k, &v) in &other.counters {
            let e = self.counters.entry(k.clone()).or_insert(0);
            *e = e.saturating_add(v);
        }
        for (k, cells) in &other.labeled {
            let mine = self.labeled.entry(k.clone()).or_default();
            for (label, &v) in cells {
                let e = mine.entry(label.clone()).or_insert(0);
                *e = e.saturating_add(v);
            }
        }
        for (k, snap) in &other.histograms {
            match self.histograms.get_mut(k) {
                None => {
                    self.histograms.insert(k.clone(), snap.clone());
                }
                Some(mine) => {
                    mine.count = mine.count.saturating_add(snap.count);
                    mine.sum = mine.sum.saturating_add(snap.sum);
                    let mut buckets: BTreeMap<usize, u64> = mine.buckets.iter().copied().collect();
                    for &(k, n) in &snap.buckets {
                        let e = buckets.entry(k).or_insert(0);
                        *e = e.saturating_add(n);
                    }
                    mine.buckets = buckets.into_iter().collect();
                }
            }
        }
    }

    fn to_line(&self) -> CountersLine {
        CountersLine {
            counters: self.counters.clone(),
            labeled: self.labeled.clone(),
            histograms: self
                .histograms
                .iter()
                .map(|(k, h)| {
                    (
                        k.clone(),
                        HistSnapLine { count: h.count, sum: h.sum, buckets: h.buckets.clone() },
                    )
                })
                .collect(),
        }
    }

    fn of_line(l: CountersLine) -> CounterState {
        CounterState {
            counters: l.counters,
            labeled: l.labeled,
            histograms: l
                .histograms
                .into_iter()
                .map(|(k, h)| {
                    (k, HistogramSnapshot { count: h.count, sum: h.sum, buckets: h.buckets })
                })
                .collect(),
        }
    }
}

// ---------------------------------------------------------------------
// Timeline checkpoints
// ---------------------------------------------------------------------

/// The adaptive driver's inter-epoch state as carried by a driver
/// checkpoint (mask, barrier count, decision log).
#[derive(Debug, Clone)]
pub(crate) struct DriveCkpt {
    pub(crate) live: Vec<bool>,
    pub(crate) epochs: u64,
    pub(crate) stopped_at: Vec<Option<u64>>,
    pub(crate) decisions: Vec<StopDecision>,
}

/// A timeline campaign's accumulator state over `[range_lo, range_hi)`.
///
/// Two flavours share the type: **driver** checkpoints (`range_lo = 0`,
/// drive state present — what [`checkpointed_timeline_campaign`] emits
/// and resumes from) and **worker** checkpoints (any range, no drive
/// state — what [`timeline_worker_checkpoint`] emits and
/// [`merge`](TimelineCheckpoint::merge) stitches together).
#[derive(Debug)]
pub struct TimelineCheckpoint {
    params: DigestParams,
    range_lo: u64,
    range_hi: u64,
    admitted_before: u64,
    acc: TlShard,
    drive: Option<DriveCkpt>,
    counters: CounterState,
}

fn stop_cause_tag(c: StopCause) -> &'static str {
    match c {
        StopCause::Converged => "converged",
        StopCause::MaxN => "max_n",
    }
}

fn stop_cause_of(tag: &str, line: usize) -> Result<StopCause, CheckpointError> {
    match tag {
        "converged" => Ok(StopCause::Converged),
        "max_n" => Ok(StopCause::MaxN),
        other => Err(CheckpointError::Format {
            line,
            detail: format!("unknown stop cause {other:?}"),
        }),
    }
}

/// Split a document into its non-empty lines and parse+validate the
/// shared header. Returns (lines, header, expected line count).
fn split_and_header<'a>(
    text: &'a str,
    kind: &str,
    extra_lines: usize,
) -> Result<(Vec<&'a str>, HeaderLine), CheckpointError> {
    let lines: Vec<&str> = text.lines().filter(|l| !l.trim().is_empty()).collect();
    if lines.is_empty() {
        return Err(CheckpointError::Truncated { expected: 1, found: 0 });
    }
    // lint:allow(D7): the is_empty check above guarantees lines[0] exists
    let h: HeaderLine = parse_line(lines[0], 1)?;
    if h.format != FORMAT_TAG {
        return Err(CheckpointError::Format {
            line: 1,
            detail: format!("not a checkpoint file (format {:?})", h.format),
        });
    }
    if h.version != CHECKPOINT_VERSION {
        return Err(CheckpointError::Version { found: h.version, supported: CHECKPOINT_VERSION });
    }
    if h.kind != kind {
        return Err(CheckpointError::Format {
            line: 1,
            detail: format!("expected a {kind:?} checkpoint, found {:?}", h.kind),
        });
    }
    let expected = h.stimuli.saturating_add(extra_lines);
    if h.lines != expected {
        return Err(CheckpointError::Format {
            line: 1,
            detail: format!(
                "header announces {} lines but {} stimuli imply {expected}",
                h.lines, h.stimuli
            ),
        });
    }
    if lines.len() < expected {
        return Err(CheckpointError::Truncated { expected, found: lines.len() });
    }
    if lines.len() > expected {
        return Err(CheckpointError::Format {
            line: expected + 1,
            detail: "trailing data after the end line".to_string(),
        });
    }
    if h.range_lo > h.range_hi {
        return Err(CheckpointError::Format {
            line: 1,
            detail: format!("inverted range [{}, {})", h.range_lo, h.range_hi),
        });
    }
    Ok((lines, h))
}

fn check_end(line_str: &str, line: usize) -> Result<(), CheckpointError> {
    let end: EndLine = parse_line(line_str, line)?;
    if end.end != FORMAT_TAG {
        return Err(CheckpointError::Format { line, detail: "bad end marker".to_string() });
    }
    Ok(())
}

impl TimelineCheckpoint {
    /// The index range `[lo, hi)` this checkpoint covers.
    pub fn range(&self) -> (u64, u64) {
        (self.range_lo, self.range_hi)
    }

    /// The [`DigestParams`] the accumulators were built under.
    pub fn params(&self) -> DigestParams {
        self.params
    }

    /// Gate admissions in `[0, range_lo)` — the admitted-index base a
    /// worker range folded under (0 for driver checkpoints).
    pub fn admitted_before(&self) -> u64 {
        self.admitted_before
    }

    /// Whether this is a driver checkpoint (carries the epoch-loop
    /// state a resume needs); worker checkpoints can only be merged.
    pub fn is_resumable(&self) -> bool {
        self.drive.is_some()
    }

    /// Re-apply the recorded obs totals (see the module-docs contract).
    pub fn restore_counters(&self) {
        self.counters.restore();
    }

    /// Serialize to the versioned JSONL format (ends with a newline).
    pub fn save(&self) -> String {
        let n_stim = self.acc.stimuli.len();
        let header = HeaderLine {
            format: FORMAT_TAG.to_string(),
            version: CHECKPOINT_VERSION,
            kind: "timeline".to_string(),
            hist_bins: self.params.hist_bins,
            sketch_bins: self.params.sketch_bins,
            exact_cap: self.params.exact_cap,
            range_lo: self.range_lo,
            range_hi: self.range_hi,
            admitted_before: self.admitted_before,
            stimuli: n_stim,
            lines: n_stim + 6,
        };
        let mut out = String::new();
        out.push_str(&json_line(&header));
        out.push('\n');
        out.push_str(&json_line(&TotalsLine {
            admitted: self.acc.admitted,
            rejected: self.acc.rejected,
            collected: self.acc.collected,
            skipped: self.acc.skipped,
            pruned: self.acc.pruned,
            filters: filters_line(&self.acc.filters),
            controls: controls_line(&self.acc.controls),
        }));
        out.push('\n');
        out.push_str(&json_line(&behavior_line(&self.acc.behavior)));
        out.push('\n');
        for s in &self.acc.stimuli {
            out.push_str(&json_line(&StimulusLine {
                name: s.name.clone(),
                uplt: moments_line(&s.uplt),
                hist: hist_line(&s.hist),
                sketch: sketch_line(&s.sketch),
            }));
            out.push('\n');
        }
        let adaptive = self.drive.as_ref().map(|d| AdaptiveLine {
            live: d.live.clone(),
            epochs: d.epochs,
            stopped_at: d.stopped_at.clone(),
            decisions: d
                .decisions
                .iter()
                .map(|dec| DecisionLine {
                    epoch: dec.epoch,
                    stimulus: dec.stimulus,
                    name: dec.name.clone(),
                    retained: dec.retained,
                    half_width: dec.half_width.to_bits(),
                    cause: stop_cause_tag(dec.cause).to_string(),
                })
                .collect(),
        });
        out.push_str(&json_line(&DriveLine { adaptive }));
        out.push('\n');
        out.push_str(&json_line(&self.counters.to_line()));
        out.push('\n');
        out.push_str(&json_line(&EndLine { end: FORMAT_TAG.to_string() }));
        out.push('\n');
        out
    }

    /// Parse and validate a serialized timeline checkpoint.
    /// `load(save(state))` is bit-identical to `state`; any malformed
    /// input comes back as a typed [`CheckpointError`], never a panic.
    // lint:entrypoint(untrusted)
    pub fn load(text: &str) -> Result<TimelineCheckpoint, CheckpointError> {
        let (lines, h) = split_and_header(text, "timeline", 6)?;
        let params = DigestParams {
            hist_bins: h.hist_bins,
            sketch_bins: h.sketch_bins,
            exact_cap: h.exact_cap,
        };
        // lint:allow(D7): split_and_header pinned lines.len() to stimuli + 6
        let totals: TotalsLine = parse_line(lines[1], 2)?;
        // lint:allow(D7): split_and_header pinned lines.len() to stimuli + 6
        let behavior = behavior_of(&parse_line::<BehaviorLine>(lines[2], 3)?, 3)?;
        let mut stimuli = Vec::with_capacity(h.stimuli);
        for i in 0..h.stimuli {
            let ln = 4 + i;
            // lint:allow(D7): i < h.stimuli and lines.len() == stimuli + 6 (split_and_header)
            let sl: StimulusLine = parse_line(lines[3 + i], ln)?;
            let hist = hist_of(&sl.hist, ln)?;
            if hist.counts().len() != params.hist_bins {
                return Err(CheckpointError::State {
                    line: ln,
                    detail: format!(
                        "histogram has {} bins, header pins {}",
                        hist.counts().len(),
                        params.hist_bins
                    ),
                });
            }
            let sketch = sketch_of(&sl.sketch, ln)?;
            if sketch.bins() != params.sketch_bins || sketch.exact_cap() != params.exact_cap {
                return Err(CheckpointError::State {
                    line: ln,
                    detail: format!(
                        "sketch built with bins={}/cap={}, header pins bins={}/cap={}",
                        sketch.bins(),
                        sketch.exact_cap(),
                        params.sketch_bins,
                        params.exact_cap
                    ),
                });
            }
            stimuli.push(StimulusDigest {
                name: sl.name,
                uplt: moments_of(&sl.uplt, ln)?,
                hist,
                sketch,
            });
        }
        let drive_ln = 4 + h.stimuli;
        // lint:allow(D7): split_and_header pinned lines.len() to stimuli + 6
        let dl: DriveLine = parse_line(lines[3 + h.stimuli], drive_ln)?;
        let drive = match dl.adaptive {
            None => None,
            Some(a) => {
                if a.live.len() != h.stimuli || a.stopped_at.len() != h.stimuli {
                    return Err(CheckpointError::Format {
                        line: drive_ln,
                        detail: format!(
                            "drive state sized for {} stimuli, header has {}",
                            a.live.len().max(a.stopped_at.len()),
                            h.stimuli
                        ),
                    });
                }
                let mut decisions = Vec::with_capacity(a.decisions.len());
                for d in &a.decisions {
                    if d.stimulus >= h.stimuli {
                        return Err(CheckpointError::Format {
                            line: drive_ln,
                            detail: format!(
                                "decision names stimulus {} of {}",
                                d.stimulus, h.stimuli
                            ),
                        });
                    }
                    decisions.push(StopDecision {
                        epoch: d.epoch,
                        stimulus: d.stimulus,
                        name: d.name.clone(),
                        retained: d.retained,
                        half_width: f64::from_bits(d.half_width),
                        cause: stop_cause_of(&d.cause, drive_ln)?,
                    });
                }
                Some(DriveCkpt {
                    live: a.live,
                    epochs: a.epochs,
                    stopped_at: a.stopped_at,
                    decisions,
                })
            }
        };
        let counters_ln = 5 + h.stimuli;
        // lint:allow(D7): split_and_header pinned lines.len() to stimuli + 6
        let cl: CountersLine = parse_line(lines[4 + h.stimuli], counters_ln)?;
        // lint:allow(D7): split_and_header pinned lines.len() to stimuli + 6
        check_end(lines[5 + h.stimuli], 6 + h.stimuli)?;
        Ok(TimelineCheckpoint {
            params,
            range_lo: h.range_lo,
            range_hi: h.range_hi,
            admitted_before: h.admitted_before,
            acc: TlShard {
                stimuli,
                behavior,
                filters: filters_of(&totals.filters),
                controls: controls_of(&totals.controls),
                admitted: totals.admitted,
                rejected: totals.rejected,
                collected: totals.collected,
                skipped: totals.skipped,
                pruned: totals.pruned,
            },
            drive,
            counters: CounterState::of_line(cl),
        })
    }

    /// Append an adjacent worker checkpoint's range. Checks digest
    /// params, range adjacency, admitted-index continuity, and every
    /// per-stimulus identity/config before mutating, so a failed merge
    /// leaves `self` unchanged. Driver checkpoints refuse to merge
    /// (their drive state is not rangewise-composable).
    // lint:entrypoint(untrusted)
    pub fn merge(&mut self, other: &TimelineCheckpoint) -> Result<(), CheckpointError> {
        if self.drive.is_some() || other.drive.is_some() {
            return Err(CheckpointError::Config {
                detail: "driver checkpoints cannot be merged; merge worker checkpoints and \
                         resume drivers"
                    .to_string(),
            });
        }
        if self.params != other.params {
            return Err(CheckpointError::ParamsMismatch {
                detail: format!("{:?} vs {:?}", self.params, other.params),
            });
        }
        if other.range_lo != self.range_hi {
            return Err(CheckpointError::RangeGap {
                left_hi: self.range_hi,
                right_lo: other.range_lo,
            });
        }
        let expected = self
            .admitted_before
            .saturating_add(self.acc.admitted)
            .saturating_add(self.acc.pruned);
        if other.admitted_before != expected {
            return Err(CheckpointError::AdmittedGap { expected, found: other.admitted_before });
        }
        if self.acc.stimuli.len() != other.acc.stimuli.len() {
            return Err(MergeError::StimulusCount {
                left: self.acc.stimuli.len(),
                right: other.acc.stimuli.len(),
            }
            .into());
        }
        // Merge into a clone and commit only on full success, so a
        // mid-way config mismatch cannot leave a half-merged state.
        let mut merged = self.acc.stimuli.clone();
        for (a, b) in merged.iter_mut().zip(&other.acc.stimuli) {
            a.merge(b)?;
        }
        self.acc.stimuli = merged;
        self.acc.behavior.merge(&other.acc.behavior);
        self.acc.filters.merge(&other.acc.filters);
        self.acc.controls.merge(&other.acc.controls);
        self.acc.admitted = self.acc.admitted.saturating_add(other.acc.admitted);
        self.acc.rejected = self.acc.rejected.saturating_add(other.acc.rejected);
        self.acc.collected = self.acc.collected.saturating_add(other.acc.collected);
        self.acc.skipped = self.acc.skipped.saturating_add(other.acc.skipped);
        self.acc.pruned = self.acc.pruned.saturating_add(other.acc.pruned);
        self.counters.merge_from(&other.counters);
        self.range_hi = other.range_hi;
        Ok(())
    }

    /// Produce the final digest of a complete (`range_lo = 0`)
    /// checkpoint — byte-identical to the digest the uninterrupted
    /// single-process run of `range_hi` participants returns.
    pub fn finalize(
        &self,
        stimuli: &[TimelineStimulus],
        service: &dyn RecruitmentService,
    ) -> Result<TimelineDigest, CheckpointError> {
        if self.range_lo != 0 {
            return Err(CheckpointError::PartialRange { lo: self.range_lo });
        }
        tl_digest_of(&self.acc, stimuli, service, self.range_hi, &self.params)
    }
}

/// Fallible counterpart of `flat::merge_tl_shards` for accumulators
/// that came from disk: a fresh digest is built from `stimuli` +
/// `params` and the untrusted state merged in through the
/// [`MergeError`]-returning path.
fn tl_digest_of(
    acc: &TlShard,
    stimuli: &[TimelineStimulus],
    service: &dyn RecruitmentService,
    n_participants: u64,
    params: &DigestParams,
) -> Result<TimelineDigest, CheckpointError> {
    if stimuli.len() != acc.stimuli.len() {
        return Err(
            MergeError::StimulusCount { left: stimuli.len(), right: acc.stimuli.len() }.into()
        );
    }
    let n = n_participants as usize;
    let mut digest = TimelineDigest {
        stimuli: stimuli
            .iter()
            .map(|st| StimulusDigest::new(&st.name, st.video.duration().as_secs_f64(), params))
            .collect(),
        recruited: n_participants,
        admitted: acc.admitted,
        rejected: acc.rejected,
        recruitment_cost_usd: service.cost_per_participant() * n as f64,
        recruitment_duration_secs: if n == 0 { 0.0 } else { service.arrival(n - 1).as_secs_f64() },
        responses_collected: acc.collected,
        responses_skipped: acc.skipped,
        behavior: acc.behavior.clone(),
        filters: acc.filters,
        controls: acc.controls,
    };
    for (a, b) in digest.stimuli.iter_mut().zip(&acc.stimuli) {
        a.merge(b)?;
    }
    Ok(digest)
}

// ---------------------------------------------------------------------
// Live mode
// ---------------------------------------------------------------------

fn opt_f64(v: Option<f64>) -> Value {
    match v {
        Some(x) => Value::F64(x),
        None => Value::Null,
    }
}

#[allow(clippy::too_many_arguments)] // one JSON line, one flat argument list
fn live_line(
    stimuli: &[StimulusDigest],
    admitted: u64,
    collected: u64,
    skipped: u64,
    kept: u64,
    processed: u64,
    budget: u64,
    is_final: bool,
) -> String {
    let stim: Vec<Value> = stimuli
        .iter()
        .map(|s| {
            let ci = s.sketch.quantile_ci(50.0, ADAPTIVE_Z);
            Value::Object(vec![
                ("name".to_string(), Value::Str(s.name.clone())),
                ("retained".to_string(), Value::U64(s.retained())),
                ("mean".to_string(), opt_f64(s.uplt.mean())),
                ("p25".to_string(), opt_f64(s.sketch.quantile(25.0))),
                ("p50".to_string(), opt_f64(s.sketch.quantile(50.0))),
                ("p75".to_string(), opt_f64(s.sketch.quantile(75.0))),
                ("ci_lo".to_string(), opt_f64(ci.map(|c| c.0))),
                ("ci_hi".to_string(), opt_f64(ci.map(|c| c.1))),
            ])
        })
        .collect();
    json_line(&Value::Object(vec![
        ("processed".to_string(), Value::U64(processed)),
        ("budget".to_string(), Value::U64(budget)),
        ("final".to_string(), Value::Bool(is_final)),
        ("admitted".to_string(), Value::U64(admitted)),
        ("collected".to_string(), Value::U64(collected)),
        ("skipped".to_string(), Value::U64(skipped)),
        ("kept".to_string(), Value::U64(kept)),
        ("stimuli".to_string(), Value::Array(stim)),
    ]))
}

/// The live-mode JSONL line a finished digest implies — what the
/// driver emits as its last [`CheckpointEvent::Live`] event, exposed so
/// readers can cross-check a live stream's final line against the
/// end-of-run digest read-outs.
pub fn live_line_from_digest(d: &TimelineDigest, budget: u64, is_final: bool) -> String {
    live_line(
        &d.stimuli,
        d.admitted,
        d.responses_collected,
        d.responses_skipped,
        d.filters.kept,
        d.recruited,
        budget,
        is_final,
    )
}

// ---------------------------------------------------------------------
// The checkpointed drivers
// ---------------------------------------------------------------------

/// Driver knobs for checkpoint emission.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CheckpointConfig {
    /// Barrier spacing for non-adaptive runs, in shards: a checkpoint
    /// (and a live line) is emitted every `every_shards` shards.
    /// Adaptive runs already have barriers every `AdaptiveConfig::epoch`
    /// participants and checkpoint at those instead. Values `< 1` are
    /// treated as 1.
    pub every_shards: usize,
}

impl Default for CheckpointConfig {
    fn default() -> Self {
        CheckpointConfig { every_shards: 8 }
    }
}

/// What the driver hands its observer at each barrier.
pub enum CheckpointEvent<'a> {
    /// The barrier's checkpoint. Return `false` from the observer to
    /// interrupt the run and receive it as [`RunOutcome::Interrupted`].
    Checkpoint(&'a TimelineCheckpoint),
    /// One live-mode JSONL line (no trailing newline). The observer's
    /// return value is ignored for live events.
    Live(&'a str),
}

/// How a checkpointed timeline run ended.
#[derive(Debug)]
pub enum RunOutcome {
    /// Ran to its natural end.
    Complete(Box<AdaptiveOutcome>),
    /// The observer interrupted at a barrier; resume by passing this
    /// checkpoint back via `resume` (same stimuli, seed, and config).
    Interrupted(Box<TimelineCheckpoint>),
}

fn validate_tl_resume(
    resume: &TimelineCheckpoint,
    stimuli: &[TimelineStimulus],
    budget: usize,
    sc: &StreamConfig,
) -> Result<DriveState, CheckpointError> {
    if resume.params != sc.params {
        return Err(CheckpointError::ParamsMismatch {
            detail: format!("checkpoint {:?} vs run {:?}", resume.params, sc.params),
        });
    }
    if resume.range_lo != 0 {
        return Err(CheckpointError::PartialRange { lo: resume.range_lo });
    }
    if resume.range_hi > budget as u64 {
        return Err(CheckpointError::Config {
            detail: format!(
                "checkpoint covers {} participants, budget is {budget}",
                resume.range_hi
            ),
        });
    }
    let Some(drive) = &resume.drive else {
        return Err(CheckpointError::Config {
            detail: "a worker checkpoint cannot seed a resume (no drive state)".to_string(),
        });
    };
    if drive.live.len() != stimuli.len() || drive.stopped_at.len() != stimuli.len() {
        return Err(CheckpointError::Config {
            detail: format!(
                "drive state sized for {} stimuli, run has {}",
                drive.live.len().max(drive.stopped_at.len()),
                stimuli.len()
            ),
        });
    }
    // Probe-merge the untrusted accumulator against a freshly
    // constructed one: this runs the full fallible identity/config
    // checks, after which the epoch loop's infallible internal shard
    // merges are genuinely unreachable from disk.
    let mut probe = TlShard::new(stimuli, &sc.params);
    if probe.stimuli.len() != resume.acc.stimuli.len() {
        return Err(MergeError::StimulusCount {
            left: probe.stimuli.len(),
            right: resume.acc.stimuli.len(),
        }
        .into());
    }
    for (a, b) in probe.stimuli.iter_mut().zip(&resume.acc.stimuli) {
        a.merge(b)?;
    }
    Ok(DriveState {
        live: drive.live.clone(),
        acc: resume.acc.clone(),
        // Gate admissions over [0, processed): pruned participants
        // consumed an admitted index without being served.
        admitted: resume.acc.admitted.saturating_add(resume.acc.pruned),
        processed: resume.range_hi as usize,
        epochs: drive.epochs,
        decisions: drive.decisions.clone(),
        stopped_at: drive.stopped_at.clone(),
    })
}

/// Run a timeline campaign (adaptive or plain) with checkpoint/resume
/// and live incremental analytics.
///
/// At every epoch barrier the driver emits a [`CheckpointEvent::Live`]
/// line and a [`CheckpointEvent::Checkpoint`]; returning `false` for
/// the checkpoint interrupts the run. Passing the interrupted
/// checkpoint back as `resume` (with identical stimuli, seed, and
/// configs — validated where possible, [`CheckpointError`] otherwise)
/// replays only the remaining participant range: the composition is
/// byte-identical, digest and counter fingerprint, to the
/// uninterrupted run. With an inactive `ac` the run equals
/// `flat_timeline_campaign`; barriers then
/// fall every [`CheckpointConfig::every_shards`] shards.
///
/// Obs contract: the caller resets (and optionally enables) the obs
/// registry before calling; on resume the driver restores the
/// checkpoint's recorded totals itself.
#[allow(clippy::too_many_arguments)] // mirrors the engine entry points it wraps
pub fn checkpointed_timeline_campaign(
    stimuli: &[TimelineStimulus],
    service: &dyn RecruitmentService,
    budget: usize,
    cfg: &ExperimentConfig,
    filters: &[Box<dyn ParticipantFilter + Send + Sync>],
    seed: Seed,
    sc: &StreamConfig,
    ac: &AdaptiveConfig,
    backend: AdaptiveBackend,
    resume: Option<&TimelineCheckpoint>,
    ck: &CheckpointConfig,
    observer: &mut dyn FnMut(CheckpointEvent<'_>) -> bool,
) -> Result<RunOutcome, CheckpointError> {
    if stimuli.is_empty() {
        return Err(CheckpointError::Config { detail: "campaign needs stimuli".to_string() });
    }
    let _t = eyeorg_obs::phase_timer("core.checkpointed_timeline");
    let threads = resolve_threads(cfg.threads);
    let shard = sc.shard_size.max(1);
    // Barrier spacing: adaptive runs keep their decision epoch (the
    // decision sequence must not depend on checkpointing); plain runs
    // get a barrier every `every_shards` shards.
    let eff_epoch = if ac.is_active() {
        ac.epoch.max(1)
    } else {
        ck.every_shards.max(1).saturating_mul(shard)
    };
    let eff_ac = AdaptiveConfig { epoch: eff_epoch, ..*ac };

    let resume_state = match resume {
        None => None,
        Some(c) => {
            let st = validate_tl_resume(c, stimuli, budget, sc)?;
            c.restore_counters();
            Some(st)
        }
    };

    let end = {
        let mut barrier = |st: &DriveState| -> bool {
            let live = live_line(
                &st.acc.stimuli,
                st.acc.admitted,
                st.acc.collected,
                st.acc.skipped,
                st.acc.filters.kept,
                st.processed as u64,
                budget as u64,
                false,
            );
            observer(CheckpointEvent::Live(&live));
            observer(CheckpointEvent::Checkpoint(&tl_driver_ckpt(sc.params, st, threads)))
        };
        let AdaptiveBackend::Flat = backend;
        let ctx = FlatTlCtx::new(stimuli, service, cfg, filters, seed, sc.params, threads);
        drive_resumable(
            stimuli,
            service,
            budget,
            sc,
            &eff_ac,
            resume_state,
            &mut barrier,
            |lo, hi, base, live| flat_tl_epoch(&ctx, lo, hi, threads, shard, base, live),
        )
    };

    match end {
        DriveEnd::Complete(outcome) => {
            let line = live_line_from_digest(&outcome.digest, budget as u64, true);
            observer(CheckpointEvent::Live(&line));
            Ok(RunOutcome::Complete(outcome))
        }
        // Nothing bumps the registry between the barrier and the
        // return, so this capture equals the one the observer saw.
        DriveEnd::Interrupted(st) => {
            Ok(RunOutcome::Interrupted(Box::new(tl_driver_ckpt(sc.params, &st, threads))))
        }
    }
}

/// A driver checkpoint of the epoch loop's current state (obs totals
/// captured from the live registry).
fn tl_driver_ckpt(params: DigestParams, st: &DriveState, threads: usize) -> TimelineCheckpoint {
    TimelineCheckpoint {
        params,
        range_lo: 0,
        range_hi: st.processed as u64,
        admitted_before: 0,
        acc: st.acc.clone(),
        drive: Some(DriveCkpt {
            live: st.live.clone(),
            epochs: st.epochs,
            stopped_at: st.stopped_at.clone(),
            decisions: st.decisions.clone(),
        }),
        counters: CounterState::capture(threads),
    }
}

// ---------------------------------------------------------------------
// Worker checkpoints (multi-process split)
// ---------------------------------------------------------------------

/// Fold the participant index range `[lo, hi)` of a timeline campaign
/// and return it as a mergeable worker checkpoint — the unit of
/// multi-process splitting. The worker recomputes the range's
/// admitted-index base from the seed (the same pre-pass every epoch
/// runs), so independently launched workers over adjacent ranges merge
/// into exactly the single-process run's state.
///
/// Obs contract: reset the registry first; the checkpoint's counters
/// are then this range's contribution.
#[allow(clippy::too_many_arguments)] // mirrors the engine entry points it wraps
pub fn timeline_worker_checkpoint(
    stimuli: &[TimelineStimulus],
    service: &dyn RecruitmentService,
    lo: usize,
    hi: usize,
    cfg: &ExperimentConfig,
    filters: &[Box<dyn ParticipantFilter + Send + Sync>],
    seed: Seed,
    sc: &StreamConfig,
) -> Result<TimelineCheckpoint, CheckpointError> {
    if stimuli.is_empty() {
        return Err(CheckpointError::Config { detail: "campaign needs stimuli".to_string() });
    }
    if lo > hi {
        return Err(CheckpointError::Config {
            detail: format!("inverted worker range [{lo}, {hi})"),
        });
    }
    let _t = eyeorg_obs::phase_timer("core.worker_checkpoint");
    let threads = resolve_threads(cfg.threads);
    let shard = sc.shard_size.max(1);
    let ctx = FlatTlCtx::new(stimuli, service, cfg, filters, seed, sc.params, threads);
    let admitted_before =
        admitted_bases_range(0, lo, shard, threads, &ctx.pop, ctx.recruit_seed, 0).1;
    let live = vec![true; stimuli.len()];
    let (folds, _) = flat_tl_epoch(&ctx, lo, hi, threads, shard, admitted_before, &live);
    let mut acc = TlShard::new(stimuli, &sc.params);
    for fold in &folds {
        acc.merge_from(fold);
    }
    Ok(TimelineCheckpoint {
        params: sc.params,
        range_lo: lo as u64,
        range_hi: hi as u64,
        admitted_before,
        acc,
        drive: None,
        counters: CounterState::capture(threads),
    })
}

// ---------------------------------------------------------------------
// A/B checkpoints
// ---------------------------------------------------------------------

/// An A/B campaign's accumulator state over `[range_lo, range_hi)` —
/// the A/B counterpart of [`TimelineCheckpoint`]. A/B runs have no
/// adaptive driver, so every A/B checkpoint is both resumable and
/// mergeable.
#[derive(Debug)]
pub struct AbCheckpoint {
    range_lo: u64,
    range_hi: u64,
    admitted_before: u64,
    acc: AbShard,
    counters: CounterState,
}

impl AbCheckpoint {
    /// The index range `[lo, hi)` this checkpoint covers.
    pub fn range(&self) -> (u64, u64) {
        (self.range_lo, self.range_hi)
    }

    /// Gate admissions in `[0, range_lo)`.
    pub fn admitted_before(&self) -> u64 {
        self.admitted_before
    }

    /// Re-apply the recorded obs totals (see the module-docs contract).
    pub fn restore_counters(&self) {
        self.counters.restore();
    }

    /// Serialize to the versioned JSONL format (ends with a newline).
    pub fn save(&self) -> String {
        let n_stim = self.acc.stimuli.len();
        let header = HeaderLine {
            format: FORMAT_TAG.to_string(),
            version: CHECKPOINT_VERSION,
            kind: "ab".to_string(),
            // A/B digests carry no histogram/sketch accumulators.
            hist_bins: 0,
            sketch_bins: 0,
            exact_cap: 0,
            range_lo: self.range_lo,
            range_hi: self.range_hi,
            admitted_before: self.admitted_before,
            stimuli: n_stim,
            lines: n_stim + 5,
        };
        let mut out = String::new();
        out.push_str(&json_line(&header));
        out.push('\n');
        out.push_str(&json_line(&AbTotalsLine {
            admitted: self.acc.admitted,
            rejected: self.acc.rejected,
            cast: self.acc.cast,
            skipped: self.acc.skipped,
            filters: filters_line(&self.acc.filters),
            controls: controls_line(&self.acc.controls),
        }));
        out.push('\n');
        out.push_str(&json_line(&behavior_line(&self.acc.behavior)));
        out.push('\n');
        for s in &self.acc.stimuli {
            out.push_str(&json_line(&AbStimulusLine {
                name: s.name.clone(),
                a: s.tally.a,
                b: s.tally.b,
                nd: s.tally.nd,
                shows: s.shows,
                a_left_shows: s.a_left_shows,
            }));
            out.push('\n');
        }
        out.push_str(&json_line(&self.counters.to_line()));
        out.push('\n');
        out.push_str(&json_line(&EndLine { end: FORMAT_TAG.to_string() }));
        out.push('\n');
        out
    }

    /// Parse and validate a serialized A/B checkpoint. Same contract as
    /// [`TimelineCheckpoint::load`].
    // lint:entrypoint(untrusted)
    pub fn load(text: &str) -> Result<AbCheckpoint, CheckpointError> {
        let (lines, h) = split_and_header(text, "ab", 5)?;
        // lint:allow(D7): split_and_header pinned lines.len() to stimuli + 5
        let totals: AbTotalsLine = parse_line(lines[1], 2)?;
        // lint:allow(D7): split_and_header pinned lines.len() to stimuli + 5
        let behavior = behavior_of(&parse_line::<BehaviorLine>(lines[2], 3)?, 3)?;
        let mut stimuli = Vec::with_capacity(h.stimuli);
        for i in 0..h.stimuli {
            // lint:allow(D7): i < h.stimuli and lines.len() == stimuli + 5 (split_and_header)
            let sl: AbStimulusLine = parse_line(lines[3 + i], 4 + i)?;
            stimuli.push(AbStimulusDigest {
                name: sl.name,
                tally: crate::analysis::AbTally { a: sl.a, b: sl.b, nd: sl.nd },
                shows: sl.shows,
                a_left_shows: sl.a_left_shows,
            });
        }
        // lint:allow(D7): split_and_header pinned lines.len() to stimuli + 5
        let cl: CountersLine = parse_line(lines[3 + h.stimuli], 4 + h.stimuli)?;
        // lint:allow(D7): split_and_header pinned lines.len() to stimuli + 5
        check_end(lines[4 + h.stimuli], 5 + h.stimuli)?;
        Ok(AbCheckpoint {
            range_lo: h.range_lo,
            range_hi: h.range_hi,
            admitted_before: h.admitted_before,
            acc: AbShard {
                stimuli,
                behavior,
                filters: filters_of(&totals.filters),
                controls: controls_of(&totals.controls),
                admitted: totals.admitted,
                rejected: totals.rejected,
                cast: totals.cast,
                skipped: totals.skipped,
            },
            counters: CounterState::of_line(cl),
        })
    }

    /// Append an adjacent checkpoint's range; same contract as
    /// [`TimelineCheckpoint::merge`] (A/B folds never prune, so the
    /// admitted-continuity check uses admissions alone).
    // lint:entrypoint(untrusted)
    pub fn merge(&mut self, other: &AbCheckpoint) -> Result<(), CheckpointError> {
        if other.range_lo != self.range_hi {
            return Err(CheckpointError::RangeGap {
                left_hi: self.range_hi,
                right_lo: other.range_lo,
            });
        }
        let expected = self.admitted_before.saturating_add(self.acc.admitted);
        if other.admitted_before != expected {
            return Err(CheckpointError::AdmittedGap { expected, found: other.admitted_before });
        }
        if self.acc.stimuli.len() != other.acc.stimuli.len() {
            return Err(MergeError::StimulusCount {
                left: self.acc.stimuli.len(),
                right: other.acc.stimuli.len(),
            }
            .into());
        }
        let mut merged = self.acc.stimuli.clone();
        for (a, b) in merged.iter_mut().zip(&other.acc.stimuli) {
            a.merge(b)?;
        }
        self.acc.stimuli = merged;
        self.acc.behavior.merge(&other.acc.behavior);
        self.acc.filters.merge(&other.acc.filters);
        self.acc.controls.merge(&other.acc.controls);
        self.acc.admitted = self.acc.admitted.saturating_add(other.acc.admitted);
        self.acc.rejected = self.acc.rejected.saturating_add(other.acc.rejected);
        self.acc.cast = self.acc.cast.saturating_add(other.acc.cast);
        self.acc.skipped = self.acc.skipped.saturating_add(other.acc.skipped);
        self.counters.merge_from(&other.counters);
        self.range_hi = other.range_hi;
        Ok(())
    }

    /// Produce the final digest of a complete (`range_lo = 0`)
    /// checkpoint; see [`TimelineCheckpoint::finalize`].
    pub fn finalize(
        &self,
        stimuli: &[AbStimulus],
        service: &dyn RecruitmentService,
    ) -> Result<AbDigest, CheckpointError> {
        if self.range_lo != 0 {
            return Err(CheckpointError::PartialRange { lo: self.range_lo });
        }
        ab_digest_of(&self.acc, stimuli, service, self.range_hi)
    }
}

/// Fallible counterpart of `flat::merge_ab_shards` for accumulators
/// that came from disk.
fn ab_digest_of(
    acc: &AbShard,
    stimuli: &[AbStimulus],
    service: &dyn RecruitmentService,
    n_participants: u64,
) -> Result<AbDigest, CheckpointError> {
    if stimuli.len() != acc.stimuli.len() {
        return Err(
            MergeError::StimulusCount { left: stimuli.len(), right: acc.stimuli.len() }.into()
        );
    }
    let n = n_participants as usize;
    let mut digest = AbDigest {
        stimuli: stimuli.iter().map(|st| AbStimulusDigest::new(&st.name)).collect(),
        recruited: n_participants,
        admitted: acc.admitted,
        rejected: acc.rejected,
        recruitment_cost_usd: service.cost_per_participant() * n as f64,
        recruitment_duration_secs: if n == 0 { 0.0 } else { service.arrival(n - 1).as_secs_f64() },
        votes_cast: acc.cast,
        votes_skipped: acc.skipped,
        behavior: acc.behavior.clone(),
        filters: acc.filters,
        controls: acc.controls,
    };
    for (a, b) in digest.stimuli.iter_mut().zip(&acc.stimuli) {
        a.merge(b)?;
    }
    Ok(digest)
}

/// How a checkpointed A/B run ended.
#[derive(Debug)]
pub enum AbRunOutcome {
    /// Ran to its natural end.
    Complete(Box<AbDigest>),
    /// The observer interrupted at a barrier.
    Interrupted(Box<AbCheckpoint>),
}

/// Fold the participant index range `[lo, hi)` of an A/B campaign into
/// a mergeable worker checkpoint — the A/B counterpart of
/// [`timeline_worker_checkpoint`].
#[allow(clippy::too_many_arguments)] // mirrors the engine entry points it wraps
pub fn ab_worker_checkpoint(
    stimuli: &[AbStimulus],
    service: &dyn RecruitmentService,
    lo: usize,
    hi: usize,
    cfg: &ExperimentConfig,
    filters: &[Box<dyn ParticipantFilter + Send + Sync>],
    seed: Seed,
    sc: &StreamConfig,
) -> Result<AbCheckpoint, CheckpointError> {
    if stimuli.is_empty() {
        return Err(CheckpointError::Config { detail: "campaign needs stimuli".to_string() });
    }
    if lo > hi {
        return Err(CheckpointError::Config {
            detail: format!("inverted worker range [{lo}, {hi})"),
        });
    }
    let _t = eyeorg_obs::phase_timer("core.worker_checkpoint");
    let threads = resolve_threads(cfg.threads);
    let shard = sc.shard_size.max(1);
    let ctx = FlatAbCtx::new(stimuli, service, cfg, filters, seed, threads);
    let admitted_before =
        admitted_bases_range(0, lo, shard, threads, &ctx.pop, ctx.recruit_seed, 0).1;
    let (folds, _) = flat_ab_epoch(&ctx, lo, hi, threads, shard, admitted_before);
    let mut acc = AbShard::new(stimuli);
    for fold in &folds {
        acc.merge_from(fold);
    }
    Ok(AbCheckpoint {
        range_lo: lo as u64,
        range_hi: hi as u64,
        admitted_before,
        acc,
        counters: CounterState::capture(threads),
    })
}

fn validate_ab_resume(
    resume: &AbCheckpoint,
    stimuli: &[AbStimulus],
    n_participants: usize,
) -> Result<(), CheckpointError> {
    if resume.range_lo != 0 {
        return Err(CheckpointError::PartialRange { lo: resume.range_lo });
    }
    if resume.range_hi > n_participants as u64 {
        return Err(CheckpointError::Config {
            detail: format!(
                "checkpoint covers {} participants, target is {n_participants}",
                resume.range_hi
            ),
        });
    }
    // Probe-merge against a fresh accumulator (names), as on the
    // timeline side.
    let mut probe = AbShard::new(stimuli);
    if probe.stimuli.len() != resume.acc.stimuli.len() {
        return Err(MergeError::StimulusCount {
            left: probe.stimuli.len(),
            right: resume.acc.stimuli.len(),
        }
        .into());
    }
    for (a, b) in probe.stimuli.iter_mut().zip(&resume.acc.stimuli) {
        a.merge(b)?;
    }
    Ok(())
}

/// Run an A/B campaign with checkpoint/resume: the
/// observer sees a checkpoint every [`CheckpointConfig::every_shards`]
/// shards and can interrupt by returning `false`; resuming replays only
/// the remaining range, byte-identical to never stopping. Same obs
/// contract as [`checkpointed_timeline_campaign`].
#[allow(clippy::too_many_arguments)] // mirrors the engine entry points it wraps
pub fn checkpointed_ab_campaign(
    stimuli: &[AbStimulus],
    service: &dyn RecruitmentService,
    n_participants: usize,
    cfg: &ExperimentConfig,
    filters: &[Box<dyn ParticipantFilter + Send + Sync>],
    seed: Seed,
    sc: &StreamConfig,
    resume: Option<&AbCheckpoint>,
    ck: &CheckpointConfig,
    observer: &mut dyn FnMut(&AbCheckpoint) -> bool,
) -> Result<AbRunOutcome, CheckpointError> {
    if stimuli.is_empty() {
        return Err(CheckpointError::Config { detail: "campaign needs stimuli".to_string() });
    }
    let _t = eyeorg_obs::phase_timer("core.checkpointed_ab");
    let threads = resolve_threads(cfg.threads);
    let shard = sc.shard_size.max(1);
    let chunk = ck.every_shards.max(1).saturating_mul(shard);
    let ctx = FlatAbCtx::new(stimuli, service, cfg, filters, seed, threads);
    let (mut acc, mut processed) = match resume {
        None => (AbShard::new(stimuli), 0usize),
        Some(c) => {
            validate_ab_resume(c, stimuli, n_participants)?;
            c.restore_counters();
            (c.acc.clone(), c.range_hi as usize)
        }
    };
    let mut admitted = acc.admitted;
    while processed < n_participants {
        let hi = processed.saturating_add(chunk).min(n_participants);
        let (folds, range_admitted) =
            flat_ab_epoch(&ctx, processed, hi, threads, shard, admitted);
        for fold in &folds {
            acc.merge_from(fold);
        }
        admitted += range_admitted;
        processed = hi;
        let ckpt = AbCheckpoint {
            range_lo: 0,
            range_hi: processed as u64,
            admitted_before: 0,
            acc: acc.clone(),
            counters: CounterState::capture(threads),
        };
        if !observer(&ckpt) {
            return Ok(AbRunOutcome::Interrupted(Box::new(ckpt)));
        }
    }
    let digest = merge_ab_shards(stimuli, service, n_participants, std::slice::from_ref(&acc));
    Ok(AbRunOutcome::Complete(Box::new(digest)))
}
