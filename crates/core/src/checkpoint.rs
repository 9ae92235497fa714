//! Checkpoint/resume and multi-process merge for the sharded engine.
//!
//! A checkpoint is the full accumulator state of a campaign over a
//! participant index range `[range_lo, range_hi)` — every per-stimulus
//! digest, the behaviour moments, the filter/control tallies, the shard
//! totals, the adaptive driver's mask/decision state (timeline driver
//! checkpoints only), and the obs counter totals at the barrier —
//! serialized as versioned JSONL through the vendored serde shim, so
//! the format is hermetic and byte-stable. The contract is strict
//! **byte-identity**: `load(save(state))` reproduces the same digest
//! fingerprint and counter fingerprint as the uninterrupted run, at any
//! shard size and thread count (pinned by `checkpoint_roundtrip` tests,
//! including hashes of the v1 bytes, and the `merge_digests` verify
//! gates).
//!
//! [`Checkpoint`] is written once over the test-kind trait
//! (`crate::kind::CampaignKind`); [`TimelineCheckpoint`] and
//! [`AbCheckpoint`] are its two instances. Three workflows build on it:
//!
//! * **Resume** — [`checkpointed_timeline_campaign`] /
//!   [`checkpointed_ab_campaign`] consult an observer at every shard
//!   barrier; a `false` return interrupts the run and hands back a
//!   checkpoint, and a later call with `resume` replays only the
//!   remaining index range, byte-identical to never stopping.
//! * **Multi-process merge** — [`timeline_worker_checkpoint`] /
//!   [`ab_worker_checkpoint`] fold a disjoint index range in an
//!   independent process; [`Checkpoint::merge`] stitches the written
//!   files back together (range-adjacency and admitted-index
//!   continuity checked), and [`Checkpoint::finalize`] yields the
//!   single-run digest.
//! * **Live mode** — the timeline driver emits an incremental JSONL
//!   line per barrier ([`CheckpointEvent::Live`]) with per-stimulus UPLT
//!   percentile/CI read-outs; the final line equals the end-of-run
//!   digest's read-outs ([`live_line_from_digest`]).
//!
//! ## Format (version 1)
//!
//! One JSON object per line. Timeline files are `S + 6` lines (header,
//! totals, behaviour, `S` stimulus lines, drive, counters, end); A/B
//! files are `S + 5` (no drive line). Every body line is the serde form
//! of the state it carries — the kind's totals type, `BehaviorDigest`,
//! the kind's per-stimulus accumulator, [`CounterState`] — and the
//! accumulators serialize their `eyeorg_stats` state types: floats as
//! `f64::to_bits()` integers (canonical — `±inf` sentinels and `-0.0`
//! round-trip exactly), the `Moments` fixed-point sums through the
//! shim's `i128` lane as decimal strings. The header pins the
//! [`DigestParams`] the accumulators were built with; loading validates
//! every per-stimulus state against it. See DESIGN.md §3i.
//!
//! ## Error discipline
//!
//! Checkpoint bytes are **untrusted input**: every malformed,
//! truncated, or inconsistent file surfaces as a typed
//! [`CheckpointError`] — never a panic. Accumulators decode only
//! through the validating `from_state` constructors of `eyeorg_stats`,
//! and untrusted state is combined only through the one fallible shard
//! merge, which rejects identity/config mismatches and counter
//! overflow alike with a [`MergeError`]: `merge` and `finalize` run it
//! directly, and resume merges the loaded state into a freshly built
//! shard, then continues the epoch loop on that same fallible merge.
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
use eyeorg_stats::{resolve_threads, Seed};
use serde::{Deserialize, Serialize, Value};

use crate::adaptive::{
    drive_resumable, AdaptiveBackend, AdaptiveOutcome, DriveEnd, DriveState, StopCause,
    StopDecision, ADAPTIVE_Z,
};
use crate::digest::{AbDigest, DigestParams, MergeError, StimulusDigest, TimelineDigest};
use crate::experiment::{AbStimulus, AdaptiveConfig, ExperimentConfig, TimelineStimulus};
use crate::filtering::ParticipantFilter;
use crate::flat::{admitted_bases_range, epoch, StreamConfig};
use crate::kind::{finish, Ab, CampaignKind, Ctx, Shard, Timeline};

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
    /// A line was not the JSON object the format expects — including
    /// an accumulator state its validating `from_state` rejected.
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
    /// An accumulator disagrees with the header's digest params.
    State {
        /// 1-based line number.
        line: usize,
        /// The validator's message.
        detail: String,
    },
    /// Two accumulators refused to merge (identity/config mismatch, or
    /// a counter overflow).
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
// The line shapes no state type carries (the on-disk schema, version 1)
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

/// A [`StopDecision`]: the half-width as `to_bits()`, the cause as a
/// tag.
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

#[derive(Serialize, Deserialize)]
struct EndLine {
    end: String,
}

/// Compact one-line JSON. The vendored writer is total (non-finite
/// floats never occur here: every float is carried as `to_bits()`
/// integers), so the `Result` is vacuous.
fn json_line(v: &dyn Serialize) -> String {
    serde_json::to_string(v).unwrap_or_default()
}

fn parse_line<T: Deserialize>(s: &str, line: usize) -> Result<T, CheckpointError> {
    serde_json::from_str::<T>(s)
        .map_err(|e| CheckpointError::Parse { line, detail: e.to_string() })
}

// ---------------------------------------------------------------------
// Counter state
// ---------------------------------------------------------------------

/// The deterministic sections of an obs snapshot (counters, labeled
/// counters, histograms) as plain maps — what a checkpoint records (its
/// serde form is the counters line) and what `eyeorg_obs::restore`
/// re-applies on resume. See the module docs for the reset/restore
/// contract.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
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
}

// ---------------------------------------------------------------------
// Checkpoints
// ---------------------------------------------------------------------

/// The adaptive driver's inter-epoch state as carried by a timeline
/// driver checkpoint (mask, barrier count, decision log).
#[derive(Debug, Clone)]
struct DriveCkpt {
    live: Vec<bool>,
    epochs: u64,
    stopped_at: Vec<Option<u64>>,
    decisions: Vec<StopDecision>,
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

impl DriveCkpt {
    fn to_line(&self) -> AdaptiveLine {
        AdaptiveLine {
            live: self.live.clone(),
            epochs: self.epochs,
            stopped_at: self.stopped_at.clone(),
            decisions: self
                .decisions
                .iter()
                .map(|d| DecisionLine {
                    epoch: d.epoch,
                    stimulus: d.stimulus,
                    name: d.name.clone(),
                    retained: d.retained,
                    half_width: d.half_width.to_bits(),
                    cause: stop_cause_tag(d.cause).to_string(),
                })
                .collect(),
        }
    }

    /// Decode the drive line (1-based `line`) of a file with `stimuli`
    /// stimuli.
    fn of_line(a: AdaptiveLine, stimuli: usize, line: usize) -> Result<DriveCkpt, CheckpointError> {
        if a.live.len() != stimuli || a.stopped_at.len() != stimuli {
            return Err(CheckpointError::Format {
                line,
                detail: format!(
                    "drive state sized for {} stimuli, header has {stimuli}",
                    a.live.len().max(a.stopped_at.len())
                ),
            });
        }
        let mut decisions = Vec::with_capacity(a.decisions.len());
        for d in a.decisions {
            if d.stimulus >= stimuli {
                return Err(CheckpointError::Format {
                    line,
                    detail: format!("decision names stimulus {} of {stimuli}", d.stimulus),
                });
            }
            decisions.push(StopDecision {
                epoch: d.epoch,
                stimulus: d.stimulus,
                name: d.name,
                retained: d.retained,
                half_width: f64::from_bits(d.half_width),
                cause: stop_cause_of(&d.cause, line)?,
            });
        }
        Ok(DriveCkpt { live: a.live, epochs: a.epochs, stopped_at: a.stopped_at, decisions })
    }
}

/// A campaign's accumulator state over `[range_lo, range_hi)`, for
/// either test kind ([`TimelineCheckpoint`], [`AbCheckpoint`]).
///
/// Timeline checkpoints come in two flavours: **driver** checkpoints
/// (`range_lo = 0`, drive state present — what
/// [`checkpointed_timeline_campaign`] emits and resumes from) and
/// **worker** checkpoints (any range, no drive state — what
/// [`timeline_worker_checkpoint`] emits and [`merge`](Checkpoint::merge)
/// stitches together). A/B runs have no adaptive driver, so every A/B
/// checkpoint is both resumable and mergeable.
#[derive(Debug)]
pub struct Checkpoint<K: CampaignKind> {
    params: DigestParams,
    range_lo: u64,
    range_hi: u64,
    admitted_before: u64,
    acc: Shard<K>,
    drive: Option<DriveCkpt>,
    counters: CounterState,
}

/// A timeline campaign's checkpoint.
pub type TimelineCheckpoint = Checkpoint<Timeline>;

/// An A/B campaign's checkpoint.
pub type AbCheckpoint = Checkpoint<Ab>;

/// A checkpoint document's non-empty lines, parsed front to back.
struct Doc<'a> {
    lines: std::vec::IntoIter<&'a str>,
    /// Lines parsed so far.
    at: usize,
    /// Lines in the document.
    found: usize,
}

impl Doc<'_> {
    /// Parse the next line as a `T`; returns it with its 1-based line
    /// number.
    fn parse_next<T: Deserialize>(&mut self) -> Result<(T, usize), CheckpointError> {
        let line = self.at + 1;
        let Some(text) = self.lines.next() else {
            return Err(CheckpointError::Truncated { expected: line, found: self.found });
        };
        self.at = line;
        Ok((parse_line(text, line)?, line))
    }
}

/// Split a document into its non-empty lines, then parse and validate
/// the header of a `kind` checkpoint of `stimuli + extra_lines` lines.
fn open_doc<'a>(
    text: &'a str,
    kind: &str,
    extra_lines: usize,
) -> Result<(Doc<'a>, HeaderLine), CheckpointError> {
    let lines: Vec<&str> = text.lines().filter(|l| !l.trim().is_empty()).collect();
    if lines.is_empty() {
        return Err(CheckpointError::Truncated { expected: 1, found: 0 });
    }
    let found = lines.len();
    let mut doc = Doc { lines: lines.into_iter(), at: 0, found };
    let (h, _): (HeaderLine, _) = doc.parse_next()?;
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
    if found < expected {
        return Err(CheckpointError::Truncated { expected, found });
    }
    if found > expected {
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
    Ok((doc, h))
}

impl<K: CampaignKind> Checkpoint<K> {
    /// The index range `[lo, hi)` this checkpoint covers.
    pub fn range(&self) -> (u64, u64) {
        (self.range_lo, self.range_hi)
    }

    /// The [`DigestParams`] the accumulators were built under (all zero
    /// for A/B checkpoints, whose digests carry no histogram or sketch).
    pub fn params(&self) -> DigestParams {
        self.params
    }

    /// Gate admissions in `[0, range_lo)` — the admitted-index base a
    /// worker range folded under (0 for driver checkpoints).
    pub fn admitted_before(&self) -> u64 {
        self.admitted_before
    }

    /// Whether this checkpoint can seed a resume: timeline worker
    /// checkpoints lack the epoch-loop state and can only be merged.
    pub fn is_resumable(&self) -> bool {
        self.drive.is_some() || !K::DRIVE_LINE
    }

    /// Re-apply the recorded obs totals (see the module-docs contract).
    pub fn restore_counters(&self) {
        self.counters.restore();
    }

    /// Serialize to the versioned JSONL format (ends with a newline).
    pub fn save(&self) -> String {
        let stimuli = self.acc.stimuli.len();
        let header = HeaderLine {
            format: FORMAT_TAG.to_string(),
            version: CHECKPOINT_VERSION,
            kind: K::TAG.to_string(),
            hist_bins: self.params.hist_bins,
            sketch_bins: self.params.sketch_bins,
            exact_cap: self.params.exact_cap,
            range_lo: self.range_lo,
            range_hi: self.range_hi,
            admitted_before: self.admitted_before,
            stimuli,
            lines: stimuli + 5 + usize::from(K::DRIVE_LINE),
        };
        let mut out = String::new();
        let mut put = |v: &dyn Serialize| {
            out.push_str(&json_line(v));
            out.push('\n');
        };
        put(&header);
        put(&self.acc.totals);
        put(&self.acc.behavior);
        for s in &self.acc.stimuli {
            put(s);
        }
        if K::DRIVE_LINE {
            put(&DriveLine { adaptive: self.drive.as_ref().map(DriveCkpt::to_line) });
        }
        put(&self.counters);
        put(&EndLine { end: FORMAT_TAG.to_string() });
        out
    }

    /// Parse and validate a serialized checkpoint. `load(save(state))`
    /// is bit-identical to `state`; any malformed input comes back as a
    /// typed [`CheckpointError`], never a panic.
    // lint:entrypoint(untrusted)
    pub fn load(text: &str) -> Result<Checkpoint<K>, CheckpointError> {
        let (mut doc, h) = open_doc(text, K::TAG, 5 + usize::from(K::DRIVE_LINE))?;
        let params = DigestParams {
            hist_bins: h.hist_bins,
            sketch_bins: h.sketch_bins,
            exact_cap: h.exact_cap,
        };
        let (totals, _) = doc.parse_next()?;
        let (behavior, _) = doc.parse_next()?;
        let mut stimuli = Vec::with_capacity(h.stimuli);
        for _ in 0..h.stimuli {
            let (acc, line) = doc.parse_next()?;
            K::check_acc(&acc, &params).map_err(|detail| CheckpointError::State { line, detail })?;
            stimuli.push(acc);
        }
        let drive = if K::DRIVE_LINE {
            let (dl, line): (DriveLine, _) = doc.parse_next()?;
            dl.adaptive.map(|a| DriveCkpt::of_line(a, h.stimuli, line)).transpose()?
        } else {
            None
        };
        let (counters, _) = doc.parse_next()?;
        let (end, line): (EndLine, _) = doc.parse_next()?;
        if end.end != FORMAT_TAG {
            return Err(CheckpointError::Format { line, detail: "bad end marker".to_string() });
        }
        Ok(Checkpoint {
            params,
            range_lo: h.range_lo,
            range_hi: h.range_hi,
            admitted_before: h.admitted_before,
            acc: Shard { stimuli, behavior, totals },
            drive,
            counters,
        })
    }

    /// Append an adjacent worker checkpoint's range. Checks digest
    /// params, range adjacency, and admitted-index continuity, then
    /// merges the accumulators through the fallible shard merge
    /// (identity, config, and counter overflow) into a copy, so a
    /// failed merge leaves `self` unchanged. Timeline driver
    /// checkpoints refuse to merge (their drive state is not
    /// rangewise-composable).
    // lint:entrypoint(untrusted)
    pub fn merge(&mut self, other: &Checkpoint<K>) -> Result<(), CheckpointError> {
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
        let expected = self.admitted_before.saturating_add(K::gate_admitted(&self.acc.totals));
        if other.admitted_before != expected {
            return Err(CheckpointError::AdmittedGap { expected, found: other.admitted_before });
        }
        let mut acc = self.acc.clone();
        acc.merge(&other.acc)?;
        self.acc = acc;
        self.counters.merge_from(&other.counters);
        self.range_hi = other.range_hi;
        Ok(())
    }

    /// Produce the final digest of a complete (`range_lo = 0`)
    /// checkpoint — byte-identical to the digest the uninterrupted
    /// single-process run of `range_hi` participants returns.
    pub fn finalize(
        &self,
        stimuli: &[K::Stimulus],
        service: &dyn RecruitmentService,
    ) -> Result<K::Digest, CheckpointError> {
        if self.range_lo != 0 {
            return Err(CheckpointError::PartialRange { lo: self.range_lo });
        }
        let acc = std::slice::from_ref(&self.acc);
        Ok(finish(stimuli, service, self.range_hi, &self.params, acc)?)
    }

    /// Validate this checkpoint as the start of a run over `stimuli`
    /// with `budget` participants and accumulator sizing `params`,
    /// restore its obs totals, and return the epoch loop's state. The
    /// untrusted accumulators enter that state only through the
    /// fallible shard merge (into a freshly built shard), and the
    /// counts the loop does arithmetic on are bounded by the
    /// participants processed.
    fn resume(
        &self,
        stimuli: &[K::Stimulus],
        budget: usize,
        params: &DigestParams,
    ) -> Result<DriveState<K>, CheckpointError> {
        if self.params != K::params(params) {
            return Err(CheckpointError::ParamsMismatch {
                detail: format!("checkpoint {:?} vs run {:?}", self.params, K::params(params)),
            });
        }
        if self.range_lo != 0 {
            return Err(CheckpointError::PartialRange { lo: self.range_lo });
        }
        let processed = self.range_hi;
        if processed > budget as u64 {
            return Err(CheckpointError::Config {
                detail: format!("checkpoint covers {processed} participants, budget is {budget}"),
            });
        }
        if !self.is_resumable() {
            return Err(CheckpointError::Config {
                detail: "a worker checkpoint cannot seed a resume (no drive state)".to_string(),
            });
        }
        let admitted = K::gate_admitted(&self.acc.totals);
        if admitted > processed {
            return Err(CheckpointError::Config {
                detail: format!("checkpoint admits {admitted} of {processed} participants"),
            });
        }
        let mut st = DriveState::fresh(stimuli, params);
        st.acc.merge(&self.acc)?;
        st.admitted = admitted;
        st.processed = processed as usize;
        if let Some(d) = &self.drive {
            if d.live.len() != stimuli.len() || d.stopped_at.len() != stimuli.len() {
                return Err(CheckpointError::Config {
                    detail: format!(
                        "drive state sized for {} stimuli, run has {}",
                        d.live.len().max(d.stopped_at.len()),
                        stimuli.len()
                    ),
                });
            }
            if d.epochs > processed {
                return Err(CheckpointError::Config {
                    detail: format!("{} epochs over {processed} participants", d.epochs),
                });
            }
            st.live = d.live.clone();
            st.epochs = d.epochs;
            st.decisions = d.decisions.clone();
            st.stopped_at = d.stopped_at.clone();
        }
        self.restore_counters();
        Ok(st)
    }
}

/// A driver checkpoint of the epoch loop's current state (obs totals
/// captured from the live registry).
fn driver_ckpt<K: CampaignKind>(
    params: &DigestParams,
    st: &DriveState<K>,
    threads: usize,
) -> Checkpoint<K> {
    Checkpoint {
        params: K::params(params),
        range_lo: 0,
        range_hi: st.processed as u64,
        admitted_before: 0,
        acc: st.acc.clone(),
        drive: K::DRIVE_LINE.then(|| DriveCkpt {
            live: st.live.clone(),
            epochs: st.epochs,
            stopped_at: st.stopped_at.clone(),
            decisions: st.decisions.clone(),
        }),
        counters: CounterState::capture(threads),
    }
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

/// How a checkpointed A/B run ended.
#[derive(Debug)]
pub enum AbRunOutcome {
    /// Ran to its natural end.
    Complete(Box<AbDigest>),
    /// The observer interrupted at a barrier.
    Interrupted(Box<AbCheckpoint>),
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
    let resume_state = resume.map(|c| c.resume(stimuli, budget, &sc.params)).transpose()?;

    let end = {
        let mut barrier = |st: &DriveState<Timeline>| -> bool {
            let t = &st.acc.totals;
            let live = live_line(
                &st.acc.stimuli,
                t.admitted,
                t.collected,
                t.skipped,
                t.filters.kept,
                st.processed as u64,
                budget as u64,
                false,
            );
            observer(CheckpointEvent::Live(&live));
            observer(CheckpointEvent::Checkpoint(&driver_ckpt(&sc.params, st, threads)))
        };
        let AdaptiveBackend::Flat = backend;
        let ctx = Ctx::<Timeline>::new(stimuli, service, cfg, filters, seed, sc.params, threads);
        drive_resumable(
            stimuli,
            service,
            budget,
            sc,
            &eff_ac,
            resume_state,
            &mut barrier,
            |lo, hi, base, live| epoch(&ctx, lo, hi, threads, shard, base, live),
        )?
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
            Ok(RunOutcome::Interrupted(Box::new(driver_ckpt(&sc.params, &st, threads))))
        }
    }
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
    let ctx = Ctx::<Ab>::new(stimuli, service, cfg, filters, seed, sc.params, threads);
    let mut st = match resume {
        None => DriveState::fresh(stimuli, &sc.params),
        Some(c) => c.resume(stimuli, n_participants, &sc.params)?,
    };
    while st.processed < n_participants {
        let hi = st.processed.saturating_add(chunk).min(n_participants);
        let (folds, range_admitted) =
            epoch(&ctx, st.processed, hi, threads, shard, st.admitted, &st.live);
        for fold in &folds {
            st.acc.merge(fold)?;
        }
        st.admitted += range_admitted;
        st.processed = hi;
        let ckpt = driver_ckpt(&sc.params, &st, threads);
        if !observer(&ckpt) {
            return Ok(AbRunOutcome::Interrupted(Box::new(ckpt)));
        }
    }
    let acc = std::slice::from_ref(&st.acc);
    let digest = finish(stimuli, service, n_participants as u64, &sc.params, acc)?;
    Ok(AbRunOutcome::Complete(Box::new(digest)))
}

// ---------------------------------------------------------------------
// Worker checkpoints (multi-process split)
// ---------------------------------------------------------------------

/// Fold the index range `[lo, hi)` into a mergeable worker checkpoint;
/// see [`timeline_worker_checkpoint`].
#[allow(clippy::too_many_arguments)] // mirrors the engine entry points it wraps
fn worker_checkpoint<K: CampaignKind>(
    stimuli: &[K::Stimulus],
    service: &dyn RecruitmentService,
    lo: usize,
    hi: usize,
    cfg: &ExperimentConfig,
    filters: &[Box<dyn ParticipantFilter + Send + Sync>],
    seed: Seed,
    sc: &StreamConfig,
) -> Result<Checkpoint<K>, CheckpointError> {
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
    let ctx = Ctx::<K>::new(stimuli, service, cfg, filters, seed, sc.params, threads);
    let admitted_before =
        admitted_bases_range(0, lo, shard, threads, &ctx.pop, ctx.recruit_seed, 0).1;
    let live = vec![true; stimuli.len()];
    let (folds, _) = epoch(&ctx, lo, hi, threads, shard, admitted_before, &live);
    let mut acc = Shard::new(stimuli, &sc.params);
    for fold in &folds {
        acc.merge(fold)?;
    }
    Ok(Checkpoint {
        params: K::params(&sc.params),
        range_lo: lo as u64,
        range_hi: hi as u64,
        admitted_before,
        acc,
        drive: None,
        counters: CounterState::capture(threads),
    })
}

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
    worker_checkpoint(stimuli, service, lo, hi, cfg, filters, seed, sc)
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
    worker_checkpoint(stimuli, service, lo, hi, cfg, filters, seed, sc)
}
