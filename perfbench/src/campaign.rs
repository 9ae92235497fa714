//! The `campaign_1m` and `checkpoint_resume` workloads: one crowd of a
//! million participants over 20 captured sites, through the flat engine
//! and through the checkpointed drivers. Both produce the same digests,
//! so they share their pinned fingerprints.

use eyeorg_bench::campaigns::{capture_browser, protocol_capture_browser};
use eyeorg_core::prelude::*;
use eyeorg_crowd::CrowdFlower;
use eyeorg_obs::RunReport;
use eyeorg_stats::Seed;
use eyeorg_video::{shared_capture_cache, CaptureConfig};
use eyeorg_workload::alexa_like;

use crate::trace::Cx;
use crate::{sys, PassOut, Size, Workload};

/// The default-seed, full-size digests and obs counters (timeline-A/B
/// each), as [`digest_fingerprint`] and [`counter_fingerprint`] render
/// them.
const PINNED_2016: (&str, &str) = (
    "411c45d831a2564a-31bb4983bebb1afd",
    "6489b9c6316eaa10-e6c696c305686322",
);

/// The headline engine's shard size (`perf_scale`'s `FULL_SHARD`).
const SHARD: usize = 512;

/// Crowd, sites and capture repeats at each size.
struct Dims {
    participants: usize,
    sites: usize,
    repeats: usize,
}

fn dims(size: Size) -> Dims {
    match size {
        Size::Full => Dims {
            participants: 1_000_000,
            sites: 20,
            repeats: 5,
        },
        Size::Small => Dims {
            participants: 20_000,
            sites: 4,
            repeats: 2,
        },
    }
}

/// Inputs and seeds shared by both workloads.
struct Inputs {
    seed: Seed,
    dims: Dims,
    tl: Vec<TimelineStimulus>,
    ab: Vec<AbStimulus>,
}

impl Inputs {
    fn new(size: Size, seed: u64) -> Inputs {
        Inputs {
            seed: Seed(seed).derive("campaign"),
            dims: dims(size),
            tl: Vec::new(),
            ab: Vec::new(),
        }
    }

    /// Capture the sites cold: timeline videos and H1/H2 pairs.
    fn capture(&mut self) {
        shared_capture_cache().clear();
        let sites = alexa_like(
            crate::SITES_SEED.derive("campaign").derive("sites"),
            self.dims.sites,
        );
        let capture = CaptureConfig {
            repeats: self.dims.repeats,
            ..CaptureConfig::default()
        };
        self.tl = timeline_stimuli(
            &sites,
            &capture_browser(),
            &capture,
            self.seed.derive("tl-cap"),
        );
        self.ab = protocol_ab_stimuli(
            &sites,
            &protocol_capture_browser(),
            &capture,
            self.seed.derive("ab-cap"),
        );
    }

    fn stream_config() -> StreamConfig {
        StreamConfig {
            shard_size: SHARD,
            ..StreamConfig::default()
        }
    }

    /// Both campaigns through the flat engine.
    fn flat(&self, cx: Cx) -> (TimelineDigest, AbDigest, Option<Vec<RunReport>>) {
        let n = self.dims.participants;
        let cfg = ExperimentConfig::default();
        let filters = paper_pipeline();
        let sc = Inputs::stream_config();
        let mut reports = eyeorg_obs::enabled().then(Vec::new);
        let tl = cx.span_cpu("core.engine.flat_timeline", |_| {
            flat_timeline_campaign(
                &self.tl,
                &CrowdFlower,
                n,
                &cfg,
                &filters,
                self.seed.derive("tl-run"),
                &sc,
            )
        });
        segment_done(&mut reports);
        let ab = cx.span_cpu("core.engine.flat_ab", |_| {
            flat_ab_campaign(
                &self.ab,
                &CrowdFlower,
                n,
                &cfg,
                &filters,
                self.seed.derive("ab-run"),
                &sc,
            )
        });
        segment_done(&mut reports);
        (tl, ab, reports)
    }
}

/// Close one obs segment: snapshot the registry and reset it.
fn segment_done(reports: &mut Option<Vec<RunReport>>) {
    if let Some(r) = reports {
        r.push(eyeorg_obs::snapshot("perfbench", sys::auto_pool()));
        eyeorg_obs::reset();
    }
}

/// The pass fingerprint of both workloads.
fn digest_fingerprint(tl: &TimelineDigest, ab: &AbDigest) -> String {
    format!(
        "{}-{}",
        sys::fnv_hex(tl.fingerprint().as_bytes()),
        sys::fnv_hex(ab.fingerprint().as_bytes())
    )
}

/// The counter fingerprint of per-campaign obs segments, and the sum of
/// their counters and labeled counters (the layer metrics' view of the
/// pass; these passes load no pages, so they record no histograms).
fn counter_fingerprint(segments: &[RunReport]) -> (RunReport, String) {
    let fp = segments
        .iter()
        .map(|r| sys::fnv_hex(r.counter_fingerprint().as_bytes()))
        .collect::<Vec<_>>()
        .join("-");
    let mut sum = segments[0].clone();
    for r in &segments[1..] {
        for (k, v) in &r.counters {
            *sum.counters.entry(k.clone()).or_default() += v;
        }
        for (k, cells) in &r.labeled {
            let into = sum.labeled.entry(k.clone()).or_default();
            for (label, v) in cells {
                *into.entry(label.clone()).or_default() += v;
            }
        }
    }
    (sum, fp)
}

/// `campaign_1m`: a 1,000,000-participant timeline campaign through
/// `flat_timeline_campaign` (shard 512, `paper_pipeline()`), then an
/// A/B campaign of the same crowd size through `flat_ab_campaign`.
pub struct Campaign1m {
    inputs: Inputs,
}

impl Campaign1m {
    /// The workload at `size` for `seed`.
    pub fn new(size: Size, seed: u64) -> Campaign1m {
        Campaign1m {
            inputs: Inputs::new(size, seed),
        }
    }
}

impl Workload for Campaign1m {
    fn setup(&mut self) {
        self.inputs.capture();
    }

    fn pass(&self, cx: Cx) -> Result<PassOut, String> {
        let (tl, ab, reports) = self.inputs.flat(cx);
        let n = self.inputs.dims.participants as u64;
        if tl.recruited != n || ab.recruited != n {
            return Err(format!(
                "recruited {} + {} of {n} each",
                tl.recruited, ab.recruited
            ));
        }
        let mut out = PassOut {
            fingerprint: digest_fingerprint(&tl, &ab),
            participants: 2 * n,
            obs: reports.map(|r| counter_fingerprint(&r)),
            ..PassOut::default()
        };
        out.layer.insert("core.engine.participants", (2 * n) as f64);
        out.layer
            .insert("core.digest.retained_bytes", tl.retained_bytes() as f64);
        Ok(out)
    }

    fn pins(&self) -> Option<(&'static str, &'static str)> {
        Some(PINNED_2016)
    }
}

/// `checkpoint_resume`: the same crowd through
/// `checkpointed_timeline_campaign` (inactive `AdaptiveConfig`, flat
/// backend) and `checkpointed_ab_campaign`, default `CheckpointConfig`.
/// The observer saves every checkpoint to a string and consumes the
/// live lines; the pass then loads the midpoint checkpoint and resumes
/// it to completion, which must land on the uninterrupted digest (and
/// counters, when obs is on).
pub struct CheckpointResume {
    inputs: Inputs,
}

impl CheckpointResume {
    /// The workload at `size` for `seed`.
    pub fn new(size: Size, seed: u64) -> CheckpointResume {
        CheckpointResume {
            inputs: Inputs::new(size, seed),
        }
    }
}

/// What one campaign's observer keeps: the uninterrupted run's midpoint
/// checkpoint — its first barrier at or past half the crowd — and byte
/// and line counts over the uninterrupted and the resumed run.
struct SaveLog {
    half: u64,
    midpoint: Option<String>,
    taken: bool,
    bytes: u64,
    live_lines: u64,
}

impl SaveLog {
    fn new(participants: u64) -> SaveLog {
        SaveLog {
            half: participants / 2,
            midpoint: None,
            taken: false,
            bytes: 0,
            live_lines: 0,
        }
    }

    fn saved(&mut self, range_hi: u64, text: String) {
        self.bytes += text.len() as u64;
        if !self.taken && self.midpoint.is_none() && range_hi >= self.half {
            self.midpoint = Some(text);
        }
    }

    fn take_midpoint(&mut self) -> Result<String, String> {
        self.taken = true;
        self.midpoint
            .take()
            .ok_or_else(|| "the run emitted no midpoint checkpoint".to_owned())
    }
}

fn err(e: CheckpointError) -> String {
    format!("checkpoint: {e}")
}

impl CheckpointResume {
    fn timeline(
        &self,
        cx: Cx,
        resume: Option<&TimelineCheckpoint>,
        log: &mut SaveLog,
    ) -> Result<TimelineDigest, String> {
        let i = &self.inputs;
        let outcome = checkpointed_timeline_campaign(
            &i.tl,
            &CrowdFlower,
            i.dims.participants,
            &ExperimentConfig::default(),
            &paper_pipeline(),
            i.seed.derive("tl-run"),
            &Inputs::stream_config(),
            &AdaptiveConfig::default(),
            AdaptiveBackend::Flat,
            resume,
            &CheckpointConfig::default(),
            &mut |ev| {
                match ev {
                    CheckpointEvent::Live(line) => {
                        log.live_lines += 1;
                        std::hint::black_box(line);
                    }
                    CheckpointEvent::Checkpoint(c) => {
                        let text = cx.span("core.checkpoint.save", |_| c.save());
                        log.saved(c.range().1, text);
                    }
                }
                true
            },
        )
        .map_err(err)?;
        match outcome {
            RunOutcome::Complete(o) => Ok(o.digest),
            RunOutcome::Interrupted(_) => Err("timeline run interrupted".to_owned()),
        }
    }

    fn ab(
        &self,
        cx: Cx,
        resume: Option<&AbCheckpoint>,
        log: &mut SaveLog,
    ) -> Result<AbDigest, String> {
        let i = &self.inputs;
        let outcome = checkpointed_ab_campaign(
            &i.ab,
            &CrowdFlower,
            i.dims.participants,
            &ExperimentConfig::default(),
            &paper_pipeline(),
            i.seed.derive("ab-run"),
            &Inputs::stream_config(),
            resume,
            &CheckpointConfig::default(),
            &mut |c| {
                let text = cx.span("core.checkpoint.save", |_| c.save());
                log.saved(c.range().1, text);
                true
            },
        )
        .map_err(err)?;
        match outcome {
            AbRunOutcome::Complete(d) => Ok(*d),
            AbRunOutcome::Interrupted(_) => Err("A/B run interrupted".to_owned()),
        }
    }
}

impl Workload for CheckpointResume {
    fn setup(&mut self) {
        self.inputs.capture();
    }

    fn pass(&self, cx: Cx) -> Result<PassOut, String> {
        let n = self.inputs.dims.participants as u64;
        let obs = eyeorg_obs::enabled();
        let snapshot = || eyeorg_obs::snapshot("perfbench", sys::auto_pool()).counter_fingerprint();
        let mut segments = obs.then(Vec::new);
        let mut tl_log = SaveLog::new(n);
        let mut ab_log = SaveLog::new(n);
        let mut resume_s = 0.0;
        let mut resumed_participants = 0;

        let tl = cx.span_cpu("core.checkpoint.run_timeline", |cx| {
            self.timeline(cx, None, &mut tl_log)
        })?;
        let tl_counters = obs.then(snapshot);
        segment_done(&mut segments);
        let text = tl_log.take_midpoint()?;
        let t = sys::now();
        let ck = cx
            .span("core.checkpoint.load", |_| TimelineCheckpoint::load(&text))
            .map_err(err)?;
        let resumed = cx.span_cpu("core.checkpoint.resume_timeline", |cx| {
            self.timeline(cx, Some(&ck), &mut tl_log)
        })?;
        resume_s += t.elapsed().as_secs_f64();
        resumed_participants += n - ck.range().1;
        if resumed.fingerprint() != tl.fingerprint() {
            return Err("resumed timeline digest differs from the uninterrupted run".to_owned());
        }
        if obs && tl_counters != Some(snapshot()) {
            return Err("resumed timeline counters differ from the uninterrupted run".to_owned());
        }
        eyeorg_obs::reset();

        let ab = cx.span_cpu("core.checkpoint.run_ab", |cx| {
            self.ab(cx, None, &mut ab_log)
        })?;
        let ab_counters = obs.then(snapshot);
        segment_done(&mut segments);
        let text = ab_log.take_midpoint()?;
        let t = sys::now();
        let ck = cx
            .span("core.checkpoint.load", |_| AbCheckpoint::load(&text))
            .map_err(err)?;
        let resumed = cx.span_cpu("core.checkpoint.resume_ab", |cx| {
            self.ab(cx, Some(&ck), &mut ab_log)
        })?;
        resume_s += t.elapsed().as_secs_f64();
        resumed_participants += n - ck.range().1;
        if resumed.fingerprint() != ab.fingerprint() {
            return Err("resumed A/B digest differs from the uninterrupted run".to_owned());
        }
        if obs && ab_counters != Some(snapshot()) {
            return Err("resumed A/B counters differ from the uninterrupted run".to_owned());
        }

        let mut out = PassOut {
            fingerprint: digest_fingerprint(&tl, &ab),
            participants: 2 * n + resumed_participants,
            obs: segments.map(|s| counter_fingerprint(&s)),
            ..PassOut::default()
        };
        out.extra.insert(("resume_s", "s"), resume_s);
        let bytes = (tl_log.bytes + ab_log.bytes) as f64;
        out.extra.insert(("checkpoint_bytes", "bytes"), bytes);
        out.layer
            .insert("core.engine.participants", out.participants as f64);
        out.layer
            .insert("core.digest.retained_bytes", tl.retained_bytes() as f64);
        out.layer.insert("core.checkpoint.bytes", bytes);
        out.layer
            .insert("core.checkpoint.live_lines", tl_log.live_lines as f64);
        Ok(out)
    }

    /// The checkpointed digests must equal the flat engine's
    /// (`campaign_1m`'s) on the same inputs.
    fn check_once(&self, out: &PassOut) -> Result<(), String> {
        let (tl, ab, _) = self.inputs.flat(Cx::off());
        let flat = digest_fingerprint(&tl, &ab);
        if flat == out.fingerprint {
            Ok(())
        } else {
            Err(format!(
                "checkpointed digests {} != flat engine's {flat}",
                out.fingerprint
            ))
        }
    }

    fn pins(&self) -> Option<(&'static str, &'static str)> {
        Some(PINNED_2016)
    }
}
