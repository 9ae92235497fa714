//! The `reference_rows` workload: the materializing reference engine
//! at 10,000 participants, for a timeline and an A/B campaign, through
//! the row-level path the figures and the public dataset use —
//! campaign, filter, behaviour points and aggregates, dataset export
//! and JSON, then re-read and recompute from the dataset alone.

use eyeorg_bench::campaigns::{capture_browser, protocol_capture_browser};
use eyeorg_core::analysis::ab_behavior_points;
use eyeorg_core::prelude::*;
use eyeorg_crowd::CrowdFlower;
use eyeorg_stats::Seed;
use eyeorg_video::{shared_capture_cache, CaptureConfig};
use eyeorg_workload::alexa_like;

use crate::trace::Cx;
use crate::{sys, PassOut, Size, Workload};

/// The default-seed, full-size pass: exports, behaviour points and
/// aggregates of both campaigns, and the traced pass's obs counters.
const PINNED_2016: (&str, &str) = (
    "46d1ba29371b8d0e-399001efcc7cfe72-2da2364fd12149bf/\
     c880669047e07c86-a60b92ee2bb2a227-e181222bc6dd8db9",
    "f614daa3bf4650ff",
);

/// The wisdom band the dataset consumer applies (`crowd_uplt_from_dataset`).
const BAND: (f64, f64) = (25.0, 75.0);

/// See the module docs.
pub struct ReferenceRows {
    seed: Seed,
    participants: usize,
    sites: usize,
    repeats: usize,
    tl: Vec<TimelineStimulus>,
    ab: Vec<AbStimulus>,
}

impl ReferenceRows {
    /// The workload at `size` for `seed`.
    pub fn new(size: Size, seed: u64) -> ReferenceRows {
        let (participants, sites, repeats) = match size {
            Size::Full => (10_000, 20, 5),
            Size::Small => (600, 4, 2),
        };
        ReferenceRows {
            seed: Seed(seed).derive("reference-rows"),
            participants,
            sites,
            repeats,
            tl: Vec::new(),
            ab: Vec::new(),
        }
    }

    fn timeline(&self, cx: Cx, out: &mut PassOut) -> Result<String, String> {
        let campaign = cx.span_cpu("core.campaign.run_timeline", |_| {
            run_timeline_campaign(
                self.tl.clone(),
                &CrowdFlower,
                self.participants,
                &ExperimentConfig::default(),
                self.seed.derive("tl-run"),
            )
        });
        let report = cx.span("core.filtering.filter_timeline", |_| {
            filter_timeline(&campaign, &paper_pipeline())
        });
        let points = cx.span("core.analysis.behavior_points", |_| {
            behavior_points(&campaign)
        });
        let uplt = cx.span("core.analysis.mean_uplt", |_| {
            mean_uplt(&campaign, &report, Some(BAND))
        });
        let json = cx.span("core.report.export_timeline", |_| {
            to_json(&export_timeline("reference-timeline", &campaign, &report))
        });
        let reread = cx.span("core.dataset.read_timeline", |_| {
            read_timeline(&json).map(|d| crowd_uplt_from_dataset(&d))
        });
        let reread = reread.map_err(|e| format!("timeline dataset: {e}"))?;
        for (name, u) in campaign.stimuli_names.iter().zip(&uplt) {
            if u.as_ref() != reread.get(name) {
                return Err(format!(
                    "{name}: re-read UPLT {:?} != in-memory {u:?}",
                    reread.get(name)
                ));
            }
        }
        out.participants += campaign.participants.len() as u64;
        *out.layer.entry("core.rows").or_default() += campaign.rows.len() as f64;
        *out.layer.entry("core.dataset.bytes").or_default() += json.len() as f64;
        Ok(format!(
            "{}-{}-{}",
            sys::fnv_hex(json.as_bytes()),
            sys::fnv_hex(format!("{points:?}").as_bytes()),
            sys::fnv_hex(format!("{uplt:?}").as_bytes())
        ))
    }

    fn ab(&self, cx: Cx, out: &mut PassOut) -> Result<String, String> {
        let campaign = cx.span_cpu("core.campaign.run_ab", |_| {
            run_ab_campaign(
                self.ab.clone(),
                &CrowdFlower,
                self.participants,
                &ExperimentConfig::default(),
                self.seed.derive("ab-run"),
            )
        });
        let report = cx.span("core.filtering.filter_ab", |_| {
            filter_ab(&campaign, &paper_pipeline())
        });
        let points = cx.span("core.analysis.ab_behavior_points", |_| {
            ab_behavior_points(&campaign)
        });
        let tallies = cx.span("core.analysis.ab_tallies", |_| {
            ab_tallies(&campaign, &report)
        });
        let json = cx.span("core.report.export_ab", |_| {
            to_json(&export_ab("reference-ab", &campaign, &report))
        });
        let reread = cx.span("core.dataset.read_ab", |_| {
            read_ab(&json).map(|d| scores_from_dataset(&d))
        });
        let reread = reread.map_err(|e| format!("A/B dataset: {e}"))?;
        for (name, t) in campaign.stimuli_names.iter().zip(&tallies) {
            if t.score().as_ref() != reread.get(name) {
                return Err(format!(
                    "{name}: re-read score {:?} != in-memory {:?}",
                    reread.get(name),
                    t.score()
                ));
            }
        }
        out.participants += campaign.participants.len() as u64;
        *out.layer.entry("core.rows").or_default() += campaign.rows.len() as f64;
        *out.layer.entry("core.dataset.bytes").or_default() += json.len() as f64;
        Ok(format!(
            "{}-{}-{}",
            sys::fnv_hex(json.as_bytes()),
            sys::fnv_hex(format!("{points:?}").as_bytes()),
            sys::fnv_hex(format!("{tallies:?}").as_bytes())
        ))
    }
}

impl Workload for ReferenceRows {
    /// Capture the sites cold: timeline videos and H1/H2 pairs.
    fn setup(&mut self) {
        shared_capture_cache().clear();
        let sites = alexa_like(
            crate::SITES_SEED.derive("reference-rows").derive("sites"),
            self.sites,
        );
        let capture = CaptureConfig {
            repeats: self.repeats,
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

    fn pass(&self, cx: Cx) -> Result<PassOut, String> {
        let mut out = PassOut::default();
        let tl = self.timeline(cx, &mut out)?;
        let ab = self.ab(cx, &mut out)?;
        out.fingerprint = format!("{tl}/{ab}");
        Ok(out)
    }

    fn pins(&self) -> Option<(&'static str, &'static str)> {
        Some(PINNED_2016)
    }
}
