//! Shared campaign construction for the harness.
//!
//! Table 1 and Figs. 4–9 all draw on the same seven campaigns (four
//! validation, three final). Building them once and passing references
//! around keeps `run_all` from recapturing thousands of page loads per
//! figure.

use std::time::Instant;

use eyeorg_browser::{AdBlocker, BrowserConfig};
use eyeorg_net::NetworkProfile;
use eyeorg_core::prelude::*;
use eyeorg_crowd::{CrowdFlower, TrustedChannel};
use eyeorg_stats::Seed;
use eyeorg_video::CaptureConfig;
use eyeorg_workload::{ad_heavy, alexa_like};

use crate::Scale;

/// Capture environment for the PLT-timeline and ad-blocker campaigns: a
/// fast consumer line, the regime where the top-of-Alexa sample loads in
/// a few seconds and human responses straddle onload (Fig. 7c).
pub fn capture_browser() -> BrowserConfig {
    BrowserConfig::new().with_network(NetworkProfile::fttc())
}

/// Capture environment for the protocol-comparison campaigns: the
/// standard WebPageTest "Cable" shaping, where HTTP/1.1's six-connection
/// behaviour (queue bursts, serialized exchanges) and HTTP/2's
/// multiplexing actually diverge — the emulation an experimenter studying
/// protocols selects (§3.1 gives webpeg per-capture network emulation).
pub fn protocol_capture_browser() -> BrowserConfig {
    BrowserConfig::new().with_network(NetworkProfile::cable())
}

/// The perf harnesses' timeline stimuli: `sites` Alexa-like sites, each
/// captured with `repeats` loads on [`capture_browser`].
pub fn alexa_stimuli(sites: usize, repeats: usize, seed: Seed) -> Vec<TimelineStimulus> {
    let corpus = alexa_like(seed.derive("sites"), sites);
    let capture = CaptureConfig { repeats, ..CaptureConfig::default() };
    timeline_stimuli(&corpus, &capture_browser(), &capture, seed.derive("capture"))
}

/// One sharded-engine timeline campaign (paper filters, CrowdFlower
/// crowd of `n`) on freshly reset observability counters: the digest
/// and its wall seconds.
pub fn flat_run(
    stimuli: &[TimelineStimulus],
    n: usize,
    seed: Seed,
    shard: usize,
    threads: usize,
) -> (TimelineDigest, f64) {
    eyeorg_obs::reset();
    let cfg = ExperimentConfig { threads, ..ExperimentConfig::default() };
    let t = Instant::now();
    let digest = flat_timeline_campaign(
        stimuli,
        &CrowdFlower,
        n,
        &cfg,
        &paper_pipeline(),
        seed,
        &StreamConfig { shard_size: shard, ..StreamConfig::default() },
    );
    (digest, t.elapsed().as_secs_f64())
}

/// A campaign together with its §4.3 filter report.
pub struct Filtered<C> {
    /// The raw campaign.
    pub campaign: C,
    /// The filtering outcome.
    pub report: FilterReport,
}

/// The four validation campaigns of §4.1 (20 sites; paid + trusted pools
/// for both experiment types).
pub struct ValidationSet {
    /// PLT timeline, paid pool.
    pub tl_paid: Filtered<TimelineCampaign>,
    /// PLT timeline, trusted pool.
    pub tl_trusted: Filtered<TimelineCampaign>,
    /// H1-vs-H2 A/B, paid pool.
    pub ab_paid: Filtered<AbCampaign>,
    /// H1-vs-H2 A/B, trusted pool.
    pub ab_trusted: Filtered<AbCampaign>,
}

/// Number of sites in the validation campaigns (paper: 20).
pub fn validation_sites(scale: &Scale) -> usize {
    scale.sites.min(20)
}

/// Build the §4.1 validation set.
pub fn build_validation(scale: &Scale) -> ValidationSet {
    let seed = scale.seed.derive("validation");
    let n_sites = validation_sites(scale);
    let sites = alexa_like(seed.derive("sites"), n_sites);
    let browser = capture_browser();
    let capture = scale.capture();
    let cfg = ExperimentConfig::default();
    let n = scale.validation_participants;

    let tl_stimuli = timeline_stimuli(&sites, &browser, &capture, seed.derive("tl"));
    let ab_stimuli =
        protocol_ab_stimuli(&sites, &protocol_capture_browser(), &capture, seed.derive("ab"));

    let tl_paid =
        run_timeline_campaign(tl_stimuli.clone(), &CrowdFlower, n, &cfg, seed.derive("tlp"));
    let tl_trusted =
        run_timeline_campaign(tl_stimuli, &TrustedChannel, n, &cfg, seed.derive("tlt"));
    let ab_paid =
        run_ab_campaign(ab_stimuli.clone(), &CrowdFlower, n, &cfg, seed.derive("abp"));
    let ab_trusted =
        run_ab_campaign(ab_stimuli, &TrustedChannel, n, &cfg, seed.derive("abt"));

    let pipeline = paper_pipeline();
    ValidationSet {
        tl_paid: Filtered { report: filter_timeline(&tl_paid, &pipeline), campaign: tl_paid },
        tl_trusted: Filtered {
            report: filter_timeline(&tl_trusted, &pipeline),
            campaign: tl_trusted,
        },
        ab_paid: Filtered { report: filter_ab(&ab_paid, &pipeline), campaign: ab_paid },
        ab_trusted: Filtered {
            report: filter_ab(&ab_trusted, &pipeline),
            campaign: ab_trusted,
        },
    }
}

/// Build the final PLT-timeline campaign (§5.1).
pub fn build_final_timeline(scale: &Scale) -> Filtered<TimelineCampaign> {
    let seed = scale.seed.derive("final-tl");
    let sites = alexa_like(seed.derive("sites"), scale.sites);
    let stimuli =
        timeline_stimuli(&sites, &capture_browser(), &scale.capture(), seed.derive("cap"));
    let campaign = run_timeline_campaign(
        stimuli,
        &CrowdFlower,
        scale.participants,
        &ExperimentConfig::default(),
        seed.derive("run"),
    );
    let report = filter_timeline(&campaign, &paper_pipeline());
    Filtered { campaign, report }
}

/// Build the final H1-vs-H2 A/B campaign (§5.3). Uses the same site
/// sample as the timeline campaign, as the paper does.
pub fn build_final_h1h2(scale: &Scale) -> Filtered<AbCampaign> {
    let seed = scale.seed.derive("final-h1h2");
    let sites = alexa_like(scale.seed.derive("final-tl").derive("sites"), scale.sites);
    let stimuli = protocol_ab_stimuli(
        &sites,
        &protocol_capture_browser(),
        &scale.capture(),
        seed.derive("cap"),
    );
    let campaign = run_ab_campaign(
        stimuli,
        &CrowdFlower,
        scale.participants,
        &ExperimentConfig::default(),
        seed.derive("run"),
    );
    let report = filter_ab(&campaign, &paper_pipeline());
    Filtered { campaign, report }
}

/// Build the final ad-blocker campaign (§5.4): one 1,000-participant
/// budget split across the three blockers. Every blocker is evaluated on
/// the *same* ad-displaying site sample (with a third of the
/// participants each), so Fig. 8c's per-blocker CDFs differ only because
/// the blockers differ, not because their site draws did.
pub fn build_final_ads(scale: &Scale) -> Vec<(AdBlocker, Filtered<AbCampaign>)> {
    let sites = ad_heavy(
        scale.seed.derive("final-ads").derive("sites"),
        (scale.sites / AdBlocker::ALL.len()).max(2),
        1,
    );
    // One capture seed for all three blockers: the with-ads baseline (A
    // side) is the *same* capture for every blocker, so the shared
    // capture cache serves it once and only the blocker-specific B sides
    // are captured per iteration.
    let cap_seed = scale.seed.derive("final-ads").derive("cap");
    AdBlocker::ALL
        .iter()
        .map(|&blocker| {
            let seed = scale.seed.derive("final-ads").derive(blocker.name());
            let stimuli = adblock_ab_stimuli(
                &sites,
                &capture_browser(),
                blocker,
                &scale.capture(),
                cap_seed,
            );
            let campaign = run_ab_campaign(
                stimuli,
                &CrowdFlower,
                scale.participants / AdBlocker::ALL.len(),
                &ExperimentConfig::default(),
                seed.derive("run"),
            );
            let report = filter_ab(&campaign, &paper_pipeline());
            (blocker, Filtered { campaign, report })
        })
        .collect()
}
