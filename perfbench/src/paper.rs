//! The `paper` workload: one pass is the whole paper-scale evaluation
//! `EYEORG_SCALE=paper run_all` produces — the four validation and
//! three final campaigns plus every table, figure and CSV section,
//! rendered in memory.
//!
//! A pass composes the campaigns as `eyeorg_bench::campaigns::build_*`
//! does, except that the site samples, built once in set-up, come from
//! [`crate::SITES_SEED`] while `--seed` plays `Scale::seed` for
//! everything else; at the
//! default seed the two coincide and the sections are byte-identical to
//! the files `run_all` writes (pinned below). Every pass, traced or not,
//! captures through the real stimulus builders and shared capture
//! cache, starting cold as every `run_all` does.
//!
//! A page load is not a public call the builders make, so the traced
//! run times loads with a load probe ([`Workload::load_probe`]): a copy
//! of webpeg's capture ([`traced_capture`]) split into its page loads,
//! each in a span, over the distinct captures a pass requests
//! ([`capture_requests`]). Its obs page-load, network, HTTP and capture
//! counts must equal the traced pass's.

use std::collections::BTreeSet;

use eyeorg_bench::campaigns::{
    capture_browser, protocol_capture_browser, validation_sites, Filtered, ValidationSet,
};
use eyeorg_bench::Scale;
use eyeorg_browser::{load_page, AdBlocker, BrowserConfig, LoadTrace};
use eyeorg_core::prelude::*;
use eyeorg_crowd::{CrowdFlower, RecruitmentService, TrustedChannel};
use eyeorg_http::Protocol;
use eyeorg_stats::{par_map_range, resolve_threads, Seed};
use eyeorg_video::{shared_capture_cache, CaptureConfig, Video};
use eyeorg_workload::{ad_heavy, alexa_like, Website};

use crate::trace::Cx;
use crate::{sys, PassOut, Size, Workload, SITES_SEED};

/// The default-seed, full-size pass: FNV-1a of every section's name
/// and bytes as [`sections_fingerprint`] renders them — equal to the
/// files `EYEORG_SCALE=paper run_all` writes — and of the traced pass's
/// obs counters.
const PINNED_2016: (&str, &str) = ("59ed2293d7b97888", "660842729d6df31b");

/// See the module docs.
pub struct Paper {
    scale: Scale,
    sites: Sites,
}

/// The site samples of `campaigns::build_*`: validation, final (shared
/// by the timeline and H1-vs-H2 campaigns) and ad-blocker.
#[derive(Default)]
struct Sites {
    validation: Vec<Website>,
    finals: Vec<Website>,
    ads: Vec<Website>,
}

impl Sites {
    fn new(scale: &Scale) -> Sites {
        let seed = |campaign: &str| SITES_SEED.derive(campaign).derive("sites");
        Sites {
            validation: alexa_like(seed("validation"), validation_sites(scale)),
            finals: alexa_like(seed("final-tl"), scale.sites),
            ads: ad_heavy(
                seed("final-ads"),
                (scale.sites / AdBlocker::ALL.len()).max(2),
                1,
            ),
        }
    }
}

impl Paper {
    /// The workload at `size` for `seed`.
    pub fn new(size: Size, seed: u64) -> Paper {
        let mut scale = match size {
            Size::Full => Scale::paper(),
            // Same campaigns and sections, a few seconds' worth of loads.
            Size::Small => Scale {
                sites: 6,
                participants: 60,
                validation_participants: 30,
                repeats: 2,
                seed: Seed(0),
            },
        };
        scale.seed = Seed(seed);
        Paper {
            scale,
            sites: Sites::default(),
        }
    }
}

/// The seven campaigns a pass builds.
struct Campaigns {
    validation: ValidationSet,
    final_tl: Filtered<TimelineCampaign>,
    final_h1h2: Filtered<AbCampaign>,
    final_ads: Vec<(AdBlocker, Filtered<AbCampaign>)>,
}

impl Campaigns {
    fn participants(&self) -> usize {
        let v = &self.validation;
        v.tl_paid.campaign.participants.len()
            + v.tl_trusted.campaign.participants.len()
            + v.ab_paid.campaign.participants.len()
            + v.ab_trusted.campaign.participants.len()
            + self.final_tl.campaign.participants.len()
            + self.final_h1h2.campaign.participants.len()
            + self
                .final_ads
                .iter()
                .map(|(_, f)| f.campaign.participants.len())
                .sum::<usize>()
    }

    fn rows(&self) -> usize {
        let v = &self.validation;
        v.tl_paid.campaign.rows.len()
            + v.tl_trusted.campaign.rows.len()
            + v.ab_paid.campaign.rows.len()
            + v.ab_trusted.campaign.rows.len()
            + self.final_tl.campaign.rows.len()
            + self.final_h1h2.campaign.rows.len()
            + self
                .final_ads
                .iter()
                .map(|(_, f)| f.campaign.rows.len())
                .sum::<usize>()
    }
}

/// Every section `run_all` writes, in its order: the printed reports
/// and then the CSVs. Each renderer runs inside a `figures.*` span.
fn sections(cx: Cx, scale: &Scale, c: &Campaigns) -> Vec<(&'static str, String)> {
    use eyeorg_bench::{
        fig1_viz, fig4_behavior, fig5_focus, fig6_wisdom, fig7_timeline, fig8_ab, fig9_modes,
        table1,
    };
    let v = &c.validation;
    let r = |name: &'static str, f: &dyn Fn() -> String| (name, cx.span(name, |_| f()));
    vec![
        r("figures.table1", &|| {
            table1::run(scale, v, &c.final_tl, &c.final_h1h2, &c.final_ads)
        }),
        r("figures.fig1", &|| fig1_viz::run(&c.final_tl)),
        r("figures.fig4", &|| fig4_behavior::run(v)),
        r("figures.fig5", &|| fig5_focus::run(v)),
        r("figures.fig6", &|| fig6_wisdom::run(v)),
        r("figures.fig7", &|| fig7_timeline::run(&c.final_tl)),
        r("figures.fig8", &|| {
            let mut r = fig8_ab::run_h1h2(&c.final_h1h2);
            r.push('\n');
            r.push_str(&fig8_ab::run_ads(&c.final_ads));
            r
        }),
        r("figures.fig9", &|| fig9_modes::run(&c.final_tl)),
        r("figures.demographics", &|| {
            let mut r = String::from("=== Demographic sensitivity (H1-vs-H2 campaign) ===\n");
            r.push_str("slice      participants  votes  decided  majority-agreement\n");
            for s in ab_demographics(&c.final_h1h2.campaign, &c.final_h1h2.report) {
                r.push_str(&format!(
                    "{:<10} {:>12} {:>6} {:>7.0}% {:>18.0}%\n",
                    s.label,
                    s.participants,
                    s.votes,
                    s.decided_rate * 100.0,
                    s.majority_agreement * 100.0,
                ));
            }
            r
        }),
        r("figures.fig4_csv", &|| fig4_behavior::csv(v)),
        r("figures.fig5_csv", &|| fig5_focus::csv(v)),
        r("figures.fig6_csv", &|| fig6_wisdom::csv(v)),
        r("figures.fig7_csv", &|| fig7_timeline::csv(&c.final_tl)),
        r("figures.fig8_csv", &|| {
            fig8_ab::csv(&c.final_h1h2, &c.final_ads)
        }),
    ]
}

/// The pass fingerprint: FNV-1a over every section's name and bytes.
fn sections_fingerprint(sections: &[(&str, String)]) -> String {
    let mut all = Vec::new();
    for (name, body) in sections {
        all.extend_from_slice(name.as_bytes());
        all.push(0);
        all.extend_from_slice(body.as_bytes());
        all.push(0);
    }
    sys::fnv_hex(&all)
}

/// `webpeg::capture_median` with a span per page load: `repeats` loads
/// on derived seeds, keep the median-onload trace, record its video.
/// The load probe's copy; passes capture through the real builders.
fn traced_capture(
    cx: Cx,
    site: &Website,
    browser: &BrowserConfig,
    seed: Seed,
    cfg: &CaptureConfig,
) -> Video {
    cx.span("video.capture_median", |cx| {
        let mut traces: Vec<LoadTrace> = (0..cfg.repeats)
            .map(|i| {
                cx.span("browser.load_page", |_| {
                    load_page(site, browser, seed.derive_index("load", i as u64))
                })
            })
            .collect();
        traces.sort_by_key(|t| t.onload.map_or(u64::MAX, |o| o.as_micros()));
        let median = traces.swap_remove((traces.len() - 1) / 2);
        Video::capture(median, cfg.fps, cfg.record_after)
    })
}

/// One capture a pass's stimulus builders request: site, browser, seed.
type Request<'a> = (&'a Website, BrowserConfig, Seed);

/// Every distinct capture a pass requests, in the order the builders
/// first request it, with the seeds `eyeorg_core::builders` derives.
/// The shared cache captures a repeated request once, so it is listed
/// once.
fn capture_requests<'a>(scale: &Scale, sites: &'a Sites) -> Vec<Request<'a>> {
    let mut all: Vec<Request<'a>> = Vec::new();
    let timeline = |all: &mut Vec<Request<'a>>, sites: &'a [Website], seed: Seed| {
        for (i, site) in sites.iter().enumerate() {
            all.push((
                site,
                capture_browser(),
                seed.derive_index("tl-cap", i as u64),
            ));
        }
    };
    let protocol = |all: &mut Vec<Request<'a>>, sites: &'a [Website], seed: Seed| {
        let base = protocol_capture_browser();
        for (i, site) in sites.iter().enumerate() {
            let i = i as u64;
            all.push((
                site,
                base.clone().with_protocol(Protocol::Http1),
                seed.derive_index("h1-cap", i),
            ));
            all.push((
                site,
                base.clone().with_protocol(Protocol::Http2),
                seed.derive_index("h2-cap", i),
            ));
        }
    };
    let validation = scale.seed.derive("validation");
    timeline(&mut all, &sites.validation, validation.derive("tl"));
    protocol(&mut all, &sites.validation, validation.derive("ab"));
    timeline(
        &mut all,
        &sites.finals,
        scale.seed.derive("final-tl").derive("cap"),
    );
    protocol(
        &mut all,
        &sites.finals,
        scale.seed.derive("final-h1h2").derive("cap"),
    );
    let ads = scale.seed.derive("final-ads").derive("cap");
    for &blocker in &AdBlocker::ALL {
        for (i, site) in sites.ads.iter().enumerate() {
            let i = i as u64;
            all.push((site, capture_browser(), ads.derive_index("ads-cap", i)));
            all.push((
                site,
                capture_browser().with_adblocker(blocker),
                ads.derive_index("blk-cap", i),
            ));
        }
    }
    let mut seen = BTreeSet::new();
    all.retain(|(site, browser, seed)| {
        seen.insert((
            sys::fnv_hex(format!("{site:?}").as_bytes()),
            sys::fnv_hex(format!("{browser:?}").as_bytes()),
            seed.value(),
        ))
    });
    all
}

/// `campaigns::build_*` over the set-up's site samples, capturing
/// through the real stimulus builders and shared capture cache.
struct Compose<'a> {
    cx: Cx<'a>,
    scale: Scale,
    sites: &'a Sites,
}

impl Compose<'_> {
    fn timeline_stimuli(
        &self,
        sites: &[Website],
        browser: &BrowserConfig,
        seed: Seed,
    ) -> Vec<TimelineStimulus> {
        let capture = self.scale.capture();
        self.cx.span_cpu("core.builders.timeline_stimuli", |_| {
            timeline_stimuli(sites, browser, &capture, seed)
        })
    }

    fn protocol_ab_stimuli(&self, sites: &[Website], seed: Seed) -> Vec<AbStimulus> {
        let capture = self.scale.capture();
        self.cx.span_cpu("core.builders.protocol_ab_stimuli", |_| {
            protocol_ab_stimuli(sites, &protocol_capture_browser(), &capture, seed)
        })
    }

    fn adblock_ab_stimuli(
        &self,
        sites: &[Website],
        blocker: AdBlocker,
        seed: Seed,
    ) -> Vec<AbStimulus> {
        let capture = self.scale.capture();
        self.cx.span_cpu("core.builders.adblock_ab_stimuli", |_| {
            adblock_ab_stimuli(sites, &capture_browser(), blocker, &capture, seed)
        })
    }

    fn timeline(
        &self,
        stimuli: Vec<TimelineStimulus>,
        service: &dyn RecruitmentService,
        n: usize,
        seed: Seed,
    ) -> Filtered<TimelineCampaign> {
        let campaign = self.cx.span_cpu("core.campaign.run_timeline", |_| {
            run_timeline_campaign(stimuli, service, n, &ExperimentConfig::default(), seed)
        });
        let report = self.cx.span("core.filtering.filter_timeline", |_| {
            filter_timeline(&campaign, &paper_pipeline())
        });
        Filtered { campaign, report }
    }

    fn ab(
        &self,
        stimuli: Vec<AbStimulus>,
        service: &dyn RecruitmentService,
        n: usize,
        seed: Seed,
    ) -> Filtered<AbCampaign> {
        let campaign = self.cx.span_cpu("core.campaign.run_ab", |_| {
            run_ab_campaign(stimuli, service, n, &ExperimentConfig::default(), seed)
        });
        let report = self.cx.span("core.filtering.filter_ab", |_| {
            filter_ab(&campaign, &paper_pipeline())
        });
        Filtered { campaign, report }
    }

    /// `campaigns::build_validation`.
    fn validation(&self) -> ValidationSet {
        let scale = &self.scale;
        let seed = scale.seed.derive("validation");
        let sites = &self.sites.validation;
        let tl = self.timeline_stimuli(sites, &capture_browser(), seed.derive("tl"));
        let ab = self.protocol_ab_stimuli(sites, seed.derive("ab"));
        let n = scale.validation_participants;
        ValidationSet {
            tl_paid: self.timeline(tl.clone(), &CrowdFlower, n, seed.derive("tlp")),
            tl_trusted: self.timeline(tl, &TrustedChannel, n, seed.derive("tlt")),
            ab_paid: self.ab(ab.clone(), &CrowdFlower, n, seed.derive("abp")),
            ab_trusted: self.ab(ab, &TrustedChannel, n, seed.derive("abt")),
        }
    }

    /// `campaigns::build_final_timeline`.
    fn final_timeline(&self) -> Filtered<TimelineCampaign> {
        let seed = self.scale.seed.derive("final-tl");
        let stimuli =
            self.timeline_stimuli(&self.sites.finals, &capture_browser(), seed.derive("cap"));
        self.timeline(
            stimuli,
            &CrowdFlower,
            self.scale.participants,
            seed.derive("run"),
        )
    }

    /// `campaigns::build_final_h1h2`.
    fn final_h1h2(&self) -> Filtered<AbCampaign> {
        let seed = self.scale.seed.derive("final-h1h2");
        let stimuli = self.protocol_ab_stimuli(&self.sites.finals, seed.derive("cap"));
        self.ab(
            stimuli,
            &CrowdFlower,
            self.scale.participants,
            seed.derive("run"),
        )
    }

    /// `campaigns::build_final_ads`.
    fn final_ads(&self) -> Vec<(AdBlocker, Filtered<AbCampaign>)> {
        let scale = &self.scale;
        let cap_seed = scale.seed.derive("final-ads").derive("cap");
        AdBlocker::ALL
            .iter()
            .map(|&blocker| {
                let seed = scale.seed.derive("final-ads").derive(blocker.name());
                let stimuli = self.adblock_ab_stimuli(&self.sites.ads, blocker, cap_seed);
                let n = scale.participants / AdBlocker::ALL.len();
                (
                    blocker,
                    self.ab(stimuli, &CrowdFlower, n, seed.derive("run")),
                )
            })
            .collect()
    }
}

impl Workload for Paper {
    fn setup(&mut self) {
        self.sites = Sites::new(&self.scale);
    }

    fn pass(&self, cx: Cx) -> Result<PassOut, String> {
        // Every real `run_all` starts with a cold capture cache.
        shared_capture_cache().clear();
        let compose = Compose {
            cx,
            scale: self.scale,
            sites: &self.sites,
        };
        let c = Campaigns {
            validation: compose.validation(),
            final_tl: compose.final_timeline(),
            final_h1h2: compose.final_h1h2(),
            final_ads: compose.final_ads(),
        };
        let sections = sections(cx, &self.scale, &c);
        if let Some((name, _)) = sections.iter().find(|(_, body)| body.trim().is_empty()) {
            return Err(format!("section {name} is empty"));
        }
        let mut out = PassOut {
            fingerprint: sections_fingerprint(&sections),
            participants: c.participants() as u64,
            ..PassOut::default()
        };
        out.layer.insert("core.rows", c.rows() as f64);
        Ok(out)
    }

    fn load_probe(&self, cx: Cx) -> bool {
        let requests = capture_requests(&self.scale, &self.sites);
        let capture = self.scale.capture();
        par_map_range(requests.len(), resolve_threads(0), |i| {
            let (site, browser, seed) = &requests[i];
            traced_capture(cx, site, browser, *seed, &capture);
        });
        true
    }

    fn pins(&self) -> Option<(&'static str, &'static str)> {
        Some(PINNED_2016)
    }
}
