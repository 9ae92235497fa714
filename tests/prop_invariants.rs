//! Property tests: the loader and platform invariants must hold for
//! *arbitrary* (valid) websites and configurations, not just the
//! generator's output.
//!
//! Each property runs 24 randomized cases drawn from the workspace's
//! own seeded RNG, so the suite is deterministic and needs no external
//! crate. Every case has its own seed; a failing case prints it
//! (`eyeorg_stats::rng::for_each_case`).

use eyeorg_browser::{load_page, BrowserConfig};
use eyeorg_net::NetworkProfile;
use eyeorg_stats::rng::{for_each_case, Rng};
use eyeorg_stats::Seed;
use eyeorg_video::{CaptureConfig, EarliestSimilarTable, Video};
use eyeorg_workload::{
    Discovery, Origin, OriginRef, Rect, Resource, ResourceId, ResourceKind, Website,
};

/// Cases per property (page loads are the expensive part).
const CASES: u64 = 24;

/// A small but structurally varied website. Always valid by
/// construction (checked against `Website::validate` inside the test).
fn arb_site(rng: &mut Rng) -> Website {
    let (n_img, n_js, n_css, n_ad) = (
        rng.random_range(0usize..6),
        rng.random_range(0usize..4),
        rng.random_range(0usize..3),
        rng.random_range(0usize..3),
    );
    let html_bytes = rng.random_range(10_000u64..150_000);
    let page_height = rng.random_range(1_500u32..6_000);
    let noise = rng.next_u64();
    let mut resources = vec![Resource {
        id: ResourceId(0),
        kind: ResourceKind::Html,
        origin: OriginRef(0),
        body_bytes: html_bytes,
        request_header_bytes: 400,
        response_header_bytes: 300,
        rect: Some(Rect { x: 0, y: 0, w: 1280, h: page_height }),
        discovery: Discovery::Root,
        render_blocking: false,
        defer: false,
        server_think_us: 20_000,
    }];
    let mut push = |kind, rect, discovery, blocking, defer, bytes| {
        let id = ResourceId(resources.len() as u32);
        resources.push(Resource {
            id,
            kind,
            origin: OriginRef(if matches!(kind, ResourceKind::Ad) { 1 } else { 0 }),
            body_bytes: bytes,
            request_header_bytes: 350,
            response_header_bytes: 250,
            rect,
            discovery,
            render_blocking: blocking,
            defer,
            server_think_us: 10_000 + (bytes % 50_000),
        });
        id
    };
    for i in 0..n_css {
        push(
            ResourceKind::Css,
            None,
            Discovery::Html { at_fraction: 0.02 + 0.03 * i as f32 },
            true,
            false,
            5_000 + noise % 40_000,
        );
    }
    let mut last_js = None;
    for i in 0..n_js {
        last_js = Some(push(
            ResourceKind::Js,
            None,
            Discovery::Html { at_fraction: 0.1 + 0.2 * i as f32 },
            false,
            i % 2 == 0,
            3_000 + noise % 60_000,
        ));
    }
    for i in 0..n_img {
        let y = (i as u32 * page_height / n_img.max(1) as u32)
            .min(page_height.saturating_sub(101));
        push(
            ResourceKind::Image,
            Some(Rect { x: 10, y, w: 400, h: 100 }),
            Discovery::Html { at_fraction: 0.15 + 0.1 * i as f32 },
            false,
            false,
            2_000 + (noise >> 8) % 80_000,
        );
    }
    for _ in 0..n_ad {
        let discovery = match last_js {
            Some(parent) => Discovery::Parent { parent },
            None => Discovery::Html { at_fraction: 0.5 },
        };
        push(
            ResourceKind::Ad,
            Some(Rect { x: 900, y: 100, w: 300, h: 250 }),
            discovery,
            false,
            false,
            4_000 + noise % 30_000,
        );
    }
    Website {
        name: "prop.example".into(),
        origins: vec![
            Origin { host: "prop.example".into(), supports_h2: true, third_party: false },
            Origin {
                host: "ads.example".into(),
                supports_h2: noise.is_multiple_of(2),
                third_party: true,
            },
        ],
        resources,
        canvas_width: 1280,
        page_height,
        fold_y: 720,
    }
}

/// Every generated site is structurally valid and loads to a trace
/// satisfying all recorded invariants, under several network profiles.
#[test]
fn any_site_loads_cleanly() {
    for_each_case(1, CASES, |rng| {
        let site = arb_site(rng);
        let seed = rng.random_range(0u64..1000);
        let profile_idx = rng.random_range(0usize..3);
        assert!(site.validate().is_empty(), "{:?}", site.validate());
        let profiles = [NetworkProfile::fttc(), NetworkProfile::cable(), NetworkProfile::fiber()];
        let cfg = BrowserConfig::new().with_network(profiles[profile_idx].clone());
        let trace = load_page(&site, &cfg, Seed(seed));
        assert!(trace.check_invariants().is_ok(), "{:?}", trace.check_invariants());
        assert!(trace.onload.is_some(), "onload must fire");
        assert!(trace.parse_complete.is_some());
        // Everything fetched or skipped, nothing lost.
        for r in &trace.resources {
            assert!(r.completed.is_some() || r.skipped.is_some(), "{:?} dangling", r.id);
        }
        // onload at or after the last pre-onload completion.
        let onload = trace.onload.expect("checked");
        for r in &trace.resources {
            if let (Some(d), Some(c)) = (r.discovered, r.completed) {
                if d < onload {
                    // Discovered before onload and completed: either it
                    // finished before onload or onload equals a later
                    // quiescence point — both imply c is bounded by the
                    // trace's quiescent time.
                    assert!(c <= trace.quiescent.expect("quiescent set"));
                }
            }
        }
    });
}

/// Captures of arbitrary sites render consistent frames: blank start,
/// frame count ≥ onload window, rewind never goes forward.
#[test]
fn any_capture_is_coherent() {
    for_each_case(2, CASES, |rng| {
        let site = arb_site(rng);
        let seed = rng.random_range(0u64..500);
        let trace = load_page(&site, &BrowserConfig::new(), Seed(seed));
        let video = Video::capture(trace, 10, eyeorg_net::SimDuration::from_secs(2));
        assert!(video.frame_count() >= 2);
        assert!(video.frame(0).painted_fraction() <= 0.01, "capture starts blank");
        let table = EarliestSimilarTable::of(&video);
        let n = table.len();
        assert_eq!(n, video.frame_count());
        for chosen in [n / 3, n - 1] {
            let r = table.suggest(chosen);
            assert!(r <= chosen);
        }
    });
}

/// The webpeg median selection never panics and always returns one of
/// the repeat loads for arbitrary sites.
#[test]
fn webpeg_median_total() {
    for_each_case(3, CASES, |rng| {
        let site = arb_site(rng);
        let seed = rng.random_range(0u64..200);
        let cfg = CaptureConfig { repeats: 3, ..CaptureConfig::default() };
        let video = eyeorg_video::capture_median(&site, &BrowserConfig::new(), Seed(seed), &cfg);
        let all = eyeorg_video::capture_all(&site, &BrowserConfig::new(), Seed(seed), &cfg);
        assert!(all.iter().any(|t| t == video.trace()), "median is one of the loads");
    });
}
