//! The metric catalogue: end-to-end metrics (untraced runs) and
//! per-layer metrics (traced runs), with their units, and how each
//! per-layer value is derived from a pass's spans and `eyeorg-obs`
//! counters.
//!
//! Every per-layer metric is emitted on every workload; a layer the
//! workload does not exercise reads 0.

use std::collections::BTreeMap;

use eyeorg_obs::RunReport;

use crate::trace::PassSpans;
use crate::{sys, Metric, PassOut};

/// End-to-end metrics, as `BENCHMARK.json` lists them.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("peak_rss_mb", "MB"),
    ("participants_per_s", "participants/s"),
];

/// Per-layer metrics, as `BENCHMARK.json` lists them.
pub const PER_LAYER: [(&str, &str); 52] = [
    ("browser.page_loads", "count"),
    ("browser.busy_s", "s"),
    ("browser.load_ms.p50", "ms"),
    ("browser.load_ms.p99", "ms"),
    ("browser.resources_fetched", "count"),
    ("net.events", "count"),
    ("net.ns_per_event", "ns"),
    ("net.segments_sent", "count"),
    ("net.retransmissions", "count"),
    ("net.bursts_batched", "count"),
    ("http.conns_opened", "count"),
    ("http.h2_streams", "count"),
    ("http.h1_requests_assigned", "count"),
    ("video.captures", "count"),
    ("video.frames_encoded", "count"),
    ("video.encode_busy_s", "s"),
    ("video.us_per_frame", "us"),
    ("video.cache_hit_ratio", "ratio"),
    ("capture.wall_s", "s"),
    ("capture.cpu_s", "s"),
    ("capture.parallel_efficiency", "ratio"),
    ("core.engine.busy_s", "s"),
    ("core.engine.us_per_participant", "us"),
    ("core.engine.parallel_efficiency", "ratio"),
    ("core.digest.retained_bytes", "bytes"),
    ("core.gate_admitted", "count"),
    ("core.gate_rejected", "count"),
    ("core.participants_kept", "count"),
    ("core.keep_ratio", "ratio"),
    ("core.responses_collected", "count"),
    ("core.filter_drops.engagement", "count"),
    ("core.filter_drops.soft", "count"),
    ("core.filter_drops.control", "count"),
    ("core.checkpoint.count", "count"),
    ("core.checkpoint.save_s", "s"),
    ("core.checkpoint.save_ns_per_byte", "ns/byte"),
    ("core.checkpoint.load_s", "s"),
    ("core.checkpoint.resume_fold_s", "s"),
    ("core.checkpoint.live_lines", "count"),
    ("core.checkpoint.resume_s", "s"),
    ("core.checkpoint.bytes", "bytes"),
    ("core.rows", "count"),
    ("core.campaign.busy_s", "s"),
    ("core.filtering.busy_s", "s"),
    ("core.filtering.us_per_participant", "us"),
    ("core.analysis.busy_s", "s"),
    ("core.report.export_s", "s"),
    ("core.dataset.read_s", "s"),
    ("core.dataset.bytes", "bytes"),
    ("figures.busy_s", "s"),
    ("obs.overhead", "ratio"),
    ("unattributed_s", "s"),
];

/// Spans whose self time is campaign-engine time: the flat engine
/// calls and the checkpointed drivers minus their checkpoint saves.
const ENGINE_SPANS: [&str; 6] = [
    "core.engine.flat_timeline",
    "core.engine.flat_ab",
    "core.checkpoint.run_timeline",
    "core.checkpoint.run_ab",
    "core.checkpoint.resume_timeline",
    "core.checkpoint.resume_ab",
];

/// `a / b`, 0 when `b` is 0 (a layer the workload does not exercise).
fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// Counter-name prefixes of the work a load probe must reproduce: page
/// loads and what they drive (network, HTTP) and the captures.
const PROBE_COUNTERS: [&str; 4] = ["browser.", "net.", "http.", "video.captures"];

/// The work counts a load probe reproduces: every [`PROBE_COUNTERS`]
/// counter and the frames the captures recorded.
fn probe_work(r: &RunReport) -> BTreeMap<&str, u64> {
    let mut work: BTreeMap<&str, u64> = r
        .counters
        .iter()
        .filter(|(name, _)| PROBE_COUNTERS.iter().any(|p| name.starts_with(p)))
        .map(|(name, &v)| (name.as_str(), v))
        .collect();
    work.insert("video.frames_per_capture.sum", frames(r) as u64);
    work
}

/// Why a load probe's obs counts differ from its pass's, if they do.
pub fn probe_mismatch(pass: &RunReport, probe: &RunReport) -> Option<String> {
    let (want, got) = (probe_work(pass), probe_work(probe));
    want.iter()
        .find(|(name, v)| got.get(*name) != Some(*v))
        .map(|(name, v)| format!("{name}: probe {:?}, pass {v}", got.get(name)))
}

/// Frames the captures recorded: webpeg's encoding step is
/// `Video::capture`, which records its frame count in this histogram
/// (the `video.frames_encoded` counter belongs to the standalone
/// `encode` function, which no workload calls).
fn frames(obs: &RunReport) -> f64 {
    obs.histograms
        .get("video.frames_per_capture")
        .map_or(0.0, |h| h.sum as f64)
}

/// The per-layer values of one traced pass (every [`PER_LAYER`] metric
/// except `obs.overhead`, which compares passes). `loads` holds the
/// `browser.load_page` and `video.capture_median` spans: the load
/// probe's, or `spans` for a workload without one.
pub fn layer_values(
    spans: &PassSpans,
    loads: &PassSpans,
    obs: &RunReport,
    out: &PassOut,
    threads: usize,
) -> BTreeMap<&'static str, f64> {
    let c = |name: &str| obs.counters.get(name).copied().unwrap_or(0) as f64;
    let drops = |label: &str| {
        obs.labeled
            .get("core.filter_drops")
            .and_then(|l| l.get(label))
            .copied()
            .unwrap_or(0) as f64
    };
    let layer = |name: &str| out.layer.get(name).copied().unwrap_or(0.0);
    let threads = threads as f64;

    let encode = loads.get("video.capture_median").self_s;
    let loads = loads.get("browser.load_page");
    let load_ms: Vec<f64> = loads.durations_s.iter().map(|d| d * 1e3).collect();
    let builders = [
        "core.builders.timeline_stimuli",
        "core.builders.protocol_ab_stimuli",
        "core.builders.adblock_ab_stimuli",
    ]
    .map(|n| spans.get(n));
    let capture_wall: f64 = builders.iter().map(|a| a.total_s).sum();
    let capture_cpu: f64 = builders.iter().map(|a| a.cpu_s).sum();
    let engine = ENGINE_SPANS.map(|n| spans.get(n));
    let engine_self: f64 = engine.iter().map(|a| a.self_s).sum();
    let engine_wall: f64 = engine.iter().map(|a| a.total_s).sum();
    let engine_cpu: f64 = engine.iter().map(|a| a.cpu_s).sum();
    let resume_fold = spans.get("core.checkpoint.resume_timeline").self_s
        + spans.get("core.checkpoint.resume_ab").self_s;
    let saves = spans.get("core.checkpoint.save");
    let filtering = spans.total_prefixed("core.filtering.");
    let participants = out.participants as f64;
    let frames = frames(obs);

    let mut v = BTreeMap::new();
    v.insert("browser.page_loads", c("browser.page_loads"));
    v.insert("browser.busy_s", loads.total_s);
    v.insert(
        "browser.load_ms.p50",
        eyeorg_stats::percentile(&load_ms, 50.0).unwrap_or(0.0),
    );
    v.insert(
        "browser.load_ms.p99",
        eyeorg_stats::percentile(&load_ms, 99.0).unwrap_or(0.0),
    );
    v.insert("browser.resources_fetched", c("browser.resources_fetched"));
    v.insert("net.events", c("net.events_processed"));
    v.insert(
        "net.ns_per_event",
        ratio(loads.total_s * 1e9, c("net.events_processed")),
    );
    v.insert("net.segments_sent", c("net.segments_sent"));
    v.insert("net.retransmissions", c("net.retransmissions"));
    v.insert("net.bursts_batched", c("net.bursts_batched"));
    v.insert("http.conns_opened", c("http.conns_opened"));
    v.insert("http.h2_streams", c("http.h2_streams"));
    v.insert("http.h1_requests_assigned", c("http.h1_requests_assigned"));
    v.insert("video.captures", c("video.captures"));
    v.insert("video.frames_encoded", frames);
    v.insert("video.encode_busy_s", encode);
    v.insert("video.us_per_frame", ratio(encode * 1e6, frames));
    v.insert(
        "video.cache_hit_ratio",
        ratio(
            c("video.capture_cache_hits"),
            c("video.capture_cache_requests"),
        ),
    );
    v.insert("capture.wall_s", capture_wall);
    v.insert("capture.cpu_s", capture_cpu);
    v.insert(
        "capture.parallel_efficiency",
        ratio(capture_cpu, threads * capture_wall),
    );
    v.insert("core.engine.busy_s", engine_self);
    v.insert(
        "core.engine.us_per_participant",
        ratio(engine_self * 1e6, layer("core.engine.participants")),
    );
    v.insert(
        "core.engine.parallel_efficiency",
        ratio(engine_cpu, threads * engine_wall),
    );
    v.insert(
        "core.digest.retained_bytes",
        layer("core.digest.retained_bytes"),
    );
    v.insert("core.gate_admitted", c("core.gate_admitted"));
    v.insert("core.gate_rejected", c("core.gate_rejected"));
    v.insert("core.participants_kept", c("core.participants_kept"));
    v.insert(
        "core.keep_ratio",
        ratio(c("core.participants_kept"), c("core.gate_admitted")),
    );
    v.insert("core.responses_collected", c("core.responses_collected"));
    v.insert("core.filter_drops.engagement", drops("engagement"));
    v.insert("core.filter_drops.soft", drops("soft"));
    v.insert("core.filter_drops.control", drops("control"));
    v.insert("core.checkpoint.count", saves.count as f64);
    v.insert("core.checkpoint.save_s", saves.total_s);
    v.insert(
        "core.checkpoint.save_ns_per_byte",
        ratio(saves.total_s * 1e9, layer("core.checkpoint.bytes")),
    );
    v.insert(
        "core.checkpoint.load_s",
        spans.get("core.checkpoint.load").total_s,
    );
    v.insert("core.checkpoint.resume_fold_s", resume_fold);
    v.insert(
        "core.checkpoint.live_lines",
        layer("core.checkpoint.live_lines"),
    );
    v.insert(
        "core.checkpoint.resume_s",
        out.extra.get(&("resume_s", "s")).copied().unwrap_or(0.0),
    );
    v.insert("core.checkpoint.bytes", layer("core.checkpoint.bytes"));
    v.insert("core.rows", layer("core.rows"));
    v.insert(
        "core.campaign.busy_s",
        spans.total_prefixed("core.campaign."),
    );
    v.insert("core.filtering.busy_s", filtering);
    v.insert(
        "core.filtering.us_per_participant",
        ratio(filtering * 1e6, participants),
    );
    v.insert(
        "core.analysis.busy_s",
        spans.total_prefixed("core.analysis."),
    );
    v.insert("core.report.export_s", spans.total_prefixed("core.report."));
    v.insert("core.dataset.read_s", spans.total_prefixed("core.dataset."));
    v.insert("core.dataset.bytes", layer("core.dataset.bytes"));
    v.insert("figures.busy_s", spans.total_prefixed("figures."));
    v.insert("unattributed_s", spans.unattributed_s);
    v
}

/// Medians over the traced passes, in [`PER_LAYER`] order.
pub fn layer_metrics(passes: &[BTreeMap<&'static str, f64>], overhead: f64) -> Vec<Metric> {
    PER_LAYER
        .iter()
        .map(|&(name, unit)| {
            // A per-pass value (for `browser.load_ms.*`, a percentile
            // of that pass's loads), then the median over passes.
            let (value, samples) = if name == "obs.overhead" {
                (overhead, passes.len())
            } else {
                let v: Vec<f64> = passes.iter().filter_map(|p| p.get(name).copied()).collect();
                (sys::median(&v), v.len())
            };
            Metric {
                name: name.to_owned(),
                value,
                unit,
                samples,
            }
        })
        .collect()
}

/// The highest of p50/p90/p99 with at least ten of `n` samples beyond
/// it, if any.
pub fn reportable_percentile(n: usize) -> Option<u32> {
    [99u32, 90, 50]
        .into_iter()
        .find(|&p| n * (100 - p as usize) >= 1000)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_needs_ten_samples_beyond() {
        assert_eq!(reportable_percentile(5), None);
        assert_eq!(reportable_percentile(20), Some(50));
        assert_eq!(reportable_percentile(100), Some(90));
        assert_eq!(reportable_percentile(1000), Some(99));
    }

    #[test]
    fn names_are_unique() {
        let mut all: Vec<&str> = END_TO_END
            .iter()
            .chain(PER_LAYER.iter())
            .map(|m| m.0)
            .collect();
        let n = all.len();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), n);
    }
}
