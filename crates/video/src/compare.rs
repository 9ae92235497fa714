//! Frame comparison: the rewind-frame helper and control frames.
//!
//! §3.2 of the paper: after a participant picks a frame on the timeline,
//! Eyeorg shows them "the earliest similar frame (no more than 1 %
//! different in a pixel-by-pixel comparison)" and lets them accept the
//! rewind or keep their choice (Fig. 3a). As a control (§3.3), the
//! platform occasionally proposes "a nearly-blank rewind frame" instead
//! and checks the participant rejects it (Fig. 3b).
//!
//! The helper is one pure function per video, served one way:
//! [`EarliestSimilarTable`] answers it for every frame at the paper's
//! 1 % threshold, built once when the video is first served.
//! [`earliest_similar_frame`] is the definitional render-and-diff scan
//! the table is tested against.

use crate::capture::Video;
use crate::frame::Frame;
use crate::timeline::FrameTimeline;

/// The similarity threshold of the paper's helper: frames differing in at
/// most this fraction of pixels count as "similar".
pub const SIMILARITY_THRESHOLD: f64 = 0.01;

/// Earliest frame similar to frame `chosen` — the helper's suggestion.
/// Scans from the start and returns the first index whose diff fraction
/// against the chosen frame is at or below `threshold`. Always at most
/// `chosen` (the chosen frame is similar to itself).
///
/// This is the *reference* implementation: it renders and diffs every
/// frame up to `chosen` on each call, so a loop over all frames is
/// quadratic in renders. Callers that query the same video repeatedly
/// build an [`EarliestSimilarTable`] once and index it.
pub fn earliest_similar_frame(video: &Video, chosen: usize, threshold: f64) -> usize {
    let target = video.frame(chosen);
    for i in 0..=chosen {
        if video.frame(i).diff_fraction(&target) <= threshold {
            return i;
        }
    }
    chosen
}

/// The per-video earliest-similar-frame table: the rewind helper's
/// suggestion for every frame at the paper's 1 % threshold, built once
/// when the video is first served and indexed by every response after.
///
/// This is the only rewind state the platform keeps. Building it costs
/// one timeline materialisation plus one delta walk per frame (work
/// proportional to frames × recorded cell writes), after which each
/// query is a bounds-checked index — against [`rewind_suggestion`]'s
/// full render-and-diff rescan per call. Every entry equals the naive
/// scan exactly: the walk maintains the same integer differing-cell
/// count `diff_fraction` computes (pinned by the
/// `table_matches_naive_scan` regression test).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EarliestSimilarTable {
    table: Vec<usize>,
}

impl EarliestSimilarTable {
    /// Build the table at the paper's 1 % threshold.
    pub fn of(video: &Video) -> EarliestSimilarTable {
        EarliestSimilarTable { table: FrameTimeline::of(video).rewinds(SIMILARITY_THRESHOLD) }
    }

    /// Number of frames covered.
    pub fn len(&self) -> usize {
        self.table.len()
    }

    /// Whether the table is empty (never true for a real capture).
    pub fn is_empty(&self) -> bool {
        self.table.is_empty()
    }

    /// The earliest similar frame for `chosen` (clamped to the last
    /// frame).
    pub fn suggest(&self, chosen: usize) -> usize {
        self.table[chosen.min(self.table.len().saturating_sub(1))]
    }

    /// The whole table, `[chosen] -> earliest similar frame`: what the
    /// response model indexes on its per-response path.
    pub fn as_slice(&self) -> &[usize] {
        &self.table
    }
}

/// The standard rewind suggestion at the paper's 1 % threshold.
pub fn rewind_suggestion(video: &Video, chosen: usize) -> usize {
    earliest_similar_frame(video, chosen, SIMILARITY_THRESHOLD)
}

/// A nearly-blank control frame for the §3.3 control question: visually
/// obvious nonsense that a diligent participant must reject. We use the
/// video's first frame, which for a page-load capture is the blank page
/// (and synthesize a blank if the capture somehow starts painted).
pub fn control_frame(video: &Video) -> Frame {
    let f = video.frame(0);
    if f.painted_fraction() < 0.05 {
        f
    } else {
        Frame::blank(f.width(), f.height())
    }
}

/// Whether a frame would look "drastically different" from the
/// participant's chosen frame — the property the control relies on.
pub fn is_obvious_mismatch(video: &Video, chosen: usize, candidate: &Frame) -> bool {
    video.frame(chosen).diff_fraction(candidate) > 0.25
}

#[cfg(test)]
mod tests {
    use super::*;
    use eyeorg_browser::{load_page, BrowserConfig};
    use eyeorg_net::SimDuration;
    use eyeorg_stats::Seed;
    use eyeorg_workload::{generate_site, SiteClass};

    fn video() -> Video {
        let site = generate_site(Seed(4), 3, SiteClass::Blog);
        let trace = load_page(&site, &BrowserConfig::new(), Seed(4));
        Video::capture(trace, 10, SimDuration::from_secs(3))
    }

    #[test]
    fn rewind_never_later_than_choice() {
        let v = video();
        for chosen in [0, 5, v.frame_count() / 2, v.frame_count() - 1] {
            let r = rewind_suggestion(&v, chosen);
            assert!(r <= chosen);
        }
    }

    #[test]
    fn rewind_from_late_frame_rewinds_past_static_tail() {
        // After the page is fully painted, frames are identical; choosing
        // the final frame must rewind to the first fully-painted one.
        let v = video();
        let last = v.frame_count() - 1;
        let r = rewind_suggestion(&v, last);
        assert!(r < last, "static tail should rewind ({r} vs {last})");
        // And the suggested frame really is similar.
        assert!(v.frame(r).diff_fraction(&v.frame(last)) <= SIMILARITY_THRESHOLD);
    }

    #[test]
    fn rewind_of_blank_start_is_frame_zero() {
        let v = video();
        assert_eq!(rewind_suggestion(&v, 0), 0);
    }

    #[test]
    fn control_frame_is_nearly_blank_and_obvious() {
        let v = video();
        let ctrl = control_frame(&v);
        assert!(ctrl.painted_fraction() < 0.05);
        // Against a loaded page the control is an obvious mismatch.
        let late = v.frame_count() - 1;
        assert!(is_obvious_mismatch(&v, late, &ctrl));
        // Against the blank opening frame it is not.
        assert!(!is_obvious_mismatch(&v, 0, &ctrl));
    }

    #[test]
    fn table_matches_naive_scan() {
        // The regression pin: the table must equal the reference
        // render-and-diff scan at every frame of every test video. The
        // public table is the paper threshold; the looser/stricter sweep
        // reaches the same builder directly.
        let capture = |site, load_seed, secs| {
            let trace = load_page(&site, &BrowserConfig::new(), Seed(load_seed));
            Video::capture(trace, 10, SimDuration::from_secs(secs))
        };
        let videos = [
            video(),
            capture(generate_site(Seed(60), 2, SiteClass::Blog), 61, 3),
            capture(generate_site(Seed(30), 0, SiteClass::News), 30, 5),
        ];
        for v in &videos {
            let table = EarliestSimilarTable::of(v);
            assert_eq!(table.len(), v.frame_count());
            assert_eq!(table.as_slice().len(), v.frame_count());
            for chosen in 0..v.frame_count() {
                assert_eq!(table.suggest(chosen), rewind_suggestion(v, chosen), "chosen {chosen}");
                assert_eq!(table.as_slice()[chosen], table.suggest(chosen));
            }
            // Out-of-range queries clamp to the final frame.
            assert_eq!(table.suggest(usize::MAX), table.suggest(v.frame_count() - 1));
            let timeline = FrameTimeline::of(v);
            for threshold in [0.0, SIMILARITY_THRESHOLD, 0.10] {
                let rewinds = timeline.rewinds(threshold);
                for (chosen, &r) in rewinds.iter().enumerate() {
                    assert_eq!(
                        r,
                        earliest_similar_frame(v, chosen, threshold),
                        "chosen {chosen} threshold {threshold}"
                    );
                }
            }
        }
    }

    #[test]
    fn threshold_monotonicity() {
        let v = video();
        let chosen = v.frame_count() - 1;
        let strict = earliest_similar_frame(&v, chosen, 0.0);
        let loose = earliest_similar_frame(&v, chosen, 0.10);
        assert!(loose <= strict, "looser threshold rewinds at least as far");
    }
}
