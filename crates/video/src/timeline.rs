//! Materialised frame timelines: the builder behind the rewind table.
//!
//! A campaign serves each video to dozens of participants, and every
//! timeline response consults the rewind helper, which compares frames
//! pairwise. Rendering each frame from the paint stream on every lookup
//! would make campaigns quadratic in practice, so
//! [`EarliestSimilarTable::of`](crate::EarliestSimilarTable::of)
//! materialises the frame sequence once per video (incrementally — total
//! work proportional to painted area, not frames × paints), answers the
//! helper for every frame in one pass over the recorded deltas, and
//! keeps only the answers. This module is that pass; nothing outside the
//! crate sees a timeline.

use eyeorg_net::SimTime;

use crate::capture::{paint_salt, Video};
use crate::frame::{appearance, Frame};

/// All frames of a capture, materialised, plus the cell writes between
/// them.
///
/// Frames are copy-on-write ([`Frame`] shares cell buffers via `Arc`),
/// so intervals without paints cost a pointer clone, and the recorded
/// per-interval *deltas* — each cell write as `(index, old, new)` — let
/// rewind scans maintain a running differing-cell count instead of
/// re-diffing full grids (see [`FrameTimeline::earliest_similar`]).
#[derive(Debug)]
pub(crate) struct FrameTimeline {
    frames: Vec<Frame>,
    /// `deltas[i]` is the sequence of cell writes transforming frame
    /// `i - 1` into frame `i` (`deltas[0]`: blank into frame 0). Writes
    /// chain per cell, so summing `(new != t) - (old != t)` over an
    /// interval telescopes to the exact change in "cells differing from
    /// `t`" across that interval.
    deltas: Vec<Vec<(u32, u8, u8)>>,
}

impl FrameTimeline {
    /// Materialise every frame of `video` by applying paints
    /// incrementally between frame instants. Total work is proportional
    /// to painted area (cells actually written), not frames × grid.
    pub(crate) fn of(video: &Video) -> FrameTimeline {
        let n = video.frame_count();
        let trace = video.trace();
        let probe = video.render_at(SimTime::ZERO);
        let (w, h) = (probe.width(), probe.height());
        let sx = f64::from(w) / f64::from(trace.canvas_width.max(1));
        let sy = f64::from(h) / f64::from(trace.fold_y.max(1));

        let mut frames = Vec::with_capacity(n);
        let mut deltas = Vec::with_capacity(n);
        let mut cur = Frame::blank(w, h);
        let mut paint_idx = 0;
        for i in 0..n {
            let t = video.frame_time(i);
            let mut interval: Vec<(u32, u8, u8)> = Vec::new();
            while paint_idx < trace.paints.len() && trace.paints[paint_idx].time <= t {
                let p = &trace.paints[paint_idx];
                paint_idx += 1;
                let Some(visible) = p.rect.above_fold(trace.fold_y) else { continue };
                cur.fill_rect_scaled_traced(
                    &visible,
                    sx,
                    sy,
                    appearance(p.resource.0, paint_salt(p)),
                    &mut |idx, old, new| interval.push((idx, old, new)),
                );
            }
            frames.push(cur.clone());
            deltas.push(interval);
        }
        FrameTimeline { frames, deltas }
    }

    /// The earliest similar frame for every frame, in frame order.
    pub(crate) fn rewinds(&self, threshold: f64) -> Vec<usize> {
        (0..self.frames.len()).map(|chosen| self.earliest_similar(chosen, threshold)).collect()
    }

    /// The rewind scan, incrementally: the reference semantics are "the
    /// first `i` in `0..=chosen` with `diff_fraction(frame i, frame
    /// chosen) <= threshold`". Rather than diffing each pair (O(chosen ×
    /// grid)), walk *backwards* from `chosen` maintaining the exact count
    /// of cells differing from the target — undoing one interval's
    /// recorded writes adjusts the count by `(old != t) - (new != t)` per
    /// write — and keep the earliest qualifying index. The counts are
    /// integers, so `count / len` is bit-identical to what
    /// `diff_fraction` computes on the full grids.
    fn earliest_similar(&self, chosen: usize, threshold: f64) -> usize {
        let target = self.frames[chosen].cells();
        let len = target.len() as f64;
        let mut differing: i64 = 0; // frame `chosen` vs itself
        let mut result = chosen;
        for i in (0..=chosen).rev() {
            // `differing` is now the count for frame `i` vs the target.
            debug_assert!(differing >= 0);
            if differing as f64 / len <= threshold {
                result = i; // keep walking: earlier qualifying i wins
            }
            if i > 0 {
                for &(idx, old, new) in &self.deltas[i] {
                    let t = target[idx as usize];
                    differing += i64::from(old != t) - i64::from(new != t);
                }
            }
        }
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compare::{rewind_suggestion, EarliestSimilarTable};
    use eyeorg_browser::{load_page, BrowserConfig};
    use eyeorg_net::SimDuration;
    use eyeorg_stats::Seed;
    use eyeorg_workload::{generate_site, SiteClass};

    fn video() -> Video {
        let site = generate_site(Seed(60), 2, SiteClass::Blog);
        let trace = load_page(&site, &BrowserConfig::new(), Seed(61));
        Video::capture(trace, 10, SimDuration::from_secs(3))
    }

    #[test]
    fn materialised_frames_match_lazy_rendering() {
        let v = video();
        let tl = FrameTimeline::of(&v);
        assert_eq!(tl.frames.len(), v.frame_count());
        assert_eq!(tl.deltas.len(), v.frame_count());
        for i in [0, 1, v.frame_count() / 3, v.frame_count() - 1] {
            assert_eq!(tl.frames[i], v.frame(i), "frame {i}");
        }
    }

    #[test]
    fn rewind_matches_reference_implementation() {
        let v = video();
        let table = EarliestSimilarTable::of(&v);
        assert_eq!(table.len(), v.frame_count());
        for chosen in 0..v.frame_count() {
            assert_eq!(table.suggest(chosen), rewind_suggestion(&v, chosen), "chosen {chosen}");
        }
        // Out-of-range chosen clamps to the final frame.
        assert_eq!(table.suggest(usize::MAX), table.suggest(v.frame_count() - 1));
    }
}
