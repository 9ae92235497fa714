//! Draw-exact fast path for the behavioural model.
//!
//! DESIGN.md §3g measured that ~70 % of single-thread campaign time is
//! the seeded behavioural model itself — the Amdahl wall of the flat
//! data plane. This module breaks it *without* changing a single drawn
//! value, exploiting the invariant the determinism contract already
//! rests on: every draw derives from `persona.seed ⊕ activity label ⊕
//! per-stimulus label`, with no RNG stream shared between activities.
//! Two consequences:
//!
//! 1. **Hoisting.** The leaf RNG for a `(participant, stimulus)` cell is
//!    `seed → "behavior"/"perception"/"abjudge" → label`. The first
//!    derivation depends only on the participant, so [`ModelSeeds`]
//!    computes it once per participant and every per-cell derivation
//!    becomes a single label hash. Identical bits, fewer hashes.
//! 2. **Elision.** A draw whose value is never consumed can be skipped
//!    (whole streams) or advanced value-free (draws feeding later ones
//!    on the same stream) without perturbing any consumed draw — see
//!    [`crate::participant::TraitCursor`] and `Rng::skip_u64`.
//!
//! Every `*_seeded` function here is bit-identical to its label-deriving
//! original for matching inputs; the tests below assert that across
//! pools, classes, and seeds, and the campaign engines gate it end to
//! end (digest + counter fingerprints across engines × shards × threads
//! × chaos seeds).

use eyeorg_net::{SimDuration, SimTime};
use eyeorg_stats::rng::Rng;
use eyeorg_stats::Seed;

use crate::abjudge::{judge_pair_with_rng, AbAnswer};
use crate::behavior::{
    instruction_time_with_rng, video_session_with_rng, SessionProfile, TestKind, VideoSession,
};
use crate::participant::Persona;
use crate::perception::{
    timeline_control_with_rng, timeline_response_flat_with_rng, TimelineResponse,
    TimelineStimulusProfile,
};

/// A participant's per-activity parent seeds, derived once instead of
/// once per `(cell, draw site)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ModelSeeds {
    /// Parent of every `"behavior"` leaf stream (sessions, instructions).
    pub behavior: Seed,
    /// Parent of every `"perception"` leaf stream (responses, controls).
    pub perception: Seed,
    /// Parent of every `"abjudge"` leaf stream (A/B votes, A/B controls).
    pub abjudge: Seed,
}

impl ModelSeeds {
    /// Derive all three activity parents from a participant seed.
    #[inline]
    pub fn of(seed: Seed) -> ModelSeeds {
        ModelSeeds {
            behavior: seed.derive("behavior"),
            perception: seed.derive("perception"),
            abjudge: seed.derive("abjudge"),
        }
    }
}

/// The leaf RNG under an activity parent for one stimulus label.
#[inline]
fn leaf(parent: Seed, label: &str) -> Rng {
    Rng::seed_from_u64(parent.derive(label).value())
}

/// The raw leaf seed for a behaviour-stream cell — what the flat
/// engine's per-stimulus seed plane stores before bulk-expanding the
/// generator states with `Rng::seed_block`.
#[inline]
pub fn session_seed(seeds: &ModelSeeds, label: &str) -> u64 {
    seeds.behavior.derive(label).value()
}

/// [`crate::behavior::video_session_profiled`] with the participant's
/// behaviour parent hoisted. Bit-identical for matching inputs.
#[inline]
pub fn video_session_seeded(
    profile: &SessionProfile,
    participant: &Persona,
    kind: TestKind,
    seeds: &ModelSeeds,
    label: &str,
) -> VideoSession {
    video_session_with_rng(profile, participant, kind, leaf(seeds.behavior, label))
}

/// [`crate::behavior::video_session_profiled`] from an already-seeded
/// generator (bulk-expanded from a [`session_seed`] plane).
#[inline]
pub fn video_session_from_rng(
    profile: &SessionProfile,
    participant: &Persona,
    kind: TestKind,
    rng: Rng,
) -> VideoSession {
    video_session_with_rng(profile, participant, kind, rng)
}

/// [`crate::perception::timeline_response_flat`] with the perception
/// parent hoisted. Bit-identical for matching inputs.
#[inline]
pub fn timeline_response_seeded(
    profile: &TimelineStimulusProfile,
    rewinds: &[usize],
    participant: &Persona,
    seeds: &ModelSeeds,
    label: &str,
) -> TimelineResponse {
    timeline_response_flat_with_rng(profile, rewinds, participant, leaf(seeds.perception, label))
}

/// [`crate::perception::timeline_control_passes_flat`] with the
/// perception parent hoisted. Takes the prebuilt `"ctrl-"`-prefixed
/// label. Bit-identical for matching inputs.
#[inline]
pub fn timeline_control_seeded(
    participant: &Persona,
    seeds: &ModelSeeds,
    ctrl_label: &str,
) -> bool {
    timeline_control_with_rng(participant, leaf(seeds.perception, ctrl_label))
}

/// [`crate::behavior::instruction_time_persona`] with the behaviour
/// parent hoisted. Bit-identical for matching inputs.
#[inline]
pub fn instruction_time_seeded(participant: &Persona, seeds: &ModelSeeds) -> SimDuration {
    instruction_time_with_rng(participant, leaf(seeds.behavior, "instructions"))
}

/// [`crate::behavior::total_time_on_site_persona`] with the behaviour
/// parent hoisted: same instruction draw, same left-to-right summation.
#[inline]
pub fn total_time_on_site_seeded(
    sessions: &[VideoSession],
    participant: &Persona,
    seeds: &ModelSeeds,
) -> SimDuration {
    let mut total = instruction_time_seeded(participant, seeds);
    for s in sessions {
        total = total + s.time_spent;
    }
    total
}

/// [`crate::abjudge::judge_pair_flat`] with the judgment parent hoisted.
/// Bit-identical for matching inputs.
#[inline]
pub fn judge_pair_seeded(
    left_ready: SimTime,
    right_ready: SimTime,
    participant: &Persona,
    seeds: &ModelSeeds,
    label: &str,
) -> AbAnswer {
    judge_pair_with_rng(left_ready, right_ready, participant, leaf(seeds.abjudge, label))
}

/// [`crate::abjudge::ab_control_flat`] with the judgment parent hoisted.
/// Bit-identical for matching inputs.
#[inline]
pub fn ab_control_seeded(
    ready: SimTime,
    participant: &Persona,
    seeds: &ModelSeeds,
    label: &str,
) -> (AbAnswer, bool) {
    let delayed = ready + SimDuration::from_secs(3);
    let answer = judge_pair_seeded(ready, delayed, participant, seeds, label);
    (answer, answer == AbAnswer::Left)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::abjudge::{ab_control_flat, judge_pair_flat};
    use crate::behavior::{total_time_on_site_persona, video_session_profiled};
    use crate::participant::PopulationProfile;
    use crate::perception::{timeline_control_passes_flat, timeline_response_flat, true_ready_time};
    use eyeorg_browser::{load_page, BrowserConfig};
    use eyeorg_video::{EarliestSimilarTable, Video};
    use eyeorg_workload::{generate_site, SiteClass};

    fn video() -> Video {
        let site = generate_site(Seed(90), 0, SiteClass::News);
        let trace = load_page(&site, &BrowserConfig::new(), Seed(90));
        Video::capture(trace, 10, eyeorg_net::SimDuration::from_secs(4))
    }

    /// Every seeded entry point must be bit-identical to the
    /// label-deriving original, for every class the pools produce.
    #[test]
    fn seeded_entry_points_match_originals() {
        let v = video();
        let table = EarliestSimilarTable::of(&v);
        let rewinds = table.as_slice();
        let t_profile = TimelineStimulusProfile::of(&v);
        let s_profile = SessionProfile::of(&v, TestKind::Timeline);
        let ab_profile = SessionProfile::of(&v, TestKind::Ab);
        let ready = true_ready_time(&v, crate::participant::ReadinessCriterion::MainContent);

        for pool in [PopulationProfile::paid(), PopulationProfile::trusted()] {
            for i in 0..150 {
                let p = pool.generate_persona(Seed(91), i);
                let seeds = ModelSeeds::of(p.seed);
                for label in ["tl-0", "tl-5"] {
                    assert_eq!(
                        video_session_seeded(&s_profile, &p, TestKind::Timeline, &seeds, label),
                        video_session_profiled(&s_profile, &p, TestKind::Timeline, label),
                        "session {label} index {i}"
                    );
                    assert_eq!(
                        video_session_seeded(&ab_profile, &p, TestKind::Ab, &seeds, label),
                        video_session_profiled(&ab_profile, &p, TestKind::Ab, label),
                        "ab session {label} index {i}"
                    );
                    let mut block = Vec::new();
                    Rng::seed_block(&[session_seed(&seeds, label)], &mut block);
                    assert_eq!(
                        video_session_from_rng(
                            &s_profile,
                            &p,
                            TestKind::Timeline,
                            block[0].clone()
                        ),
                        video_session_profiled(&s_profile, &p, TestKind::Timeline, label),
                        "bulk-seeded session {label} index {i}"
                    );
                    assert_eq!(
                        timeline_response_seeded(&t_profile, rewinds, &p, &seeds, label),
                        timeline_response_flat(&t_profile, rewinds, &p, label),
                        "response {label} index {i}"
                    );
                    assert_eq!(
                        judge_pair_seeded(
                            ready,
                            ready + SimDuration::from_millis(700),
                            &p,
                            &seeds,
                            label
                        ),
                        judge_pair_flat(ready, ready + SimDuration::from_millis(700), &p, label),
                        "judge {label} index {i}"
                    );
                    assert_eq!(
                        ab_control_seeded(ready, &p, &seeds, label),
                        ab_control_flat(ready, &p, label),
                        "ab control {label} index {i}"
                    );
                }
                assert_eq!(
                    timeline_control_seeded(&p, &seeds, "ctrl-tl-0"),
                    timeline_control_passes_flat(&p, "ctrl-tl-0"),
                    "control index {i}"
                );
                assert_eq!(
                    instruction_time_seeded(&p, &seeds),
                    crate::behavior::instruction_time_persona(&p),
                    "instructions index {i}"
                );
                let sessions: Vec<VideoSession> = (0..4)
                    .map(|s| {
                        video_session_profiled(
                            &s_profile,
                            &p,
                            TestKind::Timeline,
                            &format!("tl-{s}"),
                        )
                    })
                    .collect();
                assert_eq!(
                    total_time_on_site_seeded(&sessions, &p, &seeds),
                    total_time_on_site_persona(&sessions, &p),
                    "total time index {i}"
                );
            }
        }
    }
}
