//! The sharded campaign engine: SoA batching + arena scratch.
//!
//! `campaign::run_timeline_campaign` materializes every showing before
//! the filter/analysis layers touch it, so memory grows with the crowd.
//! This module runs the same seeded per-participant pipeline **shard by
//! shard**: the participant range is split into fixed-size shards, each
//! shard worker regenerates its participants from the campaign seed
//! (generation is index-addressed, so no participant list is ever
//! materialized), runs the gate → assignment → behaviour → perception →
//! filter pipeline, and folds the results into the mergeable
//! accumulators of [`crate::digest`]. Shards merge in shard-index
//! order; since every accumulator's state is multiset-determined, the
//! digest — and the obs `counter_fingerprint` — is byte-identical at any
//! thread count and any shard size, and equal to the materializing
//! path's digest (pinned by the `streaming_equivalence` tests).
//!
//! The engine is written once over the test-kind trait
//! (`crate::kind::CampaignKind`): one epoch entry ([`epoch`]) that
//! every driver runs, and one one-shot campaign behind
//! [`flat_timeline_campaign`] and [`flat_ab_campaign`]. The one-shot
//! campaigns fold `[0, n)`, while the adaptive and checkpoint drivers
//! (`crate::adaptive`, `crate::checkpoint`) fold one barrier interval
//! at a time. What differs per kind — above all each kind's one range
//! fold, `CampaignKind::fold_range` — lives with the trait in
//! `crate::kind`, as do the shard state, the context and the arena.
//!
//! ## The admitted-index pre-pass
//!
//! Stimulus assignment is keyed by the participant's *admitted* index
//! (the count of gate-admitted participants before them), which depends
//! on every earlier gate decision. A shard can't know its base offset
//! locally, so an epoch runs two passes: pass 1 counts gate admissions
//! per shard (pure — the gate draws only from the participant's own
//! seed stream and bumps nothing), a sequential prefix sum turns the
//! counts into per-shard bases, and pass 2 generates, serves, filters,
//! and folds with those bases.
//!
//! ## The fold, in structure-of-arrays form
//!
//! 1. All per-stimulus constants are hoisted into *planes* (one
//!    `TlPlane`/`AbPlane` per stimulus) built once per run:
//!    precomputed labels, [`TimelineStimulusProfile`], [`SessionProfile`],
//!    ready moments, and the full rewind table — the inner loop never
//!    touches a `Video` again.
//! 2. Each shard works out of a reusable **arena** (`Scratch`) owned
//!    by its worker thread (via [`par_map_range_scratch`]): flat
//!    per-cell arrays for personas, picks, sessions, and the
//!    per-stimulus row index, plus the per-stimulus **seed plane**
//!    (`seed_buf`) and its bulk-expanded generator block (`rngs`). After
//!    the first shard warms the capacities up, the inner loop allocates
//!    nothing.
//! 3. Within a shard the work runs **stimulus-blocked**: pass A draws
//!    trait cursors and gates them (finishing traits only for served
//!    rows), pass B assigns stimuli and builds the per-stimulus cell
//!    index, pass C serves all showings of stimulus 0, then all of
//!    stimulus 1, … — deriving each stimulus's behaviour leaf seeds
//!    into a flat plane and expanding them into xoshiro256++ states in
//!    one block — and pass D/E answers controls and walks rows in
//!    ascending order folding filters, votes, and behaviour into the
//!    shard accumulators. Slider responses and A/B judgments are
//!    **demand-driven**: they are drawn at push time, only for cells
//!    whose value actually reaches a live digest (kept row, non-skipped
//!    session, live stimulus).
//!
//! ## Why the digest stays byte-identical
//!
//! Every random draw in the pipeline comes from an RNG seeded by
//! `persona.seed ⊕ activity label ⊕ per-stimulus label` — never from a
//! shared stream — so *call order across (participant, stimulus) cells
//! is immaterial*: serving pass C by stimulus instead of by
//! participant, bulk-seeding a whole stimulus block, or not drawing a
//! response whose value no accumulator consumes reads the exact same
//! bits everywhere else. What does carry order is the push sequence
//! into each accumulator, and pass E replays the materializing engine's:
//! rows ascending, slots in presentation order. Counters (gate,
//! responses, filters, controls) are pure totals and are bumped in pass
//! C regardless of whether the value is later consumed.

use eyeorg_crowd::{PopulationProfile, RecruitmentService};
use eyeorg_stats::{par_map_range, par_map_range_scratch, resolve_threads, Seed};

use crate::digest::{AbDigest, DigestParams, TimelineDigest};
use crate::experiment::{AbStimulus, ExperimentConfig, TimelineStimulus};
use crate::filtering::ParticipantFilter;
use crate::kind::{agreed, finish, Ab, CampaignKind, Ctx, Scratch, Shard, Timeline};

/// Sharding configuration for the sharded engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StreamConfig {
    /// Participants per shard. Memory is proportional to this (plus
    /// the fixed accumulator footprint), never to the crowd size.
    pub shard_size: usize,
    /// Accumulator sizing (must match the digest it is compared with).
    pub params: DigestParams,
}

impl Default for StreamConfig {
    fn default() -> Self {
        StreamConfig { shard_size: 4096, params: DigestParams::default() }
    }
}

/// Pass 1 of every epoch: gate admissions per shard of the index range
/// `[lo, hi)`, prefix-summed into each shard's base admitted index,
/// continuing the admitted-index sequence from `base` (the admissions
/// in `[0, lo)`). Returns the per-shard bases and the range's total
/// admission count — what the epoch drivers carry from barrier to
/// barrier.
pub(crate) fn admitted_bases_range(
    lo: usize,
    hi: usize,
    shard: usize,
    threads: usize,
    pop: &PopulationProfile,
    recruit_seed: Seed,
    base: u64,
) -> (Vec<u64>, u64) {
    let shards = (hi - lo).div_ceil(shard);
    let per_shard: Vec<u64> = par_map_range(shards, threads, |s| {
        let slo = lo + s * shard;
        let shi = (slo + shard).min(hi);
        (slo..shi)
            .filter(|&i| {
                let (pseed, class) = pop.generate_gate(recruit_seed, i as u64);
                crate::validation::captcha_admits_gate(pseed, class)
            })
            .count() as u64
    });
    let mut bases = Vec::with_capacity(shards);
    let mut acc = base;
    for &a in &per_shard {
        bases.push(acc);
        acc += a;
    }
    (bases, acc - base)
}

/// One epoch over `[lo, hi)`: pass 1 computes the shards' admitted
/// bases (continuing from `base_admitted`), then pass 2 folds each
/// shard under `live` out of a per-worker arena, bumping the obs
/// counters. Returns the folds in shard order plus the range's
/// gate-admission count. Every driver of either kind runs this.
pub(crate) fn epoch<K: CampaignKind>(
    ctx: &Ctx<'_, K>,
    lo: usize,
    hi: usize,
    threads: usize,
    shard: usize,
    base_admitted: u64,
    live: &[bool],
) -> (Vec<Shard<K>>, u64) {
    let (bases, range_admitted) =
        admitted_bases_range(lo, hi, shard, threads, &ctx.pop, ctx.recruit_seed, base_admitted);
    let folds = par_map_range_scratch(
        bases.len(),
        threads,
        || Scratch::new(ctx.stimuli.len()),
        |arena, s| {
            let slo = lo + s * shard;
            let shi = (slo + shard).min(hi);
            let fold = K::fold_range(ctx, arena, slo, shi, bases[s], live);
            K::bump_counters(&fold);
            fold
        },
    );
    (folds, range_admitted)
}

/// The one-shot campaign of either kind: one all-live epoch over
/// `[0, n)`, then the order-pinned merge into the digest.
#[allow(clippy::too_many_arguments)] // the public entry points' arguments plus the timer
fn campaign<K: CampaignKind>(
    stimuli: &[K::Stimulus],
    service: &dyn RecruitmentService,
    n_participants: usize,
    cfg: &ExperimentConfig,
    filters: &[Box<dyn ParticipantFilter + Send + Sync>],
    seed: Seed,
    sc: &StreamConfig,
    timer: &'static str,
) -> K::Digest {
    assert!(!stimuli.is_empty(), "campaign needs stimuli");
    let _t = eyeorg_obs::phase_timer(timer);
    let threads = resolve_threads(cfg.threads);
    let ctx = Ctx::<K>::new(stimuli, service, cfg, filters, seed, sc.params, threads);
    let live = vec![true; stimuli.len()];
    let (folds, _) =
        epoch(&ctx, 0, n_participants, threads, sc.shard_size.max(1), 0, &live);
    agreed(finish(stimuli, service, n_participants as u64, &sc.params, &folds))
}

/// Run a timeline campaign through the sharded engine: `n`
/// participants from `service`, gated, served, filtered by `filters`,
/// and folded into a [`TimelineDigest`] — without materializing rows.
///
/// Byte-identical to `run_timeline_campaign` + `filter_timeline` +
/// `digest_timeline` on the same inputs (digest *and* counter
/// fingerprint), at any thread count and shard size.
pub fn flat_timeline_campaign(
    stimuli: &[TimelineStimulus],
    service: &dyn RecruitmentService,
    n_participants: usize,
    cfg: &ExperimentConfig,
    filters: &[Box<dyn ParticipantFilter + Send + Sync>],
    seed: Seed,
    sc: &StreamConfig,
) -> TimelineDigest {
    let timer = "core.flat_timeline";
    campaign::<Timeline>(stimuli, service, n_participants, cfg, filters, seed, sc, timer)
}

/// Run an A/B campaign through the sharded engine. Byte-identical to
/// `run_ab_campaign` + `filter_ab` + `digest_ab` on the same inputs.
pub fn flat_ab_campaign(
    stimuli: &[AbStimulus],
    service: &dyn RecruitmentService,
    n_participants: usize,
    cfg: &ExperimentConfig,
    filters: &[Box<dyn ParticipantFilter + Send + Sync>],
    seed: Seed,
    sc: &StreamConfig,
) -> AbDigest {
    campaign::<Ab>(stimuli, service, n_participants, cfg, filters, seed, sc, "core.flat_ab")
}
