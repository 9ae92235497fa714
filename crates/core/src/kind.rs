//! The two crowd tests behind one trait.
//!
//! Eyeorg runs two tests — the timeline (UPLT) test and the A/B test —
//! through one sharded engine ([`crate::flat`]) and one checkpoint layer
//! ([`crate::checkpoint`]). [`CampaignKind`] carries only what really
//! differs between them:
//!
//! * the stimulus, per-stimulus accumulator, totals and digest types —
//!   the accumulator and totals types *are* the checkpoint's stimulus
//!   and totals line shapes, serialized from their own state;
//! * the obs counters a shard bumps;
//! * the checkpoint kind tag, and whether a drive line exists;
//! * the fold body, which is the model rather than plumbing: pass A's
//!   mask and pruning (timeline), pass C's show tallies (A/B), and pass
//!   E's response or judgment draw.
//!
//! Everything else is written once over `K: CampaignKind`: the shard
//! state [`Shard`] and its one fallible merge, the one digest builder
//! [`finish`], the epoch entry and one-shot campaign of `crate::flat`,
//! and `crate::checkpoint`'s save/load/merge/finalize, resume
//! validation and worker checkpoint.
//!
//! The module is private, so the trait is sealed: [`Timeline`] and
//! [`Ab`] are its only impls. The types it names are `pub` only so the
//! public checkpoint types may carry them; none is exported.

use std::fmt::Debug;

use eyeorg_crowd::fastpath::{
    self, judge_pair_seeded, session_seed, timeline_control_seeded, timeline_response_seeded,
    video_session_from_rng,
};
use eyeorg_crowd::{
    AbAnswer, ModelSeeds, Persona, PopulationProfile, RecruitmentService, SessionProfile,
    TestKind, TimelineStimulusProfile, VideoSession,
};
use eyeorg_stats::rng::Rng;
use eyeorg_stats::{par_map_range, Seed};
use eyeorg_video::EarliestSimilarTable;
use serde::{Deserialize, Serialize};

use crate::analysis::BehaviorPoint;
use crate::campaign::{AbVerdict, ControlRow};
use crate::digest::{
    checked_sum, AbDigest, AbStimulusDigest, BehaviorDigest, ControlTally, DigestParams,
    MergeError, StimulusDigest, TimelineDigest,
};
use crate::experiment::{a_on_left, assign_into, AbStimulus, ExperimentConfig, TimelineStimulus};
use crate::filtering::{decide, FilterDecision, FilterTally, ParticipantFilter};

/// What differs between the two crowd tests; see the module docs.
pub trait CampaignKind: Sized + Debug + Clone + 'static {
    /// What one showing presents.
    type Stimulus: Sync;
    /// One stimulus's accumulators — also its checkpoint line.
    type Acc: Clone + Debug + Send + Serialize + Deserialize;
    /// A shard's counts — also the checkpoint totals line.
    type Totals: Copy + Debug + Default + Send + Serialize + Deserialize;
    /// What a finished campaign yields.
    type Digest;
    /// Per-stimulus constants hoisted out of the fold.
    type Plane: Send + Sync;

    /// The checkpoint header's `kind`.
    const TAG: &'static str;
    /// Whether checkpoints carry the adaptive driver's line.
    const DRIVE_LINE: bool;
    /// Seed label of the stimulus-assignment stream.
    const ASSIGN_LABEL: &'static str;

    /// The [`DigestParams`] this kind's accumulators are built under (and
    /// its checkpoint header records).
    fn params(p: &DigestParams) -> DigestParams;

    /// Empty accumulators for one stimulus.
    fn new_acc(st: &Self::Stimulus, params: &DigestParams) -> Self::Acc;

    /// Check a loaded accumulator against the header's params.
    fn check_acc(acc: &Self::Acc, params: &DigestParams) -> Result<(), String>;

    /// Fold another shard's accumulators for the same stimulus in.
    fn merge_acc(acc: &mut Self::Acc, other: &Self::Acc) -> Result<(), MergeError>;

    /// Fold another shard's counts in.
    fn merge_totals(t: &mut Self::Totals, other: &Self::Totals) -> Result<(), MergeError>;

    /// Gate admissions the counts account for, pruned participants
    /// included: the admitted-index span a shard consumed.
    fn gate_admitted(t: &Self::Totals) -> u64;

    /// Bump the obs counters from one shard fold.
    fn bump_counters(fold: &Shard<Self>);

    /// Hoist stimulus `si`'s constants.
    fn new_plane(si: usize, st: &Self::Stimulus) -> Self::Plane;

    /// Fold participant indices `[lo, hi)` with admitted-index base
    /// `base` under the per-stimulus `live` mask.
    fn fold_range(
        ctx: &Ctx<'_, Self>,
        arena: &mut Scratch,
        lo: usize,
        hi: usize,
        base: u64,
        live: &[bool],
    ) -> Shard<Self>;

    /// Assemble the digest from a campaign's merged shard state.
    fn into_digest(s: Shard<Self>, recruited: u64, cost_usd: f64, duration_secs: f64)
        -> Self::Digest;
}

/// The timeline (UPLT) test.
#[derive(Debug, Clone, Copy)]
pub struct Timeline;

/// The A/B test.
#[derive(Debug, Clone, Copy)]
pub struct Ab;

/// A timeline shard's counts, in checkpoint totals-line order.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct TlTotals {
    pub(crate) admitted: u64,
    pub(crate) rejected: u64,
    pub(crate) collected: u64,
    pub(crate) skipped: u64,
    /// Gate-admitted participants never served because every stimulus
    /// they were assigned had already stopped recruiting (adaptive runs
    /// only; always 0 under an all-live mask). They still consume an
    /// admitted index so later assignments match the full run.
    pub(crate) pruned: u64,
    pub(crate) filters: FilterTally,
    pub(crate) controls: ControlTally,
}

/// An A/B shard's counts, in checkpoint totals-line order.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct AbTotals {
    pub(crate) admitted: u64,
    pub(crate) rejected: u64,
    pub(crate) cast: u64,
    pub(crate) skipped: u64,
    pub(crate) filters: FilterTally,
    pub(crate) controls: ControlTally,
}

/// One shard's fold of a campaign — and, merged, a whole range's: the
/// adaptive driver accumulates epochs of folds into one, and the
/// checkpoint layer serializes it.
#[derive(Debug, Clone)]
pub struct Shard<K: CampaignKind> {
    pub(crate) stimuli: Vec<K::Acc>,
    pub(crate) behavior: BehaviorDigest,
    pub(crate) totals: K::Totals,
}

impl<K: CampaignKind> Shard<K> {
    /// An empty fold sized for `stimuli`.
    pub(crate) fn new(stimuli: &[K::Stimulus], params: &DigestParams) -> Shard<K> {
        Shard {
            stimuli: stimuli.iter().map(|st| K::new_acc(st, params)).collect(),
            behavior: BehaviorDigest::default(),
            totals: K::Totals::default(),
        }
    }

    /// Fold another shard's state into this one — the single merge path,
    /// for in-process folds and checkpoint state alike (exact and
    /// order-free, because every accumulator is multiset-determined).
    /// Fails on a stimulus identity/config mismatch or a counter
    /// overflow, which only forged state can reach; `self` is then
    /// partly merged, so callers that must keep it merge into a copy.
    pub(crate) fn merge(&mut self, other: &Shard<K>) -> Result<(), MergeError> {
        if self.stimuli.len() != other.stimuli.len() {
            return Err(MergeError::StimulusCount {
                left: self.stimuli.len(),
                right: other.stimuli.len(),
            });
        }
        for (acc, o) in self.stimuli.iter_mut().zip(&other.stimuli) {
            K::merge_acc(acc, o)?;
        }
        self.behavior.merge(&other.behavior)?;
        K::merge_totals(&mut self.totals, &other.totals)
    }
}

/// The one digest builder: a fresh fold for `stimuli` with `folds`
/// merged in, in order, through [`Shard::merge`] — so state from disk
/// is checked exactly like the engine's own folds. `recruited` sizes
/// the recruitment economics.
pub(crate) fn finish<K: CampaignKind>(
    stimuli: &[K::Stimulus],
    service: &dyn RecruitmentService,
    recruited: u64,
    params: &DigestParams,
    folds: &[Shard<K>],
) -> Result<K::Digest, MergeError> {
    let mut acc = Shard::<K>::new(stimuli, params);
    for fold in folds {
        acc.merge(fold)?;
    }
    let n = recruited as usize;
    let duration = if n == 0 { 0.0 } else { service.arrival(n - 1).as_secs_f64() };
    Ok(K::into_digest(acc, recruited, service.cost_per_participant() * n as f64, duration))
}

/// Discharge a merge of one campaign's own shard folds: they share one
/// construction site and never near a counter limit, so a refusal is a
/// bug, not input.
pub(crate) fn agreed<T>(r: Result<T, MergeError>) -> T {
    // lint:allow(D4): same-campaign shard folds share one construction site
    r.expect("same-campaign shard folds agree by construction")
}

// ---------------------------------------------------------------------
// The engine state the folds run on
// ---------------------------------------------------------------------

/// A campaign's shared read-only state: planes, population, seeds, and
/// config, built once per run and shared by every driver's epochs.
pub struct Ctx<'a, K: CampaignKind> {
    pub(crate) stimuli: &'a [K::Stimulus],
    planes: Vec<K::Plane>,
    pub(crate) pop: PopulationProfile,
    cfg: &'a ExperimentConfig,
    filters: &'a [Box<dyn ParticipantFilter + Send + Sync>],
    seed: Seed,
    pub(crate) recruit_seed: Seed,
    assign_seed: Seed,
    params: DigestParams,
    k: usize,
}

impl<'a, K: CampaignKind> Ctx<'a, K> {
    /// Hoist all per-stimulus constants into planes, in parallel.
    pub(crate) fn new(
        stimuli: &'a [K::Stimulus],
        service: &dyn RecruitmentService,
        cfg: &'a ExperimentConfig,
        filters: &'a [Box<dyn ParticipantFilter + Send + Sync>],
        seed: Seed,
        params: DigestParams,
        threads: usize,
    ) -> Ctx<'a, K> {
        Ctx {
            stimuli,
            planes: par_map_range(stimuli.len(), threads, |si| K::new_plane(si, &stimuli[si])),
            pop: service.population(),
            cfg,
            filters,
            seed,
            recruit_seed: seed.derive("recruit"),
            assign_seed: seed.derive(K::ASSIGN_LABEL),
            params,
            k: cfg.videos_per_participant.min(stimuli.len()),
        }
    }
}

/// The behaviour-scatter point for one served participant, with the
/// instruction-time draw taken from the hoisted `"behavior"` parent.
fn behavior_point_persona(
    participant: usize,
    sessions: &[VideoSession],
    p: &Persona,
    seeds: &ModelSeeds,
) -> BehaviorPoint {
    let total = fastpath::total_time_on_site_seeded(sessions, p, seeds);
    BehaviorPoint {
        participant,
        minutes_on_site: total.as_secs_f64() / 60.0,
        actions: sessions.iter().map(|s| s.actions()).sum(),
        out_of_focus_secs: sessions.iter().map(|s| s.out_of_focus.as_secs_f64()).sum(),
        max_video_load_secs: sessions
            .iter()
            .map(|s| s.video_load.as_secs_f64())
            .fold(0.0, f64::max),
    }
}

/// Record a row's control outcome (if any) and run the filter pipeline
/// over its sessions — the per-row filter step both folds share.
fn filter_row(
    filters: &[Box<dyn ParticipantFilter + Send + Sync>],
    sessions: &[VideoSession],
    control: Option<ControlRow>,
    controls: &mut ControlTally,
    tally: &mut FilterTally,
) -> FilterDecision {
    let ctrl_arr;
    let ctrl_refs: &[&ControlRow] = if let Some(c) = &control {
        controls.record(c.passed);
        ctrl_arr = [c];
        &ctrl_arr
    } else {
        &[]
    };
    let d = decide(filters, sessions, ctrl_refs);
    tally.record(d);
    d
}

/// One worker's reusable arena: flat per-row / per-cell arrays (a
/// *cell* is `row * k + slot`). Cleared and refilled per shard; after
/// the first shard the capacities are warm and the shard loop
/// allocates nothing.
pub struct Scratch {
    /// Served personas, one per row.
    personas: Vec<Persona>,
    /// Hoisted per-activity parent seeds, one per row — derived once
    /// instead of once per (cell, draw site).
    seeds: Vec<ModelSeeds>,
    /// Admitted index per row. Equal to `shard base + row` under an
    /// all-live mask; under an adaptive mask, pruned participants still
    /// consume admitted indices, so rows are a *subset* of the admitted
    /// sequence and carry their index explicitly.
    row_pi: Vec<u64>,
    /// Assigned stimulus per cell.
    picks: Vec<u32>,
    /// [`assign_into`] staging buffer.
    pick_buf: Vec<usize>,
    /// Session per cell (filled out of row order by pass C).
    sessions: Vec<Option<VideoSession>>,
    /// Whether the cell produced a response (not skipped).
    voted: Vec<bool>,
    /// Per-stimulus list of cells, the pass-C iteration order.
    stim_rows: Vec<Vec<u32>>,
    /// The per-stimulus seed plane: one behaviour leaf seed per showing
    /// of the current stimulus, derived in a flat pass.
    seed_buf: Vec<u64>,
    /// The seed plane bulk-expanded into generator states.
    rngs: Vec<Rng>,
    /// Contiguous per-row session slice handed to the filters.
    row_buf: Vec<VideoSession>,
}

impl Scratch {
    pub(crate) fn new(n_stimuli: usize) -> Scratch {
        Scratch {
            personas: Vec::new(),
            seeds: Vec::new(),
            row_pi: Vec::new(),
            picks: Vec::new(),
            pick_buf: Vec::new(),
            sessions: Vec::new(),
            voted: Vec::new(),
            stim_rows: (0..n_stimuli).map(|_| Vec::new()).collect(),
            seed_buf: Vec::new(),
            rngs: Vec::new(),
            row_buf: Vec::new(),
        }
    }

    /// Reset row state for a new shard, keeping every capacity.
    fn reset(&mut self) {
        self.personas.clear();
        self.seeds.clear();
        self.row_pi.clear();
        self.picks.clear();
        self.sessions.clear();
        self.voted.clear();
        for rows in &mut self.stim_rows {
            rows.clear();
        }
    }

    /// Pass A's output for one served participant.
    fn serve(&mut self, pi: u64, p: Persona) {
        self.row_pi.push(pi);
        self.seeds.push(ModelSeeds::of(p.seed));
        self.personas.push(p);
    }

    /// Pass B: assignment + per-stimulus cell index for every row. The
    /// assignment stream is index-addressed, so re-deriving picks that
    /// pass A already peeked at is free of side effects.
    fn index_cells(&mut self, assign_seed: Seed, n_stimuli: usize, per: usize, k: usize) {
        let cells = self.personas.len() * k;
        self.picks.resize(cells, 0);
        self.sessions.resize(cells, None);
        self.voted.resize(cells, false);
        for row in 0..self.personas.len() {
            assign_into(assign_seed, self.row_pi[row], n_stimuli, per, &mut self.pick_buf);
            for (slot, &si) in self.pick_buf.iter().enumerate() {
                let cell = row * k + slot;
                self.picks[cell] = si as u32;
                self.stim_rows[si].push(cell as u32);
            }
        }
    }

    /// Derive stimulus `si`'s behaviour leaf seeds into the seed plane
    /// and expand them into `rngs`, one generator per showing in
    /// `stim_rows[si]` order.
    fn seed_stimulus(&mut self, si: usize, label: &str, k: usize) {
        self.seed_buf.clear();
        let seeds = &self.seeds;
        self.seed_buf.extend(
            self.stim_rows[si].iter().map(|&cell| session_seed(&seeds[cell as usize / k], label)),
        );
        Rng::seed_block(&self.seed_buf, &mut self.rngs);
    }

    /// Copy `row`'s sessions, in presentation order, into `row_buf`.
    fn gather_row(&mut self, row: usize, k: usize) {
        self.row_buf.clear();
        self.row_buf.extend(
            // lint:allow(D4): pass C fills every cell — each (row, slot) belongs to exactly one stim_rows bucket
            self.sessions[row * k..(row + 1) * k].iter().map(|o| o.expect("cell served")),
        );
    }
}

// ---------------------------------------------------------------------
// The timeline test
// ---------------------------------------------------------------------

/// Per-stimulus constants of a timeline campaign, hoisted out of the
/// inner loop: the response model's profile, the behaviour model's
/// profile, both labels, and the full rewind table.
pub struct TlPlane {
    label: String,
    ctrl_label: String,
    profile: TimelineStimulusProfile,
    session: SessionProfile,
    rewinds: EarliestSimilarTable,
}

impl CampaignKind for Timeline {
    type Stimulus = TimelineStimulus;
    type Acc = StimulusDigest;
    type Totals = TlTotals;
    type Digest = TimelineDigest;
    type Plane = TlPlane;

    const TAG: &'static str = "timeline";
    const DRIVE_LINE: bool = true;
    const ASSIGN_LABEL: &'static str = "timeline";

    fn params(p: &DigestParams) -> DigestParams {
        *p
    }

    fn new_acc(st: &TimelineStimulus, params: &DigestParams) -> StimulusDigest {
        StimulusDigest::new(&st.name, st.video.duration().as_secs_f64(), params)
    }

    fn check_acc(acc: &StimulusDigest, params: &DigestParams) -> Result<(), String> {
        if acc.hist.counts().len() != params.hist_bins {
            return Err(format!(
                "histogram has {} bins, header pins {}",
                acc.hist.counts().len(),
                params.hist_bins
            ));
        }
        if acc.sketch.bins() != params.sketch_bins || acc.sketch.exact_cap() != params.exact_cap {
            return Err(format!(
                "sketch built with bins={}/cap={}, header pins bins={}/cap={}",
                acc.sketch.bins(),
                acc.sketch.exact_cap(),
                params.sketch_bins,
                params.exact_cap
            ));
        }
        Ok(())
    }

    fn merge_acc(acc: &mut StimulusDigest, other: &StimulusDigest) -> Result<(), MergeError> {
        acc.merge(other)
    }

    fn merge_totals(t: &mut TlTotals, o: &TlTotals) -> Result<(), MergeError> {
        t.admitted = checked_sum(t.admitted, o.admitted, "admitted")?;
        t.rejected = checked_sum(t.rejected, o.rejected, "rejected")?;
        t.collected = checked_sum(t.collected, o.collected, "collected")?;
        t.skipped = checked_sum(t.skipped, o.skipped, "skipped")?;
        t.pruned = checked_sum(t.pruned, o.pruned, "pruned")?;
        t.filters.merge(&o.filters)?;
        t.controls.merge(&o.controls)
    }

    fn gate_admitted(t: &TlTotals) -> u64 {
        t.admitted.saturating_add(t.pruned)
    }

    fn bump_counters(fold: &Shard<Timeline>) {
        let t = &fold.totals;
        eyeorg_obs::metrics::CORE_GATE_ADMITTED.add(t.admitted);
        eyeorg_obs::metrics::CORE_GATE_REJECTED.add(t.rejected);
        eyeorg_obs::metrics::CORE_RESPONSES_COLLECTED.add(t.collected);
        eyeorg_obs::metrics::CORE_RESPONSES_SKIPPED.add(t.skipped);
        // Zero under an all-live mask, so non-adaptive runs (and ε = 0
        // adaptive runs) leave the counter untouched.
        eyeorg_obs::metrics::ADAPTIVE_PARTICIPANTS_SAVED.add(t.pruned);
        if eyeorg_obs::enabled() {
            // Zero-adds materialise the per-site label, mirroring the
            // materializing path (`digest_timeline`).
            for s in &fold.stimuli {
                eyeorg_obs::metrics::CORE_RETAINED_PER_SITE.add(&s.name, s.retained());
            }
        }
    }

    fn new_plane(si: usize, st: &TimelineStimulus) -> TlPlane {
        TlPlane {
            label: format!("tl-{si}"),
            ctrl_label: format!("ctrl-tl-{si}"),
            profile: TimelineStimulusProfile::of(&st.video),
            session: SessionProfile::of(&st.video, TestKind::Timeline),
            rewinds: EarliestSimilarTable::of(&st.video),
        }
    }

    /// The stimulus-blocked column passes. Mask semantics (the
    /// determinism backbone of `crate::adaptive`):
    ///
    /// * **Serve all picks** — a served participant runs every assigned
    ///   session, control, filter, and behaviour draw exactly as the
    ///   full run would, even for stopped stimuli, so filter outcomes
    ///   never depend on *other* stimuli's masks.
    /// * **Push only live** — kept responses are folded only into live
    ///   stimuli, so a live stimulus's digest is the full run's digest
    ///   truncated at its own stop point.
    /// * **Prune whole participants** — when *no* assigned stimulus is
    ///   live, the participant is never trait-generated or served (that
    ///   is the saving), but still consumes their admitted index.
    fn fold_range(
        ctx: &Ctx<'_, Timeline>,
        arena: &mut Scratch,
        lo: usize,
        hi: usize,
        base: u64,
        live: &[bool],
    ) -> Shard<Timeline> {
        let all_live = live.iter().all(|&l| l);
        let k = ctx.k;
        let n_stim = ctx.stimuli.len();
        let per = ctx.cfg.videos_per_participant;
        let mut fold = Shard::<Timeline>::new(ctx.stimuli, &ctx.params);
        let t = &mut fold.totals;
        arena.reset();

        // Pass A: humanness gate (and, under an adaptive mask, whole-
        // participant pruning); one persona per *served* row. The trait
        // stream is paused at the class draw, so gate-rejected and
        // pruned participants never pay for the rest of their trait
        // draws — they still consume their admitted index, keeping
        // every later participant's assignment equal to the full run's.
        let mut pi = base;
        for i in lo..hi {
            let cur = ctx.pop.start_traits(ctx.recruit_seed, i as u64);
            if !crate::validation::captcha_admits_gate(cur.seed(), cur.class()) {
                t.rejected += 1;
                continue;
            }
            let my_pi = pi;
            pi += 1;
            if !all_live {
                assign_into(ctx.assign_seed, my_pi, n_stim, per, &mut arena.pick_buf);
                if !arena.pick_buf.iter().any(|&si| live[si]) {
                    t.pruned += 1;
                    continue;
                }
            }
            arena.serve(my_pi, cur.finish(&ctx.pop));
        }
        let rows = arena.personas.len();
        t.admitted = rows as u64;
        arena.index_cells(ctx.assign_seed, n_stim, per, k);

        // Pass C: serve stimulus-blocked — one plane's constants
        // (profile, labels) stay hot across all of its showings in the
        // shard. Stopped stimuli are still served (their sessions feed
        // the filters); only the digest push is masked, in pass E.
        for (si, plane) in ctx.planes.iter().enumerate() {
            arena.seed_stimulus(si, &plane.label, k);
            for (j, &cell) in arena.stim_rows[si].iter().enumerate() {
                let cell = cell as usize;
                let p = &arena.personas[cell / k];
                let session = video_session_from_rng(
                    &plane.session,
                    p,
                    TestKind::Timeline,
                    arena.rngs[j].clone(),
                );
                if session.skipped {
                    t.skipped += 1;
                } else {
                    t.collected += 1;
                    arena.voted[cell] = true;
                }
                arena.sessions[cell] = Some(session);
            }
        }

        // Passes D+E: controls, filters, and the order-pinned fold —
        // rows ascending, slots in presentation order. Slider responses
        // are drawn here, on demand: only cells whose value reaches a
        // live digest pay for the response model (the response stream
        // is per-cell independent, so eliding the rest perturbs
        // nothing).
        for row in 0..rows {
            let my_pi = arena.row_pi[row];
            let cbase = row * k;
            arena.gather_row(row, k);
            let p = &arena.personas[row];
            let mseeds = &arena.seeds[row];
            let control = ctx.cfg.with_controls.then(|| {
                let ctrl = arena.picks[cbase] as usize;
                let passed = timeline_control_seeded(p, mseeds, &ctx.planes[ctrl].ctrl_label);
                ControlRow { participant: my_pi as usize, passed }
            });
            let t = &mut fold.totals;
            let d =
                filter_row(ctx.filters, &arena.row_buf, control, &mut t.controls, &mut t.filters);
            if d == FilterDecision::Kept {
                for slot in 0..k {
                    let si = arena.picks[cbase + slot] as usize;
                    if arena.voted[cbase + slot] && live[si] {
                        let plane = &ctx.planes[si];
                        let resp = timeline_response_seeded(
                            &plane.profile,
                            plane.rewinds.as_slice(),
                            p,
                            mseeds,
                            &plane.label,
                        );
                        fold.stimuli[si].push(resp.submitted.as_secs_f64());
                    }
                }
            }
            fold.behavior.push(&behavior_point_persona(
                my_pi as usize,
                &arena.row_buf,
                p,
                mseeds,
            ));
        }
        fold
    }

    fn into_digest(s: Shard<Timeline>, recruited: u64, cost: f64, duration: f64) -> TimelineDigest {
        let t = s.totals;
        TimelineDigest {
            stimuli: s.stimuli,
            recruited,
            admitted: t.admitted,
            rejected: t.rejected,
            recruitment_cost_usd: cost,
            recruitment_duration_secs: duration,
            responses_collected: t.collected,
            responses_skipped: t.skipped,
            behavior: s.behavior,
            filters: t.filters,
            controls: t.controls,
        }
    }
}

// ---------------------------------------------------------------------
// The A/B test
// ---------------------------------------------------------------------

/// Per-stimulus constants of an A/B campaign: the label, both sides'
/// ready moments under every readiness criterion, and the behaviour
/// profile of the longer capture (what the participant must sit
/// through).
pub struct AbPlane {
    label: String,
    ready_a: eyeorg_crowd::ReadyTimes,
    ready_b: eyeorg_crowd::ReadyTimes,
    session: SessionProfile,
}

impl CampaignKind for Ab {
    type Stimulus = AbStimulus;
    type Acc = AbStimulusDigest;
    type Totals = AbTotals;
    type Digest = AbDigest;
    type Plane = AbPlane;

    const TAG: &'static str = "ab";
    const DRIVE_LINE: bool = false;
    const ASSIGN_LABEL: &'static str = "ab-assign";

    /// A/B digests carry no histogram/sketch accumulators.
    fn params(_: &DigestParams) -> DigestParams {
        DigestParams { hist_bins: 0, sketch_bins: 0, exact_cap: 0 }
    }

    fn new_acc(st: &AbStimulus, _: &DigestParams) -> AbStimulusDigest {
        AbStimulusDigest::new(&st.name)
    }

    fn check_acc(_: &AbStimulusDigest, _: &DigestParams) -> Result<(), String> {
        Ok(())
    }

    fn merge_acc(acc: &mut AbStimulusDigest, other: &AbStimulusDigest) -> Result<(), MergeError> {
        acc.merge(other)
    }

    fn merge_totals(t: &mut AbTotals, o: &AbTotals) -> Result<(), MergeError> {
        t.admitted = checked_sum(t.admitted, o.admitted, "admitted")?;
        t.rejected = checked_sum(t.rejected, o.rejected, "rejected")?;
        t.cast = checked_sum(t.cast, o.cast, "cast")?;
        t.skipped = checked_sum(t.skipped, o.skipped, "skipped")?;
        t.filters.merge(&o.filters)?;
        t.controls.merge(&o.controls)
    }

    fn gate_admitted(t: &AbTotals) -> u64 {
        t.admitted
    }

    fn bump_counters(fold: &Shard<Ab>) {
        let t = &fold.totals;
        eyeorg_obs::metrics::CORE_GATE_ADMITTED.add(t.admitted);
        eyeorg_obs::metrics::CORE_GATE_REJECTED.add(t.rejected);
        eyeorg_obs::metrics::CORE_AB_VOTES.add(t.cast);
        eyeorg_obs::metrics::CORE_AB_SKIPS.add(t.skipped);
    }

    fn new_plane(si: usize, st: &AbStimulus) -> AbPlane {
        let longer = if st.a.duration() >= st.b.duration() { &st.a } else { &st.b };
        AbPlane {
            label: format!("ab-{si}"),
            ready_a: eyeorg_crowd::ReadyTimes::of(&st.a),
            ready_b: eyeorg_crowd::ReadyTimes::of(&st.b),
            session: SessionProfile::of(longer, TestKind::Ab),
        }
    }

    /// The timeline fold's column passes without a mask (A/B runs have
    /// no adaptive driver, so `live` is always all-true). The judgment
    /// draw is deferred to the fold pass: its value is consumed only
    /// when the row survives the filters, but the cast/skip counters
    /// and show tallies are totals over every showing and are bumped in
    /// pass C.
    fn fold_range(
        ctx: &Ctx<'_, Ab>,
        arena: &mut Scratch,
        lo: usize,
        hi: usize,
        base: u64,
        _live: &[bool],
    ) -> Shard<Ab> {
        let k = ctx.k;
        let side_seed = ctx.seed.derive("ab-side");
        let mut fold = Shard::<Ab>::new(ctx.stimuli, &ctx.params);
        let t = &mut fold.totals;
        arena.reset();

        // Pass A: gate on the class-only trait prefix; rejected
        // participants never pay for the rest of their trait draws.
        let mut pi = base;
        for i in lo..hi {
            let cur = ctx.pop.start_traits(ctx.recruit_seed, i as u64);
            if crate::validation::captcha_admits_gate(cur.seed(), cur.class()) {
                arena.serve(pi, cur.finish(&ctx.pop));
                pi += 1;
            } else {
                t.rejected += 1;
            }
        }
        let rows = arena.personas.len();
        t.admitted = rows as u64;
        arena.index_cells(ctx.assign_seed, ctx.stimuli.len(), ctx.cfg.videos_per_participant, k);

        // Pass C: sessions only, bulk-seeded per stimulus.
        for (si, plane) in ctx.planes.iter().enumerate() {
            arena.seed_stimulus(si, &plane.label, k);
            let acc = &mut fold.stimuli[si];
            for (j, &cell) in arena.stim_rows[si].iter().enumerate() {
                let cell = cell as usize;
                let row = cell / k;
                let p = &arena.personas[row];
                let a_left = a_on_left(side_seed, arena.row_pi[row], si);
                let session =
                    video_session_from_rng(&plane.session, p, TestKind::Ab, arena.rngs[j].clone());
                acc.shows += 1;
                if a_left {
                    acc.a_left_shows += 1;
                }
                if session.skipped {
                    t.skipped += 1;
                } else {
                    t.cast += 1;
                    arena.voted[cell] = true;
                }
                arena.sessions[cell] = Some(session);
            }
        }

        // Passes D+E: controls, filters, and the order-pinned fold.
        for row in 0..rows {
            let my_pi = arena.row_pi[row];
            let cbase = row * k;
            arena.gather_row(row, k);
            let p = &arena.personas[row];
            let mseeds = &arena.seeds[row];
            let control = ctx.cfg.with_controls.then(|| {
                let plane = &ctx.planes[arena.picks[cbase] as usize];
                let (_, passed) = fastpath::ab_control_seeded(
                    plane.ready_a.get(p.readiness),
                    p,
                    mseeds,
                    &plane.label,
                );
                ControlRow { participant: my_pi as usize, passed }
            });
            let t = &mut fold.totals;
            let d =
                filter_row(ctx.filters, &arena.row_buf, control, &mut t.controls, &mut t.filters);
            if d == FilterDecision::Kept {
                for cell in cbase..cbase + k {
                    if !arena.voted[cell] {
                        continue;
                    }
                    let si = arena.picks[cell] as usize;
                    let plane = &ctx.planes[si];
                    let a_left = a_on_left(side_seed, my_pi, si);
                    let (ra, rb) = (plane.ready_a.get(p.readiness), plane.ready_b.get(p.readiness));
                    let (l, r) = if a_left { (ra, rb) } else { (rb, ra) };
                    let answer = judge_pair_seeded(l, r, p, mseeds, &plane.label);
                    fold.stimuli[si].tally.record(match (answer, a_left) {
                        (AbAnswer::NoDifference, _) => AbVerdict::NoDifference,
                        (AbAnswer::Left, true) | (AbAnswer::Right, false) => AbVerdict::AFaster,
                        (AbAnswer::Left, false) | (AbAnswer::Right, true) => AbVerdict::BFaster,
                    });
                }
            }
            fold.behavior.push(&behavior_point_persona(
                my_pi as usize,
                &arena.row_buf,
                p,
                mseeds,
            ));
        }
        fold
    }

    fn into_digest(s: Shard<Ab>, recruited: u64, cost: f64, duration: f64) -> AbDigest {
        let t = s.totals;
        AbDigest {
            stimuli: s.stimuli,
            recruited,
            admitted: t.admitted,
            rejected: t.rejected,
            recruitment_cost_usd: cost,
            recruitment_duration_secs: duration,
            votes_cast: t.cast,
            votes_skipped: t.skipped,
            behavior: s.behavior,
            filters: t.filters,
            controls: t.controls,
        }
    }
}
