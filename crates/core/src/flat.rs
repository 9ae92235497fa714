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
//! Each test kind has exactly one range fold — [`FlatTlCtx`]'s for
//! timeline campaigns, [`FlatAbCtx`]'s for A/B — and one epoch entry
//! ([`flat_tl_epoch`], [`flat_ab_epoch`]) that every driver runs: the
//! one-shot campaigns fold `[0, n)`, while the adaptive and checkpoint
//! drivers (`crate::adaptive`, `crate::checkpoint`) fold one barrier
//! interval at a time.
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
//!    [`TlPlane`]/[`AbPlane`] per stimulus) built once per run:
//!    precomputed labels, [`TimelineStimulusProfile`], [`SessionProfile`],
//!    ready moments, and the full rewind table — the inner loop never
//!    touches a `Video` again.
//! 2. Each shard works out of a reusable **arena** ([`Scratch`]) owned
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

use eyeorg_crowd::fastpath::{
    self, judge_pair_seeded, session_seed, timeline_control_seeded, timeline_response_seeded,
    video_session_from_rng,
};
use eyeorg_crowd::{
    AbAnswer, ModelSeeds, Persona, PopulationProfile, RecruitmentService, SessionProfile,
    TestKind, TimelineStimulusProfile, VideoSession,
};
use eyeorg_stats::rng::Rng;
use eyeorg_stats::{par_map_range, par_map_range_scratch, resolve_threads, Seed};
use eyeorg_video::FrameTimeline;

use crate::analysis::BehaviorPoint;
use crate::campaign::{AbVerdict, ControlRow};
use crate::digest::{
    AbDigest, AbStimulusDigest, BehaviorDigest, ControlTally, DigestParams, StimulusDigest,
    TimelineDigest,
};
use crate::experiment::{a_on_left, assign_into, AbStimulus, ExperimentConfig, TimelineStimulus};
use crate::filtering::{decide, FilterDecision, FilterTally, ParticipantFilter};

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

/// One shard's fold of a timeline campaign. Shared with the adaptive
/// driver (`crate::adaptive`), which additionally accumulates epochs of
/// folds into one, and with the checkpoint layer (`crate::checkpoint`),
/// which snapshots a clone of the running accumulator at barriers.
#[derive(Debug, Clone)]
pub(crate) struct TlShard {
    pub(crate) stimuli: Vec<StimulusDigest>,
    pub(crate) behavior: BehaviorDigest,
    pub(crate) filters: FilterTally,
    pub(crate) controls: ControlTally,
    pub(crate) admitted: u64,
    pub(crate) rejected: u64,
    pub(crate) collected: u64,
    pub(crate) skipped: u64,
    /// Gate-admitted participants never served because every stimulus
    /// they were assigned had already stopped recruiting (adaptive runs
    /// only; always 0 under an all-live mask). They still consume an
    /// admitted index so later assignments match the full run.
    pub(crate) pruned: u64,
}

impl TlShard {
    /// An empty shard fold sized for `stimuli`.
    pub(crate) fn new(stimuli: &[TimelineStimulus], params: &DigestParams) -> TlShard {
        TlShard {
            stimuli: stimuli
                .iter()
                .map(|st| StimulusDigest::new(&st.name, st.video.duration().as_secs_f64(), params))
                .collect(),
            behavior: BehaviorDigest::default(),
            filters: FilterTally::default(),
            controls: ControlTally::default(),
            admitted: 0,
            rejected: 0,
            collected: 0,
            skipped: 0,
            pruned: 0,
        }
    }

    /// Bump the timeline engine's obs counters from this shard's totals.
    fn bump_counters(&self) {
        eyeorg_obs::metrics::CORE_GATE_ADMITTED.add(self.admitted);
        eyeorg_obs::metrics::CORE_GATE_REJECTED.add(self.rejected);
        eyeorg_obs::metrics::CORE_RESPONSES_COLLECTED.add(self.collected);
        eyeorg_obs::metrics::CORE_RESPONSES_SKIPPED.add(self.skipped);
        // Zero under an all-live mask, so non-adaptive runs (and ε = 0
        // adaptive runs) leave the counter untouched.
        eyeorg_obs::metrics::ADAPTIVE_PARTICIPANTS_SAVED.add(self.pruned);
        if eyeorg_obs::enabled() {
            // Zero-adds materialise the per-site label, mirroring the
            // materializing path (`digest_timeline`).
            for s in &self.stimuli {
                eyeorg_obs::metrics::CORE_RETAINED_PER_SITE.add(&s.name, s.retained());
            }
        }
    }

    /// Fold another shard's state into this one (order-pinned by the
    /// caller; exact because every accumulator is multiset-determined).
    pub(crate) fn merge_from(&mut self, other: &TlShard) {
        for (acc, o) in self.stimuli.iter_mut().zip(&other.stimuli) {
            // lint:allow(D4): same-campaign shard folds share one construction site lint:allow(D7): checkpoint merge validates equal configs before folding
            acc.merge(o).expect("same-campaign shard folds agree by construction");
        }
        self.behavior.merge(&other.behavior);
        self.filters.merge(&other.filters);
        self.controls.merge(&other.controls);
        self.admitted += other.admitted;
        self.rejected += other.rejected;
        self.collected += other.collected;
        self.skipped += other.skipped;
        self.pruned += other.pruned;
    }
}

/// One shard's fold of an A/B campaign. Shared with the checkpoint
/// layer.
#[derive(Debug, Clone)]
pub(crate) struct AbShard {
    pub(crate) stimuli: Vec<AbStimulusDigest>,
    pub(crate) behavior: BehaviorDigest,
    pub(crate) filters: FilterTally,
    pub(crate) controls: ControlTally,
    pub(crate) admitted: u64,
    pub(crate) rejected: u64,
    pub(crate) cast: u64,
    pub(crate) skipped: u64,
}

impl AbShard {
    /// An empty shard fold sized for `stimuli`.
    pub(crate) fn new(stimuli: &[AbStimulus]) -> AbShard {
        AbShard {
            stimuli: stimuli.iter().map(|st| AbStimulusDigest::new(&st.name)).collect(),
            behavior: BehaviorDigest::default(),
            filters: FilterTally::default(),
            controls: ControlTally::default(),
            admitted: 0,
            rejected: 0,
            cast: 0,
            skipped: 0,
        }
    }

    /// Bump the A/B engine's obs counters from this shard's totals.
    fn bump_counters(&self) {
        eyeorg_obs::metrics::CORE_GATE_ADMITTED.add(self.admitted);
        eyeorg_obs::metrics::CORE_GATE_REJECTED.add(self.rejected);
        eyeorg_obs::metrics::CORE_AB_VOTES.add(self.cast);
        eyeorg_obs::metrics::CORE_AB_SKIPS.add(self.skipped);
    }

    /// Fold another shard's state into this one (order-pinned by the
    /// caller; exact because every accumulator is multiset-determined).
    pub(crate) fn merge_from(&mut self, other: &AbShard) {
        for (acc, o) in self.stimuli.iter_mut().zip(&other.stimuli) {
            // lint:allow(D4): same-campaign shard folds share one construction site lint:allow(D7): checkpoint merge validates equal configs before folding
            acc.merge(o).expect("same-campaign shard folds agree by construction");
        }
        self.behavior.merge(&other.behavior);
        self.filters.merge(&other.filters);
        self.controls.merge(&other.controls);
        self.admitted += other.admitted;
        self.rejected += other.rejected;
        self.cast += other.cast;
        self.skipped += other.skipped;
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
struct Scratch {
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
    fn new(n_stimuli: usize) -> Scratch {
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

/// Pass 1 plus the sharded pass 2 of one epoch over `[lo, hi)`: compute
/// the shards' admitted bases (continuing from `base_admitted`), fold
/// each shard out of a per-worker arena, and return the folds in shard
/// order plus the range's gate-admission count.
#[allow(clippy::too_many_arguments)] // the epoch's range, pool, and fold
fn sharded_epoch<R: Send>(
    pop: &PopulationProfile,
    recruit_seed: Seed,
    n_stimuli: usize,
    lo: usize,
    hi: usize,
    threads: usize,
    shard: usize,
    base_admitted: u64,
    fold: impl Fn(&mut Scratch, usize, usize, u64) -> R + Sync,
) -> (Vec<R>, u64) {
    let (bases, range_admitted) =
        admitted_bases_range(lo, hi, shard, threads, pop, recruit_seed, base_admitted);
    let folds = par_map_range_scratch(
        bases.len(),
        threads,
        || Scratch::new(n_stimuli),
        |arena, s| {
            let slo = lo + s * shard;
            let shi = (slo + shard).min(hi);
            fold(arena, slo, shi, bases[s])
        },
    );
    (folds, range_admitted)
}

/// Per-stimulus constants of a timeline campaign, hoisted out of the
/// inner loop: the response model's profile, the behaviour model's
/// profile, both labels, and the full rewind table.
struct TlPlane {
    label: String,
    ctrl_label: String,
    profile: TimelineStimulusProfile,
    session: SessionProfile,
    rewinds: Vec<usize>,
}

impl TlPlane {
    fn of(si: usize, st: &TimelineStimulus) -> TlPlane {
        let mut tl = FrameTimeline::of(&st.video);
        tl.precompute_rewinds();
        TlPlane {
            label: format!("tl-{si}"),
            ctrl_label: format!("ctrl-tl-{si}"),
            profile: TimelineStimulusProfile::of(&st.video),
            session: SessionProfile::of(&st.video, TestKind::Timeline),
            rewinds: tl.rewind_table(),
        }
    }
}

/// The timeline engine's shared read-only campaign state: planes,
/// population, seeds, and config, built once per run and shared by the
/// one-shot campaign, the adaptive driver, and the checkpoint drivers.
pub(crate) struct FlatTlCtx<'a> {
    stimuli: &'a [TimelineStimulus],
    planes: Vec<TlPlane>,
    pub(crate) pop: PopulationProfile,
    cfg: &'a ExperimentConfig,
    filters: &'a [Box<dyn ParticipantFilter + Send + Sync>],
    pub(crate) recruit_seed: Seed,
    assign_seed: Seed,
    params: DigestParams,
    k: usize,
}

impl<'a> FlatTlCtx<'a> {
    /// Hoist all per-stimulus constants into planes, in parallel.
    pub(crate) fn new(
        stimuli: &'a [TimelineStimulus],
        service: &dyn RecruitmentService,
        cfg: &'a ExperimentConfig,
        filters: &'a [Box<dyn ParticipantFilter + Send + Sync>],
        seed: Seed,
        params: DigestParams,
        threads: usize,
    ) -> FlatTlCtx<'a> {
        FlatTlCtx {
            stimuli,
            planes: par_map_range(stimuli.len(), threads, |si| TlPlane::of(si, &stimuli[si])),
            pop: service.population(),
            cfg,
            filters,
            recruit_seed: seed.derive("recruit"),
            assign_seed: seed.derive("timeline"),
            params,
            k: cfg.videos_per_participant.min(stimuli.len()),
        }
    }

    /// Fold participant indices `[lo, hi)` with admitted-index base
    /// `base` under the per-stimulus `live` mask — the stimulus-blocked
    /// column passes.
    ///
    /// Mask semantics (the determinism backbone of `crate::adaptive`):
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
        &self,
        arena: &mut Scratch,
        lo: usize,
        hi: usize,
        base: u64,
        live: &[bool],
    ) -> TlShard {
        let all_live = live.iter().all(|&l| l);
        let k = self.k;
        let n_stim = self.stimuli.len();
        let per = self.cfg.videos_per_participant;
        let mut fold = TlShard::new(self.stimuli, &self.params);
        arena.reset();

        // Pass A: humanness gate (and, under an adaptive mask, whole-
        // participant pruning); one persona per *served* row. The trait
        // stream is paused at the class draw, so gate-rejected and
        // pruned participants never pay for the rest of their trait
        // draws — they still consume their admitted index, keeping
        // every later participant's assignment equal to the full run's.
        let mut pi = base;
        for i in lo..hi {
            let cur = self.pop.start_traits(self.recruit_seed, i as u64);
            if !crate::validation::captcha_admits_gate(cur.seed(), cur.class()) {
                fold.rejected += 1;
                continue;
            }
            let my_pi = pi;
            pi += 1;
            if !all_live {
                assign_into(self.assign_seed, my_pi, n_stim, per, &mut arena.pick_buf);
                if !arena.pick_buf.iter().any(|&si| live[si]) {
                    fold.pruned += 1;
                    continue;
                }
            }
            arena.serve(my_pi, cur.finish(&self.pop));
        }
        let rows = arena.personas.len();
        fold.admitted = rows as u64;
        arena.index_cells(self.assign_seed, n_stim, per, k);

        // Pass C: serve stimulus-blocked — one plane's constants
        // (profile, labels) stay hot across all of its showings in the
        // shard. Stopped stimuli are still served (their sessions feed
        // the filters); only the digest push is masked, in pass E.
        for (si, plane) in self.planes.iter().enumerate() {
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
                    fold.skipped += 1;
                } else {
                    fold.collected += 1;
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
            let control = self.cfg.with_controls.then(|| {
                let ctrl = arena.picks[cbase] as usize;
                let passed = timeline_control_seeded(p, mseeds, &self.planes[ctrl].ctrl_label);
                ControlRow { participant: my_pi as usize, passed }
            });
            let d = filter_row(
                self.filters,
                &arena.row_buf,
                control,
                &mut fold.controls,
                &mut fold.filters,
            );
            if d == FilterDecision::Kept {
                for slot in 0..k {
                    let si = arena.picks[cbase + slot] as usize;
                    if arena.voted[cbase + slot] && live[si] {
                        let plane = &self.planes[si];
                        let resp = timeline_response_seeded(
                            &plane.profile,
                            &plane.rewinds,
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
}

/// One epoch of a timeline campaign: shard `[lo, hi)`, fold each shard
/// under `live` from per-worker arenas (bumping the obs counters), and
/// return the folds in shard order plus the range's gate-admission
/// count. Every timeline driver runs this.
pub(crate) fn flat_tl_epoch(
    ctx: &FlatTlCtx<'_>,
    lo: usize,
    hi: usize,
    threads: usize,
    shard: usize,
    base_admitted: u64,
    live: &[bool],
) -> (Vec<TlShard>, u64) {
    let n_stim = ctx.stimuli.len();
    let fold = |arena: &mut Scratch, slo, shi, base| {
        let fold = ctx.fold_range(arena, slo, shi, base, live);
        fold.bump_counters();
        fold
    };
    sharded_epoch(&ctx.pop, ctx.recruit_seed, n_stim, lo, hi, threads, shard, base_admitted, fold)
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
    assert!(!stimuli.is_empty(), "campaign needs stimuli");
    let _t = eyeorg_obs::phase_timer("core.flat_timeline");
    let threads = resolve_threads(cfg.threads);
    let ctx = FlatTlCtx::new(stimuli, service, cfg, filters, seed, sc.params, threads);
    let live = vec![true; stimuli.len()];
    let (folds, _) =
        flat_tl_epoch(&ctx, 0, n_participants, threads, sc.shard_size.max(1), 0, &live);
    merge_tl_shards(stimuli, service, n_participants, &sc.params, &folds)
}

/// Order-pinned merge of timeline shard folds into the final digest
/// (the accumulators are multiset-determined, so the pinning is
/// belt-and-braces on top of exact associativity).
pub(crate) fn merge_tl_shards(
    stimuli: &[TimelineStimulus],
    service: &dyn RecruitmentService,
    n_participants: usize,
    params: &DigestParams,
    folds: &[TlShard],
) -> TimelineDigest {
    let mut digest = TimelineDigest {
        stimuli: stimuli
            .iter()
            .map(|st| StimulusDigest::new(&st.name, st.video.duration().as_secs_f64(), params))
            .collect(),
        recruited: n_participants as u64,
        admitted: 0,
        rejected: 0,
        recruitment_cost_usd: service.cost_per_participant() * n_participants as f64,
        recruitment_duration_secs: if n_participants == 0 {
            0.0
        } else {
            service.arrival(n_participants - 1).as_secs_f64()
        },
        responses_collected: 0,
        responses_skipped: 0,
        behavior: BehaviorDigest::default(),
        filters: FilterTally::default(),
        controls: ControlTally::default(),
    };
    for fold in folds {
        for (acc, shard_acc) in digest.stimuli.iter_mut().zip(&fold.stimuli) {
            // lint:allow(D4): same-campaign shard folds share one construction site
            acc.merge(shard_acc).expect("same-campaign shard folds agree by construction");
        }
        digest.behavior.merge(&fold.behavior);
        digest.filters.merge(&fold.filters);
        digest.controls.merge(&fold.controls);
        digest.admitted += fold.admitted;
        digest.rejected += fold.rejected;
        digest.responses_collected += fold.collected;
        digest.responses_skipped += fold.skipped;
    }
    digest
}

/// Per-stimulus constants of an A/B campaign: the label, both sides'
/// ready moments under every readiness criterion, and the behaviour
/// profile of the longer capture (what the participant must sit
/// through).
struct AbPlane {
    label: String,
    ready_a: eyeorg_crowd::ReadyTimes,
    ready_b: eyeorg_crowd::ReadyTimes,
    session: SessionProfile,
}

impl AbPlane {
    fn of(si: usize, st: &AbStimulus) -> AbPlane {
        let longer = if st.a.duration() >= st.b.duration() { &st.a } else { &st.b };
        AbPlane {
            label: format!("ab-{si}"),
            ready_a: eyeorg_crowd::ReadyTimes::of(&st.a),
            ready_b: eyeorg_crowd::ReadyTimes::of(&st.b),
            session: SessionProfile::of(longer, TestKind::Ab),
        }
    }
}

/// [`FlatTlCtx`]'s A/B twin: planes, population, seeds, and config,
/// built once per run and shared by the one-shot campaign and the
/// checkpoint drivers.
pub(crate) struct FlatAbCtx<'a> {
    stimuli: &'a [AbStimulus],
    planes: Vec<AbPlane>,
    pub(crate) pop: PopulationProfile,
    cfg: &'a ExperimentConfig,
    filters: &'a [Box<dyn ParticipantFilter + Send + Sync>],
    pub(crate) recruit_seed: Seed,
    assign_seed: Seed,
    side_seed: Seed,
    k: usize,
}

impl<'a> FlatAbCtx<'a> {
    /// Hoist all per-stimulus constants into planes, in parallel.
    pub(crate) fn new(
        stimuli: &'a [AbStimulus],
        service: &dyn RecruitmentService,
        cfg: &'a ExperimentConfig,
        filters: &'a [Box<dyn ParticipantFilter + Send + Sync>],
        seed: Seed,
        threads: usize,
    ) -> FlatAbCtx<'a> {
        FlatAbCtx {
            stimuli,
            planes: par_map_range(stimuli.len(), threads, |si| AbPlane::of(si, &stimuli[si])),
            pop: service.population(),
            cfg,
            filters,
            recruit_seed: seed.derive("recruit"),
            assign_seed: seed.derive("ab-assign"),
            side_seed: seed.derive("ab-side"),
            k: cfg.videos_per_participant.min(stimuli.len()),
        }
    }

    /// Fold participant indices `[lo, hi)` with admitted-index base
    /// `base` — the timeline fold's column passes without a mask. The
    /// judgment draw is deferred to the fold pass: its value is consumed
    /// only when the row survives the filters, but the cast/skip
    /// counters and show tallies are totals over every showing and are
    /// bumped in pass C.
    fn fold_range(&self, arena: &mut Scratch, lo: usize, hi: usize, base: u64) -> AbShard {
        let k = self.k;
        let mut fold = AbShard::new(self.stimuli);
        arena.reset();

        // Pass A: gate on the class-only trait prefix; rejected
        // participants never pay for the rest of their trait draws.
        let mut pi = base;
        for i in lo..hi {
            let cur = self.pop.start_traits(self.recruit_seed, i as u64);
            if crate::validation::captcha_admits_gate(cur.seed(), cur.class()) {
                arena.serve(pi, cur.finish(&self.pop));
                pi += 1;
            } else {
                fold.rejected += 1;
            }
        }
        let rows = arena.personas.len();
        fold.admitted = rows as u64;
        arena.index_cells(self.assign_seed, self.stimuli.len(), self.cfg.videos_per_participant, k);

        // Pass C: sessions only, bulk-seeded per stimulus.
        for (si, plane) in self.planes.iter().enumerate() {
            arena.seed_stimulus(si, &plane.label, k);
            let acc = &mut fold.stimuli[si];
            for (j, &cell) in arena.stim_rows[si].iter().enumerate() {
                let cell = cell as usize;
                let row = cell / k;
                let p = &arena.personas[row];
                let a_left = a_on_left(self.side_seed, arena.row_pi[row], si);
                let session =
                    video_session_from_rng(&plane.session, p, TestKind::Ab, arena.rngs[j].clone());
                acc.shows += 1;
                if a_left {
                    acc.a_left_shows += 1;
                }
                if session.skipped {
                    fold.skipped += 1;
                } else {
                    fold.cast += 1;
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
            let control = self.cfg.with_controls.then(|| {
                let plane = &self.planes[arena.picks[cbase] as usize];
                let (_, passed) = fastpath::ab_control_seeded(
                    plane.ready_a.get(p.readiness),
                    p,
                    mseeds,
                    &plane.label,
                );
                ControlRow { participant: my_pi as usize, passed }
            });
            let d = filter_row(
                self.filters,
                &arena.row_buf,
                control,
                &mut fold.controls,
                &mut fold.filters,
            );
            if d == FilterDecision::Kept {
                for cell in cbase..cbase + k {
                    if !arena.voted[cell] {
                        continue;
                    }
                    let si = arena.picks[cell] as usize;
                    let plane = &self.planes[si];
                    let a_left = a_on_left(self.side_seed, my_pi, si);
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
}

/// One epoch of an A/B campaign: shard `[lo, hi)`, fold each shard from
/// per-worker arenas (bumping the obs counters), and return the folds
/// in shard order plus the range's gate-admission count — the A/B
/// counterpart of [`flat_tl_epoch`]. Every A/B driver runs this.
pub(crate) fn flat_ab_epoch(
    ctx: &FlatAbCtx<'_>,
    lo: usize,
    hi: usize,
    threads: usize,
    shard: usize,
    base_admitted: u64,
) -> (Vec<AbShard>, u64) {
    let n_stim = ctx.stimuli.len();
    let fold = |arena: &mut Scratch, slo, shi, base| {
        let fold = ctx.fold_range(arena, slo, shi, base);
        fold.bump_counters();
        fold
    };
    sharded_epoch(&ctx.pop, ctx.recruit_seed, n_stim, lo, hi, threads, shard, base_admitted, fold)
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
    assert!(!stimuli.is_empty(), "campaign needs stimuli");
    let _t = eyeorg_obs::phase_timer("core.flat_ab");
    let threads = resolve_threads(cfg.threads);
    let ctx = FlatAbCtx::new(stimuli, service, cfg, filters, seed, threads);
    let (folds, _) = flat_ab_epoch(&ctx, 0, n_participants, threads, sc.shard_size.max(1), 0);
    merge_ab_shards(stimuli, service, n_participants, &folds)
}

/// Order-pinned merge of A/B shard folds into the final digest.
pub(crate) fn merge_ab_shards(
    stimuli: &[AbStimulus],
    service: &dyn RecruitmentService,
    n_participants: usize,
    folds: &[AbShard],
) -> AbDigest {
    let mut digest = AbDigest {
        stimuli: stimuli.iter().map(|st| AbStimulusDigest::new(&st.name)).collect(),
        recruited: n_participants as u64,
        admitted: 0,
        rejected: 0,
        recruitment_cost_usd: service.cost_per_participant() * n_participants as f64,
        recruitment_duration_secs: if n_participants == 0 {
            0.0
        } else {
            service.arrival(n_participants - 1).as_secs_f64()
        },
        votes_cast: 0,
        votes_skipped: 0,
        behavior: BehaviorDigest::default(),
        filters: FilterTally::default(),
        controls: ControlTally::default(),
    };
    for fold in folds {
        for (acc, shard_acc) in digest.stimuli.iter_mut().zip(&fold.stimuli) {
            // lint:allow(D4): same-campaign shard folds share one construction site
            acc.merge(shard_acc).expect("same-campaign shard folds agree by construction");
        }
        digest.behavior.merge(&fold.behavior);
        digest.filters.merge(&fold.filters);
        digest.controls.merge(&fold.controls);
        digest.admitted += fold.admitted;
        digest.rejected += fold.rejected;
        digest.votes_cast += fold.cast;
        digest.votes_skipped += fold.skipped;
    }
    digest
}
