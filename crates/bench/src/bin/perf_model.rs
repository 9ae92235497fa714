//! Behavioural-model fast-path harness (no external benchmark
//! framework).
//!
//! DESIGN.md §3g measured that ~70 % of single-thread campaign time is
//! the seeded behavioural model — the Amdahl ceiling of the data-plane
//! work. This harness times the **model path in isolation** (traits +
//! gate + sessions + responses + controls + behaviour, no digest
//! accumulators), comparing:
//!
//! * **reference** — the pre-fast-path per-cell pipeline: full trait
//!   generation for every recruit, a fresh two-level seed derivation
//!   (`seed → activity → label`) per cell and draw site, and a slider
//!   response drawn for *every* non-skipped showing whether or not the
//!   row survives the filters;
//! * **fast** — the demand-driven pipeline the engines now run:
//!   trait-cursor gating (rejected/pruned participants never finish
//!   their trait draws), hoisted per-participant activity parents
//!   ([`eyeorg_crowd::ModelSeeds`]), per-stimulus leaf-seed planes
//!   bulk-expanded with `Rng::seed_block`, and responses drawn only
//!   when their value reaches a live digest.
//!
//! Three scenarios vary the per-stimulus live mask — `all-live` (the
//! headline campaign), `half-live` and `sparse` (adaptive mid/late
//! campaign shapes, where whole-participant pruning and push masking
//! make elision bite hardest). Both paths fold every *consumed* output
//! (kept live votes, filter decisions, controls, behaviour points,
//! session counters) into an order-pinned checksum and the harness
//! **exits non-zero on any divergence** — the fast path must be
//! draw-exact. Writes `results/BENCH_model.json`; `--smoke` is the
//! down-sized CI entry (divergence gate + a regression floor), full
//! mode additionally gates the geometric-mean speedup at
//! [`SPEEDUP_GATE`].

use std::time::Instant;

use eyeorg_bench::campaigns::alexa_stimuli;
use eyeorg_core::experiment::{assign, assign_into};
use eyeorg_core::filtering::{decide, paper_pipeline, FilterDecision, ParticipantFilter};
use eyeorg_core::prelude::{ControlRow, ExperimentConfig, TimelineStimulus};
use eyeorg_core::validation::{captcha_admits, captcha_admits_gate};
use eyeorg_crowd::fastpath::{
    self, session_seed, timeline_control_seeded, timeline_response_seeded, video_session_from_rng,
};
use eyeorg_crowd::{
    timeline_control_passes, timeline_response_flat, timeline_response_shared, total_time_on_site,
    video_session, video_session_profiled, CrowdFlower, ModelSeeds, Participant, Persona,
    PopulationProfile, RecruitmentService, SessionProfile, TestKind, TimelineStimulusProfile,
    VideoSession,
};
use eyeorg_stats::rng::Rng;
use eyeorg_stats::Seed;
use eyeorg_video::EarliestSimilarTable;

const FULL_SITES: usize = 12;
const FULL_PARTICIPANTS: usize = 150_000;
const SMOKE_SITES: usize = 6;
const SMOKE_PARTICIPANTS: usize = 20_000;
const SHARD: usize = 8192;
/// Full-mode gate on the geometric-mean model-path speedup across the
/// three mask scenarios.
const SPEEDUP_GATE: f64 = 1.8;
/// Smoke-mode regression floor (looser: CI boxes are noisy and the
/// smoke crowd is small).
const SMOKE_FLOOR: f64 = 1.2;

/// Per-stimulus constants, prebuilt once (both paths share them — the
/// comparison is the model path, not plane construction).
struct Plane {
    label: String,
    ctrl_label: String,
    profile: TimelineStimulusProfile,
    session: SessionProfile,
    rewinds: EarliestSimilarTable,
}

impl Plane {
    fn of(si: usize, st: &TimelineStimulus) -> Plane {
        Plane {
            label: format!("tl-{si}"),
            ctrl_label: format!("ctrl-tl-{si}"),
            profile: TimelineStimulusProfile::of(&st.video),
            session: SessionProfile::of(&st.video, TestKind::Timeline),
            rewinds: EarliestSimilarTable::of(&st.video),
        }
    }
}

/// Order-pinned FNV fold over every consumed model output.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
struct Check(u64);

impl Check {
    fn new() -> Check {
        Check(0xcbf2_9ce4_8422_2325)
    }
    fn u64(&mut self, v: u64) {
        self.0 = (self.0 ^ v).wrapping_mul(0x0000_0100_0000_01b3);
    }
    fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }
    fn bool(&mut self, v: bool) {
        self.u64(v as u64);
    }
}

struct Workload {
    stimuli: Vec<TimelineStimulus>,
    planes: Vec<Plane>,
    pop: PopulationProfile,
    filters: Vec<Box<dyn ParticipantFilter + Send + Sync>>,
    recruit_seed: Seed,
    assign_seed: Seed,
    k: usize,
}

fn workload(sites: usize, seed: Seed) -> Workload {
    let stimuli = alexa_stimuli(sites, 2, seed);
    let planes = stimuli.iter().enumerate().map(|(si, st)| Plane::of(si, st)).collect::<Vec<_>>();
    let cfg = ExperimentConfig::default();
    Workload {
        k: cfg.videos_per_participant.min(planes.len()),
        stimuli,
        planes,
        pop: CrowdFlower.population(),
        filters: paper_pipeline(),
        recruit_seed: seed.derive("recruit"),
        assign_seed: seed.derive("timeline"),
    }
}

/// The pre-fast-path model pass, transcribed from the streaming
/// engine's inner loop as it stood before this change: full trait
/// generation for every admitted recruit, a fresh `format!` label and
/// [`SessionProfile`] per cell (what `video_session(&video, ..)` cost),
/// per-call `Participant → Persona` conversions, per-participant
/// session/response vectors, and a slider response drawn for every
/// non-skipped cell regardless of the filter outcome. Mask semantics as
/// the pre-fast-path engines: serve-all, push-live, prune whole
/// participants via the gate peek then regenerate in full.
fn reference_pass(w: &Workload, n: usize, live: &[bool]) -> (Check, f64) {
    let all_live = live.iter().all(|&l| l);
    let t0 = Instant::now();
    let mut check = Check::new();
    let mut pi = 0u64;
    let (mut collected, mut skipped) = (0u64, 0u64);
    for i in 0..n as u64 {
        let my_pi;
        let p: Participant;
        let picks: Vec<usize>;
        if all_live {
            let cand = w.pop.generate_one(w.recruit_seed, i);
            if !captcha_admits(&cand) {
                continue;
            }
            my_pi = pi;
            pi += 1;
            picks = assign(w.assign_seed, my_pi, w.stimuli.len(), w.k);
            p = cand;
        } else {
            let (pseed, class) = w.pop.generate_gate(w.recruit_seed, i);
            if !captcha_admits_gate(pseed, class) {
                continue;
            }
            my_pi = pi;
            pi += 1;
            picks = assign(w.assign_seed, my_pi, w.stimuli.len(), w.k);
            if !picks.iter().any(|&si| live[si]) {
                continue;
            }
            p = w.pop.generate_one(w.recruit_seed, i);
        }
        let mut sessions = Vec::with_capacity(picks.len());
        let mut votes: Vec<(usize, f64)> = Vec::with_capacity(picks.len());
        for &si in &picks {
            let label = format!("tl-{si}");
            let video = &w.stimuli[si].video;
            let session = video_session(video, &p, TestKind::Timeline, &label);
            if session.skipped {
                skipped += 1;
            } else {
                let resp =
                    timeline_response_shared(video, w.planes[si].rewinds.as_slice(), &p, &label);
                collected += 1;
                votes.push((si, resp.submitted.as_secs_f64()));
            }
            sessions.push(session);
        }
        let passed = timeline_control_passes(&p, &format!("tl-{}", picks[0]));
        let control = ControlRow { participant: my_pi as usize, passed };
        check.bool(passed);
        let d = decide(&w.filters, &sessions, &[&control]);
        check.u64(d as u64);
        if d == FilterDecision::Kept {
            for &(si, secs) in &votes {
                if live[si] {
                    check.u64(si as u64);
                    check.f64(secs);
                }
            }
        }
        check.f64(total_time_on_site(&sessions, &p).as_secs_f64());
    }
    check.u64(collected);
    check.u64(skipped);
    check.u64(pi);
    (check, t0.elapsed().as_secs_f64())
}

/// The demand-driven fast pass, shaped like the flat engine's shard
/// fold: trait cursors, hoisted parents, per-stimulus seed planes,
/// bulk RNG expansion, responses only where consumed.
fn fast_pass(w: &Workload, n: usize, live: &[bool]) -> (Check, f64) {
    let all_live = live.iter().all(|&l| l);
    let k = w.k;
    let t0 = Instant::now();
    let mut check = Check::new();
    let mut pi = 0u64;
    let (mut collected, mut skipped) = (0u64, 0u64);
    let mut personas: Vec<Persona> = Vec::new();
    let mut seeds: Vec<ModelSeeds> = Vec::new();
    let mut row_pi: Vec<u64> = Vec::new();
    let mut picks_col: Vec<u32> = Vec::new();
    let mut pick_buf: Vec<usize> = Vec::new();
    let mut cells: Vec<Option<VideoSession>> = Vec::new();
    let mut voted: Vec<bool> = Vec::new();
    let mut stim_rows: Vec<Vec<u32>> = (0..w.planes.len()).map(|_| Vec::new()).collect();
    let mut seed_buf: Vec<u64> = Vec::new();
    let mut rngs: Vec<Rng> = Vec::new();
    let mut row_buf: Vec<VideoSession> = Vec::new();
    for lo in (0..n).step_by(SHARD) {
        let hi = (lo + SHARD).min(n);
        personas.clear();
        seeds.clear();
        row_pi.clear();
        picks_col.clear();
        cells.clear();
        voted.clear();
        for rows in &mut stim_rows {
            rows.clear();
        }
        for i in lo..hi {
            let cur = w.pop.start_traits(w.recruit_seed, i as u64);
            if !captcha_admits_gate(cur.seed(), cur.class()) {
                continue;
            }
            let my_pi = pi;
            pi += 1;
            if !all_live {
                assign_into(w.assign_seed, my_pi, w.planes.len(), k, &mut pick_buf);
                if !pick_buf.iter().any(|&si| live[si]) {
                    continue;
                }
            }
            row_pi.push(my_pi);
            let p = cur.finish(&w.pop);
            seeds.push(ModelSeeds::of(p.seed));
            personas.push(p);
        }
        let rows = personas.len();
        picks_col.resize(rows * k, 0);
        cells.resize(rows * k, None);
        voted.clear();
        voted.resize(rows * k, false);
        for (row, &my_pi) in row_pi.iter().enumerate() {
            assign_into(w.assign_seed, my_pi, w.planes.len(), k, &mut pick_buf);
            for (slot, &si) in pick_buf.iter().enumerate() {
                let cell = row * k + slot;
                picks_col[cell] = si as u32;
                stim_rows[si].push(cell as u32);
            }
        }
        for (si, plane) in w.planes.iter().enumerate() {
            seed_buf.clear();
            seed_buf.extend(
                stim_rows[si].iter().map(|&cell| session_seed(&seeds[cell as usize / k],
                    &plane.label)),
            );
            Rng::seed_block(&seed_buf, &mut rngs);
            for (j, &cell) in stim_rows[si].iter().enumerate() {
                let cell = cell as usize;
                let p = &personas[cell / k];
                let session =
                    video_session_from_rng(&plane.session, p, TestKind::Timeline, rngs[j].clone());
                if session.skipped {
                    skipped += 1;
                } else {
                    collected += 1;
                    voted[cell] = true;
                }
                cells[cell] = Some(session);
            }
        }
        for row in 0..rows {
            let my_pi = row_pi[row];
            let cbase = row * k;
            row_buf.clear();
            row_buf.extend(cells[cbase..cbase + k].iter().map(|o| o.expect("cell served")));
            let p = &personas[row];
            let mseeds = &seeds[row];
            let passed = timeline_control_seeded(p, mseeds,
                &w.planes[picks_col[cbase] as usize].ctrl_label);
            let control = ControlRow { participant: my_pi as usize, passed };
            check.bool(passed);
            let d = decide(&w.filters, &row_buf, &[&control]);
            check.u64(d as u64);
            if d == FilterDecision::Kept {
                for slot in 0..k {
                    let si = picks_col[cbase + slot] as usize;
                    if voted[cbase + slot] && live[si] {
                        let plane = &w.planes[si];
                        let resp = timeline_response_seeded(
                            &plane.profile,
                            plane.rewinds.as_slice(),
                            p,
                            mseeds,
                            &plane.label,
                        );
                        check.u64(si as u64);
                        check.f64(resp.submitted.as_secs_f64());
                    }
                }
            }
            check.f64(fastpath::total_time_on_site_seeded(&row_buf, p, mseeds).as_secs_f64());
        }
    }
    check.u64(collected);
    check.u64(skipped);
    check.u64(pi);
    (check, t0.elapsed().as_secs_f64())
}

/// Component micro-timings for DESIGN.md §3k's Amdahl breakdown, in
/// microseconds per unit (participant or cell).
fn components(w: &Workload, n: usize) -> String {
    let plane = &w.planes[0];
    // Traits: full generation vs the demand path for an *admitted*
    // participant (pause + finish) — the structural saving is on
    // rejected/pruned indices, measured by the scenarios.
    let t0 = Instant::now();
    for i in 0..n as u64 {
        std::hint::black_box(w.pop.generate_persona(w.recruit_seed, i).seed.value());
    }
    let traits_full = t0.elapsed().as_secs_f64() / n as f64 * 1e6;
    let t0 = Instant::now();
    for i in 0..n as u64 {
        let cur = w.pop.start_traits(w.recruit_seed, i);
        std::hint::black_box(cur.finish(&w.pop).seed.value());
    }
    let traits_cursor = t0.elapsed().as_secs_f64() / n as f64 * 1e6;
    // Sessions, three generations of per-cell cost: streaming (profile
    // and label rebuilt per call, persona converted per call), flat
    // (hoisted profile/label, per-cell double seed derivation), fast
    // (seed plane + bulk RNG block).
    let participants: Vec<Participant> =
        (0..n as u64).map(|i| w.pop.generate_one(w.recruit_seed, i)).collect();
    let video = &w.stimuli[0].video;
    let t0 = Instant::now();
    for p in &participants {
        let si = 0;
        let label = format!("tl-{si}");
        std::hint::black_box(video_session(video, p, TestKind::Timeline, &label).seeks);
    }
    let session_streaming = t0.elapsed().as_secs_f64() / n as f64 * 1e6;
    let personas: Vec<Persona> =
        (0..n as u64).map(|i| w.pop.generate_persona(w.recruit_seed, i)).collect();
    let t0 = Instant::now();
    for p in &personas {
        std::hint::black_box(
            video_session_profiled(&plane.session, p, TestKind::Timeline, &plane.label).seeks,
        );
    }
    let session_ref = t0.elapsed().as_secs_f64() / n as f64 * 1e6;
    let mseeds: Vec<ModelSeeds> = personas.iter().map(|p| ModelSeeds::of(p.seed)).collect();
    let t0 = Instant::now();
    let seed_buf: Vec<u64> = mseeds.iter().map(|s| session_seed(s, &plane.label)).collect();
    let mut rngs = Vec::new();
    Rng::seed_block(&seed_buf, &mut rngs);
    for (p, rng) in personas.iter().zip(&rngs) {
        std::hint::black_box(
            video_session_from_rng(&plane.session, p, TestKind::Timeline, rng.clone()).seeks,
        );
    }
    let session_fast = t0.elapsed().as_secs_f64() / n as f64 * 1e6;
    // Responses: per-cell double derivation vs hoisted parent.
    let rewinds = plane.rewinds.as_slice();
    let t0 = Instant::now();
    for p in &personas {
        std::hint::black_box(
            timeline_response_flat(&plane.profile, rewinds, p, &plane.label).submitted,
        );
    }
    let response_ref = t0.elapsed().as_secs_f64() / n as f64 * 1e6;
    let t0 = Instant::now();
    for (p, s) in personas.iter().zip(&mseeds) {
        std::hint::black_box(
            timeline_response_seeded(&plane.profile, rewinds, p, s, &plane.label).submitted,
        );
    }
    let response_fast = t0.elapsed().as_secs_f64() / n as f64 * 1e6;
    println!(
        "components (us/unit): traits {traits_full:.2} -> {traits_cursor:.2}, \
         session {session_streaming:.2} -> {session_ref:.2} -> {session_fast:.2}, \
         response {response_ref:.2} -> {response_fast:.2}"
    );
    format!(
        "\"components_us\": {{\"traits_full\": {traits_full:.3}, \
         \"traits_cursor\": {traits_cursor:.3}, \
         \"session_streaming\": {session_streaming:.3}, \
         \"session_flat\": {session_ref:.3}, \"session_fast\": {session_fast:.3}, \
         \"response_flat\": {response_ref:.3}, \"response_fast\": {response_fast:.3}}}"
    )
}

fn main() {
    let mut smoke = false;
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--smoke" => smoke = true,
            other => {
                eprintln!("unknown argument: {other}");
                std::process::exit(2);
            }
        }
    }
    let (sites, n, floor) = if smoke {
        (SMOKE_SITES, SMOKE_PARTICIPANTS, SMOKE_FLOOR)
    } else {
        (FULL_SITES, FULL_PARTICIPANTS, SPEEDUP_GATE)
    };
    let seed = Seed(2016).derive("perf-model");
    let w = workload(sites, seed);
    let masks: [(&str, Vec<bool>); 3] = [
        ("all-live", vec![true; w.planes.len()]),
        ("half-live", (0..w.planes.len()).map(|si| si % 2 == 0).collect()),
        ("sparse", (0..w.planes.len()).map(|si| si % 8 == 0).collect()),
    ];
    let mut identical = true;
    let mut rows = Vec::new();
    let mut scenario_json = Vec::new();
    for (name, live) in &masks {
        let (ref_check, ref_secs) = reference_pass(&w, n, live);
        let (fast_check, fast_secs) = fast_pass(&w, n, live);
        if ref_check != fast_check {
            identical = false;
            eprintln!("DIVERGENCE: scenario {name}: fast-path checksum differs from reference");
        }
        let speedup = ref_secs / fast_secs;
        let ref_us = ref_secs / n as f64 * 1e6;
        let fast_us = fast_secs / n as f64 * 1e6;
        println!(
            "{name:>9}: reference {ref_secs:.3}s ({ref_us:.2} us/participant), \
             fast {fast_secs:.3}s ({fast_us:.2} us/participant) -> {speedup:.2}x"
        );
        rows.push(speedup);
        scenario_json.push(format!(
            "{{\"scenario\": \"{name}\", \"reference_secs\": {ref_secs:.6}, \
             \"fast_secs\": {fast_secs:.6}, \
             \"reference_us_per_participant\": {ref_us:.3}, \
             \"fast_us_per_participant\": {fast_us:.3}, \
             \"speedup\": {speedup:.3}, \"identical\": {}}}",
            ref_check == fast_check
        ));
    }
    let geomean =
        (rows.iter().map(|s| s.ln()).sum::<f64>() / rows.len() as f64).exp();
    println!("model-path speedup (geometric mean of {} scenarios): {geomean:.2}x", rows.len());
    let comp = components(&w, (n / 10).max(1_000));

    let gate_met = geomean >= floor;
    if !gate_met {
        eprintln!(
            "FAIL: model-path speedup {geomean:.2}x is below the {floor}x {} gate",
            if smoke { "smoke floor" } else { "full" }
        );
    }
    let env = eyeorg_bench::env_metadata_json();
    let json = format!(
        "{{\n  \"participants\": {n},\n  \"stimuli\": {sites},\n  \
         \"shard_size\": {SHARD},\n  \"smoke\": {smoke},\n  \
         {env},\n  \
         \"scenarios\": [{}],\n  \
         {comp},\n  \
         \"speedup_geomean\": {geomean:.3},\n  \
         \"speedup_gate\": {floor},\n  \
         \"speedup_gate_met\": {gate_met},\n  \
         \"identical\": {identical}\n}}\n",
        scenario_json.join(", ")
    );
    eyeorg_bench::write_result("BENCH_model.json", &json);
    println!("wrote results/BENCH_model.json");
    if !identical {
        eprintln!("FAIL: fast path diverged from the reference model");
        std::process::exit(1);
    }
    if !gate_met {
        std::process::exit(1);
    }
}
