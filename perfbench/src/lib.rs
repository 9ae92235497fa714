//! The repository benchmark.
//!
//! Four workloads, each a single-process batch job run as a closed loop
//! with one client: the next pass starts when the previous pass ends.
//! The program runs at the automatic thread count.
//!
//! * `paper` — the paper-scale evaluation `run_all` produces: almost
//!   all page-load simulation (`browser`, `net`, `http`) and `video`.
//! * `campaign_1m` — a 1,000,000-participant timeline and A/B campaign
//!   through the flat engine: almost all `crowd` and `core::flat`.
//! * `checkpoint_resume` — the same campaigns through the checkpointed
//!   drivers, saving every checkpoint and resuming from the midpoint.
//! * `reference_rows` — the materializing engine at 10,000 participants
//!   through filtering, analysis, dataset export and re-read.
//!
//! An untraced run ([`run`] with `trace: false`) measures the
//! end-to-end metrics with tracing and `eyeorg-obs` off. A traced run
//! alternates untraced and traced passes and reports the per-layer
//! metrics from spans ([`trace`]) and the `eyeorg-obs` work counters.
//! Every pass's output is fingerprinted and checked.

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};

pub mod campaign;
pub mod metrics;
pub mod paper;
pub mod rows;
pub mod sys;
pub mod trace;

use trace::{Cx, Tracer};

/// The workloads, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 4] = [
    "paper",
    "campaign_1m",
    "checkpoint_resume",
    "reference_rows",
];

/// The default seed: `Scale::paper().seed`, the one fingerprints are
/// pinned for.
pub const DEFAULT_SEED: u64 = 2016;

/// The seed every workload draws its site samples from, whatever
/// `--seed` is. A pass's cost is dominated by which sites it samples
/// (page sizes are heavy-tailed): with seed-drawn samples the paper
/// pass's CPU time varies by a third between seeds. `--seed` draws
/// everything else — the network draws of every page load, the crowds,
/// the assignments.
pub const SITES_SEED: eyeorg_stats::Seed = eyeorg_stats::Seed(DEFAULT_SEED);

/// A run repeats its set-up at least [`SETUP_REPEATS`] times and for at
/// least [`SETUP_MIN_S`]; `setup_s` is the median repeat.
/// Set-up builds the inputs the passes share (site samples, and for the
/// campaign workloads their cold stimulus captures). The discarded
/// warm-up pass that follows is not part of it: it is one more pass.
const SETUP_REPEATS: usize = 3;
/// See [`SETUP_REPEATS`]. `paper`'s set-up takes milliseconds; a few
/// repeats of it would leave `setup_s` to process start-up noise.
const SETUP_MIN_S: f64 = 0.5;

/// Workload size. `Small` runs the same code paths and checks in
/// seconds, for the benchmark's own tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// The sizes the benchmark measures.
    Full,
    /// Test-sized inputs.
    Small,
}

/// What one pass produced.
#[derive(Debug, Default, Clone)]
pub struct PassOut {
    /// Fingerprint of the pass's outputs; equal for every pass of a
    /// run, and equal to the pinned value for the default seed.
    pub fingerprint: String,
    /// Participants recruited.
    pub participants: u64,
    /// End-to-end measurements taken inside the pass, keyed by name
    /// and unit (`resume_s`, `checkpoint_bytes`).
    pub extra: BTreeMap<(&'static str, &'static str), f64>,
    /// Exact per-layer counts known only inside the pass.
    pub layer: BTreeMap<&'static str, f64>,
    /// The pass's `eyeorg-obs` counters when it had to reset the
    /// registry part-way (summed over its segments), with their
    /// fingerprint. `None`: the runner snapshots the registry.
    pub obs: Option<(eyeorg_obs::RunReport, String)>,
}

/// A benchmark workload.
pub trait Workload {
    /// Build the inputs every pass shares. Runs at least
    /// [`SETUP_REPEATS`] times; each run replaces the previous inputs.
    fn setup(&mut self);
    /// One pass. Spans go under `cx`; with tracing off they cost a
    /// branch.
    fn pass(&self, cx: Cx) -> Result<PassOut, String>;
    /// Checks too costly for every pass, made once on the warm-up
    /// pass's output.
    fn check_once(&self, _out: &PassOut) -> Result<(), String> {
        Ok(())
    }
    /// Spans for work the pass's public calls cannot separate (`paper`'s
    /// page loads, made inside the stimulus builders): a traced run
    /// calls this after every traced pass, with obs on, and requires
    /// its work counts to equal the pass's ([`metrics::probe_mismatch`]).
    /// Returns whether the workload has such a probe.
    fn load_probe(&self, _cx: Cx) -> bool {
        false
    }
    /// The pass fingerprint and obs counter fingerprint of the full
    /// size at [`DEFAULT_SEED`], when pinned.
    fn pins(&self) -> Option<(&'static str, &'static str)>;
}

/// Build workload `name`.
pub fn workload(name: &str, size: Size, seed: u64) -> Option<Box<dyn Workload>> {
    Some(match name {
        "paper" => Box::new(paper::Paper::new(size, seed)),
        "campaign_1m" => Box::new(campaign::Campaign1m::new(size, seed)),
        "checkpoint_resume" => Box::new(campaign::CheckpointResume::new(size, seed)),
        "reference_rows" => Box::new(rows::ReferenceRows::new(size, seed)),
        _ => return None,
    })
}

/// Settings of one benchmark run.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Seconds of timed passes.
    pub seconds: f64,
    /// Traced run (per-layer metrics) or untraced (end-to-end).
    pub trace: bool,
    /// Input size.
    pub size: Size,
    /// Fewest timed passes (traced: pairs) however long they take.
    pub min_passes: usize,
}

/// A reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
    /// Samples the value summarises.
    pub samples: usize,
}

/// The outcome of a run.
#[derive(Debug)]
pub struct RunResult {
    /// No pass failed.
    pub correct: bool,
    /// Passes attempted, warm-up included.
    pub attempted: u64,
    /// Passes that panicked, returned an error or produced a wrong
    /// fingerprint.
    pub failed: u64,
    /// The contract metrics: every end-to-end metric (untraced) or
    /// every per-layer metric (traced).
    pub metrics: Vec<Metric>,
    /// Further metrics reported beside them (percentiles, `resume_s`,
    /// `checkpoint_bytes`, `fail_ratio`).
    pub extra: Vec<Metric>,
    /// Why passes failed.
    pub errors: Vec<String>,
    /// The pass fingerprint the run agreed on.
    pub fingerprint: String,
    /// The obs counter fingerprint (traced runs).
    pub counters: Option<String>,
    /// The environment block, a JSON object.
    pub environment: String,
    /// The spans, as JSON (traced runs).
    pub spans_json: Option<String>,
    /// Every timed untraced pass's wall and CPU seconds, in run order.
    pub pass_times: Vec<(f64, f64)>,
}

/// Tracks pass outcomes against the expected fingerprints.
struct Checker {
    expect: Option<String>,
    expect_counters: Option<String>,
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
}

impl Checker {
    fn record(&mut self, label: &str, out: Result<PassOut, String>) -> Option<PassOut> {
        self.attempted += 1;
        let verdict = out.and_then(|out| match &self.expect {
            Some(fp) if *fp != out.fingerprint => {
                Err(format!("fingerprint {} != expected {fp}", out.fingerprint))
            }
            _ => {
                self.expect.get_or_insert_with(|| out.fingerprint.clone());
                Ok(out)
            }
        });
        match verdict {
            Ok(out) => Some(out),
            Err(e) => {
                self.failed += 1;
                self.errors.push(format!("{label}: {e}"));
                None
            }
        }
    }

    fn check_counters(&mut self, label: &str, fp: &str) -> bool {
        match &self.expect_counters {
            Some(want) if want != fp => {
                self.failed += 1;
                self.errors.push(format!(
                    "{label}: counter fingerprint {fp} != expected {want}"
                ));
                false
            }
            _ => {
                self.expect_counters.get_or_insert_with(|| fp.to_owned());
                true
            }
        }
    }
}

/// Run `f` as one pass: reset the obs registry (the checkpoint
/// drivers' documented caller contract), time it, and turn a panic
/// into an error.
fn timed<T>(f: impl FnOnce() -> Result<T, String>) -> (Result<T, String>, f64, f64) {
    eyeorg_obs::reset();
    let cpu0 = sys::process_cpu_s();
    let t0 = sys::now();
    let out = catch_unwind(AssertUnwindSafe(f)).unwrap_or_else(|p| {
        let msg = p
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| p.downcast_ref::<&str>().map(|s| (*s).to_owned()))
            .unwrap_or_else(|| "panic".to_owned());
        Err(format!("panicked: {msg}"))
    });
    (out, t0.elapsed().as_secs_f64(), sys::process_cpu_s() - cpu0)
}

/// Run `w`'s load probe as pass `id` with obs on. Its spans, `None`
/// when the workload has no probe, or an error when it panicked or its
/// work counts differ from `pass`'s.
fn load_probe(
    w: &dyn Workload,
    tracer: &Tracer,
    id: u32,
    pass: &eyeorg_obs::RunReport,
) -> Result<Option<trace::PassSpans>, String> {
    eyeorg_obs::enable();
    let (ran, _, _) =
        timed(|| Ok(Cx::traced(tracer, id).span("load_probe", |cx| w.load_probe(cx))));
    let probe = eyeorg_obs::snapshot("perfbench-probe", sys::auto_pool());
    eyeorg_obs::disable();
    if !ran? {
        return Ok(None);
    }
    match metrics::probe_mismatch(pass, &probe) {
        Some(e) => Err(e),
        None => Ok(Some(trace::summarize(&tracer.spans(), id))),
    }
}

/// The environment block: `nproc`, `EYEORG_THREADS` and the effective
/// pool (via `eyeorg_bench::env_metadata_json`), git revision, seed
/// and pass count, and whether the pool matches `nproc`.
fn environment(cfg: &RunConfig, passes: usize) -> String {
    let pool_ok = sys::auto_pool() == sys::nproc();
    format!(
        "{{{}, \"nproc\": {}, \"pool_matches_nproc\": {pool_ok}, \"git_rev\": \"{}\", \
         \"workload\": \"{}\", \"seed\": {}, \"passes\": {passes}, \"trace\": {}}}",
        eyeorg_bench::env_metadata_json(),
        sys::nproc(),
        sys::git_rev().escape_default(),
        cfg.workload,
        cfg.seed,
        cfg.trace,
    )
}

fn metric(name: &str, value: f64, unit: &'static str, samples: usize) -> Metric {
    Metric {
        name: name.to_owned(),
        value,
        unit,
        samples,
    }
}

/// Run a workload. `None` for an unknown workload name.
pub fn run(cfg: &RunConfig) -> Option<RunResult> {
    Some(run_workload(
        cfg,
        workload(&cfg.workload, cfg.size, cfg.seed)?,
    ))
}

/// Run `w` with the settings of `cfg` (its workload name is only
/// reported).
pub fn run_workload(cfg: &RunConfig, mut w: Box<dyn Workload>) -> RunResult {
    if sys::auto_pool() != sys::nproc() {
        eprintln!(
            "warning: effective pool {} differs from nproc {}; results are flagged",
            sys::auto_pool(),
            sys::nproc()
        );
    }
    let pins = w
        .pins()
        .filter(|_| cfg.seed == DEFAULT_SEED && cfg.size == Size::Full);
    let mut ck = Checker {
        expect: pins.map(|p| p.0.to_owned()),
        expect_counters: pins.map(|p| p.1.to_owned()),
        attempted: 0,
        failed: 0,
        errors: Vec::new(),
    };

    let mut setup = Vec::new();
    let setup_start = sys::now();
    while setup.len() < SETUP_REPEATS || setup_start.elapsed().as_secs_f64() < SETUP_MIN_S {
        eyeorg_obs::reset();
        let t = sys::now();
        w.setup();
        setup.push(t.elapsed().as_secs_f64());
    }
    let (warm, _, _) = timed(|| w.pass(Cx::off()));
    // Peak memory through set-up and one whole pass, so that it does
    // not depend on how many passes the run fits in its time.
    let peak_rss_mb = sys::peak_rss_mb();
    if let Some(out) = ck.record("warm-up", warm) {
        if let Err(e) = w.check_once(&out) {
            ck.failed += 1;
            ck.errors.push(format!("warm-up: {e}"));
        }
    }
    let setup_s = sys::median(&setup);

    let t_run = sys::now();
    let mut walls = Vec::new();
    let mut cpus = Vec::new();
    let mut rates = Vec::new();
    let mut extras: BTreeMap<(&'static str, &'static str), Vec<f64>> = BTreeMap::new();
    let mut traced_walls = Vec::new();
    let mut layers: Vec<BTreeMap<&'static str, f64>> = Vec::new();
    let tracer = Tracer::default();
    let mut pass_id = 0u32;
    let mut attempts = 0;
    loop {
        attempts += 1;
        pass_id += 1;
        let (out, wall, cpu) = timed(|| w.pass(Cx::off()));
        if let Some(out) = ck.record(&format!("pass {pass_id}"), out) {
            walls.push(wall);
            cpus.push(cpu);
            rates.push(out.participants as f64 / wall);
            for (k, v) in out.extra {
                extras.entry(k).or_default().push(v);
            }
        }
        if cfg.trace {
            pass_id += 1;
            let cx = Cx::traced(&tracer, pass_id);
            eyeorg_obs::enable();
            let (out, wall, _) = timed(|| cx.span("pass", |cx| w.pass(cx)));
            let snapshot = eyeorg_obs::snapshot("perfbench", sys::auto_pool());
            eyeorg_obs::disable();
            let label = format!("traced pass {pass_id}");
            if let Some(mut out) = ck.record(&label, out) {
                let (report, counters) = out.obs.take().unwrap_or_else(|| {
                    let fp = sys::fnv_hex(snapshot.counter_fingerprint().as_bytes());
                    (snapshot, fp)
                });
                if ck.check_counters(&label, &counters) {
                    let spans = trace::summarize(&tracer.spans(), pass_id);
                    pass_id += 1;
                    match load_probe(w.as_ref(), &tracer, pass_id, &report) {
                        Ok(probe) => {
                            traced_walls.push(wall);
                            layers.push(metrics::layer_values(
                                &spans,
                                probe.as_ref().unwrap_or(&spans),
                                &report,
                                &out,
                                sys::auto_pool(),
                            ));
                        }
                        Err(e) => {
                            ck.failed += 1;
                            ck.errors.push(format!("load probe {pass_id}: {e}"));
                        }
                    }
                }
            }
        }
        if t_run.elapsed().as_secs_f64() >= cfg.seconds && attempts >= cfg.min_passes {
            break;
        }
    }

    let n = walls.len();
    let mut result = RunResult {
        correct: false,
        attempted: ck.attempted,
        failed: ck.failed,
        metrics: Vec::new(),
        extra: Vec::new(),
        errors: std::mem::take(&mut ck.errors),
        fingerprint: ck.expect.clone().unwrap_or_default(),
        counters: ck.expect_counters.clone().filter(|_| cfg.trace),
        environment: environment(cfg, n),
        spans_json: cfg.trace.then(|| tracer.to_json()),
        pass_times: walls.iter().copied().zip(cpus.iter().copied()).collect(),
    };
    if cfg.trace {
        let overhead = sys::median(&traced_walls) / sys::median(&walls) - 1.0;
        result.metrics = metrics::layer_metrics(&layers, overhead);
    } else {
        let values = [
            (setup_s, setup.len()),
            (sys::median(&walls), n),
            (sys::median(&cpus), n),
            (peak_rss_mb, 1),
            (sys::median(&rates), n),
        ];
        result.metrics = metrics::END_TO_END
            .iter()
            .zip(values)
            .map(|(&(name, unit), (value, samples))| metric(name, value, unit, samples))
            .collect();
        if let Some(p) = metrics::reportable_percentile(n) {
            result.extra.push(metric(
                &format!("wall_s.p{p}"),
                eyeorg_stats::percentile(&walls, f64::from(p)).unwrap_or(0.0),
                "s",
                n,
            ));
        }
        for (&(name, unit), v) in &extras {
            result
                .extra
                .push(metric(name, sys::median(v), unit, v.len()));
        }
    }
    result.extra.push(metric(
        "fail_ratio",
        result.failed as f64 / result.attempted.max(1) as f64,
        "ratio",
        result.attempted as usize,
    ));
    let have_all = result.metrics.iter().all(|m| m.value.is_finite()) && n > 0;
    result.correct = result.failed == 0 && have_all;
    result
}
