//! The benchmark's own tests, on the small size of each workload: the
//! same code paths and correctness checks in seconds.
//!
//! The obs registry and the capture cache are process-wide, so the
//! tests take one lock each.

use std::sync::Mutex;

use eyeorg_perfbench::metrics::{END_TO_END, PER_LAYER};
use eyeorg_perfbench::trace::Cx;
use eyeorg_perfbench::{
    run, run_workload, workload, PassOut, RunConfig, RunResult, Size, Workload, WORKLOADS,
};

static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> std::sync::MutexGuard<'static, ()> {
    SERIAL
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

fn config(workload: &str, seed: u64, trace: bool) -> RunConfig {
    RunConfig {
        workload: workload.to_owned(),
        seed,
        seconds: 0.0,
        trace,
        size: Size::Small,
        min_passes: 2,
    }
}

fn assert_emits(r: &RunResult, catalogue: &[(&str, &str)]) {
    assert!(r.correct, "errors: {:?}", r.errors);
    assert_eq!(r.failed, 0);
    assert!(r.attempted >= 3);
    let names: Vec<(&str, &str)> = r
        .metrics
        .iter()
        .map(|m| (m.name.as_str(), m.unit))
        .collect();
    assert_eq!(
        names, catalogue,
        "every metric, in catalogue order, with its unit"
    );
    assert!(r.metrics.iter().all(|m| m.value.is_finite()));
    let fail_ratio = r
        .extra
        .iter()
        .find(|m| m.name == "fail_ratio")
        .expect("fail_ratio");
    assert_eq!(fail_ratio.value, 0.0);
}

#[test]
fn every_workload_emits_every_metric_and_traced_outputs_match() {
    let _g = serial();
    for name in WORKLOADS {
        let plain = run(&config(name, 2016, false)).expect("known workload");
        assert_emits(&plain, &END_TO_END);
        for m in &plain.metrics {
            assert!(
                m.value > 0.0,
                "{name}: end-to-end metric {} reads {}",
                m.name,
                m.value
            );
        }

        let traced = run(&config(name, 2016, true)).expect("known workload");
        assert_emits(&traced, &PER_LAYER);
        assert_eq!(
            traced.fingerprint, plain.fingerprint,
            "{name}: traced outputs differ"
        );
        assert!(traced.counters.is_some());
        assert!(traced
            .spans_json
            .as_deref()
            .is_some_and(|s| s.contains("\"name\": \"pass\"")));
        let value = |n: &str| traced.metrics.iter().find(|m| m.name == n).expect(n).value;
        assert!(value("unattributed_s") > 0.0, "{name}");
        match name {
            "paper" => {
                assert!(value("browser.page_loads") > 0.0);
                assert!(value("browser.load_ms.p99") >= value("browser.load_ms.p50"));
                assert!(value("video.cache_hit_ratio") > 0.0);
                assert!(value("figures.busy_s") > 0.0);
            }
            "campaign_1m" => assert!(value("core.engine.busy_s") > 0.0),
            "checkpoint_resume" => {
                assert!(value("core.checkpoint.count") > 0.0);
                assert!(value("core.checkpoint.resume_s") > 0.0);
                let extra = |n: &str| plain.extra.iter().find(|m| m.name == n).expect(n).value;
                assert!(extra("resume_s") > 0.0 && extra("checkpoint_bytes") > 0.0);
            }
            "reference_rows" => assert!(value("core.dataset.bytes") > 0.0),
            _ => unreachable!(),
        }
        if name != "paper" {
            assert_eq!(
                value("browser.page_loads"),
                0.0,
                "{name} loads no pages in its passes"
            );
        }
    }
}

#[test]
fn other_seeds_agree_across_passes_and_differ_from_the_default() {
    let _g = serial();
    for name in WORKLOADS {
        let a = run(&config(name, 7, false)).expect("known workload");
        assert!(a.correct, "{name}: {:?}", a.errors);
        let b = run(&config(name, 2016, false)).expect("known workload");
        assert_ne!(
            a.fingerprint, b.fingerprint,
            "{name}: the seed reaches the inputs"
        );
    }
}

/// One obs-enabled untraced pass of small `paper`: page loads and
/// capture cache misses, requests and hits.
fn paper_counts(w: &dyn Workload) -> (u64, u64, u64, u64) {
    eyeorg_obs::enable();
    eyeorg_obs::reset();
    w.pass(Cx::off()).expect("paper pass");
    let r = eyeorg_obs::snapshot("test", 0);
    eyeorg_obs::disable();
    let c = |n: &str| r.counters[n];
    (
        c("browser.page_loads"),
        c("video.capture_cache_misses"),
        c("video.capture_cache_requests"),
        c("video.capture_cache_hits"),
    )
}

#[test]
fn paper_passes_start_cold() {
    let _g = serial();
    let mut w = workload("paper", Size::Small, 2016).expect("paper");
    w.setup();
    let first = paper_counts(w.as_ref());
    let second = paper_counts(w.as_ref());
    assert!(first.0 > 0 && first.1 > 0);
    assert_eq!(
        first, second,
        "a warm capture cache would pose as a speed-up"
    );

    // The load probe does the page loads and captures a pass does.
    eyeorg_obs::enable();
    eyeorg_obs::reset();
    let tracer = eyeorg_perfbench::trace::Tracer::default();
    assert!(w.load_probe(Cx::traced(&tracer, 1)));
    let probe = eyeorg_obs::snapshot("test", 0);
    eyeorg_obs::disable();
    assert_eq!(probe.counters["browser.page_loads"], first.0);
    assert_eq!(probe.counters["video.captures"], first.1);
    let loads = tracer
        .spans()
        .iter()
        .filter(|s| s.name == "browser.load_page")
        .count();
    assert_eq!(loads as u64, first.0, "a span per page load");
}

/// Passes 0 and 1 succeed; later passes report a different output.
struct Drifting(std::cell::Cell<u32>);

impl Workload for Drifting {
    fn setup(&mut self) {}
    fn pass(&self, _cx: Cx) -> Result<PassOut, String> {
        let n = self.0.get();
        self.0.set(n + 1);
        if n == 2 {
            panic!("pass {n} panicked");
        }
        Ok(PassOut {
            fingerprint: if n < 2 { "same" } else { "drifted" }.to_owned(),
            participants: 1,
            ..PassOut::default()
        })
    }
    fn pins(&self) -> Option<(&'static str, &'static str)> {
        None
    }
}

#[test]
fn wrong_and_panicking_passes_count_as_failed() {
    let _g = serial();
    let mut cfg = config("drifting", 1, false);
    cfg.min_passes = 4;
    let r = run_workload(&cfg, Box::new(Drifting(std::cell::Cell::new(0))));
    assert!(!r.correct);
    assert_eq!(r.attempted, 5);
    assert_eq!(r.failed, 3);
    assert_eq!(r.errors.len(), 3);
    assert!(r.errors[0].contains("panicked"));
    assert!(r.errors[1].contains("fingerprint"));
}

/// A pass loads one page; its load probe loads `probe_loads`.
struct Probed {
    probe_loads: u64,
}

impl Workload for Probed {
    fn setup(&mut self) {}
    fn pass(&self, _cx: Cx) -> Result<PassOut, String> {
        eyeorg_obs::metrics::BROWSER_PAGE_LOADS.incr();
        Ok(PassOut {
            fingerprint: "same".to_owned(),
            participants: 1,
            ..PassOut::default()
        })
    }
    fn load_probe(&self, cx: Cx) -> bool {
        cx.span("browser.load_page", |_| {
            eyeorg_obs::metrics::BROWSER_PAGE_LOADS.add(self.probe_loads)
        });
        true
    }
    fn pins(&self) -> Option<(&'static str, &'static str)> {
        None
    }
}

#[test]
fn a_load_probe_that_does_other_work_fails_the_run() {
    let _g = serial();
    let cfg = config("probed", 1, true);
    let r = run_workload(&cfg, Box::new(Probed { probe_loads: 1 }));
    assert!(r.correct, "errors: {:?}", r.errors);
    let value = |n: &str| r.metrics.iter().find(|m| m.name == n).expect(n).value;
    assert_eq!(value("browser.page_loads"), 1.0);
    assert!(
        value("browser.busy_s") > 0.0,
        "load spans come from the probe"
    );

    let r = run_workload(&cfg, Box::new(Probed { probe_loads: 2 }));
    assert!(!r.correct);
    assert_eq!(r.failed, 2, "every traced pair's probe: {:?}", r.errors);
    assert!(r.errors[0].contains("browser.page_loads"));
}
