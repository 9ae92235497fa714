//! `eyeorg-perfbench --workload <name> [--seed N] [--seconds S] [--trace 0|1]`
//!
//! Runs one workload (see the library docs), prints every metric by
//! name and unit, writes the full result (and, traced, the spans) under
//! `perfbench/out/`, and prints as its last line the JSON object
//! `{"correct", "attempted", "failed", "metrics"}`. Exits 1 when a pass
//! failed, 2 on bad arguments.

use std::fmt::Write as _;
use std::process::ExitCode;

use eyeorg_perfbench::{run, Metric, RunConfig, RunResult, Size, DEFAULT_SEED, WORKLOADS};

const USAGE: &str = "usage: eyeorg-perfbench --workload <paper|campaign_1m|checkpoint_resume|\
reference_rows> [--seed N] [--seconds S] [--trace 0|1]";

/// Directory of result and trace files, relative to the checkout root.
const OUT_DIR: &str = "perfbench/out";

fn parse(args: &[String]) -> Result<RunConfig, String> {
    let mut cfg = RunConfig {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
        size: Size::Full,
        min_passes: 3,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => cfg.workload = value.clone(),
            "--seed" => cfg.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                cfg.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite())
                    .ok_or_else(bad)?
            }
            "--trace" => {
                cfg.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    if !WORKLOADS.contains(&cfg.workload.as_str()) {
        return Err(format!("unknown workload {:?}", cfg.workload));
    }
    if cfg.trace {
        // Traced runs alternate untraced and traced passes.
        cfg.min_passes = 2;
    }
    Ok(cfg)
}

fn json_metrics(metrics: &[Metric]) -> String {
    let mut out = String::from("{");
    for (i, m) in metrics.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(
            out,
            "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name, m.value, m.unit
        );
    }
    out.push('}');
    out
}

fn result_json(r: &RunResult) -> String {
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        r.correct,
        r.attempted,
        r.failed,
        json_metrics(&r.metrics)
    )
}

/// The full result file: the contract object plus the environment,
/// the further metrics with sample counts, fingerprints and errors.
fn full_json(r: &RunResult) -> String {
    let samples: Vec<String> = r
        .metrics
        .iter()
        .chain(&r.extra)
        .map(|m| format!("\"{}\": {}", m.name, m.samples))
        .collect();
    let errors: Vec<String> = r
        .errors
        .iter()
        .map(|e| format!("\"{}\"", e.escape_default()))
        .collect();
    let passes: Vec<String> = r
        .pass_times
        .iter()
        .map(|(w, c)| format!("[{w}, {c}]"))
        .collect();
    format!(
        "{{\"result\": {},\n\"environment\": {},\n\"extra\": {},\n\"samples\": {{{}}},\n\
         \"passes_wall_cpu_s\": [{}],\n\"fingerprint\": \"{}\", \"counters\": {},\n\"errors\": [{}]}}\n",
        result_json(r),
        r.environment,
        json_metrics(&r.extra),
        samples.join(", "),
        passes.join(", "),
        r.fingerprint,
        r.counters.as_ref().map_or_else(|| "null".to_owned(), |c| format!("\"{c}\"")),
        errors.join(", ")
    )
}

fn write_out(name: &str, contents: &str) {
    let path = format!("{OUT_DIR}/{name}");
    if let Err(e) = std::fs::create_dir_all(OUT_DIR).and_then(|()| std::fs::write(&path, contents))
    {
        eprintln!("warning: cannot write {path}: {e}");
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cfg = match parse(&args) {
        Ok(cfg) => cfg,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let Some(result) = run(&cfg) else {
        eprintln!("unknown workload {:?}\n{USAGE}", cfg.workload);
        return ExitCode::from(2);
    };

    println!("environment: {}", result.environment);
    for m in result.metrics.iter().chain(&result.extra) {
        println!(
            "{:<36} {:>16.6} {:<14} n={}",
            m.name, m.value, m.unit, m.samples
        );
    }
    for e in &result.errors {
        println!("FAILED {e}");
    }
    let stem = format!(
        "{}-seed{}-trace{}",
        cfg.workload,
        cfg.seed,
        u8::from(cfg.trace)
    );
    write_out(&format!("result-{stem}.json"), &full_json(&result));
    if let Some(spans) = &result.spans_json {
        write_out(&format!("spans-{stem}.json"), spans);
    }
    println!("{}", result_json(&result));
    if result.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
