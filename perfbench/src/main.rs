//! The repository benchmark: three workloads against the public entry
//! points of the buffopt crates, with every answer checked.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload paper500 --seed 1 --seconds 30 --trace 0
//! ```
//!
//! `--trace 0` reports the end-to-end metrics; `--trace 1` reports the
//! per-layer metrics from spans the benchmark records around its calls
//! into each crate (see `trace.rs` and `layers.rs`). Every workload
//! reports the same metrics in each mode. The last line of standard output is
//! one JSON object; the lines before it are a human-readable table.
//! Estimator choices and measured spreads are in `perfbench/NOTES.md`.

mod batch;
mod layers;
mod serve;
mod stats;
mod trace;

use std::process::ExitCode;
use std::time::Duration;

/// One reported metric.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// What a workload run hands back to `main` for reporting.
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// Lines printed before the JSON: secondary estimators, digests.
    pub notes: Vec<String>,
}

impl Report {
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.to_string(),
            value,
            unit,
        });
    }
}

/// Parsed command line.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: Duration,
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| "bad --seed")?),
            "--seconds" => {
                let s = value.parse::<u64>().map_err(|_| "bad --seconds")?;
                if s == 0 {
                    return Err("--seconds must be at least 1".into());
                }
                seconds = Some(Duration::from_secs(s));
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

/// The system-under-test configuration of each workload, as recorded in
/// the workload's own `why` in `BENCHMARK.json`. The run refuses to
/// start when the two disagree, so the configuration cannot drift
/// silently.
fn sut_config(workload: &str) -> Option<String> {
    match workload {
        "paper500" => Some(batch::Kind::Paper500.config_tag()),
        "large-nets" => Some(batch::Kind::LargeNets.config_tag()),
        "eco-serve" => Some(serve::config_tag()),
        _ => None,
    }
}

fn check_recorded_config(workload: &str, tag: &str) -> Result<(), String> {
    let text = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("cannot read BENCHMARK.json in the working directory: {e}"))?;
    // The `why` that follows the workload's name, up to its closing quote.
    let why = text
        .find(&format!("\"{workload}\""))
        .and_then(|at| {
            let rest = &text[at..];
            let key = rest.find("\"why\"")? + "\"why\"".len();
            let rest = &rest[key..];
            let open = rest.find('"')? + 1;
            let len = rest[open..].find('"')?;
            Some(&rest[open..open + len])
        })
        .ok_or_else(|| format!("BENCHMARK.json has no `why` for workload {workload:?}"))?;
    if why.contains(tag) {
        Ok(())
    } else {
        Err(format!(
            "the `why` of {workload:?} in BENCHMARK.json does not record its configuration {tag:?}"
        ))
    }
}

/// Peak resident set of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload paper500|large-nets|eco-serve --seed N \
                 --seconds S --trace 0|1"
            );
            return ExitCode::from(2);
        }
    };
    let Some(tag) = sut_config(&args.workload) else {
        eprintln!("perfbench: unknown workload {:?}", args.workload);
        return ExitCode::from(2);
    };
    if let Err(e) = check_recorded_config(&args.workload, &tag) {
        eprintln!("perfbench: {e}");
        return ExitCode::from(2);
    }
    let report = match args.workload.as_str() {
        "paper500" => batch::run(batch::Kind::Paper500, &args),
        "large-nets" => batch::run(batch::Kind::LargeNets, &args),
        _ => serve::run(&args),
    };
    let report = match report {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(1);
        }
    };

    println!(
        "workload {} seed {} trace {} [{tag}]",
        args.workload,
        args.seed,
        u8::from(args.trace)
    );
    for note in &report.notes {
        println!("  {note}");
    }
    for m in &report.metrics {
        println!("  {:<34} {:>16.6} {}", m.name, m.value, m.unit);
    }
    let correct = report.failed == 0;
    let metrics: Vec<String> = report
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.attempted,
        report.failed,
        metrics.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        eprintln!("perfbench: {} answer(s) failed the check", report.failed);
        ExitCode::from(1)
    }
}
