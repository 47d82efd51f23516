//! `rwc-perfbench --workload NAME --seed N --seconds S --trace 0|1`
//!
//! Runs one workload, prints the host, every metric by name with its unit,
//! and as the last line one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. `--trace 0` reports
//! the end-to-end metrics; `--trace 1` runs the workload untraced and then
//! traced, and reports the per-layer metrics. A run whose outputs fail a
//! check prints the failures instead of numbers and exits 1.

use rwc_perfbench::{
    closed_loop, host, serve_ingest, te_plan, Outcome, END_TO_END, PER_LAYER, WORKLOADS,
};
use std::process::ExitCode;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .map_err(|e| format!("--seconds: {e}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                })
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload}; expected one of {WORKLOADS:?}"
        ));
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if !(seconds > 0.0 && seconds.is_finite()) {
        return Err("--seconds must be positive".into());
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("rwc-perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    println!("{}", host::describe());
    println!(
        "workload={} seed={} seconds={} trace={}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    let outcome = match args.workload.as_str() {
        "te_plan" => te_plan::run(args.seed, args.seconds, args.trace),
        "closed_loop" => closed_loop::run(args.seed, args.seconds, args.trace),
        "serve_ingest" => serve_ingest::run(args.seed, args.seconds, args.trace),
        _ => unreachable!("workload validated by parse_args"),
    };
    report(&outcome, args.trace)
}

fn report(outcome: &Outcome, trace: bool) -> ExitCode {
    for note in &outcome.notes {
        println!("{note}");
    }
    let mut failures = outcome.check_failures.clone();
    let mut metrics = Vec::new();
    let (catalog, values) = if trace {
        (PER_LAYER, &outcome.per_layer)
    } else {
        (END_TO_END, &outcome.end_to_end)
    };
    for &(name, unit) in catalog {
        let value = match values.get(name) {
            Some(&v) => v,
            // A layer the workload never calls did no work.
            None if trace => 0.0,
            None => {
                failures.push(format!("end-to-end metric {name} was not measured"));
                continue;
            }
        };
        if !value.is_finite() {
            failures.push(format!("metric {name} is not finite: {value}"));
            continue;
        }
        metrics.push((name, value, unit));
    }
    if !failures.is_empty() {
        for f in &failures {
            println!("CHECK FAILED: {f}");
        }
        println!(
            "{{\"correct\": false, \"attempted\": {}, \"failed\": {}, \"metrics\": {{}}}}",
            outcome.attempted, outcome.failed
        );
        return ExitCode::from(1);
    }
    for (name, value, unit) in &metrics {
        println!("{name} = {value} {unit}");
    }
    // Names and units are fixed ASCII identifiers; `{:?}` prints an f64
    // with every digit needed to read it back exactly, in JSON syntax.
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": true, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.attempted,
        outcome.failed,
        body.join(", ")
    );
    ExitCode::SUCCESS
}
