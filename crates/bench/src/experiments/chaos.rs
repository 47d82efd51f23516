//! The `repro chaos` experiment: a seeded fault-injection campaign that
//! proves the crash-safe sweep runtime holds its promises end to end.
//!
//! Five scenarios run against the same reduced fleet, all deterministic
//! in the campaign seed:
//!
//! 1. **reference** — a clean sweep, the byte-identity oracle.
//! 2. **worker panics** — chaos-poisoned chunks panic on their first
//!    attempt; the sweep must retry and still match the reference bytes.
//! 3. **kill + resume** — the run is killed mid-sweep after a checkpoint,
//!    then resumed (for two different thread counts); each resumed result
//!    must match the reference bytes, accumulator and metrics both.
//! 4. **corrupted checkpoints** — the checkpoint file is bit-flipped,
//!    truncated, and version-bumped; every mutation must be rejected with
//!    a typed error.
//! 5. **stalled solve** — a TE round's warm solve is made pathologically
//!    slow; the watchdog must abort it into a typed timeout instead of
//!    hanging.
//!
//! Scenario verdicts land in the report (and CSV) as `pass`/`fail`, and
//! everything is surfaced through the installed observer as `harness.*`
//! counters — the chaos-smoke CI job asserts on both.

use crate::{Report, Scale};
use rwc_harness::{
    chaos as chaos_mut, checkpoint, ChaosPlan, CheckpointConfig, CheckpointError, ExecutorConfig,
    SweepOutcome, SweepSpec,
};
use rwc_obs::MetricsSnapshot;
use rwc_optics::ModulationTable;
use rwc_te::TeSolver;
use rwc_te::TeAlgorithm;
use rwc_te::TeError;
use rwc_telemetry::FleetGenerator;
use rwc_util::time::SimDuration;
use std::fmt::Write as _;
use std::time::Duration;

/// Campaign seed: every injection (panic chunks, kill points, corruption
/// offsets) derives from it, so `repro chaos` is reproducible.
const CAMPAIGN_SEED: u64 = 0xC4A0;

fn chaos_fleet(scale: Scale) -> FleetGenerator {
    // A reduced fleet regardless of scale: the campaign exercises the
    // runtime, not the telemetry statistics, so 40 links × 30 days is
    // plenty of chunks while staying CI-fast.
    let mut cfg = scale.fleet();
    cfg.n_fibers = cfg.n_fibers.min(4);
    cfg.wavelengths_per_fiber = cfg.wavelengths_per_fiber.min(10);
    cfg.horizon = SimDuration::from_days(30);
    super::fleet_generator(cfg)
}

struct Verdict {
    name: &'static str,
    pass: bool,
    detail: String,
}

fn spec<'a>(
    gen: &'a FleetGenerator,
    table: &'a ModulationTable,
    n_threads: usize,
) -> SweepSpec<'a> {
    SweepSpec { gen, table, n_threads, collect_metrics: true }
}

fn completed_bytes(outcome: SweepOutcome) -> (String, Option<String>) {
    match outcome {
        SweepOutcome::Completed(r) => (
            serde_json::to_string(&r.accumulator).expect("accumulator serializes"),
            r.metrics.as_ref().map(MetricsSnapshot::to_json),
        ),
        SweepOutcome::Killed { .. } => panic!("sweep killed without a kill plan"),
    }
}

fn harness_cfg(checkpoint: Option<CheckpointConfig>, chaos: Option<ChaosPlan>) -> ExecutorConfig {
    ExecutorConfig {
        checkpoint,
        chaos,
        observer: super::observer(),
        ..ExecutorConfig::default()
    }
}

/// Scenario 2: poisoned chunks panic, the sweep retries and matches.
fn panic_scenario(
    gen: &FleetGenerator,
    table: &ModulationTable,
    reference: &(String, Option<String>),
) -> Verdict {
    let n_chunks = gen.n_links().div_ceil(rwc_harness::chunk_size_for(gen.n_links(), 3)) as u64;
    let plan = ChaosPlan::new(CAMPAIGN_SEED).with_panics(2, n_chunks);
    let chunks = plan.panic_chunks.clone();
    match rwc_harness::run_fleet_sweep(&spec(gen, table, 3), &harness_cfg(None, Some(plan)), None)
    {
        Ok(outcome) => {
            let bytes = completed_bytes(outcome);
            let pass = bytes == *reference;
            Verdict {
                name: "worker_panics",
                pass,
                detail: format!(
                    "poisoned chunks {chunks:?}: retried, result {} reference",
                    if pass { "matches" } else { "DIVERGED from" }
                ),
            }
        }
        Err(e) => Verdict {
            name: "worker_panics",
            pass: false,
            detail: format!("sweep failed outright: {e}"),
        },
    }
}

/// Scenario 3: kill mid-sweep, resume under `resume_threads`, compare.
fn kill_resume_scenario(
    gen: &FleetGenerator,
    table: &ModulationTable,
    reference: &(String, Option<String>),
    kill_threads: usize,
    resume_threads: usize,
) -> Result<Verdict, String> {
    let path = rwc_harness::unique_temp_path(&format!(
        "chaos_resume_{kill_threads}_{resume_threads}.json"
    ));
    let ckpt = CheckpointConfig { path: path.clone(), every_chunks: 1 };
    let plan = ChaosPlan::new(CAMPAIGN_SEED ^ 1).with_kill_after(2);
    let killed = rwc_harness::run_fleet_sweep(
        &spec(gen, table, kill_threads),
        &harness_cfg(Some(ckpt.clone()), Some(plan)),
        None,
    )
    .map_err(|e| format!("killed run failed: {e}"))?;
    let completed_at_kill = match killed {
        SweepOutcome::Killed { completed_chunks, .. } => completed_chunks,
        SweepOutcome::Completed(_) => return Err("kill never fired".into()),
    };
    let cp = checkpoint::load(&path).map_err(|e| format!("checkpoint unreadable: {e}"))?;
    let resumed = rwc_harness::run_fleet_sweep(
        &spec(gen, table, resume_threads),
        &harness_cfg(None, None),
        Some(&cp),
    )
    .map_err(|e| format!("resume failed: {e}"))?;
    std::fs::remove_file(&path).ok();
    let bytes = completed_bytes(resumed);
    let pass = bytes == *reference;
    Ok(Verdict {
        name: if kill_threads == resume_threads {
            "kill_resume_same_threads"
        } else {
            "kill_resume_cross_threads"
        },
        pass,
        detail: format!(
            "killed at {completed_at_kill} chunks ({kill_threads} threads), resumed \
             ({resume_threads} threads): {}",
            if pass { "byte-identical to reference" } else { "DIVERGED from reference" }
        ),
    })
}

/// Scenario 4: every corruption of a real checkpoint file is rejected.
fn corruption_scenario(gen: &FleetGenerator, table: &ModulationTable) -> Result<Verdict, String> {
    let path = rwc_harness::unique_temp_path("chaos_corrupt.json");
    let ckpt = CheckpointConfig { path: path.clone(), every_chunks: 1 };
    rwc_harness::run_fleet_sweep(&spec(gen, table, 2), &harness_cfg(Some(ckpt), None), None)
        .map_err(|e| format!("seed sweep failed: {e}"))?;
    let text = std::fs::read_to_string(&path).map_err(|e| format!("read back: {e}"))?;
    std::fs::remove_file(&path).ok();
    checkpoint::load_str(&text).map_err(|e| format!("pristine checkpoint rejected: {e}"))?;

    let mut rejected = 0usize;
    let mut detail = String::new();
    for (label, mutated) in [
        ("bit_flip", chaos_mut::corrupt_bit_flip(&text, CAMPAIGN_SEED)),
        ("truncation", chaos_mut::corrupt_truncate(&text, CAMPAIGN_SEED)),
        ("version_bump", chaos_mut::corrupt_version_bump(&text)),
    ] {
        match checkpoint::load_str(&mutated) {
            Err(CheckpointError::VersionMismatch { .. }) if label == "version_bump" => {
                rejected += 1;
                let _ = write!(detail, "{label}: rejected (version); ");
            }
            Err(e) => {
                rejected += 1;
                let _ = write!(detail, "{label}: rejected ({}); ", error_class(&e));
            }
            Ok(_) => {
                let _ = write!(detail, "{label}: ACCEPTED (bug!); ");
            }
        }
        super::observer().incr("harness.checkpoints_rejected", 1);
    }
    Ok(Verdict {
        name: "corrupted_checkpoints",
        pass: rejected == 3,
        detail: detail.trim_end_matches("; ").to_string(),
    })
}

fn error_class(e: &CheckpointError) -> &'static str {
    match e {
        CheckpointError::Io(_) => "io",
        CheckpointError::Corrupt(_) => "checksum/parse",
        CheckpointError::VersionMismatch { .. } => "version",
        CheckpointError::ConfigMismatch(_) => "fingerprint",
    }
}

/// Scenario 5: a forced-slow warm solve is aborted by the watchdog into a
/// typed timeout, and recovers once the chaos delay is lifted.
fn watchdog_scenario() -> Verdict {
    use rwc_te::demand::{DemandMatrix, Priority};
    use rwc_te::problem::TeProblem;
    use rwc_topology::builders;
    use rwc_util::units::Gbps;

    let wan = builders::fig7_example();
    let a = wan.node_by_name("A").expect("fig7 node");
    let b = wan.node_by_name("B").expect("fig7 node");
    let mut dm = DemandMatrix::new();
    dm.add(a, b, Gbps(300.0), Priority::Elastic);
    let problem = TeProblem::from_wan(&wan, &dm);

    let te = TeSolver::builder()
        .observer(super::observer())
        .solve_timeout(Duration::from_millis(1))
        .build()
        .expect("default TE solver");
    te.set_pivot_delay(Some(Duration::from_millis(10)));
    let aborted = matches!(te.try_solve(&problem), Err(TeError::SolverTimeout { .. }));
    // Lift the chaos delay: the very same solver must recover.
    te.set_pivot_delay(None);
    te.set_solve_timeout(None);
    let recovered = te.try_solve(&problem).is_ok();
    Verdict {
        name: "stalled_solve_watchdog",
        pass: aborted && recovered,
        detail: format!(
            "forced-slow solve {}; after disarming, solver {}",
            if aborted { "aborted as SolverTimeout" } else { "did NOT abort (bug!)" },
            if recovered { "recovered" } else { "did NOT recover (bug!)" }
        ),
    }
}

/// Runs the chaos campaign.
pub fn run(scale: Scale) -> Report {
    let mut report = Report::new("chaos", "chaos harness: crash-safe sweep runtime under fault injection");
    let gen = chaos_fleet(scale);
    let table = ModulationTable::paper_default();
    report.line(format!(
        "fleet: {} links, seed {:#x}, campaign seed {CAMPAIGN_SEED:#x}",
        gen.n_links(),
        gen.config().seed
    ));

    let reference = completed_bytes(
        rwc_harness::run_fleet_sweep(&spec(&gen, &table, 2), &harness_cfg(None, None), None)
            .expect("reference sweep must succeed"),
    );

    let mut verdicts = vec![panic_scenario(&gen, &table, &reference)];
    for (kill_threads, resume_threads) in [(2, 2), (3, 5)] {
        verdicts.push(
            kill_resume_scenario(&gen, &table, &reference, kill_threads, resume_threads)
                .unwrap_or_else(|detail| Verdict {
                    name: "kill_resume",
                    pass: false,
                    detail,
                }),
        );
    }
    verdicts.push(corruption_scenario(&gen, &table).unwrap_or_else(|detail| Verdict {
        name: "corrupted_checkpoints",
        pass: false,
        detail,
    }));
    verdicts.push(watchdog_scenario());

    let mut csv = String::from("scenario,pass\n");
    let mut failed = 0usize;
    for v in &verdicts {
        report.line(format!("{:<26} {}  — {}", v.name, if v.pass { "pass" } else { "FAIL" }, v.detail));
        let _ = writeln!(csv, "{},{}", v.name, v.pass);
        if !v.pass {
            failed += 1;
        }
    }
    report.line(if failed == 0 {
        format!("chaos campaign: all {} scenarios pass", verdicts.len())
    } else {
        format!("chaos campaign: {failed}/{} scenarios FAILED", verdicts.len())
    });
    report.csv("chaos_verdicts.csv", csv);
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chaos_campaign_passes_clean() {
        let r = run(Scale::Quick);
        let rendered = r.render();
        assert!(rendered.contains("all 5 scenarios pass"), "report:\n{rendered}");
        assert!(!rendered.contains("FAIL"), "report:\n{rendered}");
    }
}
