//! Figure-reproduction CLI.
//!
//! ```text
//! repro [--quick|--full|--scale N] [--gen-mode legacy|batch]
//!       [--quiet] [--obs-json FILE] [--checkpoint FILE] [--resume FILE]
//!       [--out DIR] <id>... | all
//! repro --bench-json [--perf-baseline FILE] [--quick|--full|--scale N] [--out DIR]
//! ```
//!
//! Ids: fig1 fig2a fig2b fig3a fig3b fig4 fig5 fig6b fig7 fig8 thm1 tput
//! avail scenario faults srlg ablation chaos. Default scale is a reduced fleet
//! (fast); `--quick` spells that default out (handy in CI), `--full` runs
//! the paper-scale corpus (2,000 links × 2.5 years — takes a while), and
//! `--scale N` multiplies the paper fleet (`--scale 10` = 20,000 links)
//! for fleet-pipeline stress runs.
//!
//! `--obs-json FILE` switches observability on for the whole process: a
//! [`rwc_obs::MetricsObserver`] is installed before any experiment
//! dispatches, every pipeline the experiments build publishes into it
//! (controller decisions and reconfigurations, TE round/solve timing and
//! warm-start rates, scenario tick/fault counters, fleet-kernel episode
//! statistics), and the merged snapshot is written to `FILE` as
//! deterministic JSON when the run finishes. Reports stay byte-identical
//! with observability on or off — metrics are a sidecar, never an input.
//!
//! `--quiet` suppresses progress lines and the `[obs]` event echo;
//! experiment findings and errors still print.
//!
//! `--gen-mode batch` switches trace *generation* to the counter-based
//! batch pipeline (blockwise OU + vectorised composition, DESIGN.md §13).
//! The batch fleet is statistically equivalent to the legacy fleet but
//! not byte-identical to it, so checkpoints fingerprint the generation
//! mode: a `--resume` across `--gen-mode` values is rejected up front.
//!
//! `--checkpoint FILE` makes every fleet sweep crash-safe: progress is
//! checkpointed to `FILE` every few chunks (atomically, temp + rename),
//! so a killed run can be continued with `--resume FILE`. The resume file
//! is verified up front — envelope checksum, format version, and sweep
//! fingerprint against this invocation's fleet/seed/generation mode — and a
//! bad file exits with a distinct code (see [`rwc_bench::cli`]) instead
//! of silently starting over. A resumed run reproduces the uninterrupted
//! run's reports byte for byte. `--resume FILE` alone keeps writing
//! updated checkpoints back to the same file.
//!
//! `--bench-json` times the scenario round engine (full-rebuild vs
//! incremental, cold vs warm exact LP, the large-TE and objective-zoo
//! stages) and the fleet-analysis pipeline, writing `BENCH_scenario.json`
//! and `BENCH_fleet.json` to the output directory. With
//! `--perf-baseline FILE` it additionally exits non-zero when a gated
//! throughput (incremental rounds/sec, fused links/sec, large-TE and
//! min-MLU drift rounds/sec, ...) falls below half the committed
//! baseline — the CI perf-smoke gate. Failure
//! classes map to stable exit codes, documented in [`rwc_bench::cli`].

use rwc_bench::experiments::{self, CheckpointState};
use rwc_bench::perf::PerfBaseline;
use rwc_bench::{cli, Scale};
use rwc_harness::{checkpoint, mode_label, HarnessError, SweepFingerprint};
use rwc_obs::{ConsoleSink, MetricsObserver};
use rwc_telemetry::{FleetGenerator, GenMode};
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::Arc;

fn usage_error(msg: &str) -> ExitCode {
    eprintln!("{msg}");
    ExitCode::from(cli::EXIT_USAGE)
}

fn main() -> ExitCode {
    let mut scale = Scale::Quick;
    let mut out_dir = PathBuf::from("results");
    let mut ids: Vec<String> = Vec::new();
    let mut bench_json = false;
    let mut baseline_path: Option<PathBuf> = None;
    let mut obs_path: Option<PathBuf> = None;
    let mut checkpoint_path: Option<PathBuf> = None;
    let mut resume_path: Option<PathBuf> = None;
    let mut quiet = false;
    let mut gen_mode = GenMode::Legacy;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--full" => scale = Scale::Full,
            "--quick" => scale = Scale::Quick,
            "--scale" => match args.next().and_then(|n| n.parse::<u32>().ok()) {
                Some(n) if n > 0 => scale = Scale::Scaled(n),
                _ => return usage_error("--scale needs a positive integer fleet multiplier"),
            },
            "--gen-mode" => match args.next().and_then(|m| m.parse::<GenMode>().ok()) {
                Some(m) => gen_mode = m,
                None => return usage_error("--gen-mode needs 'legacy' or 'batch'"),
            },
            "--bench-json" => bench_json = true,
            "--quiet" => quiet = true,
            "--obs-json" => match args.next() {
                Some(file) => obs_path = Some(PathBuf::from(file)),
                None => return usage_error("--obs-json needs a file"),
            },
            "--checkpoint" => match args.next() {
                Some(file) => checkpoint_path = Some(PathBuf::from(file)),
                None => return usage_error("--checkpoint needs a file"),
            },
            "--resume" => match args.next() {
                Some(file) => resume_path = Some(PathBuf::from(file)),
                None => return usage_error("--resume needs a file"),
            },
            "--perf-baseline" => match args.next() {
                Some(file) => baseline_path = Some(PathBuf::from(file)),
                None => return usage_error("--perf-baseline needs a file"),
            },
            "--out" => match args.next() {
                Some(dir) => out_dir = PathBuf::from(dir),
                None => return usage_error("--out needs a directory"),
            },
            "--help" | "-h" => {
                println!(
                    "usage: repro [--quick|--full|--scale N] \
                     [--gen-mode legacy|batch] [--quiet] \
                     [--obs-json FILE] [--checkpoint FILE] [--resume FILE] [--out DIR] \
                     <id>... | all"
                );
                println!("       repro --bench-json [--perf-baseline FILE]");
                println!("ids: {} ablation chaos", experiments::ALL.join(" "));
                return ExitCode::SUCCESS;
            }
            other => ids.push(other.to_string()),
        }
    }
    let sink = ConsoleSink::new(quiet);
    experiments::set_gen_mode(gen_mode);
    if obs_path.is_some() {
        // Install before any experiment dispatches: every pipeline built
        // from here on publishes into this registry, with the salient
        // events echoed through the console sink.
        experiments::set_observer(Arc::new(MetricsObserver::with_forward(Arc::new(sink))));
    }
    if bench_json {
        return run_bench_json(scale, &out_dir, baseline_path.as_deref(), &sink);
    }
    if baseline_path.is_some() {
        return usage_error("--perf-baseline only makes sense with --bench-json");
    }
    if checkpoint_path.is_some() || resume_path.is_some() {
        if let Err(code) =
            install_checkpoint_plan(checkpoint_path, resume_path, scale, gen_mode, &sink)
        {
            return code;
        }
    }
    if ids.is_empty() || ids.iter().any(|i| i == "all") {
        ids = experiments::ALL.iter().map(|s| s.to_string()).collect();
        ids.push("ablation".into());
    }

    for id in &ids {
        sink.progress(&format!("running {id} ({} scale)…", scale.label()));
        let Some(report) = experiments::run(id, scale) else {
            sink.error(&format!("unknown experiment id: {id}"));
            return ExitCode::FAILURE;
        };
        sink.result(report.render().trim_end());
        match report.write_csv(&out_dir) {
            Ok(files) => {
                for f in files {
                    sink.progress(&format!("  -> {f}"));
                }
            }
            Err(e) => {
                sink.error(&format!("failed to write CSV: {e}"));
                return ExitCode::FAILURE;
            }
        }
        sink.progress("");
    }
    write_obs_snapshot(obs_path.as_deref(), &sink)
}

/// Loads and verifies the `--resume` file (envelope checksum, format
/// version, fingerprint against this invocation's fleet/seed/generation
/// mode) and installs the process-wide checkpoint plan. Failures map to
/// the exit codes documented in [`cli`] — notably [`cli::EXIT_CHECKPOINT`]
/// for corrupt, version-mismatched, or foreign checkpoints.
fn install_checkpoint_plan(
    checkpoint_path: Option<PathBuf>,
    resume_path: Option<PathBuf>,
    scale: Scale,
    gen_mode: GenMode,
    sink: &ConsoleSink,
) -> Result<(), ExitCode> {
    let resume = match &resume_path {
        Some(path) => {
            let cp = checkpoint::load(path).map_err(|e| {
                sink.error(&format!("--resume {}: {e}", path.display()));
                ExitCode::from(cli::harness_exit_code(&HarnessError::Checkpoint(e)))
            })?;
            // Fail fast on a checkpoint from a different sweep, before any
            // experiment dispatches. Chunk size comes from the checkpoint
            // itself (resume replays the original chunk boundaries no
            // matter the thread count), so only fleet size, seed and
            // generation mode are pinned by this invocation, labelled
            // exactly as the executor fingerprints them.
            let fleet = scale.fleet();
            let expected = SweepFingerprint {
                n_links: FleetGenerator::new(scale.fleet()).n_links() as u64,
                chunk_size: cp.fingerprint.chunk_size,
                seed: fleet.seed,
                mode: mode_label(gen_mode).into(),
            };
            expected.verify(&cp.fingerprint).map_err(|e| {
                sink.error(&format!("--resume {}: {e}", path.display()));
                ExitCode::from(cli::harness_exit_code(&HarnessError::Checkpoint(e)))
            })?;
            sink.progress(&format!(
                "resuming from {} ({} completed chunks verified)",
                path.display(),
                cp.chunks.len()
            ));
            Some(cp)
        }
        None => None,
    };
    // `--resume` without `--checkpoint` keeps writing updated checkpoints
    // back to the file it restored from.
    let path = checkpoint_path.or(resume_path).expect("caller ensured one path is set");
    experiments::set_checkpoint(CheckpointState { path, resume });
    Ok(())
}

/// Writes the installed observer's merged snapshot to `path`; a no-op
/// when `--obs-json` was not given.
fn write_obs_snapshot(path: Option<&std::path::Path>, sink: &ConsoleSink) -> ExitCode {
    let Some(path) = path else {
        return ExitCode::SUCCESS;
    };
    let Some(snapshot) = experiments::metrics() else {
        sink.error("--obs-json: no observer was installed (internal error)");
        return ExitCode::FAILURE;
    };
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        if let Err(e) = std::fs::create_dir_all(dir) {
            sink.error(&format!("cannot create {}: {e}", dir.display()));
            return ExitCode::FAILURE;
        }
    }
    if let Err(e) = std::fs::write(path, snapshot.to_json() + "\n") {
        sink.error(&format!("cannot write {}: {e}", path.display()));
        return ExitCode::FAILURE;
    }
    sink.result(&format!(
        "observability snapshot ({} counters, {} gauges, {} histograms) -> {}",
        snapshot.counters.len(),
        snapshot.gauges.len(),
        snapshot.histograms.len(),
        path.display()
    ));
    ExitCode::SUCCESS
}

fn run_bench_json(
    scale: Scale,
    out_dir: &std::path::Path,
    baseline: Option<&std::path::Path>,
    sink: &ConsoleSink,
) -> ExitCode {
    let perf = rwc_bench::perf::scenario_perf(scale);
    sink.result(&format!(
        "round engine ({} scale): full {:.1} rounds/sec -> incremental {:.1} rounds/sec \
         ({:.2}x solve speedup, reports identical: {})",
        perf.scale,
        perf.full.rounds_per_sec,
        perf.incremental.rounds_per_sec,
        perf.solve_speedup,
        perf.reports_identical,
    ));
    sink.result(&format!(
        "exact LP: cold p50 {} us / p99 {} us -> warm p50 {} us / p99 {} us \
         ({:.2}x solve speedup, warm hit rate {:.0}%, max throughput delta {:.2e} G)",
        perf.exact_cold.solve_p50_micros,
        perf.exact_cold.solve_p99_micros,
        perf.exact_warm.solve_p50_micros,
        perf.exact_warm.solve_p99_micros,
        perf.exact_solve_speedup,
        100.0 * perf.warm_hit_rate,
        perf.max_throughput_delta,
    ));
    if let Some(lt) = &perf.large_te {
        sink.result(&format!(
            "large TE (scale x{}, {} links, {} commodities, LP {}x{}): \
             sparse {:.1} rounds/sec (p50 {} us / p99 {} us, \
             {:.1} eta updates/refactor)",
            lt.scale_factor,
            lt.links,
            lt.commodities,
            lt.lp_rows,
            lt.lp_cols,
            lt.sparse.rounds_per_sec,
            lt.sparse.solve_p50_micros,
            lt.sparse.solve_p99_micros,
            lt.eta_updates_per_refactor,
        ));
    }
    if let Some(obj) = &perf.objectives {
        sink.result(&format!(
            "objective zoo (mesh x{}, {} fake edges): {}/{} objectives solved; \
             min-MLU envelope {:.3} >= max single-TM {:.3}, drift {:.1} rounds/sec \
             at warm hit rate {:.0}%",
            obj.scale_factor,
            obj.fake_edges,
            obj.arms.iter().filter(|a| a.solved).count(),
            obj.arms.len(),
            obj.min_mlu.envelope_mlu,
            obj.min_mlu.max_single_tm_mlu,
            obj.min_mlu.rounds_per_sec,
            100.0 * obj.min_mlu.warm_hit_rate,
        ));
    }
    let fleet = rwc_bench::perf::fleet_perf(scale);
    sink.result(&format!(
        "fleet analysis ({} links, {} threads): fused {:.1} links/sec, \
         {:.2e} samples/sec, {} bytes allocated",
        fleet.fused.links,
        fleet.n_threads,
        fleet.fused.links_per_sec,
        fleet.fused.samples_per_sec,
        fleet.fused.alloc_bytes,
    ));
    sink.result(&format!(
        "generation only ({} links, 1 thread): legacy {:.2e} samples/sec -> batch {:.2e} \
         samples/sec ({:.2}x)",
        fleet.generation.legacy.links,
        fleet.generation.legacy.samples_per_sec,
        fleet.generation.batch.samples_per_sec,
        fleet.generation.speedup,
    ));
    if let Err(e) = std::fs::create_dir_all(out_dir) {
        sink.error(&format!("cannot create {}: {e}", out_dir.display()));
        return ExitCode::FAILURE;
    }
    for (name, json) in
        [("BENCH_scenario.json", perf.to_json()), ("BENCH_fleet.json", fleet.to_json())]
    {
        let path = out_dir.join(name);
        if let Err(e) = std::fs::write(&path, json + "\n") {
            sink.error(&format!("cannot write {}: {e}", path.display()));
            return ExitCode::FAILURE;
        }
        sink.progress(&format!("  -> {}", path.display()));
    }
    if let Some(baseline_path) = baseline {
        // Typed baseline loading: a missing artifact (exit 3) and a stale
        // or truncated schema (exit 4) are different CI escalations than a
        // genuine perf regression (exit 5).
        let baseline = match PerfBaseline::load(baseline_path) {
            Ok(b) => b,
            Err(e) => {
                sink.error(&e.to_string());
                return ExitCode::from(cli::perf_exit_code(&e));
            }
        };
        if let Err(e) = perf.check_against_baseline(&baseline.scenario) {
            sink.error(&e);
            return ExitCode::from(cli::EXIT_PERF_REGRESSION);
        }
        if let Err(e) = fleet.check_against_baseline(&baseline.fleet) {
            sink.error(&e);
            return ExitCode::from(cli::EXIT_PERF_REGRESSION);
        }
        sink.result(&format!(
            "perf gate: {:.1} rounds/sec clears baseline floor {:.1}; \
             {:.1} links/sec clears baseline floor {:.1}",
            perf.incremental.rounds_per_sec,
            baseline.scenario.incremental.rounds_per_sec / 2.0,
            fleet.fused.links_per_sec,
            baseline.fleet.fused.links_per_sec / 2.0,
        ));
    }
    ExitCode::SUCCESS
}
