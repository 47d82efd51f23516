//! Machine-readable performance digest of the scenario round engine —
//! the payload behind `repro --bench-json` and the CI perf-smoke gate.
//!
//! Four arms of the *same* week-in-the-life scenario:
//!
//! | arm           | round engine            | TE solver            |
//! |---------------|-------------------------|----------------------|
//! | `full`        | rebuild everything      | SWAN (stateless)     |
//! | `incremental` | dirty-link + memo       | SWAN (stateless)     |
//! | `exact_cold`  | rebuild everything      | exact LP, cold       |
//! | `exact_warm`  | dirty-link + memo       | exact LP, warm-start |
//!
//! The SWAN pair must produce **byte-identical** reports (the incremental
//! engine is an optimisation, not an approximation) and is where the
//! headline `solve_speedup` comes from. The exact pair exercises the
//! warm-started flat simplex: objectives agree to solver tolerance, so
//! the digest reports the worst per-round throughput delta alongside the
//! warm-start hit rate.
//!
//! Timing lives in [`ScenarioTiming`] sidecars and never in the reports
//! themselves, so the determinism comparisons stay meaningful.

use crate::Scale;
use rwc_core::scenario::{Scenario, ScenarioConfig, ScenarioReport, ScenarioTiming};
use rwc_te::demand::{DemandMatrix, Priority};
use rwc_te::problem::TeProblem;
use rwc_te::swan::SwanTe;
use rwc_te::{TeAlgorithm, TeFormulation, TeObjective, TeSolver, WarmStartPolicy};
use rwc_telemetry::FleetConfig;
use rwc_topology::builders;
use rwc_topology::wan::{LinkId, WanTopology};
use rwc_util::time::SimDuration;
use rwc_util::units::Gbps;
use serde::{Deserialize, Serialize};
use std::time::Instant;

/// Timing digest of one scenario arm.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ArmPerf {
    /// TE rounds the arm completed.
    pub rounds: u64,
    /// Rounds per wall-clock second over the whole run.
    pub rounds_per_sec: f64,
    /// Median per-round solve time (static baseline + augmentation +
    /// augmented solve), microseconds.
    pub solve_p50_micros: u64,
    /// 99th-percentile per-round solve time, microseconds.
    pub solve_p99_micros: u64,
    /// Total microseconds spent in TE solves.
    pub total_solve_micros: u64,
}

impl ArmPerf {
    fn from_timing(t: &ScenarioTiming) -> Self {
        Self {
            rounds: t.solve_micros.len() as u64,
            rounds_per_sec: t.rounds_per_sec(),
            solve_p50_micros: t.solve_percentile_micros(0.50),
            solve_p99_micros: t.solve_percentile_micros(0.99),
            total_solve_micros: t.total_solve_micros(),
        }
    }
}

/// The `BENCH_scenario.json` payload.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ScenarioPerf {
    /// Experiment id (always `"scenario"`).
    pub experiment: String,
    /// `"quick"` or `"full"`.
    pub scale: String,
    /// Full-rebuild engine, SWAN solver.
    pub full: ArmPerf,
    /// Incremental engine, SWAN solver.
    pub incremental: ArmPerf,
    /// `full.total_solve_micros / incremental.total_solve_micros`.
    pub solve_speedup: f64,
    /// Whether the SWAN pair's reports serialized byte-identically.
    pub reports_identical: bool,
    /// Full-rebuild engine, cold exact LP.
    pub exact_cold: ArmPerf,
    /// Incremental engine, warm-started exact LP.
    pub exact_warm: ArmPerf,
    /// `exact_cold.total_solve_micros / exact_warm.total_solve_micros`.
    pub exact_solve_speedup: f64,
    /// Warm starts attempted by the incremental exact arm.
    pub warm_attempts: u64,
    /// Warm starts that reached optimality without a cold fallback.
    pub warm_hits: u64,
    /// `warm_hits / warm_attempts` in `[0, 1]`.
    pub warm_hit_rate: f64,
    /// Worst per-round |warm − cold| throughput difference (Gbps) between
    /// the exact arms — bounded by LP tolerance, not zero, because warm
    /// and cold may land on different optimal vertices.
    pub max_throughput_delta: f64,
    /// Large-topology TE stage: the sparse LP on a `--scale`-multiplied
    /// replicated mesh. `Option` so baselines from before the stage
    /// existed still parse (the shim reads a missing field as `None`).
    pub large_te: Option<LargeTePerf>,
    /// Objective-zoo stage: every [`TeObjective`] solved on the augmented
    /// scaled mesh, plus the min-MLU envelope/drift sub-stage. `Option`
    /// for the same baseline-compatibility reason as `large_te`.
    pub objectives: Option<ObjectivesPerf>,
}

/// The solve arm of the [`LargeTePerf`] stage.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct LargeTeArm {
    /// Drifted TE rounds solved.
    pub rounds: u64,
    /// Rounds per second of pure solve time (cold first round included).
    pub rounds_per_sec: f64,
    /// Median per-round solve time, microseconds.
    pub solve_p50_micros: u64,
    /// 99th-percentile per-round solve time, microseconds.
    pub solve_p99_micros: u64,
    /// Total microseconds across all rounds.
    pub total_solve_micros: u64,
}

/// The `large_te` stage of `BENCH_scenario.json`: a drifting sequence of
/// exact TE rounds on a replicated-mesh topology
/// ([`builders::scaled_mesh`]), solved by one warm-started [`TeSolver`].
/// The perf gate floors `sparse.rounds_per_sec` at half the committed
/// baseline.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct LargeTePerf {
    /// Mesh replication factor used for this run.
    pub scale_factor: u64,
    /// Directed TE edges of the composite topology.
    pub links: u64,
    /// Commodities in the demand matrix.
    pub commodities: u64,
    /// Structural columns of the lowered sparse LP.
    pub lp_cols: u64,
    /// Constraint rows of the lowered sparse LP (capacities are bounds
    /// for single-commodity programs and rows otherwise).
    pub lp_rows: u64,
    /// The sparse revised-simplex solve arm.
    pub sparse: LargeTeArm,
    /// Mean product-form eta updates between basis refactorisations —
    /// the refactorisation-policy health metric.
    pub eta_updates_per_refactor: f64,
}

fn percentile_micros(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let idx = ((sorted.len() as f64 - 1.0) * q).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

fn large_te_arm(rounds: &[TeProblem]) -> (LargeTeArm, rwc_lp::SolverStats) {
    let te = TeSolver::default();
    let mut micros: Vec<u64> = Vec::with_capacity(rounds.len());
    for p in rounds {
        let t0 = Instant::now();
        let sol = te.try_solve(p).expect("large TE round solves");
        std::hint::black_box(sol.total);
        micros.push(t0.elapsed().as_micros().max(1) as u64);
    }
    let total: u64 = micros.iter().sum();
    micros.sort_unstable();
    let arm = LargeTeArm {
        rounds: rounds.len() as u64,
        rounds_per_sec: rounds.len() as f64 / (total as f64 / 1e6),
        solve_p50_micros: percentile_micros(&micros, 0.50),
        solve_p99_micros: percentile_micros(&micros, 0.99),
        total_solve_micros: total,
    };
    (arm, te.warm_stats().unwrap_or_default())
}

/// The large-topology TE instance: a replicated mesh at the scale's
/// replication factor, one cross-replica commodity per replica plus an
/// end-to-end long haul.
fn large_te_instance(factor: usize) -> (WanTopology, DemandMatrix) {
    let wan = builders::scaled_mesh(factor, 500.0);
    let pick = |name: String| wan.node_by_name(&name).expect("scaled mesh site");
    let mut dm = DemandMatrix::new();
    // One cross-replica commodity per stride-spaced replica, at most 8:
    // columns grow as edges × commodities, so the commodity count must
    // stay bounded for the ≥10k-edge scales to remain about topology
    // size, not LP blow-up.
    let stride = factor.div_ceil(8).max(1);
    for i in (0..factor).step_by(stride) {
        let s = pick(format!("S{i}-{}", 3 + (i % 3)));
        let t = pick(format!("S{}-4", (i + 1) % factor));
        if s != t {
            dm.add(s, t, Gbps(60.0), Priority::Elastic);
        }
    }
    if factor > 1 {
        // End-to-end long haul across all replicas (self-demand at x1).
        let (s, t) = (pick("S0-5".into()), pick(format!("S{}-5", factor - 1)));
        dm.add(s, t, Gbps(80.0), Priority::Elastic);
    }
    (wan, dm)
}

/// Runs the large-topology TE stage: [`large_te_instance`] with its
/// capacities drifting every round.
pub fn large_te_perf(scale: Scale) -> LargeTePerf {
    let factor = match scale {
        Scale::Quick => 6,
        Scale::Full => 10,
        Scale::Scaled(n) => (n as usize).max(1),
    };
    let (wan, dm) = large_te_instance(factor);
    let base = TeProblem::from_wan(&wan, &dm);
    const ROUNDS: usize = 6;
    let rounds: Vec<TeProblem> = (0..ROUNDS)
        .map(|round| {
            let mut p = base.clone();
            for l in 0..wan.n_links() {
                // Deterministic ±9% capacity drift.
                let phase = (round * (l + 3)) % 7;
                let factor = 0.91 + 0.03 * phase as f64;
                p.override_link_capacity(LinkId(l), wan.link(LinkId(l)).capacity().value() * factor);
            }
            p
        })
        .collect();
    let lowered = TeFormulation::default()
        .lower(&base)
        .expect("max-throughput lowering is always valid")
        .sparse_lp();
    let (sparse, sparse_stats) = large_te_arm(&rounds);
    LargeTePerf {
        scale_factor: factor as u64,
        links: base.net.n_edges() as u64,
        commodities: base.commodities.len() as u64,
        lp_cols: lowered.n_vars() as u64,
        lp_rows: lowered.n_rows() as u64,
        eta_updates_per_refactor: if sparse_stats.refactorizations == 0 {
            0.0
        } else {
            sparse_stats.eta_updates as f64 / sparse_stats.refactorizations as f64
        },
        sparse,
    }
}

/// One objective's arm of the [`ObjectivesPerf`] stage: the lowered
/// problem solved once, reported by the objective's headline value (total
/// throughput, MLU, or the concurrency factor λ). Agreement with the
/// dense reference is the `backends_agree_on_every_objective` test's job.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ObjectiveArm {
    /// The formulation's algorithm name (e.g. `"exact-lp:min-mlu"`).
    pub objective: String,
    /// Whether the solve reached optimality.
    pub solved: bool,
    /// Headline value from the sparse revised simplex.
    pub sparse_headline: f64,
    /// Solve time, microseconds.
    pub sparse_solve_micros: u64,
}

/// The min-MLU sub-stage: envelope dominance plus warm-start behaviour
/// under rhs-only traffic-matrix drift (the `MinMlu` twin of the
/// max-throughput fast-resolve path).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MinMluPerf {
    /// Optimal MLU over the whole traffic-matrix envelope.
    pub envelope_mlu: f64,
    /// Max over the envelope's members of each single-TM optimal MLU.
    /// Must be `<= envelope_mlu + 1e-6`: routing that works for every
    /// matrix at once can never beat routing tuned to one matrix.
    pub max_single_tm_mlu: f64,
    /// Drift rounds solved.
    pub rounds: u64,
    /// Drift rounds per second of solve time — gated at half the
    /// committed baseline.
    pub rounds_per_sec: f64,
    /// Warm starts attempted across the drift rounds.
    pub warm_attempts: u64,
    /// Warm starts that reached optimality without a cold fallback.
    pub warm_hits: u64,
    /// `warm_hits / warm_attempts` in `[0, 1]`.
    pub warm_hit_rate: f64,
}

/// The `objectives` stage of `BENCH_scenario.json`: the whole
/// [`TeObjective`] zoo on one augmented scaled-mesh instance (fake
/// upgrade edges included, so the unsplittable gadget and the reduction
/// readout have real work to do).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ObjectivesPerf {
    /// Mesh replication factor used for this stage.
    pub scale_factor: u64,
    /// Commodities in the demand matrix.
    pub commodities: u64,
    /// Fake upgrade edges the augmentation injected.
    pub fake_edges: u64,
    /// One arm per objective, in declaration order.
    pub arms: Vec<ObjectiveArm>,
    /// Whether every arm solved.
    pub all_solved: bool,
    /// The min-MLU envelope/drift sub-stage.
    pub min_mlu: MinMluPerf,
}

/// Headline value of a solve under an objective: total throughput, the
/// MLU, or the concurrency factor λ.
fn headline(objective: &TeObjective, solve: &rwc_te::TeSolve) -> f64 {
    match objective {
        TeObjective::MinMlu { .. } => solve.mlu.expect("min-MLU solve reports MLU"),
        TeObjective::MaxConcurrentFlow => solve.lambda.expect("concurrent solve reports lambda"),
        _ => solve.solution.total,
    }
}

fn timed_solve(solver: &TeSolver, problem: &TeProblem) -> (Option<rwc_te::TeSolve>, u64) {
    let t0 = Instant::now();
    let solve = solver.solve_detailed(problem).ok();
    (solve, t0.elapsed().as_micros().max(1) as u64)
}

/// Optimal MLU of one traffic-matrix set on `problem`.
fn min_mlu_of(problem: &TeProblem, traffic_matrices: Vec<Vec<f64>>) -> f64 {
    let solver = TeSolver::builder()
        .objective(TeObjective::MinMlu { traffic_matrices })
        .build()
        .expect("min-MLU solver config is valid");
    let solve = solver.solve_detailed(problem).expect("min-MLU instance solves");
    solve.mlu.expect("min-MLU solve reports MLU")
}

/// Runs the objective-zoo stage: augments the scaled mesh (some links get
/// SNR headroom so fake upgrade rungs exist), then solves every objective
/// on the augmented problem, plus the min-MLU envelope-dominance check
/// and warm-start drift sub-stage.
pub fn objectives_perf(scale: Scale) -> ObjectivesPerf {
    use rwc_core::{augment, AugmentConfig};
    use rwc_util::units::Db;

    let factor = match scale {
        Scale::Quick => 4,
        Scale::Full => 6,
        // Nine solves plus an eight-round drift run on one instance:
        // the stage stays small regardless of `--scale`.
        Scale::Scaled(n) => (n as usize).clamp(1, 8),
    };
    let (mut wan, dm) = large_te_instance(factor);
    // Alternate SNR so every third link has headroom for upgrade rungs
    // (same 7.5/13 dB split as the Fig. 7 worked example): the gadget and
    // the reduction readout need fake edges to be non-trivial.
    for l in 0..wan.n_links() {
        wan.set_snr(LinkId(l), if l % 3 == 0 { Db(13.0) } else { Db(7.5) });
    }
    let aug = augment(&wan, &dm, &AugmentConfig::default(), &[]);
    let problem = &aug.problem;
    let fake_edges = problem
        .origins
        .iter()
        .filter(|o| matches!(o, rwc_te::problem::EdgeOrigin::Fake { .. }))
        .count() as u64;

    // Traffic-matrix envelope for the MinMlu arms: the base demands plus
    // a peak-shifted and a scaled-down variant (per-commodity phase so
    // the matrices genuinely disagree about where load lands).
    let base_tm: Vec<f64> = problem.commodities.iter().map(|c| c.demand).collect();
    let k = base_tm.len();
    let tms: Vec<Vec<f64>> = (0..3)
        .map(|j| {
            (0..k)
                .map(|i| base_tm[i] * (0.7 + 0.15 * j as f64 + 0.1 * ((i + j) % 3) as f64))
                .collect()
        })
        .collect();

    let objectives = [
        TeObjective::MaxThroughput,
        TeObjective::MinMlu { traffic_matrices: tms.clone() },
        TeObjective::MaxConcurrentFlow,
        TeObjective::Unsplittable,
        TeObjective::CapacityReduction,
    ];
    let mut arms = Vec::with_capacity(objectives.len());
    for objective in &objectives {
        let solver = TeSolver::builder()
            .objective(objective.clone())
            .build()
            .expect("objective-zoo solver config is valid");
        let (solve, micros) = timed_solve(&solver, problem);
        arms.push(ObjectiveArm {
            objective: objective.algorithm_name().to_string(),
            solved: solve.is_some(),
            sparse_headline: solve.as_ref().map_or(f64::NAN, |s| headline(objective, s)),
            sparse_solve_micros: micros,
        });
    }
    let all_solved = arms.iter().all(|a| a.solved);

    // Envelope dominance: the envelope optimum must cover every member
    // matrix's own optimum.
    let envelope_mlu = min_mlu_of(problem, tms.clone());
    let max_single_tm_mlu = tms
        .iter()
        .map(|tm| min_mlu_of(problem, vec![tm.clone()]))
        .fold(0.0f64, f64::max);

    // Rhs-only TM drift: the same solver re-targeted each round via
    // `set_objective` (identical LP pattern, drifted demand rhs). This is
    // the MinMlu twin of the warm fast-resolve path.
    const DRIFT_ROUNDS: usize = 8;
    let drift_tms = |round: usize| -> Vec<Vec<f64>> {
        let scale = 0.75 + 0.03 * round as f64;
        tms.iter().map(|tm| tm.iter().map(|d| d * scale).collect()).collect()
    };
    let mut solver = TeSolver::builder()
        .objective(TeObjective::MinMlu { traffic_matrices: drift_tms(0) })
        .build()
        .expect("min-MLU solver config is valid");
    let mut drift_micros = 0u64;
    for round in 0..DRIFT_ROUNDS {
        solver
            .set_objective(TeObjective::MinMlu { traffic_matrices: drift_tms(round) })
            .expect("drifted traffic matrices stay valid");
        let t0 = Instant::now();
        solver.solve_detailed(problem).expect("drift round solves");
        drift_micros += t0.elapsed().as_micros().max(1) as u64;
    }
    let drift_stats = solver.warm_stats().unwrap_or_default();

    ObjectivesPerf {
        scale_factor: factor as u64,
        commodities: problem.commodities.len() as u64,
        fake_edges,
        arms,
        all_solved,
        min_mlu: MinMluPerf {
            envelope_mlu,
            max_single_tm_mlu,
            rounds: DRIFT_ROUNDS as u64,
            rounds_per_sec: DRIFT_ROUNDS as f64 / (drift_micros as f64 / 1e6),
            warm_attempts: drift_stats.warm_attempts,
            warm_hits: drift_stats.warm_hits,
            warm_hit_rate: drift_stats.warm_hit_rate(),
        },
    }
}

/// Builds the perf scenario: continental-scale Abilene rather than the
/// experiment's 5-link Fig. 7 example, because the round-engine
/// optimisations (warm simplex bases, dirty-link patching) only show
/// their worth once the augmented LP has real size. SNR baselines sit
/// comfortably above the rung thresholds so ladders keep their shape
/// most rounds — the regime warm starts are designed for.
fn perf_build(scale: Scale, full_rebuild: bool) -> (Scenario, SimDuration) {
    let wan = builders::abilene();
    let pick = |n: &str| wan.node_by_name(n).expect("abilene site");
    let mut dm = DemandMatrix::new();
    for (s, t) in
        [("SEA", "NYC"), ("LAX", "WDC"), ("SNV", "CHI"), ("DEN", "ATL"), ("KSC", "NYC"), ("HOU", "CHI")]
    {
        dm.add(pick(s), pick(t), Gbps(120.0), Priority::Elastic);
    }
    let horizon = match scale {
        Scale::Quick => SimDuration::from_days(7),
        Scale::Full | Scale::Scaled(_) => SimDuration::from_days(30),
    };
    let fleet = FleetConfig {
        n_fibers: 2,
        wavelengths_per_fiber: 7,
        horizon: horizon + SimDuration::from_days(1),
        fiber_baseline_mean_db: 14.5,
        fiber_baseline_sd_db: 0.1,
        wavelength_jitter_sd_db: 0.15,
        ..FleetConfig::paper()
    };
    let config = ScenarioConfig { full_rebuild, ..ScenarioConfig::default() };
    let scenario = Scenario::builder(wan, fleet, dm)
        .config(config)
        .build()
        .expect("perf scenario wiring is valid");
    (scenario, horizon)
}

fn run_arm(
    scale: Scale,
    full_rebuild: bool,
    algorithm: &dyn TeAlgorithm,
) -> (ScenarioReport, ScenarioTiming) {
    let (mut s, horizon) = perf_build(scale, full_rebuild);
    let report = s.run(horizon, algorithm).expect("perf scenario wiring is valid");
    let timing = s.last_timing().cloned().expect("run always records timing");
    (report, timing)
}

/// Runs the four arms (sequentially, so the timings aren't fighting each
/// other for cores) and assembles the digest.
pub fn scenario_perf(scale: Scale) -> ScenarioPerf {
    let (full_report, full_t) = run_arm(scale, true, &SwanTe::default());
    let (inc_report, inc_t) = run_arm(scale, false, &SwanTe::default());
    let cold_algo = TeSolver::builder()
        .warm_start(WarmStartPolicy::AlwaysCold)
        .build()
        .expect("default TE solver");
    let (cold_report, cold_t) = run_arm(scale, true, &cold_algo);
    let warm_algo = TeSolver::builder().build().expect("default TE solver");
    let (warm_report, warm_t) = run_arm(scale, false, &warm_algo);
    let stats = warm_algo.warm_stats().unwrap_or_default();

    let ratio = |num: u64, den: u64| if den == 0 { 0.0 } else { num as f64 / den as f64 };
    let max_throughput_delta = cold_report
        .samples
        .iter()
        .zip(&warm_report.samples)
        .map(|(c, w)| (c.throughput - w.throughput).abs())
        .fold(0.0f64, f64::max);

    ScenarioPerf {
        experiment: "scenario".into(),
        scale: scale.label(),
        solve_speedup: ratio(full_t.total_solve_micros(), inc_t.total_solve_micros()),
        reports_identical: serde_json::to_string(&full_report).expect("report serializes")
            == serde_json::to_string(&inc_report).expect("report serializes"),
        full: ArmPerf::from_timing(&full_t),
        incremental: ArmPerf::from_timing(&inc_t),
        exact_solve_speedup: ratio(cold_t.total_solve_micros(), warm_t.total_solve_micros()),
        exact_cold: ArmPerf::from_timing(&cold_t),
        exact_warm: ArmPerf::from_timing(&warm_t),
        warm_attempts: stats.warm_attempts,
        warm_hits: stats.warm_hits,
        warm_hit_rate: stats.warm_hit_rate(),
        max_throughput_delta,
        large_te: Some(large_te_perf(scale)),
        objectives: Some(objectives_perf(scale)),
    }
}

impl ScenarioPerf {
    /// Pretty JSON for `BENCH_scenario.json`.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("perf digest serializes")
    }

    /// Parses a digest (e.g. the committed baseline).
    pub fn from_json(s: &str) -> Result<Self, String> {
        serde_json::from_str(s).map_err(|e| e.to_string())
    }

    /// CI regression gate: errors when incremental-engine, large-TE or
    /// min-MLU drift throughput has collapsed to less than half the
    /// committed baseline. The 2× band absorbs runner-to-runner noise
    /// while still catching a lost optimisation (which shows up as
    /// ~5–10×).
    pub fn check_against_baseline(&self, baseline: &ScenarioPerf) -> Result<(), String> {
        let floor = baseline.incremental.rounds_per_sec / 2.0;
        if self.incremental.rounds_per_sec < floor {
            return Err(format!(
                "perf regression: incremental engine at {:.1} rounds/sec, \
                 below half the baseline {:.1}",
                self.incremental.rounds_per_sec, baseline.incremental.rounds_per_sec
            ));
        }
        if !self.reports_identical {
            return Err("incremental engine diverged from full rebuild".into());
        }
        if let (Some(lt), Some(base)) = (&self.large_te, &baseline.large_te) {
            let floor = base.sparse.rounds_per_sec / 2.0;
            if lt.sparse.rounds_per_sec < floor {
                return Err(format!(
                    "perf regression: sparse large-TE arm at {:.1} rounds/sec, \
                     below half the baseline {:.1}",
                    lt.sparse.rounds_per_sec, base.sparse.rounds_per_sec
                ));
            }
        }
        if let Some(obj) = &self.objectives {
            if !obj.all_solved {
                return Err("objective-zoo stage: not every objective solved".into());
            }
            if let Some(base) = &baseline.objectives {
                let floor = base.min_mlu.rounds_per_sec / 2.0;
                if obj.min_mlu.rounds_per_sec < floor {
                    return Err(format!(
                        "perf regression: min-MLU drift at {:.1} rounds/sec, \
                         below half the baseline {:.1}",
                        obj.min_mlu.rounds_per_sec, base.min_mlu.rounds_per_sec
                    ));
                }
            }
            if obj.min_mlu.max_single_tm_mlu > obj.min_mlu.envelope_mlu + 1e-6 {
                return Err(format!(
                    "objective-zoo stage: a single-TM optimum ({:.6}) beat the \
                     envelope optimum ({:.6}) — envelope dominance broken",
                    obj.min_mlu.max_single_tm_mlu, obj.min_mlu.envelope_mlu
                ));
            }
        }
        Ok(())
    }
}

/// Timing + allocation digest of one fleet-analysis or generation arm.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FleetArmPerf {
    /// Links analysed.
    pub links: u64,
    /// SNR samples generated and analysed (`links × ticks`).
    pub samples: u64,
    /// Wall-clock seconds for the sweep.
    pub elapsed_secs: f64,
    /// Links analysed per wall-clock second.
    pub links_per_sec: f64,
    /// Samples analysed per wall-clock second.
    pub samples_per_sec: f64,
    /// Bytes allocated during the sweep (allocation-counter proxy).
    pub alloc_bytes: u64,
    /// Allocation calls during the sweep.
    pub alloc_count: u64,
    /// Peak live heap bytes while the sweep ran — the RSS proxy.
    pub peak_live_bytes: u64,
}

/// Generation-only stage of the fleet digest: single-threaded trace
/// synthesis with no analysis attached, serial legacy generator vs the
/// counter-based batch pipeline (DESIGN.md §13). The tentpole target is
/// `speedup >= 5`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct GenerationPerf {
    /// Serial Xoshiro generation (the pre-batch path).
    pub legacy: FleetArmPerf,
    /// Counter-based blockwise generation.
    pub batch: FleetArmPerf,
    /// `legacy.elapsed_secs / batch.elapsed_secs`, single-threaded.
    pub speedup: f64,
}

/// The `BENCH_fleet.json` payload: the fused fleet analysis of the
/// scale's fleet, plus the generation-only legacy-vs-batch stage. Its
/// byte identity with the per-trace reference is pinned by the
/// `kernel_equivalence` suite, not measured here.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FleetPerf {
    /// Experiment id (always `"fleet"`).
    pub experiment: String,
    /// `"quick"`, `"full"`, or `"fleet_xN"`.
    pub scale: String,
    /// Worker threads used by the sweep.
    pub n_threads: u64,
    /// Fused single-pass kernel sweep.
    pub fused: FleetArmPerf,
    /// Generation-only stage, legacy vs batch.
    pub generation: GenerationPerf,
}

/// Times one fused parallel fleet sweep and its allocations.
pub fn fleet_arm(
    gen: &rwc_telemetry::FleetGenerator,
    table: &rwc_optics::ModulationTable,
    n_threads: usize,
) -> (rwc_telemetry::FleetAccumulator, FleetArmPerf) {
    let samples_per_link = gen.config().horizon.ticks(gen.config().tick);
    let started = std::time::Instant::now();
    let (acc, alloc) = crate::alloc::measure(|| {
        crate::parallel::parallel_fleet_analysis(gen, table, n_threads)
    });
    let elapsed = started.elapsed().as_secs_f64();
    let links = gen.n_links() as u64;
    let samples = links * samples_per_link;
    let perf = FleetArmPerf {
        links,
        samples,
        elapsed_secs: elapsed,
        links_per_sec: links as f64 / elapsed,
        samples_per_sec: samples as f64 / elapsed,
        alloc_bytes: alloc.bytes,
        alloc_count: alloc.count,
        peak_live_bytes: alloc.peak_live_bytes,
    };
    (acc, perf)
}

/// One single-threaded generation-only pass over the fleet: every link's
/// trace synthesised into a reused buffer, no analysis attached. The
/// generator's own [`rwc_telemetry::GenMode`] decides the path.
fn generation_arm(gen: &rwc_telemetry::FleetGenerator) -> FleetArmPerf {
    let samples_per_link = gen.config().horizon.ticks(gen.config().tick);
    let started = std::time::Instant::now();
    let (_, alloc) = crate::alloc::measure(|| {
        let mut scratch = rwc_telemetry::BatchScratch::default();
        let mut buf: Vec<f64> = Vec::new();
        let mut sink = 0.0f64;
        for link in 0..gen.n_links() {
            gen.generate_link_into(link, &mut scratch, &mut buf);
            sink += buf[buf.len() - 1];
        }
        sink
    });
    let elapsed = started.elapsed().as_secs_f64();
    let links = gen.n_links() as u64;
    let samples = links * samples_per_link;
    FleetArmPerf {
        links,
        samples,
        elapsed_secs: elapsed,
        links_per_sec: links as f64 / elapsed,
        samples_per_sec: samples as f64 / elapsed,
        alloc_bytes: alloc.bytes,
        alloc_count: alloc.count,
        peak_live_bytes: alloc.peak_live_bytes,
    }
}

/// Runs the generation-only pair (serial legacy vs counter-based batch,
/// both single-threaded on the same fleet) and assembles the stage.
pub fn generation_perf(cfg: FleetConfig) -> GenerationPerf {
    let legacy_gen = rwc_telemetry::FleetGenerator::new(cfg.clone());
    let batch_gen =
        rwc_telemetry::FleetGenerator::new(cfg).with_gen_mode(rwc_telemetry::GenMode::Batch);
    let legacy = generation_arm(&legacy_gen);
    let batch = generation_arm(&batch_gen);
    let speedup =
        if batch.elapsed_secs == 0.0 { 0.0 } else { legacy.elapsed_secs / batch.elapsed_secs };
    GenerationPerf { legacy, batch, speedup }
}

/// Runs the fused fleet sweep, plus the generation-only stage, and
/// assembles the digest.
pub fn fleet_perf(scale: Scale) -> FleetPerf {
    let gen = rwc_telemetry::FleetGenerator::new(scale.fleet());
    let table = rwc_optics::ModulationTable::paper_default();
    let n_threads = crate::parallel::default_workers();
    let (_, fused) = fleet_arm(&gen, &table, n_threads);
    FleetPerf {
        experiment: "fleet".into(),
        scale: scale.label(),
        n_threads: n_threads as u64,
        fused,
        generation: generation_perf(scale.fleet()),
    }
}

impl FleetPerf {
    /// Pretty JSON for `BENCH_fleet.json`.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("fleet digest serializes")
    }

    /// Parses a digest.
    pub fn from_json(s: &str) -> Result<Self, String> {
        serde_json::from_str(s).map_err(|e| e.to_string())
    }

    /// CI regression gate: errors when fused fleet throughput or batch
    /// generation throughput has fallen below half the committed
    /// baseline. Same 2× noise band as the scenario gate.
    pub fn check_against_baseline(&self, baseline: &FleetPerf) -> Result<(), String> {
        let floor = baseline.fused.links_per_sec / 2.0;
        if self.fused.links_per_sec < floor {
            return Err(format!(
                "perf regression: fused fleet analysis at {:.1} links/sec, \
                 below half the baseline {:.1}",
                self.fused.links_per_sec, baseline.fused.links_per_sec
            ));
        }
        let gen_floor = baseline.generation.batch.samples_per_sec / 2.0;
        if self.generation.batch.samples_per_sec < gen_floor {
            return Err(format!(
                "perf regression: batch generation at {:.3e} samples/sec, \
                 below half the baseline {:.3e}",
                self.generation.batch.samples_per_sec, baseline.generation.batch.samples_per_sec
            ));
        }
        Ok(())
    }
}

/// The committed `ci/perf_baseline.json`: one scenario digest plus one
/// fleet digest, gated together by `repro --bench-json --perf-baseline`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PerfBaseline {
    /// Round-engine baseline (PR 3 machinery).
    pub scenario: ScenarioPerf,
    /// Fleet-analysis baseline.
    pub fleet: FleetPerf,
}

/// Why a committed perf baseline could not be used. Distinguishing I/O
/// from schema trouble lets `repro` exit with distinct codes: a CI runner
/// that lost the artifact reads differently from a stale baseline format.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PerfError {
    /// The baseline file could not be read at all.
    Io {
        /// The offending path.
        path: String,
        /// The underlying I/O message.
        message: String,
    },
    /// The file read but is not a valid `PerfBaseline` (truncated mid-
    /// write, hand-edited, or produced by an incompatible revision).
    Schema {
        /// The offending path.
        path: String,
        /// What failed to parse.
        message: String,
    },
}

impl std::fmt::Display for PerfError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PerfError::Io { path, message } => {
                write!(f, "cannot read perf baseline {path}: {message}")
            }
            PerfError::Schema { path, message } => {
                write!(f, "perf baseline {path} does not parse: {message}")
            }
        }
    }
}

impl std::error::Error for PerfError {}

impl PerfBaseline {
    /// Pretty JSON for the committed baseline file.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("baseline serializes")
    }

    /// Parses the committed baseline file.
    pub fn from_json(s: &str) -> Result<Self, String> {
        serde_json::from_str(s).map_err(|e| e.to_string())
    }

    /// Loads the committed baseline, mapping every failure mode to a
    /// typed [`PerfError`] — a missing, truncated or schema-mismatched
    /// file becomes a clean nonzero exit in `repro`, never a panic.
    pub fn load(path: &std::path::Path) -> Result<Self, PerfError> {
        let shown = path.display().to_string();
        let text = std::fs::read_to_string(path)
            .map_err(|e| PerfError::Io { path: shown.clone(), message: e.to_string() })?;
        Self::from_json(&text).map_err(|message| PerfError::Schema { path: shown, message })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn baseline_load_maps_failure_modes_to_typed_errors() {
        // Missing file → Io.
        let missing = rwc_harness::unique_temp_path("perf_missing.json");
        match PerfBaseline::load(&missing) {
            Err(PerfError::Io { path, .. }) => assert!(path.contains("perf_missing")),
            other => panic!("expected Io, got {other:?}"),
        }

        // Truncated JSON → Schema.
        let committed = std::fs::read_to_string(
            std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../ci/perf_baseline.json"),
        )
        .expect("committed baseline exists");
        PerfBaseline::from_json(&committed).expect("committed baseline parses");
        let truncated_path = rwc_harness::unique_temp_path("perf_trunc.json");
        std::fs::write(&truncated_path, &committed[..committed.len() / 2]).unwrap();
        match PerfBaseline::load(&truncated_path) {
            Err(PerfError::Schema { .. }) => {}
            other => panic!("expected Schema for truncation, got {other:?}"),
        }
        std::fs::remove_file(&truncated_path).ok();

        // Valid JSON, wrong shape → Schema.
        let mismatched_path = rwc_harness::unique_temp_path("perf_shape.json");
        std::fs::write(&mismatched_path, r#"{"scenario": 3, "fleet": []}"#).unwrap();
        match PerfBaseline::load(&mismatched_path) {
            Err(PerfError::Schema { .. }) => {}
            other => panic!("expected Schema for shape mismatch, got {other:?}"),
        }
        std::fs::remove_file(&mismatched_path).ok();
    }

    #[test]
    fn fleet_digest_gates_and_round_trips() {
        let quick = Scale::Quick;
        // A reduced-quick fleet keeps this test fast: 2 fibers, 60 days.
        let mut cfg = quick.fleet();
        cfg.n_fibers = 2;
        cfg.horizon = rwc_util::time::SimDuration::from_days(60);
        let gen = rwc_telemetry::FleetGenerator::new(cfg.clone());
        let table = rwc_optics::ModulationTable::paper_default();
        // The allocation comparison against the reference path lives in
        // `tests/fleet_alloc.rs`, alone in its binary: the counting
        // allocator is process-global, so parallel tests would pollute it.
        let (fused_acc, fused) = fleet_arm(&gen, &table, 2);
        assert_eq!(fused.links, gen.n_links() as u64);
        assert_eq!(fused_acc.len(), gen.n_links());
        assert!(fused.links_per_sec > 0.0);
        let generation = generation_perf(cfg);
        assert_eq!(generation.legacy.samples, generation.batch.samples);
        assert!(generation.batch.samples_per_sec > 0.0);
        let perf = FleetPerf {
            experiment: "fleet".into(),
            scale: quick.label(),
            n_threads: 2,
            fused,
            generation,
        };
        let json = perf.to_json();
        let back = FleetPerf::from_json(&json).expect("digest parses back");
        assert_eq!(json, back.to_json(), "digest must round-trip");
        perf.check_against_baseline(&back).expect("self-comparison passes");
        let mut fast = back.clone();
        fast.fused.links_per_sec = perf.fused.links_per_sec * 10.0;
        assert!(perf.check_against_baseline(&fast).is_err());
        let mut gen_fast = perf.clone();
        gen_fast.generation.batch.samples_per_sec =
            perf.generation.batch.samples_per_sec * 10.0;
        assert!(perf.check_against_baseline(&gen_fast).is_err());
    }

    #[test]
    fn digest_round_trips_and_gates() {
        let perf = scenario_perf(Scale::Quick);
        assert!(perf.reports_identical, "incremental must match full rebuild");
        assert!(perf.full.rounds > 0 && perf.full.rounds == perf.incremental.rounds);
        assert!(perf.warm_attempts > 0, "warm arm never attempted a warm start");
        assert!(
            perf.warm_hit_rate > 0.5,
            "warm starts mostly missing: {:.2}",
            perf.warm_hit_rate
        );
        // Warm and cold exact solves agree to LP tolerance per round.
        assert!(
            perf.max_throughput_delta < 1e-3,
            "warm exact diverged from cold by {} Gbps",
            perf.max_throughput_delta
        );
        let json = perf.to_json();
        let back = ScenarioPerf::from_json(&json).expect("digest parses back");
        assert_eq!(json, back.to_json(), "digest must round-trip");
        // A digest always clears its own baseline.
        perf.check_against_baseline(&back).expect("self-comparison passes");
        // And a 10× faster baseline trips the gate, for every gated rate.
        let mut fast = back.clone();
        fast.incremental.rounds_per_sec = perf.incremental.rounds_per_sec * 10.0;
        assert!(perf.check_against_baseline(&fast).is_err());
        let mut fast_drift = back;
        let drift = &mut fast_drift.objectives.as_mut().expect("objectives stage").min_mlu;
        drift.rounds_per_sec *= 10.0;
        assert!(perf.check_against_baseline(&fast_drift).is_err());
    }
}
