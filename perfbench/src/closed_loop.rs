//! `closed_loop`: `Scenario::run` over a faulted, near-threshold fleet.
//!
//! `builders::scaled_mesh(2)` (33 links, grouped three to a fiber
//! segment), a fleet whose fiber baselines sit at 12.8 dB as in the SRLG
//! campaign, and that campaign's fault recipe: per-link BVT faults plus
//! amplifier-span SRLG outages, no TE or telemetry faults. Hourly TE
//! rounds with one warm exact `TeSolver` behind the incremental engine,
//! make-before-break on, over [`HORIZON`] (1,080 rounds, so the p99 has
//! ten rounds beyond it). The fault plan stays in: `FaultInjector` scans
//! every plan event on every per-link query, and that cost is part of
//! what this workload measures.
//!
//! Runs cycle through [`VARIANTS`] input variants derived from the workload
//! seed. The round p99 depends on the demand volumes, so it is pooled over
//! several of them rather than decided by one draw.

use crate::stats::{failed_share, median, percentile, tail_percentile};
use crate::te_plan::exact_solver;
use crate::trace::{TimedTe, Tracer};
use crate::{derive_seed, peak_rss_mb, Outcome};
use rwc_core::prelude::*;
use rwc_core::{augment, AugmentConfig, ScenarioTiming};
use rwc_faults::{FaultInjector, FaultPlan, FaultPlanConfig, TelemetryFault};
use rwc_te::{DemandMatrix, Priority, TeAlgorithm};
use rwc_telemetry::{FleetConfig, FleetGenerator};
use rwc_topology::builders;
use std::time::{Duration, Instant};

/// Simulated span of one run: 45 days of hourly rounds.
pub const HORIZON: SimDuration = SimDuration::from_days(45);
/// Links sharing one fiber segment (one amplifier chain).
const LINKS_PER_SEGMENT: usize = 3;
/// The SRLG campaign's fault-plan seed.
const FAULT_PLAN_SEED: u64 = 0x5A16;
/// Input variants a measurement cycles through.
pub const VARIANTS: usize = 4;
/// Runs per measurement, at least: every variant runs twice, and its two
/// reports must serialise byte-identically.
const MIN_RUNS: usize = 2 * VARIANTS;

/// The input seed of variant `v` (below [`VARIANTS`]) of a workload seed.
pub fn variant_seed(seed: u64, v: usize) -> u64 {
    derive_seed(seed, 0xC1_10 + v as u64)
}

/// The generated inputs of one closed-loop run.
#[derive(Debug, Clone)]
pub struct Inputs {
    /// Topology with its fiber-segment map.
    pub wan: WanTopology,
    /// Telemetry fleet: stream `i` feeds WAN link `i`.
    pub fleet: FleetConfig,
    /// Cross-replica demands at diurnal scale 1.
    pub demands: DemandMatrix,
    /// The fault schedule.
    pub plan: FaultPlan,
    /// Seed of the network's stochastic parts (BVT latencies).
    pub network_seed: u64,
}

/// Generates the inputs: BVT latencies and demand volumes derive from the
/// workload seed; topology, telemetry, demand pairs and the fault schedule
/// (the SRLG campaign's recipe and seed) are fixed.
pub fn inputs(seed: u64) -> Inputs {
    let mut wan = builders::scaled_mesh(2, 500.0);
    let n_links = wan.n_links();
    for l in 0..n_links {
        wan.link_mut(LinkId(l)).fiber_id = l / LINKS_PER_SEGMENT;
    }
    let fiber_of_link: Vec<usize> = wan.links().map(|(_, link)| link.fiber_id).collect();
    let fleet = FleetConfig {
        n_fibers: n_links.div_ceil(LINKS_PER_SEGMENT),
        wavelengths_per_fiber: LINKS_PER_SEGMENT,
        horizon: HORIZON + SimDuration::from_days(1),
        fiber_baseline_mean_db: 12.8,
        fiber_baseline_sd_db: 0.3,
        wavelength_jitter_sd_db: 0.4,
        ..FleetConfig::paper()
    };
    // Cross-replica demand beyond the three 100 G cross links, so rounds
    // keep asking for upgrades; volumes jitter ±10% with the seed.
    let mut rng = rwc_util::rng::Xoshiro256::seed_from_u64(derive_seed(seed, 0xC1_02));
    let node = |name: &str| wan.node_by_name(name).expect("scaled mesh site");
    let mut demands = DemandMatrix::new();
    for (from, to, gbps) in [
        ("S0-3", "S1-4", 120.0),
        ("S0-4", "S1-5", 120.0),
        ("S1-3", "S0-5", 120.0),
        ("S0-5", "S0-1", 80.0),
        ("S1-2", "S1-5", 80.0),
    ] {
        demands.add(
            node(from),
            node(to),
            Gbps(gbps * rng.uniform_in(0.9, 1.1)),
            Priority::Elastic,
        );
    }
    let plan = FaultPlanConfig {
        n_links,
        horizon: HORIZON,
        bvt_rate_per_link_day: 1.5,
        bvt_mean_duration: SimDuration::from_hours(8),
        telemetry_rate_per_link_day: 0.0,
        te_rate_per_day: 0.0,
        amplifier_rate_per_fiber_day: 0.25,
        amplifier_mean_duration: SimDuration::from_hours(2),
        amplifier_mean_severity_db: 14.0,
        fiber_of_link,
        seed: FAULT_PLAN_SEED,
        ..FaultPlanConfig::default()
    }
    .generate();
    Inputs {
        wan,
        fleet,
        demands,
        plan,
        network_seed: derive_seed(seed, 0xC1_04),
    }
}

fn build(seed: u64) -> Scenario {
    let inputs = inputs(seed);
    let config = ScenarioConfig {
        fault_plan: Some(inputs.plan),
        make_before_break: true,
        seed: inputs.network_seed,
        ..ScenarioConfig::default()
    };
    Scenario::builder(inputs.wan, inputs.fleet, inputs.demands)
        .config(config)
        .build()
        .expect("closed-loop wiring is valid")
}

/// Builds a scenario, recording the build time as a set-up sample.
fn timed_build(seed: u64, setup: &mut Vec<f64>) -> Scenario {
    let t0 = Instant::now();
    let scenario = build(seed);
    setup.push(t0.elapsed().as_secs_f64());
    scenario
}

/// One scenario run: its report, timing sidecar and wall time.
struct Run {
    report: Result<ScenarioReport, RwcError>,
    timing: ScenarioTiming,
    wall: Duration,
    scenario: Scenario,
}

fn run_once(mut scenario: Scenario, algo: &dyn TeAlgorithm) -> Run {
    let t0 = Instant::now();
    let report = scenario.run(HORIZON, algo);
    let wall = t0.elapsed();
    let timing = scenario.last_timing().cloned().unwrap_or_default();
    Run {
        report,
        timing,
        wall,
        scenario,
    }
}

fn serialise(report: &ScenarioReport) -> String {
    serde_json::to_string(report).expect("scenario report serialises")
}

/// Runs the scenario until `seconds` have passed (at least [`MIN_RUNS`]
/// runs, cycling through the variants in whole cycles, so every variant
/// weighs the same in the pooled rounds); a traced run adds one run of
/// variant 0 with spans on, whose report must match the untraced ones of
/// that variant byte for byte.
pub fn run(seed: u64, seconds: f64, traced: bool) -> Outcome {
    let mut out = Outcome::default();
    let expected_rounds = HORIZON.ticks(ScenarioConfig::default().te_interval);
    let seeds: Vec<u64> = (0..VARIANTS).map(|v| variant_seed(seed, v)).collect();
    let mut setup = Vec::new();
    let mut references: Vec<Option<String>> = vec![None; VARIANTS];
    let mut round_ms = Vec::new();
    let mut wall = Duration::ZERO;
    // Wall time of the runs of variant 0, which the traced run repeats.
    let mut variant0_walls = Vec::new();
    let mut runs = 0;
    while runs < MIN_RUNS || runs % VARIANTS != 0 || wall.as_secs_f64() < seconds {
        let v = runs % VARIANTS;
        let scenario = timed_build(seeds[v], &mut setup);
        let solver = exact_solver();
        let run = run_once(scenario, &solver);
        runs += 1;
        out.attempted += expected_rounds;
        match &run.report {
            Err(e) => {
                out.failed += expected_rounds;
                out.notes
                    .push(format!("failed: closed_loop run {runs}: {e}"));
            }
            Ok(report) => {
                out.failed += report.samples.iter().filter(|s| s.te_fallback).count() as u64;
                let json = serialise(report);
                let first = references[v].get_or_insert_with(|| json.clone());
                out.check(*first == json, || {
                    format!("run {runs}: report differs from the first run of variant {v}")
                });
                out.check(report.samples.len() as u64 == expected_rounds, || {
                    format!(
                        "run {runs}: {} rounds, expected {expected_rounds}",
                        report.samples.len()
                    )
                });
            }
        }
        round_ms.extend(run.timing.solve_micros.iter().map(|&us| us as f64 / 1e3));
        wall += run.wall;
        if v == 0 {
            variant0_walls.push(run.wall);
        }
    }

    let rounds = round_ms.len() as f64;
    out.end_to_end.insert("setup_s", median(&setup));
    out.end_to_end.insert("peak_rss_mb", peak_rss_mb());
    out.end_to_end
        .insert("decisions_per_s", rounds / wall.as_secs_f64());
    out.end_to_end.insert("decision_ms", median(&round_ms));
    match tail_percentile(&round_ms, 0.99) {
        Ok(p99) => {
            out.end_to_end.insert("decision_ms_tail", p99);
        }
        Err(e) => out.check(false, || format!("round_ms_p99: {e}")),
    }
    out.notes.push(format!(
        "closed_loop: rounds_per_s = {:.3}, round_ms_p50 = {:.4} ms, round_ms_p99 = {:.4} ms \
         (n={rounds}, {runs} runs of {VARIANTS} input variants in {:.3} s)",
        rounds / wall.as_secs_f64(),
        median(&round_ms),
        percentile(&round_ms, 0.99),
        wall.as_secs_f64()
    ));
    out.notes.push(format!(
        "closed_loop: failed_share = {} ({} of {} rounds fell back)",
        failed_share(out.attempted, out.failed),
        out.failed,
        out.attempted
    ));

    if traced {
        let untraced = variant0_walls.iter().sum::<Duration>() / variant0_walls.len() as u32;
        traced_run(
            seeds[0],
            build(seeds[0]),
            untraced,
            references[0].as_deref(),
            &mut out,
        );
    }
    out
}

fn traced_run(
    seed: u64,
    scenario: Scenario,
    untraced: Duration,
    reference: Option<&str>,
    out: &mut Outcome,
) {
    let tracer = Tracer::new(true);
    let solver = exact_solver();
    let timed = TimedTe {
        inner: &solver,
        tracer: &tracer,
        span: "te.exact.solve",
    };
    let run = run_once(scenario, &timed);
    match &run.report {
        Ok(report) => {
            out.check(reference == Some(serialise(report).as_str()), || {
                "traced run's report differs from the untraced runs".into()
            });
            out.layer("controller.flaps", report.flaps as f64);
            out.layer("controller.hard_downs", report.hard_downs as f64);
            out.layer("controller.failed_changes", report.failed_changes as f64);
            out.layer(
                "controller.rolled_back_changes",
                report.rolled_back_changes as f64,
            );
            out.layer("controller.retries", f64::from(report.retries));
            out.layer("controller.quarantines", report.quarantines as f64);
            let faults_ms = replay_fault_queries(seed, report.outage_link_ticks);
            let round_ms = run.timing.total_solve_micros() as f64 / 1e3;
            let tick_ms = run.timing.wall_micros as f64 / 1e3 - round_ms;
            out.layer("faults.query_ms", faults_ms);
            out.layer("core.te_round_ms", round_ms);
            out.layer("core.tick_ms", tick_ms);
            out.layer("controller.tick_self_ms", tick_ms - faults_ms);
        }
        Err(e) => out.check(false, || format!("traced run failed: {e}")),
    }
    out.layer("te.exact.solve_ms", tracer.ms("te.exact.solve"));
    out.layer("te.exact.calls", tracer.calls("te.exact.solve") as f64);
    let lp = solver.warm_stats().unwrap_or_default();
    crate::lp_layer(&lp, tracer.ms("te.exact.solve"), out);
    let aug = run.scenario.network().augment_stats();
    out.layer("core.augment_full_rebuilds", aug.full_rebuilds as f64);
    out.layer("core.augment_in_place_patches", aug.in_place_patches as f64);
    out.layer("core.augment_suffix_rebuilds", aug.suffix_rebuilds as f64);
    out.layer("core.augment_dirty_links", aug.dirty_links as f64);

    // Size of the round LP at the start of the run: the augmented problem
    // over the initial topology, lowered as the exact solver lowers it.
    let inputs = inputs(seed);
    let initial = augment(&inputs.wan, &inputs.demands, &AugmentConfig::default(), &[]);
    out.layer("core.fake_edges", initial.fake_edges.len() as f64);
    let lp = solver
        .formulation()
        .lower(&initial.problem)
        .expect("max-throughput lowers")
        .sparse_lp();
    out.layer("lp.cols", lp.n_vars() as f64);
    out.layer("lp.rows", lp.n_rows() as f64);

    telemetry_layer(&inputs.fleet, out);

    let wall_ms = run.wall.as_secs_f64() * 1e3;
    let attributed = run.timing.wall_micros as f64 / 1e3;
    crate::trace_layer(wall_ms, Some(attributed), untraced, out);
}

/// Replays the `FaultInjector` queries `Scenario::run` makes over the same
/// plan: per tick and link the optical penalty, telemetry-fault lookup,
/// reading filter and BVT-fault lookup, plus one correlated-outage lookup
/// per outage link-tick and the TE-fault lookup per round. Outage lookups
/// are issued in tick order, one per link, since the run does not expose
/// which links were down when; each costs one scan of the plan either
/// way. The injector is
/// stateless, so the replay does the run's fault work; returns its
/// milliseconds.
fn replay_fault_queries(seed: u64, outage_link_ticks: usize) -> f64 {
    let inputs = inputs(seed);
    let fibers: Vec<usize> = inputs.wan.links().map(|(_, link)| link.fiber_id).collect();
    let n_links = fibers.len();
    let injector = FaultInjector::with_fibers(inputs.plan, fibers);
    let tick = inputs.fleet.tick;
    let n_ticks = HORIZON.ticks(tick) as usize;
    let mut frozen: Vec<Option<Db>> = vec![None; n_links];
    let te_every = (ScenarioConfig::default().te_interval.as_millis() / tick.as_millis()) as usize;
    let mut outage_budget = outage_link_ticks;
    let t0 = Instant::now();
    for i in 0..n_ticks {
        let now = SimTime::EPOCH + tick * i as u64;
        if i % te_every == 0 {
            std::hint::black_box(injector.te_fault(now));
        }
        for (l, frozen) in frozen.iter_mut().enumerate() {
            let link = LinkId(l);
            let raw = Db(-injector.optical_penalty_db(link, now));
            match injector.telemetry_fault(link, now) {
                Some(TelemetryFault::FreezeReadings) => {
                    frozen.get_or_insert(raw);
                }
                _ => *frozen = None,
            }
            std::hint::black_box(injector.observe(link, raw, *frozen, now));
        }
        for l in 0..n_links {
            std::hint::black_box(injector.bvt_fault(LinkId(l), now));
        }
        for l in 0..n_links.min(outage_budget) {
            std::hint::black_box(injector.correlated_active(LinkId(l), now));
        }
        outage_budget -= n_links.min(outage_budget);
    }
    t0.elapsed().as_secs_f64() * 1e3
}

/// Times generation and analysis of every link of the fleet, in its
/// generation mode, outside the scenario.
fn telemetry_layer(fleet: &FleetConfig, out: &mut Outcome) {
    let gen = FleetGenerator::new(fleet.clone());
    let table = ScenarioConfig::default().controller.table;
    crate::telemetry_layer(&gen, 0..gen.n_links(), &table, out);
}
