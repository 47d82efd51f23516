//! `te_plan`: the `tput` sweep at the shape it really runs.
//!
//! All-pairs gravity matrices (330 / 396 / 720 commodities) on Abilene,
//! B4-like and Waxman-16 at loads 0.5–2.0. One *planning decision* is a
//! static solve, `augment`, an augmented solve and `translate`, made by
//! SWAN, B4 and CSPF on every topology, on matrices the workload seed
//! perturbs. The exact arm runs on Abilene and B4-like through one
//! `TeSolver` reused across the sweep in order (warm starts retained,
//! [`SOLVE_TIMEOUT`] watchdog), the way the round engine reuses it. It
//! plans on the `tput` matrices exactly: that sequence drives the
//! warm-start stall, so it is kept as a fixed fixture rather than drawn
//! from the seed. Closed loop, one thread.

use crate::stats::{failed_share, mean, median};
use crate::trace::Tracer;
use crate::{derive_seed, peak_rss_mb, Outcome, SOLVE_TIMEOUT};
use rwc_core::{augment, translate, AugmentConfig, PenaltyPolicy};
use rwc_te::b4::B4Te;
use rwc_te::cspf::CspfTe;
use rwc_te::swan::SwanTe;
use rwc_te::{DemandMatrix, TeAlgorithm, TeProblem, TeSolver, WarmStartPolicy};
use rwc_topology::random::{waxman, WaxmanConfig};
use rwc_topology::{builders, WanTopology};
use rwc_util::rng::Xoshiro256;
use rwc_util::units::Gbps;
use std::time::{Duration, Instant};

/// Demand multipliers swept per (topology, algorithm).
pub const LOADS: [f64; 4] = [0.5, 1.0, 1.5, 2.0];
/// Topologies the exact arm plans on (Waxman-16's 720-commodity exact
/// solves run into the watchdog on every decision).
const EXACT_TOPOLOGIES: usize = 2;
/// Set-up repetitions per run, half before and half after the sweeps;
/// their median is `setup_s`.
const SETUP_REPEATS: usize = 25;

/// One topology with its gravity matrices at load 1.0.
#[derive(Debug, Clone, PartialEq)]
pub struct Case {
    /// Topology name.
    pub topology: &'static str,
    /// The topology.
    pub wan: WanTopology,
    /// The `tput` experiment's all-pairs gravity matrix (total volume half
    /// the network's static capacity); the exact arm plans on it.
    pub gravity: DemandMatrix,
    /// `gravity` with every volume perturbed by the workload seed; SWAN,
    /// B4 and CSPF plan on it.
    pub base: DemandMatrix,
}

/// Gravity-mass seed of the `tput` experiment's matrices.
const GRAVITY_SEED: u64 = 11;
/// Largest relative change the workload seed makes to a demand volume.
const VOLUME_JITTER: f64 = 0.05;

/// The generated inputs: the `tput` experiment's gravity matrices, and
/// copies with each demand's volume scaled by a factor within
/// ±[`VOLUME_JITTER`] drawn from the workload seed.
pub fn inputs(seed: u64) -> Vec<Case> {
    let topologies = [
        ("abilene", builders::abilene()),
        ("b4-like", builders::b4_like()),
        (
            "waxman16",
            waxman(&WaxmanConfig {
                n_nodes: 16,
                seed: 5,
                ..Default::default()
            }),
        ),
    ];
    topologies
        .into_iter()
        .enumerate()
        .map(|(i, (topology, wan))| {
            let volume = Gbps(wan.total_capacity().value() * 0.5);
            let gravity = DemandMatrix::gravity(&wan, volume, GRAVITY_SEED);
            let mut rng = Xoshiro256::seed_from_u64(derive_seed(seed, 0x7E_00 + i as u64));
            let mut base = DemandMatrix::new();
            for d in gravity.demands() {
                let factor = rng.uniform_in(1.0 - VOLUME_JITTER, 1.0 + VOLUME_JITTER);
                base.add(d.from, d.to, d.volume * factor, d.priority);
            }
            Case {
                topology,
                wan,
                gravity,
                base,
            }
        })
        .collect()
}

/// One (topology, load) cell, ready to plan.
struct Cell {
    load: f64,
    demands: DemandMatrix,
    static_problem: TeProblem,
}

struct Prepared {
    topology: &'static str,
    wan: WanTopology,
    /// Cells of the heuristic arms.
    cells: Vec<Cell>,
    /// Cells of the exact arm (empty where it does not plan).
    exact_cells: Vec<Cell>,
}

fn prepare(seed: u64) -> Vec<Prepared> {
    inputs(seed)
        .into_iter()
        .enumerate()
        .map(|(t, case)| {
            let cells_of = |base: &DemandMatrix| -> Vec<Cell> {
                LOADS
                    .iter()
                    .map(|&load| {
                        let demands = base.scaled(load);
                        let static_problem = TeProblem::from_wan(&case.wan, &demands);
                        Cell {
                            load,
                            demands,
                            static_problem,
                        }
                    })
                    .collect()
            };
            let cells = cells_of(&case.base);
            let exact_cells = if t < EXACT_TOPOLOGIES {
                cells_of(&case.gravity)
            } else {
                Vec::new()
            };
            Prepared {
                topology: case.topology,
                wan: case.wan,
                cells,
                exact_cells,
            }
        })
        .collect()
}

fn augment_config() -> AugmentConfig {
    AugmentConfig {
        penalty: PenaltyPolicy::Uniform(1.0),
        ..Default::default()
    }
}

/// Builds the exact arm's solver: one per sweep, reused across it.
pub fn exact_solver() -> TeSolver {
    TeSolver::builder()
        .warm_start(WarmStartPolicy::Retain)
        .solve_timeout(SOLVE_TIMEOUT)
        .build()
        .expect("default exact configuration is valid")
}

/// Decision latencies and tallies of one or more sweeps.
#[derive(Default)]
struct Tally {
    /// Milliseconds per decision, by arm: swan, b4, cspf, exact.
    ms: [Vec<f64>; 4],
    attempted: u64,
    failed: u64,
    wall: Duration,
    fake_edges: u64,
    lp: rwc_lp::SolverStats,
}

const ARMS: [&str; 4] = ["swan", "b4", "cspf", "exact"];
const SOLVE_SPANS: [&str; 4] = [
    "te.swan.solve",
    "te.b4.solve",
    "te.cspf.solve",
    "te.exact.solve",
];

/// One planning decision; returns `false` when it failed.
fn decide(
    arm: usize,
    algo: &dyn TeAlgorithm,
    prepared: &Prepared,
    cell: &Cell,
    tracer: &Tracer,
    tally: &mut Tally,
    out: &mut Outcome,
) -> bool {
    let span = SOLVE_SPANS[arm];
    let what = || format!("{} {} load {}", ARMS[arm], prepared.topology, cell.load);
    let static_sol = match tracer.time(span, || algo.try_solve(&cell.static_problem)) {
        Ok(s) => s,
        Err(e) => {
            out.notes
                .push(format!("failed: {}: static solve: {e}", what()));
            return false;
        }
    };
    let aug = tracer.time("core.augment", || {
        augment(&prepared.wan, &cell.demands, &augment_config(), &[])
    });
    tally.fake_edges += aug.fake_edges.len() as u64;
    let dyn_sol = match tracer.time(span, || algo.try_solve(&aug.problem)) {
        Ok(s) => s,
        Err(e) => {
            out.notes
                .push(format!("failed: {}: augmented solve: {e}", what()));
            return false;
        }
    };
    if let Err(e) = tracer.time("core.translate", || {
        translate(&aug, &prepared.wan, &dyn_sol)
    }) {
        out.notes
            .push(format!("failed: {}: translate: {e}", what()));
        return false;
    }
    let mut ok = true;
    for (label, sol, problem) in [
        ("static", &static_sol, &cell.static_problem),
        ("augmented", &dyn_sol, &aug.problem),
    ] {
        if let Err(e) = sol.validate(problem) {
            out.check(false, || {
                format!("{}: {label} solution invalid: {e:?}", what())
            });
            ok = false;
        }
    }
    out.check(dyn_sol.total >= static_sol.total - 1.0, || {
        format!(
            "{}: dynamic {:.3} < static {:.3} - 1 Gbps",
            what(),
            dyn_sol.total,
            static_sol.total
        )
    });
    ok
}

/// One full sweep in `tput` order: per topology, SWAN, B4 and CSPF over
/// every load, then the exact arm on the topologies it covers.
fn sweep(prepared: &[Prepared], tracer: &Tracer, tally: &mut Tally, out: &mut Outcome) {
    let heuristics: [(usize, Box<dyn TeAlgorithm>); 3] = [
        (0, Box::new(SwanTe::default())),
        (1, Box::new(B4Te::default())),
        (2, Box::new(CspfTe::default())),
    ];
    let exact = exact_solver();
    let start = Instant::now();
    for p in prepared {
        let arms = heuristics
            .iter()
            .map(|(arm, algo)| (*arm, algo.as_ref(), &p.cells))
            .chain([(3, &exact as &dyn TeAlgorithm, &p.exact_cells)]);
        for (arm, algo, cells) in arms {
            for cell in cells {
                let t0 = Instant::now();
                let ok = decide(arm, algo, p, cell, tracer, tally, out);
                tally.ms[arm].push(t0.elapsed().as_secs_f64() * 1e3);
                tally.attempted += 1;
                tally.failed += u64::from(!ok);
            }
        }
    }
    tally.wall += start.elapsed();
    let s = exact.warm_stats().unwrap_or_default();
    let lp = &mut tally.lp;
    lp.cold_solves += s.cold_solves;
    lp.warm_attempts += s.warm_attempts;
    lp.warm_hits += s.warm_hits;
    lp.pivots += s.pivots;
    lp.watchdog_aborts += s.watchdog_aborts;
    lp.eta_updates += s.eta_updates;
    lp.refactorizations += s.refactorizations;
    lp.pricing_scans += s.pricing_scans;
}

/// Prepares the inputs `repeats` times, recording each as a set-up sample.
fn timed_prepare(seed: u64, repeats: usize, setup: &mut Vec<f64>) -> Vec<Prepared> {
    let mut prepared = Vec::new();
    for _ in 0..repeats {
        let t0 = Instant::now();
        prepared = std::hint::black_box(prepare(seed));
        setup.push(t0.elapsed().as_secs_f64());
    }
    prepared
}

/// Runs sweeps until `seconds` have passed (at least one); a traced run
/// then repeats the same number of sweeps with spans on.
pub fn run(seed: u64, seconds: f64, traced: bool) -> Outcome {
    let mut out = Outcome::default();
    let mut setup = Vec::with_capacity(SETUP_REPEATS);
    let prepared = timed_prepare(seed, SETUP_REPEATS.div_ceil(2), &mut setup);

    let plain = Tracer::new(false);
    let mut tally = Tally::default();
    let mut sweeps = 0;
    while sweeps == 0 || tally.wall.as_secs_f64() < seconds {
        sweep(&prepared, &plain, &mut tally, &mut out);
        sweeps += 1;
    }
    // Set-up takes well under a millisecond while host speed drifts over
    // seconds, so half the samples are taken after the measurement.
    timed_prepare(seed, SETUP_REPEATS / 2, &mut setup);
    out.attempted = tally.attempted;
    out.failed = tally.failed;
    let decisions = tally.ms.iter().map(Vec::len).sum::<usize>() as f64;
    out.end_to_end.insert("setup_s", median(&setup));
    out.end_to_end.insert("peak_rss_mb", peak_rss_mb());
    out.end_to_end
        .insert("decisions_per_s", decisions / tally.wall.as_secs_f64());
    // Each arm's decisions span three topologies and four loads, so a rank
    // statistic jumps between topology groups; the mean is the arm's
    // per-decision cost, and the exact arm's includes the stall.
    out.end_to_end.insert("decision_ms", mean(&tally.ms[0]));
    out.end_to_end
        .insert("decision_ms_tail", mean(&tally.ms[3]));
    for (arm, ms) in ARMS.iter().zip(&tally.ms) {
        let each: Vec<String> = ms.iter().map(|v| format!("{v:.1}")).collect();
        out.notes.push(format!(
            "te_plan: {arm}_decision_ms_p50 = {:.3} ms, mean {:.3} ms (n={}; each: {})",
            median(ms),
            mean(ms),
            ms.len(),
            each.join(" ")
        ));
    }
    out.notes.push(format!(
        "te_plan: {sweeps} sweep(s), {decisions} decisions in {:.3} s, failed_share = {} ({} of {}), \
         exact-arm watchdog aborts = {}",
        tally.wall.as_secs_f64(),
        failed_share(out.attempted, out.failed),
        out.failed,
        out.attempted,
        tally.lp.watchdog_aborts
    ));

    if traced {
        let tracer = Tracer::new(true);
        let mut traced_tally = Tally::default();
        let mut traced_out = Outcome::default();
        for _ in 0..sweeps {
            sweep(&prepared, &tracer, &mut traced_tally, &mut traced_out);
        }
        out.check_failures.append(&mut traced_out.check_failures);
        layers(&prepared, &tracer, &traced_tally, tally.wall, &mut out);
    }
    out
}

fn layers(
    prepared: &[Prepared],
    tracer: &Tracer,
    tally: &Tally,
    untraced: Duration,
    out: &mut Outcome,
) {
    let arms = [
        ("te.swan.solve_ms", "te.swan.calls"),
        ("te.b4.solve_ms", "te.b4.calls"),
        ("te.cspf.solve_ms", "te.cspf.calls"),
        ("te.exact.solve_ms", "te.exact.calls"),
    ];
    for ((ms, calls), span) in arms.into_iter().zip(SOLVE_SPANS) {
        out.layer(ms, tracer.ms(span));
        out.layer(calls, tracer.calls(span) as f64);
    }
    crate::lp_layer(&tally.lp, tracer.ms("te.exact.solve"), out);
    // Problem size of the largest exact-arm LP: the augmented problem at
    // the heaviest load, lowered the way the exact solver lowers it.
    let solver = exact_solver();
    let (mut cols, mut rows) = (0, 0);
    for p in &prepared[..EXACT_TOPOLOGIES] {
        let cell = p
            .exact_cells
            .last()
            .expect("the exact arm plans every load");
        let aug = augment(&p.wan, &cell.demands, &augment_config(), &[]);
        let lp = solver
            .formulation()
            .lower(&aug.problem)
            .expect("max-throughput lowers")
            .sparse_lp();
        cols = cols.max(lp.n_vars());
        rows = rows.max(lp.n_rows());
    }
    out.layer("lp.cols", cols as f64);
    out.layer("lp.rows", rows as f64);
    out.layer("core.augment_ms", tracer.ms("core.augment"));
    out.layer("core.translate_ms", tracer.ms("core.translate"));
    out.layer("core.fake_edges", tally.fake_edges as f64);

    let wall_ms = tally.wall.as_secs_f64() * 1e3;
    let attributed: f64 = SOLVE_SPANS
        .iter()
        .chain(&["core.augment", "core.translate"])
        .map(|s| tracer.ms(s))
        .sum();
    crate::trace_layer(wall_ms, Some(attributed), untraced, out);
}
