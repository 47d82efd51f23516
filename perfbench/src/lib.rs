//! End-to-end and per-layer benchmark of the rwc workspace.
//!
//! Three workloads drive the crates through their public APIs:
//!
//! - [`te_plan`]: the `tput` sweep's planning decisions on all-pairs
//!   gravity matrices, plus an exact-LP arm that reuses one warm solver;
//! - [`closed_loop`]: `Scenario::run` over a near-threshold fleet with
//!   BVT and amplifier-SRLG faults, one warm exact solver;
//! - [`serve_ingest`]: the sharded daemon behind its HTTP surface, paced
//!   then unpaced ingest from one driver thread.
//!
//! Every workload reports the same end-to-end metric names
//! ([`END_TO_END`]) and the same per-layer names ([`PER_LAYER`]); a layer
//! a workload never calls reads 0 there.

pub mod closed_loop;
pub mod host;
pub mod serve_ingest;
pub mod stats;
pub mod te_plan;
pub mod trace;

use rwc_telemetry::{BatchScratch, FleetGenerator, FleetKernel, SnrTrace};
use rwc_util::time::SimTime;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Watchdog armed on every exact solver: a warm attempt past it falls back
/// to a cold solve, a cold attempt past it is a `TeError`.
pub const SOLVE_TIMEOUT: Duration = Duration::from_secs(5);

/// `(name, unit)` of every end-to-end metric, in `BENCHMARK.json` order.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("decisions_per_s", "1/s"),
    ("decision_ms", "ms"),
    ("decision_ms_tail", "ms"),
];

/// `(name, unit)` of every per-layer metric, in `BENCHMARK.json` order.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("te.swan.solve_ms", "ms"),
    ("te.swan.calls", "count"),
    ("te.b4.solve_ms", "ms"),
    ("te.b4.calls", "count"),
    ("te.cspf.solve_ms", "ms"),
    ("te.cspf.calls", "count"),
    ("te.exact.solve_ms", "ms"),
    ("te.exact.calls", "count"),
    ("lp.pivots", "count"),
    ("lp.us_per_pivot", "us"),
    ("lp.cold_solves", "count"),
    ("lp.warm_attempts", "count"),
    ("lp.warm_hits", "count"),
    ("lp.warm_hit_ratio", "ratio"),
    ("lp.watchdog_aborts", "count"),
    ("lp.eta_updates", "count"),
    ("lp.refactorizations", "count"),
    ("lp.pricing_scans", "count"),
    ("lp.cols", "count"),
    ("lp.rows", "count"),
    ("core.augment_ms", "ms"),
    ("core.translate_ms", "ms"),
    ("core.fake_edges", "count"),
    ("core.te_round_ms", "ms"),
    ("core.tick_ms", "ms"),
    ("core.augment_full_rebuilds", "count"),
    ("core.augment_in_place_patches", "count"),
    ("core.augment_suffix_rebuilds", "count"),
    ("core.augment_dirty_links", "count"),
    ("faults.query_ms", "ms"),
    ("controller.tick_self_ms", "ms"),
    ("controller.flaps", "count"),
    ("controller.hard_downs", "count"),
    ("controller.failed_changes", "count"),
    ("controller.rolled_back_changes", "count"),
    ("controller.retries", "count"),
    ("controller.quarantines", "count"),
    ("telemetry.generate_ms_per_link", "ms"),
    ("telemetry.analyse_ms_per_link", "ms"),
    ("telemetry.samples_per_s", "1/s"),
    ("serve.http_rtt_ms", "ms"),
    ("serve.queue_wait_ms_p50", "ms"),
    ("serve.queue_wait_ms_p99", "ms"),
    ("serve.queue_high_water", "count"),
    ("serve.rejected", "count"),
    ("serve.shed", "count"),
    ("driver.lateness_ms_max", "ms"),
    ("driver.lateness_ms_p99", "ms"),
    ("trace.wall_ms", "ms"),
    ("trace.unattributed_ms", "ms"),
    ("trace.unattributed_share", "ratio"),
    ("trace.overhead_ms", "ms"),
];

/// The workloads, in `BENCHMARK.json` order.
pub const WORKLOADS: &[&str] = &["te_plan", "closed_loop", "serve_ingest"];

/// What one workload run measured and checked.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted (decisions, rounds, paced ids).
    pub attempted: u64,
    /// Attempted operations that failed.
    pub failed: u64,
    /// Output checks that did not hold; any entry makes the run incorrect.
    pub check_failures: Vec<String>,
    /// End-to-end metric values by name.
    pub end_to_end: BTreeMap<&'static str, f64>,
    /// Per-layer metric values by name (traced runs only).
    pub per_layer: BTreeMap<&'static str, f64>,
    /// Human-readable lines printed ahead of the result.
    pub notes: Vec<String>,
}

impl Outcome {
    /// Records an output check.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.check_failures.push(what());
        }
    }

    /// Records a per-layer value.
    pub fn layer(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            PER_LAYER.iter().any(|(n, _)| *n == name),
            "unknown layer metric {name}"
        );
        self.per_layer.insert(name, value);
    }
}

/// Derives an independent 64-bit stream seed from the workload seed and a
/// purpose tag (splitmix64 finalizer).
pub fn derive_seed(seed: u64, tag: u64) -> u64 {
    let mut z = seed ^ tag.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Peak resident set size of this process in MiB (`VmHWM`), 0 when the
/// platform does not report it.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines().find(|l| l.starts_with("VmHWM:")).and_then(|l| {
                l.split_whitespace()
                    .nth(1)
                    .and_then(|kb| kb.parse::<f64>().ok())
            })
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Generates, then analyses, each of `links` on `gen`'s configured
/// generation mode and records the `telemetry.*` layer metrics; returns
/// the mean per-link service time (generate + analyse) in milliseconds.
pub fn telemetry_layer(
    gen: &FleetGenerator,
    links: impl IntoIterator<Item = usize>,
    table: &rwc_optics::ModulationTable,
    out: &mut Outcome,
) -> f64 {
    let mut scratch = BatchScratch::default();
    let mut kernel = FleetKernel::new();
    let mut buf = Vec::new();
    let (mut generate, mut analyse) = (Duration::ZERO, Duration::ZERO);
    let (mut n, mut samples) = (0usize, 0usize);
    for link in links {
        let t0 = Instant::now();
        gen.generate_link_into(link, &mut scratch, &mut buf);
        generate += t0.elapsed();
        n += 1;
        samples += buf.len();
        let trace = SnrTrace::new(SimTime::EPOCH, gen.config().tick, buf.clone());
        let t0 = Instant::now();
        std::hint::black_box(kernel.analyze_trace(&trace, table));
        analyse += t0.elapsed();
    }
    let (generate_ms, analyse_ms) = (generate.as_secs_f64() * 1e3, analyse.as_secs_f64() * 1e3);
    out.layer("telemetry.generate_ms_per_link", generate_ms / n as f64);
    out.layer("telemetry.analyse_ms_per_link", analyse_ms / n as f64);
    out.layer(
        "telemetry.samples_per_s",
        samples as f64 / generate.as_secs_f64(),
    );
    (generate_ms + analyse_ms) / n as f64
}

/// Records the `lp.*` counters of one exact solver's `warm_stats()` delta;
/// `solve_ms` is the time its solves took.
pub fn lp_layer(lp: &rwc_lp::SolverStats, solve_ms: f64, out: &mut Outcome) {
    let per_pivot = if lp.pivots == 0 {
        0.0
    } else {
        solve_ms * 1e3 / lp.pivots as f64
    };
    out.layer("lp.pivots", lp.pivots as f64);
    out.layer("lp.us_per_pivot", per_pivot);
    out.layer("lp.cold_solves", lp.cold_solves as f64);
    out.layer("lp.warm_attempts", lp.warm_attempts as f64);
    out.layer("lp.warm_hits", lp.warm_hits as f64);
    out.layer("lp.warm_hit_ratio", lp.warm_hit_rate());
    out.layer("lp.watchdog_aborts", lp.watchdog_aborts as f64);
    out.layer("lp.eta_updates", lp.eta_updates as f64);
    out.layer("lp.refactorizations", lp.refactorizations as f64);
    out.layer("lp.pricing_scans", lp.pricing_scans as f64);
}

/// Records the traced wall time, the part of it no layer span covers
/// (when the workload attributes its time), and the tracing overhead
/// against the untraced run of the same work.
pub fn trace_layer(
    wall_ms: f64,
    attributed_ms: Option<f64>,
    untraced: Duration,
    out: &mut Outcome,
) {
    out.layer("trace.wall_ms", wall_ms);
    if let Some(attributed) = attributed_ms {
        out.layer("trace.unattributed_ms", wall_ms - attributed);
        out.layer("trace.unattributed_share", (wall_ms - attributed) / wall_ms);
    }
    out.layer("trace.overhead_ms", wall_ms - untraced.as_secs_f64() * 1e3);
}
