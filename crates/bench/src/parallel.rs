//! Parallel fleet analysis and the experiment-arm driver.
//!
//! The `--full` reproduction sweeps 2,000 links × 87,600 samples. Links
//! are generated independently from `(seed, link_id)`, so the sweep is
//! embarrassingly parallel. Work is distributed through a **shared
//! atomic-counter chunk queue** rather than fixed striping: workers pull
//! the next contiguous chunk of link ids off the counter as they finish,
//! so one slow stretch of links (long traces, pathological SNR walks)
//! cannot idle the rest of the pool the way a pre-assigned stripe can.
//!
//! Determinism is preserved by separating *scheduling* from *merging*:
//! whichever worker processes chunk `c`, its partial accumulator lands in
//! slot `c`, and slots merge in chunk order — the exact link order of a
//! sequential sweep, regardless of thread count or scheduling jitter.
//!
//! The chunk loop itself now lives in `rwc-harness`: the sweep runs under
//! [`rwc_harness::run_fleet_sweep`], which adds panic isolation (a chunk
//! that panics is retried with jittered backoff instead of tearing down
//! the pool), a poison-free mpsc merge handoff, and optional
//! checkpoint/resume. The functions here are the bench-flavoured
//! front-ends that preserve the original infallible signatures.
//!
//! [`parallel_arms`] generalises the same pattern to whole experiment
//! arms (srlg's two arms, the ablation grid, multi-seed campaigns): each
//! closure runs on the scoped pool, results come back in input order.

use rwc_harness::{
    ExecutorConfig, HarnessError, SweepCheckpoint, SweepOutcome, SweepSpec,
};
use rwc_obs::MetricsRegistry;
use rwc_optics::ModulationTable;
use rwc_telemetry::{FleetAccumulator, FleetGenerator};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Mutex};

/// Analyses the whole fleet across `n_threads` workers pulling chunks
/// from a shared queue, on the fused fast path. The merged result is
/// identical to a sequential sweep for every thread count. Each worker
/// owns one [`rwc_telemetry::FleetKernel`], so a sweep's steady-state
/// allocations are `n_threads` sample buffers — not a trace per link.
pub fn parallel_fleet_analysis(
    gen: &FleetGenerator,
    table: &ModulationTable,
    n_threads: usize,
) -> FleetAccumulator {
    parallel_fleet_analysis_observed(gen, table, n_threads, None)
}

/// [`parallel_fleet_analysis`] with observability: each worker owns a
/// private [`MetricsObserver`] wired into its [`FleetKernel`] (no shared
/// atomics on the per-sample hot path), and the per-worker snapshots are
/// absorbed into `registry` once the pool drains. Counter and histogram-
/// bucket addition commute, so the merged metrics are identical to a
/// sequential sweep's regardless of thread count or chunk scheduling —
/// the same contract the accumulator merge already keeps.
pub fn parallel_fleet_analysis_observed(
    gen: &FleetGenerator,
    table: &ModulationTable,
    n_threads: usize,
    registry: Option<&MetricsRegistry>,
) -> FleetAccumulator {
    match parallel_fleet_analysis_hardened(
        gen,
        table,
        n_threads,
        registry,
        &ExecutorConfig::default(),
        None,
    ) {
        Ok(acc) => acc,
        // The default config has no chaos plan, so a failure here is a
        // real chunk panic that survived its retry budget.
        Err(err) => panic!("fleet sweep failed: {err}"),
    }
}

/// The fully hardened sweep: the bench front-end over
/// [`rwc_harness::run_fleet_sweep`]. Panicking chunks are retried with
/// jittered backoff; `cfg.checkpoint` enables interval checkpointing and
/// `resume` restores a previous run's completed chunks (the merged result
/// is byte-identical to an uninterrupted sweep). The per-chunk metrics
/// snapshots are absorbed into `registry` in chunk order, which matches
/// the per-worker absorb of earlier revisions because counter and
/// histogram-bucket addition commute.
///
/// `cfg.chaos` must not carry a kill budget here — mid-run kills are a
/// chaos-experiment concern and are driven through the harness directly.
pub fn parallel_fleet_analysis_hardened(
    gen: &FleetGenerator,
    table: &ModulationTable,
    n_threads: usize,
    registry: Option<&MetricsRegistry>,
    cfg: &ExecutorConfig,
    resume: Option<&SweepCheckpoint>,
) -> Result<FleetAccumulator, HarnessError> {
    assert!(n_threads > 0, "need at least one worker");
    assert!(
        cfg.chaos.as_ref().is_none_or(|p| p.kill_after_chunks.is_none()),
        "kill plans belong to the chaos experiment, not the bench sweep"
    );
    let spec = SweepSpec { gen, table, n_threads, collect_metrics: registry.is_some() };
    match rwc_harness::run_fleet_sweep(&spec, cfg, resume)? {
        SweepOutcome::Completed(result) => {
            if let (Some(registry), Some(metrics)) = (registry, &result.metrics) {
                registry.absorb(metrics);
            }
            Ok(result.accumulator)
        }
        SweepOutcome::Killed { .. } => unreachable!("no kill plan configured"),
    }
}

/// Runs independent experiment arms concurrently on a scoped pool and
/// returns their results **in input order** — the deterministic-merge
/// contract: output depends only on the arms, never on scheduling.
///
/// Arms are pulled from the same atomic-counter queue as the fleet sweep,
/// so a long arm (srlg's MBB leg, a slow ablation cell) doesn't serialise
/// behind a fixed assignment. Panics in an arm propagate to the caller.
/// Results come back over an mpsc channel instead of shared `Mutex`
/// slots, so a panicking arm can never poison a lock another worker (or
/// the collector) would have to unwrap.
pub fn parallel_arms<T: Send>(arms: Vec<Box<dyn FnOnce() -> T + Send + '_>>) -> Vec<T> {
    /// A queued arm: taken exactly once by whichever worker claims its index.
    type QueuedArm<'a, T> = Mutex<Option<Box<dyn FnOnce() -> T + Send + 'a>>>;
    let n = arms.len();
    if n == 0 {
        return Vec::new();
    }
    let queue: Vec<QueuedArm<'_, T>> = arms.into_iter().map(|a| Mutex::new(Some(a))).collect();
    let next = AtomicUsize::new(0);
    let mut slots: Vec<Option<T>> = (0..n).map(|_| None).collect();
    std::thread::scope(|scope| {
        let (tx, rx) = mpsc::channel::<(usize, T)>();
        for _ in 0..default_workers().min(n) {
            let tx = tx.clone();
            let queue = &queue;
            let next = &next;
            scope.spawn(move || loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                // The lock is held only for the take — arm() runs outside
                // it, so even an arm that panics leaves no poisoned lock.
                let arm = queue[i].lock().expect("arm queue poisoned").take();
                let arm = arm.expect("arm taken twice");
                tx.send((i, arm())).ok();
            });
        }
        drop(tx);
        for (i, result) in rx {
            slots[i] = Some(result);
        }
    });
    slots.into_iter().map(|s| s.expect("arm not run")).collect()
}

/// Two-arm convenience for A/B experiments (MBB vs legacy, reactive vs
/// predictive): runs both concurrently, returns them as a pair.
pub fn parallel_pair<T: Send, A, B>(a: A, b: B) -> (T, T)
where
    A: FnOnce() -> T + Send,
    B: FnOnce() -> T + Send,
{
    let mut results = parallel_arms(vec![Box::new(a) as Box<_>, Box::new(b) as Box<_>]);
    let second = results.pop().expect("two arms in, two out");
    let first = results.pop().expect("two arms in, two out");
    (first, second)
}

/// Picks a sensible worker count for this machine.
pub fn default_workers() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(4).min(16)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rwc_obs::{MetricsObserver, Observer};
    use rwc_telemetry::{FleetConfig, FleetKernel};
    use rwc_util::time::SimDuration;
    use rwc_util::units::{Db, Gbps};
    use std::sync::Arc;

    fn small() -> FleetGenerator {
        FleetGenerator::new(FleetConfig {
            n_fibers: 2,
            wavelengths_per_fiber: 10,
            horizon: SimDuration::from_days(30),
            ..FleetConfig::paper()
        })
    }

    #[test]
    fn parallel_matches_sequential() {
        let gen = small();
        let table = ModulationTable::paper_default();
        let sequential = gen.fleet_analysis(&table);
        for threads in [1, 2, 3, 7] {
            let parallel = parallel_fleet_analysis(&gen, &table, threads);
            assert_eq!(parallel.len(), sequential.len(), "threads={threads}");
            assert_eq!(parallel.total_gain(), sequential.total_gain(), "threads={threads}");
            assert_eq!(
                parallel.fraction_hdr_below(Db(2.0)),
                sequential.fraction_hdr_below(Db(2.0)),
                "threads={threads}"
            );
            assert_eq!(
                parallel.fraction_feasible_at_least(Gbps(175.0)),
                sequential.fraction_feasible_at_least(Gbps(175.0)),
                "threads={threads}"
            );
        }
    }

    #[test]
    fn observed_parallel_metrics_match_sequential() {
        let gen = small();
        let table = ModulationTable::paper_default();
        // Sequential reference: one kernel publishing into one registry.
        let seq_obs = Arc::new(MetricsObserver::new());
        let mut kernel = FleetKernel::with_observer(Arc::clone(&seq_obs) as Arc<dyn Observer>);
        let mut seq_acc = FleetAccumulator::new();
        for link_id in 0..gen.n_links() {
            seq_acc.push(&kernel.analyze_generated(&gen, link_id, &table));
        }
        let seq_metrics = seq_obs.snapshot().to_json();
        for threads in [1, 2, 5] {
            let registry = MetricsRegistry::new();
            let acc = parallel_fleet_analysis_observed(&gen, &table, threads, Some(&registry));
            assert_eq!(
                serde_json::to_string(&acc).unwrap(),
                serde_json::to_string(&seq_acc).unwrap(),
                "threads={threads}"
            );
            assert_eq!(
                registry.snapshot().to_json(),
                seq_metrics,
                "per-worker metrics merge diverged at threads={threads}"
            );
        }
    }

    #[test]
    fn parallel_sweep_matches_reference_analysis() {
        let gen = small();
        let table = ModulationTable::paper_default();
        let fused = parallel_fleet_analysis(&gen, &table, 3);
        let reference = gen.reference_fleet_analysis(&table);
        assert_eq!(
            serde_json::to_string(&fused).expect("accumulator serializes"),
            serde_json::to_string(&reference).expect("accumulator serializes"),
            "fused parallel sweep diverged from the reference path"
        );
    }

    #[test]
    fn panicking_chunk_no_longer_sinks_the_sweep() {
        // Regression: under the old Mutex-slot merge, a worker panic
        // poisoned the slot and the whole sweep died with it. Now the
        // harness catches the panic, retries the chunk, and the sweep
        // completes with byte-identical results and metrics.
        let gen = small();
        let table = ModulationTable::paper_default();
        let clean_registry = MetricsRegistry::new();
        let clean = parallel_fleet_analysis_observed(&gen, &table, 3, Some(&clean_registry));
        let chaotic_registry = MetricsRegistry::new();
        let cfg = ExecutorConfig {
            chaos: Some(rwc_harness::ChaosPlan::new(42).with_panic_chunk(0).with_panic_chunk(3)),
            ..ExecutorConfig::default()
        };
        let chaotic = parallel_fleet_analysis_hardened(
            &gen,
            &table,
            3,
            Some(&chaotic_registry),
            &cfg,
            None,
        )
        .expect("panicking chunks retry instead of failing the sweep");
        assert_eq!(
            serde_json::to_string(&chaotic).unwrap(),
            serde_json::to_string(&clean).unwrap(),
        );
        assert_eq!(chaotic_registry.snapshot().to_json(), clean_registry.snapshot().to_json());
    }

    #[test]
    fn exhausted_retry_budget_surfaces_as_typed_error() {
        let gen = small();
        let table = ModulationTable::paper_default();
        let cfg = ExecutorConfig {
            retry: rwc_harness::RetryPolicy { budget: 0, ..rwc_harness::RetryPolicy::default() },
            chaos: Some(rwc_harness::ChaosPlan::new(1).with_panic_chunk(2).with_poison_attempts(9)),
            ..ExecutorConfig::default()
        };
        match parallel_fleet_analysis_hardened(&gen, &table, 2, None, &cfg, None) {
            Err(HarnessError::ChunkFailed { chunk, .. }) => assert_eq!(chunk, 2),
            other => panic!("expected ChunkFailed, got {other:?}"),
        }
    }

    #[test]
    fn arms_return_in_input_order() {
        // More arms than workers, deliberately uneven, values distinct:
        // results must come back exactly in input order.
        let arms: Vec<Box<dyn FnOnce() -> usize + Send>> = (0..37)
            .map(|i| {
                Box::new(move || {
                    // Uneven busywork so completion order scrambles.
                    let spins = (37 - i) * 1000;
                    let mut acc = 0usize;
                    for k in 0..spins {
                        acc = acc.wrapping_add(k);
                    }
                    std::hint::black_box(acc); // keep the busywork alive
                    i
                }) as Box<dyn FnOnce() -> usize + Send>
            })
            .collect();
        let results = parallel_arms(arms);
        assert_eq!(results, (0..37).collect::<Vec<_>>());
    }

    #[test]
    fn pair_preserves_sides() {
        let (a, b) = parallel_pair(|| "left", || "right");
        assert_eq!((a, b), ("left", "right"));
    }

    #[test]
    fn empty_arms_are_fine() {
        let results: Vec<u8> = parallel_arms(Vec::new());
        assert!(results.is_empty());
    }

    #[test]
    fn default_workers_sane() {
        let w = default_workers();
        assert!((1..=16).contains(&w));
    }
}
