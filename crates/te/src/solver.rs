//! The unified TE solver front-end.
//!
//! [`TeSolver::builder()`] collects the whole configuration (objective,
//! weight, watchdog, warm-start policy, observer) and validates it once:
//!
//! ```
//! use rwc_te::solver::{TeSolver, WarmStartPolicy};
//! use rwc_te::formulation::TeObjective;
//! use std::time::Duration;
//!
//! let solver = TeSolver::builder()
//!     .objective(TeObjective::MaxConcurrentFlow)
//!     .solve_timeout(Duration::from_secs(5))
//!     .warm_start(WarmStartPolicy::Retain)
//!     .build()
//!     .expect("valid configuration");
//! assert_eq!(rwc_te::TeAlgorithm::name(&solver), "exact-lp:max-concurrent-flow");
//! ```
//!
//! One `TeSolver` owns one sparse revised-simplex engine
//! ([`SparseSimplexSolver`]) and the warm-start state that persists
//! across `try_solve` calls, over the whole objective zoo of
//! [`crate::formulation`]. The dense tableau survives only as the
//! reference oracle behind [`TeFormulation::solve_reference`].

use crate::formulation::{TeFormulation, TeObjective, TeSolve};
use crate::problem::{TeProblem, TeSolution};
use crate::{TeAlgorithm, TeError};
use rwc_lp::{SolverStats, SparseSimplexSolver};
use rwc_obs::{Event, Observer};
use std::cell::RefCell;
use std::sync::Arc;
use std::time::Duration;

/// Whether solver state (the last optimal basis) survives across solves.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum WarmStartPolicy {
    /// Keep the basis: consecutive similar problems warm-resolve. The
    /// default, and what the incremental round engine wants.
    #[default]
    Retain,
    /// Reset the engine before every solve: every round is a cold solve.
    /// For A/B benchmarking and for workloads whose successive problems
    /// share nothing.
    AlwaysCold,
}

/// Builder for [`TeSolver`] — collect the configuration, validate once.
#[derive(Debug, Clone)]
pub struct TeSolverBuilder {
    objective: TeObjective,
    throughput_weight: f64,
    solve_timeout: Option<Duration>,
    warm_start: WarmStartPolicy,
    observer: Arc<dyn Observer>,
}

impl Default for TeSolverBuilder {
    fn default() -> Self {
        Self {
            objective: TeObjective::MaxThroughput,
            throughput_weight: 1e6,
            solve_timeout: None,
            warm_start: WarmStartPolicy::Retain,
            observer: rwc_obs::noop(),
        }
    }
}

impl TeSolverBuilder {
    /// Sets the objective (default [`TeObjective::MaxThroughput`]).
    pub fn objective(mut self, objective: TeObjective) -> Self {
        self.objective = objective;
        self
    }

    /// Sets the headline-quantity weight relative to one unit of edge
    /// cost (default `1e6`). Validated finite and positive.
    pub fn throughput_weight(mut self, weight: f64) -> Self {
        self.throughput_weight = weight;
        self
    }

    /// Arms the solve-deadline watchdog: a warm attempt past the deadline
    /// aborts into the cold-fallback path, a cold attempt past it surfaces
    /// as [`TeError::SolverTimeout`] instead of hanging the round.
    pub fn solve_timeout(mut self, timeout: Duration) -> Self {
        self.solve_timeout = Some(timeout);
        self
    }

    /// Sets the warm-start policy (default [`WarmStartPolicy::Retain`]).
    pub fn warm_start(mut self, policy: WarmStartPolicy) -> Self {
        self.warm_start = policy;
        self
    }

    /// Attaches an observer: per-solve `lp.*` counters plus
    /// [`Event::WarmSolve`]/[`Event::ColdFallback`] events. Observation is
    /// a pure sidecar — solutions are byte-identical with it on or off.
    pub fn observer(mut self, obs: Arc<dyn Observer>) -> Self {
        self.observer = obs;
        self
    }

    /// Validates the configuration and builds the solver.
    pub fn build(self) -> Result<TeSolver, TeError> {
        let formulation = TeFormulation {
            objective: self.objective,
            throughput_weight: self.throughput_weight,
        };
        formulation.validate()?;
        let solver = TeSolver {
            formulation,
            warm_start: self.warm_start,
            solver: RefCell::default(),
            obs: self.observer,
        };
        solver.set_solve_timeout(self.solve_timeout);
        Ok(solver)
    }
}

/// The unified TE solver: one objective, one sparse simplex engine,
/// persistent warm-start state, optional observer and watchdog.
#[derive(Debug)]
pub struct TeSolver {
    formulation: TeFormulation,
    warm_start: WarmStartPolicy,
    solver: RefCell<SparseSimplexSolver>,
    obs: Arc<dyn Observer>,
}

impl Default for TeSolver {
    fn default() -> Self {
        TeSolver::builder().build().expect("default configuration is valid")
    }
}

impl TeSolver {
    /// Starts a builder with the defaults: max-throughput objective,
    /// weight `1e6`, no watchdog, warm starts retained.
    pub fn builder() -> TeSolverBuilder {
        TeSolverBuilder::default()
    }

    /// The objective this solver optimises.
    pub fn objective(&self) -> &TeObjective {
        &self.formulation.objective
    }

    /// The formulation (objective + weight) this solver lowers through.
    pub fn formulation(&self) -> &TeFormulation {
        &self.formulation
    }

    /// Re-arms (or disarms, with `None`) the solve-deadline watchdog.
    pub fn set_solve_timeout(&self, timeout: Option<Duration>) {
        self.solver.borrow_mut().set_solve_timeout(timeout);
    }

    /// Chaos hook: sleeps this long before every simplex pivot, forcing a
    /// slow solve so watchdog behaviour can be driven deterministically.
    pub fn set_pivot_delay(&self, delay: Option<Duration>) {
        self.solver.borrow_mut().set_pivot_delay(delay);
    }

    /// Replaces the observer after construction.
    pub fn set_observer(&mut self, obs: Arc<dyn Observer>) {
        self.obs = obs;
    }

    /// Replaces the objective *without* dropping warm-start state — the
    /// round-loop entry point for drifting inputs that live inside the
    /// objective (min-MLU traffic matrices above all). A same-shaped
    /// objective (e.g. new TM volumes) keeps the fast-resolve path alive;
    /// a different shape changes the LP layout and the next solve falls
    /// back to cold via the ordinary structural-mismatch route.
    pub fn set_objective(&mut self, objective: TeObjective) -> Result<(), TeError> {
        let next = TeFormulation { objective, throughput_weight: self.formulation.throughput_weight };
        next.validate()?;
        self.formulation = next;
        Ok(())
    }

    /// Solves and returns the full objective-specific result (`mlu`, `λ`,
    /// reduction sets) alongside the [`TeSolution`].
    pub fn solve_detailed(&self, problem: &TeProblem) -> Result<TeSolve, TeError> {
        if problem.commodities.is_empty() {
            return Ok(TeSolve::empty(problem));
        }
        let lowered = self.formulation.lower(problem)?;
        let sp = lowered.sparse_lp();
        let mut solver = self.solver.borrow_mut();
        if self.warm_start == WarmStartPolicy::AlwaysCold {
            solver.reset();
        }
        let before = self.obs.enabled().then(|| solver.stats());
        let outcome = solver.solve_sparse(&sp);
        if let Some(before) = before {
            let after = solver.stats();
            drop(solver);
            self.publish_solve(before, after);
        }
        lowered.extract_sparse(outcome)
    }

    /// Publishes the delta between two [`SolverStats`] readings.
    fn publish_solve(&self, before: SolverStats, after: SolverStats) {
        let pivots = after.pivots - before.pivots;
        self.obs.incr("lp.pivots", pivots);
        self.obs.incr("lp.warm_attempts", after.warm_attempts - before.warm_attempts);
        self.obs.incr("lp.warm_hits", after.warm_hits - before.warm_hits);
        self.obs.incr("lp.cold_solves", after.cold_solves - before.cold_solves);
        self.obs.incr("lp.eta_updates", after.eta_updates - before.eta_updates);
        self.obs.incr("lp.refactorizations", after.refactorizations - before.refactorizations);
        self.obs.incr("lp.pricing_scans", after.pricing_scans - before.pricing_scans);
        if after.warm_hits > before.warm_hits {
            self.obs.event(&Event::WarmSolve { pivots });
        } else if after.cold_solves > before.cold_solves {
            self.obs.event(&Event::ColdFallback { pivots });
        }
        let aborts = after.watchdog_aborts - before.watchdog_aborts;
        if aborts > 0 {
            self.obs.incr("lp.watchdog_aborts", aborts);
            self.obs.event(&Event::WatchdogAbort { pivots });
        }
        let total = after.warm_attempts;
        if total > 0 {
            self.obs.gauge("te.warm_hit_rate", after.warm_hits as f64 / total as f64);
        }
    }
}

impl TeAlgorithm for TeSolver {
    fn name(&self) -> &'static str {
        self.formulation.name()
    }

    fn try_solve(&self, problem: &TeProblem) -> Result<TeSolution, TeError> {
        self.solve_detailed(problem).map(|d| d.solution)
    }

    fn warm_stats(&self) -> Option<SolverStats> {
        Some(self.solver.borrow().stats())
    }

    fn solve_fingerprint(&self) -> u64 {
        self.formulation.fingerprint()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::demand::{DemandMatrix, Priority};
    use rwc_topology::builders;
    use rwc_util::units::Gbps;

    fn fig7_problem(volume: f64) -> TeProblem {
        let wan = builders::fig7_example();
        let a = wan.node_by_name("A").unwrap();
        let b = wan.node_by_name("B").unwrap();
        let mut dm = DemandMatrix::new();
        dm.add(a, b, Gbps(volume), Priority::Elastic);
        TeProblem::from_wan(&wan, &dm)
    }

    #[test]
    fn builder_defaults_pin_fig7_solution() {
        // The exact solution the default solver has always produced on
        // Fig. 7 (A's outgoing cut of 200 saturated), pinned byte for
        // byte so a change of vertex shows up here first.
        let p = fig7_problem(300.0);
        let expected = TeSolution {
            routed: vec![200.0],
            edge_flows: vec![100.0, 0.0, 100.0, 0.0, 100.0, 0.0, 0.0, 100.0],
            total: 200.0,
        };
        assert_eq!(TeSolver::default().solve(&p), expected);
        expected.validate(&p).unwrap();
    }

    #[test]
    fn solver_matches_reference_and_bounds_heuristics() {
        // Two competing commodities: the LP optimum matches the dense
        // reference and dominates every heuristic.
        let wan = builders::fig7_example();
        let node = |n: &str| wan.node_by_name(n).unwrap();
        let mut dm = DemandMatrix::new();
        dm.add(node("A"), node("B"), Gbps(125.0), Priority::Elastic);
        dm.add(node("C"), node("D"), Gbps(125.0), Priority::Elastic);
        dm.add(node("B"), node("C"), Gbps(40.0), Priority::Elastic);
        let p = TeProblem::from_wan(&wan, &dm);
        let exact = TeSolver::default().solve(&p);
        exact.validate(&p).unwrap();
        let reference = TeFormulation::default().solve_reference(&p).unwrap().solution;
        assert!((exact.total - reference.total).abs() < 1e-6);
        let swan = crate::swan::SwanTe::default().solve(&p);
        assert!(exact.total >= swan.total - 1e-6, "{} vs swan {}", exact.total, swan.total);
    }

    #[test]
    fn demand_caps_and_empty_problems() {
        let routed = TeSolver::default().solve(&fig7_problem(30.0));
        assert!((routed.routed[0] - 30.0).abs() < 1e-6);
        let wan = builders::fig7_example();
        let empty = TeProblem::from_wan(&wan, &DemandMatrix::new());
        assert_eq!(TeSolver::default().solve(&empty).total, 0.0);
    }

    #[test]
    fn builder_rejects_invalid_weight() {
        for w in [f64::NAN, 0.0, -3.0, f64::INFINITY] {
            let res = TeSolver::builder().throughput_weight(w).build();
            assert!(
                matches!(res, Err(TeError::InvalidConfig { .. })),
                "weight {w} must be rejected"
            );
        }
    }

    #[test]
    fn builder_rejects_ragged_traffic_matrices() {
        let res = TeSolver::builder()
            .objective(TeObjective::MinMlu {
                traffic_matrices: vec![vec![1.0, 2.0], vec![3.0]],
            })
            .build();
        assert!(matches!(res, Err(TeError::InvalidConfig { .. })));
    }

    #[test]
    fn warm_start_policy_always_cold_never_warms() {
        let p = fig7_problem(120.0);
        let cold = TeSolver::builder().warm_start(WarmStartPolicy::AlwaysCold).build().unwrap();
        let retain = TeSolver::builder().build().unwrap();
        for cap in [100.0, 90.0, 110.0, 95.0] {
            let mut round = p.clone();
            round.net.set_capacity(0, cap);
            let a = cold.solve(&round);
            let b = retain.solve(&round);
            assert!((a.total - b.total).abs() < 1e-6);
        }
        let cold_stats = cold.warm_stats().unwrap();
        assert_eq!(cold_stats.warm_attempts, 0, "{cold_stats:?}");
        assert_eq!(cold_stats.cold_solves, 4, "{cold_stats:?}");
        let retain_stats = retain.warm_stats().unwrap();
        assert!(retain_stats.warm_attempts >= 3, "{retain_stats:?}");
    }

    #[test]
    fn watchdog_surfaces_typed_timeout_per_objective() {
        let p = fig7_problem(300.0);
        for objective in [TeObjective::MaxThroughput, TeObjective::MaxConcurrentFlow] {
            let name = objective.algorithm_name();
            let metrics = Arc::new(rwc_obs::MetricsObserver::new());
            let solver =
                TeSolver::builder().objective(objective).observer(metrics.clone()).build().unwrap();
            solver.set_solve_timeout(Some(Duration::ZERO));
            solver.set_pivot_delay(Some(Duration::from_millis(10)));
            match solver.try_solve(&p) {
                Err(TeError::SolverTimeout { algorithm, .. }) => assert_eq!(algorithm, name),
                other => panic!("{name}: expected SolverTimeout, got {other:?}"),
            }
            assert!(metrics.snapshot().counters["lp.watchdog_aborts"] >= 1, "{name}");
            solver.set_solve_timeout(None);
            solver.set_pivot_delay(None);
            solver.try_solve(&p).expect("solves after disarm");
        }
    }

    #[test]
    fn observer_counters_published() {
        let p = fig7_problem(120.0);
        let metrics = Arc::new(rwc_obs::MetricsObserver::new());
        let solver = TeSolver::builder().observer(metrics.clone()).build().unwrap();
        for cap in [100.0, 80.0, 120.0] {
            let mut round = p.clone();
            round.net.set_capacity(0, cap);
            solver.try_solve(&round).unwrap();
        }
        let snap = metrics.snapshot();
        assert!(snap.counters["lp.refactorizations"] >= 1, "{snap:?}");
        assert!(snap.counters.contains_key("lp.eta_updates"), "{snap:?}");
    }

    #[test]
    fn fingerprints_depend_on_objective() {
        let a = TeSolver::builder().build().unwrap();
        let c = TeSolver::builder().objective(TeObjective::MaxConcurrentFlow).build().unwrap();
        assert_ne!(a.solve_fingerprint(), c.solve_fingerprint());
        // The memo key is the formulation's own fingerprint, unsalted.
        assert_eq!(a.solve_fingerprint(), TeFormulation::default().fingerprint());
        // Stateless heuristics keep the default 0 and report no warm stats.
        assert_eq!(crate::swan::SwanTe::default().solve_fingerprint(), 0);
        assert!(crate::swan::SwanTe::default().warm_stats().is_none());
    }

    #[test]
    fn min_mlu_warm_hit_rate_under_tm_drift_matches_fast_resolve() {
        // Rhs-only traffic-matrix drift must ride the same fast-resolve
        // path as max-throughput capacity drift: every post-cold round a
        // warm attempt, every attempt a hit.
        let wan = builders::fig7_example();
        let a = wan.node_by_name("A").unwrap();
        let b = wan.node_by_name("B").unwrap();
        let c = wan.node_by_name("C").unwrap();
        let d = wan.node_by_name("D").unwrap();
        let mut dm = DemandMatrix::new();
        dm.add(a, b, Gbps(100.0), Priority::Elastic);
        dm.add(c, d, Gbps(100.0), Priority::Elastic);
        let p = TeProblem::from_wan(&wan, &dm);
        let rounds = 8usize;
        let round_objective = |round: usize| {
            let scale = 0.6 + 0.05 * round as f64;
            TeObjective::MinMlu {
                traffic_matrices: vec![
                    vec![100.0 * scale, 40.0],
                    vec![30.0, 100.0 * scale],
                ],
            }
        };
        let mut warm = TeSolver::builder().objective(round_objective(0)).build().unwrap();
        let mut results = Vec::new();
        for round in 0..rounds {
            warm.set_objective(round_objective(round)).unwrap();
            results.push(warm.solve_detailed(&p).unwrap().mlu.unwrap());
        }
        let stats = warm.warm_stats().unwrap();
        assert_eq!(stats.cold_solves, 1, "only the first round may go cold: {stats:?}");
        assert_eq!(stats.warm_attempts, (rounds - 1) as u64, "{stats:?}");
        assert_eq!(stats.warm_hits, (rounds - 1) as u64, "tm drift must fast-resolve: {stats:?}");
        // And the answers track the drift (monotone non-decreasing load).
        for w in results.windows(2) {
            assert!(w[1] >= w[0] - 1e-9, "mlu should grow with the load: {results:?}");
        }
    }
}
