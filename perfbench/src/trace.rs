//! Benchmark-side spans: wall time and call counts around calls into the
//! workspace's public API. A disabled tracer only runs the closure, so the
//! untraced run executes the same code path.

use rwc_te::{TeAlgorithm, TeError, TeProblem, TeSolution};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Accumulated `(busy time, calls)` per span name.
#[derive(Debug, Default)]
pub struct Tracer {
    enabled: bool,
    spans: RefCell<BTreeMap<&'static str, (Duration, u64)>>,
}

impl Tracer {
    /// A tracer that records only when `enabled`.
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            spans: RefCell::default(),
        }
    }

    /// Runs `f`, charging its wall time to `span` when enabled.
    pub fn time<T>(&self, span: &'static str, f: impl FnOnce() -> T) -> T {
        if !self.enabled {
            return f();
        }
        let start = Instant::now();
        let out = f();
        let mut spans = self.spans.borrow_mut();
        let entry = spans.entry(span).or_default();
        entry.0 += start.elapsed();
        entry.1 += 1;
        out
    }

    /// Total milliseconds charged to `span`.
    pub fn ms(&self, span: &str) -> f64 {
        self.spans
            .borrow()
            .get(span)
            .map_or(0.0, |s| s.0.as_secs_f64() * 1e3)
    }

    /// Calls charged to `span`.
    pub fn calls(&self, span: &str) -> u64 {
        self.spans.borrow().get(span).map_or(0, |s| s.1)
    }
}

/// A [`TeAlgorithm`] that charges every `try_solve` to a span and is
/// otherwise the wrapped algorithm: same name, fingerprint and warm-start
/// counters, so the round engine caches exactly as it would unwrapped.
pub struct TimedTe<'a> {
    /// The algorithm doing the work.
    pub inner: &'a dyn TeAlgorithm,
    /// Where solve time goes.
    pub tracer: &'a Tracer,
    /// Span name, e.g. `te.exact.solve`.
    pub span: &'static str,
}

impl TeAlgorithm for TimedTe<'_> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn try_solve(&self, problem: &TeProblem) -> Result<TeSolution, TeError> {
        self.tracer
            .time(self.span, || self.inner.try_solve(problem))
    }

    fn warm_stats(&self) -> Option<rwc_lp::SolverStats> {
        self.inner.warm_stats()
    }

    fn solve_fingerprint(&self) -> u64 {
        self.inner.solve_fingerprint()
    }
}
