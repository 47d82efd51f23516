//! Order statistics and ratios shared by every workload.
//!
//! Percentiles use the nearest-rank method: the `p`-th percentile of `n`
//! sorted samples is the sample at 1-based rank `ceil(p·n)`. A tail
//! percentile is only reported when at least [`TAIL_SUPPORT`] samples lie
//! beyond its rank; below that, one outlier decides the value.

/// Samples that must lie beyond a tail percentile's rank.
pub const TAIL_SUPPORT: usize = 10;

/// 1-based nearest rank of percentile `p` (in `[0, 1]`) among `n` samples.
pub fn nearest_rank(n: usize, p: f64) -> usize {
    assert!(n > 0, "no samples");
    ((p.clamp(0.0, 1.0) * n as f64).ceil() as usize).clamp(1, n)
}

/// Samples strictly beyond the nearest rank of `p`.
pub fn samples_beyond(n: usize, p: f64) -> usize {
    n - nearest_rank(n, p)
}

/// Nearest-rank percentile of unsorted samples.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted[nearest_rank(sorted.len(), p) - 1]
}

/// Nearest-rank median.
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 0.5)
}

/// Arithmetic mean; 0 for no samples.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// A tail percentile, refused when fewer than [`TAIL_SUPPORT`] samples lie
/// beyond its rank.
pub fn tail_percentile(values: &[f64], p: f64) -> Result<f64, String> {
    if values.is_empty() {
        return Err("no samples".into());
    }
    let beyond = samples_beyond(values.len(), p);
    if beyond < TAIL_SUPPORT {
        return Err(format!(
            "p{} of {} samples has {beyond} beyond it, needs {TAIL_SUPPORT}",
            p * 100.0,
            values.len()
        ));
    }
    Ok(percentile(values, p))
}

/// Failed operations over attempted ones; 0 when nothing was attempted.
pub fn failed_share(attempted: u64, failed: u64) -> f64 {
    assert!(
        failed <= attempted,
        "{failed} failures out of {attempted} attempts"
    );
    if attempted == 0 {
        0.0
    } else {
        failed as f64 / attempted as f64
    }
}

/// How late an open-loop driver sent its requests.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Lateness {
    /// Latest send, milliseconds after its due time.
    pub max_ms: f64,
    /// Nearest-rank 99th percentile of send lateness, milliseconds.
    pub p99_ms: f64,
}

/// Lateness of each send against its due time (both in seconds from the
/// same origin). A send ahead of schedule counts as on time.
pub fn lateness(due_s: &[f64], sent_s: &[f64]) -> Lateness {
    assert_eq!(due_s.len(), sent_s.len(), "one send time per due time");
    assert!(!due_s.is_empty(), "no sends");
    let late: Vec<f64> = due_s
        .iter()
        .zip(sent_s)
        .map(|(due, sent)| ((sent - due) * 1e3).max(0.0))
        .collect();
    Lateness {
        max_ms: late.iter().copied().fold(0.0, f64::max),
        p99_ms: percentile(&late, 0.99),
    }
}
