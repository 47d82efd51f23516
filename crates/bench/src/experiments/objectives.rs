//! TE objective zoo on the augmented scaled mesh: every [`rwc_te::TeObjective`]
//! solved on the same problem, plus the min-MLU envelope-dominance and
//! warm-drift sub-stage. The printed table is the
//! human twin of the `objectives` stage in `BENCH_scenario.json` (and the
//! data behind the CI jq gates).

use crate::perf::{objectives_perf, ObjectivesPerf};
use crate::{Report, Scale};

fn render(report: &mut Report, perf: &ObjectivesPerf) {
    report.line(format!(
        "scaled mesh x{} (augmented: {} commodities, {} fake upgrade edges)",
        perf.scale_factor, perf.commodities, perf.fake_edges
    ));
    report.line("objective                        headline   solve us".to_string());
    for arm in &perf.arms {
        report.line(format!(
            "{:<32} {:>10.4} {:>10}{}",
            arm.objective,
            arm.sparse_headline,
            arm.sparse_solve_micros,
            if arm.solved { "" } else { "  [FAILED]" },
        ));
    }
    report.line(format!("all objectives solved: {}", perf.all_solved));
    let mm = &perf.min_mlu;
    report.line(format!(
        "min-MLU envelope {:.4} dominates every member optimum (max single-TM {:.4})",
        mm.envelope_mlu, mm.max_single_tm_mlu
    ));
    report.line(format!(
        "min-MLU rhs-only TM drift ({} rounds): warm hit rate {:.0}% \
         ({}/{} attempts), {:.1} rounds/s",
        mm.rounds,
        100.0 * mm.warm_hit_rate,
        mm.warm_hits,
        mm.warm_attempts,
        mm.rounds_per_sec,
    ));
    report.csv(
        "objectives.csv",
        std::iter::once("objective,solved,sparse".to_string())
            .chain(perf.arms.iter().map(|a| {
                format!("{},{},{}", a.objective, a.solved, a.sparse_headline)
            }))
            .collect::<Vec<_>>()
            .join("\n")
            + "\n",
    );
}

/// Runs the experiment.
pub fn run(scale: Scale) -> Report {
    let mut report =
        Report::new("objectives", "TE objective zoo: five formulations, one LP engine");
    let perf = objectives_perf(scale);
    render(&mut report, &perf);
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn objective_zoo_solves_and_warm_drifts() {
        let perf = objectives_perf(Scale::Scaled(2));
        assert_eq!(perf.arms.len(), 5, "all five objectives run");
        assert!(perf.all_solved, "{perf:?}");
        assert!(perf.fake_edges > 0, "augmentation produced no fake edges");
        let mm = &perf.min_mlu;
        assert!(
            mm.max_single_tm_mlu <= mm.envelope_mlu + 1e-6,
            "envelope dominance broken: {mm:?}"
        );
        // MinMlu TM drift is demand-rhs-only, so after the first cold
        // solve every round must warm-start — the same contract as the
        // MaxThroughput fast-resolve path.
        assert_eq!(mm.warm_attempts, mm.rounds - 1, "{mm:?}");
        assert_eq!(mm.warm_hits, mm.warm_attempts, "{mm:?}");
        let mut report = Report::new("objectives", "test");
        render(&mut report, &perf);
    }
}
