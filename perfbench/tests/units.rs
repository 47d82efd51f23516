//! Unit tests of the benchmark's own arithmetic, input generation and
//! metric catalogue.

use rwc_perfbench::stats::{
    failed_share, lateness, median, nearest_rank, percentile, samples_beyond, tail_percentile,
};
use rwc_perfbench::{closed_loop, serve_ingest, te_plan, END_TO_END, PER_LAYER, WORKLOADS};

#[test]
fn nearest_rank_picks_the_ceiling_rank() {
    assert_eq!(nearest_rank(10, 0.5), 5);
    assert_eq!(nearest_rank(11, 0.5), 6);
    assert_eq!(nearest_rank(100, 0.99), 99);
    assert_eq!(nearest_rank(101, 0.99), 100);
    assert_eq!(nearest_rank(3, 0.0), 1);
    assert_eq!(nearest_rank(3, 1.0), 3);
    let v: Vec<f64> = (1..=8).rev().map(f64::from).collect();
    assert_eq!(median(&v), 4.0, "median of 8 is the 4th smallest");
    assert_eq!(percentile(&v, 1.0), 8.0);
}

#[test]
fn tail_percentile_needs_ten_samples_beyond() {
    // p99 of 1,000 samples sits at rank 990: exactly ten beyond.
    let thousand: Vec<f64> = (1..=1000).map(f64::from).collect();
    assert_eq!(samples_beyond(1000, 0.99), 10);
    assert_eq!(tail_percentile(&thousand, 0.99), Ok(990.0));
    // One sample fewer leaves only nine beyond rank 990.
    assert_eq!(samples_beyond(999, 0.99), 9);
    assert!(tail_percentile(&thousand[..999], 0.99).is_err());
    // The closed loop's 1,080 rounds support a p99 (rank 1070).
    let rounds: Vec<f64> = (1..=1080).map(f64::from).collect();
    assert_eq!(tail_percentile(&rounds, 0.99), Ok(1070.0));
    assert!(tail_percentile(&[], 0.5).is_err());
    // A median of 20 samples has ten beyond it.
    let twenty: Vec<f64> = (1..=20).map(f64::from).collect();
    assert_eq!(tail_percentile(&twenty, 0.5), Ok(10.0));
}

#[test]
fn failed_share_counts_failures_over_attempts() {
    assert_eq!(failed_share(0, 0), 0.0);
    assert_eq!(failed_share(44, 0), 0.0);
    assert_eq!(failed_share(1100, 11), 0.01);
    assert_eq!(failed_share(4, 4), 1.0);
}

#[test]
#[should_panic(expected = "failures out of")]
fn failed_share_rejects_more_failures_than_attempts() {
    failed_share(1, 2);
}

#[test]
fn lateness_is_send_minus_due_floored_at_zero() {
    let due = [0.0, 0.010, 0.020, 0.030];
    let sent = [0.0005, 0.0095, 0.0230, 0.0301];
    let l = lateness(&due, &sent);
    assert!((l.max_ms - 3.0).abs() < 1e-9, "{l:?}");
    // Nearest-rank p99 of four values is the largest.
    assert!((l.p99_ms - 3.0).abs() < 1e-9, "{l:?}");
    let early = lateness(&[1.0, 2.0], &[0.5, 1.5]);
    assert_eq!(
        (early.max_ms, early.p99_ms),
        (0.0, 0.0),
        "early sends are on time"
    );
    // With 200 sends the p99 ignores the two latest.
    let due: Vec<f64> = (0..200).map(|k| k as f64 * 0.01).collect();
    let mut sent = due.clone();
    sent[7] += 0.050;
    sent[9] += 0.040;
    sent[11] += 0.002;
    let l = lateness(&due, &sent);
    assert!((l.max_ms - 50.0).abs() < 1e-6, "{l:?}");
    assert!((l.p99_ms - 2.0).abs() < 1e-6, "{l:?}");
}

#[test]
fn te_plan_inputs_follow_the_seed() {
    let a = te_plan::inputs(7);
    assert_eq!(a, te_plan::inputs(7), "same seed, same inputs");
    let b = te_plan::inputs(8);
    assert_ne!(a, b, "another seed, other inputs");
    for (x, y) in a.iter().zip(&b) {
        assert_eq!(
            x.gravity, y.gravity,
            "the exact arm's fixture does not move with the seed"
        );
        assert_ne!(x.base, y.base);
    }
    let commodities: Vec<usize> = a.iter().map(|c| c.base.len()).collect();
    assert_eq!(
        commodities,
        [330, 396, 720],
        "all-pairs gravity on the tput topologies"
    );
}

#[test]
fn closed_loop_inputs_follow_the_seed() {
    let fingerprint = |seed| {
        let i = closed_loop::inputs(seed);
        format!("{:?} {:?} {:?}", i.fleet, i.demands, i.network_seed)
    };
    assert_eq!(fingerprint(3), fingerprint(3));
    assert_ne!(fingerprint(3), fingerprint(4));
    let i = closed_loop::inputs(3);
    assert_eq!(i.wan.n_links(), 33);
    assert!(i.fleet.n_links() >= i.wan.n_links());
    assert!(
        i.plan.correlated_count() > 0,
        "the plan carries SRLG events"
    );
    let (_, _, te, _) = i.plan.class_counts();
    assert_eq!(te, 0, "no TE faults: every fallback is a solver failure");

    // A run cycles through distinct input variants of its seed.
    let seeds = |seed| -> Vec<u64> {
        (0..closed_loop::VARIANTS)
            .map(|v| closed_loop::variant_seed(seed, v))
            .collect()
    };
    let a = seeds(7);
    assert_eq!(a, seeds(7));
    assert_ne!(a, seeds(8));
    let mut distinct = a.clone();
    distinct.sort_unstable();
    distinct.dedup();
    assert_eq!(distinct.len(), a.len());
}

#[test]
fn serve_order_follows_the_seed() {
    let n = serve_ingest::config().n_links();
    let a = serve_ingest::order(5, n);
    assert_eq!(a, serve_ingest::order(5, n));
    assert_ne!(a, serve_ingest::order(6, n));
    let mut sorted = a.clone();
    sorted.sort_unstable();
    assert_eq!(
        sorted,
        (0..n).collect::<Vec<_>>(),
        "a permutation of the fleet"
    );
    assert!(serve_ingest::PACED_IDS < n);
    // The pooled paced ids of the fewest passes support the p99.
    assert!(serve_ingest::MIN_PASSES * serve_ingest::PACED_IDS >= 1000);
}

#[test]
fn catalogue_matches_benchmark_json() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let names = |section: &str| -> Vec<String> {
        let start = text
            .find(&format!("\"{section}\""))
            .expect("section present");
        let end = text[start..]
            .find(']')
            .map(|e| start + e)
            .expect("section closes");
        text[start..end]
            .split("\"name\":")
            .skip(1)
            .map(|s| {
                s.trim()
                    .trim_start_matches('"')
                    .split('"')
                    .next()
                    .unwrap_or("")
                    .to_string()
            })
            .collect()
    };
    let own = |list: &[(&str, &str)]| list.iter().map(|(n, _)| n.to_string()).collect::<Vec<_>>();
    assert_eq!(
        names("workloads"),
        WORKLOADS.iter().map(|w| w.to_string()).collect::<Vec<_>>()
    );
    assert_eq!(names("end_to_end"), own(END_TO_END));
    assert_eq!(names("per_layer"), own(PER_LAYER));
}
