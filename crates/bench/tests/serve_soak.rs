//! Soak test for the serve daemon: every chaos arm must converge to the
//! byte-identical reference report, with the damage fully accounted in
//! `serve.*` counters and memory bounded by the counting allocator.
//!
//! Arms, all over the same small fleet and seed:
//!
//! 1. **plain** — sharded serving, no trouble;
//! 2. **shard panics** — chaos-injected panics mid-soak, restarts within
//!    budget;
//! 3. **kill + resume** — the daemon is killed abruptly mid-fleet
//!    (`kill -9` semantics: no final checkpoint) and a new daemon resumes
//!    from the periodic per-shard checkpoints;
//! 4. **queue overload** — tiny queues, repeated full-fleet replay until
//!    convergence, rejections expected and counted.
//!
//! The oracle is serialized JSON of the accumulator and the merged
//! pipeline metrics — every f64 bit participates.

use rwc_bench::alloc;
use rwc_harness::ChaosPlan;
use rwc_serve::{batch_reference, Daemon, ServeCheckpointConfig, ServeConfig, ShedPolicy};
use rwc_telemetry::FleetConfig;
use std::collections::BTreeSet;
use std::time::{Duration, Instant};

fn soak_config() -> ServeConfig {
    let mut cfg = ServeConfig::for_fleet(FleetConfig::small());
    cfg.n_shards = 4;
    cfg.restart.base_backoff = Duration::from_millis(1);
    cfg
}

fn reference(cfg: &ServeConfig) -> (String, String) {
    let (acc, metrics) = batch_reference(cfg);
    (serde_json::to_string(&acc).unwrap(), metrics.to_json())
}

fn drive_to_completion(daemon: &Daemon) {
    let links: Vec<usize> = (0..daemon.n_links()).collect();
    let n = links.len() as u64;
    let start = Instant::now();
    while daemon.completed_links() < n {
        assert!(
            start.elapsed() < Duration::from_secs(60),
            "soak arm failed to converge: {}/{n}",
            daemon.completed_links()
        );
        daemon.ingest(&links).expect("ingest while converging");
        std::thread::sleep(Duration::from_millis(2));
    }
}

fn assert_identical(arm: &str, daemon: Daemon, want: &(String, String)) {
    let report = daemon.drain().expect("clean drain");
    assert_eq!(
        serde_json::to_string(&report.accumulator).unwrap(),
        want.0,
        "{arm}: accumulator drifted from the batch reference"
    );
    assert_eq!(
        report.pipeline_metrics.to_json(),
        want.1,
        "{arm}: pipeline metrics drifted from the batch reference"
    );
    // The overload ledger closes exactly on every arm.
    assert_eq!(
        report.counter("serve.ingested"),
        report.counter("serve.links_completed")
            + report.counter("serve.shed_oldest")
            + report.counter("serve.shed_deadline")
            + report.counter("serve.inflight_drops"),
        "{arm}: ingest ledger must close"
    );
}

#[test]
fn soak_plain_sharded_run_matches_batch_and_memory_is_bounded() {
    let cfg = soak_config();
    let want = reference(&cfg);
    let (daemon, delta) = alloc::measure(|| {
        let daemon = Daemon::start(cfg).unwrap();
        drive_to_completion(&daemon);
        daemon
    });
    // The whole soak — 40 links of 60-day traces through 4 shards — must
    // run in bounded memory: traces are analysed per-link and dropped,
    // never accumulated. 256 MiB is ~10x headroom over the observed peak.
    assert!(
        delta.peak_live_bytes < 256 << 20,
        "peak live bytes {} exceeds the soak bound",
        delta.peak_live_bytes
    );
    assert_identical("plain", daemon, &want);
}

#[test]
fn soak_shard_panics_mid_run_converge_to_reference() {
    let mut cfg = soak_config();
    cfg.restart.budget = 2;
    cfg.chaos = Some(ChaosPlan {
        seed: 41,
        panic_chunks: BTreeSet::from([5, 17, 23]),
        kill_after_chunks: None,
        poison_attempts: 1,
    });
    let want = reference(&cfg);
    let daemon = Daemon::start(cfg).unwrap();
    drive_to_completion(&daemon);
    assert!(daemon.is_ready(), "single panics stay within the restart budget");
    let metrics = daemon.serve_metrics();
    assert_eq!(metrics.counters["serve.shard_panics"], 3);
    assert_eq!(metrics.counters["serve.shard_restarts"], 3);
    assert_eq!(metrics.counters["serve.requeued"], 3);
    assert_identical("panics", daemon, &want);
}

#[test]
fn soak_kill_and_resume_matches_uninterrupted_run() {
    let dir = rwc_harness::unique_temp_path("serve_soak_kill");
    let _ = std::fs::remove_dir_all(&dir);
    let mut cfg = soak_config();
    cfg.checkpoint = Some(ServeCheckpointConfig { dir: dir.clone(), every_links: 2 });
    let want = reference(&cfg);
    let n = cfg.n_links() as u64;

    // First life: serve until at least half the fleet is done, then die
    // abruptly — no drain, no final checkpoint.
    let daemon = Daemon::start(cfg.clone()).unwrap();
    let links: Vec<usize> = (0..cfg.n_links()).collect();
    daemon.ingest(&links).unwrap();
    let start = Instant::now();
    while daemon.completed_links() < n / 2 {
        assert!(start.elapsed() < Duration::from_secs(60), "first life stalled");
        std::thread::sleep(Duration::from_millis(1));
    }
    let first_life = daemon.kill();
    assert!(
        first_life.counters["serve.checkpoints_written"] > 0,
        "periodic checkpoints ran before the kill"
    );

    // Second life: restore from the per-shard checkpoints and replay the
    // whole fleet — restored links dedupe, missing links re-run.
    let daemon = Daemon::start(cfg).unwrap();
    let restored = daemon.completed_links();
    assert!(restored > 0, "periodic checkpoints restore completed work");
    assert!(restored <= n, "restore cannot invent links");
    // Replay the whole fleet once explicitly: every restored link must
    // dedupe. (drive_to_completion skips ingest entirely when the first
    // life happened to finish the fleet before the kill landed, so the
    // dedupe assertion has to run on its own receipt.)
    let replay = daemon.ingest(&links).unwrap();
    assert!(
        replay.duplicates >= restored,
        "replaying restored links counts as duplicates: {replay:?}"
    );
    drive_to_completion(&daemon);
    assert_identical("kill+resume", daemon, &want);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn soak_queue_overload_converges_with_rejections_counted() {
    let mut cfg = soak_config();
    cfg.n_shards = 2;
    cfg.queue_capacity = 2;
    cfg.shed_policy = ShedPolicy::RejectNewest;
    let want = reference(&cfg);
    let daemon = Daemon::start(cfg).unwrap();
    drive_to_completion(&daemon);
    let metrics = daemon.serve_metrics();
    assert!(
        metrics.counters["serve.rejected"] > 0,
        "a 40-link replay through 2x2 queue slots must hit backpressure"
    );
    assert_identical("overload", daemon, &want);
}
