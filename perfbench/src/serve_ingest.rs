//! `serve_ingest`: the sharded daemon under load, over loopback HTTP.
//!
//! A [`Daemon`] with [`SHARDS`] shards over `FleetConfig::paper()` (2,000
//! links × 2.5 years) behind [`HttpServer`] on 127.0.0.1. One driver
//! thread, one connection at a time, POSTs `/ingest` in a seeded shuffle
//! order:
//!
//! 1. *paced*: the first [`PACED_IDS`] ids one per request, open loop at
//!    [`PACED_RATE`]. Latency figures pool the paced ids of every pass. Each id's latency runs from its due time until
//!    `Daemon::capacity` returns `Some` (polled every [`POLL`]), so a stall
//!    is charged to every id due during it. A paced id that is rejected,
//!    shed or invalid, or whose request fails, is a failure.
//! 2. *unpaced*: once every paced id is decided, the rest in batches of
//!    [`UNPACED_BATCH`] as fast as the daemon takes them; a batch with
//!    refused ids is re-offered after [`BACKOFF`]. Throughput is measured
//!    here.
//!
//! The drained accumulator must equal `rwc_serve::batch_reference` byte for
//! byte, and the daemon's `serve.*` ledger must close.

use crate::stats::{failed_share, lateness, median, percentile, tail_percentile, Lateness};
use crate::{derive_seed, peak_rss_mb, Outcome};
use rwc_serve::{batch_reference, Daemon, HttpServer, ServeConfig, ServeReport};
use rwc_util::rng::Xoshiro256;
use std::collections::VecDeque;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// Worker shards, one per core of the 2-core reference host.
pub const SHARDS: usize = 2;
/// Ids offered on the paced schedule per pass. The latency figures pool
/// [`MIN_PASSES`] passes or more: at least 2,400 ids, so the p99 has 24
/// ids beyond it.
pub const PACED_IDS: usize = 800;
/// Paced offer rate, links/s: about 35% of the 190–210 links/s saturated
/// throughput measured on a 2-core x86_64 host (AVX2). At 100 links/s the
/// p99 moved with the host's load by a third between runs of one build.
pub const PACED_RATE: f64 = 70.0;
/// Nearest-rank percentile of pooled paced latency reported as
/// `decision_ms_tail`. A host stall of a few hundred milliseconds delays
/// every id due during it, which is enough to decide a p99 over a few
/// thousand ids; the p95 needs ten times as much stall.
pub const TAIL_P: f64 = 0.95;
/// Ids per request in the unpaced phase.
pub const UNPACED_BATCH: usize = 16;
/// Wait before re-offering a batch the daemon refused in part.
pub const BACKOFF: Duration = Duration::from_millis(20);
/// How often the driver polls for decided links while it waits.
pub const POLL: Duration = Duration::from_millis(1);
/// Longest wait for offered ids to be decided.
const COMPLETION_TIMEOUT: Duration = Duration::from_secs(60);
/// Passes per run, at least. A host stall during a pass decides that
/// pass's throughput, so the run reports the median pass.
pub const MIN_PASSES: usize = 3;
/// Daemon starts before and again after the passes; the median of all
/// starts is `setup_s`.
const SETUP_REPEATS: usize = 8;
/// Links of the fleet timed for the telemetry layer metrics.
const TELEMETRY_SAMPLE: usize = 50;

/// The daemon configuration under test.
pub fn config() -> ServeConfig {
    ServeConfig {
        n_shards: SHARDS,
        ..ServeConfig::paper()
    }
}

/// The seeded order in which the driver offers the fleet's link ids.
pub fn order(seed: u64, n_links: usize) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n_links).collect();
    Xoshiro256::seed_from_u64(derive_seed(seed, 0x5E_01)).shuffle(&mut order);
    order
}

/// What one pass over the fleet measured.
struct Pass {
    /// Paced ids: due time to decision, ms.
    latency_ms: Vec<f64>,
    lateness: Lateness,
    /// Paced request round trips, ms (traced passes only).
    rtt_ms: Vec<f64>,
    paced_failed: u64,
    links_per_s: f64,
    wall: Duration,
    report: Result<ServeReport, String>,
    /// Totals over every `/ingest` receipt: (rejected, duplicates).
    rejected: u64,
    duplicates: u64,
    notes: Vec<String>,
}

/// One `/ingest` receipt as the HTTP surface reports it.
struct Receipt {
    accepted: u64,
    rejected: u64,
    duplicates: u64,
    shed: u64,
    invalid: u64,
}

fn json_u64(body: &str, key: &str) -> Option<u64> {
    let needle = format!("\"{key}\":");
    let at = body.find(&needle)? + needle.len();
    body[at..]
        .split(|c: char| !c.is_ascii_digit())
        .next()?
        .parse()
        .ok()
}

/// POSTs one `/ingest` over a fresh connection.
fn ingest(addr: SocketAddr, links: &[usize]) -> Result<Receipt, String> {
    let body: Vec<String> = links.iter().map(usize::to_string).collect();
    let body = body.join(" ");
    let mut stream = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .map_err(|e| e.to_string())?;
    let request = format!(
        "POST /ingest HTTP/1.1\r\nHost: {addr}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    stream
        .write_all(request.as_bytes())
        .map_err(|e| format!("send: {e}"))?;
    let mut reply = String::new();
    stream
        .read_to_string(&mut reply)
        .map_err(|e| format!("receive: {e}"))?;
    let status = reply.split(' ').nth(1).and_then(|s| s.parse::<u16>().ok());
    if status != Some(200) {
        return Err(format!("status {status:?}: {reply}"));
    }
    let field = |key| json_u64(&reply, key).ok_or_else(|| format!("reply lacks {key}: {reply}"));
    Ok(Receipt {
        accepted: field("accepted")?,
        rejected: field("rejected")?,
        duplicates: field("duplicates")?,
        shed: field("shed")?,
        invalid: field("invalid")?,
    })
}

fn start(cfg: &ServeConfig) -> (Daemon, HttpServer) {
    let daemon = Daemon::start(cfg.clone()).expect("serve configuration is valid");
    let server = HttpServer::bind("127.0.0.1:0").expect("loopback port available");
    (daemon, server)
}

/// Seconds since `t0`.
fn since(t0: Instant) -> f64 {
    t0.elapsed().as_secs_f64()
}

/// Moves decided ids out of `waiting`, recording due-to-decision latency.
fn collect_decided(
    daemon: &Daemon,
    t0: Instant,
    waiting: &mut Vec<(usize, f64)>,
    latency_ms: &mut Vec<f64>,
) {
    waiting.retain(|&(link, due)| {
        if daemon.capacity(link).is_none() {
            return true;
        }
        latency_ms.push((since(t0) - due) * 1e3);
        false
    });
}

/// Drives one daemon through the paced and unpaced phases, then drains it.
fn pass(daemon: Daemon, server: &HttpServer, order: &[usize], traced: bool) -> Pass {
    let addr = server.local_addr().expect("bound listener has an address");
    let shutdown = AtomicBool::new(false);
    let n_links = daemon.n_links();
    let mut p = Pass {
        latency_ms: Vec::with_capacity(PACED_IDS),
        lateness: Lateness {
            max_ms: 0.0,
            p99_ms: 0.0,
        },
        rtt_ms: Vec::with_capacity(PACED_IDS),
        paced_failed: 0,
        links_per_s: 0.0,
        wall: Duration::ZERO,
        report: Err("not drained".into()),
        rejected: 0,
        duplicates: 0,
        notes: Vec::new(),
    };
    let start = Instant::now();
    std::thread::scope(|s| {
        s.spawn(|| server.run(&daemon, &shutdown));

        // Paced, open loop: id k is due k / PACED_RATE seconds in.
        let (paced, rest) = order.split_at(PACED_IDS.min(order.len()));
        let t0 = Instant::now();
        let mut waiting: Vec<(usize, f64)> = Vec::new();
        // Refused paced ids: failures, re-offered with the unpaced ones so
        // the whole fleet is still served.
        let mut refused: Vec<usize> = Vec::new();
        let (mut due_s, mut sent_s) = (Vec::new(), Vec::new());
        for (k, &link) in paced.iter().enumerate() {
            let due = k as f64 / PACED_RATE;
            loop {
                collect_decided(&daemon, t0, &mut waiting, &mut p.latency_ms);
                let now = since(t0);
                if now >= due {
                    break;
                }
                std::thread::sleep(POLL.min(Duration::from_secs_f64(due - now)));
            }
            let sent = since(t0);
            due_s.push(due);
            sent_s.push(sent);
            match ingest(addr, &[link]) {
                Ok(r) if r.accepted == 1 && r.shed == 0 => waiting.push((link, due)),
                Ok(r) => {
                    p.paced_failed += 1;
                    p.notes.push(format!(
                        "failed: paced id {link}: rejected {} shed {} invalid {} duplicate {}",
                        r.rejected, r.shed, r.invalid, r.duplicates
                    ));
                    p.rejected += r.rejected;
                    p.duplicates += r.duplicates;
                    refused.push(link);
                }
                Err(e) => {
                    p.paced_failed += 1;
                    p.notes.push(format!("failed: paced id {link}: {e}"));
                    refused.push(link);
                }
            }
            if traced {
                p.rtt_ms.push((since(t0) - sent) * 1e3);
            }
        }
        p.lateness = lateness(&due_s, &sent_s);
        while !waiting.is_empty() && t0.elapsed() < COMPLETION_TIMEOUT {
            std::thread::sleep(POLL);
            collect_decided(&daemon, t0, &mut waiting, &mut p.latency_ms);
        }
        for (link, _) in waiting.drain(..) {
            p.paced_failed += 1;
            p.notes.push(format!(
                "failed: paced id {link} not decided within {COMPLETION_TIMEOUT:?}"
            ));
        }

        // Unpaced: offer the rest as fast as the daemon admits it.
        let t1 = Instant::now();
        let mut queue: VecDeque<usize> = refused.into_iter().chain(rest.iter().copied()).collect();
        let offered = queue.len();
        while daemon.completed_links() < n_links as u64 && t1.elapsed() < COMPLETION_TIMEOUT {
            let batch: Vec<usize> = std::iter::from_fn(|| queue.pop_front())
                .filter(|&l| daemon.capacity(l).is_none())
                .take(UNPACED_BATCH)
                .collect();
            if batch.is_empty() {
                std::thread::sleep(POLL);
                continue;
            }
            match ingest(addr, &batch) {
                Ok(r) => {
                    p.rejected += r.rejected;
                    p.duplicates += r.duplicates;
                    if r.rejected + r.shed > 0 {
                        // Which ids were refused is not reported: re-offer
                        // the batch (admitted ones come back as duplicates).
                        queue.extend(&batch);
                        std::thread::sleep(BACKOFF);
                    }
                }
                Err(e) => {
                    p.notes
                        .push(format!("unpaced request failed, re-offering: {e}"));
                    queue.extend(&batch);
                    std::thread::sleep(BACKOFF);
                }
            }
        }
        p.links_per_s = offered as f64 / since(t1);
        p.wall = start.elapsed();
        shutdown.store(true, Ordering::Release);
    });
    p.report = daemon.drain().map_err(|e| e.to_string());
    p
}

/// Serves the fleet until `seconds` have passed (at least [`MIN_PASSES`]
/// passes); a traced run then repeats the passes, timing every paced
/// request.
pub fn run(seed: u64, seconds: f64, traced: bool) -> Outcome {
    let mut out = Outcome::default();
    let cfg = config();
    let order = order(seed, cfg.n_links());

    let mut setup = Vec::new();
    let mut passes = Vec::new();
    let mut wall = Duration::ZERO;
    // Peak RSS of one daemon serving the fleet. Later passes start a fresh
    // daemon in this process, and whether glibc hands their threads the
    // first daemon's freed arenas varies from run to run.
    let mut rss_mb = None;
    while passes.len() < MIN_PASSES || wall.as_secs_f64() < seconds {
        let repeats = if setup.is_empty() { SETUP_REPEATS } else { 1 };
        let (daemon, server) = timed_start(&cfg, repeats, &mut setup);
        let p = pass(daemon, &server, &order, false);
        wall += p.wall;
        passes.push(p);
        rss_mb.get_or_insert_with(peak_rss_mb);
    }
    // A start takes well under a millisecond while host speed drifts over
    // seconds, so as many samples again are taken after the passes.
    drop(timed_start(&cfg, SETUP_REPEATS, &mut setup));
    let latency: Vec<f64> = passes
        .iter()
        .flat_map(|p| p.latency_ms.iter().copied())
        .collect();
    out.attempted = (passes.len() * PACED_IDS.min(order.len())) as u64;
    out.failed = passes.iter().map(|p| p.paced_failed).sum();
    let links_per_s = median(&passes.iter().map(|p| p.links_per_s).collect::<Vec<_>>());
    out.end_to_end.insert("setup_s", median(&setup));
    out.end_to_end
        .insert("peak_rss_mb", rss_mb.expect("at least one pass"));
    out.end_to_end.insert("decisions_per_s", links_per_s);
    if latency.is_empty() {
        out.check(false, || "no paced id was decided".into());
    } else {
        out.end_to_end.insert("decision_ms", median(&latency));
        match tail_percentile(&latency, TAIL_P) {
            Ok(tail) => {
                out.end_to_end.insert("decision_ms_tail", tail);
            }
            Err(e) => out.check(false, || format!("decision_ms_tail: {e}")),
        }
    }
    let late_max = passes.iter().map(|p| p.lateness.max_ms).fold(0.0, f64::max);
    let late_p99 = passes.iter().map(|p| p.lateness.p99_ms).fold(0.0, f64::max);
    if !latency.is_empty() {
        out.notes.push(format!(
            "serve_ingest: ingest_ms_p50 = {:.4} ms, ingest_ms_p95 = {:.4} ms, \
             ingest_ms_p99 = {:.4} ms (n={}, paced at {PACED_RATE}/s); per pass: \
             links_per_s = {} (unpaced)",
            median(&latency),
            percentile(&latency, 0.95),
            percentile(&latency, 0.99),
            latency.len(),
            passes
                .iter()
                .map(|p| format!("{:.1}", p.links_per_s))
                .collect::<Vec<_>>()
                .join(" "),
        ));
    }
    out.notes.push(format!(
        "serve_ingest: driver lateness max = {late_max:.4} ms, p99 = {late_p99:.4} ms; \
         failed_share = {} ({} of {} paced ids)",
        failed_share(out.attempted, out.failed),
        out.failed,
        out.attempted
    ));

    // Outputs: every pass's drained fleet equals the batch pass.
    let (ref_acc, ref_metrics) = reference(&cfg);
    for (i, p) in passes.iter_mut().enumerate() {
        check_pass(i, p, &cfg, &ref_acc, &ref_metrics, &mut out);
    }

    if traced {
        let mut traced_passes = Vec::new();
        for _ in 0..passes.len() {
            let (daemon, server) = start(&cfg);
            traced_passes.push(pass(daemon, &server, &order, true));
        }
        for (i, p) in traced_passes.iter_mut().enumerate() {
            check_pass(i, p, &cfg, &ref_acc, &ref_metrics, &mut out);
        }
        layers(&cfg, &order, &traced_passes, wall, &mut out);
        out.layer("driver.lateness_ms_max", late_max);
        out.layer("driver.lateness_ms_p99", late_p99);
    }
    out
}

/// `rwc_serve::batch_reference` as `(accumulator JSON, metrics JSON)`.
///
/// The batch pass takes about 20 s on one core and depends only on this
/// executable, since the fleet is a constant. When `PERFBENCH_CACHE` names
/// a directory, the result is kept there under a digest of the executable's
/// bytes, so later runs of the same build compare against it without
/// recomputing it; a rebuilt benchmark or library gets a new digest.
fn reference(cfg: &ServeConfig) -> (String, String) {
    let compute = || {
        let (acc, metrics) = batch_reference(cfg);
        let acc = serde_json::to_string(&acc).expect("accumulator serialises");
        (acc, metrics.to_json())
    };
    let Some(dir) = std::env::var_os("PERFBENCH_CACHE").map(std::path::PathBuf::from) else {
        return compute();
    };
    let Some(digest) = std::env::current_exe()
        .and_then(std::fs::read)
        .ok()
        .map(|b| fnv1a(&b))
    else {
        return compute();
    };
    let acc_path = dir.join(format!("serve-reference-{digest:016x}.acc.json"));
    let metrics_path = dir.join(format!("serve-reference-{digest:016x}.metrics.json"));
    if let (Ok(acc), Ok(metrics)) = (
        std::fs::read_to_string(&acc_path),
        std::fs::read_to_string(&metrics_path),
    ) {
        return (acc, metrics);
    }
    let (acc, metrics) = compute();
    // Best effort: a failed write only means the next run recomputes.
    let _ = std::fs::create_dir_all(&dir)
        .and_then(|()| write_atomically(&metrics_path, &metrics))
        .and_then(|()| write_atomically(&acc_path, &acc));
    (acc, metrics)
}

/// Writes through a temporary file and a rename, so a reader never sees a
/// partial file.
fn write_atomically(path: &std::path::Path, contents: &str) -> std::io::Result<()> {
    let tmp = path.with_extension(format!("tmp{}", std::process::id()));
    std::fs::write(&tmp, contents)?;
    std::fs::rename(&tmp, path)
}

/// FNV-1a 64.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3)
    })
}

/// Starts the daemon `repeats` times, recording each start as a set-up
/// sample; returns the last one.
fn timed_start(cfg: &ServeConfig, repeats: usize, setup: &mut Vec<f64>) -> (Daemon, HttpServer) {
    let mut started = None;
    for _ in 0..repeats {
        drop(started.take());
        let t0 = Instant::now();
        started = Some(start(cfg));
        setup.push(t0.elapsed().as_secs_f64());
    }
    started.expect("at least one start")
}

fn check_pass(
    i: usize,
    p: &mut Pass,
    cfg: &ServeConfig,
    ref_acc: &str,
    ref_metrics: &str,
    out: &mut Outcome,
) {
    out.notes.append(&mut p.notes);
    let report = match &p.report {
        Ok(r) => r,
        Err(e) => {
            out.check(false, || format!("pass {i}: drain failed: {e}"));
            return;
        }
    };
    let acc = serde_json::to_string(&report.accumulator).expect("accumulator serialises");
    out.check(acc == ref_acc, || {
        format!("pass {i}: drained accumulator differs from batch_reference")
    });
    out.check(report.pipeline_metrics.to_json() == ref_metrics, || {
        format!("pass {i}: pipeline metrics differ from batch_reference")
    });
    let n = cfg.n_links() as u64;
    out.check(report.links_completed == n, || {
        format!(
            "pass {i}: {} of {n} links completed",
            report.links_completed
        )
    });
    let c = |name| report.counter(name);
    let closed = c("serve.links_completed")
        + c("serve.shed_oldest")
        + c("serve.shed_deadline")
        + c("serve.inflight_drops");
    out.check(c("serve.ingested") == closed, || {
        format!(
            "pass {i}: ledger open: ingested {} != completed + shed + dropped {closed}",
            c("serve.ingested")
        )
    });
    out.check(
        c("serve.rejected") == p.rejected && c("serve.duplicates") == p.duplicates,
        || {
            format!(
                "pass {i}: daemon counted {} rejected / {} duplicates, receipts said {} / {}",
                c("serve.rejected"),
                c("serve.duplicates"),
                p.rejected,
                p.duplicates
            )
        },
    );
}

fn layers(
    cfg: &ServeConfig,
    order: &[usize],
    passes: &[Pass],
    untraced: Duration,
    out: &mut Outcome,
) {
    let gen = rwc_telemetry::FleetGenerator::new(cfg.fleet.clone()).with_gen_mode(cfg.gen_mode);
    let sample = &order[..TELEMETRY_SAMPLE.min(order.len())];
    let service_ms =
        crate::telemetry_layer(&gen, sample.iter().copied(), &cfg.controller.table, out);
    let latency: Vec<f64> = passes
        .iter()
        .flat_map(|p| p.latency_ms.iter().copied())
        .collect();
    let rtt: Vec<f64> = passes
        .iter()
        .flat_map(|p| p.rtt_ms.iter().copied())
        .collect();
    if !latency.is_empty() {
        out.layer("serve.queue_wait_ms_p50", median(&latency) - service_ms);
        out.layer(
            "serve.queue_wait_ms_p99",
            percentile(&latency, 0.99) - service_ms,
        );
    }
    if !rtt.is_empty() {
        out.layer("serve.http_rtt_ms", median(&rtt));
    }
    let (mut high_water, mut rejected, mut shed) = (0.0f64, 0, 0);
    for p in passes {
        if let Ok(r) = &p.report {
            high_water = high_water.max(
                r.serve_metrics
                    .gauges
                    .get("serve.queue_depth")
                    .copied()
                    .unwrap_or(0.0),
            );
            rejected += r.counter("serve.rejected");
            shed += r.counter("serve.shed_oldest") + r.counter("serve.shed_deadline");
        }
    }
    out.layer("serve.queue_high_water", high_water);
    out.layer("serve.rejected", rejected as f64);
    out.layer("serve.shed", shed as f64);
    let wall_ms: f64 = passes.iter().map(|p| p.wall.as_secs_f64() * 1e3).sum();
    crate::trace_layer(wall_ms, None, untraced, out);
}
