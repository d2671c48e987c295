//! `score_row1` and `score_batch64`: HTTP scoring against a booted server.
//!
//! Untraced runs report the end-to-end metrics. Traced runs alternate
//! untraced and traced load segments on fresh servers (the traced ones
//! with telemetry and the JSONL access log on), join the access log with
//! the client-side latencies by request id, and time every layer's public
//! entry points in isolation to attribute the median request.

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use targad_core::{EnginePrecision, OodStrategy, Runtime};
use targad_serve::{Client, Json, ModelSnapshot, ServeConfig, Server, ServerHandle};

use crate::layers;
use crate::load::{self, Bodies, LoadSpec, SwapPlan};
use crate::models::{self, Fitted, WORKERS};
use crate::report::{self, Report};
use crate::stats::{by_rounds, median, ns_since, quantile, ROUNDS};
use crate::{Args, WorkDir, Workload};

/// Setups per run; `setup_s` is their median.
const SETUP_REPS: usize = 9;
/// Fits of the served model per untraced run; `fit_s` is their median.
const FIT_REPS: usize = 9;
/// Pause between `Server::start` and the first connect of a set-up.
const ACCEPT_SETTLE: Duration = Duration::from_millis(5);

/// The traffic shape of a serve workload.
pub struct Plan {
    pub precision: EnginePrecision,
    /// Rows per `/score` request.
    pub rows: usize,
    /// Size of the seeded request pool.
    pub bodies: usize,
    pub scrape_every: Option<Duration>,
    pub swap_every: Option<Duration>,
}

impl Plan {
    pub fn of(workload: Workload, seconds: f64) -> Self {
        // Short runs (the self-test) still see a few scrapes and swaps.
        let at_most = |d: Duration| d.min(Duration::from_secs_f64(seconds / 4.0));
        match workload {
            Workload::ScoreBatch64 => Self {
                precision: EnginePrecision::F32,
                rows: 64,
                bodies: 16,
                scrape_every: None,
                swap_every: Some(at_most(Duration::from_secs(2))),
            },
            // fit_unsw's traced run probes the serve layers with the
            // score_row1 traffic shape.
            Workload::ScoreRow1 | Workload::FitUnsw => Self {
                precision: EnginePrecision::F64,
                rows: 1,
                bodies: 256,
                scrape_every: Some(at_most(Duration::from_secs(1))),
                swap_every: None,
            },
        }
    }

    fn config(&self, access_log: Option<PathBuf>) -> ServeConfig {
        ServeConfig::builder()
            .precision(self.precision)
            .access_log(access_log)
            .build()
            .expect("default-derived serve config is valid")
    }
}

/// A fitted model prepared for serving: snapshot files A and B on disk and
/// the seeded request pool with its expected verdicts.
pub struct Served<'a> {
    pub workload: Workload,
    pub plan: Plan,
    pub fitted: &'a Fitted,
    pub bodies: Bodies,
    pub paths: [PathBuf; 2],
    pub seed: u64,
    pub work: &'a WorkDir,
}

impl<'a> Served<'a> {
    pub fn prepare(
        args: &Args,
        workload: Workload,
        fitted: &'a Fitted,
        work: &'a WorkDir,
    ) -> Result<Self, String> {
        let plan = Plan::of(workload, args.seconds);
        let b = models::variant(&fitted.classifier);
        let paths = [work.file("a.tgsnp"), work.file("b.tgsnp")];
        for (clf, path) in [(&fitted.classifier, &paths[0]), (&b, &paths[1])] {
            targad_store::save(clf, &fitted.thresholds, plan.precision, path)
                .map_err(|e| format!("save {}: {e}", path.display()))?;
        }
        let bodies = Bodies::build(
            &fitted.test,
            plan.rows,
            plan.bodies,
            args.seed,
            [&fitted.classifier, &b],
            &fitted.thresholds,
            plan.precision,
            args.corrupt_expected,
        )?;
        Ok(Self {
            workload,
            plan,
            fitted,
            bodies,
            paths,
            seed: args.seed,
            work,
        })
    }

    fn path(&self, i: usize) -> String {
        self.paths[i].to_string_lossy().into_owned()
    }

    /// Boots a server on snapshot A loaded from disk.
    fn start(&self, access_log: Option<PathBuf>) -> Result<ServerHandle, String> {
        let loaded = targad_store::load(&self.paths[0]).map_err(|e| format!("load: {e}"))?;
        let snapshot = ModelSnapshot::new(loaded.classifier, loaded.thresholds, "a");
        Server::start(
            self.plan.config(access_log),
            snapshot,
            Runtime::new(WORKERS),
        )
        .map_err(|e| format!("start server: {e}"))
    }

    /// One set-up: the fitted model in memory → `store::save` →
    /// `store::load` (mmap) → `Server::start` → first verified 200.
    /// Returns the set-up time, the server, and whether the first response
    /// passed verification.
    fn setup_once(&self, rep: usize) -> Result<(f64, ServerHandle, bool), String> {
        let path = self.work.file(&format!("setup-{rep}.tgsnp"));
        let t = Instant::now();
        targad_store::save(
            &self.fitted.classifier,
            &self.fitted.thresholds,
            self.plan.precision,
            &path,
        )
        .map_err(|e| format!("save: {e}"))?;
        let loaded = targad_store::load(&path).map_err(|e| format!("load: {e}"))?;
        let snapshot = ModelSnapshot::new(loaded.classifier, loaded.thresholds, "a");
        let server = Server::start(self.plan.config(None), snapshot, Runtime::new(WORKERS))
            .map_err(|e| format!("start server: {e}"))?;
        let started = t.elapsed();
        // Connect once the accept loop is idle-polling, as a real client
        // of a freshly started server does. Otherwise the set-up time
        // depends on whether the accept thread or the client wins the race
        // at boot. The pause is not counted.
        std::thread::sleep(ACCEPT_SETTLE);
        let t = Instant::now();
        let mut client = Client::connect(server.addr()).map_err(|e| e.to_string())?;
        let r = client
            .request("POST", "/score", &self.bodies.items[0].json)
            .map_err(|e| e.to_string())?;
        let verified = r.status == 200 && self.bodies.verify(0, &r.body).is_ok();
        Ok(((started + t.elapsed()).as_secs_f64(), server, verified))
    }

    fn load_spec(&self, server: &ServerHandle, duration: Duration) -> LoadSpec<'_> {
        LoadSpec {
            addr: server.addr(),
            bodies: &self.bodies,
            duration,
            seed: self.seed,
            scrape_every: self.plan.scrape_every,
            swap: self.plan.swap_every.map(|every| SwapPlan {
                every,
                paths: [self.path(0), self.path(1)],
            }),
        }
    }
}

pub fn run(args: &Args, work: &WorkDir) -> Result<Report, String> {
    let (spec, config) = models::recipe(args.workload, args.tiny);
    if args.trace {
        layers::start_training_capture();
    }
    let (bundle, generate_s) = models::generate(&spec);
    let fitted = models::fit(&bundle, &config, generate_s)?;
    let mut report = Report::default();
    let mut fits = vec![fitted.fit_s];
    if args.trace {
        layers::finish_training_capture(&fitted, &mut report);
    } else {
        // The served model's fit is short, so `fit_s` is the median of
        // several; each must reproduce the first one's quality exactly.
        for _ in 1..FIT_REPS {
            let again = models::fit(&bundle, &config, generate_s)?;
            fits.push(again.fit_s);
            report.count(
                1,
                u64::from(again.aucpr.to_bits() != fitted.aucpr.to_bits()),
            );
        }
    }
    drop(bundle);
    let served = Served::prepare(args, args.workload, &fitted, work)?;
    let duration = Duration::from_secs_f64(args.seconds);
    if args.trace {
        // Untraced and traced quarters alternate, so drift hits both arms.
        let quarter = duration / 4;
        let segments = [
            (false, quarter),
            (true, quarter),
            (false, quarter),
            (true, quarter),
        ];
        serve_layers(&served, &segments, &mut report)?;
        return Ok(report);
    }

    let mut setups = Vec::with_capacity(SETUP_REPS);
    let mut server = None;
    for rep in 0..SETUP_REPS {
        drop(server.take());
        let (s, handle, verified) = served.setup_once(rep)?;
        setups.push(s);
        report.count(1, u64::from(!verified));
        server = Some(handle);
    }
    let mut server = server.expect("at least one set-up");
    let result = load::run(&served.load_spec(&server, duration));
    server.shutdown();
    let checked = load::check(&served.bodies, &result);
    report.count(result.attempted(), checked.failed);

    let (rows_per_s, p50_ns, p99_ns) = by_rounds(&checked.ops, args.seconds, ROUNDS);
    println!(
        "load {}: {} requests, {} rows verified, {} scrapes, {} swaps in {:.2} s; \
         medians over {ROUNDS} rounds",
        args.workload.name(),
        checked.ops.len(),
        checked.rows,
        result.scrape_ns.len(),
        result.swap_ns.len(),
        result.elapsed_s
    );
    report.set("setup_s", median(&setups));
    report.set("rows_per_s", rows_per_s);
    report.set("latency_p50_ms", p50_ns / 1e6);
    report.set("latency_p99_ms", p99_ns / 1e6);
    report.set("fit_s", median(&fits));
    report.set("target_aucpr", fitted.aucpr);
    report.set("peak_rss_mb", report::peak_rss_mb()?);
    Ok(report)
}

/// Access-log phases of one request, in microseconds:
/// `[queue_wait, coalesce, engine, serialize]`.
type Phases = [f64; 4];

/// Reads a JSONL access log into request id → phases.
fn read_access_log(path: &Path) -> Result<HashMap<u64, Phases>, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("read {}: {e}", path.display()))?;
    let mut out = HashMap::new();
    for line in text.lines() {
        let doc = Json::parse(line)?;
        let num = |k: &str| doc.get(k).and_then(Json::as_f64).unwrap_or(f64::NAN);
        out.insert(
            num("request_id") as u64,
            [
                num("queue_wait_ns") / 1e3,
                num("coalesce_ns") / 1e3,
                num("engine_ns") / 1e3,
                num("serialize_ns") / 1e3,
            ],
        );
    }
    Ok(out)
}

/// Runs the load `segments` (`(traced, duration)` each, on a fresh server
/// per segment), then the in-isolation layer timings, and records every
/// serve-side per-layer metric plus the attribution table of the median
/// request. Also counts every operation into `report`.
pub fn serve_layers(
    served: &Served<'_>,
    segments: &[(bool, Duration)],
    report: &mut Report,
) -> Result<(), String> {
    let mut untraced_ns = Vec::new();
    // (client latency µs, access-log phases) of every traced request.
    let mut joined: Vec<(f64, Phases)> = Vec::new();
    let (mut scrape_ns, mut swap_ns) = (Vec::new(), Vec::new());
    let (mut batches, mut batch_rows) = (0u64, 0u64);
    let mut sample_response = None;
    for (i, &(traced, duration)) in segments.iter().enumerate() {
        let log = traced.then(|| served.work.file(&format!("access-{i}.jsonl")));
        targad_obs::set_enabled(traced);
        let mut server = served.start(log.clone())?;
        let result = load::run(&served.load_spec(&server, duration));
        let stats = server.batcher().stats();
        server.shutdown();
        targad_obs::set_enabled(false);

        let checked = load::check(&served.bodies, &result);
        report.count(result.attempted(), checked.failed);
        if sample_response.is_none() {
            sample_response = result
                .exchanges
                .iter()
                .find(|e| e.status == 200)
                .map(|e| e.response.clone());
        }
        match log {
            None => untraced_ns.extend(checked.verified.iter().map(|&(_, ns)| ns)),
            Some(path) => {
                let phases = read_access_log(&path)?;
                joined.extend(
                    checked
                        .verified
                        .iter()
                        .filter_map(|(id, ns)| phases.get(id).map(|p| (ns / 1e3, *p))),
                );
                batches += stats.batches;
                batch_rows += stats.rows;
            }
        }
        scrape_ns.extend(result.scrape_ns);
        swap_ns.extend(result.swap_ns);
    }
    if joined.is_empty() {
        return Err("no traced request could be joined with its access-log line".into());
    }

    // Scrapes and swaps the load itself did not issue are probed on an
    // idle server.
    let mut probe = served.start(None)?;
    let mut client = Client::connect(probe.addr()).map_err(|e| e.to_string())?;
    let (mut probes, mut probe_failures) = (0u64, 0u64);
    if scrape_ns.is_empty() {
        for _ in 0..5 {
            probes += 1;
            let t = Instant::now();
            match client.request("GET", "/metrics", "") {
                Ok(r) if r.status == 200 => scrape_ns.push(ns_since(t)),
                _ => probe_failures += 1,
            }
        }
    }
    if swap_ns.is_empty() {
        for s in 1..=4u64 {
            probes += 1;
            let t = Instant::now();
            match load::admin_swap(&mut client, &served.path(usize::from(s % 2 == 1)), s + 1) {
                Ok(()) => swap_ns.push(ns_since(t)),
                Err(_) => probe_failures += 1,
            }
        }
    }
    drop(client);
    probe.shutdown();
    report.count(probes, probe_failures);

    let traced_lat: Vec<f64> = joined.iter().map(|(l, _)| *l).collect();
    let p50_us = median(&traced_lat);
    let phase = |i: usize| -> Vec<f64> { joined.iter().map(|(_, p)| p[i]).collect() };
    report.set("serve.batcher.queue_wait_us", median(&phase(0)));
    report.set("serve.batcher.queue_wait_p99_us", quantile(&phase(0), 0.99));
    report.set("serve.batcher.coalesce_us", median(&phase(1)));
    report.set("serve.serialize_us", median(&phase(3)));
    report.set(
        "serve.batcher.batch_fill",
        batch_rows as f64 / batches.max(1) as f64,
    );
    report.set("obs.scrape_ms", median(&scrape_ns) / 1e6);
    report.set("serve.admin_swap_ms", median(&swap_ns) / 1e6);
    if !untraced_ns.is_empty() {
        report.set(
            "obs.tracing_overhead_share",
            p50_us / (median(&untraced_ns) / 1e3) - 1.0,
        );
    }

    // In-isolation timings of each layer on this workload's bytes and
    // shapes.
    let body = &served.bodies.items[0];
    let response = sample_response.ok_or("no successful /score response to replay")?;
    let tau = served
        .fitted
        .thresholds
        .get(OodStrategy::Msp)
        .ok_or("no msp threshold")?;
    let iso = layers::serve_isolated(served, body, &response, tau)?;
    for (name, value) in iso.metrics() {
        report.set(name, value);
    }
    report.set("nn.engine.share", iso.engine_us / p50_us);
    layers::model_layers(
        &served.fitted.classifier,
        &served.fitted.thresholds,
        served.plan.precision,
        served.work,
        report,
    )?;

    // The attribution table: requests in the 45th–55th percentile band of
    // client latency, their access-log phases averaged.
    joined.sort_by(|a, b| a.0.total_cmp(&b.0));
    let lo = (joined.len() as f64 * 0.45) as usize;
    let hi = ((joined.len() as f64 * 0.55).ceil() as usize).clamp(lo + 1, joined.len());
    let band = &joined[lo..hi];
    let avg =
        |f: &dyn Fn(&(f64, Phases)) -> f64| band.iter().map(f).sum::<f64>() / band.len() as f64;
    let latency = avg(&|r| r.0);
    let rows = [
        ("loopback floor", iso.loopback_rtt_us),
        ("http read", iso.http_read_us),
        ("json parse", iso.json_parse_us),
        ("queue_wait", avg(&|r| r.1[0])),
        ("coalesce", avg(&|r| r.1[1])),
        ("engine", avg(&|r| r.1[2])),
        ("serialize", avg(&|r| r.1[3])),
        ("http write", iso.http_write_us),
    ];
    let explained: f64 = rows.iter().map(|(_, us)| us).sum();
    let unexplained = latency - explained;
    report.set("serve.request_unexplained_share", unexplained / latency);
    println!(
        "attribution of the p50 /score request ({}, {} rows, {} traced requests, \
         band of {} around the median):",
        served.workload.name(),
        served.plan.rows,
        joined.len(),
        band.len()
    );
    for (name, us) in rows.iter().chain([&("unexplained", unexplained)]) {
        println!("  {name:<15} {us:>10.1} us  {:>6.1}%", 100.0 * us / latency);
    }
    println!("  {:<15} {latency:>10.1} us", "client latency");
    Ok(())
}
