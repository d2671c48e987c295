//! Per-layer timings, taken from outside each crate: its public entry
//! points timed in isolation, its existing counters, and the existing
//! phase profile tree. Nothing here adds a span inside a crate.

use std::io::{BufReader, Read as _, Write as _};
use std::net::{TcpListener, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

use targad_core::{Classifier, EnginePrecision, OodStrategy, Runtime, ThresholdCache};
use targad_linalg::{matmul_bias_act_f32_into, EpiAct, Matrix, PackedF32};
use targad_obs::{metrics, profile};
use targad_serve::http::{read_request, write_request, write_response};
use targad_serve::{Json, MicroBatcher, ModelRegistry, ModelSnapshot};

use crate::load::Body;
use crate::models::{Fitted, WORKERS};
use crate::report::Report;
use crate::serve::Served;
use crate::stats::{median, ns_per_call, ns_since};
use crate::WorkDir;

/// Samples per in-isolation timing (each sample lasts ≥ 0.2 ms).
const SAMPLES: usize = 21;

/// Layer dimensions of the classifier one UNSW-NB15 training step runs
/// (196 → 64 → 32 → m + k with m = 3, k = 4) and its batch size.
const UNSW_STEP_DIMS: [usize; 4] = [196, 64, 32, 7];
const UNSW_STEP_BATCH: usize = 128;

/// Resets the workspace counters and phase timers and turns telemetry on,
/// so the fit that follows fills them.
pub fn start_training_capture() {
    metrics::reset_all();
    profile::reset_all();
    targad_obs::set_enabled(true);
}

/// Turns telemetry off and records the training-path metrics of the fit
/// that just ran from the counters and the profile tree.
pub fn finish_training_capture(fitted: &Fitted, report: &mut Report) {
    targad_obs::set_enabled(false);
    let share = |part: &profile::PhaseTimer| {
        let whole = profile::PHASE_STEP.total_ns();
        if whole == 0 {
            0.0
        } else {
            part.total_ns() as f64 / whole as f64
        }
    };
    let select_s = profile::PHASE_SELECT.total_ns() as f64 / 1e9;
    let steps = profile::PHASE_STEP.count().max(1) as f64;
    let waits = metrics::POOL_QUEUE_WAIT_NS.count().max(1) as f64;
    report.set("data.generate_s", fitted.generate_s);
    report.set("core.select_s", select_s);
    report.set("core.clf_s", fitted.fit_s - select_s);
    report.set(
        "cluster.kmeans_ms",
        profile::PHASE_SELECT_KMEANS.total_ns() as f64 / 1e6,
    );
    report.set(
        "nn.train_step_us",
        profile::PHASE_STEP.total_ns() as f64 / steps / 1e3,
    );
    report.set("nn.step.forward_share", share(&profile::PHASE_STEP_FORWARD));
    report.set(
        "nn.step.backward_share",
        share(&profile::PHASE_STEP_BACKWARD),
    );
    report.set(
        "nn.step.backward_gemm_share",
        share(&profile::PHASE_STEP_BACKWARD_GEMM),
    );
    report.set("nn.step.reduce_share", share(&profile::PHASE_STEP_REDUCE));
    report.set(
        "linalg.gemm.dispatch_naive",
        metrics::GEMM_NAIVE_DISPATCHES.get() as f64,
    );
    report.set(
        "linalg.gemm.dispatch_small",
        metrics::GEMM_SMALL_DISPATCHES.get() as f64,
    );
    report.set(
        "linalg.gemm.dispatch_blocked",
        metrics::GEMM_KERNEL_DISPATCHES.get() as f64,
    );
    report.set(
        "runtime.pool_queue_wait_us",
        metrics::POOL_QUEUE_WAIT_NS.sum() as f64 / waits / 1e3,
    );
    println!("{}", profile::render_tree().trim_end());
}

/// Serve-path layers timed in isolation on one workload request.
pub struct Isolated {
    pub loopback_rtt_us: f64,
    pub http_read_us: f64,
    pub http_write_us: f64,
    pub json_parse_us: f64,
    json_ns_per_value: f64,
    submit_us: f64,
    resolve_ns: f64,
    swap_ms: f64,
    pub engine_us: f64,
}

impl Isolated {
    pub fn metrics(&self) -> [(&'static str, f64); 9] {
        [
            ("serve.loopback_rtt_us", self.loopback_rtt_us),
            ("serve.http.read_us", self.http_read_us),
            ("serve.http.write_us", self.http_write_us),
            ("serve.json.parse_us", self.json_parse_us),
            ("serve.json.parse_ns_per_value", self.json_ns_per_value),
            ("serve.batcher.submit_us", self.submit_us),
            ("serve.registry.resolve_ns", self.resolve_ns),
            ("serve.registry.swap_ms", self.swap_ms),
            ("nn.engine.batch_us", self.engine_us),
        ]
    }
}

/// Times the serve layers on `body` (the request) and `response` (a
/// recorded response body of the same workload).
pub fn serve_isolated(
    served: &Served<'_>,
    body: &Body,
    response: &[u8],
    tau: f64,
) -> Result<Isolated, String> {
    let mut request_wire = Vec::new();
    write_request(
        &mut request_wire,
        "POST",
        "/score",
        "127.0.0.1:8080",
        &[],
        body.json.as_bytes(),
    )
    .map_err(|e| e.to_string())?;
    let mut response_wire = Vec::with_capacity(response.len() + 128);
    write_response(&mut response_wire, 200, response, "application/json", true)
        .map_err(|e| e.to_string())?;

    let http_read_ns = ns_per_call(SAMPLES, || {
        let mut reader = BufReader::new(&request_wire[..]);
        read_request(&mut reader)
            .ok()
            .flatten()
            .expect("recorded request parses");
    });
    let mut out = Vec::with_capacity(response_wire.len());
    let http_write_ns = ns_per_call(SAMPLES, || {
        out.clear();
        write_response(&mut out, 200, response, "application/json", true).expect("in-memory write");
    });
    let json_ns = ns_per_call(SAMPLES, || {
        Json::parse(&body.json).expect("request body parses");
    });

    let fitted = served.fitted;
    let precision = served.plan.precision;
    let (rows, dims) = (served.bodies.rows, served.bodies.dims);
    let registry = Arc::new(ModelRegistry::with_precision(
        ModelSnapshot::new(fitted.classifier.clone(), fitted.thresholds, "a"),
        precision,
    ));
    let resolve_ns = ns_per_call(SAMPLES, || {
        registry.resolve(None).expect("default tenant resolves");
    });
    let submit_us = submit_us(served, &registry, &body.data, rows, dims)?;

    let mut swaps = Vec::new();
    for _ in 0..5 {
        let loaded = targad_store::load(&served.paths[1]).map_err(|e| e.to_string())?;
        let next = ModelSnapshot::new(loaded.classifier, loaded.thresholds, "b");
        let t = Instant::now();
        registry.try_swap(next).map_err(|e| e.to_string())?;
        swaps.push(ns_since(t));
    }

    let x = Matrix::from_vec(rows, dims, body.data.clone());
    let rt = Runtime::new(WORKERS);
    let engine_ns = ns_per_call(SAMPLES, || {
        fitted
            .classifier
            .verdicts_rt_with_prec(&x, &rt, precision, |_| (OodStrategy::Msp, tau));
    });

    Ok(Isolated {
        loopback_rtt_us: loopback_rtt_ns(request_wire.len(), response_wire.len())? / 1e3,
        http_read_us: http_read_ns / 1e3,
        http_write_us: http_write_ns / 1e3,
        json_parse_us: json_ns / 1e3,
        json_ns_per_value: json_ns / (rows * dims) as f64,
        submit_us,
        resolve_ns,
        swap_ms: median(&swaps) / 1e6,
        engine_us: engine_ns / 1e3,
    })
}

/// Median latency of in-process `MicroBatcher::submit` with the workload's
/// row count, from 2 threads in a closed loop — the HTTP path minus HTTP.
fn submit_us(
    served: &Served<'_>,
    registry: &Arc<ModelRegistry>,
    data: &[f64],
    rows: usize,
    dims: usize,
) -> Result<f64, String> {
    let config = targad_serve::ServeConfig::builder()
        .precision(served.plan.precision)
        .build()
        .map_err(|e| e.to_string())?;
    let batcher = MicroBatcher::start(&config, Arc::clone(registry), Runtime::new(WORKERS));
    let deadline = Instant::now() + Duration::from_millis(600);
    let mut latencies = Vec::new();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..2)
            .map(|_| {
                scope.spawn(|| {
                    let mut lat = Vec::new();
                    while Instant::now() < deadline {
                        let t = Instant::now();
                        let scored = batcher.submit(data.to_vec(), rows, dims, OodStrategy::Msp);
                        lat.push(ns_since(t));
                        if scored.is_err() {
                            return Err("in-process submit failed".to_string());
                        }
                    }
                    Ok(lat)
                })
            })
            .collect();
        for h in handles {
            latencies.extend(h.join().expect("submit thread")?);
        }
        Ok::<(), String>(())
    })?;
    batcher.shutdown();
    Ok(median(&latencies) / 1e3)
}

/// Median round trip of `request` bytes out and `response` bytes back over
/// a bare loopback TCP connection: the floor under any HTTP request.
fn loopback_rtt_ns(request: usize, response: usize) -> Result<f64, String> {
    let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| e.to_string())?;
    let addr = listener.local_addr().map_err(|e| e.to_string())?;
    std::thread::scope(|scope| {
        let echo = scope.spawn(move || -> std::io::Result<()> {
            let (mut s, _) = listener.accept()?;
            s.set_nodelay(true)?;
            let mut inbuf = vec![0u8; request];
            let outbuf = vec![b'x'; response];
            while s.read_exact(&mut inbuf).is_ok() {
                s.write_all(&outbuf)?;
            }
            Ok(())
        });
        let rtt = (|| -> std::io::Result<f64> {
            let mut c = TcpStream::connect(addr)?;
            c.set_nodelay(true)?;
            let out = vec![b'y'; request];
            let mut back = vec![0u8; response];
            let mut failed = None;
            let ns = ns_per_call(SAMPLES, || {
                if let Err(e) = c.write_all(&out).and_then(|()| c.read_exact(&mut back)) {
                    failed = Some(e);
                }
            });
            failed.map_or(Ok(ns), Err)
        })();
        let served = echo.join().expect("echo thread");
        let ns = rtt.map_err(|e| format!("loopback probe: {e}"))?;
        served.map_err(|e| format!("loopback echo: {e}"))?;
        Ok(ns)
    })
}

/// Kernel, runtime and store layers on the workload's model, recorded into
/// `report`.
pub fn model_layers(
    clf: &Classifier,
    thresholds: &ThresholdCache,
    precision: EnginePrecision,
    work: &WorkDir,
    report: &mut Report,
) -> Result<(), String> {
    // f32: the classifier's layer shapes at m = 64 rows.
    let params = clf.parameter_matrices();
    let layers: Vec<(PackedF32, Vec<f32>, EpiAct)> = params
        .chunks(2)
        .enumerate()
        .map(|(i, wb)| {
            let act = if 2 * i + 2 == params.len() {
                EpiAct::None
            } else {
                EpiAct::Relu
            };
            let bias = wb[1].as_slice().iter().map(|&v| v as f32).collect();
            (PackedF32::from_matrix(&wb[0]), bias, act)
        })
        .collect();
    const M: usize = 64;
    let inputs: Vec<Vec<f32>> = layers
        .iter()
        .map(|(w, _, _)| {
            (0..M * w.k())
                .map(|i| ((i % 97) as f32 - 48.0) / 97.0)
                .collect()
        })
        .collect();
    let mut outputs: Vec<Vec<f32>> = layers
        .iter()
        .map(|(w, _, _)| vec![0.0; M * w.n()])
        .collect();
    let flops: usize = layers.iter().map(|(w, _, _)| 2 * M * w.k() * w.n()).sum();
    let bytes: usize = layers
        .iter()
        .map(|(w, b, _)| w.bytes() + 4 * (M * w.k() + M * w.n() + b.len()))
        .sum();
    let f32_ns = ns_per_call(SAMPLES, || {
        for ((w, b, act), (x, out)) in layers.iter().zip(inputs.iter().zip(outputs.iter_mut())) {
            matmul_bias_act_f32_into(x, w.k(), w, b, *act, out);
        }
    });
    report.set("linalg.f32.gemm_gflops", flops as f64 / f32_ns);
    println!(
        "f32 gemm: {} layers at m={M}, {flops} FLOP and {bytes} bytes per call, {:.1} us",
        layers.len(),
        f32_ns / 1e3
    );

    // f64: forward (nn) and both backward GEMMs (tn, nt) of one UNSW-NB15
    // classifier step.
    let fill = |r: usize, c: usize| {
        Matrix::from_fn(r, c, |i, j| ((i * 31 + j * 7) % 13) as f64 / 13.0 - 0.5)
    };
    let b = UNSW_STEP_BATCH;
    let mut shapes: Vec<[Matrix; 6]> = UNSW_STEP_DIMS
        .windows(2)
        .map(|d| {
            let (din, dout) = (d[0], d[1]);
            [
                fill(b, din),           // x
                fill(din, dout),        // w
                fill(b, dout),          // dz
                Matrix::zeros(b, dout), // z
                Matrix::zeros(din, dout),
                Matrix::zeros(b, din),
            ]
        })
        .collect();
    let f64_ns = ns_per_call(SAMPLES, || {
        for [x, w, dz, z, dw, dx] in shapes.iter_mut() {
            x.matmul_into(w, z);
            x.matmul_tn_into(dz, dw);
            dz.matmul_nt_into(w, dx);
        }
    });
    report.set("linalg.f64.gemm_us", f64_ns / 1e3);

    let rt = Runtime::new(WORKERS);
    let mut slots = [0u64; WORKERS];
    let dispatch_ns = ns_per_call(SAMPLES, || {
        rt.par_chunks(&mut slots, |offset, chunk| chunk[0] = offset as u64);
    });
    report.set("runtime.dispatch_us", dispatch_ns / 1e3);

    // store: save and mmap-load, each to its own file (a file a live
    // mapping reads is never rewritten).
    let (mut saves, mut loads, mut copied) = (Vec::new(), Vec::new(), 0usize);
    for rep in 0..5 {
        let path = work.file(&format!("store-{rep}.tgsnp"));
        let t = Instant::now();
        targad_store::save(clf, thresholds, precision, &path).map_err(|e| e.to_string())?;
        saves.push(ns_since(t));
        let t = Instant::now();
        let loaded = targad_store::load(&path).map_err(|e| e.to_string())?;
        loads.push(ns_since(t));
        copied = loaded.classifier.parameter_bytes();
    }
    report.set("store.save_ms", median(&saves) / 1e6);
    report.set("store.load_mmap_ms", median(&loads) / 1e6);
    report.set("store.mmap_copied_bytes", copied as f64);
    Ok(())
}
