//! `fit_unsw`: `TargAd::fit` on the UNSW-NB15 preset, then scoring of the
//! test split — the training stack with serve, store and f32 bypassed.

use std::time::{Duration, Instant};

use targad_core::{EnginePrecision, OodStrategy, Runtime};
use targad_linalg::Matrix;

use crate::layers;
use crate::load::SplitMix;
use crate::models::{self, Fitted};
use crate::report::{self, Report};
use crate::serve::{self, Served};
use crate::stats::{by_rounds, median, ns_since, Op, ROUNDS};
use crate::{Args, WorkDir, Workload};

/// Data generations per run; `setup_s` is their median.
const SETUP_REPS: usize = 5;
/// Rows per in-process scoring call over the test split: long enough
/// (about 1 ms) that a call's latency is not one scheduler hiccup.
const SCORE_BATCH: usize = 1024;

pub fn run(args: &Args, work: &WorkDir) -> Result<Report, String> {
    let (spec, config) = models::recipe(Workload::FitUnsw, args.tiny);
    let mut report = Report::default();
    let mut generations = Vec::with_capacity(SETUP_REPS);
    let mut bundle = None;
    for _ in 0..SETUP_REPS {
        let (b, s) = models::generate(&spec);
        generations.push(s);
        bundle = Some(b);
    }
    let bundle = bundle.expect("at least one generation");
    let generate_s = median(&generations);

    if args.trace {
        // One untraced and one traced fit: the second fills the counters
        // and the profile tree, and their ratio is the tracing overhead.
        let untraced = models::fit(&bundle, &config, generate_s)?;
        layers::start_training_capture();
        let fitted = models::fit(&bundle, &config, generate_s)?;
        layers::finish_training_capture(&fitted, &mut report);
        report.count(
            2,
            u64::from(untraced.aucpr.to_bits() != fitted.aucpr.to_bits()),
        );
        drop(bundle);
        // The serve layers, probed with score_row1's traffic shape on the
        // fitted model.
        let served = Served::prepare(args, Workload::FitUnsw, &fitted, work)?;
        let probe = Duration::from_secs_f64((args.seconds / 10.0).clamp(0.5, 2.0));
        serve::serve_layers(&served, &[(true, probe)], &mut report)?;
        report.set(
            "obs.tracing_overhead_share",
            fitted.fit_s / untraced.fit_s - 1.0,
        );
        return Ok(report);
    }

    // At least two fits, and another only while it is expected to end
    // within `--seconds`.
    let started = Instant::now();
    let mut fits: Vec<f64> = Vec::new();
    let mut last: Option<Fitted> = None;
    let mut mismatched = 0u64;
    while fits.len() < 2 || started.elapsed().as_secs_f64() + median(&fits) <= args.seconds {
        let fitted = models::fit(&bundle, &config, generate_s)?;
        fits.push(fitted.fit_s);
        if let Some(previous) = &last {
            if previous.aucpr.to_bits() != fitted.aucpr.to_bits() {
                eprintln!(
                    "perfbench: target_aucpr {} differs from the previous fit's {}",
                    fitted.aucpr, previous.aucpr
                );
                mismatched += 1;
            }
        }
        last = Some(fitted);
    }
    let fitted = last.expect("at least two fits");
    report.count(fits.len() as u64, mismatched);

    let scoring = Duration::from_secs_f64((args.seconds / 4.0).clamp(0.5, 5.0));
    let ops = score_test_split(&fitted, args.seed, scoring, args.corrupt_expected)?;
    let failed = ops.iter().filter(|op| op.rows == 0).count() as u64;
    report.count(ops.len() as u64, failed);
    let (rows_per_s, p50_ns, p99_ns) = by_rounds(&ops, scoring.as_secs_f64(), ROUNDS);
    println!(
        "fit_unsw: {} fits {:?} s; {} scoring calls of {SCORE_BATCH} rows in {:.2} s",
        fits.len(),
        fits,
        ops.len(),
        scoring.as_secs_f64()
    );
    report.set("setup_s", generate_s);
    report.set("rows_per_s", rows_per_s);
    report.set("latency_p50_ms", p50_ns / 1e6);
    report.set("latency_p99_ms", p99_ns / 1e6);
    report.set("fit_s", median(&fits));
    report.set("target_aucpr", fitted.aucpr);
    report.set("peak_rss_mb", report::peak_rss_mb()?);
    Ok(report)
}

/// Scores the test split in seed-shuffled `SCORE_BATCH`-row calls for
/// `duration`, checking every verdict bit for bit against one whole-split
/// call (`corrupt` flips one bit of that reference). A call that differs
/// completes 0 rows. Scoring runs on one worker: a call this short would
/// otherwise time the pool's cross-core wake-up more than the engine.
fn score_test_split(
    fitted: &Fitted,
    seed: u64,
    duration: Duration,
    corrupt: bool,
) -> Result<Vec<Op>, String> {
    let tau = fitted
        .thresholds
        .get(OodStrategy::Msp)
        .ok_or("no msp threshold")?;
    let rt = Runtime::serial();
    let clf = &fitted.classifier;
    let score = |x: &Matrix| {
        clf.verdicts_rt_with_prec(x, &rt, EnginePrecision::F64, |_| (OodStrategy::Msp, tau))
    };
    let mut reference = score(&fitted.test);
    if corrupt {
        reference[0].0 = f64::from_bits(reference[0].0.to_bits() ^ 1);
    }
    let mut order: Vec<usize> = (0..fitted.test.rows()).collect();
    let mut rng = SplitMix::new(seed);
    for i in (1..order.len()).rev() {
        order.swap(i, rng.below(i + 1));
    }
    let batches: Vec<(Vec<usize>, Matrix)> = order
        .chunks(SCORE_BATCH)
        .map(|idx| (idx.to_vec(), fitted.test.take_rows(idx)))
        .collect();
    let mut ops = Vec::new();
    let started = Instant::now();
    'outer: loop {
        for (idx, x) in &batches {
            if started.elapsed() >= duration {
                break 'outer;
            }
            let t = Instant::now();
            let got = score(x);
            let ns = ns_since(t);
            let same = got.len() == idx.len()
                && got.iter().zip(idx).all(|(&(s, c), &r)| {
                    s.to_bits() == reference[r].0.to_bits() && c == reference[r].1
                });
            ops.push(Op {
                at_s: (t - started).as_secs_f64(),
                ns,
                rows: if same { idx.len() as u64 } else { 0 },
            });
        }
    }
    Ok(ops)
}
