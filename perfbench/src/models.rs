//! The model each workload fits and serves.
//!
//! Data and fit seeds are fixed, so every run fits the same model on the
//! same data: `fit_s` measures the same work on every seed and
//! `target_aucpr` is an exact quality guard. The workload seed varies the
//! traffic instead (which rows a request carries, in what order).

use std::time::Instant;

use targad_core::{Classifier, Runtime, TargAd, TargAdConfig, ThresholdCache};
use targad_data::{GeneratorSpec, Preset};
use targad_linalg::Matrix;

use crate::Workload;

/// Seed of the generated dataset.
pub const DATA_SEED: u64 = 7;
/// Seed of `TargAd::fit`.
pub const FIT_SEED: u64 = 1;
/// Worker count of every runtime the benchmark builds (the load comes from
/// at most 2 client threads as well).
pub const WORKERS: usize = 2;

/// Scale of the UNSW-NB15 preset for `fit_unsw`: one fit with the default
/// configuration on 2 workers takes 10–16 s on a 2-vCPU x86-64 VM,
/// depending on host load.
const FIT_UNSW_SCALE: f64 = 0.65;
/// Scale of the UNSW-NB15 preset whose fitted model `score_row1` serves.
const ROW1_SCALE: f64 = 0.02;

/// The generator spec and fit configuration of `workload`.
pub fn recipe(workload: Workload, tiny: bool) -> (GeneratorSpec, TargAdConfig) {
    let quick = TargAdConfig {
        ae_epochs: 2,
        clf_epochs: 2,
        ..TargAdConfig::default()
    };
    match (workload, tiny) {
        (Workload::ScoreRow1, false) => {
            (Preset::UnswNb15.spec(ROW1_SCALE), TargAdConfig::default())
        }
        (Workload::FitUnsw, false) => (
            Preset::UnswNb15.spec(FIT_UNSW_SCALE),
            TargAdConfig::default(),
        ),
        (Workload::ScoreRow1 | Workload::FitUnsw, true) => (Preset::UnswNb15.spec(0.01), quick),
        (Workload::ScoreBatch64, tiny) => {
            // m = 2 target classes plus k = 4 normal groups: a
            // 256 → 1024 → 1024 → 6 classifier (~10.5 MB of f64 weights).
            let spec = GeneratorSpec {
                dims: if tiny { 32 } else { 256 },
                ..GeneratorSpec::quick_demo()
            };
            let config = TargAdConfig {
                k: Some(4),
                clf_hidden: if tiny { vec![32, 32] } else { vec![1024, 1024] },
                ae_epochs: 2,
                clf_epochs: 2,
                ..TargAdConfig::fast()
            };
            (spec, config)
        }
    }
}

/// A fitted, calibrated model plus what the workloads need from its data.
pub struct Fitted {
    pub classifier: Classifier,
    pub thresholds: ThresholdCache,
    /// Test-split features (the rows requests are drawn from).
    pub test: Matrix,
    /// Average precision of the Eq. 9 scores on the test split.
    pub aucpr: f64,
    pub generate_s: f64,
    pub fit_s: f64,
}

/// Generates the workload's data (timed).
pub fn generate(spec: &GeneratorSpec) -> (targad_data::DatasetBundle, f64) {
    let t = Instant::now();
    let bundle = spec.generate(DATA_SEED);
    (bundle, t.elapsed().as_secs_f64())
}

/// Fits `config` on `bundle`'s training split (timed), calibrates the
/// §III-C thresholds on the validation split, and scores the test split.
pub fn fit(
    bundle: &targad_data::DatasetBundle,
    config: &TargAdConfig,
    generate_s: f64,
) -> Result<Fitted, String> {
    let mut model = TargAd::try_new(config.clone())
        .map_err(|e| e.to_string())?
        .with_runtime(Runtime::new(WORKERS));
    let t = Instant::now();
    model
        .fit(&bundle.train, FIT_SEED)
        .map_err(|e| format!("fit: {e}"))?;
    let fit_s = t.elapsed().as_secs_f64();
    let thresholds = model
        .calibrate_thresholds(&bundle.val.features, &bundle.val.three_way_labels())
        .map_err(|e| format!("calibrate: {e}"))?;
    let scores = model
        .try_score_dataset(&bundle.test)
        .map_err(|e| format!("score: {e}"))?;
    let aucpr = targad_metrics::ranking::average_precision(&scores, &bundle.test.target_labels());
    Ok(Fitted {
        classifier: model.classifier().map_err(|e| e.to_string())?.clone(),
        thresholds,
        test: bundle.test.features.clone(),
        aucpr,
        generate_s,
        fit_s,
    })
}

/// A second model of the same shape with different verdicts: the output
/// layer's weights scaled by 1.5. Hot swaps alternate between the two, so
/// a verdict computed on the wrong model cannot pass verification.
pub fn variant(clf: &Classifier) -> Classifier {
    let mut params = clf.parameter_matrices();
    let last_w = params.len() - 2;
    params[last_w] = params[last_w].scale(1.5);
    Classifier::from_parameters(params, clf.m(), clf.k()).expect("same-shape parameters")
}
