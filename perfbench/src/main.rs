//! The TargAD benchmark: three workloads measured end to end, plus a traced
//! run that times every layer's public entry points from outside.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload score_row1 --seed 1 --seconds 20 --trace 0
//! ```
//!
//! Workloads (see `perfbench/README.md` for the reasoning):
//!
//! - `score_row1` — one-row `POST /score` over 2 keep-alive connections
//!   against the default f64 server, one `/metrics` scrape per second.
//! - `score_batch64` — 64-row `POST /score` at f32 against the
//!   256→1024→1024→6 classifier, with an `/admin/swap` about every 2 s.
//! - `fit_unsw` — `TargAd::fit` on the UNSW-NB15 preset, then scoring of
//!   the test split.
//!
//! `--trace 0` prints the end-to-end metrics; `--trace 1` prints the
//! per-layer metrics. The last stdout line is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`. Every line before it is
//! human-readable context: the host fingerprint and, in traced serve runs,
//! the request attribution table.
//!
//! Two extra flags exist for the self-test (`cargo test --release
//! --manifest-path perfbench/Cargo.toml`): `--tiny` swaps in small models
//! so a workload runs in about a second, and `--corrupt-expected` flips one
//! bit of the expected-verdict table so the checker must report failures.

mod fit;
mod layers;
mod load;
mod models;
mod report;
mod serve;
mod stats;

use std::path::PathBuf;

use report::Report;

/// The three workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    ScoreRow1,
    ScoreBatch64,
    FitUnsw,
}

impl Workload {
    fn parse(name: &str) -> Option<Self> {
        match name {
            "score_row1" => Some(Self::ScoreRow1),
            "score_batch64" => Some(Self::ScoreBatch64),
            "fit_unsw" => Some(Self::FitUnsw),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Self::ScoreRow1 => "score_row1",
            Self::ScoreBatch64 => "score_batch64",
            Self::FitUnsw => "fit_unsw",
        }
    }
}

/// Parsed command line.
pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub tiny: bool,
    pub corrupt_expected: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 10.0f64;
    let mut trace = false;
    let mut tiny = false;
    let mut corrupt_expected = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload = Some(
                    Workload::parse(&name).ok_or_else(|| format!("unknown workload `{name}`"))?,
                );
            }
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds > 0.0 && seconds.is_finite()) {
                    return Err("--seconds must be positive".into());
                }
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, got `{other}`")),
                }
            }
            "--tiny" => tiny = true,
            "--corrupt-expected" => corrupt_expected = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
        tiny,
        corrupt_expected,
    })
}

/// A scratch directory inside the working directory, removed on drop.
pub struct WorkDir(PathBuf);

impl WorkDir {
    fn new(workload: Workload) -> Result<Self, String> {
        let dir = PathBuf::from(".bench_work").join(format!(
            "{}-{}",
            workload.name(),
            std::process::id()
        ));
        std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        Ok(Self(dir))
    }

    pub fn file(&self, name: &str) -> PathBuf {
        self.0.join(name)
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // Leave no empty parent behind either (fails harmlessly while
        // another run still uses it).
        let _ = std::fs::remove_dir(".bench_work");
    }
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    // End-to-end numbers are measured with telemetry off, whatever the
    // environment says; traced runs turn it on around what they trace.
    targad_obs::set_enabled(false);
    let result = WorkDir::new(args.workload).and_then(|work| {
        report::print_fingerprint(&args);
        match args.workload {
            Workload::ScoreRow1 | Workload::ScoreBatch64 => serve::run(&args, &work),
            Workload::FitUnsw => fit::run(&args, &work),
        }
    });
    match result.and_then(|r: Report| r.into_line(args.trace)) {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}
