//! The closed-loop load generator and its verdict checker.
//!
//! Two client threads, each on its own keep-alive connection, send
//! pre-built `POST /score` bodies back to back. Connection 0 may also
//! scrape `/metrics` on a period, and connection 1 may hot-swap the served
//! model through `/admin/swap`, alternating between snapshot files A and B.
//! Responses are kept and checked after the measured window, so the
//! checker never competes with the server for the CPU.

use std::net::SocketAddr;
use std::time::{Duration, Instant};

use targad_core::{Classifier, EnginePrecision, OodStrategy, Runtime, ThresholdCache};
use targad_linalg::Matrix;
use targad_serve::{Client, Json};

use crate::models::WORKERS;
use crate::stats::Op;

/// Connections (and client threads) the load uses.
pub const CONNECTIONS: usize = 2;

/// One row's expected verdict, as bits.
#[derive(Clone, Copy, PartialEq, Eq)]
struct Expected {
    score: u64,
    class: &'static str,
    threshold: u64,
}

/// One pre-built request body and its expected verdicts on models A and B.
pub struct Body {
    pub json: String,
    /// The body's rows, row-major.
    pub data: Vec<f64>,
    expect: [Vec<Expected>; 2],
}

/// The request pool of one run, drawn by seed from a feature matrix.
pub struct Bodies {
    pub rows: usize,
    pub dims: usize,
    pub items: Vec<Body>,
}

/// SplitMix64: the seeded stream rows are drawn from.
pub struct SplitMix(u64);

impl SplitMix {
    pub fn new(seed: u64) -> Self {
        Self(seed ^ 0x5851_f42d_4c95_7f2d)
    }

    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

impl Bodies {
    /// `count` bodies of `rows` rows each, drawn by `seed` from `pool`, with
    /// expected verdicts computed in process by
    /// `Classifier::verdicts_rt_with_prec` on `models` (A, B) at
    /// `precision`. `corrupt` flips one bit of one expected score, which
    /// the checker must then report.
    #[allow(clippy::too_many_arguments)]
    pub fn build(
        pool: &Matrix,
        rows: usize,
        count: usize,
        seed: u64,
        models: [&Classifier; 2],
        thresholds: &ThresholdCache,
        precision: EnginePrecision,
        corrupt: bool,
    ) -> Result<Self, String> {
        let tau = thresholds
            .get(OodStrategy::Msp)
            .ok_or("model has no msp threshold")?;
        let dims = pool.cols();
        let rt = Runtime::new(WORKERS);
        let mut rng = SplitMix::new(seed);
        let mut items = Vec::with_capacity(count);
        for _ in 0..count {
            let picks: Vec<usize> = (0..rows).map(|_| rng.below(pool.rows())).collect();
            let x = pool.take_rows(&picks);
            let json_rows: Vec<String> = (0..rows)
                .map(|r| {
                    let cells: Vec<String> = x.row(r).iter().map(|v| format!("{v:?}")).collect();
                    format!("[{}]", cells.join(", "))
                })
                .collect();
            let json = format!(
                "{{\"rows\": [{}], \"ood_strategy\": \"msp\"}}",
                json_rows.join(", ")
            );
            let expect = models.map(|clf| {
                clf.verdicts_rt_with_prec(&x, &rt, precision, |_| (OodStrategy::Msp, tau))
                    .into_iter()
                    .map(|(score, class)| Expected {
                        score: score.to_bits(),
                        class: class.name(),
                        threshold: tau.to_bits(),
                    })
                    .collect()
            });
            items.push(Body {
                json,
                data: x.into_vec(),
                expect,
            });
        }
        if corrupt {
            for table in &mut items[0].expect {
                table[0].score ^= 1;
            }
        }
        Ok(Self { rows, dims, items })
    }

    /// Checks one `/score` response against the expected verdicts of the
    /// snapshot its `model_generation` names: generation 1 is A and each
    /// swap alternates, so odd generations are A and even ones B. Returns
    /// the response's request id.
    pub fn verify(&self, body: usize, response: &[u8]) -> Result<u64, String> {
        let text = std::str::from_utf8(response).map_err(|_| "response is not utf-8")?;
        let doc = Json::parse(text)?;
        let number = |key: &str| {
            doc.get(key)
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("response has no `{key}`"))
        };
        let generation = number("model_generation")? as u64;
        let request_id = number("request_id")? as u64;
        let expect = &self.items[body].expect[usize::from(generation.is_multiple_of(2))];
        let verdicts = doc
            .get("verdicts")
            .and_then(Json::as_arr)
            .ok_or("response has no `verdicts`")?;
        if verdicts.len() != expect.len() {
            return Err(format!(
                "{} verdicts for {} rows",
                verdicts.len(),
                expect.len()
            ));
        }
        for (r, (v, e)) in verdicts.iter().zip(expect).enumerate() {
            let got = Expected {
                score: v
                    .get("score")
                    .and_then(Json::as_f64)
                    .map_or(0, f64::to_bits),
                class: match v.get("class").and_then(Json::as_str) {
                    Some(c) if c == e.class => e.class,
                    _ => "",
                },
                threshold: v
                    .get("threshold")
                    .and_then(Json::as_f64)
                    .map_or(0, f64::to_bits),
            };
            if got != *e {
                return Err(format!(
                    "row {r} differs from the in-process verdict (generation {generation})"
                ));
            }
        }
        Ok(request_id)
    }
}

/// Hot swaps issued by connection 1: every `every`, alternating B, A, B, …
pub struct SwapPlan {
    pub every: Duration,
    /// Snapshot files `[A, B]`.
    pub paths: [String; 2],
}

/// One load phase's parameters.
pub struct LoadSpec<'a> {
    pub addr: SocketAddr,
    pub bodies: &'a Bodies,
    pub duration: Duration,
    pub seed: u64,
    /// Connection 0 scrapes `/metrics` on this period.
    pub scrape_every: Option<Duration>,
    pub swap: Option<SwapPlan>,
}

/// One `/score` exchange.
pub struct Exchange {
    pub body: usize,
    /// When the request was sent, in seconds since the phase began.
    pub sent_s: f64,
    pub latency_ns: f64,
    pub status: u16,
    pub response: Vec<u8>,
}

/// Everything one load phase observed.
#[derive(Default)]
pub struct LoadResult {
    pub exchanges: Vec<Exchange>,
    pub scrape_ns: Vec<f64>,
    pub swap_ns: Vec<f64>,
    pub elapsed_s: f64,
    /// Transport errors plus failed scrapes and swaps.
    pub side_failures: u64,
}

impl LoadResult {
    fn absorb(&mut self, other: LoadResult) {
        self.exchanges.extend(other.exchanges);
        self.scrape_ns.extend(other.scrape_ns);
        self.swap_ns.extend(other.swap_ns);
        self.side_failures += other.side_failures;
    }

    /// Operations attempted: requests, scrapes and swaps.
    pub fn attempted(&self) -> u64 {
        (self.exchanges.len() + self.scrape_ns.len() + self.swap_ns.len()) as u64
            + self.side_failures
    }
}

/// The outcome of checking a load phase's responses.
pub struct Checked {
    /// Rows in verified 200 responses.
    pub rows: u64,
    pub failed: u64,
    /// `(request id, client latency ns)` of every verified request.
    pub verified: Vec<(u64, f64)>,
    /// Every exchange as a timed operation.
    pub ops: Vec<Op>,
}

/// Checks every response of `result` against `bodies`.
pub fn check(bodies: &Bodies, result: &LoadResult) -> Checked {
    let mut out = Checked {
        rows: 0,
        failed: result.side_failures,
        verified: Vec::with_capacity(result.exchanges.len()),
        ops: Vec::with_capacity(result.exchanges.len()),
    };
    let mut reported = false;
    for ex in &result.exchanges {
        let outcome = if ex.status == 200 {
            bodies.verify(ex.body, &ex.response)
        } else {
            Err(format!("status {}", ex.status))
        };
        let rows = if outcome.is_ok() {
            bodies.rows as u64
        } else {
            0
        };
        out.ops.push(Op {
            at_s: ex.sent_s,
            ns: ex.latency_ns,
            rows,
        });
        match outcome {
            Ok(id) => {
                out.rows += rows;
                out.verified.push((id, ex.latency_ns));
            }
            Err(e) => {
                out.failed += 1;
                if !reported {
                    eprintln!("perfbench: /score check failed: {e}");
                    reported = true;
                }
            }
        }
    }
    out
}

/// Runs one closed-loop load phase.
pub fn run(spec: &LoadSpec<'_>) -> LoadResult {
    let started = Instant::now();
    let deadline = started + spec.duration;
    let n = spec.bodies.items.len();
    let mut merged = LoadResult::default();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CONNECTIONS)
            .map(|c| {
                let first = (spec.seed as usize + c * n / CONNECTIONS) % n;
                scope.spawn(move || client_loop(spec, c, first, started, deadline))
            })
            .collect();
        for handle in handles {
            merged.absorb(handle.join().expect("client thread"));
        }
    });
    merged.elapsed_s = started.elapsed().as_secs_f64();
    merged
}

fn client_loop(
    spec: &LoadSpec<'_>,
    conn: usize,
    first: usize,
    started: Instant,
    deadline: Instant,
) -> LoadResult {
    let mut out = LoadResult::default();
    let Ok(mut client) = Client::connect(spec.addr) else {
        out.side_failures += 1;
        return out;
    };
    let scrape_every = spec.scrape_every.filter(|_| conn == 0);
    let swap = spec.swap.as_ref().filter(|_| conn == 1);
    let mut next_scrape = scrape_every.map(|p| Instant::now() + p);
    let mut next_swap = swap.map(|s| Instant::now() + s.every);
    let mut swaps = 0u64;
    let mut i = first;
    loop {
        let now = Instant::now();
        if now >= deadline {
            break;
        }
        if let (Some(at), Some(period)) = (next_scrape, scrape_every) {
            if now >= at {
                let t = Instant::now();
                match client.request("GET", "/metrics", "") {
                    Ok(r) if r.status == 200 => out.scrape_ns.push(crate::stats::ns_since(t)),
                    _ => out.side_failures += 1,
                }
                next_scrape = Some(at + period);
                continue;
            }
        }
        if let (Some(at), Some(plan)) = (next_swap, swap) {
            if now >= at {
                swaps += 1;
                let t = Instant::now();
                match admin_swap(
                    &mut client,
                    &plan.paths[usize::from(swaps % 2 == 1)],
                    swaps + 1,
                ) {
                    Ok(()) => out.swap_ns.push(crate::stats::ns_since(t)),
                    Err(e) => {
                        eprintln!("perfbench: /admin/swap failed: {e}");
                        out.side_failures += 1;
                    }
                }
                next_swap = Some(at + plan.every);
                continue;
            }
        }
        let body = i % spec.bodies.items.len();
        i += 1;
        let t = Instant::now();
        match client.request("POST", "/score", &spec.bodies.items[body].json) {
            Ok(r) => out.exchanges.push(Exchange {
                body,
                sent_s: (t - started).as_secs_f64(),
                latency_ns: crate::stats::ns_since(t),
                status: r.status,
                response: r.body,
            }),
            Err(_) => {
                out.side_failures += 1;
                match Client::connect(spec.addr) {
                    Ok(c) => client = c,
                    Err(_) => break,
                }
            }
        }
    }
    out
}

/// `POST /admin/swap` to the snapshot at `path`; the server must answer
/// 200 with generation `expect_generation`.
pub fn admin_swap(client: &mut Client, path: &str, expect_generation: u64) -> Result<(), String> {
    let body = format!("{{\"path\": \"{path}\"}}");
    let r = client
        .request("POST", "/admin/swap", &body)
        .map_err(|e| e.to_string())?;
    if r.status != 200 {
        return Err(format!("status {}: {}", r.status, r.text()));
    }
    let generation = Json::parse(&r.text())?
        .get("generation")
        .and_then(Json::as_f64)
        .ok_or("swap response has no generation")? as u64;
    if generation != expect_generation {
        return Err(format!(
            "swap installed generation {generation}, expected {expect_generation}"
        ));
    }
    Ok(())
}
