//! End-to-end benchmark of `cluster_serve`.
//!
//! ```text
//! perfbench --server <cluster_serve binary> --workload <name> --seed <n> \
//!           --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` spawns a fresh `cluster_serve` (default configuration:
//! 2 replicas × 2 workers, pool 2), sends the workload's seeded,
//! count-bounded request sequence closed-loop, checks every response and
//! prints the end-to-end metrics. `--trace 1` replays a prefix of the same
//! sequence layer by layer (see `trace.rs`) and prints the per-layer
//! metrics. The last stdout line is the JSON result; the exit code is
//! non-zero when any response was invalid.

mod check;
mod drive;
mod stats;
mod trace;
mod wire;
mod workload;

use drive::{fan_out, ms};
use runtime::{derive_seed, Json, Rng, Xoshiro256PlusPlus};
use server::proto::{CohortParams, RequestBody};
use std::net::SocketAddr;
use std::path::PathBuf;
use std::time::{Duration, Instant};
use wire::{Cluster, Conn};
use workload::{Plan, Req, Workload};

/// Fresh spawns whose median is the reported set-up time.
const SETUP_SPAWNS: usize = 9;
/// Cohort shards re-run in-process to compare digests.
const DIGEST_SAMPLES: usize = 2;

/// A run's result: metrics in print order and the tally of checked
/// operations.
#[derive(Default)]
pub struct Report {
    /// `(name, value, unit)`.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// Checked operations.
    pub attempted: u64,
    /// Checked operations that failed.
    pub failed: u64,
}

impl Report {
    /// Counts a failure and says why on stderr.
    pub fn fail(&mut self, why: String) {
        self.failed += 1;
        eprintln!("perfbench: FAIL {why}");
    }

    /// Counts one answered request, checks it, and returns it when valid.
    pub fn checked(
        &mut self,
        req: &Req,
        out: Result<(Json, Duration), String>,
    ) -> Option<(Json, Duration)> {
        self.attempted += 1;
        let verdict = out.and_then(|(doc, rtt)| {
            check::response(req, &doc)?;
            Ok((doc, rtt))
        });
        verdict.map_err(|e| self.fail(e)).ok()
    }

    fn print(&self) -> bool {
        let finite = self.metrics.iter().all(|(_, v, _)| v.is_finite());
        let correct = self.failed == 0 && finite && self.attempted > 0;
        let metrics = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                let v = if value.is_finite() { *value } else { 0.0 };
                let entry = Json::obj(vec![
                    ("value", Json::Num(v)),
                    ("unit", Json::Str((*unit).into())),
                ]);
                (name.to_string(), entry)
            })
            .collect();
        // Built by hand: `attempted` and `failed` must print as integers.
        println!(
            "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{}}}",
            self.attempted,
            self.failed,
            Json::Obj(metrics)
        );
        correct
    }
}

struct Args {
    server: PathBuf,
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut server = None;
    let mut workload = None;
    let mut seed = 1;
    let mut seconds = 10;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag} {value}: not a number"))
        };
        match flag.as_str() {
            "--server" => server = Some(PathBuf::from(&value)),
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or(format!("unknown workload {value}"))?)
            }
            "--seed" => seed = number()?,
            "--seconds" => seconds = number()?.clamp(1, 60),
            "--trace" => trace = number()? != 0,
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        server: server.ok_or("--server is required")?,
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

fn main() {
    let args = parse_args().unwrap_or_else(|e| {
        eprintln!("perfbench: {e}");
        std::process::exit(2);
    });
    let plan = workload::plan(args.workload, args.seed, args.seconds);
    let mut report = Report::default();
    println!(
        "perfbench: workload {} seed {} trace {} requests {} connections {}",
        args.workload.name(),
        args.seed,
        u8::from(args.trace),
        plan.timed.len(),
        args.workload.connections(),
    );
    if args.trace {
        trace::run(
            &args.server,
            &plan,
            args.workload.trace_prefix(args.seconds),
            &mut report,
        );
    } else {
        measure(&args, &plan, &mut report);
    }
    for (name, value, unit) in &report.metrics {
        println!("metric {name} = {value} {unit}");
    }
    if !report.print() {
        std::process::exit(1);
    }
}

/// Sends `plan`'s warm-up request, untimed.
pub fn warm_up(addr: SocketAddr, plan: &Plan, report: &mut Report) {
    let mut conn = Conn::open(addr).unwrap_or_else(|e| panic!("connect for warm-up: {e}"));
    let out = conn
        .call(plan.warmup.endpoint, &plan.warmup.params)
        .map_err(|e| e.to_string());
    report.checked(&plan.warmup, out);
}

/// The untraced run: set-up, warm-up, the timed sequence, checks.
fn measure(args: &Args, plan: &Plan, report: &mut Report) {
    let mut setups = Vec::new();
    let mut cluster = None;
    for _ in 0..SETUP_SPAWNS {
        if let Some(previous) = cluster.take() {
            Cluster::stop(previous);
        }
        let spawned = Cluster::spawn(&args.server).unwrap_or_else(|e| panic!("cluster_serve: {e}"));
        setups.push(spawned.setup.as_secs_f64());
        cluster = Some(spawned);
    }
    let cluster = cluster.expect("at least one spawn");
    warm_up(cluster.addr, plan, report);

    let conns = wire::connect(cluster.addr, args.workload.connections());
    // Sending stops at this deadline, so a slow host or program does not
    // stretch the run far past `--seconds`; unsent requests are not
    // attempted.
    let deadline = Instant::now() + Duration::from_secs_f64(1.5 * args.seconds as f64);
    let start = Instant::now();
    let outcomes = fan_out(&plan.timed, conns, |mut conn, share| {
        share
            .iter()
            .map(|(_, req)| {
                if Instant::now() >= deadline {
                    return None;
                }
                Some(
                    conn.call(req.endpoint, &req.params)
                        .map_err(|e| e.to_string()),
                )
            })
            .collect()
    });
    let wall = start.elapsed();
    let rss = cluster.peak_rss_mb().unwrap_or_else(|e| {
        report.fail(format!("peak RSS: {e}"));
        0.0
    });
    cluster.stop();

    let prefix = args.workload.trace_prefix(args.seconds);
    let (mut latencies, mut prefix_latencies) = (Vec::new(), Vec::new());
    let (mut sent, mut work, mut cached) = (0usize, 0u64, 0usize);
    let mut digests = Vec::new();
    for (i, (req, out)) in plan.timed.iter().zip(outcomes).enumerate() {
        let Some(out) = out else { continue };
        sent += 1;
        let Some((doc, rtt)) = report.checked(req, out) else {
            continue;
        };
        latencies.push(ms(rtt));
        if i < prefix {
            prefix_latencies.push(ms(rtt));
        }
        work += req.work;
        let result = doc.get("result").expect("checked response has a result");
        cached += usize::from(result.get("cached") == Some(&Json::Bool(true)));
        if let (RequestBody::Cohort(p), Some(digest)) =
            (&req.body, result.get("digest").and_then(Json::as_str))
        {
            digests.push((p.clone(), digest.to_string()));
        }
    }
    verify_cohort_digests(args.seed, &digests, report);

    let tail = stats::tail(&latencies);
    let failed = sent - latencies.len();
    println!(
        "perfbench: latency_tail_ms is p{:.1} of n={} ({} samples beyond it)",
        tail.percentile, tail.n, tail.beyond
    );
    // The traced run's `trace.latency_p50_ms` covers the same requests;
    // the two differ by the tracing overhead.
    println!(
        "perfbench: latency_p50_ms over the traced prefix ({prefix} requests) = {} ms",
        stats::median(&prefix_latencies)
    );
    println!(
        "perfbench: error_rate = {} ({failed} of {sent} requests failed)",
        failed as f64 / sent.max(1) as f64
    );
    println!(
        "perfbench: property repeat_share = {:.3} (route identity repeats an earlier one), measured cache hit ratio = {:.3}",
        workload::repeat_share(&plan.timed),
        cached as f64 / sent.max(1) as f64,
    );
    println!(
        "perfbench: throughput counts {} per second over {:.3} s",
        if plan.workload == Workload::CohortCampaign {
            "patients"
        } else {
            "requests"
        },
        wall.as_secs_f64()
    );
    let m = &mut report.metrics;
    m.push(("latency_p50_ms", stats::median(&latencies), "ms"));
    m.push(("latency_tail_ms", tail.value, "ms"));
    m.push(("throughput_per_s", work as f64 / wall.as_secs_f64(), "1/s"));
    m.push(("peak_rss_mb", rss, "MB"));
    m.push(("setup_s", stats::median(&setups), "s"));
}

/// Re-runs a seeded sample of the answered cohort shards in-process with
/// `Cohort::run_serial` and compares digests with the served ones.
fn verify_cohort_digests(seed: u64, served: &[(CohortParams, String)], report: &mut Report) {
    if served.is_empty() {
        return;
    }
    let mut rng = Xoshiro256PlusPlus::seed_from_u64(derive_seed(seed, 3));
    for _ in 0..DIGEST_SAMPLES {
        let (p, digest) = &served[rng.index(served.len())];
        let local = format!("{:016x}", p.to_cohort().run_serial().digest());
        report.attempted += 1;
        if *digest != local {
            report.fail(format!(
                "cohort offset {}: served digest {digest}, in-process {local}",
                p.offset
            ));
        }
    }
}
