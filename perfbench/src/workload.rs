//! Seeded request sequences, one per workload.
//!
//! A run's sequence is a pure function of (workload, seed, seconds):
//! its length comes from `--seconds` and a fixed per-workload rate, never
//! from the clock, so two runs of the same seed send the same requests
//! whatever the host does meanwhile.

use runtime::{derive_seed, Json, Rng, Xoshiro256PlusPlus};
use server::proto::{DecodeLimits, RequestBody};
use std::collections::HashSet;

/// Shard size of the `cohort_campaign` workload.
pub const SHARD_PATIENTS: u64 = 20;

/// The traffic mixes the benchmark drives through `cluster_serve`. Every
/// client sends its next request as soon as the previous answer arrives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The default Fig. 11 request through the multi-rate co-simulation
    /// (shortened preset), back to back on one connection with a distinct
    /// `r_load` each time: relaxation, per-iteration pool dispatch and the
    /// compiled-transient calibration probes dominate, with a visible proxy
    /// share in the RTT.
    Fig11Cosim,
    /// A campaign client: two connections send distinct 20-patient cohort
    /// shards of one seed, keeping both replicas and both cores busy.
    /// Throughput-bound with queue waits instead of latency-bound, and the
    /// only mix that loads the scenario crate.
    CohortCampaign,
}

impl Workload {
    /// Parses a workload name as given on the command line.
    pub fn parse(name: &str) -> Option<Workload> {
        match name {
            "fig11_cosim" => Some(Workload::Fig11Cosim),
            "cohort_campaign" => Some(Workload::CohortCampaign),
            _ => None,
        }
    }

    /// The command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Fig11Cosim => "fig11_cosim",
            Workload::CohortCampaign => "cohort_campaign",
        }
    }

    /// Client connections (and driving threads).
    pub fn connections(self) -> usize {
        match self {
            Workload::CohortCampaign => 2,
            Workload::Fig11Cosim => 1,
        }
    }

    /// Requests per measured second, fixed so that a sequence fills about
    /// nine tenths of `--seconds` on a 2-core host.
    fn rate(self) -> f64 {
        match self {
            Workload::Fig11Cosim => 3.2,
            Workload::CohortCampaign => 2.2,
        }
    }

    /// Length of the timed sequence. At least 12 requests, so the tail
    /// percentile always has ten samples beyond it.
    pub fn requests(self, seconds: u64) -> usize {
        ((seconds as f64 * self.rate()).ceil() as usize).max(12)
    }

    /// Length of the prefix the traced run replays layer by layer; the
    /// traced run sends each request about four times.
    pub fn trace_prefix(self, seconds: u64) -> usize {
        match self {
            Workload::Fig11Cosim => self.requests(seconds) / 4,
            Workload::CohortCampaign => 8,
        }
    }
}

/// One generated request.
#[derive(Debug, Clone)]
pub struct Req {
    /// Endpoint name.
    pub endpoint: &'static str,
    /// Wire parameters.
    pub params: Json,
    /// Which of the workload's connections sends it.
    pub conn: usize,
    /// The decoded body, for the in-process passes of the traced run.
    pub body: RequestBody,
    /// Route identity: the server's cache key of the request.
    pub identity: u64,
    /// Units of work for throughput: patients for `cohort`, else 1.
    pub work: u64,
}

/// A run's inputs: the untimed warm-up and the timed sequence.
pub struct Plan {
    /// The workload.
    pub workload: Workload,
    /// One untimed request of the workload's endpoint, with an identity
    /// that never occurs in `timed`, so it leaves the result caches cold.
    pub warmup: Req,
    /// The timed, count-bounded sequence.
    pub timed: Vec<Req>,
}

/// Builds the request plan of `workload` for `seed`.
pub fn plan(workload: Workload, seed: u64, seconds: u64) -> Plan {
    let mut rng = Xoshiro256PlusPlus::seed_from_u64(derive_seed(seed, 1));
    let n = workload.requests(seconds);
    let (endpoint, timed, warmup): (&'static str, Vec<Json>, Json) = match workload {
        Workload::Fig11Cosim => {
            let params = |r_load: f64| {
                Json::obj(vec![
                    ("r_load", Json::Num(r_load)),
                    ("cosim", Json::Bool(true)),
                ])
            };
            // 7.0–8.6 kΩ around the paper's 7.8 kΩ sensor load.
            let timed = strata(n, &mut rng)
                .into_iter()
                .map(|u| params(7.0e3 + 1.6e3 * u))
                .collect();
            ("fig11", timed, params(6.9e3))
        }
        Workload::CohortCampaign => {
            let campaign = rng.next_u64() >> 12;
            let shard = |seed: u64, k: usize| {
                Json::obj(vec![
                    ("seed", Json::Num(seed as f64)),
                    ("patients", Json::Num(SHARD_PATIENTS as f64)),
                    ("offset", Json::Num((k as u64 * SHARD_PATIENTS) as f64)),
                    ("hours", Json::Num(24.0)),
                ])
            };
            (
                "cohort",
                (0..n).map(|k| shard(campaign, k)).collect(),
                shard(campaign + 1, 0),
            )
        }
    };

    let conns = workload.connections();
    let timed: Vec<Req> = timed
        .into_iter()
        .enumerate()
        .map(|(i, params)| make(endpoint, params, i % conns))
        .collect();
    let warmup = make(endpoint, warmup, 0);
    assert!(
        timed.iter().all(|r| r.identity != warmup.identity),
        "warm-up input {} occurs in the timed sequence",
        warmup.params
    );
    Plan {
        workload,
        warmup,
        timed,
    }
}

fn make(endpoint: &'static str, params: Json, conn: usize) -> Req {
    let body = RequestBody::decode(endpoint, &params, &DecodeLimits::default())
        .unwrap_or_else(|e| panic!("generated request {params} does not decode: {}", e.message));
    let (ns, point) = body.route_point().expect("data-plane request");
    let work = match &body {
        RequestBody::Cohort(p) => p.patients,
        _ => 1,
    };
    Req {
        endpoint,
        params,
        conn,
        identity: runtime::cache_key(ns, &point),
        body,
        work,
    }
}

/// `n` draws from [0, 1), one from each of `n` equal strata, in seeded
/// order: every seed gets the same spread of values, so run-to-run
/// differences come from the program and the host, not from the sample.
fn strata(n: usize, rng: &mut impl Rng) -> Vec<f64> {
    let mut u: Vec<f64> = (0..n)
        .map(|i| (i as f64 + rng.next_f64()) / n as f64)
        .collect();
    for i in (1..n).rev() {
        u.swap(i, rng.index(i + 1));
    }
    u
}

/// Share of `reqs` whose route identity repeats an earlier one.
pub fn repeat_share(reqs: &[Req]) -> f64 {
    let mut seen = HashSet::new();
    let repeats = reqs.iter().filter(|r| !seen.insert(r.identity)).count();
    repeats as f64 / reqs.len().max(1) as f64
}
