//! The traced run: a seeded prefix of the workload replayed layer by
//! layer through public entry points, measured from outside the program.
//!
//! The prefix is sent in four passes, one after another, and each
//! request's times are subtracted pass from pass: proxy RTT
//! (`cluster_serve` proxy) − direct RTT (the same replica, addressed
//! directly) = the cluster hop; direct RTT − `Router::handle_typed`
//! in-process = the server's share (poller, decode, queue, encode,
//! socket); `handle_typed` − the bare kernel = the router and its caches.
//! Each pass starts from fresh state, so a request meets the same cache
//! contents in every pass, and the proxy pass sends exactly what the
//! untraced run sends: its p50 (`trace.latency_p50_ms`) against the
//! untraced run's p50 over the same prefix is the tracing overhead.
//!
//! Kernel-level counters come from probes on the paper's Fig. 11
//! operating point and a canonical cohort shard. They do not depend on the
//! seed, so counts repeat exactly across traced runs.

use crate::check;
use crate::drive::{fan_out, ms};
use crate::stats::median;
use crate::wire::{self, Cluster, Conn};
use crate::workload::{repeat_share, Plan};
use crate::Report;
use implant_core::Fig11Scenario;
use runtime::{Json, Pool};
use server::proto::{CohortParams, DecodeLimits, PatientdayParams, RequestBody};
use server::router::Router;
use server::ServerConfig;
use std::collections::HashMap;
use std::hint::black_box;
use std::net::SocketAddr;
use std::path::Path;
use std::time::Instant;

/// Runs the traced replay of `plan`'s first `prefix` requests.
pub fn run(server_bin: &Path, plan: &Plan, prefix: usize, report: &mut Report) {
    let reqs = &plan.timed[..prefix.min(plan.timed.len())];
    let cores = std::thread::available_parallelism().map_or(1, usize::from) as f64;
    let connections = plan.workload.connections();

    // Pass 1 through the proxy, sent exactly as the timed run sends it.
    let proxied = spawn(server_bin);
    crate::warm_up(proxied.addr, plan, report);
    let conns = wire::connect(proxied.addr, connections);
    let start = Instant::now();
    let outcomes = fan_out(reqs, conns, |mut conn, share| {
        share
            .iter()
            .map(|(_, req)| {
                Some(
                    conn.call(req.endpoint, &req.params)
                        .map_err(|e| e.to_string()),
                )
            })
            .collect()
    });
    let wall = start.elapsed();
    let shed = proxied.shed().unwrap_or_else(|e| {
        report.fail(format!("metrics: {e}"));
        0
    });
    proxied.stop();
    let mut proxy_rtt: Vec<Option<f64>> = vec![None; reqs.len()];
    let mut replica_of: Vec<Option<String>> = vec![None; reqs.len()];
    let mut cached = vec![false; reqs.len()];
    let (mut queue_us, mut service_us, mut errors) = (Vec::new(), 0.0, 0usize);
    for (i, (req, out)) in reqs.iter().zip(outcomes).enumerate() {
        let Some((doc, rtt)) = out.and_then(|out| report.checked(req, out)) else {
            errors += 1;
            continue;
        };
        proxy_rtt[i] = Some(ms(rtt));
        replica_of[i] = doc
            .get("replica")
            .and_then(Json::as_str)
            .map(str::to_string);
        queue_us.push(doc.get("queue_us").and_then(Json::as_f64).unwrap_or(0.0));
        service_us += doc.get("service_us").and_then(Json::as_f64).unwrap_or(0.0);
        cached[i] = doc.get("result").and_then(|r| r.get("cached")) == Some(&Json::Bool(true));
    }

    // Pass 2: the same requests and connection split, each sent straight
    // to the replica that answered it in pass 1, on a second fresh cluster
    // (replica names and placement are deterministic).
    let direct = spawn(server_bin);
    crate::warm_up(direct.addr, plan, report);
    let replicas: HashMap<String, SocketAddr> =
        direct.replicas().unwrap_or_default().into_iter().collect();
    let direct_outcomes = fan_out(reqs, vec![(); connections], |(), share| {
        let mut conns: HashMap<&str, Conn> = HashMap::new();
        share
            .iter()
            .map(|(i, req)| {
                let name = replica_of[*i].as_deref()?;
                let addr = replicas.get(name)?;
                if !conns.contains_key(name) {
                    conns.insert(name, Conn::open(*addr).ok()?);
                }
                let conn = conns.get_mut(name).expect("opened above");
                Some(
                    conn.call(req.endpoint, &req.params)
                        .map_err(|e| e.to_string()),
                )
            })
            .collect()
    });
    direct.stop();
    let mut direct_rtt: Vec<Option<f64>> = vec![None; reqs.len()];
    for (i, (req, out)) in reqs.iter().zip(direct_outcomes).enumerate() {
        if proxy_rtt[i].is_none() {
            continue;
        }
        let out =
            out.unwrap_or_else(|| Err(format!("no direct route to replica {:?}", replica_of[i])));
        direct_rtt[i] = report.checked(req, out).map(|(_, rtt)| ms(rtt));
    }

    // Passes 3 and 4 in-process: a fresh router with the replicas' settings,
    // then the bare kernel of every request the replica did not answer
    // from its cache.
    let config = ServerConfig::default();
    let router = Router::new(
        config.pool_workers,
        config.cache_capacity,
        config.mc_trial_cap,
    );
    if let Err(e) = router.handle_typed(&plan.warmup.body) {
        report.fail(format!("warm-up {}: {}", plan.warmup.endpoint, e.message));
    }
    let mut routed = Vec::new();
    for req in reqs {
        let start = Instant::now();
        let result = router.handle_typed(&req.body);
        routed.push(ms(start.elapsed()));
        report.attempted += 1;
        match result {
            Ok(r) => {
                let doc = Json::obj(vec![("ok", Json::Bool(true)), ("result", r.result)]);
                if let Err(e) = check::response(req, &doc) {
                    report.fail(format!("in-process: {e}"));
                }
            }
            Err(e) => report.fail(format!("in-process {}: {}", req.endpoint, e.message)),
        }
    }
    let kernel_pool = Pool::new(config.pool_workers);
    let kernels: Vec<f64> = reqs
        .iter()
        .zip(&cached)
        .map(|(req, &cached)| {
            if cached {
                return 0.0;
            }
            let start = Instant::now();
            if let Err(e) = kernel(&req.body, &kernel_pool) {
                report.fail(format!("kernel {}: {e}", req.endpoint));
            }
            ms(start.elapsed())
        })
        .collect();

    let (mut hop, mut overhead, mut router_self, mut proxied_ms) = (vec![], vec![], vec![], vec![]);
    for i in 0..reqs.len() {
        if let (Some(p), Some(d)) = (proxy_rtt[i], direct_rtt[i]) {
            proxied_ms.push(p);
            hop.push(p - d);
            overhead.push(d - routed[i]);
        }
        router_self.push(routed[i] - kernels[i]);
    }

    println!("perfbench: traced prefix of {} requests", reqs.len());
    let n = reqs.len() as f64;
    let m = &mut report.metrics;
    m.push(("trace.latency_p50_ms", median(&proxied_ms), "ms"));
    m.push(("cluster.hop_p50_ms", median(&hop), "ms"));
    m.push(("cluster.errors", errors as f64, "count"));
    m.push(("server.overhead_p50_ms", median(&overhead), "ms"));
    m.push(("server.queue_wait_p50_ms", median(&queue_us) * 1e-3, "ms"));
    m.push((
        "server.busy_share",
        service_us * 1e-6 / wall.as_secs_f64() / cores,
        "ratio",
    ));
    m.push(("server.shed", shed as f64, "count"));
    m.push(("router.self_p50_ms", median(&router_self), "ms"));
    m.push((
        "router.cache_hit_ratio",
        cached.iter().filter(|&&c| c).count() as f64 / n,
        "ratio",
    ));
    m.push(("router.repeat_share", repeat_share(reqs), "ratio"));
    probe_cosim(report);
    probe_analog(report);
    probe_scenario(report);
}

fn spawn(server_bin: &Path) -> Cluster {
    Cluster::spawn(server_bin).unwrap_or_else(|e| panic!("cluster_serve: {e}"))
}

/// The model call a data-plane request reduces to, without routing,
/// caching or rendering.
fn kernel(body: &RequestBody, pool: &Pool) -> Result<(), String> {
    match body {
        RequestBody::Fig11(p) => {
            // The workload varies only `r_load` on the shortened preset.
            let mut s = Fig11Scenario::shortened();
            s.r_load = p.r_load.unwrap_or(s.r_load);
            black_box(s.run_cosim(pool).map_err(|e| e.to_string())?);
        }
        RequestBody::Cohort(p) => {
            black_box(p.to_cohort().run_serial());
        }
        other => return Err(format!("no kernel for endpoint {}", other.endpoint())),
    }
    Ok(())
}

/// Co-simulation of the paper's operating point, twice on `Pool::auto()`
/// and twice on one worker; the four runs must count the same work.
fn probe_cosim(report: &mut Report) {
    let s = Fig11Scenario::shortened();
    let mut walls = [Vec::new(), Vec::new()];
    let mut counts = Vec::new();
    for (slot, pool) in [Pool::auto(), Pool::new(1)].iter().enumerate() {
        for _ in 0..2 {
            let start = Instant::now();
            match s.run_cosim_detailed(pool) {
                Ok((outcome, cost)) => {
                    walls[slot].push(ms(start.elapsed()));
                    if !outcome.vo_compliant() || outcome.downlink_errors() != 0 {
                        report.fail("cosim probe: outcome outside the Fig. 11 envelope".into());
                    }
                    counts.push((cost.stats.macro_steps, cost.stats.iterations, cost.probes));
                }
                Err(e) => report.fail(format!("cosim probe: {e}")),
            }
        }
    }
    if counts.windows(2).any(|w| w[0] != w[1]) {
        report.fail(format!(
            "cosim probe counts differ between runs: {counts:?}"
        ));
    }
    let (steps, iterations, probes) = counts.first().copied().unwrap_or_default();
    let m = &mut report.metrics;
    m.push((
        "runtime.pool_overhead_ms",
        median(&walls[0]) - median(&walls[1]),
        "ms",
    ));
    m.push(("cosim.kernel_p50_ms", median(&walls[0]), "ms"));
    m.push(("cosim.macro_steps", steps as f64, "count"));
    m.push(("cosim.iterations", iterations as f64, "count"));
    m.push((
        "cosim.iterations_per_step",
        iterations as f64 / steps.max(1) as f64,
        "ratio",
    ));
    m.push(("cosim.probes", probes as f64, "count"));
}

/// The compiled transient of the paper's operating point, profiled.
fn probe_analog(report: &mut Report) {
    let start = Instant::now();
    let stats = match Fig11Scenario::shortened().run_profiled() {
        Ok((outcome, stats, _)) => {
            if !outcome.vo_compliant() || outcome.downlink_errors() != 0 {
                report.fail("analog probe: outcome outside the Fig. 11 envelope".into());
            }
            stats
        }
        Err(e) => {
            report.fail(format!("analog probe: {e}"));
            analog::EngineStats::default()
        }
    };
    let tran_ms = ms(start.elapsed());
    let m = &mut report.metrics;
    m.push(("analog.tran_ms", tran_ms, "ms"));
    m.push((
        "analog.newton_iterations",
        stats.newton_iterations as f64,
        "count",
    ));
    m.push((
        "analog.refactorizations",
        stats.lu.refactorizations as f64,
        "count",
    ));
    m.push((
        "analog.refactor_skip_rate",
        stats.refactor_skip_rate(),
        "ratio",
    ));
    m.push(("analog.assemble_ms", stats.assemble_ns as f64 * 1e-6, "ms"));
    m.push(("analog.factor_ms", stats.factor_ns as f64 * 1e-6, "ms"));
    m.push(("analog.solve_ms", stats.solve_ns as f64 * 1e-6, "ms"));
}

/// A canonical 20-patient cohort shard and one default patient-day.
fn probe_scenario(report: &mut Report) {
    let limits = DecodeLimits::default();
    let shard = CohortParams::decode(&Json::obj(vec![("patients", Json::Num(20.0))]), &limits)
        .expect("canonical shard decodes")
        .to_cohort();
    let start = Instant::now();
    let cohort = black_box(shard.run_serial());
    let patient_ms = ms(start.elapsed()) / shard.patients as f64;
    if cohort.patients != shard.patients {
        report.fail("scenario probe: patient count differs".into());
    }
    let day = PatientdayParams::decode(&Json::obj(vec![]))
        .expect("default day decodes")
        .to_day();
    let start = Instant::now();
    black_box(day.run().summary());
    let day_ms = ms(start.elapsed());
    report
        .metrics
        .push(("scenario.patient_ms", patient_ms, "ms"));
    report
        .metrics
        .push(("scenario.patientday_ms", day_ms, "ms"));
}
