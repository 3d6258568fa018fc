//! Single-flight collapse: concurrent identical requests attach to one
//! in-flight computation and all observe its result.
//!
//! The connection layer keys each data request by its
//! [`route_point`](crate::proto::RequestBody::route_point) /
//! [`cache_key`](runtime::cache_key) identity. The first request for a
//! key becomes the **leader** — it is enqueued and executed like any
//! other job. Requests arriving while the leader is still in flight
//! become **followers**: they never enter the queue; their reply
//! channel is parked in a [`runtime::Inflight`] table until the worker
//! finishes the leader and calls [`publish`].
//!
//! [`publish`] is the single point where a flight resolves. It drains
//! every parked waiter exactly once — whatever the outcome — so a
//! panicking or expiring leader can never poison the key: the entry is
//! removed unconditionally and the next request for the key leads a
//! fresh flight.

use crate::proto::{err_response, err_response_fielded, ok_response_checked, ErrorCode};
use crate::router::{RouteError, Routed};
use crate::stats::ServerMetrics;
use runtime::Inflight;
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// A follower parked on an in-flight computation: everything needed to
/// render and deliver its response once the leader resolves.
#[derive(Debug)]
pub struct Waiter {
    /// The follower's request id, echoed in its response.
    pub id: u64,
    /// When the follower arrived (its `queue_us` clock).
    pub enqueued: Instant,
    /// The follower's own deadline; expiry is judged per waiter.
    pub deadline: Instant,
    /// Channel back to the connection that issued the request.
    pub reply: mpsc::Sender<String>,
}

/// How the leader of a flight resolved.
#[derive(Debug)]
pub enum FlightOutcome<'a> {
    /// The leader succeeded; followers observe the same result
    /// document (ids and timings differ per waiter).
    Ok(&'a Routed),
    /// The leader failed with a structured routing error; followers
    /// see the same code/field/message.
    RouteErr(&'a RouteError),
    /// The leader's handler panicked. Followers get a structured
    /// `internal` error and the key is left clean for a retry.
    Panicked,
    /// The leader expired in the queue before service. Each follower
    /// is judged against its *own* deadline: expired followers count
    /// `expired` exactly once; still-live followers are shed with
    /// `overloaded` so a retry can lead a fresh flight.
    Expired,
}

/// Resolves the flight for `key`: drains all parked waiters, records
/// their metrics and delivers their response lines.
///
/// The entry is removed unconditionally, so this never leaves a
/// poisoned key behind — even when the outcome is
/// [`FlightOutcome::Panicked`]. Waiters whose connection has already
/// gone away are skipped silently (the send simply fails).
pub fn publish(
    flight: &Inflight<Waiter>,
    metrics: &ServerMetrics,
    endpoint: &'static str,
    key: u64,
    outcome: FlightOutcome<'_>,
    service: Duration,
) {
    let waiters = flight.complete(key);
    if waiters.is_empty() {
        return;
    }
    let now = Instant::now();
    let service_us = service.as_micros() as u64;
    for w in waiters {
        let queue_us = now.saturating_duration_since(w.enqueued).as_micros() as u64;
        let line = match &outcome {
            FlightOutcome::Ok(routed) => {
                metrics.record_collapsed_ok(endpoint, service);
                ok_response_checked(w.id, routed.result.clone(), queue_us, service_us)
            }
            FlightOutcome::RouteErr(e) => {
                metrics.record_error(endpoint, e.code);
                err_response_fielded(w.id, e.code, &e.message, e.field.as_deref())
            }
            FlightOutcome::Panicked => {
                metrics.record_error(endpoint, ErrorCode::Internal);
                err_response(
                    w.id,
                    ErrorCode::Internal,
                    "single-flight leader panicked; retry",
                )
            }
            FlightOutcome::Expired => {
                if now >= w.deadline {
                    metrics.record_error(endpoint, ErrorCode::DeadlineExceeded);
                    err_response(
                        w.id,
                        ErrorCode::DeadlineExceeded,
                        &format!("deadline expired after {queue_us} µs in queue"),
                    )
                } else {
                    metrics.record_error(endpoint, ErrorCode::Overloaded);
                    err_response(
                        w.id,
                        ErrorCode::Overloaded,
                        "single-flight leader expired in queue; retry",
                    )
                }
            }
        };
        let _ = w.reply.send(line);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use runtime::{Flight, Json};

    fn park(
        flight: &Inflight<Waiter>,
        key: u64,
        id: u64,
        deadline: Instant,
    ) -> mpsc::Receiver<String> {
        let (tx, rx) = mpsc::channel();
        let joined = flight.join(
            key,
            Waiter { id, enqueued: Instant::now(), deadline, reply: tx },
        );
        assert_eq!(joined, Flight::Attached, "test leader must join first");
        rx
    }

    fn counters(metrics: &ServerMetrics, endpoint: &str) -> Json {
        metrics.to_json(0).get("endpoints").and_then(|e| e.get(endpoint)).cloned().expect("entry")
    }

    #[test]
    fn ok_outcome_delivers_identical_results_with_collapsed_accounting() {
        let flight = Inflight::new();
        let metrics = ServerMetrics::new();
        assert_eq!(flight.join(7, dummy_waiter(0)), Flight::Leader);
        // Leader's own waiter slot is dropped by join(); park two followers.
        let rx1 = park(&flight, 7, 11, Instant::now() + Duration::from_secs(5));
        let rx2 = park(&flight, 7, 12, Instant::now() + Duration::from_secs(5));
        let routed = Routed {
            result: Json::obj(vec![("answer", Json::Num(42.0))]),
            cache_hits: 0,
            cache_misses: 1,
        };
        publish(
            &flight,
            &metrics,
            "montecarlo",
            7,
            FlightOutcome::Ok(&routed),
            Duration::from_micros(900),
        );
        let l1 = rx1.recv().expect("follower 1 answered");
        let l2 = rx2.recv().expect("follower 2 answered");
        assert!(l1.contains("\"id\":11") && l2.contains("\"id\":12"));
        // The result document is the line's tail; it must be bit-identical.
        let body = |l: &str| l.split("\"result\":").nth(1).unwrap().to_string();
        assert!(l1.contains("\"answer\":42"));
        assert_eq!(body(&l1), body(&l2), "followers observe one result document");
        let mc = counters(&metrics, "montecarlo");
        let n = |k: &str| mc.get(k).and_then(Json::as_u64).unwrap();
        assert_eq!((n("ok"), n("collapsed"), n("cache_hits")), (2, 2, 2));
        assert!(flight.is_empty(), "flight entry removed");
    }

    #[test]
    fn route_error_propagates_code_and_field_to_every_follower() {
        let flight = Inflight::new();
        let metrics = ServerMetrics::new();
        assert_eq!(flight.join(3, dummy_waiter(0)), Flight::Leader);
        let rx = park(&flight, 3, 9, Instant::now() + Duration::from_secs(5));
        let err = RouteError {
            code: ErrorCode::BadRequest,
            field: Some("trials".to_string()),
            message: "trials must be positive".to_string(),
        };
        publish(&flight, &metrics, "montecarlo", 3, FlightOutcome::RouteErr(&err), Duration::ZERO);
        let line = rx.recv().expect("answered");
        assert!(line.contains("\"code\":\"bad_request\""));
        assert!(line.contains("\"field\":\"trials\""));
        let mc = counters(&metrics, "montecarlo");
        assert_eq!(mc.get("errors").and_then(Json::as_u64), Some(1));
    }

    #[test]
    fn panicked_leader_frees_the_key_and_errs_followers_without_hanging() {
        let flight = Inflight::new();
        let metrics = ServerMetrics::new();
        assert_eq!(flight.join(5, dummy_waiter(0)), Flight::Leader);
        let rx1 = park(&flight, 5, 21, Instant::now() + Duration::from_secs(5));
        let rx2 = park(&flight, 5, 22, Instant::now() + Duration::from_secs(5));
        publish(&flight, &metrics, "sweep", 5, FlightOutcome::Panicked, Duration::ZERO);
        for rx in [rx1, rx2] {
            let line = rx.recv().expect("follower answered, not hung");
            assert!(line.contains("\"code\":\"internal\""));
            assert!(line.contains("single-flight leader panicked"));
        }
        assert!(flight.is_empty(), "no poisoned entry");
        // The very next request for the key leads a fresh flight.
        assert_eq!(flight.join(5, dummy_waiter(0)), Flight::Leader);
        let sw = counters(&metrics, "sweep");
        assert_eq!(sw.get("errors").and_then(Json::as_u64), Some(2));
    }

    #[test]
    fn expired_leader_counts_each_expired_follower_once_and_sheds_live_ones() {
        let flight = Inflight::new();
        let metrics = ServerMetrics::new();
        assert_eq!(flight.join(8, dummy_waiter(0)), Flight::Leader);
        // One follower already past its own deadline, one still live.
        let rx_dead = park(&flight, 8, 31, Instant::now() - Duration::from_millis(5));
        let rx_live = park(&flight, 8, 32, Instant::now() + Duration::from_secs(30));
        publish(&flight, &metrics, "montecarlo", 8, FlightOutcome::Expired, Duration::ZERO);
        let dead = rx_dead.recv().expect("expired follower answered");
        assert!(dead.contains("\"code\":\"deadline_exceeded\""));
        let live = rx_live.recv().expect("live follower answered");
        assert!(live.contains("\"code\":\"overloaded\""));
        assert!(live.contains("leader expired in queue; retry"));
        let mc = counters(&metrics, "montecarlo");
        let n = |k: &str| mc.get(k).and_then(Json::as_u64).unwrap();
        assert_eq!(n("expired"), 1, "each expired follower counts expired exactly once");
        assert_eq!(n("shed"), 1, "live followers are shed, not expired");
        assert!(flight.is_empty());
    }

    #[test]
    fn publish_on_an_empty_key_is_a_quiet_no_op() {
        let flight: Inflight<Waiter> = Inflight::new();
        let metrics = ServerMetrics::new();
        publish(&flight, &metrics, "sweep", 99, FlightOutcome::Panicked, Duration::ZERO);
        let doc = metrics.to_json(0);
        let endpoints = doc.get("endpoints").expect("endpoints");
        assert!(endpoints.get("sweep").is_none(), "no metrics recorded");
    }

    fn dummy_waiter(id: u64) -> Waiter {
        let (tx, _rx) = mpsc::channel();
        Waiter {
            id,
            enqueued: Instant::now(),
            deadline: Instant::now() + Duration::from_secs(5),
            reply: tx,
        }
    }
}
