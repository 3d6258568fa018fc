//! The adversarial client against a live in-process server: hostile
//! input must only ever produce structured errors, never take the
//! server down, and shutdown must drain in-flight work.

use server::{Server, ServerConfig};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::time::Duration;
use testkit::adversary::{
    capped_connections, disconnect_storm, idle_soak, process_threads, slowloris_storm,
    thread_count_lock,
};
use testkit::AdversarialClient;

// Every test here starts server threads, and three of them count every
// thread in the process, so each holds `thread_count_lock` throughout.

#[test]
fn full_assault_leaves_the_server_healthy() {
    let _serial = thread_count_lock();
    let handle = Server::spawn(ServerConfig::default()).expect("ephemeral bind");
    let client = AdversarialClient::new(handle.addr());
    let report = client.assault();
    report.assert_contract();

    // And the data plane still works after all of it.
    let doc = client
        .rpc(r#"{"id":1,"endpoint":"sweep","params":{"steps":3}}"#)
        .expect("a real request still answers");
    assert_eq!(doc.get("ok"), Some(&runtime::Json::Bool(true)));

    handle.shutdown();
    handle.join();
}

#[test]
fn abandoned_requests_do_not_poison_later_clients() {
    let _serial = thread_count_lock();
    let handle = Server::spawn(ServerConfig::default()).expect("ephemeral bind");
    let client = AdversarialClient::new(handle.addr());
    // A burst of clients that all walk away mid-transaction.
    for _ in 0..8 {
        client.disconnect_before_response();
        client.disconnect_mid_line();
    }
    // The workers absorbed every dead reply channel.
    assert!(client.health_ok(), "server must shrug off abandoned requests");
    handle.shutdown();
    handle.join();
}

#[test]
fn shutdown_with_inflight_requests_drains_them() {
    let _serial = thread_count_lock();
    let handle = Server::spawn(ServerConfig::default()).expect("ephemeral bind");
    let addr = handle.addr();

    // Park a slow-ish request in flight on its own socket.
    let mut busy = TcpStream::connect(addr).expect("connect");
    busy.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
    busy.write_all(b"{\"id\":5,\"endpoint\":\"montecarlo\",\"params\":{\"trials\":400}}\n")
        .expect("write");
    busy.flush().unwrap();
    // Let the poller admit the request — the contract under test is
    // drain-after-admission, not an admission/shutdown photo finish.
    std::thread::sleep(Duration::from_millis(50));

    // Ask for shutdown from a second connection while it runs.
    let client = AdversarialClient::new(addr);
    let ack = client.rpc(r#"{"id":6,"endpoint":"shutdown"}"#).expect("shutdown acks");
    assert_eq!(ack.get("ok"), Some(&runtime::Json::Bool(true)));

    // The in-flight request must still complete with a real response
    // (drained, not dropped).
    let mut reader = BufReader::new(busy.try_clone().unwrap());
    let mut line = String::new();
    reader.read_line(&mut line).expect("in-flight response arrives");
    let doc = runtime::Json::parse(line.trim_end()).expect("valid JSON");
    assert_eq!(doc.get("id").and_then(runtime::Json::as_u64), Some(5));
    assert_eq!(doc.get("ok"), Some(&runtime::Json::Bool(true)), "{line}");
    // Connection lifetime is client-controlled: close our end rather
    // than waiting for a server EOF that the contract never promises.
    drop(reader);
    drop(busy);

    handle.join();
}

/// The fan-in claim, measured: ~10k sockets parked on the server while
/// the thread count stays exactly where it was — pollers multiplex,
/// nothing spawns per connection — and the data plane still answers.
#[test]
fn ten_thousand_idle_connections_do_not_grow_the_thread_count() {
    let _serial = thread_count_lock();
    let handle = Server::spawn(ServerConfig { workers: 2, pollers: 2, ..ServerConfig::default() })
        .expect("ephemeral bind");
    let addr = handle.addr();
    let before = process_threads();

    let conns = idle_soak(addr, capped_connections(10_000));
    assert!(conns.len() >= 1_000, "fd budget too small to prove anything: {}", conns.len());

    // Give the pollers a couple of sweeps over the full set.
    std::thread::sleep(Duration::from_millis(300));
    let during = process_threads();
    assert!(
        during <= before + 2,
        "threads grew with connections: {before} -> {during} across {} conns",
        conns.len()
    );

    // A real request threads through the crowd unharmed.
    let client = AdversarialClient::new(addr);
    let doc = client
        .rpc(r#"{"id":1,"endpoint":"sweep","params":{"steps":3}}"#)
        .expect("data plane answers under soak");
    assert_eq!(doc.get("ok"), Some(&runtime::Json::Bool(true)));

    drop(conns);
    handle.shutdown();
    handle.join();
}

/// Slowloris at scale: hundreds of peers parked mid-frame consume
/// buffer space, not threads, and cannot starve a well-behaved client.
#[test]
fn slowloris_at_scale_cannot_starve_the_data_plane() {
    let _serial = thread_count_lock();
    let handle = Server::spawn(ServerConfig { workers: 2, pollers: 2, ..ServerConfig::default() })
        .expect("ephemeral bind");
    let addr = handle.addr();
    let before = process_threads();

    let stalled = slowloris_storm(addr, capped_connections(400));
    assert!(stalled.len() >= 100, "fd budget too small: {}", stalled.len());
    let during = process_threads();
    assert!(during <= before + 2, "threads grew with stalled peers: {before} -> {during}");

    // The crowd holds half-frames; a complete request still answers
    // promptly on a fresh socket.
    let client = AdversarialClient::new(addr);
    let doc = client
        .rpc(r#"{"id":2,"endpoint":"montecarlo","params":{"trials":50}}"#)
        .expect("data plane answers through the stall");
    assert_eq!(doc.get("ok"), Some(&runtime::Json::Bool(true)));

    // One stalled peer completes its frame and still gets its answer —
    // parked is parked, not abandoned.
    let mut finisher = stalled.into_iter().next().expect("at least one stalled conn");
    finisher.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    finisher.write_all(b"77}\n").expect("finish the frame");
    let mut line = String::new();
    BufReader::new(finisher.try_clone().unwrap()).read_line(&mut line).expect("late answer");
    assert!(line.contains("\"ok\":true"), "finished slowloris gets served: {line}");
    drop(finisher);

    handle.shutdown();
    handle.join();
}

/// A storm of peers that vanish mid-poll — half of them mid-frame, half
/// with a full request they never read the answer to — must leave the
/// server healthy, its threads flat, and its shed/drain contract
/// intact.
#[test]
fn mid_poll_disconnect_storm_leaves_the_server_healthy() {
    let _serial = thread_count_lock();
    let handle = Server::spawn(ServerConfig { workers: 2, pollers: 2, ..ServerConfig::default() })
        .expect("ephemeral bind");
    let addr = handle.addr();
    let before = process_threads();

    disconnect_storm(addr, capped_connections(300));

    // Workers absorb every dead reply channel; pollers reap every
    // corpse without panicking.
    std::thread::sleep(Duration::from_millis(300));
    let during = process_threads();
    assert!(during <= before + 2, "threads grew after the storm: {before} -> {during}");

    let client = AdversarialClient::new(addr);
    assert!(client.health_ok(), "health must survive the storm");
    let doc = client
        .rpc(r#"{"id":3,"endpoint":"sweep","params":{"steps":3}}"#)
        .expect("data plane answers after the storm");
    assert_eq!(doc.get("ok"), Some(&runtime::Json::Bool(true)));

    // Shutdown still drains cleanly afterwards.
    let ack = client.rpc(r#"{"id":4,"endpoint":"shutdown"}"#).expect("shutdown acks");
    assert_eq!(ack.get("ok"), Some(&runtime::Json::Bool(true)));
    handle.join();
}
