//! An adversarial TCP client for `implant-server`.
//!
//! Each probe models a misbehaving peer — malformed and oversized
//! lines, mid-request disconnects, slowloris writes, shutdown under
//! load — and asserts the server's contract from the serving layer:
//! every complete request gets a structured one-line answer, a bad
//! client only ever hurts itself, and the control plane stays
//! responsive throughout. [`AdversarialClient::assault`] runs the whole
//! battery and reports what the server did.

use runtime::Json;
use server::client::{Client, Response};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::sync::{Mutex, MutexGuard};
use std::time::Duration;

/// Read timeout on every probe socket: an adversarial test must never
/// hang the suite, it must fail loudly.
const PROBE_TIMEOUT: Duration = Duration::from_secs(10);

/// What one probe observed.
#[derive(Debug, Clone, PartialEq)]
pub enum ProbeOutcome {
    /// A structured response with this `error.code`.
    ErrorCode(String),
    /// A structured `ok:true` response.
    Ok,
    /// The connection ended without a response line (only acceptable
    /// for probes that themselves disconnect first).
    Disconnected,
}

/// Results of a full [`AdversarialClient::assault`].
#[derive(Debug, Clone)]
pub struct AssaultReport {
    /// `(probe name, outcome)` per probe, in execution order.
    pub probes: Vec<(&'static str, ProbeOutcome)>,
    /// Whether `health` answered `ok` after the battery.
    pub healthy_after: bool,
}

impl AssaultReport {
    /// Panics unless every probe saw its expected outcome and the
    /// server stayed healthy.
    ///
    /// # Panics
    ///
    /// When a probe observed anything but the serving contract.
    pub fn assert_contract(&self) {
        for (name, outcome) in &self.probes {
            let expected = match *name {
                "malformed_json" | "oversized_line" | "binary_garbage" => {
                    ProbeOutcome::ErrorCode("bad_request".into())
                }
                "unknown_endpoint" => ProbeOutcome::ErrorCode("unknown_endpoint".into()),
                "slowloris" => ProbeOutcome::Ok,
                "disconnect_mid_line" | "disconnect_before_response" => ProbeOutcome::Disconnected,
                other => panic!("unknown probe {other}"),
            };
            assert_eq!(outcome, &expected, "probe {name}");
        }
        assert!(self.healthy_after, "server unhealthy after the assault");
    }
}

/// The adversarial client. Every probe opens its own connection, so a
/// probe that wedges its socket cannot poison the next one.
pub struct AdversarialClient {
    addr: SocketAddr,
}

impl AdversarialClient {
    /// A client aimed at `addr`.
    pub fn new(addr: SocketAddr) -> Self {
        AdversarialClient { addr }
    }

    fn connect(&self) -> TcpStream {
        let stream = TcpStream::connect(self.addr).expect("adversary connects");
        stream.set_read_timeout(Some(PROBE_TIMEOUT)).expect("read timeout");
        stream
    }

    /// Sends raw bytes as one line and reads back one response line.
    /// `None` means the server closed without answering.
    pub fn raw_line(&self, bytes: &[u8]) -> Option<Json> {
        let mut stream = self.connect();
        stream.write_all(bytes).expect("write");
        stream.write_all(b"\n").expect("write newline");
        read_response(&mut stream)
    }

    /// A well-formed request line that expects a well-formed answer —
    /// routed through the shared [`Client`] so the adversary exercises
    /// the same code path real consumers use.
    pub fn rpc(&self, line: &str) -> Option<Json> {
        let mut client = Client::from_stream(self.connect()).expect("wrap stream");
        client.request_line(line).ok().map(Response::into_json)
    }

    /// True when `health` answers `ok` and advertises a protocol range
    /// the shared client speaks.
    pub fn health_ok(&self) -> bool {
        let mut client = Client::from_stream(self.connect()).expect("wrap stream");
        client.health_ok()
    }

    /// Writes part of a request line, then drops the socket mid-frame.
    pub fn disconnect_mid_line(&self) {
        let mut stream = self.connect();
        stream.write_all(br#"{"endpoint":"fig1"#).expect("partial write");
        let _ = stream.shutdown(Shutdown::Both);
    }

    /// Sends a complete (cheap) data request, then disconnects without
    /// reading the response — the worker must absorb the dead reply
    /// channel, not crash.
    pub fn disconnect_before_response(&self) {
        let mut stream = self.connect();
        stream
            .write_all(b"{\"endpoint\":\"sweep\",\"params\":{\"steps\":2}}\n")
            .expect("full write");
        let _ = stream.shutdown(Shutdown::Both);
    }

    /// Writes a valid request one byte at a time with a pause between
    /// chunks (slowloris); the bounded reader must assemble it and
    /// answer normally rather than time the peer out into a hang.
    pub fn slowloris(&self, pause: Duration) -> Option<Json> {
        let mut stream = self.connect();
        let line = b"{\"endpoint\":\"health\",\"id\":99}\n";
        for chunk in line.chunks(3) {
            stream.write_all(chunk).expect("slow write");
            stream.flush().expect("flush");
            std::thread::sleep(pause);
        }
        read_response(&mut stream)
    }

    /// A line of `fill` bytes longer than the server's 64 KiB cap.
    pub fn oversized_line(&self, len: usize) -> Option<Json> {
        self.raw_line(&vec![b'z'; len])
    }

    /// Runs the whole battery against a live server and reports.
    pub fn assault(&self) -> AssaultReport {
        let code = |doc: Option<Json>| match doc {
            None => ProbeOutcome::Disconnected,
            Some(doc) => {
                if doc.get("ok") == Some(&Json::Bool(true)) {
                    ProbeOutcome::Ok
                } else {
                    ProbeOutcome::ErrorCode(
                        doc.get("error")
                            .and_then(|e| e.get("code"))
                            .and_then(Json::as_str)
                            .unwrap_or("<no code>")
                            .to_string(),
                    )
                }
            }
        };
        let mut probes = vec![
            ("malformed_json", code(self.raw_line(b"{not json at all"))),
            ("binary_garbage", code(self.raw_line(&[0xFF, 0xFE, 0x00, 0x80]))),
            ("oversized_line", code(self.oversized_line(70 * 1024))),
            ("unknown_endpoint", code(self.rpc(r#"{"endpoint":"selfdestruct"}"#))),
        ];
        self.disconnect_mid_line();
        probes.push(("disconnect_mid_line", ProbeOutcome::Disconnected));
        self.disconnect_before_response();
        probes.push(("disconnect_before_response", ProbeOutcome::Disconnected));
        probes.push(("slowloris", code(self.slowloris(Duration::from_millis(2)))));
        AssaultReport { probes, healthy_after: self.health_ok() }
    }
}

/// Caps a fan-in storm's connection count to the process fd budget:
/// each in-process client/server pair burns two descriptors, and the
/// suite itself needs headroom. Parses the soft limit from
/// `/proc/self/limits`; falls back to a conservative 256 when the file
/// is absent (non-Linux) or unreadable.
pub fn capped_connections(want: usize) -> usize {
    let soft = std::fs::read_to_string("/proc/self/limits")
        .ok()
        .and_then(|text| {
            text.lines().find(|l| l.starts_with("Max open files")).and_then(|l| {
                l.split_whitespace().nth(3).and_then(|n| n.parse::<usize>().ok())
            })
        })
        .unwrap_or(512 + 2 * 256);
    want.min(soft.saturating_sub(1024) / 2)
}

/// The process's live thread count (`Threads:` in `/proc/self/status`).
/// The poller front-end's core claim — threads track in-flight work,
/// not open sockets — is asserted with this before and after a storm.
///
/// # Panics
///
/// If `/proc/self/status` is missing or carries no `Threads:` line
/// (the fan-in battery is Linux-only, like the fd-budget probe).
pub fn process_threads() -> usize {
    let status = std::fs::read_to_string("/proc/self/status").expect("/proc/self/status");
    status
        .lines()
        .find_map(|l| l.strip_prefix("Threads:"))
        .and_then(|n| n.trim().parse().ok())
        .expect("Threads: line")
}

/// Serializes the tests of one test binary that start or count
/// threads: [`process_threads`] sees every thread in the process, so a
/// sibling test's threads would move it. Hold the guard for the whole
/// test. A failed test poisons the lock, but it guards no data, so the
/// next caller recovers the guard instead of failing too.
pub fn thread_count_lock() -> MutexGuard<'static, ()> {
    static THREADS: Mutex<()> = Mutex::new(());
    THREADS.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Fans `n` connection setups over a few client threads: on a loaded
/// (or single-core) host each blocking `connect` pays a scheduler
/// wakeup, and overlapping them is the difference between seconds and
/// minutes at the 10k scale.
fn connect_storm(
    addr: SocketAddr,
    n: usize,
    setup: fn(SocketAddr) -> Option<TcpStream>,
) -> Vec<TcpStream> {
    const LANES: usize = 8;
    let per_lane = n.div_ceil(LANES.min(n.max(1)));
    let threads: Vec<_> = (0..n).step_by(per_lane.max(1))
        .map(|start| {
            let count = per_lane.min(n - start);
            std::thread::spawn(move || {
                (0..count).filter_map(|_| setup(addr)).collect::<Vec<TcpStream>>()
            })
        })
        .collect();
    threads.into_iter().flat_map(|t| t.join().expect("connect lane")).collect()
}

/// Opens `n` connections that never send a byte and hands them back
/// live — the caller holds the `Vec` to keep the sockets open. The
/// pollers must carry all of them without spawning a thread for any.
///
/// # Panics
///
/// When a connection is refused — a server shedding *connections* under
/// an idle soak is exactly the regression this helper exists to catch.
pub fn idle_soak(addr: SocketAddr, n: usize) -> Vec<TcpStream> {
    let conns = connect_storm(addr, n, |addr| {
        Some(TcpStream::connect(addr).expect("idle soak connect"))
    });
    assert_eq!(conns.len(), n, "every idle connection must be accepted");
    conns
}

/// Slowloris at scale: `n` connections each write a *prefix* of a valid
/// request and then stall, parked mid-frame. Returns the streams so the
/// caller can keep them stalled (or finish them). A thread-per-
/// connection server would burn a blocked thread per socket here; the
/// pollers must hold every one for free.
pub fn slowloris_storm(addr: SocketAddr, n: usize) -> Vec<TcpStream> {
    connect_storm(addr, n, |addr| {
        let mut stream = TcpStream::connect(addr).expect("slowloris connect");
        stream.write_all(b"{\"endpoint\":\"health\",\"id\":").expect("slowloris prefix");
        stream.flush().expect("flush");
        Some(stream)
    })
}

/// A disconnect storm: `n` peers appear, write half a frame (even
/// indexes) or a complete cheap request (odd indexes), and vanish
/// without reading a byte. Mid-poll disconnects must surface as clean
/// connection teardown — never a poller panic or a wedged worker.
pub fn disconnect_storm(addr: SocketAddr, n: usize) {
    for i in 0..n {
        let Ok(mut stream) = TcpStream::connect(addr) else { continue };
        let frame: &[u8] = if i % 2 == 0 {
            br#"{"endpoint":"mont"#
        } else {
            b"{\"endpoint\":\"sweep\",\"params\":{\"steps\":2}}\n"
        };
        let _ = stream.write_all(frame);
        let _ = stream.shutdown(Shutdown::Both);
    }
}

/// Reads one newline-terminated JSON document, `None` on EOF/reset.
fn read_response(stream: &mut TcpStream) -> Option<Json> {
    let mut reader = BufReader::new(stream.try_clone().ok()?);
    let mut line = String::new();
    match reader.read_line(&mut line) {
        Ok(0) | Err(_) => None,
        Ok(_) => Json::parse(line.trim_end()),
    }
}

/// Drains and discards whatever the peer still has to say (used by
/// shutdown tests to let in-flight responses complete).
pub fn drain_socket(stream: &mut TcpStream) {
    let mut sink = Vec::new();
    let _ = stream.read_to_end(&mut sink);
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    #[test]
    fn capped_connections_never_exceeds_the_ask_and_caps_large_storms() {
        assert!(capped_connections(10) <= 10);
        // The fd budget is finite, so an absurd ask comes back clamped
        // to the same ceiling every time.
        let ceiling = capped_connections(usize::MAX);
        assert!(ceiling < usize::MAX);
        assert_eq!(capped_connections(usize::MAX), ceiling);
        assert_eq!(capped_connections(0), 0);
    }

    #[test]
    fn process_threads_sees_spawned_threads() {
        let _serial = thread_count_lock();
        let before = process_threads();
        assert!(before >= 1, "at least this thread is running");
        // The test harness runs each sibling test on its own thread, and
        // one of those may exit between the two reads; the lock cannot
        // stop that. Park several threads so one exit cannot cancel them.
        const PARKED: usize = 8;
        let (unpark, parked): (Vec<_>, Vec<_>) = (0..PARKED)
            .map(|_| {
                let (tx, rx) = std::sync::mpsc::channel::<()>();
                (tx, std::thread::spawn(move || rx.recv().unwrap_or(())))
            })
            .unzip();
        // The counter must move with real thread lifecycle events —
        // that is what the fan-in battery's flatness assertions rest on.
        let during = process_threads();
        assert!(during > before, "spawned threads not counted: {before} -> {during}");
        drop(unpark);
        for thread in parked {
            thread.join().expect("parked thread");
        }
    }

    #[test]
    fn connect_storms_deliver_every_socket_live() {
        let _serial = thread_count_lock();
        // A bare listener accepts into its backlog without a server
        // behind it — enough to prove the fan-out lanes lose nothing.
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let idle = idle_soak(addr, 12);
        assert_eq!(idle.len(), 12);
        let stalled = slowloris_storm(addr, 9);
        assert_eq!(stalled.len(), 9, "every slowloris peer holds its socket");
    }

    #[test]
    fn disconnect_storm_completes_against_an_unattended_listener() {
        let _serial = thread_count_lock();
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        // Nothing ever reads these frames; the storm must still finish
        // (its peers vanish without waiting on anyone).
        disconnect_storm(listener.local_addr().expect("addr"), 10);
    }

    #[test]
    fn drain_socket_returns_on_peer_close() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let mut client = TcpStream::connect(addr).expect("connect");
        let (mut served, _) = listener.accept().expect("accept");
        served.write_all(b"tail bytes").expect("write");
        drop(served);
        // Must consume the tail and return at EOF rather than hang.
        drain_socket(&mut client);
    }
}
