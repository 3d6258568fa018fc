//! The benchmark's own view of the service: a minimal line client and a
//! `cluster_serve` child process it spawns, probes and stops.

use runtime::Json;
use std::io::{self, BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

/// One client connection speaking the newline-delimited JSON protocol.
pub struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    next_id: u64,
}

impl Conn {
    /// Connects with Nagle off, as an interactive client would.
    pub fn open(addr: SocketAddr) -> io::Result<Conn> {
        let stream = TcpStream::connect_timeout(&addr, Duration::from_secs(5))?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(120)))?;
        Ok(Conn {
            reader: BufReader::new(stream.try_clone()?),
            writer: stream,
            next_id: 1,
        })
    }

    /// Sends one request and waits for its response line; the duration is
    /// the client-observed round trip, from before the write to after the
    /// read.
    pub fn call(&mut self, endpoint: &str, params: &Json) -> io::Result<(Json, Duration)> {
        let id = self.next_id;
        self.next_id += 1;
        let line =
            format!("{{\"v\":2,\"id\":{id},\"endpoint\":\"{endpoint}\",\"params\":{params}}}\n");
        let mut reply = String::new();
        let start = Instant::now();
        self.writer.write_all(line.as_bytes())?;
        self.reader.read_line(&mut reply)?;
        let rtt = start.elapsed();
        let doc = Json::parse(reply.trim_end()).ok_or_else(|| {
            io::Error::new(
                io::ErrorKind::InvalidData,
                format!("unparseable response {reply:?}"),
            )
        })?;
        if doc.get("id").and_then(Json::as_u64) != Some(id) {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("response out of order: {reply:?}"),
            ));
        }
        Ok((doc, rtt))
    }
}

/// Opens `n` connections to `addr`; a benchmark that cannot connect has
/// nothing to measure, so failure panics.
pub fn connect(addr: SocketAddr, n: usize) -> Vec<Conn> {
    (0..n)
        .map(|_| Conn::open(addr).unwrap_or_else(|e| panic!("connect to {addr}: {e}")))
        .collect()
}

/// A running `cluster_serve` process in its default configuration.
pub struct Cluster {
    child: Child,
    // Held until the child exits: it prints to stdout on shutdown and a
    // closed pipe would make that print fail.
    stdout: BufReader<ChildStdout>,
    /// The proxy address.
    pub addr: SocketAddr,
    /// From spawn until the proxy reported every replica up.
    pub setup: Duration,
}

impl Cluster {
    /// Spawns `bin` and returns once its proxy answers `health` with
    /// every replica up.
    pub fn spawn(bin: &Path) -> io::Result<Cluster> {
        let start = Instant::now();
        let mut child = Command::new(bin)
            .env_remove("IMPLANT_CACHE_DIR")
            .env_remove("IMPLANT_WORKERS")
            .env_remove("IMPLANT_OBS")
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .spawn()?;
        let stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
        // Owned from here on, so an early return kills the child.
        let mut cluster = Cluster {
            child,
            stdout,
            addr: ([127, 0, 0, 1], 0).into(),
            setup: Duration::ZERO,
        };
        let mut line = String::new();
        loop {
            line.clear();
            if cluster.stdout.read_line(&mut line)? == 0 {
                return Err(io::Error::other(
                    "cluster_serve exited before binding its proxy",
                ));
            }
            if let Some(addr) = line.trim().strip_prefix("cluster_serve: proxy on ") {
                cluster.addr = addr.parse().map_err(io::Error::other)?;
                break;
            }
        }
        let mut conn = Conn::open(cluster.addr)?;
        loop {
            let (doc, _) = conn.call("health", &Json::obj(vec![]))?;
            let health = doc.get("result").cloned().unwrap_or(Json::Null);
            let replicas = health
                .get("replicas")
                .and_then(Json::as_arr)
                .map_or(0, <[Json]>::len);
            let up = health.get("up").and_then(Json::as_u64).unwrap_or(0);
            if replicas > 0 && up as usize == replicas {
                break;
            }
            if start.elapsed() > Duration::from_secs(30) {
                return Err(io::Error::other("replicas did not come up within 30 s"));
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        cluster.setup = start.elapsed();
        Ok(cluster)
    }

    /// Replica name → direct address, from the proxy's membership table.
    pub fn replicas(&self) -> io::Result<Vec<(String, SocketAddr)>> {
        let (doc, _) = Conn::open(self.addr)?.call("health", &Json::obj(vec![]))?;
        let table = doc
            .get("result")
            .and_then(|r| r.get("replicas"))
            .and_then(Json::as_arr);
        let mut out = Vec::new();
        for row in table.unwrap_or(&[]) {
            let name = row.get("name").and_then(Json::as_str);
            let addr = row
                .get("addr")
                .and_then(Json::as_str)
                .and_then(|a| a.parse().ok());
            if let (Some(name), Some(addr)) = (name, addr) {
                out.push((name.to_string(), addr));
            }
        }
        Ok(out)
    }

    /// Requests shed with `overloaded`, summed over replicas and endpoints
    /// from the proxy's per-replica `metrics`.
    pub fn shed(&self) -> io::Result<u64> {
        let (doc, _) = Conn::open(self.addr)?.call("metrics", &Json::obj(vec![]))?;
        let mut shed = 0;
        if let Some(Json::Obj(replicas)) = doc.get("result").and_then(|r| r.get("replicas")) {
            for (_, m) in replicas {
                if let Some(Json::Obj(endpoints)) = m.get("endpoints") {
                    shed += endpoints
                        .iter()
                        .filter_map(|(_, e)| e.get("shed").and_then(Json::as_u64))
                        .sum::<u64>();
                }
            }
        }
        Ok(shed)
    }

    /// Peak resident set (`VmHWM`) of the process so far, MB.
    pub fn peak_rss_mb(&self) -> io::Result<f64> {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.child.id()))?;
        let kb: f64 = status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
            .ok_or_else(|| io::Error::other("no VmHWM in /proc status"))?;
        Ok(kb / 1024.0)
    }

    /// Drains and stops the process, killing it if it does not exit
    /// within ten seconds of the `shutdown` request.
    pub fn stop(mut self) {
        if let Ok(mut conn) = Conn::open(self.addr) {
            let _ = conn.call("shutdown", &Json::obj(vec![]));
        }
        let deadline = Instant::now() + Duration::from_secs(10);
        while Instant::now() < deadline {
            if let Ok(Some(_)) = self.child.try_wait() {
                return;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
    }
}

impl Drop for Cluster {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}
