//! The real server: a spawned `ssq serve` process, and a closed-loop load
//! generator speaking the ssq-net wire protocol to it over loopback.

use crate::trace::Tracer;
use ssq_geom::Point;
use ssq_net::wire::{self, SERVED_BY_CACHE, SERVED_BY_DIAGRAM, SERVED_BY_PLANNER};
use ssq_net::{Frame, WireResult, WireStats};
use std::io::{BufRead, BufReader, ErrorKind, Read, Write};
use std::net::TcpStream;
use std::path::Path;
use std::process::{Child, ChildStdin, Command, Stdio};
use std::sync::mpsc::{self, Receiver};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How long a reply may take before the request counts as timed out.
pub const REPLY_TIMEOUT: Duration = Duration::from_secs(20);
/// How long the server may take to load the data and start listening.
const START_TIMEOUT: Duration = Duration::from_secs(120);
/// How long the server may take to drain and exit once stdin closes.
const STOP_TIMEOUT: Duration = Duration::from_secs(60);
/// In the traced pass, one Ping round trip per this many requests.
const PING_EVERY: usize = 16;

/// A running `ssq serve` child. Dropping it kills and reaps the process.
pub struct ServeProcess {
    child: Option<Child>,
    stdin: Option<ChildStdin>,
    lines: Receiver<String>,
    reader: Option<JoinHandle<()>>,
    /// The address from the server's `listening on` line.
    pub addr: String,
    /// The kernel dispatch path from the server's `kernel:` line.
    pub kernel: String,
}

impl ServeProcess {
    /// Spawns `ssq serve --data <csv> <flags>` and waits for it to
    /// listen. Returns the server and the set-up time: from spawning to
    /// reading the `listening on` line.
    pub fn start(ssq: &Path, csv: &Path, flags: &[&str]) -> Result<(ServeProcess, f64), String> {
        let start = Instant::now();
        let mut child = Command::new(ssq)
            .arg("serve")
            .arg("--data")
            .arg(csv)
            .args(flags)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("cannot spawn {}: {e}", ssq.display()))?;
        let stdin = child.stdin.take();
        let stdout = child
            .stdout
            .take()
            .ok_or("server stdout was not captured")?;
        let (tx, lines) = mpsc::channel();
        let reader = std::thread::spawn(move || {
            for line in BufReader::new(stdout).lines().map_while(Result::ok) {
                if tx.send(line).is_err() {
                    break;
                }
            }
        });
        let mut server = ServeProcess {
            child: Some(child),
            stdin,
            lines,
            reader: Some(reader),
            addr: String::new(),
            kernel: String::new(),
        };
        let setup = loop {
            let line = server.next_line(START_TIMEOUT)?;
            if let Some(addr) = line.strip_prefix("listening on ") {
                server.addr = addr.trim().to_string();
                break start.elapsed().as_secs_f64();
            }
        };
        loop {
            let line = server.next_line(START_TIMEOUT)?;
            if let Some(rest) = line.strip_prefix("kernel:") {
                server.kernel = rest.split_whitespace().next().unwrap_or("?").to_string();
                break;
            }
        }
        Ok((server, setup))
    }

    fn next_line(&self, timeout: Duration) -> Result<String, String> {
        self.lines
            .recv_timeout(timeout)
            .map_err(|_| "server exited or stalled before it was ready".to_string())
    }

    /// Peak resident set (VmHWM) of the server process, in MiB.
    pub fn vm_hwm_mb(&self) -> Result<f64, String> {
        let pid = self
            .child
            .as_ref()
            .map(Child::id)
            .ok_or("server already stopped")?;
        vm_hwm_mb(&format!("/proc/{pid}/status"))
    }

    /// Closes stdin (the server's shutdown signal), waits for it to drain
    /// and exit, and returns the lines it printed after start-up.
    pub fn stop(mut self) -> Result<Vec<String>, String> {
        self.stdin.take();
        let mut child = self.child.take().ok_or("server already stopped")?;
        let deadline = Instant::now() + STOP_TIMEOUT;
        let status = loop {
            match child.try_wait() {
                Ok(Some(status)) => break status,
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(5));
                }
                _ => {
                    let _ = child.kill();
                    let _ = child.wait();
                    return Err("server did not exit after stdin closed".into());
                }
            }
        };
        if let Some(reader) = self.reader.take() {
            let _ = reader.join();
        }
        let report: Vec<String> = self.lines.try_iter().collect();
        if !status.success() {
            return Err(format!("server exited with {status}"));
        }
        Ok(report)
    }
}

impl Drop for ServeProcess {
    fn drop(&mut self) {
        self.stdin.take();
        if let Some(mut child) = self.child.take() {
            let _ = child.kill();
            let _ = child.wait();
        }
        if let Some(reader) = self.reader.take() {
            let _ = reader.join();
        }
    }
}

/// VmHWM from a `/proc/<pid>/status` file, in MiB.
pub fn vm_hwm_mb(status_path: &str) -> Result<f64, String> {
    let text = std::fs::read_to_string(status_path).map_err(|e| format!("{status_path}: {e}"))?;
    let kb: f64 = text
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.split_whitespace().next())
        .and_then(|v| v.parse().ok())
        .ok_or_else(|| format!("{status_path} has no VmHWM line"))?;
    Ok(kb / 1024.0)
}

/// Why a request got no answer.
#[derive(Debug)]
pub enum Failure {
    /// No reply within [`REPLY_TIMEOUT`].
    Timeout,
    /// The socket failed, or the bytes were not a valid reply.
    Broken(String),
}

/// One depth-1 connection: send a frame, wait for its reply.
pub struct Conn {
    stream: TcpStream,
    tx: Vec<u8>,
    rx: Vec<u8>,
    next_id: u64,
}

impl Conn {
    /// Connects with Nagle off and a reply timeout.
    pub fn connect(addr: &str) -> Result<Conn, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        stream.set_nodelay(true).map_err(|e| e.to_string())?;
        stream
            .set_read_timeout(Some(REPLY_TIMEOUT))
            .map_err(|e| e.to_string())?;
        Ok(Conn {
            stream,
            tx: Vec::with_capacity(1024),
            rx: Vec::with_capacity(16 * 1024),
            next_id: 0,
        })
    }

    /// Sends `frame` and returns its reply. Spans: `net.encode`
    /// (`wire::encode_frame`), `net.exchange` (socket write until the
    /// whole reply is buffered — the server's time is inside it) and
    /// `net.decode` (`wire::decode`).
    pub fn exchange(&mut self, frame: &Frame, tracer: &mut Tracer) -> Result<Frame, Failure> {
        self.next_id += 1;
        let id = self.next_id;
        tracer.open("net.encode", id);
        self.tx.clear();
        let encoded = wire::encode_frame(id, frame, wire::DEFAULT_MAX_FRAME_LEN, &mut self.tx);
        tracer.close();
        encoded.map_err(|e| Failure::Broken(format!("encode: {e}")))?;
        tracer.open("net.exchange", id);
        let got = self.send_and_buffer_reply();
        tracer.close();
        let len = got?;
        tracer.open("net.decode", id);
        let decoded = wire::decode(&self.rx[..len], wire::DEFAULT_MAX_FRAME_LEN);
        tracer.close();
        self.rx.drain(..len);
        match decoded {
            Ok(Some((envelope, used))) if used == len && envelope.request_id == id => {
                Ok(envelope.frame)
            }
            Ok(Some((envelope, _))) => Err(Failure::Broken(format!(
                "reply for request {} while waiting for {id}",
                envelope.request_id
            ))),
            Ok(None) => Err(Failure::Broken("incomplete reply frame".into())),
            Err(e) => Err(Failure::Broken(format!("decode: {e}"))),
        }
    }

    /// Writes the encoded request and reads until one whole reply frame
    /// (`4 + len` bytes) is buffered; returns its length.
    fn send_and_buffer_reply(&mut self) -> Result<usize, Failure> {
        self.stream
            .write_all(&self.tx)
            .map_err(|e| Failure::Broken(format!("write: {e}")))?;
        let mut chunk = [0u8; 16 * 1024];
        loop {
            if self.rx.len() >= 4 {
                let len = u32::from_le_bytes([self.rx[0], self.rx[1], self.rx[2], self.rx[3]]);
                let total = 4 + len as usize;
                if self.rx.len() >= total {
                    return Ok(total);
                }
            }
            match self.stream.read(&mut chunk) {
                Ok(0) => return Err(Failure::Broken("server closed the connection".into())),
                Ok(n) => self.rx.extend_from_slice(&chunk[..n]),
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                    return Err(Failure::Timeout)
                }
                Err(e) => return Err(Failure::Broken(format!("read: {e}"))),
            }
        }
    }

    /// The server's counters (a `Stats` round trip).
    pub fn stats(&mut self) -> Result<WireStats, String> {
        let mut off = Tracer::new(false, Instant::now());
        match self.exchange(&Frame::Stats, &mut off) {
            Ok(Frame::StatsResult(stats)) => Ok(stats),
            Ok(other) => Err(format!("stats answered with {other:?}")),
            Err(e) => Err(format!("stats failed: {e:?}")),
        }
    }
}

/// The request stream a load run sends.
pub enum Traffic<'a> {
    /// A fresh query per request, per connection; replies are kept and
    /// checked after the run.
    Fresh(&'a [Vec<Vec<Point>>]),
    /// Repeats from a fixed shape table; replies are checked on arrival
    /// against references computed before the run.
    Hot {
        /// The shape table.
        shapes: &'a [Vec<Point>],
        /// Shape ids per connection.
        seqs: &'a [Vec<u16>],
        /// The expected skyline of each shape.
        reference: &'a [Vec<u32>],
    },
}

impl Traffic<'_> {
    /// Query `k` of connection `conn` (sequences wrap if a run outlasts
    /// them; [`ConnRun::wrapped`] records it).
    pub fn query(&self, conn: usize, k: usize) -> &[Point] {
        match self {
            Traffic::Fresh(seqs) => &seqs[conn][k % seqs[conn].len()],
            Traffic::Hot { shapes, seqs, .. } => &shapes[seqs[conn][k % seqs[conn].len()] as usize],
        }
    }

    /// Requests in connection `conn`'s sequence before it wraps.
    pub fn len(&self, conn: usize) -> usize {
        match self {
            Traffic::Fresh(seqs) => seqs[conn].len(),
            Traffic::Hot { seqs, .. } => seqs[conn].len(),
        }
    }

    /// The expected skyline of request `k`, when known before the run.
    pub fn expected(&self, conn: usize, k: usize) -> Option<&[u32]> {
        match self {
            Traffic::Fresh(_) => None,
            Traffic::Hot {
                seqs, reference, ..
            } => Some(&reference[seqs[conn][k % seqs[conn].len()] as usize]),
        }
    }
}

/// What one connection saw during a run.
pub struct ConnRun {
    /// Requests sent.
    pub attempted: u64,
    /// `(client-observed latency in ns, completion time)` per answered
    /// request.
    pub samples: Vec<(u64, Instant)>,
    /// Replies kept for checking after the run (fresh traffic only).
    pub replies: Vec<(u32, WireResult)>,
    /// Replies that did not match the reference (hot traffic).
    pub wrong: u64,
    /// `RetryLater` answers.
    pub shed: u64,
    /// `Error` frames, unexpected frames and broken connections.
    pub errors: u64,
    /// Requests with no reply within [`REPLY_TIMEOUT`].
    pub timeouts: u64,
    /// Replies by `served_by` byte: planner, cache, diagram.
    pub served: [u64; 3],
    /// Replies by algorithm byte: naive, bbs, b2s2, vs2, routed.
    pub algorithms: [u64; 5],
    /// Ping round trips in ns (traced pass only).
    pub pings: Vec<u64>,
    /// Whether the request sequence ran out and wrapped.
    pub wrapped: bool,
    /// First failure, for the report.
    pub first_failure: Option<String>,
    /// This connection's spans.
    pub tracer: Tracer,
}

/// Drives `conns` closed-loop connections (one request in flight each)
/// until `deadline`. With `trace`, every request is wrapped in a
/// `client.request` span and one Ping per [`PING_EVERY`] requests times
/// the bare network path.
pub fn drive(
    addr: &str,
    conns: usize,
    deadline: Instant,
    traffic: &Traffic,
    trace: bool,
    epoch: Instant,
) -> Result<Vec<ConnRun>, String> {
    let mut links = Vec::with_capacity(conns);
    for _ in 0..conns {
        links.push(Conn::connect(addr)?);
    }
    let runs = std::thread::scope(|s| {
        let handles: Vec<_> = links
            .into_iter()
            .enumerate()
            .map(|(c, link)| s.spawn(move || drive_one(link, c, deadline, traffic, trace, epoch)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().map_err(|_| "load thread panicked".to_string()))
            .collect::<Result<Vec<_>, _>>()
    })?;
    Ok(runs)
}

fn drive_one(
    mut link: Conn,
    conn: usize,
    deadline: Instant,
    traffic: &Traffic,
    trace: bool,
    epoch: Instant,
) -> ConnRun {
    let mut run = ConnRun {
        attempted: 0,
        samples: Vec::with_capacity(1 << 16),
        replies: Vec::new(),
        wrong: 0,
        shed: 0,
        errors: 0,
        timeouts: 0,
        served: [0; 3],
        algorithms: [0; 5],
        pings: Vec::new(),
        wrapped: false,
        first_failure: None,
        tracer: Tracer::new(trace, epoch),
    };
    let mut k = 0usize;
    while Instant::now() < deadline {
        if k == traffic.len(conn) {
            run.wrapped = true;
        }
        if trace && k % PING_EVERY == PING_EVERY - 1 {
            run.tracer.open("net.ping", u64::MAX);
            let t0 = Instant::now();
            let pong = link.exchange(&Frame::Ping, &mut run.tracer);
            run.pings.push(t0.elapsed().as_nanos() as u64);
            run.tracer.close();
            if !matches!(pong, Ok(Frame::Pong)) {
                run.errors += 1;
                run.first_failure
                    .get_or_insert(format!("ping failed: {pong:?}"));
                break;
            }
        }
        let frame = Frame::Query {
            force: None,
            query: traffic.query(conn, k).to_vec(),
        };
        run.attempted += 1;
        run.tracer
            .open("client.request", ((conn as u64) << 32) | k as u64);
        let t0 = Instant::now();
        let reply = link.exchange(&frame, &mut run.tracer);
        let done = Instant::now();
        let lat = (done - t0).as_nanos() as u64;
        run.tracer.close();
        match reply {
            Ok(Frame::QueryResult(result)) => {
                run.samples.push((lat, done));
                let served = match result.served_by {
                    SERVED_BY_PLANNER => 0,
                    SERVED_BY_CACHE => 1,
                    SERVED_BY_DIAGRAM => 2,
                    _ => 0,
                };
                run.served[served] += 1;
                run.algorithms[usize::from(result.algorithm).min(4)] += 1;
                match traffic.expected(conn, k) {
                    Some(expected) => {
                        if result.generation != 0 || result.skyline != expected {
                            run.wrong += 1;
                            run.first_failure.get_or_insert(format!(
                                "wrong answer to request {k} of connection {conn}"
                            ));
                        }
                    }
                    None => run.replies.push((k as u32, result)),
                }
            }
            Ok(Frame::RetryLater { .. }) => run.shed += 1,
            Ok(other) => {
                run.errors += 1;
                run.first_failure
                    .get_or_insert(format!("unexpected reply {other:?}"));
            }
            Err(Failure::Timeout) => {
                run.timeouts += 1;
                run.first_failure.get_or_insert("reply timed out".into());
                break;
            }
            Err(Failure::Broken(why)) => {
                run.errors += 1;
                run.first_failure.get_or_insert(why);
                break;
            }
        }
        k += 1;
    }
    run
}

impl ConnRun {
    /// Requests that failed: shed, errors, timeouts and wrong answers
    /// found so far.
    pub fn failed(&self) -> u64 {
        self.shed + self.errors + self.timeouts + self.wrong
    }
}

/// Sends every shape round-robin on one connection until a whole round
/// is served by the diagram (the untimed warm-up of `hot-shapes`).
/// Returns the rounds it took.
pub fn warm_until_diagram(
    addr: &str,
    shapes: &[Vec<Point>],
    limit: Duration,
) -> Result<usize, String> {
    let mut link = Conn::connect(addr)?;
    let mut off = Tracer::new(false, Instant::now());
    let deadline = Instant::now() + limit;
    let mut rounds = 0;
    while Instant::now() < deadline {
        rounds += 1;
        let mut all = true;
        for q in shapes {
            let frame = Frame::Query {
                force: None,
                query: q.clone(),
            };
            match link.exchange(&frame, &mut off) {
                Ok(Frame::QueryResult(r)) => all &= r.served_by == SERVED_BY_DIAGRAM,
                other => return Err(format!("warm-up request failed: {other:?}")),
            }
        }
        if all {
            return Ok(rounds);
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    Err(format!(
        "the diagram did not serve every shape within {limit:?}"
    ))
}
