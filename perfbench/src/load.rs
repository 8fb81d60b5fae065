//! The load side: `rbp-serve --tcp` as a child process, and two
//! closed-loop clients that each send their next request only after
//! reading the previous answer.

use crate::workload::Plan;
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::Hasher;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// Worker threads the server runs with (the host's core count).
pub const WORKERS: usize = 2;

/// Requests each client completes at least, so a run has ≥ 1000
/// latency samples and ≥ 10 beyond its 99th percentile.
const MIN_PER_CLIENT: usize = 500;

/// A running `rbp-serve --tcp`; killed and reaped on drop.
pub struct ServerProc {
    child: Child,
    addr: SocketAddr,
}

impl ServerProc {
    /// Starts the server and returns it with its set-up time: from
    /// spawning the process until a first request (`stats`) is answered.
    /// With a snapshot, the server reloads it before it listens.
    pub fn start(bin: &Path, snapshot: Option<&Path>) -> Result<(ServerProc, Duration), String> {
        let addr = free_port()?;
        let mut cmd = Command::new(bin);
        cmd.arg("--tcp")
            .arg(addr.to_string())
            .arg("--workers")
            .arg(WORKERS.to_string())
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::null());
        if let Some(path) = snapshot {
            cmd.arg("--snapshot").arg(path);
        }
        let started = Instant::now();
        let child = cmd
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", bin.display()))?;
        let mut server = ServerProc { child, addr };
        let stream = loop {
            match TcpStream::connect(addr) {
                Ok(s) => break s,
                Err(e) => {
                    if let Ok(Some(status)) = server.child.try_wait() {
                        return Err(format!("server exited during start-up: {status}"));
                    }
                    if started.elapsed() > Duration::from_secs(60) {
                        return Err(format!("server never listened on {addr}: {e}"));
                    }
                    std::thread::sleep(Duration::from_micros(50));
                }
            }
        };
        let line = request_line(stream, "stats\n")?;
        let setup = started.elapsed();
        if !line.starts_with("stats ") {
            return Err(format!("unexpected answer to stats: {line}"));
        }
        Ok((server, setup))
    }

    /// The server's `stats` line.
    pub fn stats(&self) -> Result<String, String> {
        let stream = TcpStream::connect(self.addr).map_err(|e| e.to_string())?;
        request_line(stream, "stats\n")
    }

    /// Peak resident memory (`VmHWM`) of the server process, in KiB.
    pub fn peak_rss_kib(&self) -> Result<u64, String> {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.child.id()))
            .map_err(|e| format!("cannot read the server's memory: {e}"))?;
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
            .ok_or_else(|| "no VmHWM line for the server".to_string())
    }
}

impl Drop for ServerProc {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

fn free_port() -> Result<SocketAddr, String> {
    let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| e.to_string())?;
    listener.local_addr().map_err(|e| e.to_string())
}

/// Sends one line-request and reads one line back.
fn request_line(mut stream: TcpStream, request: &str) -> Result<String, String> {
    stream
        .write_all(request.as_bytes())
        .map_err(|e| e.to_string())?;
    let mut line = String::new();
    BufReader::new(stream)
        .read_line(&mut line)
        .map_err(|e| e.to_string())?;
    Ok(line.trim_end().to_string())
}

/// How one request ended.
#[derive(Clone, Debug)]
pub enum Answer {
    /// A `result` with its `solution v1` document, identified by digest.
    Solution { cached: bool, digest: u64 },
    /// `failed`, `shed`, `cancelled`, `protocol-error`, or a dropped
    /// connection.
    Failed(String),
}

/// One request of a run.
#[derive(Clone, Debug)]
pub struct Sample {
    pub client: usize,
    /// Position in the client's request sequence.
    pub k: usize,
    pub doc: usize,
    /// Send time, from the start of the run.
    pub start: Duration,
    pub latency: Duration,
    pub answer: Answer,
}

/// What a load run produced.
pub struct LoadRun {
    pub samples: Vec<Sample>,
    /// The first copy of each distinct (document, answer digest).
    pub bodies: HashMap<(usize, u64), Vec<u8>>,
    /// From the first send to the last answer.
    pub window: Duration,
}

/// Drives both clients: each runs until `seconds` have passed and it has
/// completed the scored prefix and [`MIN_PER_CLIENT`] requests.
pub fn run(server: &ServerProc, plan: &Plan, seconds: u64) -> LoadRun {
    let epoch = Instant::now();
    let deadline = epoch + Duration::from_secs(seconds);
    let floor = plan.prefix.max(MIN_PER_CLIENT);
    let results: Vec<ClientOut> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..2)
            .map(|c| s.spawn(move || client(c, server.addr, plan, epoch, deadline, floor)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let window = epoch.elapsed();
    let mut samples = Vec::new();
    let mut bodies = HashMap::new();
    for (s, b) in results {
        samples.extend(s);
        for (key, body) in b {
            bodies.entry(key).or_insert(body);
        }
    }
    samples.sort_by_key(|s| s.start);
    LoadRun {
        samples,
        bodies,
        window,
    }
}

type ClientOut = (Vec<Sample>, HashMap<(usize, u64), Vec<u8>>);

fn client(
    c: usize,
    addr: SocketAddr,
    plan: &Plan,
    epoch: Instant,
    deadline: Instant,
    floor: usize,
) -> ClientOut {
    let reqs = &plan.streams[c];
    let mut samples = Vec::new();
    let mut bodies = HashMap::new();
    let mut conn = match Connection::open(addr) {
        Ok(conn) => Some(conn),
        Err(e) => {
            eprintln!("perfbench: client {c} cannot connect: {e}");
            None
        }
    };
    let mut body = Vec::new();
    let mut k = 0;
    while k < floor || Instant::now() < deadline {
        if k >= reqs.len() && !plan.cycle {
            break;
        }
        let req = reqs[k % reqs.len()];
        let id = format!("c{c}r{k}");
        let head = req.head(&id);
        let doc = plan.docs[req.doc].text.as_bytes();
        let start = epoch.elapsed();
        let t0 = Instant::now();
        let answer = match conn.as_mut() {
            Some(cn) => cn.exchange(head.as_bytes(), doc, &mut body),
            None => Err("no connection".to_string()),
        };
        let latency = t0.elapsed();
        let answer = match answer {
            Ok(Some(cached)) => {
                let mut h = DefaultHasher::new();
                h.write(&body);
                let digest = h.finish();
                bodies
                    .entry((req.doc, digest))
                    .or_insert_with(|| body.clone());
                Answer::Solution { cached, digest }
            }
            Ok(None) => Answer::Failed(String::from_utf8_lossy(&body).trim().to_string()),
            Err(e) => {
                // a dropped connection fails this request; reconnect
                conn = Connection::open(addr).ok();
                Answer::Failed(e)
            }
        };
        samples.push(Sample {
            client: c,
            k,
            doc: req.doc,
            start,
            latency,
            answer,
        });
        k += 1;
    }
    (samples, bodies)
}

/// One client connection.
struct Connection {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
    line: Vec<u8>,
}

impl Connection {
    fn open(addr: SocketAddr) -> Result<Connection, String> {
        let writer = TcpStream::connect(addr).map_err(|e| e.to_string())?;
        writer.set_nodelay(true).map_err(|e| e.to_string())?;
        let reader =
            BufReader::with_capacity(1 << 16, writer.try_clone().map_err(|e| e.to_string())?);
        Ok(Connection {
            writer,
            reader,
            line: Vec::new(),
        })
    }

    /// Sends one submit and reads until its terminal response. On a
    /// `result`, `body` holds the solution document and the cached flag
    /// is returned; on a failure line, `body` holds that line.
    fn exchange(
        &mut self,
        head: &[u8],
        doc: &[u8],
        body: &mut Vec<u8>,
    ) -> Result<Option<bool>, String> {
        self.writer.write_all(head).map_err(|e| e.to_string())?;
        self.writer.write_all(doc).map_err(|e| e.to_string())?;
        body.clear();
        loop {
            self.line.clear();
            if self
                .reader
                .read_until(b'\n', &mut self.line)
                .map_err(|e| e.to_string())?
                == 0
            {
                return Err("connection closed mid-request".into());
            }
            let verb = self
                .line
                .split(|&b| b == b' ' || b == b'\n')
                .next()
                .unwrap_or(b"");
            match verb {
                b"queued" | b"cache-hit" | b"progress" => continue,
                b"result" => {
                    let cached = self.line.windows(11).any(|w| w == b"cached=true");
                    loop {
                        let start = body.len();
                        if self
                            .reader
                            .read_until(b'\n', body)
                            .map_err(|e| e.to_string())?
                            == 0
                        {
                            return Err("connection closed inside a solution document".into());
                        }
                        if body[start..].trim_ascii() == b"end" {
                            return Ok(Some(cached));
                        }
                    }
                }
                _ => {
                    body.extend_from_slice(&self.line);
                    return Ok(None);
                }
            }
        }
    }
}
