//! The `serve` workload: a spawned `delin_serve --socket` daemon driven by
//! closed-loop clients, one request in flight per client.

use crate::batch::{self, is_clean};
use crate::speed::Speed;
use crate::stats::{median, Tail};
use crate::units::serve_unit;
use crate::{config, peak_rss_mb, Metrics, Outcome, SETUPS, TAIL_TOP, WORKERS};
use delin_vic::batch::{BatchJob, BatchRunner, BatchUnit, UnitReport};
use delin_vic::json::{self, Json};
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Closed-loop clients, each on its own connection.
pub const CLIENTS: usize = 2;
/// Requests in the warm-up round that ends each set-up.
pub const WARM_UP: usize = 500;
/// Timed requests every end-to-end run makes: enough for a p99 tail.
pub const MIN_TIMED: usize = 2_000;
/// Segments of the timed phase, each followed by a calibration kernel.
pub const SEGMENTS: usize = 10;
/// Timed requests before the daemon's peak memory is read.
pub const RSS_AFTER: usize = 1_000;
/// A response slower than this fails the request instead of wedging the run.
pub const CLIENT_TIMEOUT: Duration = Duration::from_secs(20);
/// Longest wait for a spawned daemon's socket.
const SPAWN_TIMEOUT: Duration = Duration::from_secs(30);
/// Directory, relative to the checkout root, for the daemon's socket.
const RUN_DIR: &str = ".perfbench-run";

/// A running daemon; killed and reaped on drop.
pub struct Daemon {
    child: Child,
    socket: PathBuf,
}

impl Daemon {
    /// Spawns `bin` on a fresh socket (relative path: socket paths are
    /// short-limited) with every engine knob pinned by flag, and opens
    /// [`CLIENTS`] connections once it listens.
    pub fn spawn(bin: &Path, n: usize) -> Result<(Daemon, Vec<Client>), String> {
        std::fs::create_dir_all(RUN_DIR).map_err(|e| format!("{RUN_DIR}: {e}"))?;
        let socket = PathBuf::from(format!("{RUN_DIR}/d{}-{n}.sock", std::process::id()));
        let _ = std::fs::remove_file(&socket);
        let child = Command::new(bin)
            .arg("--socket")
            .arg(&socket)
            .args(["--workers", &WORKERS.to_string()])
            .args(["--max-in-flight", "64", "--conn-quota", "8", "--max-connections", "8"])
            .args(["--cache-cap", "0", "--idle-timeout-ms", "0"])
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("spawning {}: {e}", bin.display()))?;
        let mut daemon = Daemon { child, socket };
        let start = Instant::now();
        let first = loop {
            match UnixStream::connect(&daemon.socket) {
                Ok(s) => break s,
                Err(_) if start.elapsed() < SPAWN_TIMEOUT => {
                    if let Ok(Some(status)) = daemon.child.try_wait() {
                        return Err(format!("daemon exited early: {status}"));
                    }
                    std::thread::sleep(Duration::from_millis(1));
                }
                Err(e) => return Err(format!("daemon socket never came up: {e}")),
            }
        };
        let mut clients = vec![Client::new(first, CLIENT_TIMEOUT).map_err(|e| e.to_string())?];
        while clients.len() < CLIENTS {
            let s = UnixStream::connect(&daemon.socket).map_err(|e| e.to_string())?;
            clients.push(Client::new(s, CLIENT_TIMEOUT).map_err(|e| e.to_string())?);
        }
        Ok((daemon, clients))
    }

    /// The daemon's peak resident set in MB.
    pub fn peak_rss_mb(&self) -> f64 {
        peak_rss_mb(&self.child.id().to_string())
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        let _ = std::fs::remove_file(&self.socket);
        let _ = std::fs::remove_dir(RUN_DIR);
    }
}

/// One connection.
pub struct Client {
    reader: BufReader<UnixStream>,
    writer: UnixStream,
    line: String,
}

/// What the client keeps of one response.
#[derive(Debug, Clone)]
pub struct Reply {
    pub index: usize,
    pub latency_ms: f64,
    pub bytes: usize,
    /// An analyzed result with no degraded pair; otherwise the reason.
    pub error: Option<String>,
    pub overloaded: bool,
    pub edges_fp: String,
    pub vectorized: u64,
    pub independent: u64,
    /// The response's `stats` object, verbatim.
    pub stats: String,
}

impl Client {
    pub fn new(stream: UnixStream, timeout: Duration) -> std::io::Result<Client> {
        stream.set_read_timeout(Some(timeout))?;
        let writer = stream.try_clone()?;
        Ok(Client { reader: BufReader::new(stream), writer, line: String::new() })
    }

    /// Sends `unit` as request `index` and waits for its response. The
    /// latency runs from just before the write to the end of the line.
    pub fn request(&mut self, index: usize, unit: &BatchUnit) -> Result<Reply, String> {
        let mut req = String::from("{\"id\":");
        json::write_str(&mut req, &index.to_string());
        req.push_str(",\"name\":");
        json::write_str(&mut req, &unit.name);
        req.push_str(",\"source\":");
        json::write_str(&mut req, &unit.source);
        req.push_str(",\"assumptions\":{");
        for (i, (sym, lb)) in unit.assumptions.iter().enumerate() {
            if i > 0 {
                req.push(',');
            }
            json::write_str(&mut req, sym.name());
            req.push_str(&format!(":{lb}"));
        }
        req.push_str("},\"edges\":true}\n");
        self.line.clear();
        let t = Instant::now();
        self.writer.write_all(req.as_bytes()).map_err(|e| format!("send: {e}"))?;
        match self.reader.read_line(&mut self.line) {
            Ok(0) => return Err("daemon closed the connection".into()),
            Ok(_) => {}
            Err(e) => return Err(format!("no response within {CLIENT_TIMEOUT:?}: {e}")),
        }
        let latency_ms = t.elapsed().as_secs_f64() * 1e3;
        Ok(summarize(index, &self.line, latency_ms))
    }
}

/// The fields of a result line the checks need. `stats` is the last field
/// the daemon writes, so it is cut from the end without parsing the edges.
fn summarize(index: usize, line: &str, latency_ms: f64) -> Reply {
    let field = |key: &str| -> Option<&str> {
        let at = line.find(&format!("\"{key}\":"))? + key.len() + 3;
        let rest = &line[at..];
        Some(&rest[..rest.find([',', '}'])?])
    };
    let stats = line.rfind("\"stats\":").map_or("", |at| line[at + 8..].trim_end());
    let stats = stats.strip_suffix('}').unwrap_or("").to_string();
    let overloaded = line.contains("\"error\":\"overloaded\"");
    let error = if !line.starts_with(&format!("{{\"id\":\"{index}\",\"type\":\"result\"")) {
        Some(format!("not a result: {}", line.chars().take(200).collect::<String>()))
    } else if field("outcome") != Some("\"analyzed\"") {
        Some("not analyzed".into())
    } else if !stats.contains("\"degraded\":0,") {
        Some("degraded pairs".into())
    } else {
        None
    };
    let num = |s: Option<&str>| s.and_then(|v| v.parse().ok()).unwrap_or(u64::MAX);
    Reply {
        index,
        latency_ms,
        bytes: line.len(),
        error,
        overloaded,
        edges_fp: field("edges_fp").unwrap_or("").trim_matches('"').to_string(),
        vectorized: num(field("vectorized")),
        independent: num(stats.find("\"independent\":").map(|at| {
            let rest = &stats[at + 14..];
            &rest[..rest.find(',').unwrap_or(rest.len())]
        })),
        stats,
    }
}

/// Every request of a phase: its reply, or its index and what went wrong.
type Log = Vec<Result<Reply, (usize, String)>>;

/// Drives the clients closed-loop over fresh unit indices from `next`
/// until `stop` says so; returns every reply, failures included, and the
/// phase's wall time in seconds.
fn drive(
    clients: &mut [Client],
    seed: u64,
    next: &AtomicUsize,
    stop: impl Fn(usize) -> bool + Sync,
) -> (Log, f64) {
    let phase = Instant::now();
    let replies = Mutex::new(Vec::new());
    std::thread::scope(|scope| {
        for client in clients.iter_mut() {
            let (replies, stop) = (&replies, &stop);
            scope.spawn(move || loop {
                let index = next.fetch_add(1, Ordering::Relaxed);
                if stop(index) {
                    break;
                }
                let unit = serve_unit(seed, index);
                let reply = client.request(index, &unit).map_err(|e| (index, e));
                let failed = reply.is_err();
                replies.lock().expect("reply log poisoned by a client panic").push(reply);
                if failed {
                    break;
                }
            });
        }
    });
    let elapsed = phase.elapsed().as_secs_f64();
    let mut replies = replies.into_inner().expect("reply log poisoned by a client panic");
    replies.sort_by_key(|r| match r {
        Ok(r) => r.index,
        Err((i, _)) => *i,
    });
    (replies, elapsed)
}

/// One set-up: spawn the daemon, connect, and run the warm-up round.
fn setup(bin: &Path, seed: u64, n: usize) -> Result<(Daemon, Vec<Client>, Log), String> {
    let (daemon, mut clients) = Daemon::spawn(bin, n)?;
    let next = AtomicUsize::new(0);
    let (warm, _) = drive(&mut clients, seed, &next, |i| i >= WARM_UP);
    Ok((daemon, clients, warm))
}

pub fn run(bin: &Path, seed: u64, seconds: f64, trace: bool, out: &mut Outcome) -> Metrics {
    let mut setups = Vec::new();
    let mut setup_speed = Speed::default();
    let mut live = None;
    let mut log = Vec::new();
    setup_speed.sample();
    for n in 0..if trace { 1 } else { SETUPS } {
        let t = Instant::now();
        match setup(bin, seed, n) {
            Ok((daemon, clients, warm)) => {
                let elapsed = t.elapsed().as_secs_f64();
                setups.push(elapsed / setup_speed.sample());
                log.extend(warm);
                live = Some((daemon, clients));
            }
            Err(e) => {
                out.check(false, &format!("serve set-up failed: {e}"));
                return Metrics::new();
            }
        }
    }
    let (daemon, mut clients) = live.expect("at least one set-up");
    let warm_up: Vec<Reply> =
        log.iter().filter_map(|r| r.as_ref().ok()).take(WARM_UP).cloned().collect();

    // The timed phase runs in segments with a calibration kernel between
    // them, while the clients are idle. Trace runs keep the socket phase
    // short: the in-process passes over the same units afterwards take
    // several times longer.
    let (segments, window, min_timed) =
        if trace { (1, (seconds / 4.0).max(1.0), 0) } else { (SEGMENTS, seconds, MIN_TIMED) };
    let next = AtomicUsize::new(WARM_UP);
    let mut speed = Speed::default();
    let mut timed = Vec::new();
    let mut rates = Vec::new();
    let mut rss = f64::NAN;
    let mut latencies = Vec::new();
    let start = Instant::now();
    speed.sample();
    for s in 1..=segments {
        // The daemon's cache grows with every new problem, so the first
        // segment is a fixed amount of work and its memory is read after it.
        let fixed = s == 1 && !trace;
        let until = WARM_UP + if fixed { RSS_AFTER } else { min_timed * s / segments };
        let end = window * s as f64 / segments as f64;
        let (replies, elapsed) = drive(&mut clients, seed, &next, |i| {
            i >= until && (fixed || start.elapsed().as_secs_f64() >= end)
        });
        if fixed {
            rss = daemon.peak_rss_mb();
        }
        let f = speed.sample();
        rates.push(replies.iter().filter(|r| r.is_ok()).count() as f64 / elapsed * f);
        for r in replies.iter().flatten() {
            latencies.push(r.latency_ms / f);
        }
        timed.extend(replies);
    }
    let timed_s = start.elapsed().as_secs_f64();
    drop(clients);
    drop(daemon);

    let replies: Vec<&Reply> = timed.iter().filter_map(|r| r.as_ref().ok()).collect();
    let sent = next.load(Ordering::Relaxed);
    let units: Vec<BatchUnit> = (0..sent).map(|i| serve_unit(seed, i)).collect();
    check_replies(&units, log.iter().chain(&timed), out);

    if trace {
        return traced(&units, &replies, seconds, out);
    }
    println!(
        "timed: {} requests in {segments} segments over {:.1} s on {CLIENTS} connections; \
         host slowdown {:.3} (set-up {:.3})",
        replies.len(),
        timed_s,
        speed.median_factor(),
        setup_speed.median_factor()
    );
    let mut m = Metrics::new();
    m.put("setup_s", median(&setups), "s");
    if !latencies.is_empty() {
        m.put("units_per_s", median(&rates), "1/s");
        m.put("unit_p50_ms", median(&latencies), "ms");
    }
    m.tail("unit_tail_ms", &latencies, Tail { chunk: MIN_TIMED, top: TAIL_TOP }, out);
    m.put("peak_rss_mb", rss, "MB");
    m.put("independent_pairs", warm_up.iter().map(|r| r.independent).sum::<u64>() as f64, "count");
    m.put("vectorized_stmts", warm_up.iter().map(|r| r.vectorized).sum::<u64>() as f64, "count");
    m.put("clean_share", out.clean_share(), "ratio");
    m
}

/// Every response must be a clean result equal to the in-process report
/// of the same unit: edge fingerprint, vectorized count and statistics.
fn check_replies<'a>(
    units: &[BatchUnit],
    replies: impl Iterator<Item = &'a Result<Reply, (usize, String)>>,
    out: &mut Outcome,
) {
    let jobs = units.iter().enumerate().map(|(i, u)| BatchJob {
        unit: u.clone(),
        budget: None,
        want_edges: false,
        tag: i as u64,
    });
    let reference: Mutex<BTreeMap<usize, UnitReport>> = Mutex::new(BTreeMap::new());
    BatchRunner::new(config(WORKERS)).run_jobs(jobs, false, |tag, report| {
        reference.lock().expect("reference map").insert(tag as usize, report.clone());
    });
    let reference = reference.into_inner().expect("reference map");
    let (mut attempted, mut failed, mut mismatched) = (0, 0, 0);
    for reply in replies {
        attempted += 1;
        let reply = match reply {
            Ok(r) => r,
            Err((i, e)) => {
                eprintln!("perfbench: request {i} failed: {e}");
                failed += 1;
                continue;
            }
        };
        if let Some(e) = &reply.error {
            eprintln!("perfbench: request {} not clean: {e}", reply.index);
            failed += 1;
            continue;
        }
        let r = &reference[&reply.index];
        let same = is_clean(r)
            && reply.edges_fp == format!("{:016x}", r.edges_fp)
            && reply.vectorized == r.vectorized_statements as u64
            && json::parse(&reply.stats).ok().map(|j| flatten(&j)) == Some(expected_stats(r));
        if !same {
            eprintln!("perfbench: request {} differs from the in-process report", reply.index);
            mismatched += 1;
            failed += 1;
        }
    }
    println!("serve: {attempted} responses checked against in-process reports, {failed} not clean");
    out.attempt(attempted, failed);
    out.check(attempted > 0, "no serve response arrived");
    out.check(mismatched == 0, "a serve response differs from the in-process report");
}

/// A JSON object's numbers by dotted path.
fn flatten(j: &Json) -> BTreeMap<String, u64> {
    fn walk(prefix: &str, j: &Json, out: &mut BTreeMap<String, u64>) {
        match j {
            Json::Obj(map) => {
                for (k, v) in map {
                    let key = if prefix.is_empty() { k.clone() } else { format!("{prefix}.{k}") };
                    walk(&key, v, out);
                }
            }
            other => {
                out.insert(prefix.to_string(), other.as_u64().unwrap_or(u64::MAX));
            }
        }
    }
    let mut out = BTreeMap::new();
    walk("", j, &mut out);
    out
}

/// The statistics a response must carry for `report`, keyed as
/// [`flatten`] keys the response.
fn expected_stats(report: &UnitReport) -> BTreeMap<String, u64> {
    let v = report.stats.verdict_stats();
    let mut out: BTreeMap<String, u64> = [
        ("pairs", v.pairs_tested as u64),
        ("independent", v.proven_independent as u64),
        ("conservative", v.conservative_pairs as u64),
        ("cache_hits", v.cache_hits as u64),
        ("cache_misses", v.cache_misses as u64),
        ("solver_nodes", v.solver_nodes),
        ("refine_queries", v.refine_queries),
        ("subtree_reuses", v.subtree_reuses),
        ("nodes_saved", v.nodes_saved),
        ("degraded", v.degraded_pairs as u64),
    ]
    .into_iter()
    .map(|(k, n)| (k.to_string(), n))
    .collect();
    for (reason, n) in &v.degraded_by {
        out.insert(format!("degraded_by.{reason}"), *n as u64);
    }
    for (name, n) in &v.decided_by {
        out.insert(format!("decided_by.{name}"), *n as u64);
    }
    for (name, n) in &v.independent_by {
        out.insert(format!("independent_by.{name}"), *n as u64);
    }
    out
}

/// Per-layer metrics of the serve workload: the traced run over the units
/// the daemon served, in the order it served them, against one cache as the
/// daemon keeps one; wire time is each request's client latency less that
/// unit's in-process pipeline time.
fn traced(units: &[BatchUnit], replies: &[&Reply], seconds: f64, out: &mut Outcome) -> Metrics {
    let (mut m, unit_ms) = batch::traced_run(units, seconds * 0.75, out);
    let served: Vec<&&Reply> = replies.iter().filter(|r| r.error.is_none()).collect();
    if !served.is_empty() {
        let wire: Vec<f64> = served.iter().map(|r| r.latency_ms - unit_ms[r.index]).collect();
        m.put("vic.serve.wire_ms", median(&wire), "ms");
        let bytes: Vec<f64> = served.iter().map(|r| r.bytes as f64).collect();
        m.put("vic.serve.response_bytes", median(&bytes), "bytes");
    }
    m.put("vic.serve.overloaded", replies.iter().filter(|r| r.overloaded).count() as f64, "count");
    m
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::os::unix::net::UnixListener;

    #[test]
    fn a_hung_daemon_times_the_client_out() {
        let path = format!("hung-{}.sock", std::process::id());
        let _ = std::fs::remove_file(&path);
        let listener = UnixListener::bind(&path).expect("bind");
        // Accepts and reads, never answers.
        let server = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().expect("accept");
            let mut sink = Vec::new();
            let _ = std::io::Read::read_to_end(&mut stream, &mut sink);
        });
        let stream = UnixStream::connect(&path).expect("connect");
        let mut client = Client::new(stream, Duration::from_millis(300)).expect("client");
        let t = Instant::now();
        let unit = serve_unit(1, 0);
        let result = client.request(0, &unit);
        assert!(result.is_err(), "a silent daemon must fail the request");
        assert!(t.elapsed() < Duration::from_secs(5), "the client must not wedge");
        drop(client);
        server.join().expect("server thread");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn summarize_reads_a_result_line() {
        let line = "{\"id\":\"7\",\"type\":\"result\",\"name\":\"x\",\"outcome\":\"analyzed\",\
                    \"edges\":1,\"edges_fp\":\"00000000000000ab\",\"vectorized\":2,\"dep_edges\":[],\
                    \"stats\":{\"pairs\":3,\"independent\":1,\"degraded\":0,\"degraded_by\":{}}}\n";
        let r = summarize(7, line, 1.0);
        assert!(r.error.is_none(), "{:?}", r.error);
        assert_eq!((r.edges_fp.as_str(), r.vectorized, r.independent), ("00000000000000ab", 2, 1));
        let stats = json::parse(&r.stats).expect("stats object");
        assert_eq!(flatten(&stats)["pairs"], 3);
        let overloaded = "{\"id\":\"7\",\"type\":\"error\",\"error\":\"overloaded\"}\n";
        let r = summarize(7, overloaded, 1.0);
        assert!(r.overloaded && r.error.is_some());
    }
}
