//! The `serve_topk` workload: the `entmatcher serve` binary under a
//! seeded open-loop load from two keep-alive connections, with every
//! response checked against an exact top-k computed before the load.
//!
//! The traced run adds the capacity ladder and replays the same query
//! stream in-process against `MatchService::top_k` (no HTTP) and against
//! the `fused_topk_packed` kernel directly.

use crate::solve::{load_dataset, load_embeddings};
use crate::trace::Tracer;
use crate::util::{fail, percentile, sorted, vm_hwm_mb, Args, Report};
use entmatcher_core::{CoreError, MatchService, Query, ServeConfig, TargetIndex};
use entmatcher_data::zipf::WeightedSampler;
use entmatcher_eval::{evaluate_links, MatchTask};
use entmatcher_graph::{EntityId, Link};
use entmatcher_linalg::{
    dot, fused_topk, fused_topk_packed, normalize_rows_l2, Matrix, PackedAny, Precision,
};
use entmatcher_support::json::Json;
use entmatcher_support::rng::{Rng, SeedableRng, StdRng};
use std::collections::HashMap;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Requests ask for this many targets per id.
const K: usize = 10;
/// Offered load of the open loop in requests/s. `--calibrate` measured the
/// closed-loop capacity of the query mix on two keep-alive connections at
/// 1,050-1,130 requests/s on a 2-core x86-64 VM in quiet periods and at
/// 430-550 when the host was busy; this rate stays under both, at about
/// half the busy-period capacity.
const RATE: f64 = 300.0;
/// Server spawns per run. Each is one set-up sample; each but the last
/// answers one sweep, and the last one serves the open loop.
const SPAWNS: usize = 8;
/// The latency limit: a request slower than this misses the SLO, and a
/// generator later than this behind its schedule invalidates the phase.
const SLO_S: f64 = 0.010;
/// Ids per request in a sweep over every test source, as a bulk client
/// would send them. Large requests keep the sweep's time in the probe and
/// the JSON work; with 8-id requests it was dominated by thread wake-ups
/// and swung twice as far with the host's load.
const SWEEP_IDS: usize = 512;
/// Each rung of the capacity ladder offers this much more than the last.
const LADDER_STEP: f64 = 1.05;
/// Ladder exponents: from a quarter of the fixed rate to four times it
/// (76 to 1,188 requests/s), past the quiet-period capacity.
const LADDER_RUNGS: std::ops::Range<i32> = -28..29;
const RUNG_SECS: f64 = 1.5;
/// Length of the in-process replay of the query stream.
const REPLAY_SECS: f64 = 4.0;

// ---------------------------------------------------------------------------
// HTTP/1.1 keep-alive client
// ---------------------------------------------------------------------------

/// One keep-alive connection; reconnects after the server closes it.
struct Conn {
    addr: String,
    stream: Option<TcpStream>,
    buf: Vec<u8>,
    opened: u64,
}

impl Conn {
    fn new(addr: &str) -> Conn {
        Conn {
            addr: addr.to_owned(),
            stream: None,
            buf: Vec::new(),
            opened: 0,
        }
    }

    fn request(
        &mut self,
        method: &str,
        path: &str,
        body: &[u8],
    ) -> std::io::Result<(u16, Vec<u8>)> {
        let result = self.exchange(method, path, body);
        if result.is_err() {
            self.stream = None;
        }
        result
    }

    fn exchange(
        &mut self,
        method: &str,
        path: &str,
        body: &[u8],
    ) -> std::io::Result<(u16, Vec<u8>)> {
        use std::io::{Error, ErrorKind};
        if self.stream.is_none() {
            let s = TcpStream::connect(&self.addr)?;
            s.set_nodelay(true)?;
            s.set_read_timeout(Some(Duration::from_secs(5)))?;
            self.stream = Some(s);
            self.buf.clear();
            self.opened += 1;
        }
        let stream = self.stream.as_mut().expect("connected");
        let mut msg = format!(
            "{method} {path} HTTP/1.1\r\nHost: bench\r\nContent-Type: application/json\r\n\
             Content-Length: {}\r\nConnection: keep-alive\r\n\r\n",
            body.len()
        )
        .into_bytes();
        msg.extend_from_slice(body);
        stream.write_all(&msg)?;
        let mut chunk = [0u8; 16384];
        let head_end = loop {
            if let Some(p) = self.buf.windows(4).position(|w| w == b"\r\n\r\n") {
                break p + 4;
            }
            let n = stream.read(&mut chunk)?;
            if n == 0 {
                return Err(Error::new(ErrorKind::UnexpectedEof, "connection closed"));
            }
            self.buf.extend_from_slice(&chunk[..n]);
        };
        let head = String::from_utf8_lossy(&self.buf[..head_end]).to_string();
        let status: u16 = head
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| Error::new(ErrorKind::InvalidData, "bad status line"))?;
        let header = |name: &str| {
            head.lines().find_map(|l| {
                let (k, v) = l.split_once(':')?;
                k.trim()
                    .eq_ignore_ascii_case(name)
                    .then(|| v.trim().to_owned())
            })
        };
        let len: usize = header("content-length")
            .and_then(|v| v.parse().ok())
            .unwrap_or(0);
        while self.buf.len() < head_end + len {
            let n = stream.read(&mut chunk)?;
            if n == 0 {
                return Err(Error::new(ErrorKind::UnexpectedEof, "truncated body"));
            }
            self.buf.extend_from_slice(&chunk[..n]);
        }
        let body = self.buf[head_end..head_end + len].to_vec();
        self.buf.drain(..head_end + len);
        if header("connection").is_some_and(|v| v.eq_ignore_ascii_case("close")) {
            self.stream = None;
        }
        Ok((status, body))
    }
}

// ---------------------------------------------------------------------------
// The server process
// ---------------------------------------------------------------------------

struct Server {
    child: Child,
    addr: String,
    stderr: Option<std::thread::JoinHandle<()>>,
}

impl Server {
    /// Spawns `entmatcher serve` with default flags and returns it with the
    /// time from spawn to the first `/healthz` 200.
    fn spawn(bin: &str, emb: &str) -> (Server, f64) {
        let t0 = Instant::now();
        let mut child = Command::new(bin)
            .args(["serve", "--embeddings", emb])
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .unwrap_or_else(|e| fail(&format!("spawning {bin}: {e}")));
        let mut lines = BufReader::new(child.stderr.take().expect("piped stderr")).lines();
        let addr = loop {
            match lines.next() {
                Some(Ok(line)) => {
                    if let Some(rest) = line.split_once("listening http://").map(|(_, r)| r) {
                        break rest.split_whitespace().next().unwrap_or("").to_owned();
                    }
                }
                _ => {
                    let _ = child.kill();
                    let _ = child.wait();
                    fail("server exited before listening");
                }
            }
        };
        // Keep draining stderr so the server never blocks on a full pipe.
        let stderr = std::thread::spawn(move || for _ in lines.by_ref() {});
        let mut server = Server {
            child,
            addr,
            stderr: Some(stderr),
        };
        loop {
            if let Ok((200, _)) = Conn::new(&server.addr).request("GET", "/healthz", b"") {
                break;
            }
            if t0.elapsed() > Duration::from_secs(60) {
                server.kill();
                fail("server never became healthy");
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        (server, t0.elapsed().as_secs_f64())
    }

    fn hwm_mb(&self) -> f64 {
        vm_hwm_mb(Some(self.child.id()))
    }

    fn kill(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }

    /// `POST /shutdown`, then waits for the process to exit.
    fn stop(mut self) {
        let _ = Conn::new(&self.addr).request("POST", "/shutdown", b"");
        let t0 = Instant::now();
        while self.child.try_wait().ok().flatten().is_none() {
            if t0.elapsed() > Duration::from_secs(30) {
                self.kill();
                fail("server did not shut down");
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        if let Some(h) = self.stderr.take() {
            let _ = h.join();
        }
    }
}

// ---------------------------------------------------------------------------
// Query stream and the exact reference
// ---------------------------------------------------------------------------

enum Op {
    TopK(Vec<u32>),
    Metrics,
}

struct Item {
    due_s: f64,
    op: Op,
}

/// The open-loop schedule: Poisson arrivals at `rate`, each request 1–8
/// test-source ids drawn from a Zipf(1) popularity over a seeded ranking,
/// plus one `GET /metrics` per second.
fn schedule(seed: u64, rate: f64, secs: f64, ids: &[u32]) -> Vec<Item> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut ranked = ids.to_vec();
    for i in (1..ranked.len()).rev() {
        ranked.swap(i, rng.gen_range(0..=i));
    }
    let weights: Vec<f64> = (1..=ranked.len()).map(|r| 1.0 / r as f64).collect();
    let zipf = WeightedSampler::new(&weights);
    let (mut items, mut t, mut scrape) = (Vec::new(), 0.0, 1.0);
    loop {
        let u: f64 = rng.gen();
        t += -(1.0 - u).ln() / rate;
        if t >= secs {
            return items;
        }
        while scrape <= t {
            items.push(Item {
                due_s: scrape,
                op: Op::Metrics,
            });
            scrape += 1.0;
        }
        let n = rng.gen_range(1..=8usize);
        let req = (0..n).map(|_| ranked[zipf.sample(&mut rng)]).collect();
        items.push(Item {
            due_s: t,
            op: Op::TopK(req),
        });
    }
}

/// Closed loop over every test source, `SWEEP_IDS` ids per request.
fn sweep_items(ids: &[u32]) -> Vec<Item> {
    ids.chunks(SWEEP_IDS)
        .map(|c| Item {
            due_s: 0.0,
            op: Op::TopK(c.to_vec()),
        })
        .collect()
}

/// Exact top-k of every test source over the cosine-normalized rows the
/// server loads, and what a response must agree with.
struct Reference {
    source: Matrix,
    target: Matrix,
    topk: HashMap<u32, Vec<(u32, f32)>>,
}

impl Reference {
    fn new(source: Matrix, target: Matrix, ids: &[u32]) -> Reference {
        let rows: Vec<usize> = ids.iter().map(|&i| i as usize).collect();
        let queries = source.select_rows(&rows).expect("test ids in range");
        let exact = fused_topk(&queries, &target, K).expect("same dimension");
        Reference {
            topk: ids.iter().copied().zip(exact).collect(),
            source,
            target,
        }
    }

    /// Whether a served row equals the exact top-k, ties at equal score
    /// allowed: a differing id must score what the exact one scores.
    fn agrees(&self, id: u32, got: &[(u32, f32)]) -> bool {
        let Some(want) = self.topk.get(&id) else {
            return false;
        };
        let mut seen = std::collections::HashSet::new();
        got.len() == want.len()
            && got.iter().zip(want).all(|(&(gi, gs), &(wi, ws))| {
                let tie = || {
                    let true_score =
                        dot(self.source.row(id as usize), self.target.row(gi as usize));
                    (gs - ws).abs() <= 1e-5 && (true_score - ws).abs() <= 1e-5
                };
                seen.insert(gi) && (gi as usize) < self.target.rows() && (gi == wi || tie())
            })
    }
}

// ---------------------------------------------------------------------------
// Driving a target on a schedule
// ---------------------------------------------------------------------------

#[derive(Default)]
struct Outcome {
    ok: bool,
    rejected: bool,
    ids: usize,
    cached: usize,
    batch_size: usize,
    top1: Vec<u32>,
}

/// What the load generator sends requests to.
trait Target: Send {
    fn call(&mut self, op: &Op) -> Outcome;
}

struct Http {
    conn: Conn,
    reference: Arc<Reference>,
}

impl Target for Http {
    fn call(&mut self, op: &Op) -> Outcome {
        match op {
            Op::Metrics => match self.conn.request("GET", "/metrics", b"") {
                Ok((200, body)) => Outcome {
                    ok: !body.is_empty(),
                    ..Outcome::default()
                },
                _ => Outcome::default(),
            },
            Op::TopK(ids) => {
                let list: Vec<String> = ids.iter().map(u32::to_string).collect();
                let body = format!("{{\"ids\":[{}],\"k\":{K}}}", list.join(","));
                match self.conn.request("POST", "/match/topk", body.as_bytes()) {
                    Ok((200, body)) => check_response(&body, ids, &self.reference),
                    Ok((status, _)) => Outcome {
                        rejected: status == 429 || status == 503,
                        ids: ids.len(),
                        ..Outcome::default()
                    },
                    Err(_) => Outcome {
                        ids: ids.len(),
                        ..Outcome::default()
                    },
                }
            }
        }
    }
}

fn check_response(body: &[u8], ids: &[u32], reference: &Reference) -> Outcome {
    let mut out = Outcome {
        ids: ids.len(),
        ..Outcome::default()
    };
    let Some(doc) = std::str::from_utf8(body)
        .ok()
        .and_then(|t| Json::parse(t).ok())
    else {
        return out;
    };
    let rows: Vec<Vec<(u32, f32)>> = doc
        .get("results")
        .and_then(Json::as_array)
        .map(|rows| {
            rows.iter()
                .map(|row| {
                    row.as_array()
                        .map(|hits| {
                            hits.iter()
                                .filter_map(|h| {
                                    Some((
                                        h.get("id")?.as_f64()? as u32,
                                        h.get("score")?.as_f64()? as f32,
                                    ))
                                })
                                .collect()
                        })
                        .unwrap_or_default()
                })
                .collect()
        })
        .unwrap_or_default();
    out.cached = doc
        .get("cached")
        .and_then(Json::as_array)
        .map(|c| c.iter().filter(|v| v.as_bool() == Some(true)).count())
        .unwrap_or(0);
    out.batch_size = doc.get("batch_size").and_then(Json::as_f64).unwrap_or(0.0) as usize;
    out.ok = rows.len() == ids.len()
        && ids
            .iter()
            .zip(&rows)
            .all(|(&id, row)| reference.agrees(id, row));
    out.top1 = rows
        .iter()
        .map(|r| r.first().map_or(u32::MAX, |h| h.0))
        .collect();
    out
}

struct Service {
    service: Arc<MatchService>,
    reference: Arc<Reference>,
    tracer: Option<(Arc<Tracer>, u64)>,
}

impl Target for Service {
    fn call(&mut self, op: &Op) -> Outcome {
        let Op::TopK(ids) = op else {
            return Outcome {
                ok: true,
                ..Outcome::default()
            };
        };
        let t0 = Instant::now();
        let result = self.service.top_k(&Query::Ids(ids.clone()), K);
        if let Some((tracer, parent)) = &self.tracer {
            tracer.record("service.top_k", Some(*parent), t0, Instant::now());
        }
        match result {
            Ok(res) => Outcome {
                ok: res.results.len() == ids.len()
                    && ids
                        .iter()
                        .zip(&res.results)
                        .all(|(&id, row)| self.reference.agrees(id, row)),
                ids: ids.len(),
                cached: res.cached.iter().filter(|&&c| c).count(),
                batch_size: res.batch_size,
                ..Outcome::default()
            },
            Err(CoreError::Overloaded { .. }) => Outcome {
                rejected: true,
                ids: ids.len(),
                ..Outcome::default()
            },
            Err(_) => Outcome {
                ids: ids.len(),
                ..Outcome::default()
            },
        }
    }
}

struct Sample {
    /// Position of the item in the schedule.
    index: usize,
    due_s: f64,
    latency_s: f64,
    lag_s: f64,
    done_s: f64,
    topk: bool,
    out: Outcome,
}

/// Sends `items` open-loop from one thread per target (one connection
/// each): a free thread takes the next item, sleeps until it is due, and
/// sends it. Latency counts from the due time, so a request that waited
/// for a busy connection carries that wait; `lag_s` is how late the
/// generator itself sent (beyond the moment its connection was free).
fn drive<T: Target>(targets: Vec<T>, items: &[Item]) -> (Vec<Sample>, Vec<T>) {
    let next = AtomicUsize::new(0);
    let start = Instant::now();
    let mut samples = Vec::with_capacity(items.len());
    let mut back = Vec::new();
    std::thread::scope(|s| {
        let workers: Vec<_> = targets
            .into_iter()
            .map(|mut target| {
                let next = &next;
                s.spawn(move || {
                    let mut out = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(item) = items.get(i) else {
                            return (out, target);
                        };
                        let free = start.elapsed().as_secs_f64();
                        if item.due_s > free {
                            std::thread::sleep(Duration::from_secs_f64(item.due_s - free));
                        }
                        let sent = start.elapsed().as_secs_f64();
                        let outcome = target.call(&item.op);
                        let done = start.elapsed().as_secs_f64();
                        out.push(Sample {
                            index: i,
                            due_s: item.due_s,
                            latency_s: done - item.due_s,
                            lag_s: sent - item.due_s.max(free),
                            done_s: done,
                            topk: matches!(item.op, Op::TopK(_)),
                            out: outcome,
                        });
                    }
                })
            })
            .collect();
        for w in workers {
            let (out, target) = w.join().expect("load thread");
            samples.extend(out);
            back.push(target);
        }
    });
    samples.sort_by_key(|s| s.index);
    (samples, back)
}

/// Summary of one driven phase.
struct Phase {
    failed: u64,
    rejected: u64,
    p50_ms: f64,
    p99_ms: f64,
    latency_samples: u64,
    lag_p99_ms: f64,
    /// How long after the last due time the last reply arrived.
    drain_ms: f64,
    wall_s: f64,
    achieved_rps: f64,
    ids: u64,
    cached: u64,
    batch_size_mean: f64,
}

impl Phase {
    fn of(samples: &[Sample]) -> Phase {
        let topk: Vec<&Sample> = samples.iter().filter(|s| s.topk).collect();
        let lat = sorted(topk.iter().map(|s| s.latency_s * 1e3).collect());
        let lag = sorted(samples.iter().map(|s| s.lag_s * 1e3).collect());
        let wall_s = samples.iter().map(|s| s.done_s).fold(0.0, f64::max);
        let last_due = samples.iter().map(|s| s.due_s).fold(0.0, f64::max);
        let batches: Vec<f64> = topk
            .iter()
            .filter(|s| s.out.batch_size > 0)
            .map(|s| s.out.batch_size as f64)
            .collect();
        Phase {
            failed: samples.iter().filter(|s| !s.out.ok).count() as u64,
            rejected: samples.iter().filter(|s| s.out.rejected).count() as u64,
            p50_ms: percentile(&lat, 50.0),
            p99_ms: percentile(&lat, 99.0),
            latency_samples: lat.len() as u64,
            lag_p99_ms: percentile(&lag, 99.0),
            drain_ms: (wall_s - last_due) * 1e3,
            wall_s,
            achieved_rps: topk.iter().filter(|s| s.out.ok).count() as f64 / wall_s.max(1e-9),
            ids: topk.iter().map(|s| s.out.ids as u64).sum(),
            cached: topk.iter().map(|s| s.out.cached as u64).sum(),
            batch_size_mean: batches.iter().sum::<f64>() / batches.len().max(1) as f64,
        }
    }

    /// The generator kept to its schedule within the latency limit.
    fn generator_valid(&self) -> bool {
        self.lag_p99_ms <= SLO_S * 1e3
    }

    /// The rung meets the SLO: p99 within the limit, nothing failed, and
    /// no backlog left when the schedule ended.
    fn meets_slo(&self) -> bool {
        self.generator_valid()
            && self.failed == 0
            && self.p99_ms <= SLO_S * 1e3
            && self.drain_ms <= SLO_S * 1e3
    }
}

fn http_targets(addr: &str, reference: &Arc<Reference>) -> Vec<Http> {
    (0..2)
        .map(|_| Http {
            conn: Conn::new(addr),
            reference: Arc::clone(reference),
        })
        .collect()
}

/// One in-process replay: start a `MatchService` configured as `entmatcher
/// serve` configures it, drive the query stream through `top_k` from two
/// threads, stop it, then run the stream's id batches straight through
/// `fused_topk_packed`. Returns the service phase, the probe's
/// microseconds per row and the wall time.
fn replay(
    source: &Matrix,
    target: &Matrix,
    reference: &Arc<Reference>,
    items: &[Item],
    tracer: Option<&Arc<Tracer>>,
) -> (Phase, f64, f64) {
    let t_root = Instant::now();
    let root = tracer.map(|t| t.open("replay", None, t_root));
    let span = |name: &'static str, t0: Instant| {
        if let Some(t) = tracer {
            t.record(name, root, t0, Instant::now());
        }
    };
    let t0 = Instant::now();
    let cfg = ServeConfig {
        max_inflight: 256,
        slow_ms: None,
        ..ServeConfig::default()
    };
    let service = MatchService::start(source.clone(), TargetIndex::Matrix(target.clone()), cfg)
        .unwrap_or_else(|e| fail(&e.to_string()));
    let service = Arc::new(service);
    span("service.start", t0);

    let t0 = Instant::now();
    let drive_id = tracer.map(|t| t.open("service.drive", root, t0));
    let targets = (0..2)
        .map(|_| Service {
            service: Arc::clone(&service),
            reference: Arc::clone(reference),
            tracer: tracer.map(|t| (Arc::clone(t), drive_id.expect("traced"))),
        })
        .collect();
    let (samples, _) = drive(targets, items);
    if let (Some(t), Some(id)) = (tracer, drive_id) {
        t.close(id, Instant::now());
    }
    let phase = Phase::of(&samples);

    let t0 = Instant::now();
    service.stop();
    span("service.stop", t0);

    let t0 = Instant::now();
    let probe_id = tracer.map(|t| t.open("probe.drive", root, t0));
    let packed = PackedAny::pack(target, Precision::F32);
    let mut us_per_row = Vec::new();
    for item in items {
        let Op::TopK(ids) = &item.op else { continue };
        let rows: Vec<usize> = ids.iter().map(|&i| i as usize).collect();
        let queries = source.select_rows(&rows).expect("ids in range");
        let c0 = Instant::now();
        let hits = fused_topk_packed(&queries, &packed, K).expect("same dimension");
        let c1 = Instant::now();
        if let Some(t) = tracer {
            t.record("probe", probe_id, c0, c1);
        }
        if !ids
            .iter()
            .zip(&hits)
            .all(|(&id, row)| reference.agrees(id, row))
        {
            fail("fused_topk_packed disagrees with fused_topk");
        }
        us_per_row.push((c1 - c0).as_secs_f64() * 1e6 / ids.len() as f64);
    }
    if let (Some(t), Some(id)) = (tracer, probe_id) {
        t.close(id, Instant::now());
    }
    let t_end = Instant::now();
    if let (Some(t), Some(id)) = (tracer, root) {
        t.close(id, t_end);
    }
    (
        phase,
        percentile(&sorted(us_per_row), 50.0),
        (t_end - t_root).as_secs_f64(),
    )
}

/// `serve`: see the module docs. Untraced, it reports set-up, sweep and
/// open-loop figures; with `--trace-out` it also runs the capacity ladder
/// and the in-process replays that give the per-layer figures.
pub fn serve(args: &Args) {
    let seconds: f64 = args.num("seconds");
    let seed: u64 = args.num("seed");
    let emb_dir = args.str("emb");

    let pair = load_dataset(std::path::Path::new(args.str("data")));
    let task = MatchTask::from_pair(&pair);
    let test_ids: Vec<u32> = task.source_candidates.iter().map(|e| e.0).collect();
    let mut emb = load_embeddings(std::path::Path::new(emb_dir));
    normalize_rows_l2(&mut emb.source);
    normalize_rows_l2(&mut emb.target);
    let reference = Arc::new(Reference::new(
        emb.source.clone(),
        emb.target.clone(),
        &test_ids,
    ));

    let (mut attempted, mut failed, mut conns) = (0u64, 0u64, 0u64);
    let mut tally = |samples: &[Sample], targets: &[Http]| {
        attempted += samples.len() as u64;
        failed += samples.iter().filter(|s| !s.out.ok).count() as u64;
        conns += targets.iter().map(|t| t.conn.opened).sum::<u64>();
    };

    // Sweeps: one closed-loop pass over every test source on each fresh
    // server but the last. Each pass gets its own server, as each match
    // solve gets its own process, so no one process's state sets the
    // run's figure. The first pass's top-1 answers are the served matching
    // that F1 scores. Calibration needs one server and no sweeps.
    let calibrate = args.opt("calibrate");
    let sweeps = if calibrate.is_some() { 0 } else { SPAWNS - 1 };
    let (mut setup_s, mut match_s, mut f1) = (Vec::new(), Vec::new(), 0.0);
    for i in 0..sweeps {
        let (server, secs) = Server::spawn(args.str("bin"), emb_dir);
        setup_s.push(secs);
        let items = sweep_items(&test_ids);
        let (samples, targets) = drive(http_targets(&server.addr, &reference), &items);
        server.stop();
        tally(&samples, &targets);
        match_s.push(Phase::of(&samples).wall_s);
        if i == 0 {
            let links: Vec<Link> = samples
                .iter()
                .zip(&items)
                .flat_map(|(s, item)| {
                    let Op::TopK(ids) = &item.op else {
                        unreachable!()
                    };
                    ids.iter()
                        .zip(&s.out.top1)
                        .map(|(&u, &v)| Link::new(EntityId(u), EntityId(v)))
                        .collect::<Vec<_>>()
                })
                .collect();
            f1 = evaluate_links(&links, &task.gold).f1;
        }
    }
    let (server, secs) = Server::spawn(args.str("bin"), emb_dir);
    setup_s.push(secs);

    if let Some(n) = calibrate {
        // Closed-loop capacity of the query mix: every request due at once.
        let n: f64 = n
            .parse()
            .unwrap_or_else(|_| fail("--calibrate takes a request count"));
        let mut items = schedule(seed, n, 1.0, &test_ids);
        items.retain(|i| matches!(i.op, Op::TopK(_)));
        items.iter_mut().for_each(|i| i.due_s = 0.0);
        let (samples, _) = drive(http_targets(&server.addr, &reference), &items);
        let phase = Phase::of(&samples);
        server.stop();
        let mut r = Report::default();
        r.set("closed_loop_rps", phase.achieved_rps)
            .set("failed", phase.failed)
            .set(
                "cache_hit_ratio",
                phase.cached as f64 / phase.ids.max(1) as f64,
            );
        r.print();
        return;
    }

    // Open loop at the fixed rate for half the run. The server's peak RSS
    // is read after it, on a server that ran no sweep: a sweep's large
    // responses stay in whichever worker thread's malloc arena built them,
    // which moved the figure between 43 and 55 MB from run to run.
    let items = schedule(seed, RATE, (seconds / 2.0).max(2.0), &test_ids);
    let (samples, targets) = drive(http_targets(&server.addr, &reference), &items);
    tally(&samples, &targets);
    let open = Phase::of(&samples);
    if !open.generator_valid() {
        server.stop();
        fail(&format!(
            "load generator fell {:.2} ms (p99) behind its schedule; the run is invalid",
            open.lag_p99_ms
        ));
    }
    let peak_rss_mb = server.hwm_mb();

    let mut r = Report::default();
    let traced = args.opt("trace-out");
    if traced.is_some() {
        // Capacity ladder: rungs RATE * LADDER_STEP^j for j in LADDER_RUNGS,
        // searched by bisection for the highest rung meeting the SLO; the
        // reported figure is that rung's achieved rate.
        let (mut pass, mut miss) = (LADDER_RUNGS.start - 1, LADDER_RUNGS.end);
        let mut best = 0.0;
        while miss - pass > 1 {
            let rung = (pass + miss).div_euclid(2);
            let offered = RATE * LADDER_STEP.powi(rung);
            let items = schedule(
                seed ^ ((rung + 64) as u64) << 32,
                offered,
                RUNG_SECS,
                &test_ids,
            );
            let (samples, targets) = drive(http_targets(&server.addr, &reference), &items);
            tally(&samples, &targets);
            let phase = Phase::of(&samples);
            if phase.meets_slo() {
                pass = rung;
                best = phase.achieved_rps;
            } else {
                miss = rung;
            }
        }
        r.set("http.max_rps_at_slo", best);
    }
    server.stop();

    r.set("setup_s", setup_s)
        .set("match_s", match_s)
        .set("peak_rss_mb", peak_rss_mb)
        .set("f1", f1)
        .set("attempted", attempted)
        .set("failed", failed)
        .set("n_sources", test_ids.len() as u64)
        .set("http.p50_ms", open.p50_ms)
        .set("http.p99_ms", open.p99_ms)
        .set("http.latency_samples", open.latency_samples)
        .set("http.offered_rps", RATE)
        .set("http.achieved_rps", open.achieved_rps)
        .set(
            "http.cache_hit_ratio",
            open.cached as f64 / open.ids.max(1) as f64,
        )
        .set("http.batch_size_mean", open.batch_size_mean)
        .set("http.rejected", open.rejected)
        .set("http.conns_opened", conns)
        .set("loadgen.send_lag_p99_ms", open.lag_p99_ms);

    if let Some(path) = traced {
        // In-process replays of the same seeded stream: untraced, traced,
        // untraced again, so warm-up falls on both sides of the overhead
        // ratio. Serving records its counters as `entmatcher serve` does.
        entmatcher_support::telemetry::set_enabled(true);
        let items: Vec<Item> = schedule(seed, RATE, REPLAY_SECS, &test_ids)
            .into_iter()
            .filter(|i| matches!(i.op, Op::TopK(_)))
            .collect();
        let (_, _, untraced_a) = replay(&emb.source, &emb.target, &reference, &items, None);
        let tracer = Arc::new(Tracer::new(args.str("workload")));
        let (service, probe_us, traced_wall) =
            replay(&emb.source, &emb.target, &reference, &items, Some(&tracer));
        let (_, _, untraced_b) = replay(&emb.source, &emb.target, &reference, &items, None);
        let untraced_wall = (untraced_a + untraced_b) / 2.0;
        if service.failed > 0 {
            fail("in-process service answers disagree with the exact top-k");
        }
        let t0 = Instant::now();
        drop(load_embeddings(std::path::Path::new(emb_dir)));
        let load_s = t0.elapsed().as_secs_f64();
        tracer.record("load.embeddings", None, t0, Instant::now());
        tracer.write(path);
        r.set("service.p50_ms", service.p50_ms)
            .set("service.p99_ms", service.p99_ms)
            .set("service.batch_size_mean", service.batch_size_mean)
            .set(
                "service.cache_hit_ratio",
                service.cached as f64 / service.ids.max(1) as f64,
            )
            .set("service.rejected", service.rejected)
            .set("http.overhead_p50_ms", open.p50_ms - service.p50_ms)
            .set("probe.us_per_row", probe_us)
            .set("load.embeddings_s", load_s)
            .set("trace.overhead_ratio", traced_wall / untraced_wall - 1.0)
            .set("trace.coverage", tracer.coverage(1));
    }
    r.print();
}
