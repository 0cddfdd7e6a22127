//! The two serve workloads: a real `solve serve --tcp 127.0.0.1:0` child
//! process, driven open loop over one TCP connection by two threads (one
//! sends on schedule, one receives), timed from each request's scheduled
//! send time to its response line.
//!
//! A run: set-up (spawn to first response, several times), a warm-up phase
//! that is not timed, the `light` and `heavy` phases at their frozen rates
//! (their latencies, and the server's processor time per request). With
//! `--trace 1` saturation bursts for throughput and the capacity ladder
//! from `heavy` up follow, and then the same requests are replayed in
//! process through the service's `workers: 0` mode, once untraced and once
//! with spans around every layer call, for the per-layer split.

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::process::{Child, Command, Stdio};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use rpo_portfolio::{PortfolioEngine, ProblemInstance, RunStatus};
use rpo_serve::{ResponseStatus, ServeConfig, ServeRequest, ServeResponse, SolverService};
use rpo_workload::{BoundsSpec, InstanceGenerator, RequestSpec};

use crate::capacity::{self, Step};
use crate::check::{self, Answer};
use crate::layers::{layer_timings, set_backend, set_overhead, split_metrics};
use crate::report::{Outcome, BACKENDS};
use crate::schedule;
use crate::stats::{self, supported_percentile};
use crate::trace::Tracer;
use crate::Args;

/// Tail-latency limit of the capacity search: a tenth of the deadline.
const LATENCY_LIMIT_MS: f64 = 25.0;
/// Deadline every request carries.
const DEADLINE_MS: f64 = 250.0;
/// Latency charged to a refused, shed or unanswered request, so it misses
/// every limit.
const FAILED_MS: f64 = 2.0 * DEADLINE_MS;
/// Highest error rate a capacity rung may show.
const MAX_ERROR_RATE: f64 = 0.001;
/// Processes spawned to measure set-up; the median is reported.
const SETUP_REPS: usize = 9;
/// Light/heavy rounds of a run, and the saturation bursts after them.
const ROUNDS: usize = 16;
const BURSTS: usize = 4;
/// The capacity ladder starts at this multiple of `heavy` and climbs in
/// steps of this multiple of `heavy`, for at most `LADDER_EXTRA` more rungs.
/// It is climbed `LADDERS` times (after the first bursts) and the best climb
/// is reported.
const LADDER_START: f64 = 1.3;
const LADDER_STEP: f64 = 0.15;
const LADDER_EXTRA: usize = 30;
const LADDERS: usize = 1;
/// Offered rate of the saturation phase, as a multiple of `heavy`.
const OVERLOAD: f64 = 3.0;
/// How long to wait for the last responses of a phase.
const DRAIN: Duration = Duration::from_secs(3);

/// Phase lengths as shares of `--seconds`. The saturation bursts and the
/// capacity ladder, whose figures are per-layer, run only in the traced run
/// and add to it.
const WARMUP_SHARE: f64 = 0.05;
const LIGHT_SHARE: f64 = 0.45;
const HEAVY_SHARE: f64 = 0.45;
const STEP_SHARE: f64 = 0.025;
const SATURATION_SHARE: f64 = 0.2;

/// Input streams of a run (each phase draws its own requests).
const SETUP: u64 = 0;
const WARMUP: u64 = 1;
const LIGHT: u64 = 0x100;
const HEAVY: u64 = 0x200;
const SATURATION: u64 = 0x300;
const REPLAY: u64 = 5;
const IDLE: u64 = 6;
/// Requests of the idle round-trip probe.
const IDLE_REQUESTS: usize = 20;
const LADDER: u64 = 16;
/// Offset separating a phase's schedule stream from its content stream.
const SCHEDULE_STREAM: u64 = 1 << 20;

/// Which serve workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Paper homogeneous requests, 35% exact duplicates over 4 tenants.
    HomDup,
    /// Class-structured heterogeneous, latency-bounded, unique requests.
    HetLat,
}

/// The frozen traffic of a workload: offered rates at about 25% and 50%
/// of the capacity measured on the commit that introduced this benchmark
/// (2-core host, see `CHANGES.md`), and the in-process replay size. At
/// 70% the heavy phase sat on the knee of the latency curve, where its
/// figures swung with the load the shared host put on the two cores.
struct Shape {
    light_rps: f64,
    heavy_rps: f64,
    replay_requests: usize,
}

impl Kind {
    fn shape(self) -> Shape {
        match self {
            Kind::HomDup => Shape {
                light_rps: 1250.0,
                heavy_rps: 2500.0,
                replay_requests: 2000,
            },
            Kind::HetLat => Shape {
                light_rps: 250.0,
                heavy_rps: 500.0,
                replay_requests: 1200,
            },
        }
    }

    fn spec(self, base_seed: u64) -> RequestSpec {
        let deadline = Duration::from_secs_f64(DEADLINE_MS / 1000.0);
        match self {
            Kind::HomDup => RequestSpec {
                deadline,
                ..RequestSpec::serve_replay(base_seed)
            },
            Kind::HetLat => RequestSpec {
                generator: InstanceGenerator::paper_heterogeneous_classes(base_seed),
                bounds: BoundsSpec::paper_het_lat(),
                heterogeneous: true,
                arrival_rate: 0.0,
                duplicate_fraction: 0.0,
                tenants: 1,
                deadline,
                seed: base_seed ^ 0x5e7e_5e7e,
            },
        }
    }
}

/// One request ready to send: its JSON line and the instance it encodes.
struct Prepared {
    line: Vec<u8>,
    instance: ProblemInstance,
}

/// Requests per independent stream of a phase. A duplicate repeats an
/// earlier request of its own chunk, so the share of requests the caches
/// can absorb stays the same from the first chunk of a phase to the last
/// (one long stream would draw duplicates from an ever larger past and
/// drift towards misses as the phase goes on).
const CHUNK: usize = 1000;

/// The first `count` requests of a phase. Ids carry the phase in their
/// high half, so a response can never be credited to the wrong phase.
fn prepare(kind: Kind, seed: u64, phase: u64, count: usize) -> Vec<Prepared> {
    let chunks = count.div_ceil(CHUNK) as u64;
    let heterogeneous = kind == Kind::HetLat;
    (0..chunks)
        .flat_map(|chunk| {
            let size = (count - chunk as usize * CHUNK).min(CHUNK);
            kind.spec(schedule::derive(seed, (phase << 16) | chunk))
                .stream(size)
        })
        .enumerate()
        .map(|(index, generated)| {
            let platform = if heterogeneous {
                generated.instance.heterogeneous
            } else {
                generated.instance.homogeneous
            };
            let request = ServeRequest {
                id: (phase << 32) | index as u64,
                tenant: generated.tenant,
                deadline_ms: Some(DEADLINE_MS),
                chain: generated.instance.chain,
                platform,
                period_bound: generated
                    .period_bound
                    .is_finite()
                    .then_some(generated.period_bound),
                latency_bound: generated
                    .latency_bound
                    .is_finite()
                    .then_some(generated.latency_bound),
            };
            let mut line = serde_json::to_string(&request).expect("requests serialize");
            line.push('\n');
            let instance = ProblemInstance {
                chain: request.chain,
                platform: request.platform,
                period_bound: generated.period_bound,
                latency_bound: generated.latency_bound,
            };
            Prepared {
                line: line.into_bytes(),
                instance,
            }
        })
        .collect()
}

/// A `solve serve` child process; killed and reaped on drop.
struct Server {
    child: Option<Child>,
    addr: SocketAddr,
    stderr: Option<JoinHandle<Vec<String>>>,
}

impl Server {
    fn spawn(solve: &std::path::Path) -> Result<Server, String> {
        let mut child = Command::new(solve)
            .args(["serve", "--tcp", "127.0.0.1:0"])
            .stdin(Stdio::piped())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", solve.display()))?;
        let stderr = child.stderr.take().expect("stderr is piped");
        let (lines, announced) = mpsc::channel();
        let reader = std::thread::spawn(move || {
            let mut all = Vec::new();
            for line in BufReader::new(stderr).lines() {
                let Ok(line) = line else { break };
                let _ = lines.send(line.clone());
                all.push(line);
            }
            all
        });
        let mut server = Server {
            child: Some(child),
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
            stderr: Some(reader),
        };
        let prefix = "serving JSON lines on tcp://";
        loop {
            let line = announced
                .recv_timeout(Duration::from_secs(30))
                .map_err(|_| "solve serve did not announce its address".to_string())?;
            if let Some(addr) = line.strip_prefix(prefix) {
                server.addr = addr
                    .trim()
                    .parse()
                    .map_err(|e| format!("bad address {addr:?}: {e}"))?;
                return Ok(server);
            }
        }
    }

    /// Processor time the server has used so far.
    fn cpu(&self) -> Result<Duration, String> {
        let pid = self.child.as_ref().ok_or("server is not running")?.id();
        crate::cpu::of(pid).ok_or_else(|| format!("cannot read the processor time of {pid}"))
    }

    /// Peak resident memory (VmHWM) of the server, in MB.
    fn peak_rss_mb(&self) -> Option<f64> {
        let pid = self.child.as_ref()?.id();
        crate::env::vm_hwm_mb(&format!("/proc/{pid}/status"))
    }

    /// Closes standard input (the stop signal), waits for the drain, and
    /// returns the server's standard error lines.
    fn shutdown(mut self) -> Result<Vec<String>, String> {
        let mut child = self.child.take().expect("server is running");
        drop(child.stdin.take());
        let deadline = Instant::now() + Duration::from_secs(30);
        let status = loop {
            match child.try_wait() {
                Ok(Some(status)) => break status,
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(5))
                }
                _ => {
                    let _ = child.kill();
                    let _ = child.wait();
                    return Err("solve serve did not stop after its input closed".into());
                }
            }
        };
        let lines = self
            .stderr
            .take()
            .map(|reader| reader.join().unwrap_or_default())
            .unwrap_or_default();
        if !status.success() {
            return Err(format!("solve serve exited with {status}: {lines:?}"));
        }
        Ok(lines)
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if let Some(mut child) = self.child.take() {
            let _ = child.kill();
            let _ = child.wait();
        }
        if let Some(reader) = self.stderr.take() {
            let _ = reader.join();
        }
    }
}

/// The counters of the server's drain summary line.
#[derive(Debug, Default)]
struct Drain {
    admitted: f64,
    coalesced: f64,
    cache_hits: f64,
    shed: f64,
    overloaded: f64,
    solves: f64,
}

fn parse_drain(lines: &[String]) -> Option<Drain> {
    let line = lines.iter().rev().find(|l| l.starts_with("serve: "))?;
    let mut counts = BTreeMap::new();
    for part in line.trim_start_matches("serve: ").split(", ") {
        let (number, label) = part.split_once(' ')?;
        counts.insert(label.to_string(), number.parse::<f64>().ok()?);
    }
    Some(Drain {
        admitted: *counts.get("admitted")?,
        coalesced: *counts.get("coalesced")?,
        cache_hits: *counts.get("cache hits")?,
        shed: *counts.get("shed")?,
        overloaded: *counts.get("overloaded")?,
        solves: *counts.get("solves")?,
    })
}

/// One response line and when it arrived.
struct Received {
    at: Instant,
    line: Vec<u8>,
}

/// Makes the kernel acknowledge received data at once rather than delay the
/// ACK (Linux `TCP_QUICKACK`). The option is not sticky, so it is re-armed
/// before every read.
///
/// `solve serve` writes each response as two writes (the JSON, then the
/// newline) on a socket with Nagle's algorithm on, so the newline waits for
/// the ACK of the JSON. Against a client that delays its ACKs, that wait is
/// up to the delayed-ACK timer (~40 ms) or until the client's next request,
/// which makes open-loop latencies swing run to run with the kernel's ACK
/// mode rather than with the server's work. The load generator therefore
/// acknowledges at once; the stall itself is measured separately by the
/// idle round trip ([`idle_round_trip_ms`]) with an ordinary client.
fn quick_ack(stream: &TcpStream) {
    #[cfg(target_os = "linux")]
    {
        use std::os::fd::AsRawFd;
        extern "C" {
            fn setsockopt(
                fd: i32,
                level: i32,
                name: i32,
                value: *const std::ffi::c_void,
                len: u32,
            ) -> i32;
        }
        const IPPROTO_TCP: i32 = 6;
        const TCP_QUICKACK: i32 = 12;
        let on: i32 = 1;
        // SAFETY: the descriptor belongs to `stream`, which is open for the
        // whole call; `value` points at a live `i32` and `len` is its size,
        // so the kernel reads exactly that initialized value. A failure only
        // leaves the default ACK behaviour, so the result is ignored.
        unsafe {
            setsockopt(
                stream.as_raw_fd(),
                IPPROTO_TCP,
                TCP_QUICKACK,
                (&on as *const i32).cast(),
                std::mem::size_of::<i32>() as u32,
            );
        }
    }
}

/// Median round trip of requests sent one at a time, each after a 10 ms
/// pause, over an ordinary connection (no [`quick_ack`]): what a client
/// that waits for every answer sees.
fn idle_round_trip_ms(addr: SocketAddr, requests: &[Prepared]) -> Result<f64, String> {
    let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    stream.set_nodelay(true).map_err(|e| e.to_string())?;
    let mut reader = BufReader::new(stream.try_clone().map_err(|e| e.to_string())?);
    let mut writer = &stream;
    let mut trips = Vec::with_capacity(requests.len());
    let mut line = String::new();
    for request in requests {
        std::thread::sleep(Duration::from_millis(10));
        let started = Instant::now();
        writer
            .write_all(&request.line)
            .map_err(|e| format!("send failed: {e}"))?;
        line.clear();
        reader
            .read_line(&mut line)
            .map_err(|e| format!("receive failed: {e}"))?;
        trips.push(ms(started.elapsed()));
    }
    Ok(stats::median(&trips))
}

/// Reads response lines until `expected` arrived or the drain timeout
/// after the last send passes.
fn receive(
    mut reader: TcpStream,
    expected: usize,
    done: &Mutex<Option<Instant>>,
) -> std::io::Result<Vec<Received>> {
    reader.set_read_timeout(Some(Duration::from_millis(20)))?;
    let mut buffer = vec![0u8; 1 << 16];
    let mut pending: Vec<u8> = Vec::new();
    let mut received = Vec::new();
    loop {
        if received.len() >= expected {
            return Ok(received);
        }
        let finished = *done.lock().expect("send clock poisoned");
        if finished.is_some_and(|at| at.elapsed() > DRAIN) {
            return Ok(received);
        }
        quick_ack(&reader);
        match reader.read(&mut buffer) {
            Ok(0) => return Ok(received),
            Ok(count) => {
                let at = Instant::now();
                pending.extend_from_slice(&buffer[..count]);
                let mut start = 0;
                while let Some(offset) = pending[start..].iter().position(|&b| b == b'\n') {
                    received.push(Received {
                        at,
                        line: pending[start..start + offset].to_vec(),
                    });
                    start += offset + 1;
                }
                pending.drain(..start);
            }
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) => {}
            Err(e) => return Err(e),
        }
    }
}

/// What the load generator did in one phase.
struct Raw {
    start: Instant,
    /// When each request was written (`None`: never sent).
    sent: Vec<Option<Instant>>,
    received: Vec<Received>,
}

/// Sends `requests` open loop at `start + offsets[i]` and collects the
/// responses. Requests that fall due together go out in one write.
fn drive_open(
    addr: SocketAddr,
    requests: &[Prepared],
    offsets: &[Duration],
) -> Result<Raw, String> {
    let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    stream.set_nodelay(true).map_err(|e| e.to_string())?;
    let reader = stream.try_clone().map_err(|e| e.to_string())?;
    let expected = requests.len();
    let done = Mutex::new(None);
    let start = Instant::now() + Duration::from_millis(20);
    let mut sent = vec![None; requests.len()];
    let (written, received) = std::thread::scope(|scope| {
        let receiver = scope.spawn(|| receive(reader, expected, &done));
        let written = (|| {
            let mut writer = &stream;
            let mut batch = Vec::new();
            let mut next = 0;
            while next < requests.len() {
                let due = start + offsets[next];
                let now = Instant::now();
                if now < due {
                    std::thread::sleep(due - now);
                }
                let now = Instant::now();
                batch.clear();
                let first = next;
                while next < requests.len() && start + offsets[next] <= now {
                    batch.extend_from_slice(&requests[next].line);
                    next += 1;
                }
                writer.write_all(&batch)?;
                sent[first..next].fill(Some(now));
            }
            Ok::<(), std::io::Error>(())
        })();
        *done.lock().expect("send clock poisoned") = Some(Instant::now());
        (written, receiver.join().expect("receiver thread panicked"))
    });
    written.map_err(|e| format!("send failed: {e}"))?;
    let received = received.map_err(|e| format!("receive failed: {e}"))?;
    Ok(Raw {
        start,
        sent,
        received,
    })
}

/// One phase, checked and reduced.
#[derive(Default)]
struct Phase {
    /// Requests sent.
    sent: usize,
    /// Latency of every sent request in schedule order, in ms (failed ones
    /// at [`FAILED_MS`]).
    latencies_ms: Vec<f64>,
    /// How late the generator sent each request, in schedule order, in ms.
    late_ms: Vec<f64>,
    /// Refused, shed or unanswered requests.
    errors: usize,
    /// Requests answered wrongly or not at all: unanswered, malformed or
    /// draining answers, and `ok` answers that fail their re-scoring. A
    /// refusal by admission control (shed, overloaded) is the service
    /// keeping its contract under load, so it is an error above but not a
    /// failure here.
    failed: usize,
    /// `ok` answers.
    ok: usize,
    /// Mean nines over every sent request (0 for a non-`ok` one).
    nines_mean: f64,
    /// When each answer (`ok` or `infeasible`) arrived, since the phase
    /// started.
    answered_at: Vec<Duration>,
    /// The parsed responses of every answered request.
    responses: Vec<ServeResponse>,
}

impl Phase {
    /// The rounds of one phase, as one phase.
    fn merge(rounds: Vec<Phase>) -> Phase {
        let mut merged = Phase::default();
        let mut nines = 0.0;
        for round in rounds {
            merged.sent += round.sent;
            merged.errors += round.errors;
            merged.failed += round.failed;
            merged.ok += round.ok;
            nines += round.nines_mean * round.sent as f64;
            merged.latencies_ms.extend(round.latencies_ms);
            merged.late_ms.extend(round.late_ms);
            merged.responses.extend(round.responses);
        }
        merged.nines_mean = nines / merged.sent.max(1) as f64;
        merged
    }

    fn error_rate(&self) -> f64 {
        stats::share(self.errors as f64, self.sent as f64)
    }

    fn tail_ms(&self) -> f64 {
        stats::windowed_tail(&self.latencies_ms).map_or(FAILED_MS, |(tail, _, _)| tail)
    }

    fn late_tail_ms(&self) -> f64 {
        stats::windowed_tail(&self.late_ms).map_or(0.0, |(tail, _, _)| tail)
    }
}

/// Matches responses to requests and checks them: exactly one response per
/// sent request, and every `ok` answer re-scored on the instance sent.
fn reduce(
    label: &str,
    phase: u64,
    requests: &[Prepared],
    offsets: Option<&[Duration]>,
    raw: Raw,
    outcome: &mut Outcome,
) -> Phase {
    let mut answers: Vec<Option<(Instant, ServeResponse)>> = vec![None; requests.len()];
    let mut problems: Vec<String> = Vec::new();
    for received in raw.received {
        let response = match std::str::from_utf8(&received.line)
            .map_err(|e| e.to_string())
            .and_then(|text| serde_json::from_str::<ServeResponse>(text).map_err(|e| e.to_string()))
        {
            Ok(response) => response,
            Err(error) => {
                problems.push(format!("{label}: unparseable response: {error}"));
                continue;
            }
        };
        let index = (response.id & 0xffff_ffff) as usize;
        if response.id >> 32 != phase || index >= requests.len() || raw.sent[index].is_none() {
            problems.push(format!(
                "{label}: response to unknown request id {}",
                response.id
            ));
            continue;
        }
        if answers[index].is_some() {
            problems.push(format!("{label}: request {index} answered twice"));
            continue;
        }
        answers[index] = Some((received.at, response));
    }

    let mut result = Phase::default();
    let mut nines = 0.0;
    for (index, request) in requests.iter().enumerate() {
        let Some(sent) = raw.sent[index] else {
            continue;
        };
        result.sent += 1;
        let due = offsets.map_or(sent, |offsets| raw.start + offsets[index]);
        result.late_ms.push(ms(sent.saturating_duration_since(due)));
        let Some((at, response)) = answers[index].take() else {
            problems.push(format!("{label}: request {index} got no response"));
            result.errors += 1;
            result.failed += 1;
            result.latencies_ms.push(FAILED_MS);
            continue;
        };
        let latency = ms(at.saturating_duration_since(due));
        match response.status {
            ResponseStatus::Ok => {
                result.ok += 1;
                result
                    .answered_at
                    .push(at.saturating_duration_since(raw.start));
                result.latencies_ms.push(latency);
                match answer_of(&response)
                    .ok_or_else(|| "ok answer without a mapping".to_string())
                    .and_then(|answer| check::rescore(&request.instance, &answer))
                {
                    Ok(reliability) => nines += check::nines(reliability),
                    Err(error) => {
                        result.failed += 1;
                        problems.push(format!("{label}: request {index}: {error}"));
                    }
                }
            }
            ResponseStatus::Infeasible => {
                result.latencies_ms.push(latency);
                result
                    .answered_at
                    .push(at.saturating_duration_since(raw.start));
            }
            ResponseStatus::Shed | ResponseStatus::Overloaded => {
                result.errors += 1;
                result.latencies_ms.push(FAILED_MS);
            }
            ResponseStatus::Draining | ResponseStatus::Invalid => {
                result.errors += 1;
                result.failed += 1;
                result.latencies_ms.push(FAILED_MS);
            }
        }
        result.responses.push(response);
    }
    result.nines_mean = nines / result.sent.max(1) as f64;
    // One line per kind of failure is enough to diagnose a run.
    let total = problems.len();
    outcome.problems.extend(problems.into_iter().take(5));
    outcome.check(total <= 5, || {
        format!("{label}: {} more failed checks", total - 5)
    });
    result
}

/// Completions per second in a saturated window: the median over equal
/// slices of the window after its first fifth (the ramp-up), so one stall
/// moves one slice, not the figure.
fn window_rate(completed_at: &[Duration], window: Duration) -> f64 {
    const SLICES: usize = 8;
    let ramp = window.as_secs_f64() / 5.0;
    let slice = (window.as_secs_f64() - ramp) / SLICES as f64;
    let mut counts = [0usize; SLICES];
    for at in completed_at {
        let offset = at.as_secs_f64() - ramp;
        if offset >= 0.0 {
            let index = (offset / slice) as usize;
            if index < SLICES {
                counts[index] += 1;
            }
        }
    }
    let rates: Vec<f64> = counts.iter().map(|&c| c as f64 / slice).collect();
    stats::median(&rates)
}

fn answer_of(response: &ServeResponse) -> Option<Answer<'_>> {
    Some(Answer {
        mapping: response.mapping.as_ref()?,
        reliability: response.reliability?,
        period: response.worst_case_period?,
        latency: response.worst_case_latency?,
    })
}

fn ms(duration: Duration) -> f64 {
    duration.as_secs_f64() * 1e3
}

/// Runs one open-loop phase of `length` at `rate` against the server.
fn open_phase(
    server: &Server,
    kind: Kind,
    seed: u64,
    phase: u64,
    rate: f64,
    length: Duration,
    outcome: &mut Outcome,
) -> Result<Phase, String> {
    let offsets = schedule::poisson(seed, phase + SCHEDULE_STREAM, rate, length);
    let requests = prepare(kind, seed, phase, offsets.len());
    let raw = drive_open(server.addr, &requests, &offsets)?;
    let label = format!("phase {phase} at {rate:.0}/s");
    Ok(reduce(
        &label,
        phase,
        &requests,
        Some(&offsets),
        raw,
        outcome,
    ))
}

/// Whether a rung meets the capacity conditions: tail latency within the
/// limit, errors rare, a backlog that does not grow, and a generator that
/// kept to its schedule. A rung failed on anything but its tail counts as
/// far over the limit in the capacity interpolation.
fn rung(rate: f64, phase: &Phase) -> Step {
    let tail_ms = phase.tail_ms();
    let steady = phase.error_rate() <= MAX_ERROR_RATE
        && !capacity::backlog_grows(&phase.latencies_ms, LATENCY_LIMIT_MS)
        && phase.late_tail_ms() <= LATENCY_LIMIT_MS;
    Step {
        rate,
        tail_ms: if steady {
            tail_ms
        } else {
            tail_ms.max(FAILED_MS)
        },
        passed: steady && tail_ms <= LATENCY_LIMIT_MS,
    }
}

/// Spawns a server and sends it `first`: the server and the seconds from
/// the spawn to the response.
fn set_up(
    solve: &std::path::Path,
    first: &[Prepared],
    outcome: &mut Outcome,
) -> Result<(Server, f64), String> {
    let started = Instant::now();
    let server = Server::spawn(solve)?;
    let raw = drive_open(server.addr, first, &[Duration::ZERO])?;
    let answered = raw.received.last().map(|r| r.at);
    let seconds = answered.map_or(f64::NAN, |at| (at - started).as_secs_f64());
    reduce("set-up", SETUP, first, None, raw, outcome);
    Ok((server, seconds))
}

/// Runs one serve workload.
pub fn run(args: &Args, kind: Kind) -> Result<Outcome, String> {
    let shape = kind.shape();
    let seconds = args.seconds;
    let length = |share: f64| Duration::from_secs_f64(seconds * share);
    let mut outcome = Outcome::default();

    // Set-up: process spawn to first response. The server measured first
    // serves the run; more spawns, spread over the latency rounds so that
    // one slow stretch of the host does not hold them all, give the median.
    let first = prepare(kind, args.seed, SETUP, 1);
    let (server, setup) = set_up(&args.solve, &first, &mut outcome)?;
    let mut setups = vec![setup];
    let mut sent_total = 1;

    // Warm-up: same traffic, not timed.
    let warm = open_phase(
        &server,
        kind,
        args.seed,
        WARMUP,
        shape.light_rps,
        length(WARMUP_SHARE),
        &mut outcome,
    )?;
    sent_total += warm.sent;

    // Light and heavy alternate over several rounds, each on a fresh
    // connection; each latency figure is the median over the rounds, so a
    // stretch of the run that the shared host slowed moves a round, not the
    // figure, and the server's processor time over all of them is its cost
    // per request. The overload phases (saturation bursts and capacity climbs)
    // come after every latency round, so no latency round waits behind the
    // backlog an overload phase leaves.
    let mut lights = Vec::new();
    let mut heavies = Vec::new();
    let cpu_before = server.cpu()?;
    for round in 0..ROUNDS as u64 {
        let part = |share: f64| length(share / ROUNDS as f64);
        lights.push(open_phase(
            &server,
            kind,
            args.seed,
            LIGHT | round,
            shape.light_rps,
            part(LIGHT_SHARE),
            &mut outcome,
        )?);
        heavies.push(open_phase(
            &server,
            kind,
            args.seed,
            HEAVY | round,
            shape.heavy_rps,
            part(HEAVY_SHARE),
            &mut outcome,
        )?);
        if (round as usize).is_multiple_of(ROUNDS / (SETUP_REPS - 1)) {
            let (spare, setup) = set_up(&args.solve, &first, &mut outcome)?;
            spare.shutdown()?;
            setups.push(setup);
        }
    }
    outcome.set("setup_s", stats::median(&setups));
    // Processor time per request over every latency round: between rounds
    // the server idles, so this is its cost per request at the two rates.
    let cpu = server.cpu()? - cpu_before;
    let requests: usize = lights.iter().chain(&heavies).map(|p| p.sent).sum();
    outcome.set(
        "cpu_us_per_request",
        cpu.as_secs_f64() * 1e6 / requests.max(1) as f64,
    );

    // Traced run only: saturation bursts, with capacity climbs after the
    // first ones. A burst is open loop at several times the heavy rate, so
    // the workers never idle; refusals are expected there and are not
    // failures, and the answers per second are the throughput (the median
    // burst's). A climb is a fixed ladder from above the heavy rate; the
    // best climb is the capacity.
    let rates = capacity::ladder(
        shape.heavy_rps * LADDER_START,
        shape.heavy_rps * LADDER_STEP,
        LADDER_EXTRA,
    );
    let mut bursts = Vec::new();
    let mut climbs = Vec::new();
    let mut failure = None;
    for round in 0..if args.trace { BURSTS } else { 0 } {
        let window = length(SATURATION_SHARE / BURSTS as f64);
        let burst = open_phase(
            &server,
            kind,
            args.seed,
            SATURATION | round as u64,
            shape.heavy_rps * OVERLOAD,
            window,
            &mut outcome,
        )?;
        sent_total += burst.sent;
        bursts.push(window_rate(&burst.answered_at, window));
        let climb = round;
        if climb >= LADDERS {
            continue;
        }
        let search = capacity::search(&rates, LATENCY_LIMIT_MS, |index, rate, attempt| {
            if failure.is_some() {
                return Step {
                    rate,
                    tail_ms: FAILED_MS,
                    passed: false,
                };
            }
            let run = climb * capacity::ATTEMPTS + attempt;
            let phase = LADDER + (run * (LADDER_EXTRA + 1) + index) as u64;
            match open_phase(
                &server,
                kind,
                args.seed,
                phase,
                rate,
                length(STEP_SHARE),
                &mut outcome,
            ) {
                Ok(step) => {
                    sent_total += step.sent;
                    let result = rung(rate, &step);
                    println!(
                        "climb {climb} rung {index}.{attempt}: {rate:.0}/s, tail {:.3} ms, \
                         errors {}, late p99 {:.3} ms -> {}",
                        step.tail_ms(),
                        step.errors,
                        step.late_tail_ms(),
                        if result.passed { "pass" } else { "fail" }
                    );
                    result
                }
                Err(error) => {
                    failure = Some(error);
                    Step {
                        rate,
                        tail_ms: FAILED_MS,
                        passed: false,
                    }
                }
            }
        });
        if let Some(error) = failure.take() {
            return Err(error);
        }
        climbs.push(search.capacity);
    }
    if !bursts.is_empty() {
        outcome.set("loadgen.throughput_ips", stats::median(&bursts));
    }
    for (name, rounds) in [("light", &lights), ("heavy", &heavies)] {
        sent_total += rounds.iter().map(|p| p.sent).sum::<usize>();
        // A round whose generator fell behind by more than the latency
        // limit is invalid and left out; the run fails only when every
        // round is.
        let valid: Vec<&[f64]> = rounds
            .iter()
            .filter(|p| p.late_tail_ms() <= LATENCY_LIMIT_MS)
            .map(|p| p.latencies_ms.as_slice())
            .collect();
        println!("{name}: {} of {} rounds valid", valid.len(), rounds.len());
        outcome.check(!valid.is_empty(), || {
            format!("{name}: the generator fell behind schedule in every round")
        });
        outcome.set_latency(name, &valid);
    }
    let light = Phase::merge(lights);
    let heavy = Phase::merge(heavies);
    outcome.set("reliability_nines_mean", light.nines_mean);
    outcome.check(light.ok + heavy.ok > 0, || {
        "no feasible answer in light or heavy".into()
    });
    if !climbs.is_empty() {
        outcome.set(
            "loadgen.capacity_rps",
            climbs.iter().copied().fold(0.0, f64::max),
        );
    }

    let idle = prepare(kind, args.seed, IDLE, IDLE_REQUESTS);
    outcome.set(
        "rpo-serve.wire.idle_round_trip_ms",
        idle_round_trip_ms(server.addr, &idle)?,
    );
    sent_total += IDLE_REQUESTS;

    outcome.set("rss_peak_mb", server.peak_rss_mb().unwrap_or(f64::NAN));
    let lines = server.shutdown()?;
    let drain = parse_drain(&lines).ok_or("solve serve printed no drain summary")?;

    // Failures count over every phase that is meant to succeed.
    let measured = [&warm, &light, &heavy];
    outcome.attempted = measured.iter().map(|p| p.sent as u64).sum();
    outcome.failed = measured.iter().map(|p| p.failed as u64).sum();
    let errors = (light.errors + heavy.errors) as f64;
    outcome.set(
        "loadgen.error_rate",
        stats::share(errors, (light.sent + heavy.sent) as f64),
    );
    let late = stats::sorted(&[light.late_ms.as_slice(), &heavy.late_ms].concat());
    outcome.set(
        "loadgen.late_p99_ms",
        supported_percentile(&late, 0.99).unwrap_or(0.0),
    );

    // Service layer, from the response fields and the drain summary.
    let solved: Vec<&ServeResponse> = light
        .responses
        .iter()
        .chain(&heavy.responses)
        .filter(|r| r.solve_micros > 0)
        .collect();
    let field_ms = |f: &dyn Fn(&ServeResponse) -> u64| {
        stats::sorted(&solved.iter().map(|r| f(r) as f64 / 1e3).collect::<Vec<_>>())
    };
    let waits = field_ms(&|r| r.queue_wait_micros);
    let solves = field_ms(&|r| r.solve_micros);
    let tail = |v: &[f64], q| supported_percentile(v, q).unwrap_or(0.0);
    outcome.set("rpo-serve.service.queue_wait_p50_ms", tail(&waits, 0.5));
    outcome.set("rpo-serve.service.queue_wait_p99_ms", tail(&waits, 0.99));
    outcome.set("rpo-serve.service.solve_p50_ms", tail(&solves, 0.5));
    outcome.set("rpo-serve.service.solve_p99_ms", tail(&solves, 0.99));
    let total = sent_total as f64;
    outcome.check(
        (drain.admitted + drain.coalesced + drain.cache_hits + drain.overloaded) <= total,
        || format!("drain summary counts more requests than the {total} sent: {drain:?}"),
    );
    outcome.set(
        "rpo-serve.service.absorbed_share",
        (drain.coalesced + drain.cache_hits) / total,
    );
    outcome.set("rpo-serve.service.solves_per_request", drain.solves / total);
    outcome.set("rpo-serve.service.shed_share", drain.shed / total);
    outcome.set(
        "rpo-serve.service.overloaded_share",
        drain.overloaded / total,
    );

    if args.trace {
        let requests = prepare(kind, args.seed, REPLAY, shape.replay_requests);
        outcome.set(
            "rpo-serve.wire.request_bytes",
            stats::mean(
                &requests
                    .iter()
                    .map(|r| r.line.len() as f64)
                    .collect::<Vec<_>>(),
            ),
        );
        let instances: Vec<&ProblemInstance> = requests.iter().map(|r| &r.instance).collect();
        layer_timings(&instances, &mut outcome);
        // Untraced, traced, traced, untraced, so that neither side always
        // runs on the warmer process; the last traced replay is reported.
        let mut untraced = replay(&requests, false).wall;
        let mut traced_wall = replay(&requests, true).wall;
        let traced = replay(&requests, true);
        traced_wall += traced.wall;
        untraced += replay(&requests, false).wall;
        traced.report(untraced, traced_wall, &mut outcome);
        let path = args
            .out_dir
            .join(format!("trace-{}-{}.jsonl", args.workload, args.seed));
        traced
            .tracer
            .write_jsonl(&path)
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        println!(
            "trace: {} spans written to {}",
            traced.tracer.spans().len(),
            path.display()
        );
    }
    Ok(outcome)
}

/// What one engine solve of the replay reported.
struct Solve {
    micros: f64,
    runs: Vec<(&'static str, u64)>,
    winner: Option<&'static str>,
}

/// One in-process replay of the serve path.
struct Replay {
    wall: Duration,
    tracer: Tracer,
    requests: usize,
    /// Requests answered from a tenant shard or the engine's cache.
    cache_answered: usize,
    solves: Vec<Solve>,
    oracle_hits: f64,
    oracle_lookups: f64,
}

/// Replays `requests` through a `workers: 0` service, in order, one at a
/// time: decode, submit, (when queued) the engine solve and the service's
/// processing, encode. The engine solve is called by the replay itself on
/// the service's engine, so its per-backend runs are visible; the
/// service's own solve then finds the front in the engine's cache.
fn replay(requests: &[Prepared], traced: bool) -> Replay {
    let engine = Arc::new(PortfolioEngine::default().with_threads(1));
    let service = SolverService::start(
        Arc::clone(&engine),
        ServeConfig {
            workers: 0,
            ..ServeConfig::default()
        },
    );
    let mut tracer = Tracer::new(traced);
    let slot: Arc<Mutex<Option<ServeResponse>>> = Arc::new(Mutex::new(None));
    let mut cache_answered = 0;
    let mut solves = Vec::new();
    let started = Instant::now();
    for (index, prepared) in requests.iter().enumerate() {
        let request_id = index as u64;
        let root = tracer.begin("perfbench", "request", request_id);
        let text = std::str::from_utf8(&prepared.line).expect("requests are UTF-8");
        let span = tracer.begin("rpo-serve.wire", "decode", request_id);
        let request: ServeRequest = serde_json::from_str(text.trim_end()).expect("requests decode");
        tracer.end(span);
        let deadline = Instant::now() + Duration::from_secs_f64(DEADLINE_MS / 1e3);
        let sink = Arc::clone(&slot);
        let span = tracer.begin("rpo-serve.service", "submit", request_id);
        service.submit_with(
            request,
            Box::new(move |response| {
                *sink.lock().expect("response slot poisoned") = Some(response);
            }),
        );
        tracer.end(span);
        let answered_at_admission = slot.lock().expect("response slot poisoned").is_some();
        if answered_at_admission {
            cache_answered += 1;
        } else {
            let span = tracer.begin("rpo-portfolio.engine", "solve", request_id);
            let solve_started = Instant::now();
            let result = engine.solve_until(&prepared.instance, 1, Some(deadline));
            let micros = solve_started.elapsed().as_secs_f64() * 1e6;
            let mut cursor = tracer.start_of(span);
            let mut runs = Vec::new();
            for run in result
                .runs
                .iter()
                .filter(|r| r.status == RunStatus::Completed)
            {
                tracer.record(
                    span,
                    "rpo-portfolio.backend",
                    run.backend,
                    cursor,
                    run.micros * 1000,
                );
                cursor += run.micros * 1000;
                runs.push((run.backend, run.micros));
            }
            tracer.end(span);
            if result.from_cache {
                cache_answered += 1;
            } else {
                solves.push(Solve {
                    micros,
                    runs,
                    winner: result.front.best_reliability().map(|p| p.backend),
                });
            }
            let span = tracer.begin("rpo-serve.service", "process", request_id);
            while service.process_one() {}
            tracer.end(span);
        }
        let response = slot
            .lock()
            .expect("response slot poisoned")
            .take()
            .expect("every request is answered once processed");
        let span = tracer.begin("rpo-serve.wire", "encode", request_id);
        std::hint::black_box(serde_json::to_string(&response).expect("responses encode"));
        tracer.end(span);
        tracer.end(root);
    }
    let wall = started.elapsed();
    let oracle = engine.oracle_cache_stats();
    service.shutdown();
    Replay {
        wall,
        tracer,
        requests: requests.len(),
        cache_answered,
        solves,
        oracle_hits: oracle.hits as f64,
        oracle_lookups: (oracle.hits + oracle.misses) as f64,
    }
}

impl Replay {
    /// Per-layer metrics of a traced replay; `untraced` is the wall time of
    /// the same replay without spans.
    fn report(&self, untraced: Duration, traced: Duration, outcome: &mut Outcome) {
        let wall_ns = self.wall.as_nanos() as f64;
        let by_name = self.tracer.by_name();
        let mean_us = |layer: &str, name: &str| {
            by_name.get(&(layer, name)).map_or(0.0, |(total, count)| {
                *total as f64 / 1e3 / (*count).max(1) as f64
            })
        };
        outcome.set(
            "rpo-serve.wire.decode_us",
            mean_us("rpo-serve.wire", "decode"),
        );
        outcome.set(
            "rpo-serve.wire.encode_us",
            mean_us("rpo-serve.wire", "encode"),
        );
        outcome.set(
            "rpo-portfolio.cache.instance_hit_share",
            stats::share(self.cache_answered as f64, self.requests as f64),
        );
        outcome.set(
            "rpo-portfolio.cache.oracle_hit_share",
            stats::share(self.oracle_hits, self.oracle_lookups),
        );
        engine_metrics(&self.solves, outcome);
        split_metrics(&self.tracer, wall_ns, outcome);
        set_overhead(untraced, traced, outcome);
    }
}

/// Engine and backend metrics from individual solves.
fn engine_metrics(solves: &[Solve], outcome: &mut Outcome) {
    let count = solves.len() as f64;
    let times = stats::sorted(&solves.iter().map(|s| s.micros).collect::<Vec<_>>());
    outcome.set(
        "rpo-portfolio.engine.solve_p50_us",
        supported_percentile(&times, 0.5).unwrap_or(0.0),
    );
    outcome.set(
        "rpo-portfolio.engine.solve_p99_us",
        supported_percentile(&times, 0.99).unwrap_or(0.0),
    );
    let runs: f64 = solves.iter().map(|s| s.runs.len() as f64).sum();
    outcome.set(
        "rpo-portfolio.engine.backends_per_solve",
        stats::share(runs, count),
    );
    let backend_us: f64 = solves
        .iter()
        .flat_map(|s| &s.runs)
        .map(|r| r.1 as f64)
        .sum();
    let solve_us: f64 = solves.iter().map(|s| s.micros).sum();
    outcome.set(
        "rpo-portfolio.engine.overhead_us",
        stats::share(solve_us - backend_us, count),
    );
    let loser_us: f64 = solves
        .iter()
        .flat_map(|s| s.runs.iter().filter(move |r| Some(r.0) != s.winner))
        .map(|r| r.1 as f64)
        .sum();
    outcome.set(
        "rpo-portfolio.engine.loser_time_share",
        stats::share(loser_us, backend_us),
    );
    for backend in BACKENDS {
        let mine: Vec<u64> = solves
            .iter()
            .flat_map(|s| s.runs.iter().filter(|r| r.0 == backend).map(|r| r.1))
            .collect();
        let wins = solves.iter().filter(|s| s.winner == Some(backend)).count() as f64;
        let total: u64 = mine.iter().sum();
        set_backend(
            outcome,
            backend,
            total as f64,
            mine.len() as f64,
            wins,
            count,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn drain_summaries_parse() {
        let lines = vec![
            "serving JSON lines on tcp://127.0.0.1:1".to_string(),
            "serve: 10 admitted, 2 coalesced, 3 cache hits, 1 shed, 0 overloaded, \
             0 rejected draining, 9 solves"
                .to_string(),
        ];
        let drain = parse_drain(&lines).expect("summary parses");
        assert_eq!(drain.admitted, 10.0);
        assert_eq!(drain.cache_hits, 3.0);
        assert_eq!(drain.solves, 9.0);
    }

    #[test]
    fn prepared_requests_are_deterministic_and_tagged_with_their_phase() {
        let a = prepare(Kind::HomDup, 9, LIGHT, 20);
        let b = prepare(Kind::HomDup, 9, LIGHT, 20);
        assert!(a.iter().zip(&b).all(|(x, y)| x.line == y.line));
        let request: ServeRequest =
            serde_json::from_str(std::str::from_utf8(&a[3].line).unwrap().trim_end()).unwrap();
        assert_eq!(request.id, (LIGHT << 32) | 3);
        let other = prepare(Kind::HomDup, 10, LIGHT, 20);
        assert!(a.iter().zip(&other).any(|(x, y)| x.line != y.line));
    }
}
