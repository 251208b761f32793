//! The live session of the traced run: an in-process `hbm_serve::Server`
//! on loopback with a checkpointing state dir, driven by `--threads`
//! closed-loop clients that each own one myopic experiment and cycle a
//! fixed request mix.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use hbm_core::{Perturbation, Scenario};
use hbm_serve::experiment::{Supervisor, SupervisorConfig};
use hbm_serve::{ServeConfig, Server, ServerHandle};

use crate::report::{Report, TwinCheck};
use crate::spans::Spans;

/// Slots per `step` and `branches/step` request.
pub const STEP_SLOTS: u64 = 60;
/// Every `FORK_EVERY`-th cycle adds perturb, fork, branch step and branch
/// delete to the step + two reads every cycle does.
pub const FORK_EVERY: u64 = 10;

#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Step,
    State,
    Metrics,
    Perturb,
    Fork,
    BranchStep,
    BranchDelete,
}

impl Kind {
    pub fn name(self) -> &'static str {
        match self {
            Kind::Step => "step",
            Kind::State => "state",
            Kind::Metrics => "metrics",
            Kind::Perturb => "perturb",
            Kind::Fork => "fork",
            Kind::BranchStep => "branch_step",
            Kind::BranchDelete => "branch_delete",
        }
    }

    fn span(self) -> &'static str {
        match self {
            Kind::Step => "serve.client.step",
            Kind::State => "serve.client.state",
            Kind::Metrics => "serve.client.metrics",
            Kind::Perturb => "serve.client.perturb",
            Kind::Fork => "serve.client.fork",
            Kind::BranchStep => "serve.client.branch_step",
            Kind::BranchDelete => "serve.client.branch_delete",
        }
    }
}

/// One request of the mix.
pub struct Op {
    pub kind: Kind,
    pub method: &'static str,
    pub path: String,
    pub body: String,
}

impl Op {
    pub fn bytes(&self) -> Vec<u8> {
        request(self.method, &self.path, &self.body)
    }
}

/// The bytes of one HTTP/1.1 request.
fn request(method: &str, path: &str, body: &str) -> Vec<u8> {
    let mut head = format!("{method} {path} HTTP/1.1\r\nHost: bench\r\n");
    if !body.is_empty() {
        head.push_str(&format!("Content-Length: {}\r\n", body.len()));
    }
    format!("{head}\r\n{body}").into_bytes()
}

/// The scenario client `client` creates (myopic: no warm-up).
pub fn scenario_body(seed: u64, client: usize) -> String {
    format!(
        "{{\"policy\":\"myopic\",\"days\":2,\"warmup_days\":0,\"seed\":{}}}",
        seed.wrapping_mul(1000).wrapping_add(client as u64 + 1)
    )
}

const FORK_BODY: &str = "{\"label\":\"hot\",\"attack_load_kw\":2.0}";

/// The requests of cycle `c` against experiment `id`.
pub fn cycle(id: &str, c: u64) -> Vec<Op> {
    let at = |suffix: &str| format!("/v1/experiments/{id}{suffix}");
    let slots = format!("{{\"slots\":{STEP_SLOTS}}}");
    let mut ops = vec![
        Op {
            kind: Kind::Step,
            method: "POST",
            path: at("/step"),
            body: slots.clone(),
        },
        Op {
            kind: Kind::State,
            method: "GET",
            path: at("/state"),
            body: String::new(),
        },
        Op {
            kind: Kind::Metrics,
            method: "GET",
            path: at("/metrics"),
            body: String::new(),
        },
    ];
    if c % FORK_EVERY == FORK_EVERY - 1 {
        let load = perturb_load(c);
        ops.extend([
            Op {
                kind: Kind::Perturb,
                method: "POST",
                path: at("/perturb"),
                body: format!("{{\"attack_load_kw\":{load}}}"),
            },
            Op {
                kind: Kind::Fork,
                method: "POST",
                path: at("/fork"),
                body: FORK_BODY.to_string(),
            },
            Op {
                kind: Kind::BranchStep,
                method: "POST",
                path: at("/branches/step"),
                body: slots,
            },
            Op {
                kind: Kind::BranchDelete,
                method: "DELETE",
                path: at("/branches"),
                body: String::new(),
            },
        ]);
    }
    ops
}

/// The attack load cycle `c`'s perturb sets, kW.
fn perturb_load(c: u64) -> f64 {
    [1.1, 1.2, 1.0][(c / FORK_EVERY % 3) as usize]
}

/// Applies one mutating op of cycle `c` to a supervisor, as the server's
/// worker would. Reads are no-ops here.
pub fn apply(sup: &Supervisor, id: &str, kind: Kind, c: u64) -> Result<(), (u16, String)> {
    match kind {
        Kind::Step => sup.step(id, STEP_SLOTS).map(drop),
        Kind::Perturb => {
            let p = Perturbation {
                attack_load_kw: Some(perturb_load(c)),
                ..Perturbation::default()
            };
            sup.perturb(id, &p).map(drop)
        }
        Kind::Fork => {
            let p = Perturbation {
                attack_load_kw: Some(2.0),
                ..Perturbation::default()
            };
            sup.fork(id, Some("hot".to_string()), &p).map(drop)
        }
        Kind::BranchStep => sup.branch_step(id, STEP_SLOTS).map(drop),
        Kind::BranchDelete => sup.branch_delete(id).map(drop),
        Kind::State | Kind::Metrics => Ok(()),
    }
}

/// Sends one request on a fresh connection (the server always answers
/// `Connection: close`) and returns `(status, body)`. When `spans` records,
/// connect, send and receive become children of a per-request span.
pub fn roundtrip(
    addr: &str,
    request: &[u8],
    spans: &mut Spans,
    name: &'static str,
    op: u64,
) -> Result<(u16, String), String> {
    let t0 = Instant::now();
    let mut stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    stream
        .set_read_timeout(Some(Duration::from_secs(60)))
        .map_err(|e| e.to_string())?;
    let t1 = Instant::now();
    stream
        .write_all(request)
        .map_err(|e| format!("send: {e}"))?;
    let t2 = Instant::now();
    let mut response = Vec::new();
    stream
        .read_to_end(&mut response)
        .map_err(|e| format!("recv: {e}"))?;
    let t3 = Instant::now();
    abort_on_close(&stream);
    if spans.enabled() {
        let root = spans.record(name, op, None, t0, t3, 1);
        spans.record("client.connect", op, Some(root), t0, t1, 1);
        spans.record("client.send", op, Some(root), t1, t2, 1);
        spans.record("client.recv", op, Some(root), t2, t3, 1);
    }
    let response = String::from_utf8(response).map_err(|_| "non-UTF-8 response".to_string())?;
    let status: u16 = response
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| format!("malformed response {response:?}"))?;
    let body = response
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_string())
        .unwrap_or_default();
    Ok((status, body))
}

/// Makes dropping `stream` reset the connection instead of closing it.
///
/// The server closes every connection after its response, so each
/// request would leave a TIME_WAIT socket for a minute; at several
/// thousand requests per second that exhausts the ephemeral ports within
/// seconds, and `connect` then spends its time scanning for a free port —
/// in this run and in the next. A reset once the response is fully read
/// frees both ends at once.
#[cfg(target_os = "linux")]
fn abort_on_close(stream: &TcpStream) {
    use std::os::fd::AsRawFd;
    #[repr(C)]
    struct Linger {
        l_onoff: i32,
        l_linger: i32,
    }
    extern "C" {
        fn setsockopt(fd: i32, level: i32, name: i32, value: *const Linger, len: u32) -> i32;
    }
    const SOL_SOCKET: i32 = 1;
    const SO_LINGER: i32 = 13;
    let value = Linger {
        l_onoff: 1,
        l_linger: 0,
    };
    // SAFETY: `stream` owns the socket descriptor for the whole call, and
    // `value` is a live `struct linger` (two C ints) whose exact size is
    // passed as the option length; setsockopt only reads it.
    let rc = unsafe {
        setsockopt(
            stream.as_raw_fd(),
            SOL_SOCKET,
            SO_LINGER,
            &value,
            std::mem::size_of::<Linger>() as u32,
        )
    };
    if rc != 0 {
        eprintln!("warning: SO_LINGER: {}", std::io::Error::last_os_error());
    }
}

#[cfg(not(target_os = "linux"))]
fn abort_on_close(_stream: &TcpStream) {}

/// Records one response into the report's status counts.
fn tally(report: &mut Report, result: &Result<(u16, String), String>) {
    match result {
        Ok((status, _)) => *report.statuses.entry(*status).or_default() += 1,
        Err(_) => report.transport_errors += 1,
    }
}

fn json_str(body: &str, key: &str) -> Option<String> {
    let start = body.find(&format!("\"{key}\":\""))? + key.len() + 4;
    body[start..].split('"').next().map(str::to_string)
}

/// A running in-process server.
struct Booted {
    addr: String,
    handle: ServerHandle,
    thread: JoinHandle<std::io::Result<()>>,
    state_dir: PathBuf,
}

impl Booted {
    /// Stops the server, waits for it, and removes its state dir.
    fn stop(self) {
        self.handle.stop();
        if !matches!(self.thread.join(), Ok(Ok(()))) {
            eprintln!("warning: server thread ended with an error");
        }
        let _ = std::fs::remove_dir_all(&self.state_dir);
    }
}

fn boot(work: &Path, workers: usize) -> Booted {
    let state_dir = work.join("serve-state");
    let _ = std::fs::remove_dir_all(&state_dir);
    let config = ServeConfig {
        workers,
        state_dir: Some(state_dir.clone()),
        ..ServeConfig::default()
    };
    let server = Server::bind("127.0.0.1:0", config).expect("bind a loopback port");
    let addr = server.local_addr().to_string();
    let handle = server.handle();
    let thread = std::thread::spawn(move || server.run());
    Booted {
        addr,
        handle,
        thread,
        state_dir,
    }
}

/// Creates one experiment per client; returns their ids (`None` where the
/// create failed, which the status tally already counts).
fn create_all(addr: &str, seed: u64, clients: usize, report: &mut Report) -> Vec<Option<String>> {
    let mut off = Spans::new(false);
    (0..clients)
        .map(|c| {
            let create = request("POST", "/v1/experiments", &scenario_body(seed, c));
            let result = roundtrip(addr, &create, &mut off, "serve.client.create", 0);
            tally(report, &result);
            match result {
                Ok((201, body)) => json_str(&body, "id"),
                _ => None,
            }
        })
        .collect()
}

/// What one client thread brings back.
struct ClientOutcome {
    report: Report,
    spans: Spans,
    /// Mutating ops the server acknowledged, in order, with their cycle,
    /// for the twin.
    applied: Vec<(Kind, u64)>,
}

/// One closed-loop client. Every acknowledged request's latency goes into
/// `rt.<kind>_us`, and its start, in seconds since `started`, into
/// `rt.<kind>_at_s`.
fn client_loop(
    addr: &str,
    id: &str,
    client: usize,
    started: Instant,
    deadline: Instant,
    spans: Spans,
) -> ClientOutcome {
    let mut out = ClientOutcome {
        report: Report::default(),
        spans,
        applied: Vec::new(),
    };
    let mut op_id = (client as u64) << 40;
    let mut c = 0;
    while Instant::now() < deadline {
        for op in cycle(id, c) {
            let t0 = Instant::now();
            let result = roundtrip(addr, &op.bytes(), &mut out.spans, op.kind.span(), op_id);
            let us = t0.elapsed().as_secs_f64() * 1e6;
            op_id += 1;
            tally(&mut out.report, &result);
            if let Ok((status, _)) = &result {
                if (200..300).contains(status) {
                    let kind = op.kind.name();
                    out.report.push(&format!("rt.{kind}_us"), "us", us);
                    let at = (t0 - started).as_secs_f64();
                    out.report.push(&format!("rt.{kind}_at_s"), "s", at);
                    if !matches!(op.kind, Kind::State | Kind::Metrics) {
                        out.applied.push((op.kind, c));
                    }
                }
            }
        }
        c += 1;
    }
    out
}

/// Runs every client for `budget`, merging their samples, spans and
/// acknowledged mutations.
fn drive(
    booted: &Booted,
    ids: &[Option<String>],
    budget: Duration,
    spans: &mut Spans,
    report: &mut Report,
    applied: &mut [Vec<(Kind, u64)>],
) {
    let started = Instant::now();
    let deadline = started + budget;
    let (enabled, origin) = (spans.enabled(), spans.origin());
    let outcomes: Vec<Option<ClientOutcome>> = std::thread::scope(|scope| {
        let handles: Vec<_> = ids
            .iter()
            .enumerate()
            .map(|(c, id)| {
                let addr = booted.addr.as_str();
                scope.spawn(move || {
                    id.as_ref().map(|id| {
                        let spans = Spans::with_origin(enabled, origin);
                        client_loop(addr, id, c, started, deadline, spans)
                    })
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    for (c, outcome) in outcomes.into_iter().enumerate() {
        if let Some(o) = outcome {
            report.merge(o.report);
            spans.absorb(o.spans);
            applied[c].extend(o.applied);
        }
    }
}

/// Boots the server, creates one experiment per client, drives the
/// clients for `budget`, then checks every experiment against a twin
/// supervisor.
pub fn session(
    seed: u64,
    threads: usize,
    work: &Path,
    budget: Duration,
    spans: &mut Spans,
) -> Report {
    let mut report = Report::default();
    let booted = boot(work, threads);
    let ids = create_all(&booted.addr, seed, threads, &mut report);

    let mut applied: Vec<Vec<(Kind, u64)>> = (0..threads).map(|_| Vec::new()).collect();
    drive(&booted, &ids, budget, spans, &mut report, &mut applied);

    // Untimed: final served metrics per experiment, then the server's own
    // request count (this request included).
    let mut off = Spans::new(false);
    let mut served = Vec::new();
    for id in ids.iter().flatten() {
        let get = request("GET", &format!("/v1/experiments/{id}/metrics"), "");
        let result = roundtrip(&booted.addr, &get, &mut off, "final", 0);
        tally(&mut report, &result);
        served.push(result.map(|(_, body)| body).unwrap_or_default());
    }
    let get = request("GET", "/v1/metrics", "");
    let result = roundtrip(&booted.addr, &get, &mut off, "final", 0);
    tally(&mut report, &result);
    let counted = result
        .ok()
        .and_then(|(_, body)| {
            let start = body.find("\"requests_total\":")? + "\"requests_total\":".len();
            let digits: String = body[start..]
                .chars()
                .take_while(char::is_ascii_digit)
                .collect();
            digits.parse::<f64>().ok()
        })
        .unwrap_or(0.0);
    let sent = report.statuses.values().sum::<u64>() + report.transport_errors;
    report.value("serve.requests_total", "count", counted);
    report.value("serve.requests_sent", "count", sent as f64);
    booted.stop();

    // Twin replay: the same acknowledged ops on a memory-only supervisor
    // must end in byte-equal metrics. Experiments are independent, so each
    // replays on its own thread.
    let twin = Supervisor::new(SupervisorConfig::default(), None);
    let replayed: Vec<String> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..ids.len())
            .map(|c| {
                let (twin, ops) = (&twin, &applied[c]);
                scope.spawn(move || {
                    let scenario =
                        Scenario::from_flat_json(&scenario_body(seed, c)).expect("valid scenario");
                    twin.create(scenario)
                        .and_then(|created| {
                            for &(kind, cycle) in ops {
                                apply(twin, &created.id, kind, cycle)?;
                            }
                            twin.metrics_of(&created.id)
                        })
                        .map(|(metrics, _)| format!("{metrics}\n"))
                        .unwrap_or_else(|(status, e)| format!("twin error {status}: {e}"))
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("twin replay thread panicked"))
            .collect()
    });
    let mut served = served.into_iter();
    for (id, twin) in ids.iter().zip(replayed) {
        if let Some(id) = id {
            report.twins.push(TwinCheck {
                experiment: id.clone(),
                served: served.next().unwrap_or_default(),
                twin,
            });
        }
    }
    report
}
