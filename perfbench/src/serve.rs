//! `serve-open`: an in-process `wsf-server` on loopback TCP, configured
//! like `server_bench` (2 runtime threads, 2 executors, `QueueAll`, four
//! `TenantSpec::default_with_seed` tenants), driven by this benchmark's own
//! open-loop generator: one connection, a submitter on the calling thread
//! and a receiver thread, one submission per frame at a fixed rate.
//!
//! Requests follow a fixed schedule of due times ([`crate::schedule`]);
//! each is timed from its due time to the arrival of its completion, the
//! generator's lateness (send − due) is reported, and the throughput
//! window ends at the last completion — no idle grace period is counted.
//! Every completion must be `STATUS_OK` with the misses and deviations of
//! a local simulation of its (tenant, shape) made at set-up.

use crate::schedule::{requests_in, Schedule};
use crate::trace::Tracer;
use crate::{stats, LayerReport, Segment};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};
use wsf_core::{ParallelSimulator, PolicyScheduler};
use wsf_dag::DagBuilder;
use wsf_runtime::RuntimeStats;
use wsf_server::protocol::parse_response_header;
use wsf_server::{
    frame_request, AdmissionMode, FrameReader, Server, ServerConfig, TenantSpec, ZipfSampler,
    COMPLETION_WORDS, STATUS_OK,
};
use wsf_workloads::submission::{ShapeScratch, ShapeSpec};

const TENANTS: usize = 4;
/// Offered load: about a quarter of the batch-1 closed-loop capacity on a
/// quiet 2-vCPU machine. At twice this rate a machine-wide slowdown brings
/// the server near saturation, and the backlog it builds swings latency and
/// peak memory from run to run.
const RATE_PER_S: u64 = 2000;
const ZIPF_S: f64 = 1.1;
/// Warm-up requests at set-up, sent on the same schedule as measured ones.
const WARMUP_REQUESTS: u64 = 1000;
/// A segment fails if no completion arrives for this long.
const STALL_TIMEOUT: Duration = Duration::from_secs(20);

pub fn server_config() -> ServerConfig {
    ServerConfig {
        runtime_threads: 2,
        executors: 2,
        admission: AdmissionMode::QueueAll,
        tenants: tenants(),
        fault_hooks: None,
    }
}

pub fn tenants() -> Vec<TenantSpec> {
    (0..TENANTS)
        .map(|t| TenantSpec::default_with_seed(t as u64 + 1))
        .collect()
}

/// A generated request: its tenant and shape index into the smoke mix.
#[derive(Clone, Copy, Debug)]
pub struct Request {
    pub tenant: u8,
    pub shape: u8,
}

pub struct State {
    server: Option<Server>,
    addr: SocketAddr,
    pub shapes: [ShapeSpec; 3],
    /// Local `(misses, deviations)` per (tenant, shape).
    pub expected: Vec<[(u64, u64); 3]>,
    zipf: ZipfSampler,
    shape_cursor: usize,
    next_id: u64,
    /// Generated requests, kept for the direct protocol/ingest drives.
    pub sent: Vec<Request>,
    setup_failed: u64,
    pub tally: ServeTally,
}

/// Per-request figures of the measured (counted) segments.
#[derive(Default)]
pub struct ServeTally {
    pub requests: u64,
    /// Due time → completion arrival of each passing request.
    pub latency_ns: Vec<u64>,
    /// The same requests' submit → complete time inside the server.
    pub server_us: Vec<u32>,
    /// Generator lateness: send − due, for every request.
    pub late_ns: Vec<u64>,
    pub stats: RuntimeStats,
}

/// Local reference simulation of one shape under one tenant's config.
pub fn simulate(spec: &TenantSpec, shape: &ShapeSpec) -> (u64, u64) {
    let dag = shape.build_into(&mut DagBuilder::new(), &mut ShapeScratch::new());
    let sim = ParallelSimulator::new(spec.sim_config());
    let seq = sim.sequential(&dag);
    let mut sched = PolicyScheduler::new(spec.policy);
    let rep = sim.run_against(&dag, &seq, &mut sched, false);
    (rep.cache_misses(), rep.deviations())
}

pub fn setup(seed: u64, tr: &mut Tracer) -> State {
    let shapes = ShapeSpec::smoke_mix();
    let expected: Vec<[(u64, u64); 3]> = tenants()
        .iter()
        .map(|spec| {
            let mut row = [(0, 0); 3];
            for (slot, shape) in shapes.iter().enumerate() {
                let t = tr.enter("core.request_sim");
                row[slot] = simulate(spec, shape);
                tr.exit(t, 1);
            }
            row
        })
        .collect();
    let server = Server::bind_tcp("127.0.0.1:0", server_config()).expect("bind loopback server");
    let addr = server.tcp_addr().expect("tcp server has an address");
    let mut state = State {
        server: Some(server),
        addr,
        shapes,
        expected,
        zipf: ZipfSampler::new(TENANTS, ZIPF_S, seed ^ 0x5345_5256_4f50_454e),
        shape_cursor: (seed % 3) as usize,
        next_id: 1,
        sent: Vec::new(),
        setup_failed: 0,
        tally: ServeTally::default(),
    };
    let mut off = Tracer::off();
    let warm = open_loop(&mut state, WARMUP_REQUESTS, &mut off, false);
    state.setup_failed += warm.failed;
    state
}

fn tenant_stats(server: &Server) -> RuntimeStats {
    let core = server.core();
    let mut total = RuntimeStats::default();
    for t in 0..core.num_tenants() {
        total.accumulate(&core.tenant_report(t).stats);
    }
    total
}

/// What the receiver thread hands back: one slot per request.
struct Received {
    /// Due time → completion arrival, in ns; `None` until a completion
    /// for the request arrives.
    latency_ns: Vec<Option<u64>>,
    /// The completion's own submit → complete time inside the server.
    server_us: Vec<u32>,
    /// Whether the completion was `STATUS_OK` with the local result.
    ok: Vec<bool>,
    last_arrival: Option<Instant>,
    /// Completions for unknown request ids, or second ones for a request.
    unexpected: u64,
    error: Option<String>,
    tracer: Tracer,
}

struct Expect {
    base_id: u64,
    schedule: Schedule,
    requests: Arc<[Request]>,
    results: Vec<[(u64, u64); 3]>,
}

fn receive(mut stream: TcpStream, want: Expect, mut tracer: Tracer) -> Received {
    let n = want.requests.len();
    let mut got = Received {
        latency_ns: vec![None; n],
        server_us: vec![0; n],
        ok: vec![false; n],
        last_arrival: None,
        unexpected: 0,
        error: None,
        tracer: Tracer::off(),
    };
    let mut frames = FrameReader::new();
    let mut buf = [0u8; 16384];
    let mut received = 0usize;
    let mut last_progress = Instant::now();
    if let Err(e) = stream.set_read_timeout(Some(Duration::from_millis(50))) {
        got.error = Some(format!("set read timeout: {e}"));
    }
    while received < n && got.error.is_none() {
        let k = match stream.read(&mut buf) {
            Ok(0) => {
                got.error = Some("server closed the connection".into());
                break;
            }
            Ok(k) => k,
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
            {
                if last_progress.elapsed() > STALL_TIMEOUT {
                    got.error = Some(format!("no completion for {STALL_TIMEOUT:?}"));
                }
                continue;
            }
            Err(e) => {
                got.error = Some(format!("read failed: {e}"));
                break;
            }
        };
        let now = Instant::now();
        last_progress = now;
        got.last_arrival = Some(now);
        let t = tracer.enter("client.decode");
        frames.push_bytes(&buf[..k]);
        let mut decoded = 0u64;
        loop {
            match frames.poll_frame() {
                Ok(true) => {}
                Ok(false) => break,
                Err(e) => {
                    got.error = Some(format!("bad response frame: {e}"));
                    break;
                }
            }
            let words = frames.words();
            let count = match parse_response_header(words) {
                Ok(c)
                    if usize::try_from(c)
                        .ok()
                        .and_then(|c| c.checked_mul(COMPLETION_WORDS))
                        == Some(words.len() - 3) =>
                {
                    c as usize
                }
                _ => {
                    got.error = Some("malformed response frame".into());
                    break;
                }
            };
            for w in words[3..].chunks_exact(COMPLETION_WORDS).take(count) {
                let idx = w[0].wrapping_sub(want.base_id) as usize;
                if idx >= n || got.latency_ns[idx].is_some() {
                    got.unexpected += 1;
                    continue;
                }
                got.latency_ns[idx] = Some(want.schedule.since_due_ns(idx as u64, now));
                got.server_us[idx] = w[5].min(u64::from(u32::MAX)) as u32;
                let req = want.requests[idx];
                got.ok[idx] = w[1] == STATUS_OK
                    && (w[2], w[3]) == want.results[req.tenant as usize][req.shape as usize];
                let due = want.schedule.due(idx as u64);
                tracer.record("client.request", due, now, want.base_id + idx as u64, 1);
                received += 1;
                decoded += 1;
            }
        }
        tracer.exit(t, decoded);
    }
    got.tracer = tracer;
    got
}

/// Sends `n` requests on a fixed schedule over a fresh connection and
/// checks every completion. With `count`, the per-request figures go into
/// the state's tally.
fn open_loop(state: &mut State, n: u64, tr: &mut Tracer, count: bool) -> Segment {
    let requests: Arc<[Request]> = (0..n)
        .map(|_| {
            let tenant = state.zipf.sample() as u8;
            let shape = (state.shape_cursor % state.shapes.len()) as u8;
            state.shape_cursor += 1;
            Request { tenant, shape }
        })
        .collect();
    let base_id = state.next_id;
    state.next_id += n;
    let server = state.server.as_ref().expect("server is running");
    let stats_before = tenant_stats(server);

    let mut stream = TcpStream::connect(state.addr).expect("connect to loopback server");
    stream.set_nodelay(true).expect("set TCP_NODELAY");
    let reader = stream.try_clone().expect("clone client socket");
    let schedule = Schedule {
        start: Instant::now() + Duration::from_millis(2),
        rate_per_s: RATE_PER_S,
    };
    let want = Expect {
        base_id,
        schedule,
        requests: Arc::clone(&requests),
        results: state.expected.clone(),
    };
    let recv_tracer = tr.fork();
    let receiver = std::thread::spawn(move || receive(reader, want, recv_tracer));

    let mut bytes = Vec::with_capacity(64);
    let mut late_ns: Vec<u64> = Vec::with_capacity(if count { n as usize } else { 0 });
    for (i, req) in requests.iter().enumerate() {
        let due = schedule.due(i as u64);
        let now = Instant::now();
        if due > now {
            std::thread::sleep(due - now);
        }
        tr.set_op(base_id + i as u64);
        let t = tr.enter("client.send");
        let sent_at = Instant::now();
        frame_request(
            u64::from(req.tenant),
            &[(base_id + i as u64, state.shapes[req.shape as usize])],
            &mut bytes,
        );
        let res = stream.write_all(&bytes);
        tr.exit(t, 1);
        if count {
            late_ns.push(schedule.since_due_ns(i as u64, sent_at));
        }
        if let Err(e) = res {
            eprintln!("serve-open: send failed: {e}");
            break;
        }
    }
    let got = receiver.join().expect("receiver thread panicked");
    drop(stream);
    if let Some(e) = &got.error {
        eprintln!("serve-open: receive failed: {e}");
    }
    if got.unexpected > 0 {
        eprintln!("serve-open: {} unexpected completions", got.unexpected);
    }

    // A request passes when exactly one STATUS_OK completion with the
    // locally simulated misses and deviations arrived for it.
    let mut seg = Segment {
        attempted: n,
        ..Segment::default()
    };
    seg.op_us.reserve(n as usize);
    for (i, lat) in got.latency_ns.iter().enumerate() {
        match lat {
            Some(ns) if got.ok[i] => {
                seg.op_us.push(*ns as f64 / 1e3);
                if count {
                    state.tally.latency_ns.push(*ns);
                    state.tally.server_us.push(got.server_us[i]);
                }
            }
            _ => seg.failed += 1,
        }
    }
    if got.unexpected > 0 {
        seg.failed = seg.failed.max(1);
    }
    if seg.failed > 0 {
        eprintln!(
            "serve-open: {} of {n} requests failed their check",
            seg.failed
        );
    }
    let window = got.last_arrival.map_or(0.0, |a| {
        a.saturating_duration_since(schedule.start).as_secs_f64()
    });
    seg.work_per_s = (n - seg.failed.min(n)) as f64 / window.max(1e-9);
    if count {
        let delta = tenant_stats(server).since(&stats_before);
        state.tally.stats.accumulate(&delta);
        state.tally.requests += n;
        state.tally.late_ns.extend_from_slice(&late_ns);
        state.sent.extend_from_slice(&requests);
    }
    tr.absorb(got.tracer);
    seg
}

pub fn measure(state: &mut State, window: Duration, tr: &mut Tracer) -> Segment {
    let n = requests_in(window.as_secs_f64(), RATE_PER_S);
    let mut seg = open_loop(state, n, tr, true);
    seg.failed += state.setup_failed;
    state.setup_failed = 0;
    seg
}

/// Shuts the server down; returns whether it drained with no thread left
/// behind.
pub fn teardown(mut state: State) -> bool {
    match state.server.take() {
        Some(server) => {
            let r = server.shutdown(Duration::from_secs(20));
            r.drained && r.hung_workers == 0 && r.detached_executors == 0
        }
        None => true,
    }
}

pub fn layer_metrics(state: &State, _tr: &Tracer, out: &mut LayerReport) {
    let t = &state.tally;
    let per_req = |v: u64| v as f64 / t.requests.max(1) as f64;
    let us = |ns: &[u64]| -> Vec<f64> { ns.iter().map(|&v| v as f64 / 1e3).collect() };
    let latency_us = us(&t.latency_ns);
    let server_us: Vec<f64> = t.server_us.iter().map(|&v| f64::from(v)).collect();
    let overhead_us: Vec<f64> = latency_us
        .iter()
        .zip(&server_us)
        .map(|(l, s)| l - s)
        .collect();
    out.push("server.server_us.p50", stats::median(&server_us), "us");
    out.push("net.overhead_us.p50", stats::median(&overhead_us), "us");
    out.push("server.steals_per_req", per_req(t.stats.steals), "count");
    out.push("server.wakeups_per_req", per_req(t.stats.wakeups), "count");
    out.push(
        "client.latency_us.p99",
        stats::quantile(&latency_us, 0.99),
        "us",
    );
    out.push(
        "client.late_us.p99",
        stats::quantile(&us(&t.late_ns), 0.99),
        "us",
    );
}
