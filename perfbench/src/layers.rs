//! Direct drives of the calls that run inside the pool or the server
//! during a workload, where the benchmark cannot time them from outside:
//! spawn + touch inside a pool task, the Chase–Lev deque and the injector
//! (one producer + one consumer), request framing and decoding, DAG builds
//! from shapes, and `ServerCore::ingest_frame` on a standalone core. Each
//! drive runs a fixed number of operations on the workload's own inputs
//! and checks what it gets back.

use crate::pool;
use crate::serve;
use crate::trace::Tracer;
use crate::LayerReport;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};
use wsf_dag::DagBuilder;
use wsf_deque::{deque, Injector, Steal};
use wsf_runtime::SpawnPolicy;
use wsf_server::protocol::parse_request_header;
use wsf_server::{frame_request, FrameReader, ServerCore, STATUS_OK};
use wsf_workloads::submission::{ShapeScratch, ShapeSpec};

const SPAWN_TOUCHES: u64 = 100_000;
const DEQUE_OPS: u64 = 1_000_000;
const DEQUE_BURST: u64 = 64;
const INJECTOR_ITEMS: u64 = 1_000_000;
const INJECTOR_BATCH: usize = 16;
const FRAMES: usize = 20_000;
const INGEST_FRAMES: usize = 4_000;
const SHAPE_BUILDS: usize = 3_000;
const REQUEST_SIMS: usize = 1_000;

/// `spawn_future` + `touch` of a trivial future inside one pool task, per
/// under the pool's policy: child-first runs it inline, helper-first
/// through the deque.
pub fn drive_pool(state: &pool::State, tr: &mut Tracer, out: &mut LayerReport) {
    {
        let p = &state.pool;
        let rt = Arc::clone(&p.rt);
        let (start, end, sum) =
            p.rt.defer_future(move || {
                let start = Instant::now();
                let mut sum = 0u64;
                for i in 0..SPAWN_TOUCHES {
                    sum += rt.spawn_future(move || i).touch();
                }
                (start, Instant::now(), sum)
            })
            .touch();
        out.check(
            sum == SPAWN_TOUCHES * (SPAWN_TOUCHES - 1) / 2,
            "spawn/touch returned every value",
        );
        let name = match p.policy {
            SpawnPolicy::ChildFirst => "runtime.spawn_touch.child-first",
            SpawnPolicy::HelperFirst => "runtime.spawn_touch.helper-first",
        };
        tr.record(name, start, end, 0, SPAWN_TOUCHES);
        out.push(
            format!("runtime.spawn_touch_ns.{}", p.policy.label()),
            tr.ns_per_unit(name).unwrap_or(0.0),
            "ns",
        );
    }
}

/// Chase–Lev: the owner pushes and pops bursts while one thief steals;
/// then the injector with one producer and one consumer, single pushes
/// and `push_batch`. Every item must come out exactly once.
pub fn drive_deques(tr: &mut Tracer, out: &mut LayerReport) {
    // Owner push/pop against a concurrent thief.
    let (w, s) = deque::<u64>();
    let stop = AtomicBool::new(false);
    let stolen_sum = AtomicU64::new(0);
    let barrier = Barrier::new(2);
    let (owner_ns, popped_sum, steal_ns, steals) = std::thread::scope(|scope| {
        let thief = scope.spawn(|| {
            barrier.wait();
            let mut attempts = 0u64;
            let mut got = 0u64;
            let mut sum = 0u64;
            let t0 = Instant::now();
            while !stop.load(Ordering::Acquire) {
                attempts += 1;
                if let Steal::Success(v) = s.steal() {
                    got += 1;
                    sum += v;
                }
            }
            let ns = t0.elapsed().as_nanos() as u64;
            stolen_sum.store(sum, Ordering::Release);
            (ns, attempts, got)
        });
        barrier.wait();
        let t0 = Instant::now();
        let mut sum = 0u64;
        let mut next = 0u64;
        while next < DEQUE_OPS {
            for _ in 0..DEQUE_BURST {
                w.push(next);
                next += 1;
            }
            while let Some(v) = w.pop() {
                sum += v;
            }
        }
        let owner_ns = t0.elapsed().as_nanos() as u64;
        stop.store(true, Ordering::Release);
        let (steal_ns, attempts, got) = thief.join().expect("thief thread panicked");
        eprintln!("deque: thief {got} steals of {attempts} attempts");
        (owner_ns, sum, steal_ns, attempts)
    });
    let total = popped_sum + stolen_sum.load(Ordering::Acquire);
    out.check(
        total == DEQUE_OPS * (DEQUE_OPS - 1) / 2,
        "Chase-Lev deque yielded every pushed item exactly once",
    );
    let now = Instant::now();
    let at = |ns: u64| now - Duration::from_nanos(ns);
    tr.record("deque.push_pop", at(owner_ns), now, 0, DEQUE_OPS);
    tr.record("deque.steal", at(steal_ns), now, 0, steals);
    out.push(
        "deque.push_pop_ns",
        owner_ns as f64 / DEQUE_OPS as f64,
        "ns",
    );
    out.push(
        "deque.steal_ns",
        steal_ns as f64 / steals.max(1) as f64,
        "ns",
    );

    for batch in [1usize, INJECTOR_BATCH] {
        let q = Injector::<u64>::new();
        let (ns, sum) = std::thread::scope(|scope| {
            let consumer = scope.spawn(|| {
                let mut got = 0u64;
                let mut sum = 0u64;
                while got < INJECTOR_ITEMS {
                    if let Some(v) = q.steal() {
                        got += 1;
                        sum += v;
                    } else {
                        std::hint::spin_loop();
                    }
                }
                sum
            });
            let mut staged = Vec::with_capacity(INJECTOR_BATCH);
            let t0 = Instant::now();
            let mut next = 0u64;
            while next < INJECTOR_ITEMS {
                if batch == 1 {
                    q.push(next);
                    next += 1;
                } else {
                    let end = (next + batch as u64).min(INJECTOR_ITEMS);
                    staged.extend(next..end);
                    q.push_batch(staged.drain(..));
                    next = end;
                }
            }
            let sum = consumer.join().expect("consumer thread panicked");
            (t0.elapsed().as_nanos() as u64, sum)
        });
        out.check(
            sum == INJECTOR_ITEMS * (INJECTOR_ITEMS - 1) / 2,
            "injector yielded every pushed item exactly once",
        );
        let name = if batch == 1 {
            "deque.injector_push_steal"
        } else {
            "deque.injector_push_batch"
        };
        let now = Instant::now();
        tr.record(name, now - Duration::from_nanos(ns), now, 0, INJECTOR_ITEMS);
        let metric = if batch == 1 {
            "deque.injector_push_steal_ns"
        } else {
            "deque.injector_push_batch_ns_per_item"
        };
        out.push(metric, ns as f64 / INJECTOR_ITEMS as f64, "ns");
    }
}

/// Framing, decoding, shape builds and standalone ingest over the
/// requests the serve-open segments generated.
pub fn drive_serve(state: &serve::State, tr: &mut Tracer, out: &mut LayerReport) {
    let reqs: Vec<serve::Request> = state.sent.iter().cycle().take(FRAMES).copied().collect();
    let spec = |r: &serve::Request| state.shapes[r.shape as usize];

    // Encode: one `frame_request` per request.
    let mut stream = Vec::with_capacity(FRAMES * 64);
    let mut bytes = Vec::with_capacity(64);
    let t = tr.enter("protocol.encode");
    for (i, r) in reqs.iter().enumerate() {
        frame_request(u64::from(r.tenant), &[(i as u64, spec(r))], &mut bytes);
        stream.extend_from_slice(&bytes);
    }
    tr.exit(t, FRAMES as u64);

    // Decode: the byte stream in 4 KiB reads through a `FrameReader`, each
    // frame's header and shape parsed back.
    let mut frames = FrameReader::new();
    let mut decoded = Vec::with_capacity(FRAMES);
    let t = tr.enter("protocol.decode");
    let mut bad = 0u64;
    for chunk in stream.chunks(4096) {
        frames.push_bytes(chunk);
        while let Ok(true) = frames.poll_frame() {
            let words = frames.words();
            match parse_request_header(words)
                .ok()
                .and_then(|(tenant, count)| {
                    let (shape, _) = ShapeSpec::decode(words.get(5..)?).ok()?;
                    Some((tenant, count, words[4], shape))
                }) {
                Some(d) => decoded.push(d),
                None => bad += 1,
            }
        }
    }
    tr.exit(t, FRAMES as u64);
    let round_trip = bad == 0
        && decoded.len() == FRAMES
        && decoded
            .iter()
            .zip(&reqs)
            .enumerate()
            .all(|(i, (d, r))| *d == (u64::from(r.tenant), 1, i as u64, spec(r)));
    out.check(round_trip, "request frames decode to what was encoded");
    let per = |tr: &Tracer, name: &str| tr.ns_per_unit(name).unwrap_or(0.0);
    out.push(
        "protocol.encode_ns_per_frame",
        per(tr, "protocol.encode"),
        "ns",
    );
    out.push(
        "protocol.decode_ns_per_frame",
        per(tr, "protocol.decode"),
        "ns",
    );

    // Shape builds into one recycled builder.
    let mut b = DagBuilder::new();
    let mut scratch = ShapeScratch::new();
    let mut nodes = 0u64;
    let mut sizes_ok = true;
    let t = tr.enter("workloads.shape_build");
    for i in 0..SHAPE_BUILDS {
        let shape = state.shapes[i % state.shapes.len()];
        let dag = shape.build_into(&mut b, &mut scratch);
        nodes += dag.num_nodes() as u64;
        sizes_ok &= dag.block_space() as u64 == shape.footprint();
        b.recycle(dag);
    }
    tr.exit(t, nodes);
    out.check(sizes_ok, "shape builds cover their declared footprint");
    out.push(
        "workloads.shape_build_ns_per_node",
        per(tr, "workloads.shape_build"),
        "ns",
    );

    let mut words_of: Vec<Vec<u64>> = Vec::with_capacity(INGEST_FRAMES);
    let mut frames = FrameReader::new();
    frames.push_bytes(&stream);
    while words_of.len() < INGEST_FRAMES && frames.poll_frame() == Ok(true) {
        words_of.push(frames.words().to_vec());
    }

    // Ingest on a standalone core, one frame at a time: each frame's
    // completion is drained and checked before the next frame, so the
    // executors are idle while `ingest_frame` runs.
    let core = ServerCore::new(serve::server_config());
    let (mut ingest, conn) = core.connection();
    let mut completions = Vec::new();
    let mut ingest_ok = true;
    for words in &words_of {
        let t = tr.enter("server.ingest");
        ingest_ok &= core.ingest_frame(&mut ingest, &conn, words).is_ok();
        tr.exit(t, 1);
        completions.clear();
        let deadline = Instant::now() + Duration::from_secs(20);
        while completions.is_empty() && Instant::now() < deadline {
            conn.drain_completions(&mut completions, Duration::from_millis(50));
        }
        ingest_ok &= completions.len() == 1
            && completions.iter().all(|c| {
                reqs.get(c.request_id as usize).is_some_and(|r| {
                    c.status == STATUS_OK
                        && (c.misses, c.deviations)
                            == state.expected[r.tenant as usize][r.shape as usize]
                })
            });
    }
    let report = core.shutdown(Duration::from_secs(20));
    out.check(
        ingest_ok && report.drained && report.hung_workers == 0,
        "standalone ingest completed every frame with the local result",
    );
    out.push(
        "server.ingest_us_per_frame",
        per(tr, "server.ingest") / 1e3,
        "us",
    );

    // Per-request simulation under the request's tenant, as an executor
    // runs it.
    let tenants = serve::tenants();
    let mut sims_ok = true;
    for r in reqs.iter().take(REQUEST_SIMS) {
        let t = tr.enter("core.request_sim");
        let got = serve::simulate(&tenants[r.tenant as usize], &spec(r));
        tr.exit(t, 1);
        sims_ok &= got == state.expected[r.tenant as usize][r.shape as usize];
    }
    out.check(sims_ok, "request simulations repeat their set-up results");
    out.push(
        "core.request_sim_us",
        per(tr, "core.request_sim") / 1e3,
        "us",
    );
}
