//! `sort-child-first` and `sort-helper-first`: the real `deque`/`runtime`
//! path. One operation sorts one 2^17-element `u64` input twice: with
//! `runtime_apps::merge_sort` (grain 1024) on a 2-worker `Runtime` of the
//! workload's `SpawnPolicy`, and with the benchmark's own copy of the same
//! divide-and-conquer merge sort, run with the parallelism the policy is
//! meant to deliver (see [`reference_for`]). The pool sort is one pool
//! task; the calling thread blocks on its touch, so its recursion runs on
//! the pool's workers and nowhere else. The two sorts run back to back, in
//! alternating order, so that the pool's speed relative to the reference
//! compares them under the same machine conditions. Both outputs are
//! checked against `sort_unstable` results made at set-up.

use crate::trace::Tracer;
use crate::{stats, LayerReport, Segment};
use std::sync::Arc;
use std::time::{Duration, Instant};
use wsf_runtime::{Runtime, RuntimeStats, SpawnPolicy, WorkerStats};
use wsf_workloads::runtime_apps::merge_sort;

const WORKERS: usize = 2;
const LEN: usize = 1 << 17;
const GRAIN: usize = 1024;
/// Distinct inputs per run, cycled by the operations.
const INPUTS: usize = 4;
/// Warm-up operations at set-up.
const WARMUP_OPS: usize = 16;

/// Per-policy counter deltas accumulated over the measured sorts.
#[derive(Default)]
pub struct PolicyTally {
    pub sorts: u64,
    pub stats: RuntimeStats,
    pub worker_tasks: Vec<u64>,
}

pub struct Pool {
    pub policy: SpawnPolicy,
    pub rt: Arc<Runtime>,
    pub tally: PolicyTally,
}

pub struct State {
    inputs: Vec<Vec<u64>>,
    sorted: Vec<Vec<u64>>,
    pub pool: Pool,
    next_input: usize,
    /// Operations run so far; its parity picks which sort goes first.
    ops: u64,
    setup_failed: u64,
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn span_name(policy: SpawnPolicy) -> &'static str {
    match policy {
        SpawnPolicy::ChildFirst => "runtime.sort.child-first",
        SpawnPolicy::HelperFirst => "runtime.sort.helper-first",
    }
}

/// The reference sort's span in the workload of `policy`.
fn reference_span_name(policy: SpawnPolicy) -> &'static str {
    match policy {
        SpawnPolicy::ChildFirst => "bench.reference_sort.child-first",
        SpawnPolicy::HelperFirst => "bench.reference_sort.helper-first",
    }
}

/// The sequential reference: the divide-and-conquer merge sort of
/// `runtime_apps::merge_sort` (same split, grain, leaf sort and merge),
/// written here so that it shares no code with the program.
pub fn reference_sort(mut data: Vec<u64>, grain: usize) -> Vec<u64> {
    if data.len() <= grain.max(1) {
        data.sort_unstable();
        return data;
    }
    let right = data.split_off(data.len() / 2);
    let left = reference_sort(data, grain);
    let right = reference_sort(right, grain);
    merge(&left, &right)
}

/// The two-thread reference: [`reference_sort`] split once, its left half
/// on a scoped thread of its own and its right half on the calling thread,
/// then merged on the calling thread.
pub fn split_reference_sort(mut data: Vec<u64>, grain: usize) -> Vec<u64> {
    if data.len() <= grain.max(1) {
        return reference_sort(data, grain);
    }
    let right = data.split_off(data.len() / 2);
    let (left, right) = std::thread::scope(|s| {
        let left = s.spawn(|| reference_sort(data, grain));
        let right = reference_sort(right, grain);
        (left.join().expect("reference thread panicked"), right)
    });
    merge(&left, &right)
}

/// The reference for the workload of `policy`. Child-first runs every
/// future inline on one worker, so its yardstick is the sequential sort;
/// helper-first offers every future to the idle worker, so its yardstick
/// is the same sort split once across two threads. Each reference then
/// needs the machine's vCPUs as its pool sort does, and a busy host slows
/// both alike.
pub fn reference_for(policy: SpawnPolicy) -> fn(Vec<u64>, usize) -> Vec<u64> {
    match policy {
        SpawnPolicy::ChildFirst => reference_sort,
        SpawnPolicy::HelperFirst => split_reference_sort,
    }
}

fn merge(left: &[u64], right: &[u64]) -> Vec<u64> {
    let mut out = Vec::with_capacity(left.len() + right.len());
    let (mut i, mut j) = (0, 0);
    while i < left.len() && j < right.len() {
        if left[i] <= right[j] {
            out.push(left[i]);
            i += 1;
        } else {
            out.push(right[j]);
            j += 1;
        }
    }
    out.extend_from_slice(&left[i..]);
    out.extend_from_slice(&right[j..]);
    out
}

pub fn setup(policy: SpawnPolicy, seed: u64, tr: &mut Tracer) -> State {
    let mut rng = seed ^ 0x5047_4f4f_4c53_4f52;
    let inputs: Vec<Vec<u64>> = (0..INPUTS)
        .map(|_| (0..LEN).map(|_| splitmix64(&mut rng)).collect())
        .collect();
    let sorted = inputs
        .iter()
        .map(|v| {
            let mut s = v.clone();
            s.sort_unstable();
            s
        })
        .collect();
    let pool = Pool {
        policy,
        rt: Arc::new(Runtime::builder().threads(WORKERS).policy(policy).build()),
        tally: PolicyTally::default(),
    };
    let mut state = State {
        inputs,
        sorted,
        pool,
        next_input: 0,
        ops: 0,
        setup_failed: 0,
    };
    for _ in 0..WARMUP_OPS {
        let (ok, _, _) = op(&mut state, tr, false);
        state.setup_failed += u64::from(!ok);
    }
    state
}

/// One timed reference sort of a copy of `input` for the workload of
/// `policy`.
fn reference(input: &[u64], policy: SpawnPolicy, tr: &mut Tracer) -> (Vec<u64>, Duration) {
    let data = input.to_vec();
    let t = tr.enter(reference_span_name(policy));
    let t0 = Instant::now();
    let out = reference_for(policy)(data, GRAIN);
    let spent = t0.elapsed();
    tr.exit(t, LEN as u64);
    (out, spent)
}

fn worker_tasks(ws: &[WorkerStats]) -> Vec<u64> {
    ws.iter().map(|w| w.tasks_executed).collect()
}

/// Sorts the next input on the pool and with the reference; returns
/// whether both outputs were right and both sorts' times.
fn op(state: &mut State, tr: &mut Tracer, count: bool) -> (bool, Duration, Duration) {
    let i = state.next_input;
    state.next_input = (i + 1) % INPUTS;
    let reference_first = state.ops.is_multiple_of(2);
    state.ops += 1;
    let policy = state.pool.policy;
    let ref_first = reference_first.then(|| reference(&state.inputs[i], policy, tr));
    let pool = &mut state.pool;
    let data = state.inputs[i].clone();
    let rt = Arc::clone(&pool.rt);
    let before = pool.rt.stats();
    let wbefore = worker_tasks(&pool.rt.worker_stats());
    let t = tr.enter(span_name(pool.policy));
    let t0 = Instant::now();
    let out = pool
        .rt
        .defer_future(move || merge_sort(&rt, data, GRAIN))
        .touch();
    let pool_spent = t0.elapsed();
    tr.exit(t, LEN as u64);
    let (ref_out, ref_spent) = ref_first.unwrap_or_else(|| reference(&state.inputs[i], policy, tr));
    if count {
        let delta = pool.rt.stats().since(&before);
        pool.tally.stats.accumulate(&delta);
        pool.tally.sorts += 1;
        let wafter = worker_tasks(&pool.rt.worker_stats());
        pool.tally.worker_tasks.resize(wafter.len(), 0);
        for (acc, (a, b)) in pool
            .tally
            .worker_tasks
            .iter_mut()
            .zip(wafter.iter().zip(&wbefore))
        {
            *acc += a - b;
        }
    }
    let t = tr.enter("bench.check");
    let mut ok = true;
    if out != state.sorted[i] {
        ok = false;
        eprintln!(
            "sort check failed: {} pool output differs from sort_unstable",
            pool.policy
        );
    }
    if ref_out != state.sorted[i] {
        ok = false;
        eprintln!("sort check failed: reference output differs from sort_unstable");
    }
    tr.exit(t, 0);
    (ok, pool_spent, ref_spent)
}

pub fn measure(state: &mut State, window: Duration, tr: &mut Tracer) -> Segment {
    let mut seg = Segment::default();
    let start = Instant::now();
    let mut pool_s = 0.0;
    let mut ref_s = 0.0;
    while seg.attempted == 0 || start.elapsed() < window {
        tr.set_op(seg.attempted);
        let (ok, pool_spent, ref_spent) = op(state, tr, true);
        seg.op_us.push(pool_spent.as_secs_f64() * 1e6);
        pool_s += pool_spent.as_secs_f64();
        ref_s += ref_spent.as_secs_f64();
        seg.attempted += 1;
        seg.failed += u64::from(!ok);
    }
    seg.relative_speed = Some(ref_s / pool_s);
    seg.work_per_s = LEN as f64 / (stats::median(&seg.op_us) / 1e6);
    seg.failed += state.setup_failed;
    state.setup_failed = 0;
    seg
}

/// Shuts the runtime down; returns whether every worker exited.
pub fn teardown(state: State) -> bool {
    match Arc::try_unwrap(state.pool.rt) {
        Ok(rt) => rt.shutdown_timeout(Duration::from_secs(10)).is_ok(),
        Err(_) => false,
    }
}

pub fn layer_metrics(state: &State, tr: &Tracer, out: &mut LayerReport) {
    let policy = state.pool.policy;
    out.push(
        format!("bench.reference_sort_us.{}", policy.label()),
        stats::median(&tr.durations_us(reference_span_name(policy))),
        "us",
    );
    let pool = &state.pool;
    let label = pool.policy.label();
    let t = &pool.tally;
    let per_op = |v: u64| v as f64 / t.sorts.max(1) as f64;
    let sort_us = stats::median(&tr.durations_us(span_name(pool.policy)));
    out.push(format!("runtime.sort_us.{label}"), sort_us, "us");
    out.push(
        format!("runtime.steals_per_op.{label}"),
        per_op(t.stats.steals),
        "count",
    );
    out.push(
        format!("runtime.failed_steals_per_op.{label}"),
        per_op(t.stats.failed_steals),
        "count",
    );
    out.push(
        format!("runtime.inline_runs_per_op.{label}"),
        per_op(t.stats.inline_runs),
        "count",
    );
    out.push(
        format!("runtime.helped_tasks_per_op.{label}"),
        per_op(t.stats.helped_tasks),
        "count",
    );
    out.push(
        format!("runtime.wakeups_per_op.{label}"),
        per_op(t.stats.wakeups),
        "count",
    );
    let attempts = t.stats.steals + t.stats.failed_steals;
    out.push(
        format!("runtime.steal_success_ratio.{label}"),
        if attempts == 0 {
            0.0
        } else {
            t.stats.steals as f64 / attempts as f64
        },
        "ratio",
    );
    out.push(
        format!("runtime.steal_attempts_per_op.{label}"),
        per_op(attempts),
        "count",
    );
    let total: u64 = t.worker_tasks.iter().sum();
    let max = t.worker_tasks.iter().copied().max().unwrap_or(0);
    out.push(
        format!("runtime.max_worker_task_share.{label}"),
        if total == 0 {
            0.0
        } else {
            max as f64 / total as f64
        },
        "ratio",
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn references_match_sort_unstable() {
        let mut rng = 7;
        for policy in SpawnPolicy::ALL {
            for len in [0, 1, 2, 3, 63, 64, 65, 1000, 4097] {
                for grain in [1, 4, 64] {
                    let data: Vec<u64> = (0..len).map(|_| splitmix64(&mut rng) % 50).collect();
                    let mut want = data.clone();
                    want.sort_unstable();
                    assert_eq!(
                        reference_for(policy)(data, grain),
                        want,
                        "{policy}, len {len}, grain {grain}"
                    );
                }
            }
        }
    }
}
