//! `sim-locality`: the paper-reproduction path (`workloads` → `core` →
//! `cache` → `analysis`) on the four ~10^5-block preset families.
//!
//! One operation is one pass over the families. Per family a pass runs
//! `analysis::capacity_sweep` at P ∈ {2, 8} × {ws-random, ws-half} (a
//! traced simulation and a stack-distance curve per pair) and untraced
//! `run_with_scratch` at P = 8, C ∈ {16, 4096}, each with its sequential
//! baseline. C = 16 is served by the scan LRU representation, C = 4096 by
//! the dense-indexed one. Everything runs on this one thread.
//!
//! Every pass is checked against results made at set-up apart from the
//! simulator's own accounting: the reference sequential order (checked
//! topological), an LRU written here ([`crate::oracle::LruOracle`])
//! replaying it, distinct blocks per processor counted from traced
//! reference runs, and the relations the method must satisfy.

use crate::oracle::LruOracle;
use crate::trace::Tracer;
use crate::{stats, LayerReport, Segment};
use std::time::{Duration, Instant};
use wsf_analysis::{capacity_sweep, parallel_curve, sequential_curve, PolicySpec};
use wsf_cache::{CachePolicy, CacheSim};
use wsf_core::{ExecutionReport, ForkPolicy, ParallelSimulator, SeqReport, SimConfig, SimScratch};
use wsf_dag::{Dag, NodeId};
use wsf_workloads::presets::{self, BlockScale};

const SWEEP_PROCS: [usize; 2] = [2, 8];
const SWEEP_SCHEDULERS: [PolicySpec; 2] = [PolicySpec::ws_random(), PolicySpec::ws_half()];
/// Simulations inside one `capacity_sweep` call: its sequential baseline
/// plus one traced run per (P, scheduler) pair.
const SWEEP_RUNS_PER_FAMILY: u64 = 1 + (SWEEP_PROCS.len() * SWEEP_SCHEDULERS.len()) as u64;
const UNTRACED_PROCS: usize = 8;
const UNTRACED_CAPACITIES: [usize; 2] = [16, 4096];
/// Capacities every curve is checked at: 2^0 … 2^20, plus the block space.
const CURVE_GRID_LOG2: u32 = 20;

/// Schedule figures of one `(P, scheduler)` capacity-sweep run, taken from
/// the traced reference run with the sweep's exact configuration.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct RunRef {
    deviations: u64,
    steals: u64,
    makespan: u64,
    /// Distinct blocks touched, summed per processor (the misses of an
    /// unbounded per-processor cache).
    distinct_per_proc: u64,
}

struct Family {
    name: &'static str,
    dag: Dag,
    /// Reference sequential (future-first) order, checked topological.
    seq_order: Vec<NodeId>,
    /// Oracle LRU misses replaying `seq_order` at C = 16 and C = 4096.
    oracle_misses: [u64; 2],
    distinct_seq: u64,
    runs: Vec<RunRef>,
}

pub struct State {
    families: Vec<Family>,
    seed: u64,
    scratch: SimScratch,
    nodes_per_pass: u64,
    /// Checks made at set-up that failed.
    setup_failed: u64,
}

impl State {
    /// Sum of `f` over every reference sweep run of every family.
    fn run_sum(&self, f: impl Fn(&RunRef) -> u64) -> u64 {
        self.families
            .iter()
            .flat_map(|fam| fam.runs.iter())
            .map(f)
            .sum()
    }
}

fn base_config() -> SimConfig {
    // The configuration `capacity_sweep` derives its runs from.
    SimConfig {
        fork_policy: ForkPolicy::FutureFirst,
        ..SimConfig::default()
    }
}

fn check(failed: &mut u64, ok: bool, what: impl FnOnce() -> String) {
    if !ok {
        *failed += 1;
        eprintln!("sim-locality check failed: {}", what());
    }
}

/// Whether `order` holds every node exactly once with every edge's source
/// before its target.
fn is_topological(dag: &Dag, order: &[NodeId]) -> bool {
    let n = dag.num_nodes();
    if order.len() != n {
        return false;
    }
    let mut pos = vec![usize::MAX; n];
    for (i, v) in order.iter().enumerate() {
        if v.index() >= n || pos[v.index()] != usize::MAX {
            return false;
        }
        pos[v.index()] = i;
    }
    (0..n).all(|u| {
        dag.successors(NodeId::from_index(u))
            .all(|e| pos[u] < pos[e.node.index()])
    })
}

fn block_trace<'a>(dag: &'a Dag, order: &'a [NodeId]) -> impl Iterator<Item = u32> + 'a {
    order.iter().filter_map(|&v| dag.block_of(v).map(|b| b.0))
}

fn distinct(blocks: impl Iterator<Item = u32>, seen: &mut Vec<bool>) -> u64 {
    seen.iter_mut().for_each(|s| *s = false);
    let mut count = 0;
    for b in blocks {
        let b = b as usize;
        if b >= seen.len() {
            seen.resize(b + 1, false);
        }
        if !seen[b] {
            seen[b] = true;
            count += 1;
        }
    }
    count
}

/// Checks that a traced run completed, executed each node exactly once,
/// and returns its distinct blocks summed per processor.
fn traced_run_distinct(dag: &Dag, rep: &ExecutionReport, failed: &mut u64, what: &str) -> u64 {
    let trace = rep.trace.as_deref().unwrap_or(&[]);
    let mut seen = vec![false; dag.num_nodes()];
    let once = trace.len() == dag.num_nodes()
        && trace
            .iter()
            .all(|ev| !std::mem::replace(&mut seen[ev.node.index()], true));
    check(failed, rep.completed && once, || {
        format!("{what}: traced run did not execute each node exactly once")
    });
    let mut marks = vec![false; dag.block_space()];
    (0..rep.per_proc.len())
        .map(|p| {
            distinct(
                trace
                    .iter()
                    .filter(|ev| ev.proc == p)
                    .filter_map(|ev| dag.block_of(ev.node).map(|b| b.0)),
                &mut marks,
            )
        })
        .sum()
}

fn curve_grid(block_space: usize) -> impl Iterator<Item = usize> {
    (0..=CURVE_GRID_LOG2)
        .map(|e| 1usize << e)
        .chain(std::iter::once(block_space.max(1)))
}

fn family_setup(
    name: &'static str,
    build: fn(BlockScale) -> Dag,
    scratch: &mut SimScratch,
    seed: u64,
    tr: &mut Tracer,
    failed: &mut u64,
) -> Family {
    let t = tr.enter("workloads.build");
    let dag = build(BlockScale::HundredK);
    tr.exit(t, dag.num_nodes() as u64);
    let n = dag.num_nodes() as u64;
    let bs = dag.block_space();

    let t = tr.enter("core.sequential");
    let seq = ParallelSimulator::new(base_config()).sequential(&dag);
    tr.exit(t, n);
    check(failed, is_topological(&dag, &seq.order), || {
        format!("{name}: sequential order is not a topological order")
    });

    let mut oracle_misses = [0u64; 2];
    for (slot, &c) in UNTRACED_CAPACITIES.iter().enumerate() {
        let mut oracle = LruOracle::new(c);
        block_trace(&dag, &seq.order).for_each(|b| {
            oracle.access(b);
        });
        oracle_misses[slot] = oracle.misses();
        let blocks: Vec<u32> = block_trace(&dag, &seq.order).collect();
        let mut cache = CacheSim::with_block_hint(CachePolicy::Lru, c, bs);
        let t = tr.enter(if c == 16 {
            "cache.lru.c16"
        } else {
            "cache.lru.c4096"
        });
        for &b in &blocks {
            cache.access(b);
        }
        tr.exit(t, blocks.len() as u64);
        check(failed, cache.misses() == oracle.misses(), || {
            format!(
                "{name}: CacheSim LRU at C={c} missed {} times, oracle {}",
                cache.misses(),
                oracle.misses()
            )
        });
    }
    let mut marks = vec![false; bs];
    let distinct_seq = distinct(block_trace(&dag, &seq.order), &mut marks);

    // One processor reproduces the sequential execution.
    let cfg1 = SimConfig::new(1, UNTRACED_CAPACITIES[0], ForkPolicy::FutureFirst).with_seed(seed);
    let sim1 = ParallelSimulator::new(cfg1);
    let seq1 = sim1.sequential(&dag);
    let mut sched = PolicySpec::ws_random().instantiate(seed);
    let rep1 = sim1.run_with_scratch(&dag, &seq1, &mut sched, false, scratch);
    check(
        failed,
        rep1.completed
            && rep1.steals() == 0
            && rep1.deviations() == 0
            && rep1.cache_misses() == oracle_misses[0],
        || {
            format!(
                "{name}: P=1 run has {} steals, {} deviations, {} misses (oracle {})",
                rep1.steals(),
                rep1.deviations(),
                rep1.cache_misses(),
                oracle_misses[0]
            )
        },
    );

    let t = tr.enter("cache.curve");
    let seq_curve = sequential_curve(&dag, &seq);
    tr.exit(t, n);
    check(failed, seq_curve.misses_at(bs) == distinct_seq, || {
        format!("{name}: sequential curve at C=block_space != distinct blocks")
    });

    // Traced reference runs with `capacity_sweep`'s exact configuration.
    let mut runs = Vec::new();
    for &p in &SWEEP_PROCS {
        for spec in SWEEP_SCHEDULERS {
            let cfg = SimConfig {
                processors: p,
                ..base_config()
            };
            let mut sched = spec.instantiate(cfg.seed);
            let t = tr.enter("core.run_traced");
            let rep =
                ParallelSimulator::new(cfg).run_with_scratch(&dag, &seq, &mut sched, true, scratch);
            tr.exit(t, n);
            let what = format!("{name} P={p} {spec}");
            let distinct_per_proc = traced_run_distinct(&dag, &rep, failed, &what);
            let t = tr.enter("cache.curve");
            let curve = parallel_curve(&dag, &rep);
            tr.exit(t, n);
            check(failed, curve.misses_at(bs) == distinct_per_proc, || {
                format!("{what}: curve at C=block_space != distinct blocks per processor")
            });
            runs.push(RunRef {
                deviations: rep.deviations(),
                steals: rep.steals(),
                makespan: rep.makespan,
                distinct_per_proc,
            });
        }
    }
    Family {
        name,
        dag,
        seq_order: seq.order,
        oracle_misses,
        distinct_seq,
        runs,
    }
}

pub fn setup(seed: u64, tr: &mut Tracer) -> State {
    let mut scratch = SimScratch::new();
    let mut setup_failed = 0;
    let families: Vec<Family> = presets::FAMILIES
        .iter()
        .map(|&(name, build)| family_setup(name, build, &mut scratch, seed, tr, &mut setup_failed))
        .collect();
    let nodes: u64 = families.iter().map(|f| f.dag.num_nodes() as u64).sum();
    // Node completions per pass: the sweep's sequential run and its four
    // parallel runs, plus two untraced sequential + parallel pairs.
    let per_family_runs = SWEEP_RUNS_PER_FAMILY + 2 * UNTRACED_CAPACITIES.len() as u64;
    let mut state = State {
        families,
        seed,
        scratch,
        nodes_per_pass: nodes * per_family_runs,
        setup_failed,
    };
    // Warm-up, sized by work: one checked pass.
    let mut off = Tracer::off();
    if !pass(&mut state, &mut off) {
        state.setup_failed += 1;
    }
    state
}

/// One pass over the families; returns whether every check held.
fn pass(state: &mut State, tr: &mut Tracer) -> bool {
    let mut failed = 0u64;
    let seed = state.seed;
    for fam in &state.families {
        let dag = &fam.dag;
        let n = dag.num_nodes() as u64;
        let bs = dag.block_space();

        let t = tr.enter("analysis.capacity_sweep");
        let sweep = capacity_sweep(
            dag,
            ForkPolicy::FutureFirst,
            &SWEEP_PROCS,
            &SWEEP_SCHEDULERS,
        );
        tr.exit(t, n * SWEEP_RUNS_PER_FAMILY);

        let t = tr.enter("bench.check");
        let seq_curve = &sweep.seq_curve;
        check(
            &mut failed,
            UNTRACED_CAPACITIES
                .iter()
                .zip(fam.oracle_misses)
                .all(|(&c, m)| seq_curve.misses_at(c) == m)
                && seq_curve.misses_at(bs) == fam.distinct_seq,
            || {
                format!(
                    "{}: sequential curve disagrees with the oracle LRU",
                    fam.name
                )
            },
        );
        check(&mut failed, sweep.runs.len() == fam.runs.len(), || {
            format!("{}: sweep returned {} runs", fam.name, sweep.runs.len())
        });
        let mut curves = vec![seq_curve];
        for (run, want) in sweep.runs.iter().zip(&fam.runs) {
            let got = RunRef {
                deviations: run.deviations,
                steals: run.steals,
                makespan: run.makespan,
                distinct_per_proc: run.curve.misses_at(bs),
            };
            check(&mut failed, got == *want, || {
                format!(
                    "{} P={} {}: sweep run {got:?} != reference {want:?}",
                    fam.name, run.processors, run.scheduler
                )
            });
            for c in curve_grid(bs) {
                let extra = run.additional_misses_at(seq_curve, c);
                check(&mut failed, extra <= c as u64 * run.deviations, || {
                    format!(
                        "{} P={} {}: {extra} additional misses > C·deviations at C={c}",
                        fam.name, run.processors, run.scheduler
                    )
                });
            }
            curves.push(&run.curve);
        }
        for curve in curves {
            let mut last = u64::MAX;
            for c in curve_grid(bs).take(CURVE_GRID_LOG2 as usize + 1) {
                let m = curve.misses_at(c);
                check(&mut failed, m <= last, || {
                    format!("{}: curve increases at C={c}", fam.name)
                });
                last = m;
            }
        }
        tr.exit(t, 0);

        for (slot, &c) in UNTRACED_CAPACITIES.iter().enumerate() {
            let cfg = SimConfig::new(UNTRACED_PROCS, c, ForkPolicy::FutureFirst).with_seed(seed);
            let sim = ParallelSimulator::new(cfg);
            let t = tr.enter("core.sequential");
            let seq: SeqReport = sim.sequential(dag);
            tr.exit(t, n);
            let mut sched = PolicySpec::ws_random().instantiate(seed);
            let t = tr.enter(if c == 16 {
                "core.run.c16"
            } else {
                "core.run.c4096"
            });
            let rep = sim.run_with_scratch(dag, &seq, &mut sched, false, &mut state.scratch);
            tr.exit(t, n);
            let t = tr.enter("bench.check");
            check(
                &mut failed,
                seq.order == fam.seq_order && seq.cache_misses() == fam.oracle_misses[slot],
                || {
                    format!(
                        "{} C={c}: sequential baseline disagrees with the reference",
                        fam.name
                    )
                },
            );
            check(&mut failed, rep.completed && rep.executed() == n, || {
                format!(
                    "{} C={c}: run executed {} of {n} nodes",
                    fam.name,
                    rep.executed()
                )
            });
            let extra = rep.additional_misses(&seq);
            check(&mut failed, extra <= c as u64 * rep.deviations(), || {
                format!(
                    "{} C={c}: {extra} additional misses > C·deviations",
                    fam.name
                )
            });
            tr.exit(t, 0);
        }
    }
    failed == 0
}

pub fn measure(state: &mut State, window: Duration, tr: &mut Tracer) -> Segment {
    let mut seg = Segment::default();
    let start = Instant::now();
    while seg.attempted == 0 || start.elapsed() < window {
        tr.set_op(seg.attempted);
        let t0 = Instant::now();
        let t = tr.enter("sim.pass");
        let ok = pass(state, tr);
        tr.exit(t, state.nodes_per_pass);
        seg.op_us.push(t0.elapsed().as_secs_f64() * 1e6);
        seg.attempted += 1;
        seg.failed += u64::from(!ok);
    }
    let p50_s = stats::median(&seg.op_us) / 1e6;
    seg.work_per_s = state.nodes_per_pass as f64 / p50_s;
    seg.failed += state.setup_failed;
    state.setup_failed = 0;
    seg
}

pub fn layer_metrics(state: &State, tr: &Tracer, out: &mut LayerReport) {
    let per = |name: &str| tr.ns_per_unit(name).unwrap_or(0.0);
    out.push("workloads.build_ns_per_node", per("workloads.build"), "ns");
    out.push("core.seq_ns_per_node", per("core.sequential"), "ns");
    out.push("core.sim_ns_per_node.c16", per("core.run.c16"), "ns");
    out.push("core.sim_ns_per_node.c4096", per("core.run.c4096"), "ns");
    out.push("core.sim_traced_ns_per_node", per("core.run_traced"), "ns");
    out.push("cache.curve_ns_per_access", per("cache.curve"), "ns");
    out.push("cache.lru_ns_per_access.c16", per("cache.lru.c16"), "ns");
    out.push(
        "cache.lru_ns_per_access.c4096",
        per("cache.lru.c4096"),
        "ns",
    );
    let sweeps = tr.durations_us("analysis.capacity_sweep");
    out.push(
        "analysis.capacity_sweep_ms",
        sweeps.iter().sum::<f64>() / 1e3 / sweeps.len().max(1) as f64,
        "ms",
    );
    out.push(
        "core.deviations",
        state.run_sum(|r| r.deviations) as f64,
        "count",
    );
    out.push("core.steals", state.run_sum(|r| r.steals) as f64, "count");
    out.push(
        "core.makespan_steps",
        state.run_sum(|r| r.makespan) as f64,
        "count",
    );
    out.push(
        "cache.seq_misses.c16",
        state
            .families
            .iter()
            .map(|f| f.oracle_misses[0])
            .sum::<u64>() as f64,
        "count",
    );
}
