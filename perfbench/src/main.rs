//! Benchmark of the wsf workspace: one process per workload run.
//!
//! ```text
//! wsf-perfbench --workload <sim-locality|sort-child-first|sort-helper-first|serve-open> \
//!               --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`. With `--trace 0` the
//! metrics are the end-to-end ones (`setup_s`, `relative_speed` and
//! `peak_rss_mb` for the sort workloads; `setup_s`, `work_per_s`, `p50_us`
//! and `peak_rss_mb` for the others); with `--trace 1` they are the
//! per-layer ones, taken from spans recorded around the benchmark's own
//! calls into each crate (see `README.md` for the layer → end-to-end map).
//! Progress and diagnostics go to standard error.

mod layers;
mod oracle;
mod pool;
mod schedule;
mod serve;
mod sim;
mod stats;
mod trace;

use std::time::{Duration, Instant};
use trace::Tracer;
use wsf_runtime::SpawnPolicy;

/// Set-up repetitions per run; `setup_s` is their median.
const SETUP_REPS: usize = 3;

/// Share of a traced run's window spent on each of its two e2e segments
/// (untraced, then traced); the rest goes to the other workloads' traced
/// samples and the direct layer drives.
const TRACE_SEGMENT_SHARE: f64 = 0.3;

/// One workload's command-line selection.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
enum Workload {
    SimLocality,
    SortChildFirst,
    SortHelperFirst,
    ServeOpen,
}

impl Workload {
    const ALL: [Workload; 4] = [
        Workload::SimLocality,
        Workload::SortChildFirst,
        Workload::SortHelperFirst,
        Workload::ServeOpen,
    ];

    fn name(self) -> &'static str {
        match self {
            Workload::SimLocality => "sim-locality",
            Workload::SortChildFirst => "sort-child-first",
            Workload::SortHelperFirst => "sort-helper-first",
            Workload::ServeOpen => "serve-open",
        }
    }

    fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                seconds = Some(s)
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

/// What one measured segment of a workload produced.
#[derive(Default)]
pub struct Segment {
    /// Operations attempted and failed (a failed check fails its operation).
    pub attempted: u64,
    pub failed: u64,
    /// Work units completed per second, as `work_per_s` reports them.
    pub work_per_s: f64,
    /// Operation times, in microseconds.
    pub op_us: Vec<f64>,
    /// Total reference sort time over total pool sort time (sort
    /// workloads only).
    pub relative_speed: Option<f64>,
}

/// A metric line of the result object.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
        Metric {
            name: name.into(),
            value,
            unit,
        }
    }
}

/// The per-layer metrics of a traced run, plus the checks it made.
#[derive(Default)]
pub struct LayerReport {
    pub metrics: Vec<Metric>,
    pub attempted: u64,
    pub failed: u64,
}

impl LayerReport {
    pub fn push(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push(Metric::new(name, value, unit));
    }

    /// Records one checked outcome of a traced sample or a direct drive.
    pub fn check(&mut self, ok: bool, what: &str) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("check failed: {what}");
        }
    }
}

/// Sets the workload up [`SETUP_REPS`] times, tearing each earlier state
/// down untimed, and returns the last state, the median set-up time and
/// whether every earlier state shut down cleanly. The first repetition is
/// timed from process start.
fn repeated_setup(
    process_start: Instant,
    workload: Workload,
    seed: u64,
) -> (WorkloadState, f64, bool) {
    let mut times = Vec::with_capacity(SETUP_REPS);
    let mut clean = true;
    let mut off = Tracer::off();
    let mut t0 = process_start;
    let mut state = setup(workload, seed, &mut off);
    times.push(t0.elapsed().as_secs_f64());
    for _ in 1..SETUP_REPS {
        clean &= finish(state);
        t0 = Instant::now();
        state = setup(workload, seed, &mut off);
        times.push(t0.elapsed().as_secs_f64());
    }
    eprintln!("setup times (s): {times:?}");
    (state, stats::median(&times), clean)
}

/// The machine's steal time and total CPU time so far, in clock ticks,
/// from the `cpu` line of `/proc/stat`.
fn cpu_ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let fields: Vec<u64> = stat
        .lines()
        .next()?
        .strip_prefix("cpu ")?
        .split_whitespace()
        .map(|f| f.parse().ok())
        .collect::<Option<_>>()?;
    Some((*fields.get(7)?, fields.iter().sum()))
}

/// Peak resident set size of this process in MB (`VmHWM`).
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Runs one workload's measured segment for `window`.
fn measure(state: &mut WorkloadState, window: Duration, tr: &mut Tracer) -> Segment {
    match state {
        WorkloadState::Sim(s) => sim::measure(s, window, tr),
        WorkloadState::Pool(s) => pool::measure(s, window, tr),
        WorkloadState::Serve(s) => serve::measure(s, window, tr),
    }
}

enum WorkloadState {
    Sim(sim::State),
    Pool(pool::State),
    Serve(serve::State),
}

fn setup(workload: Workload, seed: u64, tr: &mut Tracer) -> WorkloadState {
    match workload {
        Workload::SimLocality => WorkloadState::Sim(sim::setup(seed, tr)),
        Workload::SortChildFirst => {
            WorkloadState::Pool(pool::setup(SpawnPolicy::ChildFirst, seed, tr))
        }
        Workload::SortHelperFirst => {
            WorkloadState::Pool(pool::setup(SpawnPolicy::HelperFirst, seed, tr))
        }
        Workload::ServeOpen => WorkloadState::Serve(serve::setup(seed, tr)),
    }
}

fn finish(state: WorkloadState) -> bool {
    match state {
        WorkloadState::Sim(_) => true,
        WorkloadState::Pool(s) => pool::teardown(s),
        WorkloadState::Serve(s) => serve::teardown(s),
    }
}

fn print_result(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            assert!(m.value.is_finite(), "metric {} is not finite", m.name);
            format!(
                "\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        attempted.max(1),
        body.join(", ")
    );
}

fn run_untraced(args: &Args, process_start: Instant) {
    let mut tr = Tracer::off();
    let (mut state, setup_s, setups_clean) =
        repeated_setup(process_start, args.workload, args.seed);
    let ticks_before = cpu_ticks();
    let seg = measure(&mut state, Duration::from_secs_f64(args.seconds), &mut tr);
    if let (Some((s0, t0)), Some((s1, t1))) = (ticks_before, cpu_ticks()) {
        eprintln!(
            "machine steal time during the window: {:.2} % of CPU time",
            100.0 * (s1 - s0) as f64 / (t1 - t0).max(1) as f64
        );
    }
    let clean = finish(state) && setups_clean;
    let metrics = match seg.relative_speed {
        None => vec![
            Metric::new("setup_s", setup_s, "s"),
            Metric::new("work_per_s", seg.work_per_s, "1/s"),
            Metric::new("p50_us", stats::median(&seg.op_us), "us"),
            Metric::new("peak_rss_mb", peak_rss_mb(), "MB"),
        ],
        Some(relative_speed) => {
            eprintln!(
                "{}: {:.0} elements/s on the pool",
                args.workload.name(),
                seg.work_per_s
            );
            vec![
                Metric::new("setup_s", setup_s, "s"),
                Metric::new("relative_speed", relative_speed, "x"),
                Metric::new("peak_rss_mb", peak_rss_mb(), "MB"),
            ]
        }
    };
    eprintln!(
        "{}: {} ops, p50 {:.1} us, p90 {:.1} us, p99 {:.1} us, max {:.1} us",
        args.workload.name(),
        seg.op_us.len(),
        stats::median(&seg.op_us),
        stats::quantile(&seg.op_us, 0.9),
        stats::quantile(&seg.op_us, 0.99),
        seg.op_us.iter().cloned().fold(0.0, f64::max)
    );
    if !clean {
        eprintln!("{}: did not shut down cleanly", args.workload.name());
    }
    print_result(
        seg.failed == 0 && clean,
        seg.attempted,
        seg.failed,
        &metrics,
    );
}

/// Traced run: the named workload untraced, then traced (their medians
/// give the tracing overhead), then a short traced sample of each other
/// workload, then the direct layer drives; every per-layer metric comes
/// out of every traced run.
fn run_traced(args: &Args) {
    let window = args.seconds;
    let mut report = LayerReport::default();
    let mut tr = Tracer::on();
    let mut overhead = 1.0;
    for w in Workload::ALL {
        let own = w == args.workload;
        let mut off = Tracer::off();
        let mut state = setup(w, args.seed, &mut tr);
        let share = if own {
            TRACE_SEGMENT_SHARE
        } else {
            (1.0 - 2.0 * TRACE_SEGMENT_SHARE) / 4.0
        };
        let seg_window = Duration::from_secs_f64(window * share);
        let untraced_p50 = if own {
            let seg = measure(&mut state, seg_window, &mut off);
            report.attempted += seg.attempted;
            report.failed += seg.failed;
            Some(stats::median(&seg.op_us))
        } else {
            None
        };
        tr.new_op_group();
        let seg = measure(&mut state, seg_window, &mut tr);
        report.attempted += seg.attempted;
        report.failed += seg.failed;
        if let Some(base) = untraced_p50 {
            overhead = stats::median(&seg.op_us) / base;
            eprintln!(
                "{}: tracing overhead: traced p50 {:.1} us / untraced p50 {:.1} us = {:.4}",
                w.name(),
                stats::median(&seg.op_us),
                base,
                overhead
            );
        }
        match &state {
            WorkloadState::Sim(s) => sim::layer_metrics(s, &tr, &mut report),
            WorkloadState::Pool(s) => pool::layer_metrics(s, &tr, &mut report),
            WorkloadState::Serve(s) => serve::layer_metrics(s, &tr, &mut report),
        }
        match &state {
            WorkloadState::Sim(_) => {}
            WorkloadState::Pool(s) => layers::drive_pool(s, &mut tr, &mut report),
            WorkloadState::Serve(s) => layers::drive_serve(s, &mut tr, &mut report),
        }
        let clean = finish(state);
        report.check(clean, &format!("{} shut down cleanly", w.name()));
    }
    layers::drive_deques(&mut tr, &mut report);
    report.push("trace.overhead_ratio", overhead, "ratio");
    if let Err(e) = tr.write_out(args.workload.name(), args.seed) {
        eprintln!("could not write spans: {e}");
    }
    print_result(
        report.failed == 0,
        report.attempted,
        report.failed,
        &report.metrics,
    );
}

fn main() {
    let process_start = Instant::now();
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: wsf-perfbench --workload \
                 <sim-locality|sort-child-first|sort-helper-first|serve-open> \
                 --seed <n> --seconds <s> --trace <0|1>"
            );
            std::process::exit(2);
        }
    };
    if args.trace {
        run_traced(&args);
    } else {
        run_untraced(&args, process_start);
    }
}
