//! In-memory span recorder for traced runs.
//!
//! A span has a name, a start and an end (nanoseconds since the recorder
//! was created), its parent span, the operation it belongs to (one pass,
//! sort or request) and a count of work units (nodes, accesses, frames) so
//! per-unit costs can be taken from it. A disabled recorder records
//! nothing and never reads the clock. Spans are written out as TSV when
//! the run ends, with each span's self time (its duration minus the part
//! its children cover).

use std::io::Write;
use std::time::Instant;

const NO_PARENT: u32 = u32::MAX;

#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: u32,
    pub op: u64,
    pub units: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Handle of an open span; pass it back to [`Tracer::exit`].
#[must_use]
pub struct Open(u32);

pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<u32>,
    op: u64,
    op_base: u64,
}

impl Tracer {
    pub fn on() -> Tracer {
        Tracer {
            enabled: true,
            epoch: Instant::now(),
            spans: Vec::with_capacity(1 << 16),
            stack: Vec::new(),
            op: 0,
            op_base: 0,
        }
    }

    pub fn off() -> Tracer {
        Tracer {
            enabled: false,
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            op: 0,
            op_base: 0,
        }
    }

    /// Nanoseconds since the recorder's epoch for an instant.
    pub fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Sets the operation id shared by the spans that follow.
    pub fn set_op(&mut self, op: u64) {
        self.op = self.op_base + op;
    }

    /// Starts a fresh range of operation ids, so a later segment's ids do
    /// not collide with an earlier one's.
    pub fn new_op_group(&mut self) {
        self.op_base += 1 << 32;
        self.op = self.op_base;
    }

    pub fn enter(&mut self, name: &'static str) -> Open {
        if !self.enabled {
            return Open(NO_PARENT);
        }
        let parent = self.stack.last().copied().unwrap_or(NO_PARENT);
        let idx = self.spans.len() as u32;
        let start_ns = self.ns(Instant::now());
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            op: self.op,
            units: 0,
        });
        self.stack.push(idx);
        Open(idx)
    }

    pub fn exit(&mut self, open: Open, units: u64) {
        if !self.enabled {
            return;
        }
        let end_ns = self.ns(Instant::now());
        let top = self.stack.pop();
        debug_assert_eq!(top, Some(open.0), "spans must close innermost first");
        let span = &mut self.spans[open.0 as usize];
        span.end_ns = end_ns;
        span.units = units;
    }

    /// Records a span measured elsewhere (another thread, or a wait whose
    /// start is a due time rather than a call), parented to the open span.
    pub fn record(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        op: u64,
        units: u64,
    ) {
        if !self.enabled {
            return;
        }
        let parent = self.stack.last().copied().unwrap_or(NO_PARENT);
        self.spans.push(Span {
            name,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            parent,
            op: self.op_base + op,
            units,
        });
    }

    /// Moves another recorder's spans (same epoch required) into this one.
    pub fn absorb(&mut self, other: Tracer) {
        if !self.enabled {
            return;
        }
        let base = self.spans.len() as u32;
        for mut s in other.spans {
            if s.parent != NO_PARENT {
                s.parent += base;
            }
            self.spans.push(s);
        }
    }

    /// A child recorder for another thread, sharing this one's epoch and
    /// operation range.
    pub fn fork(&self) -> Tracer {
        Tracer {
            enabled: self.enabled,
            epoch: self.epoch,
            spans: Vec::with_capacity(if self.enabled { 1 << 16 } else { 0 }),
            stack: Vec::new(),
            op: self.op_base,
            op_base: self.op_base,
        }
    }

    /// Spans of one name.
    pub fn named<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a Span> + 'a {
        self.spans.iter().filter(move |s| s.name == name)
    }

    /// Total nanoseconds per unit over every span of one name (`None`
    /// when no span of that name recorded a unit).
    pub fn ns_per_unit(&self, name: &str) -> Option<f64> {
        let (ns, units) = self
            .named(name)
            .fold((0u64, 0u64), |(n, u), s| (n + s.duration_ns(), u + s.units));
        (units > 0).then(|| ns as f64 / units as f64)
    }

    /// Durations in microseconds of every span of one name.
    pub fn durations_us(&self, name: &str) -> Vec<f64> {
        self.named(name)
            .map(|s| s.duration_ns() as f64 / 1e3)
            .collect()
    }

    /// Self time of each span: its duration minus the union of its
    /// children's intervals.
    pub fn self_times_ns(&self) -> Vec<u64> {
        let mut children: Vec<Vec<u32>> = vec![Vec::new(); self.spans.len()];
        for (i, s) in self.spans.iter().enumerate() {
            if s.parent != NO_PARENT {
                children[s.parent as usize].push(i as u32);
            }
        }
        self.spans
            .iter()
            .enumerate()
            .map(|(i, s)| {
                let mut iv: Vec<(u64, u64)> = children[i]
                    .iter()
                    .map(|&c| {
                        let c = &self.spans[c as usize];
                        (c.start_ns.max(s.start_ns), c.end_ns.min(s.end_ns))
                    })
                    .filter(|(a, b)| b > a)
                    .collect();
                iv.sort_unstable();
                let mut covered = 0u64;
                let mut cur: Option<(u64, u64)> = None;
                for (a, b) in iv {
                    match cur {
                        Some((ca, cb)) if a <= cb => cur = Some((ca, cb.max(b))),
                        Some((ca, cb)) => {
                            covered += cb - ca;
                            cur = Some((a, b));
                        }
                        None => cur = Some((a, b)),
                    }
                }
                if let Some((ca, cb)) = cur {
                    covered += cb - ca;
                }
                s.duration_ns().saturating_sub(covered)
            })
            .collect()
    }

    /// Writes every span to `.bench_trace/<workload>-seed<seed>.tsv`
    /// under the working directory.
    pub fn write_out(&self, workload: &str, seed: u64) -> std::io::Result<()> {
        let dir = std::path::Path::new(".bench_trace");
        std::fs::create_dir_all(dir)?;
        let path = dir.join(format!("{workload}-seed{seed}.tsv"));
        let mut out = std::io::BufWriter::new(std::fs::File::create(&path)?);
        writeln!(
            out,
            "id\tname\tstart_ns\tend_ns\tself_ns\tparent\top\tunits"
        )?;
        for (i, (s, self_ns)) in self.spans.iter().zip(self.self_times_ns()).enumerate() {
            let parent = if s.parent == NO_PARENT {
                String::from("-")
            } else {
                s.parent.to_string()
            };
            writeln!(
                out,
                "{i}\t{}\t{}\t{}\t{self_ns}\t{parent}\t{}\t{}",
                s.name, s.start_ns, s.end_ns, s.op, s.units
            )?;
        }
        out.flush()?;
        eprintln!("wrote {} spans to {}", self.spans.len(), path.display());
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let mut t = Tracer::on();
        t.spans = vec![
            Span {
                name: "p",
                start_ns: 0,
                end_ns: 100,
                parent: NO_PARENT,
                op: 0,
                units: 0,
            },
            Span {
                name: "a",
                start_ns: 10,
                end_ns: 40,
                parent: 0,
                op: 0,
                units: 0,
            },
            Span {
                name: "b",
                start_ns: 30,
                end_ns: 50,
                parent: 0,
                op: 0,
                units: 0,
            },
            Span {
                name: "c",
                start_ns: 90,
                end_ns: 120,
                parent: 0,
                op: 0,
                units: 0,
            },
        ];
        // Children cover 10..50 and 90..100: 50 ns of the parent's 100.
        assert_eq!(t.self_times_ns(), vec![50, 30, 20, 30]);
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        let mut t = Tracer::off();
        let o = t.enter("x");
        t.exit(o, 5);
        assert!(t.spans.is_empty());
    }
}
