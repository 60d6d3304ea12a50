//! Due-time arithmetic of the open-loop generator.
//!
//! Request `i` of a segment is due `i · 10^9 / rate` nanoseconds after the
//! segment starts, computed from the index rather than by adding a rounded
//! period, so the schedule does not drift over a long run. A request's
//! latency runs from its due time, not from when it was actually sent, so
//! a stalled generator's lateness is charged to every request it delays.

use std::time::{Duration, Instant};

#[derive(Clone, Copy, Debug)]
pub struct Schedule {
    pub start: Instant,
    pub rate_per_s: u64,
}

impl Schedule {
    /// Offset of request `i`'s due time from the start.
    pub fn offset(&self, i: u64) -> Duration {
        Duration::from_nanos(due_offset_ns(i, self.rate_per_s))
    }

    pub fn due(&self, i: u64) -> Instant {
        self.start + self.offset(i)
    }

    /// Nanoseconds from request `i`'s due time to `t` (0 if `t` is
    /// earlier).
    pub fn since_due_ns(&self, i: u64, t: Instant) -> u64 {
        t.saturating_duration_since(self.due(i)).as_nanos() as u64
    }
}

/// Nanoseconds from the schedule start to request `i`'s due time.
pub fn due_offset_ns(i: u64, rate_per_s: u64) -> u64 {
    assert!(rate_per_s > 0, "rate must be positive");
    ((i as u128 * 1_000_000_000) / rate_per_s as u128) as u64
}

/// Requests in a window of `seconds` at `rate_per_s`: whole requests only,
/// at least one.
pub fn requests_in(seconds: f64, rate_per_s: u64) -> u64 {
    ((seconds * rate_per_s as f64).floor() as u64).max(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn due_times_follow_the_index_without_drift() {
        // 3 per second: a rounded period (333_333_333 ns) would drift 1 ns
        // per request; the index form lands exactly on each second.
        assert_eq!(due_offset_ns(0, 3), 0);
        assert_eq!(due_offset_ns(1, 3), 333_333_333);
        assert_eq!(due_offset_ns(3, 3), 1_000_000_000);
        assert_eq!(due_offset_ns(3_000_000, 3), 1_000_000_000_000_000);
        assert_eq!(due_offset_ns(4000, 4000), 1_000_000_000);
        assert_eq!(due_offset_ns(1, 4000), 250_000);
    }

    #[test]
    fn latency_is_measured_from_the_due_time() {
        let s = Schedule {
            start: Instant::now(),
            rate_per_s: 1000,
        };
        let sent_late = s.due(5) + Duration::from_micros(700);
        let arrived = sent_late + Duration::from_micros(300);
        assert_eq!(s.since_due_ns(5, arrived), 1_000_000);
        assert_eq!(s.since_due_ns(5, s.start), 0);
    }

    #[test]
    fn window_holds_whole_requests() {
        assert_eq!(requests_in(10.0, 4000), 40_000);
        assert_eq!(requests_in(0.25, 4000), 1000);
        assert_eq!(requests_in(0.0001, 10), 1);
    }
}
