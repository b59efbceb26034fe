//! Monotonic wall-clock sampling: [`Clock`], [`Deadline`], [`Stopwatch`].
//!
//! This module is the only sanctioned home of `std::time::Instant::now()`
//! in the workspace (enforced by clippy's `disallowed_methods`, configured
//! in the workspace `clippy.toml`). Callers measure elapsed time with a
//! [`Clock`], poll timeouts with a [`Deadline`], and slice consecutive
//! phases with a [`Stopwatch`] — none of which can be constructed from
//! anything but the monotonic clock, so telemetry can never go backwards.

use std::time::{Duration, Instant};

/// A monotonic time origin: the moment [`Clock::now`] was called.
///
/// A `Clock` is a point, not a source — `elapsed()` always measures from
/// the captured origin, so two reads can never be reordered into a
/// negative duration.
#[derive(Debug, Clone, Copy)]
pub struct Clock(Instant);

impl Clock {
    /// Captures the current monotonic instant.
    #[must_use]
    pub fn now() -> Self {
        Clock(Instant::now())
    }

    /// Time elapsed since this clock was captured.
    #[must_use]
    pub fn elapsed(&self) -> Duration {
        self.0.elapsed()
    }

    /// Elapsed time in seconds, as a finite `f64`.
    #[must_use]
    pub fn seconds(&self) -> f64 {
        self.0.elapsed().as_secs_f64()
    }
}

/// A point in the future to poll against, built from a [`Duration`].
///
/// Saturates rather than panics: a duration too large to represent (e.g.
/// `Duration::MAX`) yields a deadline that never expires.
#[derive(Debug, Clone, Copy)]
pub struct Deadline {
    at: Option<Instant>,
}

impl Deadline {
    /// A deadline `after` from now. `None`-representable overflow (an
    /// enormous duration) produces a deadline that never expires.
    #[must_use]
    pub fn after(after: Duration) -> Self {
        Deadline {
            at: Instant::now().checked_add(after),
        }
    }

    /// A deadline that never expires.
    #[must_use]
    pub fn never() -> Self {
        Deadline { at: None }
    }

    /// Has the deadline passed?
    #[must_use]
    pub fn expired(&self) -> bool {
        self.at.is_some_and(|at| Instant::now() > at)
    }

    /// Time left until the deadline: zero once it has passed, `None` for
    /// a deadline that never expires.
    #[must_use]
    pub fn remaining(&self) -> Option<Duration> {
        self.at
            .map(|at| at.saturating_duration_since(Instant::now()))
    }
}

/// Measures consecutive phases: each [`lap`](Stopwatch::lap) returns the
/// time since the previous lap (or construction) and restarts the watch.
#[derive(Debug)]
pub struct Stopwatch {
    last: Instant,
}

impl Stopwatch {
    /// Starts the watch.
    #[must_use]
    pub fn start() -> Self {
        Stopwatch {
            last: Instant::now(),
        }
    }

    /// Returns the time since the last lap (or start) and restarts.
    pub fn lap(&mut self) -> Duration {
        let now = Instant::now();
        let d = now.duration_since(self.last);
        self.last = now;
        d
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clock_is_monotonic() {
        let c = Clock::now();
        let a = c.elapsed();
        let b = c.elapsed();
        assert!(b >= a, "elapsed must not go backwards");
        assert!(c.seconds() >= 0.0);
        assert!(c.seconds().is_finite());
    }

    #[test]
    fn zero_deadline_expires_and_never_does_not() {
        let d = Deadline::after(Duration::ZERO);
        std::thread::sleep(Duration::from_millis(2));
        assert!(d.expired());
        assert!(!Deadline::never().expired());
        // A saturating construction behaves like `never`.
        assert!(!Deadline::after(Duration::MAX).expired());
    }

    #[test]
    fn far_deadline_is_not_expired() {
        assert!(!Deadline::after(Duration::from_secs(3600)).expired());
    }

    #[test]
    fn remaining_counts_down_to_zero() {
        let d = Deadline::after(Duration::from_secs(3600));
        let left = d.remaining().expect("finite deadline");
        assert!(left <= Duration::from_secs(3600) && left > Duration::from_secs(3500));
        assert_eq!(
            Deadline::after(Duration::ZERO).remaining(),
            Some(Duration::ZERO)
        );
        assert_eq!(Deadline::never().remaining(), None);
    }

    #[test]
    fn stopwatch_laps_cover_the_whole_interval() {
        let c = Clock::now();
        let mut w = Stopwatch::start();
        std::thread::sleep(Duration::from_millis(2));
        let a = w.lap();
        let b = w.lap();
        assert!(a >= Duration::from_millis(1));
        assert!(a + b <= c.elapsed() + Duration::from_millis(1));
    }
}
