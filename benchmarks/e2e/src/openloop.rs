//! Open-loop request schedule: round `k` is *due* at `phase + k · period`
//! whether or not the system kept up, and its latency is charged from that
//! due time. A stall therefore costs every round queued behind it, which a
//! closed loop (send the next when the last returns) would hide.

use std::time::{Duration, Instant};

/// The clock the scheduler runs against; real time in runs, a scripted
/// clock in tests.
pub trait Clock {
    /// Time since the schedule's origin.
    fn now(&self) -> Duration;
    /// Blocks until `now() >= t` (returns at once when already past).
    fn sleep_until(&self, t: Duration);
}

/// Wall clock anchored at an origin instant.
pub struct WallClock {
    origin: Instant,
}

impl WallClock {
    /// A clock whose zero is now.
    pub fn start() -> WallClock {
        WallClock {
            origin: Instant::now(),
        }
    }
}

impl Clock for WallClock {
    fn now(&self) -> Duration {
        self.origin.elapsed()
    }

    fn sleep_until(&self, t: Duration) {
        if let Some(wait) = t.checked_sub(self.now()) {
            std::thread::sleep(wait);
        }
    }
}

/// One stream's fixed-rate schedule.
#[derive(Clone, Copy, Debug)]
pub struct Schedule {
    /// Offset of round 0, so streams do not fire in lockstep.
    pub phase: Duration,
    /// `1 / rate`.
    pub period: Duration,
    /// Rounds offered.
    pub rounds: u64,
}

impl Schedule {
    /// `rounds` rounds at `rate_hz`, stream `stream` of `streams` staggered
    /// evenly across one period.
    pub fn new(rate_hz: f64, rounds: u64, stream: usize, streams: usize) -> Schedule {
        let period = Duration::from_secs_f64(1.0 / rate_hz);
        Schedule {
            phase: period.mul_f64(stream as f64 / streams.max(1) as f64),
            period,
            rounds,
        }
    }

    /// When round `k` is due.
    pub fn due(&self, k: u64) -> Duration {
        self.phase + self.period.mul_f64(k as f64)
    }
}

/// What happened to one offered round.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RoundSample {
    /// Due time → completion. Includes the time the round waited behind a
    /// late predecessor.
    pub latency: Duration,
    /// Due time → actual send (zero when the round went out on time).
    pub late: Duration,
    /// The generator's own share of `late`: from the moment it could have
    /// sent (due, or the previous round done if later) to the send.
    pub overslept: Duration,
    /// Whether the operation succeeded.
    pub ok: bool,
}

/// An open-loop stream in progress. Between [`OpenLoop::begin`] and
/// [`OpenLoop::end`] the caller performs the round; whatever it does after
/// `end` (checking the reply, say) happens off the clock, before the next
/// round is due.
pub struct OpenLoop<'c, C: Clock> {
    schedule: Schedule,
    clock: &'c C,
    /// `(due, sent)` of the round begun and not yet ended.
    in_flight: Option<(Duration, Duration)>,
    prev_done: Duration,
    stopped: bool,
    samples: Vec<RoundSample>,
}

impl<'c, C: Clock> OpenLoop<'c, C> {
    /// A stream that will offer `schedule`'s rounds on `clock`.
    pub fn new(schedule: Schedule, clock: &'c C) -> OpenLoop<'c, C> {
        OpenLoop {
            schedule,
            clock,
            in_flight: None,
            prev_done: Duration::ZERO,
            stopped: false,
            samples: Vec::with_capacity(schedule.rounds as usize),
        }
    }

    /// Waits until the next round is due and returns its index, or `None`
    /// when every round was offered or one failed (a broken session cannot
    /// run later rounds; the caller charges those never offered as failed).
    pub fn begin(&mut self) -> Option<u64> {
        let k = self.samples.len() as u64;
        if self.stopped || k >= self.schedule.rounds {
            return None;
        }
        let due = self.schedule.due(k);
        self.clock.sleep_until(due);
        self.in_flight = Some((due, self.clock.now()));
        Some(k)
    }

    /// Records the completion of the round [`OpenLoop::begin`] returned.
    pub fn end(&mut self, ok: bool) {
        let Some((due, sent)) = self.in_flight.take() else {
            return;
        };
        let done = self.clock.now();
        self.samples.push(RoundSample {
            latency: done.saturating_sub(due),
            late: sent.saturating_sub(due),
            overslept: sent.saturating_sub(due.max(self.prev_done)),
            ok,
        });
        self.prev_done = done;
        self.stopped = !ok;
    }

    /// The rounds offered so far.
    pub fn into_samples(self) -> Vec<RoundSample> {
        self.samples
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;

    /// A clock that only moves when told to.
    struct Scripted {
        now: Cell<Duration>,
    }

    impl Scripted {
        fn advance(&self, d: Duration) {
            self.now.set(self.now.get() + d);
        }
    }

    impl Clock for Scripted {
        fn now(&self) -> Duration {
            self.now.get()
        }
        fn sleep_until(&self, t: Duration) {
            if t > self.now.get() {
                self.now.set(t);
            }
        }
    }

    const MS: Duration = Duration::from_millis(1);

    /// Offers every round of `schedule` to `op`, which performs round `k`
    /// synchronously and returns whether it succeeded.
    fn run_open_loop(
        schedule: &Schedule,
        clock: &impl Clock,
        mut op: impl FnMut(u64) -> bool,
    ) -> Vec<RoundSample> {
        let mut stream = OpenLoop::new(*schedule, clock);
        while let Some(k) = stream.begin() {
            let ok = op(k);
            stream.end(ok);
        }
        stream.into_samples()
    }

    #[test]
    fn late_send_is_charged_from_the_due_time() {
        let clock = Scripted {
            now: Cell::new(Duration::ZERO),
        };
        let schedule = Schedule {
            phase: Duration::ZERO,
            period: 10 * MS,
            rounds: 3,
        };
        // Round 0 stalls for 25 ms; rounds 1 and 2 take 1 ms each.
        let service = [25 * MS, MS, MS];
        let samples = run_open_loop(&schedule, &clock, |k| {
            clock.advance(service[k as usize]);
            true
        });
        // Round 1 was due at 10 ms but sent at 25 ms: 15 ms late, and its
        // latency is 16 ms from due time, not its 1 ms service time.
        assert_eq!(samples[0].latency, 25 * MS);
        assert_eq!(samples[0].late, Duration::ZERO);
        assert_eq!(samples[1].late, 15 * MS);
        assert_eq!(samples[1].latency, 16 * MS);
        // ...which is the system's doing, not the generator's.
        assert_eq!(samples[1].overslept, Duration::ZERO);
        // Round 2 (due 20 ms) is sent at 26 ms: the backlog is draining.
        assert_eq!(samples[2].late, 6 * MS);
        assert_eq!(samples[2].latency, 7 * MS);
    }

    #[test]
    fn on_time_generator_waits_for_each_due_time() {
        let clock = Scripted {
            now: Cell::new(Duration::ZERO),
        };
        let schedule = Schedule::new(100.0, 4, 1, 2);
        assert_eq!(schedule.phase, 5 * MS);
        let samples = run_open_loop(&schedule, &clock, |_| {
            clock.advance(2 * MS);
            true
        });
        assert_eq!(samples.len(), 4);
        assert!(samples
            .iter()
            .all(|s| s.late == Duration::ZERO && s.latency == 2 * MS));
        // Last round due at 5 + 30 ms, done 2 ms later.
        assert_eq!(clock.now(), 37 * MS);
    }

    #[test]
    fn stream_stops_at_first_failure() {
        let clock = Scripted {
            now: Cell::new(Duration::ZERO),
        };
        let schedule = Schedule::new(1000.0, 10, 0, 1);
        let samples = run_open_loop(&schedule, &clock, |k| k < 2);
        assert_eq!(samples.len(), 3);
        assert!(!samples[2].ok);
    }
}
