//! Open-loop load generation: requests are due on a fixed seeded schedule
//! whether or not earlier ones have finished, and each is timed from its
//! due time, so a stall also charges the wait it imposes on later
//! requests. How far the generator itself ran behind schedule is recorded
//! per request as its lateness.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};
use workloads::Xoshiro256;

/// Time source of a load loop, measured from the loop's start.
pub trait Clock: Sync {
    /// Time since the loop started.
    fn now(&self) -> Duration;
    /// Blocks until `t` (returns at once if `t` has passed).
    fn sleep_until(&self, t: Duration);
}

/// The wall clock.
pub struct WallClock(Instant);

impl WallClock {
    /// A clock whose zero is now.
    pub fn start() -> Self {
        Self(Instant::now())
    }
}

impl Clock for WallClock {
    fn now(&self) -> Duration {
        self.0.elapsed()
    }

    fn sleep_until(&self, t: Duration) {
        let now = self.now();
        if t > now {
            std::thread::sleep(t - now);
        }
    }
}

/// Poisson arrivals at `rate_per_s`: `count` due times from the seeded
/// exponential inter-arrival gaps, non-decreasing from zero.
pub fn arrivals(rng: &mut Xoshiro256, rate_per_s: f64, count: usize) -> Vec<Duration> {
    let mut t = 0.0f64;
    (0..count)
        .map(|_| {
            let due = Duration::from_secs_f64(t);
            // 1 - unit() lies in (0, 1], so the log is finite
            t += -(1.0 - rng.unit()).ln() / rate_per_s;
            due
        })
        .collect()
}

/// When one request was due, started and finished, and whether it
/// succeeded.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Timing {
    /// Scheduled send time.
    pub due: Duration,
    /// Actual send time.
    pub start: Duration,
    /// Completion time.
    pub end: Duration,
    /// Whether the request succeeded.
    pub ok: bool,
}

impl Timing {
    /// Latency from the due time to completion.
    pub fn latency(&self) -> Duration {
        self.end.saturating_sub(self.due)
    }

    /// How late the generator sent the request.
    pub fn lateness(&self) -> Duration {
        self.start.saturating_sub(self.due)
    }
}

/// Runs `job(i)` for every due time on `workers` threads: each free worker
/// takes the next request in schedule order, waits for its due time if it
/// is early, and runs it. Returns the timings in schedule order.
pub fn open_loop<C, F>(due: &[Duration], workers: usize, clock: &C, job: F) -> Vec<Timing>
where
    C: Clock,
    F: Fn(usize) -> bool + Sync,
{
    let next = AtomicUsize::new(0);
    let timings = Mutex::new(vec![None; due.len()]);
    std::thread::scope(|scope| {
        for _ in 0..workers.max(1) {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(&at) = due.get(i) else { break };
                clock.sleep_until(at);
                let start = clock.now();
                let ok = job(i);
                let end = clock.now();
                timings.lock().expect("timing table poisoned")[i] = Some(Timing {
                    due: at,
                    start,
                    end,
                    ok,
                });
            });
        }
    });
    timings
        .into_inner()
        .expect("timing table poisoned")
        .into_iter()
        .map(|t| t.expect("every scheduled request ran"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A clock that moves only when a job or a sleep moves it.
    struct StepClock(Mutex<Duration>);

    impl StepClock {
        fn advance(&self, d: Duration) {
            *self.0.lock().unwrap() += d;
        }
    }

    impl Clock for StepClock {
        fn now(&self) -> Duration {
            *self.0.lock().unwrap()
        }
        fn sleep_until(&self, t: Duration) {
            let mut now = self.0.lock().unwrap();
            *now = (*now).max(t);
        }
    }

    fn ms(v: u64) -> Duration {
        Duration::from_millis(v)
    }

    #[test]
    fn latency_counts_from_due_time_and_lateness_from_send() {
        // one worker, 10 ms per request; the first two are due together,
        // so the second waits behind the first
        let clock = StepClock(Mutex::new(Duration::ZERO));
        let due = [ms(0), ms(0), ms(5), ms(100)];
        let t = open_loop(&due, 1, &clock, |_| {
            clock.advance(ms(10));
            true
        });
        let latency: Vec<u64> = t.iter().map(|t| t.latency().as_millis() as u64).collect();
        let late: Vec<u64> = t.iter().map(|t| t.lateness().as_millis() as u64).collect();
        assert_eq!(latency, [10, 20, 25, 10]);
        assert_eq!(late, [0, 10, 15, 0]);
        assert!(t.iter().all(|t| t.ok));
    }

    #[test]
    fn failures_are_reported_per_request() {
        let clock = StepClock(Mutex::new(Duration::ZERO));
        let t = open_loop(&[ms(0); 4], 1, &clock, |i| i % 2 == 0);
        let ok: Vec<bool> = t.iter().map(|t| t.ok).collect();
        assert_eq!(ok, [true, false, true, false]);
    }

    #[test]
    fn arrivals_are_seeded_and_match_the_rate() {
        let a = arrivals(&mut Xoshiro256::seed_from_u64(3), 200.0, 4000);
        let b = arrivals(&mut Xoshiro256::seed_from_u64(3), 200.0, 4000);
        let c = arrivals(&mut Xoshiro256::seed_from_u64(4), 200.0, 4000);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(a[0], Duration::ZERO);
        assert!(a.windows(2).all(|w| w[0] <= w[1]));
        // 4000 arrivals at 200/s span about 20 s
        let span = a.last().unwrap().as_secs_f64();
        assert!((18.0..22.0).contains(&span), "span {span}");
    }
}
