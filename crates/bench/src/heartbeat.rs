//! Live sweep heartbeats: stderr-only progress lines for long runs.
//!
//! The sweep runner announces work with [`sweep_add`] and completion with
//! [`task_done`], and every finished run adds its simulated memory cycles
//! with [`cycles_done`]; `--heartbeat[=SECS]` makes the driver start a
//! monitor thread ([`start`]) that prints one line every interval,
//! prefixed with the binary's name like its other stderr notices:
//!
//! ```text
//! fig12: 37/162 runs · 5.8 Mcyc/s · ETA 14s
//! ```
//!
//! Runs completed/total come straight from the announced tasks, the live
//! simulated cycles/sec from the [`cycles_done`] tally (a run's cycles
//! land when it finishes, so a sweep of few long runs reads in steps),
//! and the ETA from the weighted-sweep cost model: with `w_done` of
//! `w_total` weight retired after `t` seconds, the remainder is estimated
//! at `t * (w_total - w_done) / w_done`. Because tasks report through
//! process-wide atomics, the numbers stay coherent under `--jobs N` —
//! every worker of the work-stealing runner feeds the same tallies.
//!
//! Heartbeats never touch stdout, so they are invisible to the
//! byte-identity gates.

#![allow(
    clippy::disallowed_types,
    reason = "the heartbeat exists to report host wall-clock progress; it writes only to stderr, never to stdout, metrics JSON, or trace bytes"
)]

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

static TASKS_TOTAL: AtomicU64 = AtomicU64::new(0);
static TASKS_DONE: AtomicU64 = AtomicU64::new(0);
static WEIGHT_TOTAL: AtomicU64 = AtomicU64::new(0);
static WEIGHT_DONE: AtomicU64 = AtomicU64::new(0);
static SIM_CYCLES: AtomicU64 = AtomicU64::new(0);

/// Announces a sweep: `tasks` runs totalling `weight` cost units.
/// Called by the runner before workers start; totals accumulate
/// across the sweeps of one process.
pub fn sweep_add(tasks: u64, weight: u64) {
    TASKS_TOTAL.fetch_add(tasks, Ordering::Relaxed);
    WEIGHT_TOTAL.fetch_add(weight, Ordering::Relaxed);
}

/// Records one finished run of the given cost weight.
#[inline]
pub fn task_done(weight: u64) {
    TASKS_DONE.fetch_add(1, Ordering::Relaxed);
    WEIGHT_DONE.fetch_add(weight, Ordering::Relaxed);
}

/// Adds the simulated memory cycles of one finished run.
pub fn cycles_done(cycles: u64) {
    SIM_CYCLES.fetch_add(cycles, Ordering::Relaxed);
}

/// Simulated memory cycles of every run finished so far (exposed for
/// tests).
#[must_use]
pub fn cycles() -> u64 {
    SIM_CYCLES.load(Ordering::Relaxed)
}

/// Runs completed and announced so far (exposed for tests).
#[must_use]
pub fn progress() -> (u64, u64) {
    (
        TASKS_DONE.load(Ordering::Relaxed),
        TASKS_TOTAL.load(Ordering::Relaxed),
    )
}

fn report(bin: &str, elapsed: Duration, cycles: u64) {
    let (done, total) = progress();
    let secs = elapsed.as_secs_f64();
    let mcyc = if secs > 0.0 {
        cycles as f64 / secs / 1e6
    } else {
        0.0
    };
    let w_done = WEIGHT_DONE.load(Ordering::Relaxed);
    let w_total = WEIGHT_TOTAL.load(Ordering::Relaxed);
    let eta = if w_done > 0 && w_total > w_done {
        let remaining = secs * (w_total - w_done) as f64 / w_done as f64;
        format!("ETA {:.0}s", remaining.ceil())
    } else if w_total > 0 && w_done >= w_total {
        "finishing".to_string()
    } else {
        "ETA --".to_string()
    };
    eprintln!("{bin}: {done}/{total} runs · {mcyc:.1} Mcyc/s · {eta}");
}

/// A running heartbeat monitor; dropping (or [`Heartbeat::stop`])
/// ends it.
#[derive(Debug)]
pub struct Heartbeat {
    stop: Arc<AtomicBool>,
    handle: Option<thread::JoinHandle<()>>,
}

/// Starts the monitor thread, printing to stderr every `secs`
/// seconds (minimum 1) until stopped.
#[must_use]
pub fn start(bin: &str, secs: u64) -> Heartbeat {
    let bin = bin.to_string();
    let interval = Duration::from_secs(secs.max(1));
    let stop = Arc::new(AtomicBool::new(false));
    let stop_flag = Arc::clone(&stop);
    let handle = thread::Builder::new()
        .name("heartbeat".to_string())
        .spawn(move || {
            let started = Instant::now();
            let cycles_at_start = cycles();
            let mut next_report = interval;
            // Poll the stop flag often so shutdown never waits a full
            // interval, but only print on the interval boundary.
            while !stop_flag.load(Ordering::Relaxed) {
                thread::sleep(Duration::from_millis(50));
                let elapsed = started.elapsed();
                if elapsed >= next_report {
                    next_report += interval;
                    let ran = cycles().saturating_sub(cycles_at_start);
                    report(&bin, elapsed, ran);
                }
            }
        })
        .expect("spawn heartbeat thread");
    Heartbeat {
        stop,
        handle: Some(handle),
    }
}

impl Heartbeat {
    /// Stops the monitor and waits for it to exit.
    pub fn stop(mut self) {
        self.shutdown();
    }

    fn shutdown(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for Heartbeat {
    fn drop(&mut self) {
        self.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn progress_tracks_announced_and_finished_tasks() {
        let (done0, total0) = progress();
        sweep_add(5, 50);
        task_done(10);
        task_done(10);
        let (done, total) = progress();
        assert_eq!(done - done0, 2);
        assert_eq!(total - total0, 5);
    }

    #[test]
    fn monitor_starts_and_stops_cleanly() {
        let hb = start("test", 3600);
        hb.stop();
        let hb2 = start("test", 3600);
        drop(hb2);
    }
}
