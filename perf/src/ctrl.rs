//! `ctrl-replay`: a bare FR-FCFS controller, with no cores and no caches,
//! replaying the stress patterns on DDR4 and RRAM.

use std::sync::{Arc, Mutex};

use sam_check::oracle::OracleConfig;
use sam_check::trace::TraceRecorder;
use sam_dram::device::{DeviceStats, MemoryDevice};
use sam_dram::observe::SharedObserver;
use sam_dram::Cycle;
use sam_memctrl::controller::{Controller, ControllerStats};
use sam_stress::{run_stream, DeviceKind, Pattern, PatternParams, StressConfig, TimedRequest};

use crate::probe::{Probe, Site, Tracer};
use crate::workload::{add_device, device_counts, ratio, CtrlTotals, Laps, Layers, Pass, Workload};

/// Devices every stream is replayed on.
const DEVICES: [DeviceKind; 2] = [DeviceKind::Ddr4, DeviceKind::Rram];

/// Consecutive pattern seeds per pass, starting at the run's seed.
const SEEDS: u64 = 4;

/// One stream's replay, as the controller reported it.
#[derive(Debug, Clone, PartialEq)]
pub struct StreamRun {
    pub pattern: Pattern,
    pub device: DeviceKind,
    pub seed: u64,
    pub completions: u64,
    pub row_hits: u64,
    pub last_finish: Cycle,
    /// Admission attempts refused because the target queue was full.
    pub admit_refused: u64,
    pub stats: ControllerStats,
    pub device_stats: DeviceStats,
    pub read_latency_mean: f64,
    pub bus_busy: Cycle,
}

/// The workload: 5 patterns × `SEEDS` seeds × `len` requests, each
/// stream replayed on both devices.
#[derive(Debug)]
pub struct CtrlReplay {
    pub len: usize,
}

fn config(device: DeviceKind) -> StressConfig {
    StressConfig {
        device,
        ..StressConfig::ddr4_default()
    }
}

fn streams(seed: u64) -> impl Iterator<Item = (Pattern, u64)> {
    (seed..seed + SEEDS).flat_map(|s| Pattern::ALL.map(|p| (p, s)))
}

/// Counters of one replay loop.
#[derive(Debug, Default, PartialEq)]
pub struct Replay {
    pub completions: u64,
    pub row_hits: u64,
    pub last_finish: Cycle,
    pub admit_refused: u64,
}

/// `sam_stress::run_stream`'s admission loop without its invariant
/// mirror: admit due requests in stream order while the queues have room,
/// jump idle gaps with `advance_to`, and otherwise schedule one request
/// and advance to its finish.
pub fn replay<P: Probe>(
    ctrl: &mut Controller,
    requests: &[TimedRequest],
    probe: &mut P,
) -> Result<Replay, String> {
    let mut out = Replay::default();
    let mut next = 0;
    let mut now: Cycle = 0;
    loop {
        while let Some(t) = requests.get(next).filter(|t| t.arrival <= now) {
            if !ctrl.can_accept(t.req.is_write) {
                out.admit_refused += 1;
                break;
            }
            let admitted = now.max(t.arrival);
            probe
                .call(Site::Enqueue, || ctrl.enqueue(t.req, admitted))
                .map_err(|e| format!("enqueue refused after can_accept: {e:?}"))?;
            next += 1;
        }
        if ctrl.queued() == 0 {
            let Some(t) = requests.get(next) else {
                return Ok(out);
            };
            let target = now.max(t.arrival);
            probe.call(Site::AdvanceTo, || ctrl.advance_to(target));
            now = target;
            continue;
        }
        let Some(c) = probe.call(Site::ScheduleOne, || ctrl.schedule_one(now)) else {
            return Err(format!(
                "scheduler idled with {} requests queued",
                ctrl.queued()
            ));
        };
        out.completions += 1;
        out.row_hits += u64::from(c.row_hit);
        out.last_finish = out.last_finish.max(c.finish);
        now = now.max(c.finish);
    }
}

impl CtrlReplay {
    /// Replays one stream on a fresh controller. A traced replay also
    /// records the controller's command stream and re-issues it into a
    /// fresh device, timing the device layer on its own.
    fn stream<P: Probe>(
        &self,
        (pattern, seed): (Pattern, u64),
        device: DeviceKind,
        requests: &[TimedRequest],
        probe: &mut P,
    ) -> (StreamRun, Option<String>) {
        let cfg = config(device).controller_config();
        let mut ctrl = Controller::new(cfg);
        let recorder = P::ON.then(|| {
            let rec = Arc::new(Mutex::new(TraceRecorder::new(OracleConfig::from_device(
                &cfg.device,
            ))));
            ctrl.attach_observer(rec.clone() as SharedObserver);
            rec
        });
        let label = format!("{}/{}/seed{seed}", pattern.name(), device.token());
        let (counters, mut failure) = match replay(&mut ctrl, requests, probe) {
            Ok(r) => (r, None),
            Err(e) => (Replay::default(), Some(format!("{label}: {e}"))),
        };
        if let Some(rec) = recorder {
            let rec = rec.lock().expect("trace recorder lock poisoned");
            let mut dev = MemoryDevice::new(cfg.device);
            probe.span("driver.device_replay", |probe| {
                for (cmd, at) in rec.commands() {
                    if let Err(e) = probe.call(Site::Issue, || dev.issue(cmd, *at)) {
                        failure.get_or_insert(format!(
                            "{label}: device rejected {cmd:?} at {at}: {e:?}"
                        ));
                        break;
                    }
                }
            });
        }
        let run = StreamRun {
            pattern,
            device,
            seed,
            completions: counters.completions,
            row_hits: counters.row_hits,
            last_finish: counters.last_finish,
            admit_refused: counters.admit_refused,
            stats: *ctrl.stats(),
            device_stats: *ctrl.device_stats(),
            read_latency_mean: ctrl.read_latency_histogram().mean().unwrap_or(0.0),
            bus_busy: ctrl.device().channel().busy_cycles,
        };
        (run, failure)
    }
}

impl Workload for CtrlReplay {
    type Item = StreamRun;

    fn warmup(&self) -> usize {
        3
    }

    fn pass<P: Probe>(&self, seed: u64, _verify: bool, probe: &mut P) -> Pass<StreamRun> {
        let mut pass = Pass::new(Pattern::ALL.len() * SEEDS as usize * DEVICES.len());
        let mut generated = Vec::new();
        let mut laps = Laps::start();
        for (pattern, s) in streams(seed) {
            let params = PatternParams {
                seed: s,
                len: self.len,
                ..PatternParams::default()
            };
            let requests = probe.span("stress.generate", |_| pattern.generate(&params));
            pass.setup_ns.push(laps.lap());
            generated.push(((pattern, s), requests));
        }

        // schedule_one host time per pattern, from the traced pass's
        // accumulator before and after each stream.
        let mut per_pattern = [(0u64, 0u64); Pattern::ALL.len()];
        for (key, requests) in &generated {
            for device in DEVICES {
                let before = probe.totals(Site::ScheduleOne);
                let (run, failure) = probe.span("driver.stream", |probe| {
                    self.stream(*key, device, requests, probe)
                });
                pass.sim_ns.push(laps.lap());
                let after = probe.totals(Site::ScheduleOne);
                let slot = &mut per_pattern[key.0 as usize];
                slot.0 += after.0 - before.0;
                slot.1 += after.1 - before.1;
                pass.work += run.last_finish;
                pass.failures.extend(failure);
                pass.items.push(run);
            }
        }
        if P::ON {
            for (pattern, (calls, ns)) in Pattern::ALL.iter().zip(per_pattern) {
                pass.layers.insert(
                    format!("memctrl.schedule_one.ns_mean.{}", pattern.name()),
                    ratio(ns as f64, calls as f64),
                );
            }
        }
        pass
    }

    /// Replays every stream through `sam_stress::run_stream`, the
    /// invariant-checked reference, and compares counters.
    fn check(&self, seed: u64, items: &[StreamRun]) -> Vec<String> {
        let mut failures = Vec::new();
        let keys = streams(seed).flat_map(|key| DEVICES.map(|d| (key, d)));
        for (((pattern, s), device), run) in keys.zip(items) {
            let params = PatternParams {
                seed: s,
                len: self.len,
                ..PatternParams::default()
            };
            let want = run_stream(&config(device), &pattern.generate(&params));
            let got = (
                run.completions,
                run.stats.reads_done,
                run.stats.writes_done,
                run.row_hits,
                run.stats.starvation_forced,
                run.stats.refreshes,
                run.last_finish,
            );
            let expected = (
                want.completions,
                want.reads,
                want.writes,
                want.row_hits,
                want.starved,
                want.refreshes,
                want.last_finish,
            );
            if got != expected || !want.violations.is_empty() {
                failures.push(format!(
                    "{}/{}/seed{s}: run_stream {expected:?} with {} violations, replay {got:?}",
                    pattern.name(),
                    device.token(),
                    want.violations.len()
                ));
            }
        }
        failures
    }

    fn layers(&self, pass: &Pass<StreamRun>, _tracer: &Tracer) -> Layers {
        let mut layers = Layers::new();
        let mut ctrl = CtrlTotals::default();
        let mut device = DeviceStats::default();
        let mut refused = 0;
        for r in &pass.items {
            ctrl.add(&r.stats, r.read_latency_mean, r.bus_busy, r.last_finish);
            add_device(&mut device, &r.device_stats);
            refused += r.admit_refused;
        }
        ctrl.insert(&mut layers);
        device_counts(&mut layers, &device);
        layers.insert("memctrl.admit_refused".into(), refused as f64);
        layers
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::probe::Off;

    #[test]
    fn replay_loop_agrees_with_run_stream_on_every_pattern() {
        let small = PatternParams::small(11);
        let w = CtrlReplay { len: small.len };
        let pass = w.pass(small.seed, true, &mut Off);
        assert_eq!(pass.items.len(), 40);
        assert!(pass.failures.is_empty(), "{:?}", pass.failures);
        let failures = w.check(small.seed, &pass.items);
        assert!(failures.is_empty(), "{failures:?}");
        assert!(pass.items.iter().all(|r| r.completions == small.len as u64));
    }

    #[test]
    fn traced_replay_reissues_every_command_into_a_device() {
        let w = CtrlReplay { len: 256 };
        let mut tracer = Tracer::default();
        let pass = w.pass(3, false, &mut tracer);
        assert!(pass.failures.is_empty(), "{:?}", pass.failures);
        let commands: u64 = pass
            .items
            .iter()
            .map(|r| {
                let d = &r.device_stats;
                d.acts + d.pres + d.column_commands() + d.refreshes + d.mode_switches
            })
            .sum();
        assert!(tracer.calls(Site::Issue).count >= commands);
        assert_eq!(pass.items, w.pass(3, false, &mut Off).items);
    }
}
