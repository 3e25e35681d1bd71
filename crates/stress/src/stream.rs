//! Timed request streams and the replayable stress-trace text format.
//!
//! A stress stream is a controller configuration plus a sequence of
//! [`MemRequest`]s with non-decreasing arrival cycles. Streams are the
//! currency of the whole crate: pattern generators produce them, the
//! driver executes them, the shrinker subsets them, and this module's
//! text format makes any of them a standalone, replayable artifact —
//! `sam-check replay` recognises the header and re-runs the stream
//! through [`crate::driver::run_stream`], reproducing the exact
//! scheduling decisions (and therefore the exact invariant violations)
//! of the original run.
//!
//! The format is line-oriented:
//!
//! ```text
//! # sam-stress trace v1
//! config device=ddr4 cap=4096 hi=28 lo=8
//! req 0 R 0x0
//! req 4 W 0x2000
//! req 8 SR 0x4000 gather=8 lane=0
//! req 12 NR 0x40
//! ```
//!
//! Request ids are not serialized: they are positional, reassigned
//! `0..n` on parse (the shrinker renumbers after every subset for the
//! same reason). The leading `#` line doubles as a format marker:
//! `sam-check replay` inspects the first line and rejects any file
//! without it.

use sam_dram::device::DeviceConfig;
use sam_dram::Cycle;
use sam_memctrl::controller::{ControllerConfig, SchedOverrides};
use sam_memctrl::request::{MemRequest, StrideSpec};

/// First line of every stress trace; `sam-check replay` requires it.
pub const STRESS_TRACE_HEADER: &str = "# sam-stress trace v1";

/// Which device substrate a stress run targets.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DeviceKind {
    /// DDR4-2400 server configuration (refresh on).
    Ddr4,
    /// RRAM server configuration (no refresh, slow writes).
    Rram,
}

impl DeviceKind {
    /// The full device configuration.
    pub fn config(self) -> DeviceConfig {
        match self {
            DeviceKind::Ddr4 => DeviceConfig::ddr4_server(),
            DeviceKind::Rram => DeviceConfig::rram_server(),
        }
    }

    /// Token used in the trace `config` line.
    pub fn token(self) -> &'static str {
        match self {
            DeviceKind::Ddr4 => "ddr4",
            DeviceKind::Rram => "rram",
        }
    }

    /// Parses a `config` line token.
    pub fn from_token(t: &str) -> Option<Self> {
        match t {
            "ddr4" => Some(DeviceKind::Ddr4),
            "rram" => Some(DeviceKind::Rram),
            _ => None,
        }
    }
}

/// The controller knobs a stress run varies: starvation cap and the
/// write-drain hysteresis pair. Everything else stays at the Table 2
/// defaults of [`ControllerConfig::with_device`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct StressConfig {
    /// Target device.
    pub device: DeviceKind,
    /// FR-FCFS starvation cap in memory cycles (0 = pure FCFS).
    pub starvation_cap: Cycle,
    /// Write-drain high watermark.
    pub drain_hi: usize,
    /// Write-drain low watermark.
    pub drain_lo: usize,
    /// Replay through the naive reference scheduler instead of the
    /// group tournament (see
    /// [`ControllerConfig::reference_scheduler`]); the differential
    /// matrix proves the two paths byte-identical on every stream.
    pub reference_scheduler: bool,
}

impl StressConfig {
    /// A validated configuration (`lo < hi <= write queue depth`).
    ///
    /// # Errors
    ///
    /// Returns a description of the broken constraint.
    pub fn new(
        device: DeviceKind,
        starvation_cap: Cycle,
        drain_hi: usize,
        drain_lo: usize,
    ) -> Result<Self, String> {
        let cfg = Self::unchecked(device, starvation_cap, drain_hi, drain_lo);
        cfg.validate().map(|()| cfg)
    }

    /// The DDR4 defaults every design ships with: cap 4096, hi 28, lo 8.
    pub fn ddr4_default() -> Self {
        Self::ddr4(SchedOverrides::default())
    }

    /// The DDR4 defaults with `overrides` applied, unvalidated.
    pub fn ddr4(overrides: SchedOverrides) -> Self {
        let ctrl = overrides.apply(ControllerConfig::default());
        Self {
            device: DeviceKind::Ddr4,
            starvation_cap: ctrl.starvation_cap,
            drain_hi: ctrl.write_high_watermark,
            drain_lo: ctrl.write_low_watermark,
            reference_scheduler: ctrl.reference_scheduler,
        }
    }

    /// The same knobs, replayed through the reference scheduler.
    pub fn with_reference_scheduler(mut self) -> Self {
        self.reference_scheduler = true;
        self
    }

    /// Builds the configuration **without** watermark validation.
    ///
    /// This is both the shrinker's test hook (a deliberately mis-tuned
    /// `lo > hi` config is what the shrinker tests shrink against) and the
    /// parser's constructor: a minimal-repro trace *records* a broken
    /// config, so parsing must accept what validation rejects.
    pub fn unchecked(
        device: DeviceKind,
        starvation_cap: Cycle,
        drain_hi: usize,
        drain_lo: usize,
    ) -> Self {
        Self {
            device,
            starvation_cap,
            drain_hi,
            drain_lo,
            reference_scheduler: false,
        }
    }

    /// Checks `lo < hi <= write queue depth`
    /// ([`ControllerConfig::check_watermarks`]).
    ///
    /// # Errors
    ///
    /// Returns a description of the broken constraint.
    pub fn validate(&self) -> Result<(), String> {
        self.controller_config().check_watermarks()
    }

    /// The full controller configuration this run executes under.
    pub fn controller_config(&self) -> ControllerConfig {
        let knobs = SchedOverrides {
            starvation_cap: Some(self.starvation_cap),
            drain_hi: Some(self.drain_hi),
            drain_lo: Some(self.drain_lo),
        };
        ControllerConfig {
            reference_scheduler: self.reference_scheduler,
            ..knobs.apply(ControllerConfig::with_device(self.device.config()))
        }
    }
}

/// One request with its nominal arrival cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TimedRequest {
    /// The request (id is positional within its stream).
    pub req: MemRequest,
    /// Cycle the request reaches the controller front-end.
    pub arrival: Cycle,
}

/// A complete, self-contained stress workload.
#[derive(Debug, Clone, PartialEq)]
pub struct StressStream {
    /// Knobs the stream runs under when replayed standalone.
    pub config: StressConfig,
    /// Requests in arrival order (non-decreasing `arrival`).
    pub requests: Vec<TimedRequest>,
}

/// Reassigns ids positionally (`0..n`), the invariant every consumer of
/// a subsetted or parsed stream relies on.
pub fn renumber(requests: &mut [TimedRequest]) {
    for (i, t) in requests.iter_mut().enumerate() {
        t.req.id = i as u64;
    }
}

fn kind_token(req: &MemRequest) -> &'static str {
    match (req.is_write, req.stride.is_some(), req.narrow) {
        (false, false, false) => "R",
        (true, false, false) => "W",
        (false, true, _) => "SR",
        (true, true, _) => "SW",
        (false, false, true) => "NR",
        (true, false, true) => "NW",
    }
}

/// Renders `stream` in the replayable text format.
pub fn format_stream(stream: &StressStream) -> String {
    let c = &stream.config;
    let mut out = String::new();
    out.push_str(STRESS_TRACE_HEADER);
    out.push('\n');
    out.push_str(&format!(
        "config device={} cap={} hi={} lo={}{}\n",
        c.device.token(),
        c.starvation_cap,
        c.drain_hi,
        c.drain_lo,
        // Only serialized when set, so pre-existing recorded traces stay
        // byte-identical and replay through the default (tournament) path.
        if c.reference_scheduler {
            " sched=reference"
        } else {
            ""
        }
    ));
    for t in &stream.requests {
        let r = &t.req;
        out.push_str(&format!(
            "req {} {} {:#x}",
            t.arrival,
            kind_token(r),
            r.addr
        ));
        if let Some(s) = r.stride {
            let lane = match s.mode {
                sam_dram::moderegs::IoMode::Sx4(n) => n,
                _ => 0,
            };
            out.push_str(&format!(" gather={} lane={lane}", s.gather));
        }
        out.push('\n');
    }
    out
}

fn parse_kv<'a>(part: &'a str, key: &str, line: usize) -> Result<&'a str, String> {
    part.strip_prefix(key)
        .and_then(|r| r.strip_prefix('='))
        .ok_or_else(|| format!("line {line}: expected {key}=<value>, got '{part}'"))
}

fn parse_addr(tok: &str, line: usize) -> Result<u64, String> {
    let hex = tok
        .strip_prefix("0x")
        .ok_or_else(|| format!("line {line}: address '{tok}' must be 0x-prefixed hex"))?;
    u64::from_str_radix(hex, 16).map_err(|_| format!("line {line}: bad address '{tok}'"))
}

fn parse_num<T: std::str::FromStr>(tok: &str, what: &str, line: usize) -> Result<T, String> {
    tok.parse()
        .map_err(|_| format!("line {line}: bad {what} '{tok}'"))
}

/// Parses the text format back into a stream.
///
/// Accepts mis-tuned configs (see [`StressConfig::unchecked`]); rejects
/// anything else malformed, including arrivals that go backwards.
///
/// # Errors
///
/// Returns a message naming the offending line.
pub fn parse_stream(text: &str) -> Result<StressStream, String> {
    let mut lines = text.lines().enumerate();
    let (_, header) = lines.next().ok_or("empty stress trace")?;
    if header.trim() != STRESS_TRACE_HEADER {
        return Err(format!(
            "not a stress trace: expected '{STRESS_TRACE_HEADER}' header"
        ));
    }
    let mut config: Option<StressConfig> = None;
    let mut requests: Vec<TimedRequest> = Vec::new();
    let mut last_arrival: Cycle = 0;
    for (idx, raw) in lines {
        let line = idx + 1; // human 1-based
        let text = raw.trim();
        if text.is_empty() || text.starts_with('#') {
            continue;
        }
        let parts: Vec<&str> = text.split_whitespace().collect();
        match parts[0] {
            "config" => {
                if parts.len() != 5 && parts.len() != 6 {
                    return Err(format!(
                        "line {line}: config needs device/cap/hi/lo [sched]"
                    ));
                }
                let device = DeviceKind::from_token(parse_kv(parts[1], "device", line)?)
                    .ok_or_else(|| format!("line {line}: unknown device"))?;
                let cap = parse_num(parse_kv(parts[2], "cap", line)?, "cap", line)?;
                let hi = parse_num(parse_kv(parts[3], "hi", line)?, "hi", line)?;
                let lo = parse_num(parse_kv(parts[4], "lo", line)?, "lo", line)?;
                let mut cfg = StressConfig::unchecked(device, cap, hi, lo);
                if parts.len() == 6 {
                    cfg.reference_scheduler = match parse_kv(parts[5], "sched", line)? {
                        "reference" => true,
                        "tournament" => false,
                        other => {
                            return Err(format!("line {line}: unknown scheduler '{other}'"));
                        }
                    };
                }
                config = Some(cfg);
            }
            "req" => {
                if parts.len() < 4 {
                    return Err(format!("line {line}: req needs arrival, kind, addr"));
                }
                let arrival: Cycle = parse_num(parts[1], "arrival", line)?;
                if arrival < last_arrival {
                    return Err(format!("line {line}: arrival {arrival} goes backwards"));
                }
                last_arrival = arrival;
                let addr = parse_addr(parts[3], line)?;
                let id = requests.len() as u64;
                let req = match parts[2] {
                    "R" => MemRequest::read(id, addr),
                    "W" => MemRequest::write(id, addr),
                    "NR" => MemRequest::narrow_read(id, addr),
                    "NW" => MemRequest::narrow_write(id, addr),
                    "SR" | "SW" => {
                        if parts.len() != 6 {
                            return Err(format!("line {line}: stride req needs gather= lane="));
                        }
                        let gather: u8 =
                            parse_num(parse_kv(parts[4], "gather", line)?, "gather", line)?;
                        let lane: u8 = parse_num(parse_kv(parts[5], "lane", line)?, "lane", line)?;
                        let spec = StrideSpec {
                            gather,
                            mode: sam_dram::moderegs::IoMode::Sx4(lane),
                        };
                        if parts[2] == "SR" {
                            MemRequest::stride_read(id, addr, spec)
                        } else {
                            MemRequest::stride_write(id, addr, spec)
                        }
                    }
                    other => return Err(format!("line {line}: unknown request kind '{other}'")),
                };
                requests.push(TimedRequest { req, arrival });
            }
            other => return Err(format!("line {line}: unknown directive '{other}'")),
        }
    }
    let config = config.ok_or("stress trace has no config line")?;
    Ok(StressStream { config, requests })
}

/// Whether `text` starts with the stress-trace header (what `sam-check
/// replay` checks before parsing).
pub fn is_stress_trace(text: &str) -> bool {
    text.lines().next().map(str::trim) == Some(STRESS_TRACE_HEADER)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> StressStream {
        let mut requests = vec![
            TimedRequest {
                req: MemRequest::read(0, 0x0),
                arrival: 0,
            },
            TimedRequest {
                req: MemRequest::write(0, 0x2000),
                arrival: 4,
            },
            TimedRequest {
                req: MemRequest::stride_read(0, 0x4000, StrideSpec::ssc_dsd()),
                arrival: 8,
            },
            TimedRequest {
                req: MemRequest::narrow_read(0, 0x40),
                arrival: 8,
            },
            TimedRequest {
                req: MemRequest::stride_write(0, 0x8000, StrideSpec::ssc()),
                arrival: 12,
            },
            TimedRequest {
                req: MemRequest::narrow_write(0, 0x50),
                arrival: 20,
            },
        ];
        renumber(&mut requests);
        StressStream {
            config: StressConfig::ddr4_default(),
            requests,
        }
    }

    #[test]
    fn roundtrip_preserves_stream() {
        let s = sample();
        let text = format_stream(&s);
        assert!(is_stress_trace(&text));
        let back = parse_stream(&text).unwrap();
        assert_eq!(back, s);
        // And the rendering is a fixpoint.
        assert_eq!(format_stream(&back), text);
    }

    #[test]
    fn reference_scheduler_config_roundtrips() {
        let mut s = sample();
        s.config = s.config.with_reference_scheduler();
        let text = format_stream(&s);
        assert!(text.contains("sched=reference"));
        let back = parse_stream(&text).unwrap();
        assert_eq!(back, s);
        assert_eq!(format_stream(&back), text, "rendering is a fixpoint");
        // Bad scheduler tokens are rejected.
        assert!(parse_stream(&text.replace("sched=reference", "sched=magic")).is_err());
        // The explicit tournament spelling parses back to the default.
        let explicit = text.replace("sched=reference", "sched=tournament");
        assert!(!parse_stream(&explicit).unwrap().config.reference_scheduler);
    }

    #[test]
    fn mis_tuned_config_roundtrips_for_repros() {
        let mut s = sample();
        s.config = StressConfig::unchecked(DeviceKind::Ddr4, 4096, 8, 28);
        assert!(s.config.validate().is_err());
        let back = parse_stream(&format_stream(&s)).unwrap();
        assert_eq!(back.config, s.config);
    }

    #[test]
    fn malformed_lines_are_rejected() {
        let ok = format_stream(&sample());
        for (broken, why) in [
            (ok.replace("req 20 NW", "req 2 NW"), "backwards arrival"),
            (ok.replace("# sam-stress trace v1", "# other"), "bad header"),
            (ok.replace("0x2000", "2000"), "non-hex address"),
            (
                ok.replace("config device=ddr4", "config device=sram"),
                "bad device",
            ),
            (ok.replace("req 4 W", "req 4 Q"), "bad kind"),
        ] {
            assert!(parse_stream(&broken).is_err(), "{why} accepted");
        }
        assert!(parse_stream("").is_err());
        // A config-less body is rejected too.
        assert!(parse_stream("# sam-stress trace v1\nreq 0 R 0x0\n").is_err());
    }

    #[test]
    fn protocol_traces_are_not_stress_traces() {
        assert!(!is_stress_trace("# sam-check trace v1\ngeometry ..."));
    }
}
