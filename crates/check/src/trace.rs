//! Offline command traces for the oracle.
//!
//! A trace is a line-oriented text file carrying the device geometry, the
//! timing parameters, and every command with its issue cycle, so a run can
//! be checked (or inspected) without re-running the simulator:
//!
//! ```text
//! # sam-check trace v1
//! geometry ranks=2 bank_groups=4 banks_per_group=4 rows_per_bank=131072 cols_per_row=128 refresh=on
//! timing substrate=dram cl=17 cwl=12 rcd=17 ... refi=9360 rfc=420
//! 0 ACT 0 1 2 99
//! 17 RD 0 1 2 99 5
//! 25 MRS 0 sx4_1
//! ```
//!
//! Data-command mnemonics compose `S` (stride mode) and `N` (narrow,
//! sub-ranked; takes a trailing lane operand): `RD`, `SRD`, `RDN`, `SRDN`,
//! and the `WR` equivalents. Lines are emitted in issue order, which the
//! oracle requires for its mode-register checks.

use sam_dram::command::{CmdKind, Command};
use sam_dram::moderegs::IoMode;
use sam_dram::observe::CommandObserver;
use sam_dram::timing::{Substrate, TimingParams};
use sam_dram::Cycle;

use crate::oracle::{replay, OracleConfig};
use crate::Violation;

/// Records a command stream (plus its configuration) for later replay.
#[derive(Debug, Clone)]
pub struct TraceRecorder {
    cfg: OracleConfig,
    log: Vec<(Command, Cycle)>,
}

impl TraceRecorder {
    /// Creates a recorder for the given configuration.
    pub fn new(cfg: OracleConfig) -> Self {
        Self {
            cfg,
            log: Vec::new(),
        }
    }

    /// The recorded commands, in issue order.
    pub fn commands(&self) -> &[(Command, Cycle)] {
        &self.log
    }

    /// Serializes the trace to the text format.
    pub fn to_text(&self) -> String {
        format_trace(&self.cfg, &self.log)
    }
}

impl CommandObserver for TraceRecorder {
    fn on_command(&mut self, cmd: &Command, at: Cycle) {
        self.log.push((*cmd, at));
    }
}

fn mode_token(mode: IoMode) -> String {
    match mode {
        IoMode::X4 => "x4".into(),
        IoMode::X8 => "x8".into(),
        IoMode::X16 => "x16".into(),
        IoMode::Sx4(n) => format!("sx4_{n}"),
    }
}

fn parse_mode(token: &str) -> Result<IoMode, String> {
    match token {
        "x4" => Ok(IoMode::X4),
        "x8" => Ok(IoMode::X8),
        "x16" => Ok(IoMode::X16),
        _ => {
            if let Some(n) = token.strip_prefix("sx4_") {
                let n: u8 = n.parse().map_err(|_| format!("bad stride mode {token}"))?;
                if n < 4 {
                    return Ok(IoMode::Sx4(n));
                }
            }
            Err(format!("unknown I/O mode {token}"))
        }
    }
}

/// Serializes a configuration and command stream to the trace format.
pub fn format_trace(cfg: &OracleConfig, cmds: &[(Command, Cycle)]) -> String {
    let mut out = String::new();
    out.push_str("# sam-check trace v1\n");
    out.push_str(&format!(
        "geometry ranks={} bank_groups={} banks_per_group={} rows_per_bank={} cols_per_row={} refresh={}\n",
        cfg.ranks,
        cfg.bank_groups,
        cfg.banks_per_group,
        cfg.rows_per_bank,
        cfg.cols_per_row,
        if cfg.check_refresh { "on" } else { "off" }
    ));
    let t = &cfg.timing;
    let substrate = match t.substrate {
        Substrate::Dram => "dram",
        Substrate::Rram => "rram",
    };
    let refi = if t.refi == u64::MAX {
        "none".to_string()
    } else {
        t.refi.to_string()
    };
    out.push_str(&format!(
        "timing substrate={substrate} cl={} cwl={} rcd={} rp={} ras={} rc={} rtp={} wr={} \
         wtr_s={} wtr_l={} ccd_s={} ccd_l={} rrd_s={} rrd_l={} faw={} rtr={} wtw={} burst={} \
         refi={refi} rfc={}\n",
        t.cl,
        t.cwl,
        t.rcd,
        t.rp,
        t.ras,
        t.rc,
        t.rtp,
        t.wr,
        t.wtr_s,
        t.wtr_l,
        t.ccd_s,
        t.ccd_l,
        t.rrd_s,
        t.rrd_l,
        t.faw,
        t.rtr,
        t.wtw,
        t.burst,
        t.rfc,
    ));
    for (cmd, at) in cmds {
        out.push_str(&format_command(cmd, *at));
        out.push('\n');
    }
    out
}

fn format_command(cmd: &Command, at: Cycle) -> String {
    match cmd.kind {
        CmdKind::Act => format!(
            "{at} ACT {} {} {} {}",
            cmd.rank, cmd.bank_group, cmd.bank, cmd.row
        ),
        CmdKind::Pre => format!("{at} PRE {} {} {}", cmd.rank, cmd.bank_group, cmd.bank),
        CmdKind::Rd { stride, narrow } | CmdKind::Wr { stride, narrow } => {
            let mut mn = String::new();
            if stride {
                mn.push('S');
            }
            mn.push_str(if cmd.is_read() { "RD" } else { "WR" });
            if narrow.is_some() {
                mn.push('N');
            }
            let mut line = format!(
                "{at} {mn} {} {} {} {} {}",
                cmd.rank, cmd.bank_group, cmd.bank, cmd.row, cmd.col
            );
            if let Some(lane) = narrow {
                line.push_str(&format!(" {lane}"));
            }
            line
        }
        CmdKind::Ref => format!("{at} REF {}", cmd.rank),
        CmdKind::Mrs(mode) => format!("{at} MRS {} {}", cmd.rank, mode_token(mode)),
    }
}

fn kv(pairs: &mut std::collections::BTreeMap<String, String>, token: &str) -> Result<(), String> {
    let (k, v) = token
        .split_once('=')
        .ok_or_else(|| format!("expected key=value, got {token}"))?;
    pairs.insert(k.to_string(), v.to_string());
    Ok(())
}

fn req_num<T: std::str::FromStr>(
    pairs: &std::collections::BTreeMap<String, String>,
    key: &str,
) -> Result<T, String> {
    pairs
        .get(key)
        .ok_or_else(|| format!("missing {key}"))?
        .parse()
        .map_err(|_| format!("bad value for {key}"))
}

/// Largest bank count (`ranks × bank_groups × banks_per_group`) a trace
/// may declare: the oracle allocates per-bank state up front, so a forged
/// geometry must not size that allocation.
const MAX_TRACE_BANKS: usize = 1 << 12;

/// Largest command cycle or timing value a trace may carry (2^48, about
/// 65 hours at 1.2 GHz): the oracle adds a few of them together, and
/// every such sum must stay far below `u64::MAX`.
const MAX_TRACE_CYCLE: Cycle = 1 << 48;

/// Parses a trace back into its configuration and command stream.
///
/// A trace is external input, so every declared quantity is bounded:
/// the geometry's five counts must be nonzero and the bank count
/// `ranks × bank_groups × banks_per_group` at most 4096; command cycles
/// and timing values must be at most 2^48 (`refi=none` spells "no
/// refresh"); narrow lanes must be below 4.
///
/// # Errors
///
/// Returns a description of the first malformed line or out-of-range
/// field.
pub fn parse_trace(text: &str) -> Result<(OracleConfig, Vec<(Command, Cycle)>), String> {
    let mut geometry: Option<std::collections::BTreeMap<String, String>> = None;
    let mut timing: Option<std::collections::BTreeMap<String, String>> = None;
    let mut cmds = Vec::new();
    for (ln, raw) in text.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let err = |msg: String| format!("line {}: {msg}", ln + 1);
        let mut tokens = line.split_whitespace();
        let first = tokens.next().unwrap();
        match first {
            "geometry" | "timing" => {
                let mut pairs = std::collections::BTreeMap::new();
                for token in tokens {
                    kv(&mut pairs, token).map_err(err)?;
                }
                if first == "geometry" {
                    geometry = Some(pairs);
                } else {
                    timing = Some(pairs);
                }
            }
            _ => {
                let at: Cycle = first
                    .parse()
                    .map_err(|_| err(format!("bad cycle {first}")))?;
                if at > MAX_TRACE_CYCLE {
                    return Err(err(format!("cycle {at} exceeds {MAX_TRACE_CYCLE}")));
                }
                let rest: Vec<&str> = tokens.collect();
                let cmd = parse_command(&rest).map_err(err)?;
                cmds.push((cmd, at));
            }
        }
    }
    let geometry = geometry.ok_or("missing geometry line")?;
    let timing_kv = timing.ok_or("missing timing line")?;
    let substrate = match timing_kv.get("substrate").map(String::as_str) {
        Some("dram") | None => Substrate::Dram,
        Some("rram") => Substrate::Rram,
        Some(other) => return Err(format!("unknown substrate {other}")),
    };
    let mut t = match substrate {
        Substrate::Dram => TimingParams::ddr4_2400(),
        Substrate::Rram => TimingParams::rram(),
    };
    for (key, field) in [
        ("cl", &mut t.cl as &mut u64),
        ("cwl", &mut t.cwl),
        ("rcd", &mut t.rcd),
        ("rp", &mut t.rp),
        ("ras", &mut t.ras),
        ("rc", &mut t.rc),
        ("rtp", &mut t.rtp),
        ("wr", &mut t.wr),
        ("wtr_s", &mut t.wtr_s),
        ("wtr_l", &mut t.wtr_l),
        ("ccd_s", &mut t.ccd_s),
        ("ccd_l", &mut t.ccd_l),
        ("rrd_s", &mut t.rrd_s),
        ("rrd_l", &mut t.rrd_l),
        ("faw", &mut t.faw),
        ("rtr", &mut t.rtr),
        ("wtw", &mut t.wtw),
        ("burst", &mut t.burst),
        ("rfc", &mut t.rfc),
    ] {
        if let Some(v) = timing_kv.get(key) {
            *field = timing_value(key, v)?;
        }
    }
    t.refi = match timing_kv.get("refi").map(String::as_str) {
        Some("none") => u64::MAX,
        Some(v) => timing_value("refi", v)?,
        None => t.refi,
    };
    let check_refresh = match geometry.get("refresh").map(String::as_str) {
        Some("on") | None => t.refi != u64::MAX,
        Some("off") => false,
        Some(other) => return Err(format!("bad refresh flag {other}")),
    };
    let count = |key: &str| -> Result<usize, String> {
        let n: usize = req_num(&geometry, key)?;
        if n == 0 || n > MAX_TRACE_BANKS {
            return Err(format!(
                "geometry {key}={n} is out of range 1..={MAX_TRACE_BANKS}"
            ));
        }
        Ok(n)
    };
    let (ranks, bank_groups, banks_per_group) = (
        count("ranks")?,
        count("bank_groups")?,
        count("banks_per_group")?,
    );
    let banks = ranks
        .checked_mul(bank_groups)
        .and_then(|n| n.checked_mul(banks_per_group));
    if banks.is_none_or(|n| n > MAX_TRACE_BANKS) {
        return Err(format!(
            "geometry ranks × bank_groups × banks_per_group = \
             {ranks} × {bank_groups} × {banks_per_group} exceeds {MAX_TRACE_BANKS} banks"
        ));
    }
    let nonzero = |key: &str| -> Result<u64, String> {
        match req_num(&geometry, key)? {
            0 => Err(format!("geometry {key}=0 is out of range")),
            n => Ok(n),
        }
    };
    let cfg = OracleConfig {
        timing: t,
        ranks,
        bank_groups,
        banks_per_group,
        rows_per_bank: nonzero("rows_per_bank")?,
        cols_per_row: nonzero("cols_per_row")?,
        check_refresh,
    };
    Ok((cfg, cmds))
}

/// Parses one timing field, bounded by [`MAX_TRACE_CYCLE`].
fn timing_value(key: &str, v: &str) -> Result<u64, String> {
    match v.parse::<u64>() {
        Ok(n) if n <= MAX_TRACE_CYCLE => Ok(n),
        Ok(n) => Err(format!("timing {key}={n} exceeds {MAX_TRACE_CYCLE}")),
        Err(_) => Err(format!("bad value for {key}")),
    }
}

fn parse_command(tokens: &[&str]) -> Result<Command, String> {
    let mn = *tokens.first().ok_or("empty command")?;
    let num = |i: usize| -> Result<u64, String> {
        tokens
            .get(i)
            .ok_or_else(|| format!("{mn}: missing operand {i}"))?
            .parse::<u64>()
            .map_err(|_| format!("{mn}: bad operand {i}"))
    };
    let lane = || match num(6)? {
        l @ 0..=3 => Ok(l as u8),
        l => Err(format!("{mn}: lane {l} is out of range 0..=3")),
    };
    match mn {
        "ACT" => Ok(Command::act(
            num(1)? as usize,
            num(2)? as usize,
            num(3)? as usize,
            num(4)?,
        )),
        "PRE" => Ok(Command::pre(
            num(1)? as usize,
            num(2)? as usize,
            num(3)? as usize,
        )),
        "REF" => Ok(Command::refresh(num(1)? as usize)),
        "MRS" => {
            let mode = parse_mode(tokens.get(2).ok_or("MRS: missing mode")?)?;
            Ok(Command::mrs(num(1)? as usize, mode))
        }
        _ => {
            let (stride, rest) = match mn.strip_prefix('S') {
                Some(rest) => (true, rest),
                None => (false, mn),
            };
            let (write, narrow) = match rest {
                "RD" => (false, false),
                "RDN" => (false, true),
                "WR" => (true, false),
                "WRN" => (true, true),
                _ => return Err(format!("unknown command {mn}")),
            };
            let (rank, bg, bank) = (num(1)? as usize, num(2)? as usize, num(3)? as usize);
            let (row, col) = (num(4)?, num(5)?);
            let kind = if write {
                CmdKind::Wr {
                    stride,
                    narrow: narrow.then(lane).transpose()?,
                }
            } else {
                CmdKind::Rd {
                    stride,
                    narrow: narrow.then(lane).transpose()?,
                }
            };
            Ok(Command {
                kind,
                rank,
                bank_group: bg,
                bank,
                row,
                col,
            })
        }
    }
}

/// Parses and replays a trace, returning the oracle's verdicts.
///
/// # Errors
///
/// Returns a parse error description for malformed traces.
pub fn replay_text(text: &str) -> Result<Vec<Violation>, String> {
    let (cfg, cmds) = parse_trace(text)?;
    Ok(replay(cfg, &cmds))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(cmds: Vec<(Command, Cycle)>) {
        let cfg = OracleConfig::ddr4_server();
        let text = format_trace(&cfg, &cmds);
        let (cfg2, cmds2) = parse_trace(&text).expect("parse");
        assert_eq!(cmds, cmds2);
        assert_eq!(cfg.ranks, cfg2.ranks);
        assert_eq!(cfg.timing, cfg2.timing);
        assert_eq!(cfg.check_refresh, cfg2.check_refresh);
    }

    #[test]
    fn trace_roundtrips_every_command_kind() {
        roundtrip(vec![
            (Command::act(0, 1, 2, 99), 0),
            (Command::read(0, 1, 2, 99, 5, false), 17),
            (Command::write(0, 1, 2, 99, 6, true), 30),
            (Command::read_narrow(1, 0, 0, 4, 7, 3), 40),
            (Command::write_narrow(1, 0, 0, 4, 8, 0), 50),
            (Command::pre(0, 1, 2), 60),
            (Command::refresh(1), 70),
            (Command::mrs(0, IoMode::Sx4(2)), 80),
            (Command::mrs(0, IoMode::X16), 90),
        ]);
    }

    #[test]
    fn rram_timing_roundtrips_with_refi_none() {
        let cfg = OracleConfig::from_device(&sam_dram::device::DeviceConfig::rram_server());
        let text = format_trace(&cfg, &[]);
        assert!(text.contains("substrate=rram"), "{text}");
        assert!(text.contains("refi=none"), "{text}");
        assert!(text.contains("refresh=off"), "{text}");
        let (cfg2, _) = parse_trace(&text).expect("parse");
        assert_eq!(cfg.timing, cfg2.timing);
        assert!(!cfg2.check_refresh);
    }

    #[test]
    fn parse_rejects_malformed_lines() {
        assert!(parse_trace("geometry ranks=2\nbogus line here").is_err());
        assert!(parse_trace("12 FOO 0 0 0").is_err());
        let missing_timing = "geometry ranks=2 bank_groups=4 banks_per_group=4 \
                              rows_per_bank=16 cols_per_row=16 refresh=off";
        assert!(parse_trace(missing_timing).is_err());
    }

    #[test]
    fn comments_and_blanks_are_ignored() {
        let cfg = OracleConfig::ddr4_server();
        let mut text = format_trace(&cfg, &[(Command::act(0, 0, 0, 1), 5)]);
        text.push_str("\n# trailing comment\n\n");
        let (_, cmds) = parse_trace(&text).expect("parse");
        assert_eq!(cmds.len(), 1);
    }

    #[test]
    fn replay_text_flags_a_bad_trace() {
        let cfg = OracleConfig::ddr4_server().with_refresh_checking(false);
        // RD at tRCD-1 after the ACT.
        let cmds = vec![
            (Command::act(0, 0, 0, 7), 0),
            (Command::read(0, 0, 0, 7, 0, false), 16),
        ];
        let text = format_trace(&cfg, &cmds);
        let violations = replay_text(&text).expect("parse");
        assert!(
            violations
                .iter()
                .any(|v| v.constraint == crate::Constraint::TRcd),
            "{violations:?}"
        );
    }
}
