//! In-memory command recording for the oracle.
//!
//! A [`TraceRecorder`] is a [`CommandObserver`] that keeps every command a
//! device accepts, in issue order, so the stream can be re-issued or
//! replayed through [`crate::oracle::replay`] after the run.

use sam_dram::command::Command;
use sam_dram::observe::CommandObserver;
use sam_dram::Cycle;

use crate::oracle::OracleConfig;

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

    /// The configuration the commands were recorded under.
    pub fn config(&self) -> &OracleConfig {
        &self.cfg
    }

    /// The recorded commands, in issue order.
    pub fn commands(&self) -> &[(Command, Cycle)] {
        &self.log
    }
}

impl CommandObserver for TraceRecorder {
    fn on_command(&mut self, cmd: &Command, at: Cycle) {
        self.log.push((*cmd, at));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::replay;
    use crate::Constraint;

    #[test]
    fn recorded_stream_replays_through_the_oracle() {
        let mut rec = TraceRecorder::new(OracleConfig::ddr4_server().with_refresh_checking(false));
        // RD at tRCD-1 after the ACT.
        rec.on_command(&Command::act(0, 0, 0, 7), 0);
        rec.on_command(&Command::read(0, 0, 0, 7, 0, false), 16);
        assert_eq!(rec.commands().len(), 2);
        let violations = replay(rec.config().clone(), rec.commands());
        assert!(
            violations.iter().any(|v| v.constraint == Constraint::TRcd),
            "{violations:?}"
        );
    }
}
