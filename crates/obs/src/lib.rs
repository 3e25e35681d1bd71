//! Host-side self-observability for the simulator.
//!
//! Everything else in this workspace observes the *simulated* machine;
//! this crate observes the *simulator*: where its wall-clock goes
//! ([`profile`]) and what a long sweep is doing right now
//! ([`heartbeat`]). The profile report's counters are not kept here:
//! the caller sums them from the per-run stats its sweep returns and
//! hands them to [`profile::report_json`].
//!
//! Two guarantees shape the design:
//!
//! 1. **Byte-identity.** Nothing here may influence stdout, the
//!    `results/*.json` metrics documents, or trace bytes. The simulator
//!    never reads anything back from this crate, the profiler's output
//!    goes to its own `results/<bin>.profile.json`, and heartbeats print
//!    to stderr only.
//! 2. **Disabled means one load.** Without `--profile` a phase probe is a
//!    single relaxed atomic load and a predicted branch.
//!
//! The phase profiler's report provably telescopes: every node's time is
//! at least the sum of its children, and the report total is exactly the
//! sum of its roots ([`profile::lint_profile_json`] enforces both on the
//! emitted document).

#![warn(missing_docs)]

pub mod heartbeat;
pub mod profile;
