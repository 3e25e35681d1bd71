//! Command-stream observation hook for external conformance checkers.
//!
//! The device model exposes a single narrow tap: every command that
//! [`crate::device::MemoryDevice::issue`] or
//! [`crate::device::MemoryDevice::issue_earliest`] *accepts* is reported
//! to an attached [`CommandObserver`] together with its issue cycle. Rejected
//! commands (timing/state/geometry errors) are never reported — the
//! observer sees exactly the command stream the device executed.
//!
//! The hook is always compiled. With no observer attached, `notify` costs
//! one `Option` test per accepted command: over 10 alternating golden-scale
//! fig12 pairs on a 2-core host, this build and one with the hook compiled
//! out had medians of 0.79 s and 0.80 s, each faster in 5 pairs
//! (DESIGN.md §7).

use crate::command::Command;
use crate::Cycle;

use std::sync::{Arc, Mutex};

/// A sink for the accepted command stream of one memory channel.
///
/// Implementors (e.g. the `sam-check` protocol oracle or trace recorder)
/// receive every command in issue order, which for this controller is not
/// necessarily cycle order: the scheduler back-dates commands to request
/// arrival times, so observers must be prepared to reorder by cycle.
///
/// Observers are `Send` so that an instrumented device (and everything
/// that owns one, up to a whole simulated system) stays `Send` and can be
/// constructed and driven inside the bench harness's sweep workers.
pub trait CommandObserver: Send {
    /// Called once per accepted command, after the device state update.
    fn on_command(&mut self, cmd: &Command, at: Cycle);
}

/// Shared handle to an attached observer.
///
/// `Arc<Mutex<..>>` rather than `Rc<RefCell<..>>` keeps the whole run path
/// `Send`; the lock is uncontended (one device per worker thread) so the
/// cost is a few nanoseconds per accepted command, paid only when an
/// observer is attached.
pub type SharedObserver = Arc<Mutex<dyn CommandObserver>>;

/// Storage for an optional attached observer.
///
/// Empty by default, so an unobserved device pays one `Option` test per
/// accepted command. A cloned device shares the same observer — clones are
/// used by the bench harness to fork pre-warmed systems, and a shared sink
/// keeps the full stream visible.
#[derive(Clone, Default)]
pub struct ObserverSlot {
    observer: Option<SharedObserver>,
}

impl std::fmt::Debug for ObserverSlot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ObserverSlot")
            .field("attached", &self.observer.is_some())
            .finish()
    }
}

impl ObserverSlot {
    /// Reports an accepted command to the attached observer, if any.
    #[inline]
    pub(crate) fn notify(&mut self, cmd: &Command, at: Cycle) {
        if let Some(obs) = &self.observer {
            obs.lock()
                .expect("observer lock poisoned")
                .on_command(cmd, at);
        }
    }

    /// Attaches `observer`, replacing any previous one.
    pub fn attach(&mut self, observer: SharedObserver) {
        self.observer = Some(observer);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slot_debug_and_default() {
        let slot = ObserverSlot::default();
        let s = format!("{slot:?}");
        assert!(s.contains("ObserverSlot"));
    }

    #[test]
    fn notify_reaches_attached_observer() {
        struct Counter(usize);
        impl CommandObserver for Counter {
            fn on_command(&mut self, _cmd: &Command, _at: Cycle) {
                self.0 += 1;
            }
        }
        let counter = Arc::new(Mutex::new(Counter(0)));
        let mut slot = ObserverSlot::default();
        slot.attach(counter.clone());
        let cmd = Command::act(0, 0, 0, 1);
        slot.notify(&cmd, 5);
        slot.notify(&cmd, 6);
        assert_eq!(counter.lock().unwrap().0, 2);
    }

    /// The whole point of the shared-observer representation: a slot (and
    /// thus a device/controller/system owning one) crosses thread bounds.
    #[test]
    fn observer_slot_is_send() {
        fn assert_send<T: Send>() {}
        assert_send::<ObserverSlot>();
    }
}
