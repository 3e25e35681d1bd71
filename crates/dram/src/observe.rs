//! Command-stream observation hook for external conformance checkers.
//!
//! The device model exposes a single narrow tap: every command that
//! [`crate::device::MemoryDevice::issue`] *accepts* is reported to an
//! attached [`CommandObserver`] together with its issue cycle. Rejected
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

    /// Like [`Self::on_command`], but also carries the issuing core of the
    /// request the command serves (`None` for background work such as
    /// refresh, or when the controller above never stamps an origin).
    ///
    /// Defaulted to drop the origin and forward, so observers that only
    /// care about the command stream implement `on_command` alone.
    fn on_command_from(&mut self, cmd: &Command, at: Cycle, origin: Option<u8>) {
        let _ = origin;
        self.on_command(cmd, at);
    }
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
    origin: Option<u8>,
}

impl std::fmt::Debug for ObserverSlot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ObserverSlot")
            .field("attached", &self.observer.is_some())
            .finish()
    }
}

impl ObserverSlot {
    /// Reports an accepted command to the attached observer, if any,
    /// together with the current origin stamp.
    #[inline]
    pub(crate) fn notify(&mut self, cmd: &Command, at: Cycle) {
        if let Some(obs) = &self.observer {
            obs.lock()
                .expect("observer lock poisoned")
                .on_command_from(cmd, at, self.origin);
        }
    }

    /// Stamps the origin core reported with subsequently accepted commands
    /// (`None` clears it for background work like refresh).
    #[inline]
    pub(crate) fn set_origin(&mut self, origin: Option<u8>) {
        self.origin = origin;
    }

    /// Attaches `observer`, replacing any previous one.
    pub fn attach(&mut self, observer: SharedObserver) {
        self.observer = Some(observer);
    }
}

/// Broadcasts each command to several observers in attachment order.
///
/// The device slot holds exactly one observer; when a run wants both the
/// protocol oracle (`--checked`) and the trace lane recorder, wrap them in
/// a fanout and attach that.
#[derive(Default)]
pub struct FanoutObserver {
    observers: Vec<SharedObserver>,
}

impl FanoutObserver {
    /// An empty fanout; harmless to attach, reports to nobody.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `observer` to the broadcast list.
    pub fn push(&mut self, observer: SharedObserver) {
        self.observers.push(observer);
    }

    /// Number of attached observers.
    pub fn len(&self) -> usize {
        self.observers.len()
    }

    /// Whether the broadcast list is empty.
    pub fn is_empty(&self) -> bool {
        self.observers.is_empty()
    }
}

impl std::fmt::Debug for FanoutObserver {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FanoutObserver")
            .field("observers", &self.observers.len())
            .finish()
    }
}

impl CommandObserver for FanoutObserver {
    fn on_command(&mut self, cmd: &Command, at: Cycle) {
        for obs in &self.observers {
            obs.lock()
                .expect("observer lock poisoned")
                .on_command(cmd, at);
        }
    }

    fn on_command_from(&mut self, cmd: &Command, at: Cycle, origin: Option<u8>) {
        for obs in &self.observers {
            obs.lock()
                .expect("observer lock poisoned")
                .on_command_from(cmd, at, origin);
        }
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

    /// Origin stamps flow through the slot to observers that opt into the
    /// provenance-aware callback, and `FanoutObserver` forwards them
    /// verbatim to every child.
    #[test]
    fn origin_stamp_reaches_provenance_aware_observers() {
        struct Origins(Vec<Option<u8>>);
        impl CommandObserver for Origins {
            fn on_command(&mut self, _cmd: &Command, _at: Cycle) {
                panic!("provenance-aware observer should get on_command_from");
            }
            fn on_command_from(&mut self, _cmd: &Command, _at: Cycle, origin: Option<u8>) {
                self.0.push(origin);
            }
        }
        let seen = Arc::new(Mutex::new(Origins(Vec::new())));
        let mut fan = FanoutObserver::new();
        fan.push(seen.clone());
        let mut slot = ObserverSlot::default();
        slot.attach(Arc::new(Mutex::new(fan)));
        let cmd = Command::act(0, 0, 0, 1);
        slot.notify(&cmd, 1);
        slot.set_origin(Some(3));
        slot.notify(&cmd, 2);
        slot.set_origin(None);
        slot.notify(&cmd, 3);
        assert_eq!(seen.lock().unwrap().0, vec![None, Some(3), None]);
    }

    /// The whole point of the shared-observer representation: a slot (and
    /// thus a device/controller/system owning one) crosses thread bounds.
    #[test]
    fn observer_slot_is_send() {
        fn assert_send<T: Send>() {}
        assert_send::<ObserverSlot>();
    }

    #[test]
    fn fanout_broadcasts_in_order() {
        struct Tag(Arc<Mutex<Vec<u8>>>, u8);
        impl CommandObserver for Tag {
            fn on_command(&mut self, _cmd: &Command, _at: Cycle) {
                self.0.lock().unwrap().push(self.1);
            }
        }
        let order = Arc::new(Mutex::new(Vec::new()));
        let mut fan = FanoutObserver::new();
        assert!(fan.is_empty());
        fan.push(Arc::new(Mutex::new(Tag(order.clone(), 1))));
        fan.push(Arc::new(Mutex::new(Tag(order.clone(), 2))));
        assert_eq!(fan.len(), 2);
        let cmd = Command::act(0, 0, 0, 1);
        fan.on_command(&cmd, 3);
        fan.on_command(&cmd, 4);
        assert_eq!(*order.lock().unwrap(), vec![1, 2, 1, 2]);
    }
}
