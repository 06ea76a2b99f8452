//! What the mem fabric's backstop thread sleeps on: a [`Parker`] for
//! rails that say nothing of their own accord.

use std::time::Duration;

use parking_lot::{Condvar, Mutex};

use super::Parker;

/// Edge-triggered wakeup: a boolean under a mutex plus a condvar. Kicks
/// that land while the waiter is busy are remembered (the flag stays
/// set), so no wakeup is ever lost to the check-then-wait race — and
/// cost no `futex` call: the condvar is notified only when someone is
/// parked on it, which the same mutex says.
#[derive(Default)]
pub struct WorkSignal {
    state: Mutex<SignalState>,
    cv: Condvar,
}

#[derive(Default)]
struct SignalState {
    pending: bool,
    /// Threads inside [`WorkSignal::wait`]'s condvar wait.
    parked: usize,
}

impl WorkSignal {
    /// Signal the waiter: sets the flag and, if it is parked, wakes it.
    pub fn kick(&self) {
        let mut st = self.state.lock();
        st.pending = true;
        let parked = st.parked > 0;
        drop(st);
        if parked {
            self.cv.notify_one();
        }
    }

    /// Wait until kicked or `timeout` elapses; consumes the pending kick.
    /// Returns true when a kick arrived (before or during the wait).
    pub fn wait(&self, timeout: Duration) -> bool {
        let mut st = self.state.lock();
        if !st.pending {
            st.parked += 1;
            self.cv.wait_for(&mut st, timeout);
            st.parked -= 1;
        }
        std::mem::take(&mut st.pending)
    }
}

/// For rails that say nothing of their own accord, so that every arrival
/// is reported by a kick, with a pass owed first — and not at all while
/// a lease is held ([`super::Serial::arrived`]): a leased park is a park,
/// and a wake-up is never the rails' report.
impl Parker for WorkSignal {
    fn park(&self, timeout: Duration) {
        self.wait(timeout);
    }

    fn take_ready(&self) -> bool {
        false
    }

    fn kick(&self) {
        WorkSignal::kick(self);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::time::Instant;

    #[test]
    fn kick_before_wait_is_not_lost() {
        let s = WorkSignal::default();
        s.kick();
        // The kick predates the wait: wait must return immediately and
        // report it (the lost-wakeup race of a bare condvar).
        let t0 = Instant::now();
        assert!(s.wait(Duration::from_secs(5)));
        assert!(t0.elapsed() < Duration::from_secs(1));
        // Consumed: a second wait times out.
        assert!(!s.wait(Duration::from_millis(1)));
    }

    /// A kick notifies the condvar only when someone is parked on it, so
    /// the parked waiter must still be woken: the kick is sent once the
    /// waiter is seen inside its wait, and ends it long before its timeout.
    #[test]
    fn kick_wakes_a_parked_waiter() {
        let s = Arc::new(WorkSignal::default());
        let waiter = {
            let s = s.clone();
            std::thread::spawn(move || s.wait(Duration::from_secs(30)))
        };
        while s.state.lock().parked == 0 {
            std::thread::yield_now();
        }
        let t0 = Instant::now();
        s.kick();
        assert!(waiter.join().unwrap(), "the parked wait saw the kick");
        assert!(
            t0.elapsed() < Duration::from_secs(5),
            "woken, not timed out"
        );
        assert_eq!(s.state.lock().parked, 0);
    }
}
