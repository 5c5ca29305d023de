//! Process-wide SIGINT latch for graceful campaign draining.
//!
//! The CLI installs this handler only for journaled campaign runs
//! (`--resume`): the first Ctrl-C sets a flag that the chunked campaign
//! loop checks between chunks — the in-flight chunk drains to completion,
//! the journal is flushed, and a valid partial report marked
//! `interrupted: true` is written with resume instructions. The handler
//! then restores the default disposition, so a second Ctrl-C hard-kills
//! the process the way an impatient operator expects.
//!
//! The handler body is async-signal-safe: one atomic store plus one
//! `signal(2)` call, no allocation, no locking. This module carries the
//! only `allow(unsafe_code)` in the workspace — a two-line libc `signal`
//! binding; everything else in the crate is `deny(unsafe_code)`.
//!
//! Tests never touch this global latch: campaign entry points accept a
//! local `Arc<AtomicBool>` via
//! [`DurabilityOptions::interrupt`](crate::DurabilityOptions), so parallel
//! tests cannot race each other through process state. [`trigger`] and
//! [`reset`] exist for single-process smoke use, not for test isolation.

use std::sync::atomic::{AtomicBool, Ordering};

static INTERRUPTED: AtomicBool = AtomicBool::new(false);

#[cfg(unix)]
mod sys {
    use super::{Ordering, INTERRUPTED};

    const SIGINT: i32 = 2;
    /// `SIG_DFL` is the null handler pointer on every POSIX platform.
    const SIG_DFL: usize = 0;

    #[allow(unsafe_code)]
    extern "C" {
        /// POSIX `signal(2)`. Adequate here: one signal, one process-wide
        /// latch, no need for `sigaction` flags.
        fn signal(signum: i32, handler: usize) -> usize;
    }

    extern "C" fn on_sigint(_sig: i32) {
        INTERRUPTED.store(true, Ordering::SeqCst);
        // Restore the default disposition so a second Ctrl-C kills the
        // process instead of being latched again. Both the store above and
        // this call are async-signal-safe.
        #[allow(unsafe_code)]
        unsafe {
            signal(SIGINT, SIG_DFL);
        }
    }

    pub fn install() {
        #[allow(unsafe_code)]
        unsafe {
            signal(SIGINT, on_sigint as extern "C" fn(i32) as usize);
        }
    }
}

#[cfg(not(unix))]
mod sys {
    /// SIGINT latching is a POSIX feature; elsewhere Ctrl-C keeps its
    /// default process-killing behaviour and campaigns rely on the journal
    /// alone for durability.
    pub fn install() {}
}

/// Arms the SIGINT latch: the next Ctrl-C sets the interrupted flag and
/// restores the default handler (so a second Ctrl-C hard-kills). Call once
/// from the CLI before starting a journaled campaign; never from library
/// code or tests.
pub fn install() {
    sys::install();
}

/// True once SIGINT has been received (or [`trigger`] called) in this
/// process.
pub fn interrupted() -> bool {
    INTERRUPTED.load(Ordering::SeqCst)
}

/// Sets the latch as if SIGINT had arrived. For single-process smoke use.
pub fn trigger() {
    INTERRUPTED.store(true, Ordering::SeqCst);
}

/// Clears the latch. For single-process smoke use.
pub fn reset() {
    INTERRUPTED.store(false, Ordering::SeqCst);
}

/// The latch/drain lifecycle, modelled as a pure state machine so the
/// signal-handling policy is testable without delivering real signals.
///
/// The process-wide handler above is the I/O shell around exactly this
/// logic: [`install`] is [`Latch::arm`], a delivered SIGINT is
/// [`Latch::signal`], and the campaign loop polling [`interrupted`] is
/// [`Latch::interrupted`]. The invariants under test:
///
/// - a signal before arming keeps the default (process-killing)
///   disposition — nothing latches;
/// - the first signal after arming latches and disarms, so the campaign
///   drains its in-flight chunk;
/// - a second signal hard-kills (the armed handler was restored to
///   default by the first);
/// - once latched, the flag stays observable until [`Latch::reset`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LatchState {
    /// Handler not installed: SIGINT has its default disposition.
    Disarmed,
    /// Handler installed: the next signal latches instead of killing.
    Armed,
    /// A signal was latched; the handler has been restored to default.
    Latched,
}

/// What a delivered signal does in the current state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SignalEffect {
    /// The signal was latched for graceful draining.
    Latched,
    /// The signal falls through to the default disposition: the process
    /// dies. (In the pure model this is just reported, not performed.)
    DefaultKill,
}

/// Pure model of the SIGINT latch. See [`LatchState`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Latch {
    state: Option<LatchState>,
}

impl Latch {
    /// A fresh, disarmed latch.
    pub fn new() -> Latch {
        Latch {
            state: Some(LatchState::Disarmed),
        }
    }

    /// Current state.
    pub fn state(&self) -> LatchState {
        self.state.unwrap_or(LatchState::Disarmed)
    }

    /// Installs the handler ([`install`] in the real shell). Arming an
    /// already-latched latch does not clear the pending interrupt: the
    /// flag survives until [`Latch::reset`], which is what lets a latch
    /// set *before* a campaign starts stop that campaign at chunk zero.
    pub fn arm(&mut self) {
        if self.state() == LatchState::Disarmed {
            self.state = Some(LatchState::Armed);
        }
    }

    /// Delivers a signal: latches iff armed, otherwise reports that the
    /// default disposition (kill) applies — before arming, and again after
    /// the first latched signal.
    pub fn signal(&mut self) -> SignalEffect {
        match self.state() {
            LatchState::Armed => {
                self.state = Some(LatchState::Latched);
                SignalEffect::Latched
            }
            LatchState::Disarmed | LatchState::Latched => SignalEffect::DefaultKill,
        }
    }

    /// True once a signal has been latched ([`interrupted`] in the real
    /// shell). The campaign loop polls this between chunks.
    pub fn interrupted(&self) -> bool {
        self.state() == LatchState::Latched
    }

    /// Clears the latch back to disarmed ([`reset`] in the real shell).
    pub fn reset(&mut self) {
        self.state = Some(LatchState::Disarmed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicBool;
    use std::sync::Arc;

    #[test]
    fn signal_before_arming_is_not_latched() {
        let mut latch = Latch::new();
        assert_eq!(latch.signal(), SignalEffect::DefaultKill);
        assert!(!latch.interrupted());
        assert_eq!(latch.state(), LatchState::Disarmed);
    }

    #[test]
    fn first_signal_latches_second_kills() {
        let mut latch = Latch::new();
        latch.arm();
        assert_eq!(latch.signal(), SignalEffect::Latched);
        assert!(latch.interrupted());
        // Double interrupt: the handler restored the default disposition
        // when it latched, so the second Ctrl-C hard-kills.
        assert_eq!(latch.signal(), SignalEffect::DefaultKill);
        assert!(latch.interrupted(), "the latched flag survives the second signal");
        assert_eq!(latch.state(), LatchState::Latched);
    }

    #[test]
    fn rearming_a_latched_latch_does_not_clear_it() {
        let mut latch = Latch::new();
        latch.arm();
        latch.signal();
        latch.arm();
        assert!(latch.interrupted(), "arm() must not swallow a pending interrupt");
        latch.reset();
        assert!(!latch.interrupted());
        assert_eq!(latch.state(), LatchState::Disarmed);
        // After reset + re-arm the cycle repeats.
        latch.arm();
        assert_eq!(latch.signal(), SignalEffect::Latched);
    }

    #[test]
    fn latch_set_before_campaign_start_stops_at_chunk_zero() {
        // The drain ordering the campaign loop guarantees: a latch that
        // fires before run_chunked_observed starts means zero chunks execute
        // and the run reports interrupted — not one chunk, not a hang.
        let flag = Arc::new(AtomicBool::new(true)); // latched before start
        let opts = crate::DurabilityOptions {
            interrupt: Some(flag),
            ..crate::DurabilityOptions::default()
        };
        let mut executed = 0usize;
        let (slots, stats) = crate::journal::run_chunked_observed(
            &opts,
            0xfeed,
            3,
            None,
            |_, _| Ok(()),
            |_| {
                executed += 1;
                "unreachable".to_string()
            },
        )
        .unwrap();
        assert_eq!(executed, 0);
        assert!(stats.interrupted);
        assert_eq!(stats.chunks_executed, 0);
        assert!(slots.iter().all(Option::is_none));
    }
}
