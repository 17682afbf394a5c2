//! A timed DRAM-style bank state machine.
//!
//! The controller crate schedules commands against banks; each bank tracks
//! the open row and the earliest time the next command may issue, using the
//! classic timing parameters (tRCD, tCAS, tRP, tRAS, tRFC). The model is
//! deliberately at "architecture simulator" fidelity: enough to show row
//! locality and refresh interference effects, not a DDR PHY model.

use serde::{Deserialize, Serialize};

use mrm_sim::time::{SimDuration, SimTime};

/// Bank timing parameters.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct BankTiming {
    /// Activate-to-read/write delay.
    pub t_rcd: SimDuration,
    /// Read/write command to data (CAS latency).
    pub t_cas: SimDuration,
    /// Precharge time.
    pub t_rp: SimDuration,
    /// Minimum row-open time (activate to precharge).
    pub t_ras: SimDuration,
    /// Refresh cycle time (bank unavailable during refresh).
    pub t_rfc: SimDuration,
    /// Data burst transfer time per column access.
    pub t_burst: SimDuration,
}

impl BankTiming {
    /// HBM3-class timings (ns-scale, per pseudo-channel).
    pub fn hbm3_like() -> Self {
        BankTiming {
            t_rcd: SimDuration::from_nanos(14),
            t_cas: SimDuration::from_nanos(14),
            t_rp: SimDuration::from_nanos(14),
            t_ras: SimDuration::from_nanos(33),
            t_rfc: SimDuration::from_nanos(260),
            t_burst: SimDuration::from_nanos(2),
        }
    }

    /// DDR5-class timings.
    pub fn ddr5_like() -> Self {
        BankTiming {
            t_rcd: SimDuration::from_nanos(16),
            t_cas: SimDuration::from_nanos(16),
            t_rp: SimDuration::from_nanos(16),
            t_ras: SimDuration::from_nanos(32),
            t_rfc: SimDuration::from_nanos(295),
            t_burst: SimDuration::from_nanos(3),
        }
    }
}

/// Row-buffer outcome of an access, for hit-rate statistics.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum RowOutcome {
    /// The target row was already open.
    Hit,
    /// No row was open; a plain activate was needed.
    Miss,
    /// A different row was open; precharge + activate were needed.
    Conflict,
}

/// One bank's state.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Bank {
    timing: BankTiming,
    open_row: Option<u32>,
    /// Earliest time the next command may start.
    ready_at: SimTime,
    /// Time the current row was activated (for tRAS).
    activated_at: SimTime,
}

/// The result of scheduling an access on a bank.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AccessResult {
    /// When the first data beat is available (read) or accepted (write).
    pub data_at: SimTime,
    /// When the bank can accept another command.
    pub bank_free_at: SimTime,
    /// Row-buffer outcome.
    pub outcome: RowOutcome,
}

impl Bank {
    /// Creates an idle bank.
    pub fn new(timing: BankTiming) -> Self {
        Bank {
            timing,
            open_row: None,
            ready_at: SimTime::ZERO,
            activated_at: SimTime::ZERO,
        }
    }

    /// The currently open row, if any.
    pub fn open_row(&self) -> Option<u32> {
        self.open_row
    }

    /// Earliest time the bank can accept a new command.
    pub fn ready_at(&self) -> SimTime {
        self.ready_at
    }

    /// Schedules a column access to `row` of `bursts` consecutive bursts,
    /// arriving at time `at`. Returns the completion schedule.
    pub fn access(&mut self, at: SimTime, row: u32, bursts: u32) -> AccessResult {
        let start = at.max(self.ready_at);
        let t = self.timing;
        let (cmd_done, outcome) = match self.open_row {
            Some(open) if open == row => (start, RowOutcome::Hit),
            Some(_) => {
                // Precharge (respecting tRAS) + activate.
                let can_precharge = start.max(self.activated_at + t.t_ras);
                let activated = can_precharge + t.t_rp;
                self.activated_at = activated;
                (activated + t.t_rcd, RowOutcome::Conflict)
            }
            None => {
                self.activated_at = start;
                (start + t.t_rcd, RowOutcome::Miss)
            }
        };
        self.open_row = Some(row);
        let data_at = cmd_done + t.t_cas;
        let transfer = t.t_burst.saturating_mul(u64::from(bursts.max(1)));
        let bank_free_at = data_at + transfer;
        self.ready_at = bank_free_at;
        AccessResult {
            data_at,
            bank_free_at,
            outcome,
        }
    }

    /// Performs a refresh starting no earlier than `at`; the bank is closed
    /// afterwards. Returns when the bank becomes available again.
    pub fn refresh(&mut self, at: SimTime) -> SimTime {
        let start = at.max(self.ready_at);
        // Close any open row first.
        let start = if self.open_row.is_some() {
            start.max(self.activated_at + self.timing.t_ras) + self.timing.t_rp
        } else {
            start
        };
        self.open_row = None;
        self.ready_at = start + self.timing.t_rfc;
        self.ready_at
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bank() -> Bank {
        Bank::new(BankTiming::hbm3_like())
    }

    #[test]
    fn first_access_is_a_miss() {
        let mut b = bank();
        let r = b.access(SimTime::ZERO, 5, 1);
        assert_eq!(r.outcome, RowOutcome::Miss);
        // tRCD + tCAS before data.
        assert_eq!(r.data_at, SimTime::from_nanos(28));
    }

    #[test]
    fn same_row_hits_are_faster() {
        let mut b = bank();
        let miss = b.access(SimTime::ZERO, 5, 1);
        let t1 = miss.bank_free_at;
        let hit = b.access(t1, 5, 1);
        assert_eq!(hit.outcome, RowOutcome::Hit);
        let hit_latency = hit.data_at - t1;
        let miss_latency = miss.data_at - SimTime::ZERO;
        assert!(hit_latency < miss_latency);
    }

    #[test]
    fn row_conflict_pays_precharge() {
        let mut b = bank();
        let first = b.access(SimTime::ZERO, 1, 1);
        let conflict = b.access(first.bank_free_at, 2, 1);
        assert_eq!(conflict.outcome, RowOutcome::Conflict);
        let hit_path = BankTiming::hbm3_like().t_cas;
        assert!(conflict.data_at - first.bank_free_at > hit_path);
    }

    #[test]
    fn sequential_bursts_stream() {
        let mut b = bank();
        let r = b.access(SimTime::ZERO, 0, 64);
        // 64 bursts at 2 ns each = 128 ns of transfer after data_at.
        assert_eq!(r.bank_free_at - r.data_at, SimDuration::from_nanos(128));
    }

    #[test]
    fn refresh_closes_row_and_blocks() {
        let mut b = bank();
        let r = b.access(SimTime::ZERO, 7, 1);
        let free = b.refresh(r.bank_free_at);
        assert!(b.open_row().is_none());
        assert!(free > r.bank_free_at + BankTiming::hbm3_like().t_rfc);
        // Next access is a miss again and waits for the refresh.
        let after = b.access(SimTime::ZERO, 7, 1);
        assert_eq!(after.outcome, RowOutcome::Miss);
        assert!(after.data_at > free);
    }

    #[test]
    fn stats_accumulate() {
        let mut b = bank();
        let mut t = SimTime::ZERO;
        let mut outcomes = Vec::new();
        for row in [0u32, 0, 1, 1, 0] {
            let r = b.access(t, row, 1);
            t = r.bank_free_at;
            outcomes.push(r.outcome);
        }
        use RowOutcome::{Conflict, Hit, Miss};
        assert_eq!(outcomes, vec![Miss, Hit, Conflict, Hit, Conflict]);
    }

    #[test]
    fn back_to_back_commands_queue() {
        let mut b = bank();
        let r1 = b.access(SimTime::ZERO, 0, 1);
        // Arrives "in the past" relative to bank readiness: starts when free.
        let r2 = b.access(SimTime::ZERO, 0, 1);
        assert!(r2.data_at >= r1.bank_free_at);
    }
}
