//! Simulation configuration and reports.

use serde::Serialize;

/// System-level simulation parameters.
///
/// Defaults match the paper's §VI-A evaluation: 320 MHz, 32 GB/s between the
/// PE array and the scratchpad (= 100 bytes per cycle).
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct SimConfig {
    /// Clock frequency in MHz (used only to convert cycles to wall time).
    pub freq_mhz: f64,
    /// Array ↔ scratchpad bandwidth in bytes per cycle.
    pub bytes_per_cycle: f64,
}

impl SimConfig {
    /// The paper's evaluation setup: 320 MHz, 32 GB/s.
    pub fn paper_default() -> SimConfig {
        SimConfig {
            freq_mhz: 320.0,
            bytes_per_cycle: 32.0e9 / 320.0e6,
        }
    }
}

impl Default for SimConfig {
    fn default() -> SimConfig {
        SimConfig::paper_default()
    }
}

/// The analytical cycle model's output for one (design, kernel) pair.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct SimReport {
    /// Total execution cycles, all overheads included.
    pub total_cycles: u64,
    /// Cycles spent in compute phases (before bandwidth stalls).
    pub compute_cycles: u64,
    /// Extra cycles lost to scratchpad bandwidth stalls.
    pub stall_cycles: u64,
    /// Load cycles not hidden by double buffering.
    pub exposed_load_cycles: u64,
    /// Drain cycles (stationary-output writeback and pipeline drain).
    pub drain_cycles: u64,
    /// Number of space-time tiles executed (outer loops included).
    pub tiles: u64,
    /// Multiply-accumulate operations performed.
    pub macs: u64,
    /// Achieved MACs per cycle.
    pub macs_per_cycle: f64,
    /// Fraction of peak (PE count × cycles) actually used — the paper's
    /// Figure 5 normalized-performance metric.
    pub normalized_perf: f64,
    /// Wall-clock runtime in microseconds at the configured frequency.
    pub runtime_us: f64,
    /// Achieved throughput in 10⁹ operations per second (2 ops per MAC).
    pub gops: f64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_default_bandwidth() {
        let c = SimConfig::paper_default();
        assert!((c.bytes_per_cycle - 100.0).abs() < 1e-9);
        assert_eq!(c.freq_mhz, 320.0);
        assert_eq!(SimConfig::default(), c);
    }
}
