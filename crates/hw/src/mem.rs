//! On-chip scratchpad generation: one streaming bank per PE reuse group.
//!
//! The paper assigns each group of PEs that reuse the same tensor indexes a
//! private memory bank and double-buffers stationary data. Banks here are
//! autonomous streamers: an internal address counter advances on `en`, so the
//! controller only gates enables — matching the fixed access patterns STT
//! schedules produce.

use std::fmt;

use serde::Serialize;

use crate::netlist::Module;

/// A scratchpad bank template (one Verilog module; possibly instantiated many
/// times).
///
/// # Examples
///
/// ```
/// use tensorlib_hw::mem::MemBank;
/// let b = MemBank::new(1024, 16, true);
/// assert_eq!(b.addr_bits(), 10);
/// assert_eq!(b.bits(), 2 * 1024 * 16); // double buffered
/// assert!(b.module_name().contains("w16"));
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize)]
pub struct MemBank {
    words: u64,
    width: u32,
    double_buffered: bool,
    /// One parity bit per stored word, checked on every read (see
    /// [`crate::fault::Hardening::parity_banks`]).
    parity: bool,
}

impl MemBank {
    /// Creates a bank of `words` entries of `width` bits; `double_buffered`
    /// doubles the storage so loads overlap compute.
    ///
    /// # Panics
    ///
    /// Panics if `words == 0` or `width == 0`.
    pub fn new(words: u64, width: u32, double_buffered: bool) -> MemBank {
        assert!(words > 0 && width > 0, "bank must have positive capacity");
        MemBank {
            words,
            width,
            double_buffered,
            parity: false,
        }
    }

    /// Returns this bank hardened with one parity bit per word. Parity is
    /// checked behaviourally on every read by the interpreter (sticky
    /// per-bank error counters); storage grows by one bit per word, which
    /// [`MemBank::bits`] accounts so the cost models price it.
    pub fn with_parity(mut self) -> MemBank {
        self.parity = true;
        self
    }

    /// `true` if the bank carries per-word parity.
    pub fn has_parity(&self) -> bool {
        self.parity
    }

    /// Storage depth in words (per buffer).
    pub fn words(&self) -> u64 {
        self.words
    }

    /// Word width in bits.
    pub fn width(&self) -> u32 {
        self.width
    }

    /// `true` if the bank is double-buffered.
    pub fn is_double_buffered(&self) -> bool {
        self.double_buffered
    }

    /// Address width in bits.
    pub fn addr_bits(&self) -> u32 {
        (64 - (self.words - 1).leading_zeros()).max(1)
    }

    /// Total storage bits (both buffers if double-buffered; parity bits
    /// included).
    pub fn bits(&self) -> u64 {
        let word_bits = self.width as u64 + u64::from(self.parity);
        let base = self.words * word_bits;
        if self.double_buffered {
            2 * base
        } else {
            base
        }
    }

    /// The deterministic module name for this template, e.g.
    /// `bank_w16_d1024_db` (`_par` appended for parity-protected banks).
    pub fn module_name(&self) -> String {
        format!(
            "bank_w{}_d{}{}{}",
            self.width,
            self.words,
            if self.double_buffered { "_db" } else { "" },
            if self.parity { "_par" } else { "" }
        )
    }

    /// A ports-only interface module (for cross-module validation; the body
    /// is emitted behaviourally by [`crate::verilog`]).
    pub fn interface_module(&self) -> Module {
        let mut m = Module::new(self.module_name());
        m.input("en", 1);
        m.input("wen", 1);
        m.input("wdata", self.width);
        m.output("rdata", self.width);
        if self.double_buffered {
            m.input("buf_sel", 1);
        }
        m
    }
}

/// The word a sequential bank port at address `addr` touches and the
/// address it advances to: `(addr % words, (addr + 1) % words)`. Both
/// interpreters step every bank access through here. An in-range address,
/// which is all a bank port ever produces, wraps by compare and costs no
/// divide; an out-of-range one still wraps with `%`.
pub(crate) fn next_addr(addr: u64, words: u64) -> (u64, u64) {
    let word = if addr < words { addr } else { addr % words };
    let next = if word + 1 == words { 0 } else { word + 1 };
    (word, next)
}

impl fmt::Display for MemBank {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} ({} x {}b{})",
            self.module_name(),
            self.words,
            self.width,
            if self.double_buffered {
                ", double-buffered"
            } else {
                ""
            }
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::netlist::Dir;

    #[test]
    fn addr_bits_rounding() {
        assert_eq!(MemBank::new(1, 8, false).addr_bits(), 1);
        assert_eq!(MemBank::new(2, 8, false).addr_bits(), 1);
        assert_eq!(MemBank::new(3, 8, false).addr_bits(), 2);
        assert_eq!(MemBank::new(1024, 8, false).addr_bits(), 10);
        assert_eq!(MemBank::new(1025, 8, false).addr_bits(), 11);
    }

    #[test]
    fn bits_accounting() {
        assert_eq!(MemBank::new(256, 16, false).bits(), 4096);
        assert_eq!(MemBank::new(256, 16, true).bits(), 8192);
    }

    #[test]
    fn interface_ports() {
        let m = MemBank::new(64, 16, true).interface_module();
        assert_eq!(m.port_dir("en"), Some(Dir::Input));
        assert_eq!(m.port_dir("rdata"), Some(Dir::Output));
        assert_eq!(m.port_dir("buf_sel"), Some(Dir::Input));
        let s = MemBank::new(64, 16, false).interface_module();
        assert_eq!(s.port_dir("buf_sel"), None);
    }

    #[test]
    #[should_panic(expected = "positive capacity")]
    fn zero_words_panics() {
        let _ = MemBank::new(0, 8, false);
    }

    #[test]
    fn next_addr_wraps_like_modulo() {
        for words in [1, 2, 3, 7, 64] {
            for addr in (0..3 * words).chain([u64::MAX - 1, u64::MAX]) {
                let want = (addr % words, (addr % words + 1) % words);
                assert_eq!(next_addr(addr, words), want, "addr {addr} words {words}");
            }
        }
    }

    #[test]
    fn display_and_names() {
        let b = MemBank::new(128, 32, true);
        assert_eq!(b.module_name(), "bank_w32_d128_db");
        assert!(b.to_string().contains("double-buffered"));
    }
}
