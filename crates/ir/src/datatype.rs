//! Element datatypes for generated hardware.

use std::fmt;

use serde::Serialize;

/// The element type an accelerator instance computes on.
///
/// The generator itself is datatype-agnostic (the paper integrates Xilinx
/// floating-point IP as a black box for FP32); the datatype only changes port
/// widths, compute-cell latency, and cost-model entries.
///
/// # Examples
///
/// ```
/// use tensorlib_ir::DataType;
/// assert_eq!(DataType::Int16.bits(), 16);
/// assert!(DataType::Fp32.is_float());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
#[derive(Default)]
pub enum DataType {
    /// 8-bit signed integer.
    Int8,
    /// 16-bit signed integer (the paper's ASIC evaluation datatype).
    #[default]
    Int16,
    /// 32-bit signed integer.
    Int32,
    /// IEEE-754 single precision (the paper's FPGA evaluation datatype,
    /// via vendor IP).
    Fp32,
}

impl DataType {
    /// Operand width in bits.
    pub fn bits(self) -> u32 {
        match self {
            DataType::Int8 => 8,
            DataType::Int16 => 16,
            DataType::Int32 | DataType::Fp32 => 32,
        }
    }

    /// Accumulator width in bits (doubled for integers to absorb products;
    /// FP32 accumulates in FP32 as the vendor IP does).
    pub fn accumulator_bits(self) -> u32 {
        match self {
            DataType::Fp32 => 32,
            other => other.bits() * 2,
        }
    }

    /// `true` for floating-point types.
    pub fn is_float(self) -> bool {
        matches!(self, DataType::Fp32)
    }

    /// Multiplier pipeline latency in cycles (floating point IP is deeply
    /// pipelined; integer multiplies close timing in one stage at the
    /// evaluated frequencies).
    pub fn mul_latency(self) -> u32 {
        if self.is_float() {
            3
        } else {
            1
        }
    }
}


impl fmt::Display for DataType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DataType::Int8 => write!(f, "int8"),
            DataType::Int16 => write!(f, "int16"),
            DataType::Int32 => write!(f, "int32"),
            DataType::Fp32 => write!(f, "fp32"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn widths() {
        assert_eq!(DataType::Int8.bits(), 8);
        assert_eq!(DataType::Int8.accumulator_bits(), 16);
        assert_eq!(DataType::Int16.accumulator_bits(), 32);
        assert_eq!(DataType::Fp32.accumulator_bits(), 32);
        assert_eq!(DataType::default(), DataType::Int16);
    }

    #[test]
    fn latency_and_float() {
        assert_eq!(DataType::Int16.mul_latency(), 1);
        assert_eq!(DataType::Fp32.mul_latency(), 3);
        assert!(!DataType::Int32.is_float());
    }

    #[test]
    fn display() {
        assert_eq!(DataType::Fp32.to_string(), "fp32");
        assert_eq!(DataType::Int16.to_string(), "int16");
    }
}
