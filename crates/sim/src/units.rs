//! Byte, energy, and rate units shared across the workspace.
//!
//! Device datasheets mix units freely (GB vs GiB, pJ/bit vs mW, GB/s vs
//! GT/s); this module pins the workspace conventions:
//!
//! * Capacities are **bytes** (`u64`), with binary constants for powers of
//!   two and decimal constants for vendor-style capacities.
//! * Energy is **joules** (`f64`).
//! * Bandwidth is **bytes per second** (`f64`).

/// One kibibyte (2^10 bytes).
pub const KIB: u64 = 1 << 10;
/// One mebibyte (2^20 bytes).
pub const MIB: u64 = 1 << 20;
/// One gibibyte (2^30 bytes).
pub const GIB: u64 = 1 << 30;
/// One tebibyte (2^40 bytes).
pub const TIB: u64 = 1 << 40;

/// One decimal megabyte.
pub const MB: u64 = 1_000_000;
/// One decimal gigabyte (vendor capacity convention).
pub const GB: u64 = 1_000_000_000;
/// One decimal terabyte.
pub const TB: u64 = 1_000_000_000_000;

/// Formats a byte count with a binary suffix (`KiB`, `MiB`, ...).
pub fn format_bytes(bytes: u64) -> String {
    const UNITS: [(&str, u64); 4] = [("TiB", TIB), ("GiB", GIB), ("MiB", MIB), ("KiB", KIB)];
    for (name, size) in UNITS {
        if bytes >= size {
            return format!("{:.2}{name}", bytes as f64 / size as f64);
        }
    }
    format!("{bytes}B")
}

/// Formats a quantity in scientific notation with two significant decimals,
/// the convention for endurance counts (e.g. `1.0e15`).
pub fn format_sci(x: f64) -> String {
    if x == 0.0 {
        return "0".to_string();
    }
    format!("{x:.1e}")
}

/// Bytes per second from GB/s (decimal, vendor convention).
pub fn gb_per_s(gb: f64) -> f64 {
    gb * 1e9
}

/// Bytes per second from TB/s (decimal, vendor convention).
pub fn tb_per_s(tb: f64) -> f64 {
    tb * 1e12
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn binary_and_decimal_sizes_differ() {
        assert_eq!(GIB, 1_073_741_824);
        assert_eq!(GB, 1_000_000_000);
    }

    #[test]
    fn byte_formatting() {
        assert_eq!(format_bytes(512), "512B");
        assert_eq!(format_bytes(2 * KIB), "2.00KiB");
        assert_eq!(format_bytes(3 * GIB + GIB / 2), "3.50GiB");
        assert_eq!(format_bytes(TIB), "1.00TiB");
    }

    #[test]
    fn sci_formatting() {
        assert_eq!(format_sci(0.0), "0");
        assert_eq!(format_sci(1e15), "1.0e15");
        assert_eq!(format_sci(4.38e4), "4.4e4");
    }

    #[test]
    fn bandwidth_helpers() {
        // Pure scaling by a power-of-ten constant: exact in f64.
        assert_eq!(gb_per_s(8.0).to_bits(), 8e9f64.to_bits());
        assert_eq!(tb_per_s(8.0).to_bits(), 8e12f64.to_bits()); // B200-class HBM bandwidth
    }
}
