//! Device geometry: how capacity is organized into channels, banks, rows and
//! pages, and how physical addresses decompose onto that organization.
//!
//! Controllers need geometry for two things: parallelism (independent banks
//! and channels overlap operations) and access granularity (row/page size
//! bounds the burst a single activation can serve).

use serde::{Deserialize, Serialize};

/// Physical organization of one memory device or stack.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct DeviceGeometry {
    /// Independent channels (or pseudo-channels for HBM).
    pub channels: u32,
    /// Banks per channel.
    pub banks_per_channel: u32,
    /// Rows per bank.
    pub rows_per_bank: u32,
    /// Row (page) size in bytes.
    pub row_bytes: u32,
}

/// A decomposed physical address.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct DecodedAddr {
    /// Channel index.
    pub channel: u32,
    /// Bank index within the channel.
    pub bank: u32,
    /// Row index within the bank.
    pub row: u32,
    /// Byte offset within the row.
    pub offset: u32,
}

impl DeviceGeometry {
    /// HBM3e-like geometry: 16 pseudo-channels × 16 banks, 1 KiB rows.
    pub fn hbm_like(capacity_bytes: u64) -> Self {
        Self::fit(capacity_bytes, 16, 16, 1024)
    }

    /// DDR5-like geometry: 2 channels × 32 banks, 8 KiB rows.
    pub fn dimm_like(capacity_bytes: u64) -> Self {
        Self::fit(capacity_bytes, 2, 32, 8192)
    }

    /// Block-device-like geometry for MRM/Flash: channels act as planes,
    /// one "row" is one program page.
    pub fn block_like(capacity_bytes: u64, page_bytes: u32) -> Self {
        Self::fit(capacity_bytes, 8, 4, page_bytes)
    }

    /// Builds a geometry with the given shape whose row count is sized to
    /// cover `capacity_bytes` (rounded up to a whole row per bank).
    ///
    /// # Panics
    ///
    /// Panics if any dimension is zero or the capacity doesn't fit `u32`
    /// rows per bank.
    pub fn fit(capacity_bytes: u64, channels: u32, banks_per_channel: u32, row_bytes: u32) -> Self {
        assert!(channels > 0 && banks_per_channel > 0 && row_bytes > 0);
        let banks_total = u64::from(channels) * u64::from(banks_per_channel);
        let per_bank = capacity_bytes.div_ceil(banks_total);
        let rows = per_bank.div_ceil(u64::from(row_bytes));
        assert!(rows <= u64::from(u32::MAX), "too many rows per bank");
        DeviceGeometry {
            channels,
            banks_per_channel,
            rows_per_bank: rows.max(1) as u32,
            row_bytes,
        }
    }

    /// Total addressable capacity, bytes.
    pub fn capacity_bytes(&self) -> u64 {
        u64::from(self.channels)
            * u64::from(self.banks_per_channel)
            * u64::from(self.rows_per_bank)
            * u64::from(self.row_bytes)
    }

    /// Total number of banks across all channels.
    pub fn total_banks(&self) -> u32 {
        self.channels * self.banks_per_channel
    }

    /// Decodes a byte address. Layout interleaves consecutive rows across
    /// channels then banks (row-interleaved striping), which is what makes
    /// large sequential reads engage every bank in parallel — the access
    /// pattern §2.2 says dominates inference.
    ///
    /// # Panics
    ///
    /// Panics if `addr` is out of range.
    pub fn decode(&self, addr: u64) -> DecodedAddr {
        assert!(addr < self.capacity_bytes(), "address out of range");
        let offset = (addr % u64::from(self.row_bytes)) as u32;
        let row_index = addr / u64::from(self.row_bytes); // global row number
        let channel = (row_index % u64::from(self.channels)) as u32;
        let per_channel = row_index / u64::from(self.channels);
        let bank = (per_channel % u64::from(self.banks_per_channel)) as u32;
        let row = (per_channel / u64::from(self.banks_per_channel)) as u32;
        DecodedAddr {
            channel,
            bank,
            row,
            offset,
        }
    }

    /// Re-encodes a decoded address back to a byte address.
    pub fn encode(&self, d: DecodedAddr) -> u64 {
        let per_channel = u64::from(d.row) * u64::from(self.banks_per_channel) + u64::from(d.bank);
        let row_index = per_channel * u64::from(self.channels) + u64::from(d.channel);
        row_index * u64::from(self.row_bytes) + u64::from(d.offset)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mrm_sim::units::{GB, MIB};

    #[test]
    fn fit_covers_capacity() {
        let g = DeviceGeometry::hbm_like(24 * GB);
        assert!(g.capacity_bytes() >= 24 * GB);
        // Over-provisioning from rounding stays under one row per bank.
        assert!(
            g.capacity_bytes() - 24 * GB <= u64::from(g.total_banks()) * u64::from(g.row_bytes)
        );
    }

    #[test]
    fn decode_encode_roundtrip() {
        let g = DeviceGeometry::fit(GB, 4, 8, 2048);
        for addr in [0u64, 1, 2047, 2048, 123_456_789, g.capacity_bytes() - 1] {
            let d = g.decode(addr);
            assert_eq!(g.encode(d), addr, "addr {addr}");
        }
    }

    #[test]
    fn sequential_rows_stripe_across_channels() {
        let g = DeviceGeometry::fit(GB, 4, 8, 1024);
        let d0 = g.decode(0);
        let d1 = g.decode(1024);
        let d2 = g.decode(2048);
        assert_eq!(d0.channel, 0);
        assert_eq!(d1.channel, 1);
        assert_eq!(d2.channel, 2);
        assert_eq!(d0.row, d1.row);
    }

    #[test]
    fn total_counters() {
        let g = DeviceGeometry {
            channels: 4,
            banks_per_channel: 8,
            rows_per_bank: 100,
            row_bytes: 1024,
        };
        assert_eq!(g.total_banks(), 32);
        assert_eq!(g.capacity_bytes(), 3200 * 1024);
    }

    #[test]
    #[should_panic(expected = "address out of range")]
    fn decode_out_of_range_panics() {
        let g = DeviceGeometry::fit(MIB, 2, 2, 1024);
        g.decode(g.capacity_bytes());
    }
}
