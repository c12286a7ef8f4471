//! Seed-1 fingerprints of every workload. An operation at a pinned seed
//! fails unless its trace hash, summary hash, event count and record count
//! all match: a change that is only about speed leaves them identical.

/// One pinned operation.
#[derive(Debug, Clone, Copy)]
pub struct Pin {
    /// Workload name.
    pub workload: &'static str,
    /// Seed the operation ran at.
    pub seed: u64,
    /// FNV-1a 64 of the canonical trace bytes.
    pub trace_hash: u64,
    /// FNV-1a 64 of the canonical run JSON.
    pub summary_hash: u64,
    /// Engine events delivered.
    pub events: u64,
    /// Trace records drained.
    pub records: u64,
}

/// The pins, one per workload at the default seed.
pub const PINS: &[Pin] = &[
    Pin {
        workload: "wavelet",
        seed: 1,
        trace_hash: 0x24f5_420c_4935_96f7,
        summary_hash: 0xad4d_cc65_02d3_000a,
        events: 31_484,
        records: 15_085,
    },
    Pin {
        workload: "wavelet_obs_faults",
        seed: 1,
        trace_hash: 0x0ddf_ff5b_0b97_4ac9,
        summary_hash: 0x6978_379f_2175_cae4,
        events: 31_723,
        records: 15_202,
    },
];
