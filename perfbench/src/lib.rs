//! End-to-end benchmark of the ESS I/O simulator.
//!
//! Each run executes one workload on one pinned CPU and reports end-to-end
//! metrics (untraced) or per-layer metrics (traced). Per-layer host time is
//! attributed from outside the program: by timing the benchmark's own calls
//! into each crate's public functions, by per-thread CPU accounting, and by
//! reading each layer's public statistics getters.

pub mod host;
pub mod pins;
pub mod spans;
pub mod workload;

/// End-to-end metrics an untraced run prints: (name, unit). `BENCHMARK.json`
/// lists the same names with their bounds.
pub const END_TO_END: &[(&str, &str)] = &[
    ("total_s", "s"),
    ("setup_s", "s"),
    ("events_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics a traced run prints: (name, unit).
pub const PER_LAYER: &[(&str, &str)] = &[
    ("setup.cluster_s", "s"),
    ("setup.assets_s", "s"),
    ("setup.spawn_s", "s"),
    ("apps.proc_cpu_s", "s"),
    ("apps.proc_user_s", "s"),
    ("apps.ppm_step_ms", "ms"),
    ("apps.wavelet_analyze_ms", "ms"),
    ("apps.nbody_step_ms", "ms"),
    ("handoff.round_trips", "count"),
    ("handoff.round_trip_us", "us"),
    ("handoff.est_s", "s"),
    ("host.sys_s", "s"),
    ("sim.engine_cpu_s", "s"),
    ("engine.events", "count"),
    ("engine.virt_s", "virt_s"),
    ("kernel.cache_hits", "count"),
    ("kernel.cache_misses", "count"),
    ("kernel.cache_hit_ratio", "ratio"),
    ("kernel.cache_dirty_evictions", "count"),
    ("kernel.vm_faults", "count"),
    ("kernel.vm_page_ins", "count"),
    ("kernel.vm_swap_outs", "count"),
    ("disk.dispatched", "count"),
    ("disk.read_sectors", "count"),
    ("disk.written_sectors", "count"),
    ("disk.busy_virt_s", "virt_s"),
    ("disk.max_queue_depth", "count"),
    ("net.messages", "count"),
    ("net.bytes", "bytes"),
    ("faults.retries", "count"),
    ("faults.relocations", "count"),
    ("faults.retransmits", "count"),
    ("trace.records", "count"),
    ("trace.dropped", "count"),
    ("stream.observe_s", "s"),
    ("stream.finalize_s", "s"),
    ("conform.hash_s", "s"),
    ("analysis.summary_s", "s"),
    ("codec.encode_s", "s"),
    ("codec.decode_s", "s"),
    ("codec.bytes", "bytes"),
    ("obs.spans", "count"),
    ("obs.phys", "count"),
    ("obs.export_s", "s"),
    ("obs.export_mb", "MB"),
    ("bench.trace_overhead_pct", "%"),
];

/// Seed the pins in [`pins::PINS`] were taken at.
pub const DEFAULT_SEED: u64 = 1;

/// Median of `values` (mean of the middle two for an even count); 0 when
/// empty.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// The `q`-quantile of `values`, `q` in `[0, 1]`, interpolated linearly
/// between the two nearest ranks; 0 when empty.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    if v.is_empty() {
        return 0.0;
    }
    let rank = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let (lo, hi) = (rank.floor() as usize, rank.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (rank - lo as f64)
}

#[cfg(test)]
mod tests {
    use super::{median, quantile};

    #[test]
    fn quantiles_interpolate_between_ranks() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&v), 2.5);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert!((quantile(&v, 0.1) - 1.3).abs() < 1e-12);
        assert_eq!(quantile(&[7.0], 0.1), 7.0);
        assert_eq!(median(&[]), 0.0);
    }
}
