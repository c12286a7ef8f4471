//! Using the instrumented cluster as a library: run your *own* workload
//! process, control the trace ioctl at runtime, inject disk faults, and
//! post-process the captured trace with the codec + analysis toolkit.
//!
//! ```sh
//! cargo run --example custom_instrumentation
//! ```

use ess_io_study::apps::{CtxExt, SimFile};
use ess_io_study::kernel::{Placement, Syscall};
use ess_io_study::prelude::*;
use ess_io_study::trace::codec;

fn main() {
    let mut cfg = BeowulfConfig {
        nodes: 1,
        seed: 42,
        // Exercise the driver's retry path: every 50th command faults.
        disk_fault_every: Some(50),
        ..Default::default()
    };
    cfg.spool_trace = false; // keep the trace free of its own spooling I/O
    let mut bw = Beowulf::new(cfg);

    // A custom workload: a crude database-style workload — append a log,
    // then do scattered point reads against a data file.
    bw.install_file(0, "/data/table", Placement::User, vec![0xA5u8; 128 * 1024]);
    bw.spawn(0, "mini-db", 0, |ctx| {
        let mut wal = SimFile::open(ctx, "/data/wal", true, Placement::User);
        let mut table = SimFile::open(ctx, "/data/table", false, Placement::User);
        for txn in 0..40u64 {
            // Write-ahead record, then force it to disk.
            wal.append(ctx, format!("txn {txn:06} commit\n").into_bytes());
            if txn % 8 == 7 {
                wal.fsync(ctx);
            }
            // Scattered point read.
            table.seek((txn * 37 % 128) * 1024);
            let page = table.read(ctx, 1024);
            assert_eq!(page.len(), 1024);
            ctx.compute(250_000); // 0.25 s of "query processing"
        }
        ctx.sys(Syscall::LogMsg { len: 80 }); // and a syslog line
        wal.fsync(ctx);
        wal.close(ctx);
        table.close(ctx);
        0
    });
    bw.run_apps(12_000_000);
    assert!(bw.exits().iter().all(|e| e.code == 0), "{:?}", bw.exits());

    let trace = bw.take_trace();
    println!("captured {} driver-level records", trace.len());
    println!(
        "injected disk faults survived: {}",
        bw.kernel(0).driver_stats().faults
    );

    // Round-trip the trace through the binary codec — what the study's
    // post-processing pipeline would consume.
    let encoded = codec::encode(&trace);
    let decoded = codec::decode(&encoded).expect("own format");
    assert_eq!(decoded, trace);
    println!(
        "binary trace: {} bytes ({} per record)",
        encoded.len(),
        codec::RECORD_BYTES
    );

    // And analyze it like any experiment.
    let summary = TraceSummary::compute(&trace, 60_000_000, 999_936);
    println!();
    println!("{}", summary.report("mini-db"));

    // First few records, CSV-style, for eyeballing.
    println!("{}", codec::to_csv(&trace[..trace.len().min(10)]));
}
