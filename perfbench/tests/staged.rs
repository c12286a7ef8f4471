//! The benchmark's staged assembly must be the program users run: for every
//! workload shape (at `.quick()` scale) it gives the same trace hash,
//! summary, event count and record count as `Experiment::run` or
//! `Experiment::run_streamed`, traced or not.

use essio_conform::{Fnv64, TraceHasher};
use essio_perfbench::spans::Tracer;
use essio_perfbench::workload::{run_op, ClockedSinks, PlainSinks, StreamSinks, Workload};
use essio_trace::RecordSink;

/// (trace hash, summary hash, events, records) through the library's own
/// entry point.
fn reference(w: Workload, seed: u64) -> (u64, u64, u64, u64) {
    let exp = w.experiment(seed).quick();
    if w == Workload::Wavelet {
        let r = exp.run();
        let mut h = TraceHasher::new();
        h.observe_all(&r.trace);
        let json = r.canonical_json();
        (
            h.value(),
            Fnv64::hash(json.as_bytes()),
            r.perf.events,
            r.perf.records,
        )
    } else {
        let total = essio_disk::DiskGeometry::BEOWULF_500MB.total_sectors();
        let (run, sinks) = exp.run_streamed(PlainSinks::fresh(total));
        let (stream, h, _, _) = sinks.into_parts();
        let json = run.canonical_json(&stream.finalize(run.duration));
        (
            h.value(),
            Fnv64::hash(json.as_bytes()),
            run.perf.events,
            run.perf.records,
        )
    }
}

#[test]
fn staged_assembly_matches_the_library_run_for_every_workload() {
    for w in Workload::ALL {
        let seed = 3;
        let want = reference(w, seed);
        let exp = w.experiment(seed).quick();
        let plain = run_op::<PlainSinks>(w, &exp, &mut Tracer::new(false));
        let mut t = Tracer::new(true);
        let traced = run_op::<ClockedSinks>(w, &exp, &mut t);
        for (mode, op) in [("untraced", &plain), ("traced", &traced)] {
            let got = (op.trace_hash, op.summary_hash, op.events, op.records);
            assert_eq!(got, want, "{} {mode}", w.name());
            assert!(
                op.failures.is_empty(),
                "{} {mode}: {:?}",
                w.name(),
                op.failures
            );
            assert!(op.records > 0 && op.events > 0);
        }
        assert_eq!(plain.stats, traced.stats, "{}", w.name());
        assert!(!t.spans().is_empty());
    }
}

#[test]
fn every_workload_parses_back_from_its_name() {
    for w in Workload::ALL {
        assert_eq!(Workload::parse(w.name()), Some(w));
    }
    assert_eq!(Workload::parse("nope"), None);
}
