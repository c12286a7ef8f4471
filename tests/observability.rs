//! The observability plane's two contracts, asserted end-to-end:
//!
//! 1. **Zero interference**: with obs off (the default) nothing changes,
//!    and with obs on the *simulated* disk trace is still bit-identical —
//!    the plane observes the simulation, it never participates in it.
//! 2. **Well-formedness**: every span closes (or is explicitly marked
//!    truncated by a crash / end-of-run), timestamps respect virtual-time
//!    ordering, and every record the instrumented driver emitted is
//!    covered by exactly one request span.

use ess_io_study::obs::ObsReport;
use ess_io_study::prelude::*;
use ess_io_study::trace::codec;
use serde_json::Value;

fn combined(seed: u64) -> Experiment {
    Experiment::combined().quick().seed(seed)
}

fn lookup<'v>(v: &'v Value, name: &str) -> Option<&'v Value> {
    v.as_object()?
        .iter()
        .find(|(k, _)| k == name)
        .map(|(_, v)| v)
}

fn as_u64(v: &Value) -> u64 {
    match v {
        Value::Int(i) => u64::try_from(*i).expect("non-negative"),
        other => panic!("expected integer, got {other:?}"),
    }
}

/// Spans dispatched `records` trace records in total; a crash loses the
/// undrained tail of the kernel ring but the spans already saw those
/// dispatches, so coverage is `kept + lost`.
fn assert_well_formed(report: &ObsReport, kept: usize, lost: u64) {
    let dispatched = kept as u64 + lost;
    let span_records: u64 = report.spans.iter().map(|s| s.records as u64).sum();
    assert_eq!(
        span_records, dispatched,
        "every disk record must belong to exactly one span"
    );
    assert_eq!(
        report.phys.len() as u64,
        dispatched,
        "one physical command per trace record"
    );
    let mut ids = std::collections::HashSet::new();
    for s in &report.spans {
        assert!(ids.insert(s.uid()), "span ids must be unique");
        assert!(
            s.begin_us <= s.end_us,
            "span {} ends before it begins",
            s.id
        );
        assert!(s.end_us <= report.duration_us);
        // Per-token waits overlap in wall time, so the decomposition is
        // only bounded by the interval when a single token was in play.
        assert!(
            s.truncated
                || s.tokens != 1
                || s.queue_wait_us + s.service_us + s.retry_us <= 1 + s.end_us - s.begin_us,
            "decomposition cannot exceed a single-token span interval: {s:?}"
        );
    }
    let mut last_complete = vec![0u64; report.nodes as usize];
    for p in &report.phys {
        assert!(p.submit_us <= p.dispatch_us, "queued before dispatched");
        assert!(p.dispatch_us <= p.complete_us || p.truncated);
        assert!(
            ids.contains(&(((p.node as u64) << 48) | p.span)),
            "phys command at sector {} cites unknown span {}",
            p.sector,
            p.span
        );
        // One in-flight command per node disk: the X track never overlaps.
        assert!(
            p.dispatch_us >= last_complete[p.node as usize] || p.truncated,
            "disk track overlaps at sector {}",
            p.sector
        );
        if !p.truncated {
            last_complete[p.node as usize] = p.complete_us;
        }
    }
    assert_eq!(
        report.metrics.counter_sum("/disk", "records"),
        dispatched,
        "metrics registry must agree with the span ledger"
    );
}

#[test]
fn obs_off_is_the_default_and_obs_on_leaves_the_disk_trace_bit_identical() {
    for (make, seed) in [
        (Experiment::wavelet as fn() -> Experiment, 21u64),
        (Experiment::combined, 22),
    ] {
        let plain = make().quick().seed(seed).run();
        assert!(plain.obs.is_none(), "obs must be off by default");
        let observed = make().quick().seed(seed).obs(true).run();
        let report = observed.obs.as_ref().expect("obs(true) yields a report");
        assert_eq!(
            codec::encode(&plain.trace),
            codec::encode(&observed.trace),
            "{:?}: the obs plane must not perturb the simulation",
            plain.kind
        );
        assert_eq!(
            serde_json::to_string(&plain.summary).unwrap(),
            serde_json::to_string(&observed.summary).unwrap(),
            "{:?}: summaries must match too",
            plain.kind
        );
        assert!(!report.spans.is_empty(), "a real run produces spans");
    }
}

#[test]
fn obs_reports_are_deterministic() {
    let run = || combined(23).obs(true).run();
    let a = run().obs.expect("report");
    let b = run().obs.expect("report");
    assert_eq!(a.chrome_trace(), b.chrome_trace());
    assert_eq!(a.proc_text(), b.proc_text());
    assert_eq!(
        serde_json::to_string(&a).unwrap(),
        serde_json::to_string(&b).unwrap()
    );
}

#[test]
fn spans_are_well_formed_and_cover_every_record() {
    let r = combined(24).obs(true).run();
    let report = r.obs.as_ref().expect("report");
    assert_well_formed(report, r.trace.len(), 0);
    // A clean quick run finishes quiescent: nothing left open but the
    // long-lived daemon activity force-closed at collection time.
    for s in report.spans.iter().filter(|s| s.truncated) {
        assert!(
            s.kind.is_kernel(),
            "only kernel housekeeping may be cut off by end-of-run: {s:?}"
        );
    }
    // The combined workload actually exercises the annotations.
    assert!(report.spans.iter().any(|s| s.cache_hits > 0));
    assert!(report.spans.iter().any(|s| s.ra_window > 0));
    assert!(report.spans.iter().any(|s| s.queue_wait_us > 0));
    assert!(report.metrics.counter_sum("/cache", "hits") > 0);
    assert!(
        report
            .metrics
            .counter_sum("/readahead", "prefetched_blocks")
            > 0
    );
}

#[test]
fn chrome_trace_parses_and_has_a_track_per_node() {
    let r = combined(25).obs(true).run();
    let report = r.obs.as_ref().expect("report");
    let json = report.chrome_trace();
    let root: Value = serde_json::from_str(&json).expect("chrome trace must be valid JSON");
    let events = lookup(&root, "traceEvents")
        .and_then(Value::as_array)
        .expect("traceEvents array");
    assert!(!events.is_empty());
    let mut named_nodes = std::collections::BTreeSet::new();
    let mut disk_slices_per_node = vec![0u64; report.nodes as usize];
    for ev in events {
        let ph = lookup(ev, "ph").and_then(Value::as_str).expect("ph");
        let pid = as_u64(lookup(ev, "pid").expect("pid"));
        assert!(pid < report.nodes as u64, "event on unknown node {pid}");
        match ph {
            "M" if lookup(ev, "name").and_then(Value::as_str) == Some("process_name") => {
                named_nodes.insert(pid);
            }
            "X" => disk_slices_per_node[pid as usize] += 1,
            _ => {}
        }
    }
    assert_eq!(
        named_nodes.len(),
        report.nodes as usize,
        "every node gets a named track"
    );
    assert!(
        disk_slices_per_node.iter().all(|&n| n > 0),
        "every node's disk track has slices: {disk_slices_per_node:?}"
    );
    assert_eq!(
        disk_slices_per_node.iter().sum::<u64>() as usize,
        r.trace.len(),
        "one complete-event slice per disk record"
    );
}

#[test]
fn proc_snapshot_renders_counters_for_every_node() {
    let r = combined(26).obs(true).run();
    let report = r.obs.as_ref().expect("report");
    let text = report.proc_text();
    for node in 0..report.nodes {
        assert!(text.contains(&format!("=== /proc/essio/node{node:02} ===")));
        assert!(text.contains(&format!("node{node:02}/disk/records ")));
    }
    assert!(text.contains("=== /proc/essio/cluster ==="));
    assert!(text.contains("net/retransmit_frames 0"));
}

#[test]
fn faulty_runs_attribute_retries_and_net_delays_to_spans() {
    let plan = FaultPlan::none()
        .seed(0xBAD)
        .disk(DiskFaultConfig {
            media_error_every: 40,
            slow_every: 25,
            ..Default::default()
        })
        .net(NetFaultConfig::lossy_segment());
    let r = combined(27).obs(true).faults(plan).run();
    let report = r.obs.as_ref().expect("report");
    assert_well_formed(report, r.trace.len(), 0);
    let retries: u64 = r.degradation.nodes.iter().map(|n| n.retries).sum();
    assert!(retries > 0, "the plan must actually fire");
    assert_eq!(
        report.metrics.counter_sum("/faults", "retries"),
        retries,
        "obs and the driver must count the same retries"
    );
    assert!(
        report.spans.iter().any(|s| s.retries > 0 && s.retry_us > 0),
        "retry time must be attributed to the span that suffered it"
    );
    assert_eq!(
        report.metrics.counter_value("net", "retransmit_frames"),
        r.degradation.retransmits
    );
    if !report.net.is_empty() {
        assert!(report
            .spans
            .iter()
            .any(|s| s.net_delay_us > 0 && s.pid.is_some()));
    }
}

#[test]
fn crashed_nodes_truncate_their_open_spans_but_the_ledger_still_balances() {
    let r = combined(28)
        .obs(true)
        .faults(FaultPlan::none().crash(1, 10_000_000))
        .run();
    let report = r.obs.as_ref().expect("report");
    let lost: u64 = r
        .degradation
        .nodes
        .iter()
        .map(|n| n.trace_records_lost)
        .sum();
    assert!(r.degradation.nodes[1].crashed);
    assert_well_formed(report, r.trace.len(), lost);
    serde_json::from_str::<Value>(&report.chrome_trace()).expect("still valid JSON");
}

#[test]
fn streamed_runs_carry_the_same_report() {
    let batch = combined(29).obs(true).run();
    let (run, _sink) = combined(29)
        .obs(true)
        .run_streamed(Vec::<ess_io_study::trace::TraceRecord>::new());
    let a = batch.obs.expect("batch report");
    let b = run.obs.expect("streamed report");
    assert_eq!(a.chrome_trace(), b.chrome_trace());
    assert_eq!(a.proc_text(), b.proc_text());
}

/// FNV-1a of the Perfetto export for two quick runs that between them emit
/// every event kind the exporter writes. Any change to key order, number
/// formatting or escaping moves these hashes.
#[test]
fn chrome_trace_bytes_are_pinned() {
    let faulty = Experiment::ppm().quick().seed(31).obs(true).faults(
        FaultPlan::none()
            .seed(0xBAD)
            .disk(DiskFaultConfig {
                media_error_every: 40,
                slow_every: 25,
                ..Default::default()
            })
            // `lossy_segment` loses too few frames at quick scale to delay
            // any send; one frame in five does.
            .net(NetFaultConfig {
                loss_every: 5,
                ..NetFaultConfig::lossy_segment()
            }),
    );
    let crashed = Experiment::ppm()
        .quick()
        .seed(32)
        .obs(true)
        .faults(FaultPlan::none().crash(1, 5_000_000));
    let mut kinds = std::collections::BTreeSet::new();
    for (experiment, pinned) in [
        (faulty, 0xf49a_73e3_b79a_6273u64),
        (crashed, 0x2a3e_c548_bdde_3f9f),
    ] {
        let json = experiment.run().obs.expect("report").chrome_trace();
        assert_eq!(
            essio_conform::Fnv64::hash(json.as_bytes()),
            pinned,
            "Perfetto export bytes changed"
        );
        let root: Value = serde_json::from_str(&json).expect("valid JSON");
        let events = lookup(&root, "traceEvents")
            .and_then(Value::as_array)
            .expect("traceEvents array");
        for ev in events {
            let ph = lookup(ev, "ph").and_then(Value::as_str).expect("ph");
            let name = lookup(ev, "name").and_then(Value::as_str).expect("name");
            let truncated =
                lookup(ev, "args").and_then(|a| lookup(a, "truncated")) == Some(&Value::Bool(true));
            kinds.insert(match ph {
                "M" | "i" => format!("{ph} {name}"),
                "b" if truncated => "b truncated".to_string(),
                other => other.to_string(),
            });
        }
    }
    for kind in [
        "M process_name",
        "M thread_name",
        "b",
        "b truncated",
        "e",
        "X",
        "i media-fail",
        "i retry",
        "i retransmit",
    ] {
        assert!(kinds.contains(kind), "no `{kind}` event in {kinds:?}");
    }
}

#[cfg(feature = "proptests")]
mod prop {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(6))]

        /// Span well-formedness holds at any seed, for runs with and
        /// without fault injection.
        #[test]
        fn spans_are_well_formed_at_any_seed(seed in 0u64..1_000_000, faulty in any::<bool>()) {
            let mut e = Experiment::nbody().quick().seed(seed).obs(true);
            if faulty {
                e = e.faults(FaultPlan::none().seed(seed ^ 0xF).disk(DiskFaultConfig {
                    media_error_every: 50,
                    slow_every: 35,
                    ..Default::default()
                }));
            }
            let r = e.run();
            let report = r.obs.as_ref().expect("report");
            assert_well_formed(report, r.trace.len(), 0);
            prop_assert!(report.spans.iter().filter(|s| s.truncated).all(|s| s.kind.is_kernel()));
        }
    }
}
