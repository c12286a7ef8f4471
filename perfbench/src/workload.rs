//! The workloads, and one operation of each assembled from the
//! library's public calls in the same order `Experiment::run` and
//! `Experiment::run_streamed` make them, so each stage can be timed from
//! outside and each layer's statistics read afterwards.

use std::time::Instant;

use essio::cluster::Beowulf;
use essio::experiment::{Experiment, ExperimentResult, RunPerf, StreamedRun};
use essio::workloads;
use essio_conform::{check_shapes, Fnv64, TraceHasher};
use essio_faults::{DiskFaultConfig, FaultPlan, NetFaultConfig};
use essio_sim::SimTime;
use essio_stream::{StreamConfig, StreamSummary};
use essio_trace::analysis::TraceSummary;
use essio_trace::sink::{SharedSink, Tee};
use essio_trace::{codec, RecordSink, TraceRecord};

use crate::host::Usage;
use crate::pins::PINS;
use crate::spans::Tracer;

/// Fault-plan seed the `campaign` binary uses for its presets.
pub const FAULT_PLAN_SEED: u64 = 0xFA17;

/// A benchmark workload. Both run the paper's wavelet experiment at paper
/// scale (16 nodes, one process each); operations are short enough that a
/// run holds about a hundred of them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Successive wavelet runs as `experiment wavelet --full` makes them:
    /// the trace is kept, then summarized, columnar round-tripped and hashed.
    Wavelet,
    /// Successive wavelet runs with the observability plane on and a disk +
    /// network fault plan, streamed into a summary and a hasher, with both
    /// obs exports rendered.
    WaveletObsFaults,
}

impl Workload {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 2] = [Workload::Wavelet, Workload::WaveletObsFaults];

    /// The name `--workload` takes.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Wavelet => "wavelet",
            Workload::WaveletObsFaults => "wavelet_obs_faults",
        }
    }

    /// Parse a `--workload` value.
    pub fn parse(name: &str) -> Option<Workload> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The experiment one operation runs at `seed`.
    pub fn experiment(self, seed: u64) -> Experiment {
        let e = match self {
            Workload::Wavelet => Experiment::wavelet(),
            Workload::WaveletObsFaults => Experiment::wavelet().obs(true).faults(
                FaultPlan::none()
                    .seed(FAULT_PLAN_SEED)
                    .disk(DiskFaultConfig::degraded_drive())
                    .net(NetFaultConfig::lossy_segment()),
            ),
        };
        e.seed(seed)
    }

    /// Whether the trace is kept in memory (otherwise it is streamed).
    fn keeps_trace(self) -> bool {
        self == Workload::Wavelet
    }

    /// Faults bend the paper's shapes, so faulted runs are pinned by
    /// hashes only (the policy `essio-conform` applies).
    fn shapes_apply(self) -> bool {
        self != Workload::WaveletObsFaults
    }
}

/// The sink a streamed workload drains into: a stream summary and a trace
/// hasher fed the same records.
pub trait StreamSinks: RecordSink + 'static {
    /// Empty sinks for a disk of `total_sectors`.
    fn fresh(total_sectors: u32) -> Self;
    /// The summary, the hasher, and the seconds each spent observing
    /// (zero when not clocked).
    fn into_parts(self) -> (StreamSummary, TraceHasher, f64, f64);
}

/// The sink `campaign` and `essio-conform` stream into; untraced runs use
/// it unchanged.
pub type PlainSinks = Tee<StreamSummary, TraceHasher>;

impl StreamSinks for PlainSinks {
    fn fresh(total_sectors: u32) -> Self {
        Tee(
            StreamSummary::new(StreamConfig::paper(total_sectors)),
            TraceHasher::new(),
        )
    }

    fn into_parts(self) -> (StreamSummary, TraceHasher, f64, f64) {
        (self.0, self.1, 0.0, 0.0)
    }
}

/// Traced-run twin of [`PlainSinks`]: hands each drained sweep to the
/// summary, then to the hasher, and clocks each. One clock read per sweep
/// rather than per record keeps the timing off the per-record path.
pub struct ClockedSinks {
    summary: StreamSummary,
    hasher: TraceHasher,
    summary_ns: u64,
    hasher_ns: u64,
}

impl RecordSink for ClockedSinks {
    fn observe(&mut self, rec: &TraceRecord) {
        self.observe_all(std::slice::from_ref(rec));
    }

    fn observe_all(&mut self, recs: &[TraceRecord]) {
        let t0 = Instant::now();
        self.summary.observe_all(recs);
        let t1 = Instant::now();
        self.hasher.observe_all(recs);
        self.summary_ns += (t1 - t0).as_nanos() as u64;
        self.hasher_ns += t1.elapsed().as_nanos() as u64;
    }
}

impl StreamSinks for ClockedSinks {
    fn fresh(total_sectors: u32) -> Self {
        ClockedSinks {
            summary: StreamSummary::new(StreamConfig::paper(total_sectors)),
            hasher: TraceHasher::new(),
            summary_ns: 0,
            hasher_ns: 0,
        }
    }

    fn into_parts(self) -> (StreamSummary, TraceHasher, f64, f64) {
        (
            self.summary,
            self.hasher,
            self.summary_ns as f64 * 1e-9,
            self.hasher_ns as f64 * 1e-9,
        )
    }
}

/// Simulated statistics summed over nodes from the public getters. A
/// change that is only about speed leaves every one of them identical.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LayerStats {
    pub cache_hits: u64,
    pub cache_misses: u64,
    pub cache_dirty_evictions: u64,
    pub vm_faults: u64,
    pub vm_page_ins: u64,
    pub vm_swap_outs: u64,
    pub disk_dispatched: u64,
    pub disk_read_sectors: u64,
    pub disk_written_sectors: u64,
    pub disk_busy_us: u64,
    pub disk_max_queue_depth: u64,
    pub net_messages: u64,
    pub net_bytes: u64,
    pub retries: u64,
    pub relocations: u64,
    pub retransmits: u64,
    pub trace_dropped: u64,
}

impl LayerStats {
    fn read(bw: &Beowulf, retransmits: u64) -> LayerStats {
        let mut s = LayerStats {
            retransmits,
            trace_dropped: bw.trace_dropped(),
            ..LayerStats::default()
        };
        (s.net_messages, s.net_bytes) = bw.net_stats();
        for n in 0..bw.nodes() {
            let k = bw.kernel(n);
            let (c, v, d, r) = (
                k.cache_stats(),
                k.vm_stats(),
                k.driver_stats(),
                k.retry_stats(),
            );
            s.cache_hits += c.hits;
            s.cache_misses += c.misses;
            s.cache_dirty_evictions += c.dirty_evictions;
            s.vm_faults += v.faults;
            s.vm_page_ins += v.page_ins;
            s.vm_swap_outs += v.swap_outs;
            s.disk_dispatched += d.dispatched;
            s.disk_read_sectors += d.read_sectors;
            s.disk_written_sectors += d.written_sectors;
            s.disk_busy_us += d.busy_us;
            s.disk_max_queue_depth = s.disk_max_queue_depth.max(d.max_queue_depth as u64);
            s.retries += r.retries;
            s.relocations += r.relocations;
        }
        s
    }
}

/// What one operation measured and produced.
#[derive(Debug, Clone)]
pub struct OpReport {
    /// Seed the operation ran at.
    pub seed: u64,
    /// Host seconds for the whole operation, checks and teardown included.
    pub total_s: f64,
    /// Host seconds from the start to the first engine event.
    pub setup_s: f64,
    /// Host seconds in `run_apps` / `run_until`.
    pub sim_s: f64,
    /// Engine events delivered.
    pub events: u64,
    /// Trace records drained.
    pub records: u64,
    /// Virtual run length, µs.
    pub duration_us: SimTime,
    /// Engine (calling) thread usage during the simulate phase.
    pub engine: Usage,
    /// Whole-process usage during the simulate phase.
    pub process: Usage,
    /// FNV-1a of the canonical trace bytes.
    pub trace_hash: u64,
    /// FNV-1a of the canonical run JSON.
    pub summary_hash: u64,
    /// Simulated per-layer statistics.
    pub stats: LayerStats,
    /// Seconds the stream summary spent observing (clocked sinks only).
    pub observe_s: f64,
    /// Seconds the streamed trace hasher spent observing (clocked sinks
    /// only).
    pub hash_sink_s: f64,
    /// Columnar-encoded trace size (kept-trace workload only).
    pub codec_bytes: u64,
    /// Observability request spans collected.
    pub obs_spans: u64,
    /// Observability physical-command records collected.
    pub obs_phys: u64,
    /// Bytes of the rendered Chrome trace plus `/proc` text.
    pub export_bytes: u64,
    /// Every check that failed; empty when the operation is correct.
    pub failures: Vec<String>,
}

/// Total sectors of the simulated disk every experiment runs against.
fn total_sectors() -> u32 {
    essio_disk::DiskGeometry::BEOWULF_500MB.total_sectors()
}

/// Build the cluster, install the tap, provision assets and spawn fleets —
/// everything before the first engine event.
fn setup<S: StreamSinks>(
    w: Workload,
    exp: &Experiment,
    t: &mut Tracer,
) -> (Beowulf, Option<SharedSink<S>>) {
    let mut bw = t.span("setup.cluster", |_| Beowulf::new(exp.cluster.clone()));
    let tap = (!w.keeps_trace()).then(|| {
        let shared = SharedSink::new(S::fresh(total_sectors()));
        bw.set_tap(shared.clone());
        bw.set_keep_trace(false);
        shared
    });
    t.span("setup.assets", |_| {
        workloads::install_assets(&mut bw, exp.cluster.seed)
    });
    t.span("setup.spawn", |_| {
        workloads::spawn_wavelet_fleet(&mut bw, &exp.wavelet, 0);
    });
    (bw, tap)
}

/// Run one operation: one experiment at one seed, then every check.
pub fn run_op<S: StreamSinks>(w: Workload, exp: &Experiment, t: &mut Tracer) -> OpReport {
    t.span("op", |t| run_op_inner::<S>(w, exp, t))
}

fn run_op_inner<S: StreamSinks>(w: Workload, exp: &Experiment, t: &mut Tracer) -> OpReport {
    let started = Instant::now();
    let kind = exp.kind;
    let seed = exp.cluster.seed;
    let (mut bw, tap) = t.span("setup", |t| setup::<S>(w, exp, t));
    let setup_s = started.elapsed().as_secs_f64();

    let (proc0, engine0) = (Usage::process(), Usage::thread());
    let sim_started = Instant::now();
    let duration = t.span("simulate", |_| {
        bw.run_apps(exp.settle_secs * 1_000_000);
        bw.now()
    });
    let sim_s = sim_started.elapsed().as_secs_f64();
    let (engine1, proc1) = (Usage::thread(), Usage::process());

    let (obs, trace, perf, nodes, exits, degradation, stats) = t.span("collect", |_| {
        let obs = bw.obs_report();
        let trace = bw.take_trace();
        let perf = RunPerf {
            events: bw.events_delivered(),
            records: bw.records_drained(),
            host_secs: started.elapsed().as_secs_f64(),
        };
        let degradation = bw.degradation();
        let stats = LayerStats::read(&bw, degradation.retransmits);
        (
            obs,
            trace,
            perf,
            bw.nodes(),
            bw.exits().to_vec(),
            degradation,
            stats,
        )
    });
    t.span("teardown", |_| drop(bw));

    let mut failures: Vec<String> = Vec::new();
    let mut fail = |msg: String| failures.push(msg);

    // The kept trace goes through the batch analysis, the columnar codec and
    // the hasher; a streamed run finalizes what its sinks accumulated.
    let (summary, hasher, summary_json, observe_s, hash_sink_s, codec_bytes) =
        if let Some(tap) = tap {
            let sinks = tap
                .try_unwrap()
                .unwrap_or_else(|_| unreachable!("cluster dropped, tap handle released"));
            let (stream, hasher, observe_s, hash_sink_s) = sinks.into_parts();
            let summary = t.span("stream.finalize", |_| stream.finalize(duration));
            let run = StreamedRun {
                kind,
                nodes,
                duration,
                exits: exits.clone(),
                degradation,
                perf,
                obs: None,
            };
            let json = run.canonical_json(&summary);
            (summary, hasher, json, observe_s, hash_sink_s, 0)
        } else {
            let summary = t.span("analysis.summary", |_| {
                TraceSummary::compute(&trace, duration, total_sectors())
            });
            let hasher = t.span("conform.hash", |_| {
                let mut h = TraceHasher::new();
                h.observe_all(&trace);
                h
            });
            let encoded = t.span("codec.encode", |_| codec::encode_columnar(&trace));
            let decoded = t.span("codec.decode", |_| codec::decode_columnar(&encoded));
            match decoded {
                Ok(d) if d == trace => {}
                Ok(_) => fail("columnar round trip changed the trace".into()),
                Err(e) => fail(format!("columnar decode failed: {e:?}")),
            }
            if trace.len() as u64 != perf.records {
                fail(format!(
                    "kept {} records, drained {}",
                    trace.len(),
                    perf.records
                ));
            }
            let result = ExperimentResult {
                kind,
                nodes,
                duration,
                trace,
                summary,
                exits: exits.clone(),
                degradation,
                perf,
                obs: None,
            };
            let json = result.canonical_json();
            (result.summary, hasher, json, 0.0, 0.0, encoded.len() as u64)
        };

    let (mut obs_spans, mut obs_phys, mut export_bytes) = (0, 0, 0);
    if let Some(obs) = &obs {
        export_bytes = t.span("obs.export", |_| {
            obs.chrome_trace().len() as u64 + obs.proc_text().len() as u64
        });
        let span_records: u64 = obs.spans.iter().map(|s| s.records as u64).sum();
        if span_records != perf.records || obs.phys.len() as u64 != perf.records {
            fail(format!(
                "obs ledger unbalanced: span records {span_records}, phys {}, records {}",
                obs.phys.len(),
                perf.records
            ));
        }
        obs_spans = obs.spans.len() as u64;
        obs_phys = obs.phys.len() as u64;
    }

    t.span("checks", |_| {
        let expected = nodes as usize;
        if exits.len() != expected || exits.iter().any(|e| e.code != 0) {
            let codes: Vec<i32> = exits.iter().map(|e| e.code).collect();
            fail(format!("expected {expected} clean exits, got {codes:?}"));
        }
        if w.shapes_apply() {
            for v in check_shapes(kind, &summary) {
                fail(format!("shape {}: {}", v.check, v.detail));
            }
        }
        if stats.trace_dropped != 0 {
            fail(format!("{} trace records dropped", stats.trace_dropped));
        }
        if hasher.records() != perf.records || summary.rw.total != perf.records {
            fail(format!(
                "records drained {}, hasher saw {}, summary saw {}",
                perf.records,
                hasher.records(),
                summary.rw.total
            ));
        }
    });

    let trace_hash = hasher.value();
    let summary_hash = Fnv64::hash(summary_json.as_bytes());
    if let Some(pin) = PINS
        .iter()
        .find(|p| p.workload == w.name() && p.seed == seed)
    {
        let got = (trace_hash, summary_hash, perf.events, perf.records);
        let want = (pin.trace_hash, pin.summary_hash, pin.events, pin.records);
        if got != want {
            fail(format!(
                "seed {seed} pins (trace hash, summary hash, events, records): got {got:x?}, want {want:x?}"
            ));
        }
    }
    OpReport {
        seed,
        total_s: started.elapsed().as_secs_f64(),
        setup_s,
        sim_s,
        events: perf.events,
        records: perf.records,
        duration_us: duration,
        engine: engine1.since(&engine0),
        process: proc1.since(&proc0),
        trace_hash,
        summary_hash,
        stats,
        observe_s,
        hash_sink_s,
        codec_bytes,
        obs_spans,
        obs_phys,
        export_bytes,
        failures,
    }
}
