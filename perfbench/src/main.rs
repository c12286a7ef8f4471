//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs operations of one workload at seeds `n, n+1, …` for about `s`
//! seconds on one pinned CPU, checks every operation, and prints one JSON
//! object as the last line of stdout: `correct`, `attempted`, `failed` and
//! `metrics`. With `--trace 0` the metrics are the end-to-end ones; with
//! `--trace 1` they are the per-layer ones, from operations run in pairs
//! (untraced, then traced, at one seed) so the tracing overhead is measured
//! on the same work, after untraced operations at `n` that count the
//! handoffs until one count repeats.

use std::collections::{BTreeMap, BTreeSet};
use std::hint::black_box;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use essio_apps::nbody::tree;
use essio_apps::ppm::solver::{Boundary, Grid};
use essio_apps::wavelet::transform::{analyze_2d, Image};
use essio_apps::{nbody::NbodyConfig, ppm::PpmConfig, wavelet::WaveletConfig};
use essio_perfbench::host::{self, Settings};
use essio_perfbench::spans::{secs_of, Tracer};
use essio_perfbench::workload::{run_op, ClockedSinks, OpReport, PlainSinks, Workload};
use essio_perfbench::{median, quantile, DEFAULT_SEED, END_TO_END, PER_LAYER};
use essio_sim::{ProcConfig, ProcMsg, ProcessHost, SimRng};

/// End-to-end timings are this quantile of the run's operations (rates the
/// complementary one): the edge of the fastest twentieth. On a shared host,
/// other tenants' load slows the whole run by up to half for minutes at a
/// time, broken by quiet windows of a few seconds; it only ever adds time,
/// so the fast edge tracks the program's own cost where the median tracks
/// how much of the run the host was busy.
const FAST_QUANTILE: f64 = 0.05;

/// Round trips per ping-pong batch, and batches (the median is reported).
const PINGPONG_TRIPS: u64 = 20_000;
const PINGPONG_BATCHES: usize = 5;

/// Operations at `--seed` a traced run makes at most to see one handoff
/// count twice.
const COUNT_TRIES: usize = 5;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = 10;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                workload = Some(Workload::parse(&v).ok_or(format!("unknown workload {v}"))?);
            }
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v}")),
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    Ok(Args {
        workload: workload.ok_or(format!("--workload is required: {}", names.join(", ")))?,
        seed,
        seconds,
        trace,
    })
}

/// Metric name → value.
type Metrics = BTreeMap<&'static str, f64>;

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let settings = match host::steady() {
        Ok(s) => s,
        Err(e) => {
            eprintln!("perfbench: cannot pin the run: {e}");
            return ExitCode::from(2);
        }
    };
    println!("settings {}", settings.to_json());

    let budget = Duration::from_secs(args.seconds);
    let (ops, metrics) = if args.trace {
        traced(&args, &settings, budget)
    } else {
        untraced(&args, budget)
    };
    let failed = ops.iter().filter(|o| !o.failures.is_empty()).count();
    for op in &ops {
        eprintln!(
            "op seed={} total_s={:.4} setup_s={:.4} sim_s={:.4} events={} records={} round_trips={} trace_hash={:016x} summary_hash={:016x}",
            op.seed,
            op.total_s,
            op.setup_s,
            op.sim_s,
            op.events,
            op.records,
            op.engine.nvcsw,
            op.trace_hash,
            op.summary_hash
        );
        for f in &op.failures {
            eprintln!("  FAILED: {f}");
        }
    }
    let listed = if args.trace { PER_LAYER } else { END_TO_END };
    let names: Vec<&str> = listed.iter().map(|&(name, _)| name).collect();
    assert_eq!(
        metrics.keys().copied().collect::<BTreeSet<_>>(),
        names.iter().copied().collect::<BTreeSet<_>>(),
        "the run must measure exactly the listed metrics"
    );
    let body: Vec<String> = listed
        .iter()
        .map(|&(name, unit)| {
            let value = metrics[name];
            let value = if value.is_finite() { value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        failed == 0,
        ops.len(),
        body.join(", ")
    );
    ExitCode::SUCCESS
}

/// Operations at `seed, seed+1, …` until the next one would end past the
/// budget (always at least one). `each` runs one operation at a seed.
fn sequence(args: &Args, budget: Duration, mut each: impl FnMut(u64) -> f64) {
    let start = Instant::now();
    let mut seed = args.seed;
    loop {
        let took = Duration::from_secs_f64(each(seed));
        seed = seed.wrapping_add(1);
        if start.elapsed() + took > budget {
            break;
        }
    }
}

fn untraced(args: &Args, budget: Duration) -> (Vec<OpReport>, Metrics) {
    let w = args.workload;
    let mut ops = Vec::new();
    let mut peaks = Vec::new();
    sequence(args, budget, |seed| {
        host::reset_peak_rss().expect("resetting the peak RSS needs Linux clear_refs");
        let op = run_op::<PlainSinks>(w, &w.experiment(seed), &mut Tracer::new(false));
        peaks.push(host::peak_rss_mb());
        let took = op.total_s;
        ops.push(op);
        took
    });
    let col = |f: fn(&OpReport) -> f64, q| quantile(&ops.iter().map(f).collect::<Vec<_>>(), q);
    let mut m = Metrics::new();
    m.insert("total_s", col(|o| o.total_s, FAST_QUANTILE));
    m.insert("setup_s", col(|o| o.setup_s, FAST_QUANTILE));
    m.insert(
        "events_per_s",
        col(|o| o.events as f64 / o.sim_s, 1.0 - FAST_QUANTILE),
    );
    m.insert("peak_rss_mb", median(&peaks));
    (ops, m)
}

/// Host costs of the layers' hot calls, timed standalone at the default
/// config sizes: median milliseconds per call.
fn app_microbenches(t: &mut Tracer, m: &mut Metrics) {
    let per_call_ms = |t: &mut Tracer, name: &'static str, reps: usize, f: &mut dyn FnMut()| {
        let samples: Vec<f64> = (0..reps)
            .map(|_| {
                t.span(name, |_| {
                    let t0 = Instant::now();
                    f();
                    t0.elapsed().as_secs_f64() * 1e3
                })
            })
            .collect();
        median(&samples)
    };

    let ppm = PpmConfig::default();
    let mut grid = Grid::sod(ppm.nx, ppm.ny);
    let ms = per_call_ms(t, "apps.ppm_step", 20, &mut || {
        let dt = grid.cfl_dt();
        grid.step(black_box(dt), Boundary::Reflective);
    });
    black_box(grid.total_mass());
    m.insert("apps.ppm_step_ms", ms);

    let wav = WaveletConfig::default();
    let side = essio::workloads::IMAGE_SIDE;
    let image = Image::from_bytes(side, &essio::workloads::synthetic_landsat(side, 1));
    let ms = per_call_ms(t, "apps.wavelet_analyze", 7, &mut || {
        let mut img = image.clone();
        analyze_2d(&mut img, wav.levels, wav.filter);
        black_box(img.energy());
    });
    m.insert("apps.wavelet_analyze_ms", ms);

    let nb = NbodyConfig::default();
    let mut bodies = tree::plummer(nb.particles, &mut SimRng::new(nb.seed));
    let ms = per_call_ms(t, "apps.nbody_step", 20, &mut || {
        black_box(tree::leapfrog_step(&mut bodies, nb.dt, nb.theta));
    });
    m.insert("apps.nbody_step_ms", ms);
}

/// Microseconds per engine↔process round trip through `ProcessHost`, with
/// a body that does nothing but request: the bare handoff cost.
fn pingpong_us(t: &mut Tracer) -> f64 {
    let batches: Vec<f64> = (0..PINGPONG_BATCHES)
        .map(|_| {
            t.span("handoff.pingpong", |_| {
                let mut host: ProcessHost<u64, u64> =
                    ProcessHost::spawn("pingpong", ProcConfig::default(), |ctx| {
                        let mut x = 0;
                        for _ in 0..PINGPONG_TRIPS {
                            x = ctx.request(x);
                        }
                        (x != PINGPONG_TRIPS) as i32
                    });
                let t0 = Instant::now();
                let mut msg = host.start(0);
                let mut now = 0;
                while let ProcMsg::Request { call, .. } = msg {
                    now += 1;
                    msg = host.resume(now, call + 1);
                }
                let us = t0.elapsed().as_secs_f64() * 1e6 / PINGPONG_TRIPS as f64;
                assert!(
                    matches!(msg, ProcMsg::Exit { code: 0, .. }),
                    "ping-pong body must see every reply: {msg:?}"
                );
                us
            })
        })
        .collect();
    median(&batches)
}

fn traced(args: &Args, settings: &Settings, budget: Duration) -> (Vec<OpReport>, Metrics) {
    let w = args.workload;
    let started = Instant::now();
    let mut t = Tracer::new(true);
    let mut m = Metrics::new();
    app_microbenches(&mut t, &mut m);
    let round_trip_us = pingpong_us(&mut t);

    // The handoff count: the engine thread's voluntary context switches in
    // untraced operations at `--seed`, under the default policy (process
    // threads are spawned per operation and inherit it then). The count is
    // one per round trip only while nothing else takes the CPU between the
    // engine's send and its receive; under `SCHED_BATCH`, or on a loaded
    // host, an operation now and then misses or adds one. So operations
    // repeat until one count has been seen twice, and that count is
    // reported; if none repeats within `COUNT_TRIES`, the run fails.
    host::set_batch(false).expect("leaving SCHED_BATCH");
    let exp = w.experiment(args.seed);
    let mut counted: Vec<OpReport> = Vec::new();
    let repeated = loop {
        let op = run_op::<PlainSinks>(w, &exp, &mut Tracer::new(false));
        let n = op.engine.nvcsw;
        let seen = counted.iter().any(|o| o.engine.nvcsw == n);
        counted.push(op);
        if seen || counted.len() == COUNT_TRIES {
            break seen.then_some(n);
        }
    };
    host::set_batch(true).expect("returning to SCHED_BATCH");
    let trips = repeated.unwrap_or_else(|| {
        let counts: Vec<u64> = counted.iter().map(|o| o.engine.nvcsw).collect();
        counted[COUNT_TRIES - 1].failures.push(format!(
            "handoff.round_trips did not repeat in {COUNT_TRIES} operations at seed {}: {counts:?}",
            args.seed
        ));
        counts[0]
    });

    // Untraced and traced operations in pairs at one seed.
    let mut pairs: Vec<(OpReport, OpReport)> = Vec::new();
    let mut span_from: Vec<usize> = Vec::new();
    sequence(args, budget.saturating_sub(started.elapsed()), |seed| {
        let exp = w.experiment(seed);
        let plain = run_op::<PlainSinks>(w, &exp, &mut Tracer::new(false));
        span_from.push(t.spans().len());
        let mut traced = run_op::<ClockedSinks>(w, &exp, &mut t);
        if (traced.trace_hash, traced.summary_hash) != (plain.trace_hash, plain.summary_hash) {
            traced
                .failures
                .push(format!("tracing changed the outputs at seed {seed}"));
        }
        let took = plain.total_s + traced.total_s;
        pairs.push((plain, traced));
        took
    });

    // Times are medians over the traced operations; counts come from the
    // first one, at `--seed`, so they repeat exactly run to run.
    let traced_ops: Vec<&OpReport> = pairs.iter().map(|(_, traced)| traced).collect();
    let first = traced_ops[0];
    let med =
        |f: &dyn Fn(&OpReport) -> f64| median(&traced_ops.iter().map(|o| f(o)).collect::<Vec<_>>());
    let span_med = |name: &str| {
        let v: Vec<f64> = span_from
            .iter()
            .enumerate()
            .map(|(i, &from)| {
                let to = span_from.get(i + 1).copied().unwrap_or(t.spans().len());
                secs_of(&t.spans()[from..to], name)
            })
            .collect();
        median(&v)
    };

    for (metric, span) in [
        ("setup.cluster_s", "setup.cluster"),
        ("setup.assets_s", "setup.assets"),
        ("setup.spawn_s", "setup.spawn"),
        ("stream.finalize_s", "stream.finalize"),
        ("analysis.summary_s", "analysis.summary"),
        ("codec.encode_s", "codec.encode"),
        ("codec.decode_s", "codec.decode"),
        ("obs.export_s", "obs.export"),
    ] {
        m.insert(metric, span_med(span));
    }
    // The kept trace is hashed in its own call; a streamed one inside the
    // drain, through the clocked sink.
    m.insert(
        "conform.hash_s",
        med(&|o| o.hash_sink_s) + span_med("conform.hash"),
    );
    m.insert("stream.observe_s", med(&|o| o.observe_s));

    let proc_cpu = |o: &OpReport| o.process.cpu_s() - o.engine.cpu_s();
    m.insert("apps.proc_cpu_s", med(&proc_cpu));
    m.insert(
        "apps.proc_user_s",
        med(&|o| o.process.user_s - o.engine.user_s),
    );
    m.insert("sim.engine_cpu_s", med(&|o| o.engine.cpu_s()));
    m.insert("host.sys_s", med(&|o| o.process.sys_s));
    m.insert("handoff.round_trip_us", round_trip_us);
    m.insert("handoff.round_trips", trips as f64);
    m.insert("handoff.est_s", trips as f64 * round_trip_us * 1e-6);
    m.insert("engine.events", first.events as f64);
    m.insert("engine.virt_s", first.duration_us as f64 * 1e-6);

    let s = first.stats;
    let lookups = s.cache_hits + s.cache_misses;
    for (name, value) in [
        ("kernel.cache_hits", s.cache_hits as f64),
        ("kernel.cache_misses", s.cache_misses as f64),
        (
            "kernel.cache_hit_ratio",
            if lookups > 0 {
                s.cache_hits as f64 / lookups as f64
            } else {
                0.0
            },
        ),
        (
            "kernel.cache_dirty_evictions",
            s.cache_dirty_evictions as f64,
        ),
        ("kernel.vm_faults", s.vm_faults as f64),
        ("kernel.vm_page_ins", s.vm_page_ins as f64),
        ("kernel.vm_swap_outs", s.vm_swap_outs as f64),
        ("disk.dispatched", s.disk_dispatched as f64),
        ("disk.read_sectors", s.disk_read_sectors as f64),
        ("disk.written_sectors", s.disk_written_sectors as f64),
        ("disk.busy_virt_s", s.disk_busy_us as f64 * 1e-6),
        ("disk.max_queue_depth", s.disk_max_queue_depth as f64),
        ("net.messages", s.net_messages as f64),
        ("net.bytes", s.net_bytes as f64),
        ("faults.retries", s.retries as f64),
        ("faults.relocations", s.relocations as f64),
        ("faults.retransmits", s.retransmits as f64),
        ("trace.records", first.records as f64),
        ("trace.dropped", s.trace_dropped as f64),
        ("codec.bytes", first.codec_bytes as f64),
        ("obs.spans", first.obs_spans as f64),
        ("obs.phys", first.obs_phys as f64),
        ("obs.export_mb", first.export_bytes as f64 * 1e-6),
    ] {
        m.insert(name, value);
    }

    let plain_total = median(
        &pairs
            .iter()
            .map(|(plain, _)| plain.total_s)
            .collect::<Vec<_>>(),
    );
    let traced_total = med(&|o| o.total_s);
    m.insert(
        "bench.trace_overhead_pct",
        (traced_total / plain_total - 1.0) * 100.0,
    );
    write_spans(args, settings, &t);
    let ops = counted
        .into_iter()
        .chain(
            pairs
                .into_iter()
                .flat_map(|(plain, traced)| [plain, traced]),
        )
        .collect();
    (ops, m)
}

/// Write every span of this run under `out/` in the benchmark's directory.
/// A failed write is reported and does not fail the run.
fn write_spans(args: &Args, settings: &Settings, t: &Tracer) {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    let nanos = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_nanos() as u64);
    let run_id = format!("{:x}", nanos ^ (std::process::id() as u64) << 32);
    let path = dir.join(format!(
        "spans-{}-seed{}-{run_id}.json",
        args.workload.name(),
        args.seed
    ));
    let doc = format!(
        "{{\"run\": \"{run_id}\", \"workload\": \"{}\", \"seed\": {}, \"settings\": {}, \"spans\": {}}}\n",
        args.workload.name(),
        args.seed,
        settings.to_json(),
        t.to_json(&run_id)
    );
    match std::fs::create_dir_all(&dir).and_then(|_| std::fs::write(&path, doc)) {
        Ok(()) => println!("spans {}", path.display()),
        Err(e) => eprintln!("perfbench: spans not written to {}: {e}", path.display()),
    }
}
