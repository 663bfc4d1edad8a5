//! `sessbench`: end-to-end session benchmark for the social-puzzles SP
//! and DH daemons over loopback.
//!
//! ```text
//! sessbench --workload <c1-receive|c1-share-durable|mixed-receive> --seed N
//!           --seconds S --trace <0|1> [--quick] [--trace-out FILE]
//! ```
//!
//! Each run boots real `SpService`/`DhService` daemons (`Daemon::spawn`,
//! `DaemonConfig::default()`) in this process, publishes a seeded
//! corpus, warms up, and then keeps one checked session in flight from a
//! single generator thread for `--seconds`. The last stdout line is a
//! JSON object: `correct`, `attempted`, `failed` and `metrics` — the
//! end-to-end metrics with `--trace 0`, the per-layer metrics with
//! `--trace 1`. The lines before it carry host diagnostics and the
//! detail behind the metrics. See `README.md` for the workloads, the
//! metric map and the placement choices.

mod host;
mod layers;
mod stats;
mod trace;
mod workload;

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::SeedableRng;
use sp_osn::DurabilityCounters;
use sp_pairing::stats as pairing_stats;

use crate::host::{CpuTicks, Placement};
use crate::stats::{deepest_tail, median_f64, percentile, percentile_sorted};
use crate::trace::{analyze, p50_us, write_spans, Analysis, Endpoint, Step, Tracer, LAYERS};
use crate::workload::{Failure, Rig, Sizes, Workload};

const USAGE: &str = "usage: sessbench --workload <c1-receive|c1-share-durable|mixed-receive> \
                     --seed N --seconds S --trace <0|1> [--quick] [--trace-out FILE]";

/// Full-size runs set up this many times and report the median.
const SETUPS: usize = 5;
/// A traced run alternates this many equal stretches, untraced first, so
/// the untraced baseline and the traced phase see the same drift in the
/// workload (the durable stores grow during a run) and their rates
/// compare.
const TRACE_PHASES: u32 = 8;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    quick: bool,
    trace_out: Option<PathBuf>,
}

impl Args {
    fn parse(mut it: impl Iterator<Item = String>) -> Result<Self, String> {
        let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
        let (mut quick, mut trace_out) = (false, None);
        while let Some(flag) = it.next() {
            let mut value = || it.next().ok_or(format!("{flag} needs a value"));
            match flag.as_str() {
                "--workload" => {
                    let v = value()?;
                    workload = Some(Workload::parse(&v).ok_or(format!("unknown workload {v:?}"))?);
                }
                "--seed" => seed = Some(value()?.parse().map_err(|_| "--seed must be an integer")?),
                "--seconds" => {
                    let s: f64 = value()?.parse().map_err(|_| "--seconds must be a number")?;
                    if !(s > 0.0 && s <= 3600.0) {
                        return Err("--seconds must be in (0, 3600]".into());
                    }
                    seconds = Some(s);
                }
                "--trace" => {
                    trace = Some(match value()?.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err("--trace must be 0 or 1".into()),
                    })
                }
                "--quick" => quick = true,
                "--trace-out" => trace_out = Some(PathBuf::from(value()?)),
                other => return Err(format!("unknown argument {other:?}")),
            }
        }
        Ok(Self {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            trace: trace.ok_or("--trace is required")?,
            quick,
            trace_out,
        })
    }
}

/// One measured stretch of back-to-back sessions.
struct Window {
    /// Per-session latency; failed sessions are recorded as `u64::MAX`
    /// so they count as missing every latency percentile.
    latency_ns: Vec<u64>,
    wall: Duration,
    failures: Vec<Failure>,
    cpu_ns: u64,
    /// Resident-set growth over the window.
    rss_growth_kb: f64,
    /// Completed sessions per second in each tenth of the window: shows
    /// drift within a run (the durable stores slow as they grow).
    tenth_rates: Vec<f64>,
}

impl Window {
    /// Concatenates windows measured one after another.
    fn merge(parts: Vec<Window>) -> Window {
        let mut out = Window {
            latency_ns: Vec::new(),
            wall: Duration::ZERO,
            failures: Vec::new(),
            cpu_ns: 0,
            rss_growth_kb: 0.0,
            tenth_rates: Vec::new(),
        };
        for w in parts {
            out.latency_ns.extend(w.latency_ns);
            out.failures.extend(w.failures);
            out.wall += w.wall;
            out.cpu_ns += w.cpu_ns;
            out.rss_growth_kb += w.rss_growth_kb;
            out.tenth_rates.extend(w.tenth_rates);
        }
        out
    }

    fn completed(&self) -> usize {
        self.latency_ns.len() - self.failures.len()
    }

    /// Completed sessions per second over the whole window.
    fn sessions_per_s(&self) -> f64 {
        self.completed() as f64 / self.wall.as_secs_f64()
    }
}

fn measure(rig: &mut Rig, rng: &mut StdRng, seconds: f64) -> Window {
    let (cpu0, rss0) = (host::process_cpu_ns(), host::rss_kb());
    let start = Instant::now();
    let tenth = Duration::from_secs_f64(seconds) / 10;
    let mut latency_ns = Vec::new();
    let mut failures = Vec::new();
    let mut tenth_rates = Vec::new();
    let (mut tenth_start, mut tenth_done) = (start, 0u32);
    while tenth_rates.len() < 10 {
        let t0 = Instant::now();
        let result = rig.session(rng);
        let end = Instant::now();
        match result {
            Ok(()) => {
                latency_ns.push((end - t0).as_nanos() as u64);
                tenth_done += 1;
            }
            Err(f) => {
                latency_ns.push(u64::MAX);
                failures.push(f);
            }
        }
        if end - tenth_start >= tenth {
            tenth_rates.push(f64::from(tenth_done) / (end - tenth_start).as_secs_f64());
            (tenth_start, tenth_done) = (end, 0);
        }
    }
    let cpu_ns = host::process_cpu_ns() - cpu0;
    let rss_growth_kb = host::rss_kb() - rss0;
    Window { latency_ns, wall: tenth_start - start, failures, cpu_ns, rss_growth_kb, tenth_rates }
}

/// One metric as printed: name, value, unit.
type Metric = (String, f64, &'static str);

fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    (name.into(), value, unit)
}

fn json_num(v: f64) -> String {
    assert!(v.is_finite(), "metrics are finite by construction");
    format!("{v}")
}

fn json_metrics(metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(n, v, u)| format!("\"{n}\":{{\"value\":{},\"unit\":\"{u}\"}}", json_num(*v)))
        .collect();
    format!("{{{}}}", body.join(","))
}

fn json_fields(fields: &[(&str, String)]) -> String {
    let body: Vec<String> = fields.iter().map(|(k, v)| format!("\"{k}\":{v}")).collect();
    format!("{{{}}}", body.join(","))
}

fn main() {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("sessbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let data_dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("run-data").join(format!(
        "{}-{}",
        args.workload.name(),
        std::process::id()
    ));
    let outcome = std::panic::catch_unwind(|| run(&args, &data_dir));
    let _ = std::fs::remove_dir_all(&data_dir);
    match outcome {
        Ok(Ok(())) => {}
        Ok(Err(e)) => {
            eprintln!("sessbench: {e}");
            std::process::exit(1);
        }
        Err(_) => std::process::exit(1),
    }
}

fn run(args: &Args, data_dir: &Path) -> Result<(), String> {
    let placement = Placement::split(&host::allowed_cpus());
    host::pin_current_thread(&placement.generator).map_err(|e| format!("pinning: {e}"))?;
    let sizes = Sizes::new(args.quick);
    let setups = if args.quick { 1 } else { SETUPS };
    let tracer = Arc::new(Tracer::new());

    let mut attempted = 0u64;
    let mut failures: Vec<Failure> = Vec::new();
    let mut setup_s = Vec::new();
    let mut setup_hwm_mb = Vec::new();
    let mut rig = None;
    for _ in 0..setups {
        if let Some(previous) = rig.take() {
            Rig::shutdown(previous);
        }
        let start = Instant::now();
        let mut r = Rig::setup(
            args.workload,
            sizes,
            args.seed,
            &placement,
            Arc::clone(&tracer),
            args.trace,
            data_dir,
        );
        let (n, warm_failures) = r.warm_up(
            sizes,
            &mut StdRng::seed_from_u64(args.seed ^ u64::from_be_bytes(*b"\0\0warmup")),
        );
        setup_s.push(start.elapsed().as_secs_f64());
        setup_hwm_mb.push(host::peak_rss_mb());
        attempted += n;
        failures.extend(warm_failures);
        rig = Some(r);
    }
    let mut rig = rig.expect("at least one setup");
    // The first set-up runs in a fresh process; later ones reuse memory
    // the allocator kept from the torn-down deployments, which adds a
    // varying amount (21.5 MB after the first and 34–38 MB after the fifth
    // on `c1-receive`).
    let setup_rss_mb = setup_hwm_mb[0];

    let mut rng = StdRng::seed_from_u64(args.seed ^ u64::from_be_bytes(*b"\0session"));
    let calib_before = host::calibration_mops();
    let ticks0 = CpuTicks::read();
    let (baseline, before, window, spans) = if args.trace {
        let before = Counters::read(&rig);
        let phase = args.seconds / f64::from(TRACE_PHASES);
        let (mut untraced, mut traced) = (Vec::new(), Vec::new());
        for i in 0..TRACE_PHASES {
            let on = i % 2 == 1;
            tracer.set_on(on);
            let w = measure(&mut rig, &mut rng, phase);
            if on {
                traced.push(w)
            } else {
                untraced.push(w)
            }
        }
        tracer.set_on(false);
        (Some(Window::merge(untraced)), before, Window::merge(traced), tracer.take())
    } else {
        let before = Counters::read(&rig);
        (None, before, measure(&mut rig, &mut rng, args.seconds), Vec::new())
    };
    let after = Counters::read(&rig);
    let steal_pct = CpuTicks::read().steal_pct_since(&ticks0);
    let calib_after = host::calibration_mops();
    let disk_bytes = rig.deployment.data_dir.as_deref().map_or(0, host::dir_bytes);
    Rig::shutdown(rig);

    let measured = window.latency_ns.len() + baseline.as_ref().map_or(0, |b| b.latency_ns.len());
    attempted += measured as u64;
    failures.extend(window.failures.iter().cloned());
    if let Some(b) = &baseline {
        failures.extend(b.failures.iter().cloned());
    }
    for f in failures.iter().take(5) {
        eprintln!("sessbench: failed session: {f}");
    }

    println!(
        "{}",
        json_fields(&[
            ("kind", "\"host\"".into()),
            ("workload", format!("\"{}\"", args.workload.name())),
            ("daemon_cpus", format!("{:?}", placement.daemon)),
            ("generator_cpus", format!("{:?}", placement.generator)),
            ("steal_pct", json_num(steal_pct)),
            ("calib_mops_before", json_num(calib_before)),
            ("calib_mops_after", json_num(calib_after)),
            ("setup_s_each", format!("{:?}", setup_s)),
            ("setup_peak_rss_mb_each", format!("{:?}", setup_hwm_mb)),
        ])
    );

    let metrics = if args.trace {
        let baseline = baseline.expect("traced runs measure a baseline");
        // The program counters ran through both phases.
        let sessions = (window.completed() + baseline.completed()).max(1) as f64;
        let counters = after.since(&before, sessions, disk_bytes);
        if let Some(path) = &args.trace_out {
            write_spans(path, &spans).map_err(|e| format!("writing {}: {e}", path.display()))?;
        }
        let analysis = analyze(spans);
        let (per_layer, detail) = per_layer(&baseline, &window, &analysis, &counters);
        println!("{detail}");
        per_layer
    } else {
        end_to_end(&window, &setup_s, setup_rss_mb)
    };
    println!(
        "{}",
        json_fields(&[
            ("correct", (failures.is_empty()).to_string()),
            ("attempted", attempted.to_string()),
            ("failed", failures.len().to_string()),
            ("metrics", json_metrics(&metrics)),
        ])
    );
    Ok(())
}

fn end_to_end(w: &Window, setup_s: &[f64], setup_rss_mb: f64) -> Vec<Metric> {
    let mut sorted = w.latency_ns.clone();
    sorted.sort_unstable();
    let ms = |p: f64| percentile_sorted(&sorted, p) / 1e6;
    let tail = deepest_tail(sorted.len());
    let beyond =
        |p: f64| sorted.len().saturating_sub((p / 100.0 * sorted.len() as f64).ceil() as usize);
    let rates: Vec<f64> = w.tenth_rates.iter().map(|r| r.round()).collect();
    println!(
        "{}",
        json_fields(&[
            ("kind", "\"latency\"".into()),
            ("samples", sorted.len().to_string()),
            ("session_p99_ms", json_num(ms(99.0))),
            ("samples_beyond_p99", beyond(99.0).to_string()),
            ("tail_percentile", json_num(tail)),
            ("session_tail_ms", json_num(ms(tail))),
            ("samples_beyond_tail", beyond(tail).to_string()),
            ("wall_s", json_num(w.wall.as_secs_f64())),
            ("tenth_rates", format!("{rates:?}")),
            ("cpu_ms_per_session", json_num(w.cpu_ns as f64 / 1e6 / w.completed().max(1) as f64)),
            ("end_peak_rss_mb", json_num(host::peak_rss_mb())),
        ])
    );
    vec![
        metric("setup_s", median_f64(setup_s), "s"),
        metric("sessions_per_s", w.sessions_per_s(), "1/s"),
        metric("session_p50_ms", ms(50.0), "ms"),
        metric("session_p90_ms", ms(90.0), "ms"),
        metric("setup_peak_rss_mb", setup_rss_mb, "MB"),
    ]
}

/// Program counters read around the measured window. These are optional
/// extras: a counter the program stops exporting reads as zero and is
/// listed as missing in the detail line instead of failing the run.
#[derive(Clone, Copy, Default)]
struct Counters {
    cache_hits: u64,
    cache_misses: u64,
    server_errors: u64,
    queue_peak: u64,
    busy_rejections: u64,
    appends: u64,
    fsyncs: u64,
    snapshots: u64,
    line_hits: u64,
    line_misses: u64,
    gt_pow: u64,
    split_mul: u64,
    written_bytes: u64,
}

impl Counters {
    fn read(rig: &Rig) -> Self {
        let d = &rig.deployment;
        let cache = d.sp_metrics.cache("sp.puzzle_cache");
        let (sp_srv, dh_srv) =
            (d.sp_metrics.server("net.server"), d.dh_metrics.server("net.server"));
        let stores = d.durability();
        let store_sum =
            |f: fn(&DurabilityCounters) -> u64| stores.iter().flatten().map(f).sum::<u64>();
        let crypto = pairing_stats::snapshot();
        Self {
            cache_hits: cache.hits,
            cache_misses: cache.misses,
            // Expected refusals are not errors.
            server_errors: (d.sp_metrics.totals().errors + d.dh_metrics.totals().errors)
                .saturating_sub(rig.sp_denials),
            queue_peak: sp_srv.queue_peak.max(dh_srv.queue_peak),
            busy_rejections: sp_srv.busy_rejections + dh_srv.busy_rejections,
            appends: store_sum(|c| c.durable_appends),
            fsyncs: store_sum(|c| c.fsync_batches),
            snapshots: store_sum(|c| c.snapshot_count),
            line_hits: crypto.line_cache_hits,
            line_misses: crypto.line_cache_misses,
            gt_pow: crypto.cyclotomic_pow + crypto.generic_pow,
            split_mul: crypto.split_scalar_mul,
            written_bytes: host::io_write_bytes(),
        }
    }

    fn since(&self, before: &Self, sessions: f64, disk_bytes: u64) -> Delta {
        let d = |a: u64, b: u64| a.saturating_sub(b) as f64;
        let appends = d(self.appends, before.appends);
        let fsyncs = d(self.fsyncs, before.fsyncs);
        let lookups =
            d(self.cache_hits, before.cache_hits) + d(self.cache_misses, before.cache_misses);
        let line = d(self.line_hits, before.line_hits) + d(self.line_misses, before.line_misses);
        Delta {
            cache_hit_ratio: ratio(d(self.cache_hits, before.cache_hits), lookups),
            cache_lookups: lookups,
            server_errors: d(self.server_errors, before.server_errors),
            queue_peak: self.queue_peak as f64,
            busy_rejections: d(self.busy_rejections, before.busy_rejections),
            appends_per_fsync: ratio(appends, fsyncs),
            fsyncs_per_session: fsyncs / sessions,
            snapshots: d(self.snapshots, before.snapshots),
            disk_bytes_per_session: disk_bytes as f64 / sessions,
            line_cache_hit_ratio: ratio(d(self.line_hits, before.line_hits), line),
            line_lookups: line,
            gt_pow_per_session: d(self.gt_pow, before.gt_pow) / sessions,
            split_mul_per_session: d(self.split_mul, before.split_mul) / sessions,
            written_bytes_per_session: d(self.written_bytes, before.written_bytes) / sessions,
        }
    }
}

struct Delta {
    cache_hit_ratio: f64,
    cache_lookups: f64,
    server_errors: f64,
    queue_peak: f64,
    busy_rejections: f64,
    appends_per_fsync: f64,
    fsyncs_per_session: f64,
    snapshots: f64,
    disk_bytes_per_session: f64,
    line_cache_hit_ratio: f64,
    line_lookups: f64,
    gt_pow_per_session: f64,
    split_mul_per_session: f64,
    written_bytes_per_session: f64,
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

fn per_layer(baseline: &Window, traced: &Window, a: &Analysis, c: &Delta) -> (Vec<Metric>, String) {
    let sessions = traced.completed().max(1) as f64;
    let session_p50_ms = percentile(&traced.latency_ns, 50.0) / 1e6;
    let layer_us: Vec<f64> = a.median_band_self_ns.iter().map(|ns| ns / 1e3).collect();
    let accounted_us: f64 = layer_us[1..].iter().sum();
    let untraced_rate = baseline.sessions_per_s();
    let traced_rate = traced.sessions_per_s();
    let step_p50 = |s: Step| a.step(s).map_or(0.0, p50_us);
    let calls = |e: Endpoint| a.endpoint(e).map_or(0, |t| t.rpc.len()) as f64 / sessions;
    let dh_get = a.endpoint(Endpoint::DhGet).cloned().unwrap_or_default();

    let mut m = vec![
        metric("trace.sessions_per_s", traced_rate, "1/s"),
        metric("trace.untraced_sessions_per_s", untraced_rate, "1/s"),
        metric("trace.overhead_pct", 100.0 * (1.0 - ratio(traced_rate, untraced_rate)), "%"),
        metric("trace.session_p50_ms", session_p50_ms, "ms"),
        metric("trace.accounted_pct", 100.0 * accounted_us / (session_p50_ms * 1e3), "%"),
    ];
    for (layer, us) in LAYERS.iter().zip(&layer_us) {
        m.push(metric(format!("self_us.{layer}"), *us, "us"));
    }
    m.extend([
        metric("net.rpc_us", p50_us(&a.rpc_ns), "us"),
        metric("net.handler_us", p50_us(&a.handler_ns), "us"),
        metric("net.transport_us", p50_us(&a.transport_ns), "us"),
        metric("net.rpcs_per_session", a.rpc_ns.len() as f64 / sessions, "count"),
        metric("net.rpc_us.dh_get", p50_us(&dh_get.rpc), "us"),
        metric("net.handler_us.dh_get", p50_us(&dh_get.handler), "us"),
        metric("net.transport_us.dh_get", p50_us(&dh_get.transport), "us"),
    ]);
    for e in Endpoint::ALL {
        m.push(metric(format!("net.calls_per_session.{}", e.name()), calls(e), "count"));
    }
    m.extend([
        metric("net.server.queue_peak", c.queue_peak, "count"),
        metric("sp.puzzle_cache.hit_ratio", c.cache_hit_ratio, "ratio"),
        metric("store.append_us", p50_us(&a.backend_mutate_ns), "us"),
        metric("store.append_p99_us", percentile(&a.backend_mutate_ns, 99.0) / 1e3, "us"),
        metric("store.appends_per_fsync", c.appends_per_fsync, "ratio"),
        metric("store.fsyncs_per_session", c.fsyncs_per_session, "count"),
        metric("store.snapshots", c.snapshots, "count"),
        metric("store.disk_bytes_per_session", c.disk_bytes_per_session, "B"),
        metric("store.written_bytes_per_session", c.written_bytes_per_session, "B"),
        metric("core.c1.answer_us", step_p50(Step::C1Answer), "us"),
        metric("core.c1.access_us", step_p50(Step::C1Access), "us"),
        metric("core.c2.receive_us", step_p50(Step::C2Receive), "us"),
        metric("pairing.line_cache_hit_ratio", c.line_cache_hit_ratio, "ratio"),
        metric(
            "process.cpu_ms_per_session",
            baseline.cpu_ns as f64 / 1e6 / baseline.completed().max(1) as f64,
            "ms",
        ),
        metric(
            "process.rss_growth_kb_per_session",
            baseline.rss_growth_kb / baseline.completed().max(1) as f64,
            "KiB",
        ),
    ]);

    // The detail line: every endpoint and step by name, the transport
    // share of each RPC, and which optional program counters were absent.
    let mut detail: Vec<Metric> = Vec::new();
    for e in Endpoint::ALL {
        let Some(t) = a.endpoint(e).filter(|t| !t.rpc.is_empty()) else { continue };
        let (rpc, handler, transport) = (p50_us(&t.rpc), p50_us(&t.handler), p50_us(&t.transport));
        detail.push(metric(format!("net.rpc_us.{}", e.name()), rpc, "us"));
        detail.push(metric(format!("net.handler_us.{}", e.name()), handler, "us"));
        detail.push(metric(format!("net.transport_us.{}", e.name()), transport, "us"));
        detail.push(metric(
            format!("net.transport_share.{}", e.name()),
            ratio(transport, rpc),
            "ratio",
        ));
    }
    for s in Step::ALL {
        if let Some(v) = a.step(s).filter(|v| !v.is_empty()) {
            detail.push(metric(format!("core.{}_us", s.name()), p50_us(v), "us"));
        }
    }
    // Counters that stay zero on these workloads when the program is
    // correct: a failing RPC already fails its session, one session in
    // flight never fills the accept queue, and receivers do no Gt
    // exponentiation or split-scalar multiplication (sharing does).
    detail.extend([
        metric("net.errors", c.server_errors, "count"),
        metric("net.server.busy_rejections", c.busy_rejections, "count"),
        metric("pairing.gt_pow_per_session", c.gt_pow_per_session, "count"),
        metric("pairing.split_scalar_mul_per_session", c.split_mul_per_session, "count"),
    ]);
    detail.push(metric("trace.misnested_spans", a.misnested as f64, "count"));
    detail.push(metric("trace.sessions", a.sessions as f64, "count"));
    detail.push(metric("trace.median_band_session_us", a.median_band_session_ns / 1e3, "us"));
    let mut missing = Vec::new();
    if c.cache_lookups == 0.0 {
        missing.push("\"sp.puzzle_cache\"");
    }
    if c.line_lookups == 0.0 {
        missing.push("\"pairing.line_cache\"");
    }
    if c.fsyncs_per_session == 0.0 {
        missing.push("\"store.counters\"");
    }
    let line = json_fields(&[
        ("kind", "\"layers\"".into()),
        ("detail", json_metrics(&detail)),
        ("missing", format!("[{}]", missing.join(","))),
    ]);
    (m, line)
}
