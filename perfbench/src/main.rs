//! End-to-end and per-layer benchmark of the mic-streams workspace.
//!
//! ```text
//! perfbench --workload <apps-native|tune-sim|serve-native> --seed <n>
//!           --seconds <s> --trace <0|1> [--spans <file.jsonl>]
//! ```
//!
//! Every load comes from this one thread, closed loop: an operation starts
//! only after the previous one finished. The last line of standard output
//! is one JSON object: `correct`, `attempted`, `failed` and `metrics` — the
//! end-to-end metrics with `--trace 0`, the per-layer metrics with
//! `--trace 1`. See `README.md` beside this crate for what each workload
//! runs and which end-to-end metric each layer metric should move.

mod apps_native;
mod serve_native;
mod stats;
mod trace;
mod tune_sim;

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use trace::Tracer;

/// End-to-end metrics, reported by every workload with `--trace 0`.
const END_TO_END: [(&str, &str); 5] = [
    ("ops_per_s", "1/s"),
    ("op_ms.p50", "ms"),
    ("sim_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics, reported by every workload with `--trace 1` (0 where
/// the workload does not call into the layer).
const PER_LAYER: [(&str, &str); 49] = [
    ("apps.record_us", "us"),
    ("apps.kernel_ms", "ms"),
    ("apps.gflop", "GFLOP"),
    ("apps.gflop_per_s", "GFLOP/s"),
    ("native.run_ms", "ms"),
    ("native.launch_us.p50", "us"),
    ("native.queue_wait_us.p50", "us"),
    ("native.copy_busy_frac", "fraction"),
    ("native.hidden_frac", "fraction"),
    ("native.actions", "count"),
    ("native.bytes", "bytes"),
    ("native.steals", "count"),
    ("native.threads", "count"),
    ("check.analyze_us", "us"),
    ("check.ns_per_action", "ns"),
    ("check.actions", "count"),
    ("opt.optimize_us", "us"),
    ("opt.bound_us", "us"),
    ("opt.elided", "count"),
    ("sched.plan_us", "us"),
    ("sim.run_us", "us"),
    ("sim.tasks", "count"),
    ("sim.ns_per_task", "ns"),
    ("tune.trials", "count"),
    ("tune.pruned", "count"),
    ("tune.trial_us.fifo", "us"),
    ("tune.trial_us.heft", "us"),
    ("tune.trial_us.steal", "us"),
    ("serve.submit_us", "us"),
    ("serve.round_ms", "ms"),
    ("serve.exec_ms", "ms"),
    ("serve.host_ms", "ms"),
    ("serve.materialize_us", "us"),
    ("serve.merge_us", "us"),
    ("serve.install_us", "us"),
    ("serve.readback_us", "us"),
    ("serve.host_other_ms", "ms"),
    ("serve.jobs_per_round", "count"),
    ("serve.merged_streams", "count"),
    ("serve.syncs_elided", "count"),
    ("probe.failed", "count"),
    ("probe.ms", "ms"),
    ("op_ms.p95", "ms"),
    ("trace.op_ms.p50", "ms"),
    ("trace.untraced_op_ms.p50", "ms"),
    ("trace.overhead_ms", "ms"),
    ("trace.spans", "count"),
    ("host.cpus", "count"),
    ("run.ops", "count"),
];

/// Each workload repeats its set-up at least [`SETUP_REPEATS`] times and
/// until the repetitions took [`SETUP_BUDGET`] in all; `setup_s` is the
/// median, because one set-up of a few milliseconds does not repeat.
const SETUP_REPEATS: usize = 7;
const SETUP_BUDGET: Duration = Duration::from_millis(500);

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    pub spans: Option<std::path::PathBuf>,
}

/// What a workload hands back: its verdict, operation counts, and the
/// metrics it measured by name.
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: BTreeMap<&'static str, f64>,
}

/// Operations per window of the operation rate: `ops_per_s` is the median
/// over windows, so a stall in which the host lends the process less CPU
/// moves a few windows, not the figure. A window closes at the first
/// `busy` call that brings it to [`RATE_WINDOW_OPS`]: five passes on
/// apps-native and tune-sim, one round of eight jobs on serve-native.
/// Longer windows let the host's stalls into nearly every window: over
/// eight serve-native runs in a noisy stretch, the rate's spread grew from
/// 0.15 with one-round windows to 0.29, 0.40 and 0.46 with windows of 2,
/// 10 and 100 ms.
const RATE_WINDOW_OPS: u64 = 5;

/// Operation wall times in ms, split into traced and untraced operations
/// (the traced run alternates the two to measure its own overhead), and
/// the operation rate per window of busy time.
#[derive(Default)]
pub struct OpLog {
    untraced: stats::LogHist,
    traced: stats::LogHist,
    window: (u64, Duration),
    rates: Vec<f64>,
    total: (u64, Duration),
}

impl OpLog {
    /// One operation's wall time.
    pub fn push(&mut self, traced: bool, d: Duration) {
        let ms = d.as_secs_f64() * 1e3;
        if traced {
            self.traced.push(ms);
        } else {
            self.untraced.push(ms);
        }
    }

    /// `ops` operations completed in `d` of busy time.
    pub fn busy(&mut self, d: Duration, ops: u64) {
        self.total.0 += ops;
        self.total.1 += d;
        self.window.0 += ops;
        self.window.1 += d;
        if self.window.0 >= RATE_WINDOW_OPS {
            self.rates
                .push(self.window.0 as f64 / self.window.1.as_secs_f64());
            self.window = (0, Duration::ZERO);
        }
    }

    pub fn count(&self) -> usize {
        (self.untraced.len() + self.traced.len()) as usize
    }

    /// The rate, latency and tracing-overhead metrics.
    pub fn fill(&self, m: &mut BTreeMap<&'static str, f64>) {
        let rate = if self.rates.len() >= 3 {
            stats::median(&self.rates)
        } else {
            self.total.0 as f64 / self.total.1.as_secs_f64().max(1e-9)
        };
        let untraced = self.untraced.quantile(0.5);
        m.insert("ops_per_s", rate);
        m.insert("op_ms.p50", untraced);
        m.insert("op_ms.p95", self.untraced.quantile(0.95));
        m.insert("trace.untraced_op_ms.p50", untraced);
        if self.traced.len() > 0 {
            let traced = self.traced.quantile(0.5);
            m.insert("trace.op_ms.p50", traced);
            m.insert("trace.overhead_ms", traced - untraced);
        }
        m.insert("run.ops", self.count() as f64);
    }
}

/// Run `setup` repeatedly (see [`SETUP_REPEATS`]), keep the last result,
/// and record the median set-up time as `setup_s`.
pub fn repeat_setup<T>(
    m: &mut BTreeMap<&'static str, f64>,
    mut setup: impl FnMut() -> Result<T, String>,
) -> Result<T, String> {
    let mut times = Vec::new();
    let mut last = None;
    let start = Instant::now();
    while times.len() < SETUP_REPEATS || start.elapsed() < SETUP_BUDGET {
        drop(last.take());
        let t0 = Instant::now();
        let v = setup()?;
        times.push(t0.elapsed().as_secs_f64());
        last = Some(v);
    }
    m.insert("setup_s", stats::median(&times));
    Ok(last.expect("at least one set-up ran"))
}

/// The check and simulator layers' metrics, from the `check.analyze` and
/// `sim.run` spans and the action and task counts sampled beside them.
pub fn check_and_sim_metrics(m: &mut BTreeMap<&'static str, f64>, tracer: &Tracer) {
    let analyze = tracer.durations("check.analyze");
    let actions = tracer.samples("check.actions");
    m.insert("check.analyze_us", stats::median(&analyze) / 1e3);
    m.insert("check.actions", stats::median(&actions));
    if stats::sum(&actions) > 0.0 {
        m.insert(
            "check.ns_per_action",
            stats::sum(&analyze) / stats::sum(&actions),
        );
    }
    let sim = tracer.durations("sim.run");
    let tasks = tracer.samples("sim.tasks");
    m.insert("sim.run_us", stats::median(&sim) / 1e3);
    m.insert("sim.tasks", stats::median(&tasks));
    if stats::sum(&tasks) > 0.0 {
        m.insert("sim.ns_per_task", stats::sum(&sim) / stats::sum(&tasks));
    }
}

/// Transfers in the context's recorded program.
pub fn transfers(ctx: &hstreams::Context) -> usize {
    ctx.program()
        .streams
        .iter()
        .flat_map(|s| &s.actions)
        .filter(|a| matches!(a, hstreams::action::Action::Transfer { .. }))
        .count()
}

/// Sample a native run's counters — launch overhead, transfer queue wait
/// per transfer, copy-engine busy share, hidden transfer share — and return
/// its kernel-busy time in ns (spans on partition lanes, the host's
/// included). `transfers` is the run's transfer count.
pub fn native_samples(tracer: &Tracer, r: &hstreams::NativeReport, transfers: usize) -> f64 {
    let Some(t) = &r.trace else { return 0.0 };
    let kernel_ns: u64 = t
        .timeline
        .records
        .iter()
        .filter(|rec| {
            rec.resource
                .is_some_and(|id| t.kinds.partitions.contains(&id))
        })
        .map(|rec| (rec.finish - rec.start).nanos())
        .sum();
    let c = &t.counters;
    tracer.sample("native.launch_us", c.launch_overhead.mean_ns() / 1e3);
    let waited: f64 = c.queue_wait.iter().map(Duration::as_secs_f64).sum();
    tracer.sample(
        "native.queue_wait_us",
        waited * 1e6 / transfers.max(1) as f64,
    );
    let lanes = c.copy_busy_fraction.len().max(1) as f64;
    tracer.sample(
        "native.copy_busy_frac",
        c.copy_busy_fraction.iter().map(|(_, f)| f).sum::<f64>() / lanes,
    );
    tracer.sample("native.hidden_frac", t.overlap().hidden_fraction());
    kernel_ns as f64
}

/// The native layer's metrics from the samples [`native_samples`] took and
/// the per-operation counters sampled beside them.
pub fn native_metrics(m: &mut BTreeMap<&'static str, f64>, tracer: &Tracer) {
    let med = |name: &str| stats::median(&tracer.samples(name));
    m.insert(
        "native.run_ms",
        stats::median(&tracer.per_op_totals("native.run")) / 1e6,
    );
    m.insert("native.launch_us.p50", med("native.launch_us"));
    m.insert("native.queue_wait_us.p50", med("native.queue_wait_us"));
    m.insert("native.copy_busy_frac", med("native.copy_busy_frac"));
    m.insert("native.hidden_frac", med("native.hidden_frac"));
    m.insert("native.actions", med("native.actions"));
    m.insert("native.bytes", med("native.bytes"));
    m.insert("native.steals", med("native.steals"));
    m.insert("apps.kernel_ms", med("apps.kernel_ms"));
}

/// The traced run alternates: even operations untraced, odd ones traced.
pub fn trace_this_op(args: &Args, index: usize) -> bool {
    args.trace && index % 2 == 1
}

fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut spans = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(value.parse().map_err(|e| format!("--seconds: {e}"))?);
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, got {other}")),
                };
            }
            "--spans" => spans = Some(value.into()),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let seconds: u64 = seconds.ok_or("--seconds is required")?;
    if !(1..=600).contains(&seconds) {
        return Err(format!("--seconds {seconds} outside 1..=600"));
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace,
        spans,
    })
}

fn json_metrics(m: &BTreeMap<&'static str, f64>, names: &[(&str, &str)]) -> String {
    let fields: Vec<String> = names
        .iter()
        .map(|(name, unit)| {
            let v = m.get(name).copied().unwrap_or(0.0);
            let v = if v.is_finite() { v } else { 0.0 };
            format!("\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!("{{{}}}", fields.join(", "))
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let tracer = Tracer::new(false);
    let run = match args.workload.as_str() {
        "apps-native" => apps_native::run(&args, &tracer),
        "tune-sim" => tune_sim::run(&args, &tracer),
        "serve-native" => serve_native::run(&args, &tracer),
        other => Err(format!("unknown workload {other}")),
    };
    let mut out = match run {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", args.workload);
            std::process::exit(1);
        }
    };
    out.metrics.insert("peak_rss_mb", peak_rss_mb());
    out.metrics
        .insert("trace.spans", tracer.span_count() as f64);
    out.metrics.insert(
        "host.cpus",
        std::thread::available_parallelism().map_or(1, std::num::NonZero::get) as f64,
    );
    if let (true, Some(path)) = (args.trace, &args.spans) {
        if let Err(e) = tracer.write_jsonl(path) {
            eprintln!("perfbench: writing spans to {}: {e}", path.display());
            std::process::exit(1);
        }
    }
    let names: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        out.correct,
        out.attempted,
        out.failed,
        json_metrics(&out.metrics, names)
    );
}
