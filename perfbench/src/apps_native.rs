//! `apps-native`: one operation is one pass over the paper's suite — hBench,
//! MM, CF, NN, Kmeans, Hotspot and SRAD, each streamed at one `(T, P)` with
//! `P = 2`, run natively with the copy engine throttled to [`LINK_BW`].
//! MM and CF also run once per pass under work stealing (the graph
//! dispatcher). Every program is recorded, run, read back and, after the
//! pass's timing stops, checked against its app's serial reference.
//!
//! Once per pass the `cf-odd` probe runs a CF whose tile width does not
//! split into whole rows under its kernel thread hint. It is counted as an
//! attempted operation of its own and kept out of `op_ms` and `ops_per_s`.

use std::collections::BTreeMap;
use std::rc::Rc;
use std::time::{Duration, Instant};

use hstreams::executor::native::NativeConfig;
use hstreams::types::BufId;
use hstreams::{Context, NativeReport, SchedulerKind};
use mic_apps::{cholesky, hbench, hotspot, kmeans, mm, nn, srad, util};
use micsim::PlatformConfig;

use crate::stats;
use crate::trace::Tracer;
use crate::{Args, OpLog, Outcome};

/// Partitions per program: every program fits the host's two cores.
const P: usize = 2;
/// Copy-engine throttle, bytes per second.
const LINK_BW: f64 = 2.0e9;

type RecordFn = Box<dyn FnMut(&mut Context) -> hstreams::Result<()>>;
type CollectFn = Box<dyn Fn(&Context) -> hstreams::Result<Vec<f32>>>;
type CheckFn = Box<dyn FnMut(&[f32]) -> Result<(), String>>;

/// One streamed program of the suite on its own context.
struct Prog {
    name: &'static str,
    ctx: Context,
    /// Re-record the program (apps with a `record` entry point) or
    /// re-install the program recorded at set-up (Hotspot and SRAD, whose
    /// only entry point is `build`, which allocates).
    record: RecordFn,
    rerecords: bool,
    /// Host contents of every buffer after the fill, restored before each
    /// run: several apps compute in place.
    inputs: Vec<Vec<f32>>,
    collect: CollectFn,
    check: CheckFn,
    /// Floating-point operations of one run, counted from the app's
    /// reference loops (see README).
    gflop: f64,
    /// Also run once per pass under work stealing.
    steal: bool,
}

fn context() -> Result<Context, String> {
    Context::builder(PlatformConfig::phi_31sp())
        .partitions(P)
        .build()
        .map_err(|e| format!("context: {e}"))
}

fn snapshot(ctx: &Context) -> hstreams::Result<Vec<Vec<f32>>> {
    (0..ctx.buffer_count())
        .map(|i| ctx.read_host(BufId(i)))
        .collect()
}

/// `what` agrees with `want` within `tol`, relative to `max(|x|, 1)`.
fn close(what: &str, got: &[f32], want: &[f32], tol: f32) -> Result<(), String> {
    if got.len() != want.len() {
        return Err(format!(
            "{what}: {} outputs, want {}",
            got.len(),
            want.len()
        ));
    }
    let d = util::max_rel_diff(got, want, 1.0);
    if d <= tol {
        Ok(())
    } else {
        Err(format!("{what}: max relative difference {d} > {tol}"))
    }
}

/// A check against a serial reference computed on first use (outside any
/// timed window).
fn against(
    what: &'static str,
    tol: f32,
    reference: impl FnOnce() -> Vec<f32> + 'static,
) -> CheckFn {
    let mut reference = Some(reference);
    let mut want: Vec<f32> = Vec::new();
    Box::new(move |got: &[f32]| {
        if let Some(f) = reference.take() {
            let t0 = Instant::now();
            want = f();
            eprintln!(
                "apps-native: {what} serial reference {:.3} ms",
                t0.elapsed().as_secs_f64() * 1e3
            );
        }
        close(what, got, &want, tol)
    })
}

fn hbench_prog(seed: u64) -> Result<Prog, String> {
    let elems = (1 << 21) + (seed % 16) as usize * 64;
    let (iters, tiles) = (64, 4);
    let mut ctx = context()?;
    let data = util::random_vec(seed, elems, -1.0, 1.0);
    let mut bufs = Vec::new();
    for (i, r) in util::split_ranges(elems, tiles).into_iter().enumerate() {
        let a = ctx.alloc(format!("A{i}"), r.len());
        let b = ctx.alloc(format!("B{i}"), r.len());
        ctx.write_host(a, &data[r.clone()])
            .map_err(|e| e.to_string())?;
        bufs.push((a, b, r.len()));
    }
    let bufs = Rc::new(bufs);
    let rec = Rc::clone(&bufs);
    Ok(Prog {
        name: "hbench",
        record: Box::new(move |ctx| {
            ctx.reset_program();
            let streams = ctx.stream_count();
            for (i, &(a, b, len)) in rec.iter().enumerate() {
                let s = ctx.stream(i % streams)?;
                ctx.h2d(s, a)?;
                ctx.kernel(
                    s,
                    hbench::kernel(format!("hbench{i}"), len, iters)
                        .reading([a])
                        .writing([b]),
                )?;
                ctx.d2h(s, b)?;
            }
            Ok(())
        }),
        rerecords: true,
        inputs: snapshot(&ctx).map_err(|e| e.to_string())?,
        collect: Box::new(move |ctx| {
            let mut out = Vec::new();
            for &(_, b, _) in bufs.iter() {
                out.extend(ctx.read_host(b)?);
            }
            Ok(out)
        }),
        check: against("hbench", 1e-4, move || hbench::reference(&data, iters)),
        gflop: elems as f64 * iters as f64 / 1e9,
        steal: false,
        ctx,
    })
}

fn mm_prog(seed: u64) -> Result<Prog, String> {
    let cfg = mm::MmConfig {
        n: 384,
        tiles_per_dim: 2,
    };
    let mut ctx = context()?;
    let bufs = Rc::new(mm::build(&mut ctx, &cfg).map_err(|e| e.to_string())?);
    let (a, b) = mm::fill_inputs(&ctx, &cfg, &bufs, seed).map_err(|e| e.to_string())?;
    let rec = Rc::clone(&bufs);
    Ok(Prog {
        name: "mm",
        record: Box::new(move |ctx| {
            ctx.reset_program();
            mm::record(ctx, &cfg, &rec)
        }),
        rerecords: true,
        inputs: snapshot(&ctx).map_err(|e| e.to_string())?,
        collect: Box::new(move |ctx| Ok(mm::collect_result(ctx, &cfg, &bufs)?.data)),
        check: against("mm", 2e-3, move || mm::reference(&a, &b).data),
        gflop: cfg.flops() / 1e9,
        steal: true,
        ctx,
    })
}

fn cf_prog(seed: u64, cfg: cholesky::CfConfig) -> Result<Prog, String> {
    let mut ctx = context()?;
    let bufs = Rc::new(cholesky::build(&mut ctx, &cfg).map_err(|e| e.to_string())?);
    let a = cholesky::fill_inputs(&ctx, &cfg, &bufs, seed).map_err(|e| e.to_string())?;
    let rec = Rc::clone(&bufs);
    Ok(Prog {
        name: "cf",
        record: Box::new(move |ctx| {
            ctx.reset_program();
            cholesky::record(ctx, &cfg, &rec)
        }),
        rerecords: true,
        inputs: snapshot(&ctx).map_err(|e| e.to_string())?,
        collect: Box::new(move |ctx| cholesky::collect_result(ctx, &cfg, &bufs)),
        check: against("cf", 2e-3, move || cholesky::reference(&a, cfg.n)),
        gflop: cfg.flops() / 1e9,
        steal: true,
        ctx,
    })
}

fn nn_prog(seed: u64) -> Result<Prog, String> {
    let cfg = nn::NnConfig {
        records: (1 << 19) + (seed % 16) as usize * 64,
        tiles: 4,
        k: 10,
        target: (40.0, 120.0),
    };
    let mut ctx = context()?;
    let bufs = Rc::new(nn::build(&mut ctx, &cfg).map_err(|e| e.to_string())?);
    let data = nn::fill_inputs(&ctx, &cfg, &bufs, seed).map_err(|e| e.to_string())?;
    let rec = Rc::clone(&bufs);
    let flat = |v: Vec<(usize, f32)>| -> Vec<f32> {
        v.into_iter().flat_map(|(i, d)| [i as f32, d]).collect()
    };
    let mut want: Option<Vec<f32>> = None;
    Ok(Prog {
        name: "nn",
        record: Box::new(move |ctx| {
            ctx.reset_program();
            nn::record(ctx, &cfg, &rec)
        }),
        rerecords: true,
        inputs: snapshot(&ctx).map_err(|e| e.to_string())?,
        collect: Box::new(move |ctx| Ok(flat(nn::select_neighbors(ctx, &cfg, &bufs)?))),
        // Same neighbours in the same order, distances within 1e-5.
        check: Box::new(move |got| {
            let want = want.get_or_insert_with(|| {
                let t0 = Instant::now();
                let want = flat(nn::reference(&cfg, &data));
                eprintln!(
                    "apps-native: nn serial reference {:.3} ms",
                    t0.elapsed().as_secs_f64() * 1e3
                );
                want
            });
            let ids = |v: &[f32]| v.iter().step_by(2).copied().collect::<Vec<_>>();
            if ids(got) != ids(want) {
                return Err(format!(
                    "nn: neighbours {:?}, want {:?}",
                    ids(got),
                    ids(want)
                ));
            }
            close("nn distances", got, want, 1e-5)
        }),
        gflop: cfg.records as f64 * 6.0 / 1e9,
        steal: false,
        ctx,
    })
}

fn kmeans_prog(seed: u64) -> Result<Prog, String> {
    let cfg = kmeans::KmeansConfig {
        points: (1 << 16) + (seed % 16) as usize * 8,
        dims: 8,
        k: 8,
        iterations: 4,
        tiles: 4,
        alloc_micros: 5,
    };
    let mut ctx = context()?;
    let bufs = Rc::new(kmeans::build(&mut ctx, &cfg).map_err(|e| e.to_string())?);
    let data = kmeans::fill_inputs(&ctx, &cfg, &bufs, seed).map_err(|e| e.to_string())?;
    let rec = Rc::clone(&bufs);
    Ok(Prog {
        name: "kmeans",
        record: Box::new(move |ctx| {
            ctx.reset_program();
            kmeans::record(ctx, &cfg, &rec)
        }),
        rerecords: true,
        inputs: snapshot(&ctx).map_err(|e| e.to_string())?,
        collect: Box::new(move |ctx| ctx.read_host(bufs.centroids)),
        check: against("kmeans", 1e-3, move || kmeans::reference(&cfg, &data)),
        gflop: (cfg.iterations * cfg.points * cfg.k * cfg.dims * 3) as f64 / 1e9,
        steal: false,
        ctx,
    })
}

/// Replays the program recorded at set-up.
fn reinstall(program: hstreams::program::Program) -> RecordFn {
    Box::new(move |ctx| ctx.install_program(program.clone()))
}

fn hotspot_prog(seed: u64) -> Result<Prog, String> {
    let cfg = hotspot::HotspotConfig {
        rows: 768,
        cols: 768,
        iterations: 8,
        tiles: 4,
    };
    let mut ctx = context()?;
    let bufs = hotspot::build(&mut ctx, &cfg).map_err(|e| e.to_string())?;
    let (temp, power) = hotspot::fill_inputs(&ctx, &cfg, &bufs, seed).map_err(|e| e.to_string())?;
    Ok(Prog {
        name: "hotspot",
        record: reinstall(ctx.program().clone()),
        rerecords: false,
        inputs: snapshot(&ctx).map_err(|e| e.to_string())?,
        collect: Box::new(move |ctx| hotspot::collect_result(ctx, &cfg, &bufs)),
        check: against("hotspot", 1e-3, move || {
            hotspot::reference(&cfg, &temp, &power)
        }),
        gflop: (cfg.rows * cfg.cols * cfg.iterations * 15) as f64 / 1e9,
        steal: false,
        ctx,
    })
}

fn srad_prog(seed: u64) -> Result<Prog, String> {
    let cfg = srad::SradConfig {
        rows: 768,
        cols: 768,
        lambda: 0.5,
        iterations: 4,
        tiles: 4,
    };
    let mut ctx = context()?;
    let bufs = srad::build(&mut ctx, &cfg).map_err(|e| e.to_string())?;
    let img = srad::fill_inputs(&ctx, &cfg, &bufs, seed).map_err(|e| e.to_string())?;
    Ok(Prog {
        name: "srad",
        record: reinstall(ctx.program().clone()),
        rerecords: false,
        inputs: snapshot(&ctx).map_err(|e| e.to_string())?,
        collect: Box::new(move |ctx| srad::collect_result(ctx, &cfg, &bufs)),
        check: against("srad", 5e-3, move || srad::reference(&cfg, &img)),
        gflop: (cfg.rows * cfg.cols * cfg.iterations * 50) as f64 / 1e9,
        steal: false,
        ctx,
    })
}

/// The probe: CF n=500 in 4×4 tiles of width 125, with four kernel threads
/// per partition, so its tiles do not split into whole rows.
const CF_ODD: cholesky::CfConfig = cholesky::CfConfig {
    n: 500,
    tiles_per_dim: 4,
};
const CF_ODD_THREADS: usize = 4;
/// The probe's inputs do not depend on the run's seed: it fails on every
/// input, and its failures must be the same share of every run.
const CF_ODD_SEED: u64 = 0;

/// Kernel threads per partition, fixed so that kernel parallelism, and so
/// every timing, does not depend on the host's core count (the runtime's
/// default, half the cores, is 1 on the two-core host the reference
/// figures come from).
const KERNEL_THREADS: usize = 1;

fn native_cfg(traced: bool) -> NativeConfig {
    NativeConfig {
        link_bandwidth: Some(LINK_BW),
        max_threads_per_partition: Some(KERNEL_THREADS),
        trace: traced,
        ..NativeConfig::default()
    }
}

fn steal_cfg(traced: bool) -> NativeConfig {
    NativeConfig {
        scheduler: Some(SchedulerKind::WorkSteal),
        ..native_cfg(traced)
    }
}

fn probe_cfg(traced: bool) -> NativeConfig {
    NativeConfig {
        max_threads_per_partition: Some(CF_ODD_THREADS),
        ..native_cfg(traced)
    }
}

/// Restore the inputs, run, and read the outputs back.
fn run_once(
    p: &mut Prog,
    cfg: &NativeConfig,
    tracer: &Tracer,
) -> Result<(NativeReport, Vec<f32>), String> {
    for (i, data) in p.inputs.iter().enumerate() {
        p.ctx
            .write_host(BufId(i), data)
            .map_err(|e| format!("{}: restore inputs: {e}", p.name))?;
    }
    let ctx = &p.ctx;
    let report = tracer
        .span("native.run", || ctx.run_native_with(cfg))
        .map_err(|e| format!("{}: {e}", p.name))?;
    let out = tracer
        .span("apps.readback", || (p.collect)(ctx))
        .map_err(|e| format!("{}: readback: {e}", p.name))?;
    Ok((report, out))
}

fn record(p: &mut Prog, tracer: &Tracer) -> Result<(), String> {
    let name = if p.rerecords {
        "apps.record"
    } else {
        "apps.reinstall"
    };
    let (ctx, rec) = (&mut p.ctx, &mut p.record);
    tracer
        .span(name, || rec(ctx))
        .map_err(|e| format!("{}: record: {e}", p.name))
}

/// Everything one pass of the suite produced, checked after timing stops.
struct PassResult {
    outputs: Vec<(usize, Vec<f32>)>,
    reports: Vec<(usize, NativeReport)>,
}

fn pass(progs: &mut [Prog], traced: bool, tracer: &Tracer) -> Result<PassResult, String> {
    let mut res = PassResult {
        outputs: Vec::new(),
        reports: Vec::new(),
    };
    for (i, p) in progs.iter_mut().enumerate() {
        record(p, tracer)?;
        let (report, out) = run_once(p, &native_cfg(traced), tracer)?;
        res.outputs.push((i, out));
        res.reports.push((i, report));
        if p.steal {
            let (report, out) = run_once(p, &steal_cfg(traced), tracer)?;
            res.outputs.push((i, out));
            res.reports.push((i, report));
        }
    }
    Ok(res)
}

struct Suite {
    progs: Vec<Prog>,
    probe: Prog,
}

fn setup(seed: u64, tracer: &Tracer) -> Result<Suite, String> {
    let mut progs = vec![
        hbench_prog(seed)?,
        mm_prog(seed)?,
        cf_prog(
            seed,
            cholesky::CfConfig {
                n: 600,
                tiles_per_dim: 3,
            },
        )?,
        nn_prog(seed)?,
        kmeans_prog(seed)?,
        hotspot_prog(seed)?,
        srad_prog(seed)?,
    ];
    // Warm-up: spawn each context's runtime threads and page the buffers in.
    pass(&mut progs, false, tracer)?;
    let mut probe = cf_prog(CF_ODD_SEED, CF_ODD)?;
    probe.name = "cf-odd";
    self::probe(&mut probe, tracer)?;
    Ok(Suite { progs, probe })
}

/// Run the probe once. `Ok(None)` is the known fault; anything else that
/// fails is reported as an error.
fn probe(p: &mut Prog, tracer: &Tracer) -> Result<Option<Vec<f32>>, String> {
    record(p, tracer)?;
    // The known fault is a kernel panic; keep its message off stderr.
    let hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let run = run_once(p, &probe_cfg(false), tracer);
    std::panic::set_hook(hook);
    match run {
        Ok((_, out)) => Ok(Some(out)),
        Err(e) if is_known_fault(&e) => Ok(None),
        Err(e) => Err(e),
    }
}

/// The CF tile kernels split a b×b tile into `threads` chunks that are not
/// whole rows, so a row kernel indexes past its chunk and panics.
fn is_known_fault(e: &str) -> bool {
    e.contains("panicked")
        && ["\"trsm(", "\"syrk(", "\"gemm("]
            .iter()
            .any(|k| e.contains(k))
}

/// Per-layer samples of one traced pass: the native reports' counters,
/// and one more call into each layer the pass ran through (check, static
/// bound, simulator, work-stealing planner), each in its own span.
fn trace_layers(progs: &mut [Prog], res: &PassResult, tracer: &Tracer) {
    let mut kernel_ns = 0.0;
    let (mut actions, mut bytes, mut steals) = (0.0, 0.0, 0.0);
    for (i, r) in &res.reports {
        actions += r.actions_executed as f64;
        bytes += r.bytes_transferred as f64;
        steals += r.steals as f64;
        kernel_ns += crate::native_samples(tracer, r, crate::transfers(&progs[*i].ctx));
    }
    tracer.sample("apps.kernel_ms", kernel_ns / 1e6);
    tracer.sample("native.actions", actions);
    tracer.sample("native.bytes", bytes);
    tracer.sample("native.steals", steals);
    tracer.span("side", || {
        for p in progs.iter_mut() {
            let ctx = &mut p.ctx;
            tracer.span("check.analyze", || ctx.analyze());
            tracer.sample("check.actions", ctx.program().action_count() as f64);
            tracer.span("opt.bound", || ctx.static_cost());
            if let Ok(r) = tracer.span("sim.run", || ctx.run_sim()) {
                tracer.sample("sim.tasks", r.timeline.records.len() as f64);
            }
            if p.steal {
                ctx.set_scheduler(SchedulerKind::WorkSteal);
                tracer.span("sched.plan", || ctx.plan_schedule());
                ctx.set_scheduler(SchedulerKind::Fifo);
            }
        }
    });
}

/// Simulated makespans of the suite at the same `(T, P)`, each checked
/// against its static lower bound under FIFO.
fn simulate(progs: &[Prog]) -> Result<Vec<f64>, String> {
    progs
        .iter()
        .map(|p| {
            let ms = p
                .ctx
                .run_sim()
                .map_err(|e| format!("{}: sim: {e}", p.name))?
                .makespan()
                .as_secs_f64()
                * 1e3;
            let bound = p
                .ctx
                .static_cost()
                .ok_or_else(|| format!("{}: no static cost", p.name))?
                .makespan_lower_bound
                * 1e3;
            if ms < bound {
                return Err(format!(
                    "{}: simulated makespan {ms} ms below its static lower bound {bound} ms",
                    p.name
                ));
            }
            Ok(ms)
        })
        .collect()
}

pub fn run(args: &Args, tracer: &Tracer) -> Result<Outcome, String> {
    let mut m = BTreeMap::new();
    let Suite {
        mut progs,
        probe: mut cf_odd,
    } = crate::repeat_setup(&mut m, || setup(args.seed, tracer))?;
    let mut correct = true;
    match simulate(&progs) {
        Ok(ms) => {
            m.insert("sim_ms", stats::geomean(&ms));
        }
        Err(e) => {
            eprintln!("apps-native: {e}");
            correct = false;
        }
    }

    let mut ops = OpLog::default();
    let mut probe_ms = Vec::new();
    let (mut probes, mut probe_failed) = (0u64, 0u64);
    let start = Instant::now();
    let deadline = Duration::from_secs(args.seconds);
    while start.elapsed() < deadline {
        let traced = crate::trace_this_op(args, ops.count());
        tracer.set_on(traced);
        tracer.begin_op();
        let t0 = Instant::now();
        let res = tracer.span("op", || pass(&mut progs, traced, tracer))?;
        let took = t0.elapsed();
        ops.push(traced, took);
        ops.busy(took, 1);

        let t0 = Instant::now();
        // The probe is an operation of its own and stays out of the spans.
        tracer.set_on(false);
        let probed = probe(&mut cf_odd, tracer)?;
        probe_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        probes += 1;
        match probed {
            None => probe_failed += 1,
            Some(out) => {
                if let Err(e) = (cf_odd.check)(&out) {
                    eprintln!("apps-native: {e}");
                    correct = false;
                }
            }
        }
        tracer.set_on(traced);
        if traced {
            trace_layers(&mut progs, &res, tracer);
            tracer.sample(
                "apps.gflop",
                progs
                    .iter()
                    .map(|p| p.gflop * if p.steal { 2.0 } else { 1.0 })
                    .sum(),
            );
        }
        tracer.set_on(false);
        for (i, out) in &res.outputs {
            if let Err(e) = (progs[*i].check)(out) {
                eprintln!("apps-native: {e}");
                correct = false;
            }
        }
    }

    ops.fill(&mut m);
    let med = |name: &str| stats::median(&tracer.samples(name));
    let us = |name: &str| stats::median(&tracer.durations(name)) / 1e3;
    m.insert("apps.record_us", us("apps.record"));
    crate::native_metrics(&mut m, tracer);
    let kernel_ms = med("apps.kernel_ms");
    m.insert("apps.gflop", med("apps.gflop"));
    if kernel_ms > 0.0 {
        m.insert("apps.gflop_per_s", med("apps.gflop") / (kernel_ms / 1e3));
    }
    m.insert(
        "native.threads",
        progs
            .iter()
            .chain([&cf_odd])
            .filter_map(|p| p.ctx.native_thread_count())
            .sum::<usize>() as f64,
    );
    m.insert("opt.bound_us", us("opt.bound"));
    m.insert("sched.plan_us", us("sched.plan"));
    crate::check_and_sim_metrics(&mut m, tracer);
    m.insert("probe.failed", probe_failed as f64);
    m.insert("probe.ms", stats::median(&probe_ms));
    Ok(Outcome {
        correct,
        attempted: ops.count() as u64 + probes,
        failed: probe_failed,
        metrics: m,
    })
}
