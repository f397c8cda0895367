//! `serve-native`: eight tenants — the six `catalog` apps and two
//! two-lane `synthetic` tenants — against one `StreamService` at its
//! default geometry with the optimizer on. Each tenant keeps one job in
//! flight, all eight submitting together; one operation is one job, timed
//! from just before its `submit` until `run_round` returns its outcome.
//!
//! The traced run replays each traced round's payload set on a side
//! context, stage by stage — materialize, relocate/merge, install,
//! optimize, analyze, execute, read back — to split the round's host-side
//! time into named stages. The service's own executor call is timed by the
//! service itself (`RoundReport::duration`).

use std::collections::{BTreeMap, HashMap};
use std::time::{Duration, Instant};

use hstreams::executor::native::NativeConfig;
use hstreams::lease::TenantId;
use hstreams::testutil::RefExec;
use hstreams::types::BufId;
use hstreams::Context;
use mic_apps::workload::{catalog, synthetic};
use mic_apps::{cholesky, hbench, kmeans, mm, nn, util};
use micsim::device::DeviceId;
use micsim::PlatformConfig;
use stream_serve::{
    merge, plan_bases, relocate, Admission, JobStatus, RoundReport, ServeConfig, StreamService,
    TenantMap, TenantProgram,
};

use crate::stats;
use crate::trace::Tracer;
use crate::{Args, OpLog, Outcome};

/// `workload::catalog` records hBench and the partition microbenchmark with
/// two kernel iterations.
const CATALOG_HBENCH_ITERS: usize = 2;

fn config() -> ServeConfig {
    let mut cfg = ServeConfig::new(PlatformConfig::phi_31sp());
    cfg.optimize = true;
    cfg
}

/// The eight tenants' payloads. The synthetic tenants run from zeroed
/// inputs: `RefExec`, their reference, starts every buffer at zero.
fn payloads(seed: u64) -> Result<Vec<TenantProgram>, String> {
    let platform = PlatformConfig::phi_31sp();
    let mut out = Vec::new();
    for mut w in catalog(seed) {
        out.push(TenantProgram::capture(&mut w, &platform).map_err(|e| e.to_string())?);
    }
    for i in 0..2u64 {
        let mut w = synthetic(format!("syn{seed}.{i}"), seed ^ (i << 32), 2);
        let mut p = TenantProgram::capture(&mut w, &platform).map_err(|e| e.to_string())?;
        for b in &mut p.buffers {
            b.host.fill(0.0);
        }
        out.push(p);
    }
    Ok(out)
}

fn submit(svc: &mut StreamService, tenant: usize, p: &TenantProgram) -> Result<u64, String> {
    let tenant = u16::try_from(tenant).map_err(|e| e.to_string())?;
    match svc.submit(TenantId(tenant), p.clone()) {
        Admission::Accepted(id) => Ok(id),
        other => Err(format!("{}: submit refused: {other:?}", p.workload)),
    }
}

/// A completed job of a round.
struct Done<'r> {
    id: u64,
    tenant: usize,
    outputs: &'r [Vec<f32>],
}

/// The round's jobs, all of which must have completed.
fn completed(report: &RoundReport) -> Result<Vec<Done<'_>>, String> {
    report
        .outcomes
        .iter()
        .map(|o| match &o.status {
            JobStatus::Completed { outputs } => Ok(Done {
                id: o.id,
                tenant: usize::from(o.tenant.0),
                outputs,
            }),
            JobStatus::Degraded { lost, .. } => Err(format!(
                "{}: degraded, lost partitions {lost:?}",
                o.workload
            )),
        })
        .collect()
}

/// Run one payload alone on a fresh service: the isolation baseline.
fn solo(p: &TenantProgram) -> Result<Vec<Vec<f32>>, String> {
    let mut svc = StreamService::new(config()).map_err(|e| e.to_string())?;
    submit(&mut svc, 0, p)?;
    let rounds = svc.drain(8).map_err(|e| e.to_string())?;
    let mut outs = None;
    for r in &rounds {
        for done in completed(r)? {
            outs = Some(done.outputs.to_vec());
        }
    }
    outs.ok_or_else(|| format!("{}: solo job did not complete", p.workload))
}

fn by_name<'a>(p: &'a TenantProgram, name: &str) -> Result<&'a [f32], String> {
    p.buffers
        .iter()
        .find(|b| b.name == name)
        .map(|b| b.host.as_slice())
        .ok_or_else(|| format!("{}: no buffer {name}", p.workload))
}

fn concat(p: &TenantProgram, prefix: &str) -> Vec<f32> {
    let mut tiles: Vec<(usize, &[f32])> = p
        .buffers
        .iter()
        .filter_map(|b| {
            let i = b.name.strip_prefix(prefix)?.parse().ok()?;
            Some((i, b.host.as_slice()))
        })
        .collect();
    tiles.sort_by_key(|(i, _)| *i);
    tiles
        .into_iter()
        .flat_map(|(_, t)| t.iter().copied())
        .collect()
}

fn isqrt(x: usize) -> usize {
    (x as f64).sqrt().round() as usize
}

/// What a tenant's outputs must be, with the relative tolerance they are
/// held to (0 = bit for bit).
struct Expected {
    outputs: Vec<Vec<f32>>,
    tol: f32,
}

/// Each payload's expected outputs, computed apart from the service from
/// the captured inputs: the app's serial reference, or `RefExec` for the
/// synthetic tenants.
fn expected(p: &TenantProgram) -> Result<Expected, String> {
    let name_of = |b: BufId| p.buffers[b.0].name.as_str();
    let outs = |f: &dyn Fn(&str) -> Result<Vec<f32>, String>, tol| -> Result<Expected, String> {
        let outputs = p
            .outputs
            .iter()
            .map(|&b| f(name_of(b)))
            .collect::<Result<_, _>>()?;
        Ok(Expected { outputs, tol })
    };
    match p.workload.as_str() {
        // The microbenchmark runs hBench's kernel on every A tile into the
        // matching B tile, without transfers.
        "partition_micro" | "hbench" => outs(
            &|out| {
                let input = by_name(p, &out.replacen('B', "A", 1))?;
                Ok(hbench::reference(input, CATALOG_HBENCH_ITERS))
            },
            1e-4,
        ),
        "mm" => {
            let tile = isqrt(by_name(p, "C0_0")?.len());
            let n = by_name(p, "A_panel0")?.len() / tile;
            let a = concat(p, "A_panel");
            let mut b = vec![0.0f32; n * n];
            for j in 0..n / tile {
                let panel = by_name(p, &format!("B_panel{j}"))?;
                for r in 0..n {
                    b[r * n + j * tile..r * n + (j + 1) * tile]
                        .copy_from_slice(&panel[r * tile..(r + 1) * tile]);
                }
            }
            let c = mm::reference(&mm::Mat { n, data: a }, &mm::Mat { n, data: b }).data;
            outs(
                &|out| {
                    let (i, j) = tile_ij(out.strip_prefix('C'))?;
                    Ok(block(&c, n, tile, i, j))
                },
                2e-3,
            )
        }
        "cf" => {
            let b = isqrt(by_name(p, "A0_0")?.len());
            let tpd = p
                .buffers
                .iter()
                .filter(|x| {
                    x.name.starts_with('A')
                        && tile_ij(Some(&x.name[1..])).is_ok_and(|(i, j)| i == j)
                })
                .count();
            let n = tpd * b;
            let mut a = vec![0.0f32; n * n];
            for i in 0..tpd {
                for j in 0..=i {
                    let t = by_name(p, &format!("A{i}_{j}"))?;
                    for r in 0..b {
                        for c in 0..b {
                            let (row, col) = (i * b + r, j * b + c);
                            a[row * n + col] = t[r * b + c];
                            a[col * n + row] = t[r * b + c];
                        }
                    }
                }
            }
            let l = cholesky::reference(&a, n);
            outs(
                &|out| {
                    let (i, j) = tile_ij(out.strip_prefix('A'))?;
                    Ok(block(&l, n, b, i, j))
                },
                2e-3,
            )
        }
        "nn" => {
            let data = concat(p, "rec");
            let cfg = nn::NnConfig {
                records: data.len() / 2,
                tiles: 1,
                k: 10,
                target: (40.0, 120.0),
            };
            let want = nn::reference(&cfg, &data);
            // Compared as the k nearest, which the reference computes;
            // the per-record distances come back tile by tile.
            Ok(Expected {
                outputs: vec![want.iter().flat_map(|&(i, d)| [i as f32, d]).collect()],
                tol: 1e-5,
            })
        }
        "kmeans" => {
            let centroids = by_name(p, "centroids")?.len();
            let k = by_name(p, "partial0")?.len() - centroids;
            let dims = centroids / k;
            let data = concat(p, "pts");
            let iterations = p
                .program
                .streams
                .iter()
                .flat_map(|s| &s.actions)
                .filter(|a| a.label().starts_with("reduce("))
                .count();
            let cfg = kmeans::KmeansConfig {
                points: data.len() / dims,
                dims,
                k,
                iterations,
                tiles: 1,
                alloc_micros: 5,
            };
            outs(&|_| Ok(kmeans::reference(&cfg, &data)), 1e-3)
        }
        w if w.starts_with("syn") => {
            let lens: Vec<usize> = p.buffers.iter().map(|b| b.len).collect();
            let state = RefExec::run_fifo(&p.program, &lens)
                .map_err(|s| format!("{w}: reference interpreter stuck: {s:?}"))?;
            Ok(Expected {
                outputs: p.outputs.iter().map(|b| state.host[b.0].clone()).collect(),
                tol: 0.0,
            })
        }
        other => Err(format!("no reference for tenant workload {other}")),
    }
}

/// `"{i}_{j}"` → `(i, j)`.
fn tile_ij(s: Option<&str>) -> Result<(usize, usize), String> {
    let s = s.ok_or("not a tile name")?;
    let (i, j) = s
        .split_once('_')
        .ok_or_else(|| format!("not a tile name: {s}"))?;
    Ok((
        i.parse().map_err(|_| format!("not a tile name: {s}"))?,
        j.parse().map_err(|_| format!("not a tile name: {s}"))?,
    ))
}

/// Tile `(i, j)` of edge `b` of an `n × n` row-major matrix.
fn block(m: &[f32], n: usize, b: usize, i: usize, j: usize) -> Vec<f32> {
    (0..b)
        .flat_map(|r| {
            m[(i * b + r) * n + j * b..(i * b + r) * n + (j + 1) * b]
                .iter()
                .copied()
        })
        .collect()
}

/// The k nearest `(index, distance)` pairs of NN's distance tiles, in the
/// reference's order (stable sort by distance). Outputs come in transfer
/// order; `dist{t}` names put them back in record order.
fn nearest(p: &TenantProgram, got: &[Vec<f32>], k: usize) -> Vec<f32> {
    let mut tiles: Vec<(usize, &Vec<f32>)> = p
        .outputs
        .iter()
        .zip(got)
        .map(|(b, g)| {
            let t = p.buffers[b.0]
                .name
                .strip_prefix("dist")
                .and_then(|t| t.parse().ok());
            (t.unwrap_or(usize::MAX), g)
        })
        .collect();
    tiles.sort_by_key(|(t, _)| *t);
    let mut all: Vec<(usize, f32)> = tiles
        .into_iter()
        .flat_map(|(_, g)| g.iter().copied())
        .enumerate()
        .collect();
    all.sort_by(|a, b| a.1.total_cmp(&b.1));
    all.truncate(k);
    all.into_iter().flat_map(|(i, d)| [i as f32, d]).collect()
}

fn check_outputs(
    p: &TenantProgram,
    got: &[Vec<f32>],
    want: &Expected,
    solo: &[Vec<f32>],
) -> Result<(), String> {
    let bits = |v: &[Vec<f32>]| -> Vec<Vec<u32>> {
        v.iter()
            .map(|x| x.iter().map(|f| f.to_bits()).collect())
            .collect()
    };
    if bits(got) != bits(solo) {
        return Err(format!("{}: outputs differ from its solo run", p.workload));
    }
    let got: Vec<Vec<f32>> = if p.workload == "nn" {
        vec![nearest(p, got, want.outputs[0].len() / 2)]
    } else {
        got.to_vec()
    };
    if got.len() != want.outputs.len() {
        return Err(format!(
            "{}: {} outputs, want {}",
            p.workload,
            got.len(),
            want.outputs.len()
        ));
    }
    for (g, w) in got.iter().zip(&want.outputs) {
        let ok = if want.tol == 0.0 {
            bits(std::slice::from_ref(g)) == bits(std::slice::from_ref(w))
        } else {
            g.len() == w.len() && util::max_rel_diff(g, w, 1.0) <= want.tol
        };
        if !ok {
            return Err(format!("{}: outputs differ from the reference", p.workload));
        }
    }
    if p.workload == "nn" {
        let ids = |v: &[f32]| v.iter().step_by(2).copied().collect::<Vec<_>>();
        if ids(&got[0]) != ids(&want.outputs[0]) {
            return Err("nn: neighbour indices differ from the reference".into());
        }
    }
    Ok(())
}

/// The tenant workload whose jobs fail every time, through a known fault
/// of the service: `derive_outputs` in `crates/serve/src/tenant.rs` names
/// the kernel-written buffers as the outputs of a payload that downloads
/// nothing, but the service returns host readbacks, which device kernels
/// never write. Such a job comes back with its captured buffers instead of
/// its results; it counts as a failed operation while it does.
const KNOWN_FAULT: &str = "partition_micro";

/// A job of [`KNOWN_FAULT`] failed with that fault: its outputs are,
/// bit for bit, the host copies it was captured with.
fn is_known_fault(p: &TenantProgram, got: &[Vec<f32>]) -> bool {
    p.workload == KNOWN_FAULT
        && got.len() == p.outputs.len()
        && p.outputs.iter().zip(got).all(|(b, g)| {
            let captured = &p.buffers[b.0].host;
            captured.len() == g.len()
                && captured.iter().zip(g).all(|(c, x)| c.to_bits() == x.to_bits())
        })
}

/// A context of the service's geometry with every tenant's buffers
/// allocated, on which a round's payload set is replayed stage by stage.
struct Side {
    ctx: Context,
    tables: Vec<Vec<BufId>>,
}

fn side(payloads: &[TenantProgram]) -> Result<Side, String> {
    let cfg = config();
    let mut ctx = Context::builder(cfg.platform.clone())
        .partitions(cfg.capacity)
        .streams_per_partition(cfg.streams_per_partition)
        .build()
        .map_err(|e| e.to_string())?;
    let tables = payloads
        .iter()
        .enumerate()
        .map(|(t, p)| {
            p.buffers
                .iter()
                .map(|b| ctx.alloc(format!("t{t}.{}", b.name), b.len))
                .collect()
        })
        .collect();
    Ok(Side { ctx, tables })
}

/// Replay one round — `order` lists the dispatched tenants — on the side
/// context, one span per stage; execute natively when `execute` is set.
fn replay(
    side: &mut Side,
    svc: &StreamService,
    payloads: &[TenantProgram],
    order: &[usize],
    execute: bool,
    tracer: &Tracer,
) -> Result<(), String> {
    let ctx = &mut side.ctx;
    let tables = &side.tables;
    tracer
        .span("serve.materialize", || {
            ctx.zero_buffers();
            for &t in order {
                for (cb, &id) in payloads[t].buffers.iter().zip(&tables[t]) {
                    ctx.write_host(id, &cb.host)?;
                }
            }
            Ok::<_, hstreams::Error>(())
        })
        .map_err(|e| e.to_string())?;
    let merged = tracer.span("serve.merge", || {
        let programs: Vec<_> = order.iter().map(|&t| &payloads[t].program).collect();
        let bases = plan_bases(&programs);
        let mut parts = Vec::with_capacity(order.len());
        for (&t, (stream_base, event_base)) in order.iter().zip(bases) {
            let tenant = TenantId(u16::try_from(t).expect("eight tenants"));
            let lease = svc.leases().lease(tenant).ok_or("tenant holds no lease")?;
            let map = TenantMap {
                stream_base,
                event_base,
                device: DeviceId(0),
                partition_map: lease.healthy().collect(),
                buffer_map: tables[t].clone(),
            };
            parts.push(relocate(&payloads[t].program, &map).map_err(|e| e.to_string())?);
        }
        Ok::<_, String>(merge(parts))
    })?;
    tracer
        .span("serve.install", || ctx.install_program(merged))
        .map_err(|e| e.to_string())?;
    let elided = tracer.span("opt.optimize", || ctx.apply_optimizer());
    tracer.sample("opt.elided", elided as f64);
    tracer.span("check.analyze", || ctx.analyze());
    tracer.sample("check.actions", ctx.program().action_count() as f64);
    if !execute {
        return Ok(());
    }
    let run = NativeConfig {
        isolate_partitions: true,
        trace: true,
        ..NativeConfig::default()
    };
    let report = tracer
        .span("native.run", || ctx.run_native_with(&run))
        .map_err(|e| e.to_string())?;
    let kernel_ns = crate::native_samples(tracer, &report, crate::transfers(ctx));
    tracer.sample("apps.kernel_ms", kernel_ns / 1e6);
    tracer.sample("native.actions", report.actions_executed as f64);
    tracer.sample("native.bytes", report.bytes_transferred as f64);
    tracer.sample("native.steals", report.steals as f64);
    tracer
        .span("serve.readback", || {
            for &t in order {
                for b in &payloads[t].outputs {
                    ctx.read_host(tables[t][b.0])?;
                }
            }
            Ok::<_, hstreams::Error>(())
        })
        .map_err(|e| e.to_string())?;
    Ok(())
}

struct Serving {
    svc: StreamService,
    payloads: Vec<TenantProgram>,
}

/// Set-up: capture the payloads, build the service, and run one warm-up
/// round (which spawns the service's runtime threads).
fn setup(seed: u64) -> Result<Serving, String> {
    let payloads = payloads(seed)?;
    let mut svc = StreamService::new(config()).map_err(|e| e.to_string())?;
    for (t, p) in payloads.iter().enumerate() {
        submit(&mut svc, t, p)?;
    }
    svc.drain(8).map_err(|e| e.to_string())?;
    Ok(Serving { svc, payloads })
}

pub fn run(args: &Args, tracer: &Tracer) -> Result<Outcome, String> {
    let mut m = BTreeMap::new();
    let Serving { mut svc, payloads } = crate::repeat_setup(&mut m, || setup(args.seed))?;
    let mut correct = true;
    let mut expect = Vec::new();
    let mut solos = Vec::new();
    for p in &payloads {
        expect.push(expected(p)?);
        solos.push(solo(p)?);
    }
    let mut side = side(&payloads)?;
    let all: Vec<usize> = (0..payloads.len()).collect();

    let mut ops = OpLog::default();
    let mut pending: HashMap<u64, Instant> = HashMap::new();
    let mut idle = all.clone();
    let (mut rounds, mut attempted, mut failed) = (0usize, 0u64, 0u64);
    let mut idle_rounds = 0usize;
    let mut last_order = all.clone();
    let start = Instant::now();
    let deadline = Duration::from_secs(args.seconds);
    while start.elapsed() < deadline || !pending.is_empty() {
        let traced = crate::trace_this_op(args, rounds);
        rounds += 1;
        tracer.set_on(traced);
        let op = tracer.begin_op();
        let t0 = Instant::now();
        // Tenants submit in waves, all eight at once, so every tenant runs
        // the same number of jobs and [`KNOWN_FAULT`]'s failures are the
        // same share of every run.
        if start.elapsed() < deadline && pending.is_empty() {
            for t in idle.drain(..) {
                let submitted = Instant::now();
                let id = tracer.span("serve.submit", || submit(&mut svc, t, &payloads[t]))?;
                pending.insert(id, submitted);
                attempted += 1;
            }
        }
        let report = tracer
            .span("serve.round", || svc.run_round())
            .map_err(|e| e.to_string())?;
        let end = Instant::now();
        let Some(report) = report else {
            idle_rounds += 1;
            if idle_rounds > 100 {
                return Err(format!("{} jobs never dispatched", pending.len()));
            }
            continue;
        };
        idle_rounds = 0;
        let done = completed(&report)?;
        let order: Vec<usize> = done.iter().map(|d| d.tenant).collect();
        ops.busy(end - t0, done.len() as u64);
        for &Done {
            id,
            tenant: t,
            outputs,
        } in &done
        {
            let submitted = pending
                .remove(&id)
                .ok_or("outcome for a job never submitted")?;
            ops.push(traced, end - submitted);
            idle.push(t);
            if let Err(e) = check_outputs(&payloads[t], outputs, &expect[t], &solos[t]) {
                if is_known_fault(&payloads[t], outputs) {
                    failed += 1;
                } else {
                    eprintln!("serve-native: {e}");
                    correct = false;
                }
            }
        }
        if traced {
            let host_ms = (tracer
                .durations("serve.round")
                .last()
                .copied()
                .unwrap_or(0.0)
                / 1e6)
                - report.duration * 1e3;
            tracer.sample("serve.exec_ms", report.duration * 1e3);
            tracer.sample("serve.host_ms", host_ms);
            tracer.sample("serve.jobs_per_round", report.outcomes.len() as f64);
            tracer.sample("serve.merged_streams", report.merged_streams as f64);
            tracer.sample("serve.syncs_elided", report.syncs_elided as f64);
            tracer.span("side", || {
                replay(&mut side, &svc, &payloads, &order, true, tracer)
            })?;
            let stages: f64 = [
                "serve.materialize",
                "serve.merge",
                "serve.install",
                "opt.optimize",
                "serve.readback",
            ]
            .iter()
            .map(|s| tracer.op_total(s, op))
            .sum();
            tracer.sample("serve.host_other_ms", host_ms - stages / 1e6);
        }
        tracer.set_on(false);
        last_order = order;
    }

    // The simulated makespan of one round's merged program.
    replay(&mut side, &svc, &payloads, &last_order, false, tracer)?;
    let sim = side.ctx.run_sim().map_err(|e| e.to_string())?;
    m.insert("sim_ms", sim.makespan().as_secs_f64() * 1e3);

    ops.fill(&mut m);
    let med = |name: &str| stats::median(&tracer.samples(name));
    let us = |name: &str| stats::median(&tracer.durations(name)) / 1e3;
    m.insert("serve.submit_us", us("serve.submit"));
    m.insert("serve.round_ms", us("serve.round") / 1e3);
    for name in [
        "serve.exec_ms",
        "serve.host_ms",
        "serve.host_other_ms",
        "serve.jobs_per_round",
        "serve.merged_streams",
        "serve.syncs_elided",
        "opt.elided",
    ] {
        m.insert(name, med(name));
    }
    for (metric, span) in [
        ("serve.materialize_us", "serve.materialize"),
        ("serve.merge_us", "serve.merge"),
        ("serve.install_us", "serve.install"),
        ("serve.readback_us", "serve.readback"),
        ("opt.optimize_us", "opt.optimize"),
    ] {
        m.insert(metric, us(span));
    }
    crate::native_metrics(&mut m, tracer);
    m.insert(
        "native.threads",
        side.ctx.native_thread_count().unwrap_or(0) as f64,
    );
    crate::check_and_sim_metrics(&mut m, tracer);
    Ok(Outcome {
        correct,
        attempted,
        failed,
        metrics: m,
    })
}
