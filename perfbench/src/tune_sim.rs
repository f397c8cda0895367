//! `tune-sim`: one operation is one model-seeded `(P, T, scheduler)` sweep
//! over the five tunable apps at the paper scale `autotune` full mode uses,
//! on the simulator, with a fresh measurement cache and bound pruning on.
//!
//! The tuner is timed from outside: [`TimedEvaluator`] forwards to a
//! `SimEvaluator` and times every `evaluate` (per scheduler kind) and
//! `lower_bound` call; [`TimedTunable`] times every recording.

use std::collections::BTreeMap;
use std::time::Instant;

use hstreams::SchedulerKind;
use mic_apps::tunable::{
    PipelineCosts, Tunable, TunableCf, TunableHbench, TunableKmeans, TunableMm, TunableNn,
};
use micsim::PlatformConfig;
use stream_tune::evaluator::{Evaluator, Measurement, SimEvaluator};
use stream_tune::tuner::{RepeatPolicy, SchedSweepOutcome, Strategy, Tuner};
use stream_tune::TuneBounds;

use crate::stats;
use crate::trace::Tracer;
use crate::{Args, OpLog, Outcome};

/// The data-parallel apps' bounds: `T = m·P`, `m <= 8`.
const DP_BOUNDS: TuneBounds = TuneBounds {
    max_partitions: 56,
    max_tiles: 64,
    max_multiple: 8,
};

/// CF's lookahead wants many more tiles than streams.
const CF_BOUNDS: TuneBounds = TuneBounds {
    max_partitions: 56,
    max_tiles: 196,
    max_multiple: 98,
};

/// The five tunable apps. The seed nudges the 1-D problem sizes (by less
/// than 1 %) so the simulated figures are a function of the inputs; MM and
/// CF keep `n` fixed because their feasible tilings depend on its divisors.
fn apps(seed: u64) -> Vec<(Box<dyn Tunable>, TuneBounds)> {
    let jitter = (seed % 16) as usize;
    vec![
        (
            Box::new(TunableHbench::new((1 << 22) + jitter * 1024, 24, None)),
            DP_BOUNDS,
        ),
        (Box::new(TunableMm::new(840, None)), DP_BOUNDS),
        (Box::new(TunableCf::new(16800, None)), CF_BOUNDS),
        (
            Box::new(TunableNn::new((1 << 20) + jitter * 256, None)),
            DP_BOUNDS,
        ),
        (
            Box::new(TunableKmeans::new((1 << 15) + jitter * 16, 8, 3, None)),
            DP_BOUNDS,
        ),
    ]
}

fn trial_span(kind: SchedulerKind) -> &'static str {
    match kind {
        SchedulerKind::Fifo => "tune.trial.fifo",
        SchedulerKind::ListHeft => "tune.trial.heft",
        SchedulerKind::WorkSteal => "tune.trial.steal",
    }
}

/// Forwards to a [`Tunable`], timing each recording.
struct TimedTunable<'t> {
    inner: Box<dyn Tunable>,
    tracer: &'t Tracer,
}

impl Tunable for TimedTunable<'_> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }
    fn problem(&self) -> String {
        self.inner.problem()
    }
    fn overlappable(&self) -> bool {
        self.inner.overlappable()
    }
    fn feasible(&self, t: usize) -> bool {
        self.inner.feasible(t)
    }
    fn record(&mut self, ctx: &mut hstreams::Context, t: usize) -> hstreams::Result<()> {
        self.tracer
            .span("apps.record", || self.inner.record(ctx, t))
    }
    fn pipeline_costs(&self) -> Option<PipelineCosts> {
        self.inner.pipeline_costs()
    }
}

/// Forwards to a [`SimEvaluator`], timing each trial per scheduler kind and
/// each static bound. When tracing, it also times the layers a trial runs
/// through — check, schedule, simulate — by calling them once more on the
/// trial's recorded program, outside the trial's own span.
struct TimedEvaluator<'t> {
    inner: SimEvaluator,
    kind: SchedulerKind,
    tracer: &'t Tracer,
}

impl Evaluator for TimedEvaluator<'_> {
    fn backend(&self) -> &'static str {
        self.inner.backend()
    }

    fn evaluate(&mut self, app: &mut dyn Tunable, p: usize, t: usize) -> Option<Measurement> {
        let m = self
            .tracer
            .span(trial_span(self.kind), || self.inner.evaluate(app, p, t));
        if self.tracer.on() && m.is_some() {
            let (ctx, tracer, kind) = (self.inner.context(), self.tracer, self.kind);
            tracer.span("side", || {
                tracer.span("check.analyze", || ctx.analyze());
                tracer.sample("check.actions", ctx.program().action_count() as f64);
                if kind != SchedulerKind::Fifo {
                    tracer.span("sched.plan", || ctx.plan_schedule());
                }
                if let Ok(report) = tracer.span("sim.run", || ctx.run_sim()) {
                    tracer.sample("sim.tasks", report.timeline.records.len() as f64);
                }
            });
        }
        m
    }

    fn set_scheduler(&mut self, kind: SchedulerKind) {
        self.kind = kind;
        self.inner.set_scheduler(kind);
    }

    /// Only FIFO trials can be bounded; the other kinds decline at once and
    /// are not timed.
    fn lower_bound(&mut self, app: &mut dyn Tunable, p: usize, t: usize) -> Option<f64> {
        if self.kind != SchedulerKind::Fifo {
            return self.inner.lower_bound(app, p, t);
        }
        self.tracer
            .span("opt.bound", || self.inner.lower_bound(app, p, t))
    }
}

struct Subject<'t> {
    app: TimedTunable<'t>,
    bounds: TuneBounds,
    eval: TimedEvaluator<'t>,
}

fn subjects<'t>(seed: u64, tracer: &'t Tracer) -> Result<Vec<Subject<'t>>, String> {
    apps(seed)
        .into_iter()
        .map(|(app, bounds)| {
            Ok(Subject {
                app: TimedTunable { inner: app, tracer },
                bounds,
                eval: TimedEvaluator {
                    inner: SimEvaluator::new(PlatformConfig::phi_31sp())
                        .map_err(|e| format!("sim evaluator: {e}"))?,
                    kind: SchedulerKind::Fifo,
                    tracer,
                },
            })
        })
        .collect()
}

/// One operation: sweep every app once.
fn pass(subjects: &mut [Subject<'_>]) -> Vec<SchedSweepOutcome> {
    let platform = PlatformConfig::phi_31sp();
    subjects
        .iter_mut()
        .map(|s| {
            let mut tuner = Tuner::new(RepeatPolicy::sim());
            tuner.bound_pruning = true;
            tuner.tune_schedulers(
                &mut s.app,
                &mut s.eval,
                &platform,
                &s.bounds,
                Strategy::ModelSeeded,
                &SchedulerKind::all(),
            )
        })
        .collect()
}

/// A sweep's winner must be the minimum of its landscapes.
fn check_minimal(name: &str, out: &SchedSweepOutcome) -> Result<(), String> {
    let mut global = f64::INFINITY;
    for (kind, o) in &out.per_scheduler {
        let min = o
            .landscape
            .iter()
            .map(|r| r.seconds)
            .fold(f64::INFINITY, f64::min);
        if o.winner_seconds != min
            || !o
                .landscape
                .iter()
                .any(|r| (r.partitions, r.tiles) == o.winner && r.seconds == min)
        {
            return Err(format!(
                "{name}/{}: winner {:?} at {} s is not the landscape minimum {min} s",
                kind.label(),
                o.winner,
                o.winner_seconds
            ));
        }
        global = global.min(min);
    }
    if out.winner_seconds != global {
        return Err(format!(
            "{name}: sweep winner {} s is not the minimum over schedulers {global} s",
            out.winner_seconds
        ));
    }
    Ok(())
}

fn same_winner(a: &SchedSweepOutcome, b: &SchedSweepOutcome) -> bool {
    a.winner == b.winner
        && a.winner_scheduler == b.winner_scheduler
        && a.winner_seconds.to_bits() == b.winner_seconds.to_bits()
}

pub fn run(args: &Args, tracer: &Tracer) -> Result<Outcome, String> {
    let mut m = BTreeMap::new();
    // Set-up: the evaluators' contexts plus one warm-up sweep, which
    // allocates every tiling's buffers in each evaluator's context.
    let (mut subjects, reference) = crate::repeat_setup(&mut m, || {
        let mut s = subjects(args.seed, tracer)?;
        let warm = pass(&mut s);
        Ok((s, warm))
    })?;
    let names: Vec<&'static str> = subjects.iter().map(|s| s.app.name()).collect();
    for (name, out) in names.iter().zip(&reference) {
        check_minimal(name, out)?;
    }

    let mut ops = OpLog::default();
    let mut correct = true;
    let mut last = Vec::new();
    let mut trials = Vec::new();
    let mut pruned = Vec::new();
    let start = Instant::now();
    let deadline = std::time::Duration::from_secs(args.seconds);
    while start.elapsed() < deadline {
        let traced = crate::trace_this_op(args, ops.count());
        tracer.set_on(traced);
        let op = tracer.begin_op();
        let t0 = Instant::now();
        let outs = tracer.span("op", || pass(&mut subjects));
        // The traced layer calls a trial repeats are not the sweep's work.
        let side = std::time::Duration::from_nanos(tracer.op_total("side", op) as u64);
        let took = t0.elapsed().saturating_sub(side);
        ops.push(traced, took);
        ops.busy(took, 1);
        tracer.set_on(false);
        for ((name, out), first) in names.iter().zip(&outs).zip(&reference) {
            if let Err(e) = check_minimal(name, out) {
                eprintln!("tune-sim: {e}");
                correct = false;
            }
            if !same_winner(out, first) {
                eprintln!("tune-sim: {name}: winner changed between sweeps of the same inputs");
                correct = false;
            }
        }
        if traced {
            let per = |f: fn(&stream_tune::TuneOutcome) -> usize| {
                outs.iter()
                    .flat_map(|o| o.per_scheduler.iter().map(move |(_, t)| f(t)))
                    .sum::<usize>() as f64
            };
            trials.push(per(|t| t.evaluator_calls));
            pruned.push(per(|t| t.pruned_by_bound));
        }
        last = outs;
    }

    // Re-simulate every winner on a fresh context: it must reproduce the
    // sweep's figure bit for bit.
    for ((app, _), out) in apps(args.seed).into_iter().zip(&last) {
        let mut app = app;
        let mut eval = SimEvaluator::new(PlatformConfig::phi_31sp())
            .map_err(|e| format!("sim evaluator: {e}"))?;
        eval.set_scheduler(out.winner_scheduler);
        let (p, t) = out.winner;
        let again = eval.evaluate(app.as_mut(), p, t).map(|m| m.seconds);
        if again.map(f64::to_bits) != Some(out.winner_seconds.to_bits()) {
            eprintln!(
                "tune-sim: {} winner (P={p}, T={t}, {}) re-simulates to {again:?} s, sweep said {} s",
                app.name(),
                out.winner_scheduler.label(),
                out.winner_seconds
            );
            correct = false;
        }
    }

    ops.fill(&mut m);
    let winners_ms: Vec<f64> = last.iter().map(|o| o.winner_seconds * 1e3).collect();
    m.insert("sim_ms", stats::geomean(&winners_ms));

    let us = |name: &str| stats::median(&tracer.durations(name)) / 1e3;
    m.insert("apps.record_us", us("apps.record"));
    m.insert("tune.trial_us.fifo", us("tune.trial.fifo"));
    m.insert("tune.trial_us.heft", us("tune.trial.heft"));
    m.insert("tune.trial_us.steal", us("tune.trial.steal"));
    m.insert(
        "opt.bound_us",
        stats::median(&tracer.self_durations("opt.bound")) / 1e3,
    );
    m.insert("sched.plan_us", us("sched.plan"));
    crate::check_and_sim_metrics(&mut m, tracer);
    m.insert("tune.trials", stats::median(&trials));
    m.insert("tune.pruned", stats::median(&pruned));
    Ok(Outcome {
        correct,
        attempted: ops.count() as u64,
        failed: 0,
        metrics: m,
    })
}
