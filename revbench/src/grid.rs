//! `grid-quick`: the paper grid at the quick size — the Table 1 attacks,
//! then 18 profiles × (base, REV-32K, REV-64K, aggr-32K, aggr-64K,
//! cfi-only) through `sweep_configs_pooled` on two workers, with a fresh
//! `WarmPool` for every pass: the work `reproduce_all --quick --jobs 2`
//! does. The 18 programs are the paper's fixed ones; the seed does not
//! change them.

use crate::machine::build_machine;
use crate::tally::{median_by_metric, CoreTally, Layers};
use crate::trace::{Trace, NO_SPAN};
use crate::{overshoot, Report, RunConfig};
use rev_attacks::{mount, AttackError, AttackKind, AttackOutcome};
use rev_bench::{
    parallel_map, snapshot_from_runs, sweep_configs_pooled, BenchOptions, ProfileRun, SweepConfig,
    SweepOutcome, WarmPool,
};
use rev_core::{RevConfig, RunOutcome, ValidationMode};
use rev_trace::Snapshot;
use rev_workloads::SpecProfile;
use revbench::stats::{median, tail};
use std::time::{Duration, Instant};

/// Worker threads of the sweep, as in `reproduce_all --jobs 2`.
const JOBS: usize = 2;

fn options() -> BenchOptions {
    BenchOptions::parse(["--quick", "--jobs", "2", "--quiet"]).expect("fixed flags parse")
}

/// The five REV columns of `reproduce_all`, in its order.
fn configs() -> Vec<SweepConfig> {
    vec![
        SweepConfig::new("REV-32K", RevConfig::paper_default()),
        SweepConfig::new("REV-64K", RevConfig::paper_64k()),
        SweepConfig::new(
            "aggr-32K",
            RevConfig::paper_default().with_mode(ValidationMode::Aggressive),
        ),
        SweepConfig::new("aggr-64K", RevConfig::paper_64k().with_mode(ValidationMode::Aggressive)),
        SweepConfig::new("cfi-only", RevConfig::paper_default().with_mode(ValidationMode::CfiOnly)),
    ]
}

type Attacks = Vec<(AttackKind, Result<AttackOutcome, AttackError>)>;

/// One pass's outputs.
struct Pass {
    ms: f64,
    attacks: Attacks,
    runs: Vec<ProfileRun>,
}

fn mount_all(trace: &mut Trace, parent: usize) -> Attacks {
    AttackKind::ALL
        .iter()
        .enumerate()
        .map(|(i, &kind)| {
            (
                kind,
                trace.time("attacks.mount", parent, i as u64, || {
                    mount(kind, RevConfig::paper_default())
                }),
            )
        })
        .collect()
}

/// The untraced pass: exactly the calls `reproduce_all` makes.
fn sweep_pass(opts: &BenchOptions, configs: &[SweepConfig]) -> Pass {
    let t0 = Instant::now();
    let attacks = mount_all(&mut Trace::new(false), NO_SPAN);
    let pool = WarmPool::new(None);
    let runs = match sweep_configs_pooled(opts, configs, &pool) {
        SweepOutcome::Complete(runs) => runs,
        SweepOutcome::Partial { .. } => unreachable!("no --shard given"),
    };
    Pass { ms: t0.elapsed().as_secs_f64() * 1e3, attacks, runs }
}

/// The traced pass: the sweep's work items replayed through the public
/// calls the sweep makes, every call inside a span. Each worker takes one
/// profile's six items at a time, so no two workers wait on the same
/// pool entry and every span holds only its own call's work. Returns the
/// pass and its per-layer values beyond the span totals.
fn replay_pass(
    opts: &BenchOptions,
    configs: &[SweepConfig],
    trace: &mut Trace,
    pass_no: u64,
) -> (Pass, Layers) {
    let t0 = Instant::now();
    let root = trace.open("grid.pass", NO_SPAN, pass_no);
    let attacks = mount_all(trace, root);
    let pool = WarmPool::new(None);
    let profiles = opts.profiles();
    let slots = configs.len() + 1;
    let indexed: Vec<(usize, &SpecProfile)> = profiles.iter().enumerate().collect();
    let done = parallel_map(JOBS, &indexed, |_, &(index, profile)| {
        let mut tr = trace.fork();
        let mut tally = CoreTally::default();
        let mut entries = 0;
        let mut built_modes = Vec::new();
        let mut table_stats = |tr: &mut Trace, item: usize, id: u64, config: &RevConfig| {
            let stats = tr.time("sigtable.build", item, id, || pool.table_stats(profile, config));
            if !built_modes.contains(&config.mode) {
                built_modes.push(config.mode);
                entries += stats.iter().map(|t| (t.primaries + t.spills) as u64).sum::<u64>();
            }
        };
        let id = (index * slots) as u64;
        let item = tr.open("grid.item", NO_SPAN, id);
        let bundle = tr.time("pool.program", item, id, || pool.program(profile));
        let audit = tr
            .time("lint.audit", item, id, || rev_lint::audit_program(&bundle.0, &configs[0].config))
            .metrics();
        table_stats(&mut tr, item, id, &configs[0].config);
        let sim = tr.time("core.cold_sim", item, id, || pool.cold_sim(profile, &configs[0].config));
        let (base, base_ns) = tr.time_ns("cpu.base", item, id, || {
            sim.run_baseline_with_warmup(opts.warmup, opts.instructions)
        });
        tr.close(item);
        tally.add_base(base_ns, opts.warmup, &base);
        let mut revs = Vec::new();
        for (k, sc) in configs.iter().enumerate() {
            let id = (index * slots + k + 1) as u64;
            let item = tr.open("grid.item", NO_SPAN, id);
            table_stats(&mut tr, item, id, &sc.config);
            let t = Instant::now();
            let (mut sim, fetch) = pool.warm_fork(profile, &sc.config, opts.warmup);
            let fork_span = tr.record("pool.warm_fork", item, id, t, Instant::now());
            // The pool times its own phases; they become the fork span's
            // children, in the order the pool runs them, so its self time
            // is the fork and the pool's bookkeeping.
            let mut at = t;
            for (name, ns) in [
                ("pool.program", fetch.gen_ns),
                ("core.assemble", fetch.table_ns),
                ("core.warmup", fetch.warm_ns),
            ] {
                let end = at + Duration::from_nanos(ns);
                tr.record(name, fork_span, id, at, end);
                at = end;
            }
            let (report, run_ns) = tr.time_ns("core.run", item, id, || sim.run(opts.instructions));
            tr.close(item);
            tally.add_rev(fetch.warm_ns as f64 + run_ns, opts.warmup, &report, base_ns);
            revs.push(report);
        }
        let run = ProfileRun {
            name: profile.name.to_string(),
            base,
            revs,
            table: sim.table_stats()[0],
            cfg: bundle.1,
            audit,
        };
        (run, tr, tally, entries)
    });
    let mut tally = CoreTally::default();
    let mut entries = 0;
    let mut runs = Vec::new();
    for (run, tr, t, e) in done {
        trace.absorb(tr, root);
        runs.push(run);
        tally.merge(&t);
        entries += e;
    }
    trace.close(root);
    let mut layers = Layers::new();
    tally.insert_into(&mut layers);
    layers.insert("sigtable.entries", entries as f64);
    let stats = pool.stats();
    layers.insert("pool.hits", stats.hits as f64);
    layers.insert("pool.misses", stats.misses as f64);
    (Pass { ms: t0.elapsed().as_secs_f64() * 1e3, attacks, runs }, layers)
}

/// The set-up of one REV-32K machine per grid program — generate, table
/// build, assembly, warmup — each step the median of repeated builds.
fn setup_seconds(opts: &BenchOptions) -> f64 {
    let config = RevConfig::paper_default();
    let mut off = Trace::new(false);
    opts.profiles()
        .iter()
        .enumerate()
        .map(|(i, profile)| {
            build_machine(profile, &config, opts.warmup, &mut off, i as u64).seconds
        })
        .sum()
}

/// Every output check of one pass. Returns the pass rendered as a
/// snapshot (every simulated counter), which must equal the first pass's.
fn check_pass(
    pass: &Pass,
    opts: &BenchOptions,
    configs: &[SweepConfig],
    report: &mut Report,
) -> String {
    let mut snap = Snapshot::new();
    for (kind, outcome) in &pass.attacks {
        match outcome {
            Ok(out) => {
                report.check(out.detected, || format!("attack {kind} not detected"));
                report.check(!out.tainted, || format!("attack {kind} let tainted state escape"));
                snap.attacks.push(rev_trace::AttackRecord {
                    kind: kind.to_string(),
                    detected: out.detected,
                    violation: out.violation.map(|v| v.kind.to_string()),
                });
            }
            Err(_) => report.failed += 1,
        }
    }
    for run in &pass.runs {
        for (sc, rev) in configs.iter().zip(&run.revs) {
            let what = format!("{} {}", run.name, sc.label);
            report.check(
                matches!(rev.outcome, RunOutcome::BudgetReached) && rev.rev.violation.is_none(),
                || format!("{what}: untampered run ended {:?}", rev.outcome),
            );
            for (field, r, b) in [
                ("loads", rev.cpu.mix.loads, run.base.cpu.mix.loads),
                ("stores", rev.cpu.mix.stores, run.base.cpu.mix.stores),
                ("branches", rev.cpu.committed_branches, run.base.cpu.committed_branches),
            ] {
                report.check(r.abs_diff(b) <= overshoot(), || {
                    format!("{what}: committed {field} {r} vs base {b}")
                });
            }
            if sc.config.mode != ValidationMode::CfiOnly {
                let expect = rev.cpu.committed_branches + rev.rev.artificial_splits;
                report.check(rev.rev.validations == expect, || {
                    format!(
                        "{what}: {} validations for {expect} committed blocks",
                        rev.rev.validations
                    )
                });
            }
        }
    }
    snapshot_from_runs(&mut snap, opts, configs, &pass.runs);
    snap.render()
}

pub fn run(cfg: &RunConfig, trace: &mut Trace) -> Report {
    let opts = options();
    let configs = configs();
    let mut report = Report::default();
    report.notes.push(format!(
        "inputs: the paper's fixed {} quick-size programs (scale {}, warmup {}, window {}); \
         the seed does not change them",
        opts.profiles().len(),
        opts.scale,
        opts.warmup,
        opts.instructions
    ));
    let per_pass = (AttackKind::ALL.len() + opts.profiles().len() * (configs.len() + 1)) as u64;
    if !trace.enabled() {
        report.metrics.insert("setup_s", setup_seconds(&opts));
    }
    let start = Instant::now();
    let mut first: Option<String> = None;
    let mut times = Vec::new();
    let mut counts = Vec::new();
    let mut instrs = 0;
    while times.is_empty() || start.elapsed().as_secs_f64() < cfg.seconds {
        let pass = if trace.enabled() {
            let (pass, layers) = replay_pass(&opts, &configs, trace, times.len() as u64);
            counts.push(layers);
            pass
        } else {
            sweep_pass(&opts, &configs)
        };
        report.attempted += per_pass;
        let rendered = check_pass(&pass, &opts, &configs, &mut report);
        match &first {
            None => first = Some(rendered),
            Some(f) => report.check(*f == rendered, || {
                format!("pass {} differs from the first pass in a simulated counter", times.len())
            }),
        }
        instrs = pass
            .runs
            .iter()
            .map(|r| {
                r.base.cpu.committed_instrs
                    + r.revs.iter().map(|x| x.cpu.committed_instrs).sum::<u64>()
            })
            .sum::<u64>();
        times.push(pass.ms);
    }
    report.notes.push(format!("passes: {} ({} ms each, median)", times.len(), median(&times)));
    if trace.enabled() {
        report.notes.push(format!("traced unit_p50_ms={}", median(&times)));
        layer_metrics(trace, counts, &mut report);
    } else {
        report.metrics.insert("unit_p50_ms", median(&times));
        report.metrics.insert("unit_tail_ms", tail(&times).1);
        report.metrics.insert("minstr_per_s", instrs as f64 / median(&times) / 1e3);
    }
    report
}

fn layer_metrics(trace: &Trace, counts: Vec<Layers>, report: &mut Report) {
    let units: Vec<Layers> = trace
        .layer_ms_per_unit("grid.pass")
        .into_iter()
        .zip(counts)
        .map(|(spans, mut layers)| {
            let ms = |name| spans.get(name).copied().unwrap_or(0.0);
            let build_ms = ms("sigtable.build");
            let entries = layers["sigtable.entries"];
            layers.insert("sigtable.build_ms", build_ms);
            layers.insert("sigtable.build_ns_per_entry", build_ms * 1e6 / entries.max(1.0));
            layers.insert("lint.audit_ms", ms("lint.audit"));
            layers.insert("attacks.mount_ms", ms("attacks.mount"));
            layers.insert("core.warmup_ms", ms("core.warmup"));
            layers.insert("core.fork_ms", ms("pool.warm_fork"));
            layers
        })
        .collect();
    report.metrics.extend(median_by_metric(&units));
}
