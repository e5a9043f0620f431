//! `sim-full`: paper-size programs (scale 1.0) of four profiles spanning
//! the paper's overhead range — gobmk and gcc highest, lbm and libquantum
//! lowest. Each unit is a warmup plus a window from the same cold machine,
//! once under REV-32K and once on the bare pipeline; the units run in
//! rotation on one thread. The seed is mixed into every profile's
//! generation seed: fresh programs with the same statistical profile.

use crate::machine::build_machine;
use crate::tally::{median_by_metric, CoreTally, Layers};
use crate::trace::{Trace, NO_SPAN};
use crate::{overshoot, Report, RunConfig};
use rev_core::{RevConfig, RevSimulator, RunOutcome};
use rev_trace::{MetricRegistry, MetricSink};
use rev_workloads::SpecProfile;
use revbench::stats::{median, rotation, splitmix, tail, UnitKind};
use std::time::Instant;

/// The profiles, highest paper overhead first.
const PROFILES: [&str; 4] = ["gobmk", "gcc", "lbm", "libquantum"];
/// Warmup instructions of every unit.
const WARMUP: u64 = 20_000;
/// Measurement window of every unit.
const WINDOW: u64 = 60_000;

/// The profile with the run's seed mixed into its generation seed.
fn seeded(name: &str, seed: u64) -> SpecProfile {
    let mut p = SpecProfile::by_name(name).expect("built-in profile").clone();
    p.seed ^= splitmix(seed);
    p
}

/// Every simulated counter of a run, rendered — equal strings mean
/// identical counters.
fn counters(cpu: &dyn MetricSink, rev: Option<&dyn MetricSink>, mem: &dyn MetricSink) -> String {
    let mut reg = MetricRegistry::new();
    cpu.export_metrics(&mut reg);
    if let Some(rev) = rev {
        rev.export_metrics(&mut reg);
    }
    mem.export_metrics(&mut reg);
    reg.to_json().render()
}

pub fn run(cfg: &RunConfig, trace: &mut Trace) -> Report {
    let mut report = Report::default();
    let config = RevConfig::paper_default();
    let profiles: Vec<SpecProfile> = PROFILES.iter().map(|n| seeded(n, cfg.seed)).collect();
    report.notes.push(format!(
        "inputs: {PROFILES:?} at scale 1.0, generation seeds mixed with seed {}; \
         units of {WARMUP} warmup + {WINDOW} window instructions from one cold machine each",
        cfg.seed
    ));
    let mut machines: Vec<RevSimulator> = Vec::new();
    let mut setup_s = 0.0;
    let mut build = Layers::new();
    for (i, profile) in profiles.iter().enumerate() {
        let built = build_machine(profile, &config, WARMUP, trace, i as u64);
        setup_s += built.seconds;
        *build.entry("sigtable.build_ms").or_default() += built.table_ms;
        *build.entry("sigtable.entries").or_default() += built.entries as f64;
        let lint = rev_lint::lint_tables(
            built.sim.program(),
            built.sim.monitor().sag().tables(),
            config.bb_limits,
        );
        report.check(lint.error_count() == 0, || {
            format!("{}: lint_tables found {} error(s)", profile.name, lint.error_count())
        });
        machines.push(built.sim);
    }
    let mut first: Vec<[Option<String>; 2]> = vec![[None, None]; machines.len()];
    let mut round_ms = Vec::new();
    let (mut rev_rates, mut base_rates) = (Vec::new(), Vec::new());
    let mut units = Vec::new();
    let window_instrs = 2 * WINDOW * machines.len() as u64;
    let start = Instant::now();
    while round_ms.len() < 3 || start.elapsed().as_secs_f64() < cfg.seconds {
        let round = round_ms.len();
        let root = trace.open("sim.round", NO_SPAN, round as u64);
        let t_round = Instant::now();
        let mut tally = CoreTally::default();
        let (mut rev_ns, mut base_ns) = (0.0, 0.0);
        let mut base_of = vec![0.0; machines.len()];
        let mut pending_rev = Vec::new();
        let mut mixes: Vec<[Option<[u64; 3]>; 2]> = vec![[None, None]; machines.len()];
        for (p, kind) in rotation(round, machines.len()) {
            let cold = &machines[p];
            let name = profiles[p].name;
            report.attempted += 1;
            let id = (round * machines.len() + p) as u64;
            let unit = trace.open("sim.unit", root, id);
            let t = Instant::now();
            let (slot, mix, fingerprint) = match kind {
                UnitKind::Rev => {
                    let Ok(mut sim) = trace.time("core.fork", unit, id, || cold.fork()) else {
                        report.failed += 1;
                        trace.close(unit);
                        continue;
                    };
                    trace.time("core.warmup", unit, id, || sim.warmup(WARMUP));
                    let r = trace.time("core.run", unit, id, || sim.run(WINDOW));
                    let ns = t.elapsed().as_nanos() as f64;
                    rev_ns += ns;
                    report.check(matches!(r.outcome, RunOutcome::BudgetReached), || {
                        format!("{name} REV: untampered run ended {:?}", r.outcome)
                    });
                    let mix = [r.cpu.mix.loads, r.cpu.mix.stores, r.cpu.committed_branches];
                    let fingerprint = counters(&r.cpu, Some(&r.rev), &r.mem);
                    pending_rev.push((p, ns, r));
                    (0, mix, fingerprint)
                }
                UnitKind::Base => {
                    let (r, ns) = trace.time_ns("cpu.base", unit, id, || {
                        cold.run_baseline_with_warmup(WARMUP, WINDOW)
                    });
                    base_ns += ns;
                    base_of[p] = ns;
                    tally.add_base(ns, WARMUP, &r);
                    let mix = [r.cpu.mix.loads, r.cpu.mix.stores, r.cpu.committed_branches];
                    (1, mix, counters(&r.cpu, None, &r.mem))
                }
            };
            trace.close(unit);
            mixes[p][slot] = Some(mix);
            match &first[p][slot] {
                None => first[p][slot] = Some(fingerprint),
                Some(f) => report.check(*f == fingerprint, || {
                    format!("{name} unit {slot} of round {round} differs from round 0")
                }),
            }
        }
        trace.close(root);
        round_ms.push(t_round.elapsed().as_secs_f64() * 1e3);
        rev_rates.push((WINDOW * machines.len() as u64) as f64 / rev_ns * 1e3);
        base_rates.push((WINDOW * machines.len() as u64) as f64 / base_ns * 1e3);
        for (p, [rev, base]) in mixes.iter().enumerate() {
            if let (Some(r), Some(b)) = (rev, base) {
                report.check(r.iter().zip(b).all(|(x, y)| x.abs_diff(*y) <= overshoot()), || {
                    format!(
                        "{}: REV commits {r:?} (loads, stores, branches), base {b:?}",
                        profiles[p].name
                    )
                });
            }
        }
        for (p, ns, r) in &pending_rev {
            tally.add_rev(*ns, WARMUP, r, base_of[*p]);
        }
        let mut layers = Layers::new();
        tally.insert_into(&mut layers);
        units.push(layers);
    }
    report.notes.push(format!(
        "rounds: {}; REV {} and base {} Minstr/s (medians)",
        round_ms.len(),
        median(&rev_rates),
        median(&base_rates)
    ));
    let rates: Vec<f64> = round_ms.iter().map(|ms| window_instrs as f64 / ms / 1e3).collect();
    if trace.enabled() {
        report.notes.push(format!("traced unit_p50_ms={}", median(&round_ms)));
        let spans = trace.layer_ms_per_unit("sim.round");
        for (layers, spans) in units.iter_mut().zip(spans) {
            layers.insert("core.warmup_ms", spans.get("core.warmup").copied().unwrap_or(0.0));
            layers.insert("core.fork_ms", spans.get("core.fork").copied().unwrap_or(0.0));
        }
        report.metrics.extend(median_by_metric(&units));
        let per_entry = build["sigtable.build_ms"] * 1e6 / build["sigtable.entries"].max(1.0);
        report.metrics.extend(build);
        report.metrics.insert("sigtable.build_ns_per_entry", per_entry);
    } else {
        report.metrics.insert("setup_s", setup_s);
        report.metrics.insert("unit_p50_ms", median(&round_ms));
        report.metrics.insert("unit_tail_ms", tail(&round_ms).1);
        report.metrics.insert("minstr_per_s", median(&rates));
    }
    report
}
