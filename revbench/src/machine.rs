//! Set-up: building a cold REV machine for one program, step by step,
//! each step repeated and reported as its median.

use crate::trace::{Trace, NO_SPAN};
use rev_core::{linked_tables, RevConfig, RevSimulator};
use rev_workloads::{generate, SpecProfile};
use revbench::stats::median;

/// Repeated builds behind each set-up step's median.
const SETUP_REPEATS: usize = 3;

/// A cold machine and what building it cost.
pub struct Built {
    /// The machine of the last build, never run.
    pub sim: RevSimulator,
    /// Sum of the step medians: generate, table build, assembly, warmup.
    pub seconds: f64,
    /// Median table build, milliseconds.
    pub table_ms: f64,
    /// Entries (primary and spill) in the machine's tables.
    pub entries: u64,
}

/// Builds the machine for `profile` under `config` [`SETUP_REPEATS`]
/// times — generate, `linked_tables`, assembly, then a warmup of
/// `warmup` instructions on a fork — with a span around every step.
pub fn build_machine(
    profile: &SpecProfile,
    config: &RevConfig,
    warmup: u64,
    trace: &mut Trace,
    id: u64,
) -> Built {
    let mut steps: [Vec<f64>; 4] = Default::default();
    let mut last = None;
    for _ in 0..SETUP_REPEATS {
        let root = trace.open("setup.build", NO_SPAN, id);
        let (program, ns) = trace.time_ns("prog.generate", root, id, || generate(profile));
        steps[0].push(ns);
        let ((tables, stats), ns) = trace.time_ns("sigtable.build", root, id, || {
            linked_tables(&program, config).expect("workload builds")
        });
        steps[1].push(ns);
        let (sim, ns) = trace.time_ns("core.assemble", root, id, || {
            RevSimulator::with_prebuilt(program, *config, tables, stats).expect("workload builds")
        });
        steps[2].push(ns);
        let mut warm = sim.fork().expect("a fresh machine forks");
        let ((), ns) = trace.time_ns("core.warmup", root, id, || warm.warmup(warmup));
        steps[3].push(ns);
        trace.close(root);
        last = Some(sim);
    }
    let sim = last.expect("at least one build");
    let entries = sim.table_stats().iter().map(|t| (t.primaries + t.spills) as u64).sum();
    Built {
        sim,
        seconds: steps.iter().map(|s| median(s)).sum::<f64>() / 1e9,
        table_ms: median(&steps[1]) / 1e6,
        entries,
    }
}
