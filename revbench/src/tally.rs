//! Core and monitor figures shared by every workload's traced run: host
//! time on the bare pipeline and on the REV machine, matched unit by unit,
//! so the monitor's share is the difference.

use rev_core::{BaselineReport, RevReport};
use revbench::stats::median;
use std::collections::BTreeMap;

/// Per-layer values of one unit of work, by metric name.
pub type Layers = BTreeMap<&'static str, f64>;

/// Host time and simulated work of the bare-pipeline and REV runs in one
/// unit of work.
#[derive(Debug, Default, Clone, Copy)]
pub struct CoreTally {
    base_ns: f64,
    base_instrs: u64,
    base_cycles: u64,
    base_cycles_est: f64,
    rev_ns: f64,
    rev_instrs: u64,
    matched_base_ns: f64,
    bb_hits: u64,
    bb_lookups: u64,
}

impl CoreTally {
    /// A bare-pipeline run of `warmup` plus the reported window, which
    /// took `ns` of host time.
    pub fn add_base(&mut self, ns: f64, warmup: u64, report: &BaselineReport) {
        let window = report.cpu.committed_instrs;
        self.base_ns += ns;
        self.base_instrs += warmup + window;
        self.base_cycles += report.cpu.cycles;
        // Warmup cycles are not reported; they are counted at the
        // window's IPC.
        self.base_cycles_est +=
            report.cpu.cycles as f64 * (warmup + window) as f64 / window.max(1) as f64;
    }

    /// A REV run (warmup plus window) that took `ns`, matched with a
    /// bare-pipeline run of the same program and budgets that took
    /// `base_ns`.
    pub fn add_rev(&mut self, ns: f64, warmup: u64, report: &RevReport, base_ns: f64) {
        self.rev_ns += ns;
        self.rev_instrs += warmup + report.cpu.committed_instrs;
        self.matched_base_ns += base_ns;
        self.bb_hits += report.rev.bb_cache_hits;
        self.bb_lookups += report.rev.bb_cache_hits + report.rev.bb_cache_misses;
    }

    /// Adds another tally of the same unit of work.
    pub fn merge(&mut self, other: &CoreTally) {
        self.base_ns += other.base_ns;
        self.base_instrs += other.base_instrs;
        self.base_cycles += other.base_cycles;
        self.base_cycles_est += other.base_cycles_est;
        self.rev_ns += other.rev_ns;
        self.rev_instrs += other.rev_instrs;
        self.matched_base_ns += other.matched_base_ns;
        self.bb_hits += other.bb_hits;
        self.bb_lookups += other.bb_lookups;
    }

    /// The `cpu.*` and `monitor.*` metrics of this unit.
    pub fn insert_into(&self, m: &mut Layers) {
        m.insert("cpu.base_ns_per_instr", self.base_ns / self.base_instrs.max(1) as f64);
        m.insert("cpu.base_ns_per_cycle", self.base_ns / self.base_cycles_est.max(1.0));
        m.insert("cpu.cycles", self.base_cycles as f64);
        m.insert(
            "monitor.ns_per_instr",
            (self.rev_ns - self.matched_base_ns) / self.rev_instrs.max(1) as f64,
        );
        m.insert("monitor.rev_over_base", self.rev_ns / self.matched_base_ns.max(1.0));
        m.insert("monitor.bbcache_hit_ratio", self.bb_hits as f64 / self.bb_lookups.max(1) as f64);
    }
}

/// The median of every metric over the units (a metric missing from a
/// unit counts as 0 there).
pub fn median_by_metric(units: &[Layers]) -> Layers {
    let mut names: Vec<&'static str> = units.iter().flat_map(|u| u.keys().copied()).collect();
    names.sort_unstable();
    names.dedup();
    names
        .into_iter()
        .map(|n| {
            let values: Vec<f64> = units.iter().map(|u| u.get(n).copied().unwrap_or(0.0)).collect();
            (n, median(&values))
        })
        .collect()
}
