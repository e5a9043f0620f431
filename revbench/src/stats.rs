//! Order statistics, the tail-percentile rule, span self time and the
//! unit rotation — the arithmetic every reported number goes through.

/// The median of `values` (0.0 for an empty slice).
pub fn median(values: &[f64]) -> f64 {
    quartiles(values).1
}

/// First quartile, median and third quartile, computed like Python's
/// `statistics.quantiles(values, n=4)` (the default "exclusive" method),
/// so the spreads `steady` prints match the ones Python computes from the
/// same samples. One sample gives that sample three times;
/// an empty slice gives zeros.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => return (0.0, 0.0, 0.0),
        1 => return (v[0], v[0], v[0]),
        _ => {}
    }
    let m = v.len() + 1;
    let q = |i: usize| {
        let j = (i * m / 4).clamp(1, v.len() - 1);
        let delta = (i * m) as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    (q(1), q(2), q(3))
}

/// The tail rule: the highest whole percentile that leaves at least ten
/// samples beyond it (nearest rank), or the median alone when there are
/// fewer than forty samples — a higher percentile of so few would be no
/// tail. Returns `(percentile, value)`; the percentile is 50 for the
/// median.
pub fn tail(values: &[f64]) -> (u32, f64) {
    let n = values.len();
    if n < 40 {
        return (50, median(values));
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    // Nearest rank: the p-th percentile is v[ceil(p·n/100) − 1]; the
    // samples beyond it number n − ceil(p·n/100).
    let rank = |p: usize| (p * n).div_ceil(100);
    let p = (50..=99).rev().find(|&p| n - rank(p) >= 10).unwrap_or(50);
    (p as u32, v[rank(p) - 1])
}

/// The SplitMix64 finalizer: a well-mixed 64-bit value of `x`, the
/// generator behind every seeded choice of inputs.
pub fn splitmix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// A Fisher–Yates shuffle driven by [`splitmix`] from `seed`.
pub fn shuffle<T>(items: &mut [T], seed: u64) {
    let mut state = seed;
    for i in (1..items.len()).rev() {
        state = splitmix(state);
        items.swap(i, (state % (i as u64 + 1)) as usize);
    }
}

/// One timed interval: a call into a public function of a layer, or a
/// unit of work that contains such calls.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// The call or unit (`sigtable.build`, `grid.pass`, ...).
    pub name: &'static str,
    /// Start, nanoseconds since the run's origin.
    pub start_ns: u64,
    /// End, nanoseconds since the run's origin.
    pub end_ns: u64,
    /// Index of the enclosing span in the same trace.
    pub parent: Option<usize>,
    /// Work item or job the span belongs to.
    pub id: u64,
}

impl Span {
    /// Wall duration in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Each span's self time: its duration minus the part of its interval
/// that its children cover (overlapping children count once, and a child
/// reaching outside its parent counts only inside it).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut cursor = s.start_ns;
            for &(a, b) in kids.iter() {
                let a = a.max(cursor);
                let b = b.min(s.end_ns);
                if b > a {
                    covered += b - a;
                    cursor = b;
                }
            }
            s.duration_ns() - covered.min(s.duration_ns())
        })
        .collect()
}

/// Which machine a sim-full unit runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UnitKind {
    /// The REV-protected pipeline.
    Rev,
    /// The bare pipeline (no monitor).
    Base,
}

/// The order of one round of units over `programs` programs: each round
/// starts one program later than the one before, and REV and base swap
/// places from one program to the next and, for each program, from one
/// round to the next,
/// so slow drift of the host hits both kinds alike.
pub fn rotation(round: usize, programs: usize) -> Vec<(usize, UnitKind)> {
    (0..programs)
        .flat_map(|i| {
            let p = (round + i) % programs;
            if (p + round).is_multiple_of(2) {
                [(p, UnitKind::Rev), (p, UnitKind::Base)]
            } else {
                [(p, UnitKind::Base), (p, UnitKind::Rev)]
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 2.0, 3.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 1.5, 2.25));
        assert_eq!(quartiles(&[7.0]), (7.0, 7.0, 7.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn shuffle_is_a_seeded_permutation() {
        let mut a: Vec<u32> = (0..18).collect();
        let mut b = a.clone();
        shuffle(&mut a, 7);
        shuffle(&mut b, 7);
        assert_eq!(a, b, "same seed, same order");
        let mut c: Vec<u32> = (0..18).collect();
        shuffle(&mut c, 8);
        assert_ne!(a, c, "another seed, another order");
        c.sort_unstable();
        assert_eq!(c, (0..18).collect::<Vec<_>>());
    }

    #[test]
    fn tail_is_the_median_under_forty_samples() {
        let v: Vec<f64> = (1..=39).map(f64::from).collect();
        assert_eq!(tail(&v), (50, 20.0));
    }

    #[test]
    fn tail_leaves_ten_samples_beyond() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail(&v), (90, 90.0));
        let v: Vec<f64> = (1..=40).map(f64::from).collect();
        assert_eq!(tail(&v), (75, 30.0));
        let v: Vec<f64> = (1..=1000).rev().map(f64::from).collect();
        assert_eq!(tail(&v), (99, 990.0));
        for n in 40..300 {
            let v: Vec<f64> = (1..=n).map(f64::from).collect();
            let (p, x) = tail(&v);
            let beyond = v.iter().filter(|&&s| s > x).count();
            assert!(beyond >= 10, "n={n}: p{p} leaves {beyond}");
            if p < 99 {
                let next = v[((p as usize + 1) * n as usize).div_ceil(100) - 1];
                assert!(v.iter().filter(|&&s| s > next).count() < 10, "n={n}: p{p} not highest");
            }
        }
    }

    fn span(start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span { name: "t", start_ns, end_ns, parent, id: 0 }
    }

    #[test]
    fn self_time_subtracts_covered_child_intervals() {
        let spans = [
            span(0, 100, None),
            span(10, 30, Some(0)),
            span(20, 50, Some(0)),  // overlaps the first child
            span(90, 120, Some(0)), // runs past the parent's end
            span(12, 18, Some(1)),
            span(200, 210, None),
        ];
        assert_eq!(self_times(&spans), vec![100 - 40 - 10, 14, 30, 30, 6, 10]);
    }

    #[test]
    fn rotation_runs_every_unit_once_and_alternates_order() {
        for programs in 1..6 {
            for round in 0..8 {
                let r = rotation(round, programs);
                assert_eq!(r.len(), 2 * programs);
                for p in 0..programs {
                    for kind in [UnitKind::Rev, UnitKind::Base] {
                        assert_eq!(r.iter().filter(|&&u| u == (p, kind)).count(), 1);
                    }
                }
                assert_eq!(r[0].0, round % programs, "each round starts one program later");
            }
        }
        // Over two consecutive rounds every program runs REV first once
        // and base first once.
        for p in 0..4 {
            let first = |round| {
                let r = rotation(round, 4);
                r[r.iter().position(|u| u.0 == p).expect("present")].1
            };
            assert_ne!(first(0), first(1));
        }
    }
}
