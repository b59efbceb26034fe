//! The IPC-vs-delay Pareto frontier.
//!
//! A design point is *dominated* when another point is at least as good
//! on both axes (IPC higher-is-better, adder delay lower-is-better) and
//! strictly better on at least one. The frontier is the set of
//! non-dominated points; ties are kept (two points with identical IPC
//! and delay dominate neither, so both survive), which matters because
//! distinct machines frequently share an adder and an IPC.

/// A point in objective space, tagged with its index into the caller's
/// point list.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Candidate {
    /// Index into the caller's evaluated-point list.
    pub index: usize,
    /// Harmonic-mean IPC over the point's benchmark suite (higher is
    /// better).
    pub ipc: f64,
    /// Critical-path delay of the point's adder in gate units (lower is
    /// better).
    pub delay: f64,
}

/// `true` when `a` dominates `b`: at least as good on both axes and
/// strictly better on one.
pub fn dominates(a: &Candidate, b: &Candidate) -> bool {
    a.ipc >= b.ipc && a.delay <= b.delay && (a.ipc > b.ipc || a.delay < b.delay)
}

/// Returns the indices (into `points`) of the Pareto frontier, sorted by
/// delay ascending and, within equal delay, IPC descending then original
/// index. Runs in O(n log n) via a sweep, with semantics identical to
/// the O(n²) all-pairs definition — including exact-tie retention.
pub fn frontier(points: &[Candidate]) -> Vec<usize> {
    let mut order: Vec<usize> = (0..points.len()).collect();
    order.sort_by(|&a, &b| {
        points[a]
            .delay
            .total_cmp(&points[b].delay)
            .then(points[b].ipc.total_cmp(&points[a].ipc))
            .then(a.cmp(&b))
    });

    let mut keep = Vec::new();
    // Strictly below this IPC a point is dominated by something cheaper.
    let mut best_ipc = f64::NEG_INFINITY;
    let mut i = 0;
    while i < order.len() {
        // Points sharing one delay can't dominate each other on delay, so
        // the whole group is judged against cheaper delays only.
        let mut j = i;
        while j < order.len()
            && points[order[j]]
                .delay
                .total_cmp(&points[order[i]].delay)
                .is_eq()
        {
            j += 1;
        }
        let group_max = points[order[i]].ipc; // sorted IPC-descending within the group
        if group_max > best_ipc {
            // Every group member tying the max survives; lower-IPC members
            // are dominated by the max (same delay, strictly more IPC).
            for &idx in &order[i..j] {
                if points[idx].ipc.total_cmp(&group_max).is_eq() {
                    keep.push(idx);
                }
            }
            best_ipc = group_max;
        }
        i = j;
    }
    keep
}

#[cfg(test)]
mod tests {
    use super::*;
    use redbin_testkit::Rng;

    /// The O(n²) reference: keep exactly the non-dominated points.
    fn brute_force(points: &[Candidate]) -> Vec<usize> {
        (0..points.len())
            .filter(|&i| !points.iter().any(|p| dominates(p, &points[i])))
            .collect()
    }

    fn cands(pairs: &[(f64, f64)]) -> Vec<Candidate> {
        pairs
            .iter()
            .enumerate()
            .map(|(index, &(ipc, delay))| Candidate { index, ipc, delay })
            .collect()
    }

    fn sorted(mut v: Vec<usize>) -> Vec<usize> {
        v.sort_unstable();
        v
    }

    #[test]
    fn hand_cases() {
        // Empty and singleton.
        assert!(frontier(&[]).is_empty());
        assert_eq!(frontier(&cands(&[(1.0, 5.0)])), vec![0]);
        // A classic staircase with one dominated interior point.
        let pts = cands(&[(1.0, 1.0), (2.0, 2.0), (1.5, 3.0), (3.0, 4.0)]);
        assert_eq!(sorted(frontier(&pts)), vec![0, 1, 3]);
        // Exact ties on both axes: both survive.
        let pts = cands(&[(2.0, 2.0), (2.0, 2.0), (1.0, 1.0)]);
        assert_eq!(sorted(frontier(&pts)), vec![0, 1, 2]);
        // Same delay, different IPC: only the max survives.
        let pts = cands(&[(2.0, 2.0), (3.0, 2.0)]);
        assert_eq!(frontier(&pts), vec![1]);
        // A point dominated only through an equal-delay rival.
        let pts = cands(&[(3.0, 1.0), (2.0, 1.0), (2.5, 2.0)]);
        assert_eq!(sorted(frontier(&pts)), vec![0]);
    }

    #[test]
    fn matches_brute_force_on_random_clouds() {
        let mut rng = Rng::new(0x9e3779b97f4a7c15);
        for case in 0..200 {
            let n = rng.range_usize(0, 40);
            // Coarse buckets force frequent exact ties on both axes.
            let pts: Vec<Candidate> = (0..n)
                .map(|index| Candidate {
                    index,
                    ipc: rng.range_u64(0, 8) as f64 * 0.25,
                    delay: rng.range_u64(1, 9) as f64,
                })
                .collect();
            let fast = sorted(frontier(&pts));
            let slow = brute_force(&pts);
            assert_eq!(fast, slow, "case {case}: {pts:?}");
            // Invariants, independently of the reference.
            for &i in &fast {
                assert!(
                    !pts.iter().any(|p| dominates(p, &pts[i])),
                    "kept point {i} is dominated"
                );
            }
            for i in 0..pts.len() {
                if !fast.contains(&i) {
                    assert!(
                        pts.iter().any(|p| dominates(p, &pts[i])),
                        "dropped point {i} is not dominated"
                    );
                }
            }
        }
    }
}
