//! Table 1 — publication routing time per message.
//!
//! Publications (paths of 500 NITF documents) are routed against
//! 100,000 XPEs under four table organizations: flat (no covering),
//! covering, covering + perfect merging, covering + imperfect merging
//! (`D = 0.1`). The paper reports covering cutting Set A's routing
//! time by 84.6 % and Set B's by 47.5 %, with merging improving both
//! further.
//!
//! The covering columns time the paper's algorithm: a walk of the
//! covering tree ([`xdn_core::subtree::SubscriptionTree`]) that
//! prunes every subtree whose root does not match. A broker's
//! [`Prt`] keeps that tree for forwarding but delivers through its
//! embedded automaton (DESIGN.md §15), which this table does not
//! measure. Every cell carries a full per-publication latency
//! [`Histogram`] (mean, p50/p95/p99) instead of a single averaged
//! duration.

use crate::{universe_sample, Scale, SEED};
use std::collections::BTreeSet;
use xdn_core::merge::MergeConfig;
use xdn_core::rtable::{FlatPrt, Prt, PublicationRouter, SubId};
use xdn_obs::{Histogram, Stopwatch};
use xdn_workloads::{docs, nitf_dtd, sets};
use xdn_xpath::Xpe;

/// Per-publication routing-time distribution for one (method, set)
/// cell. [`Histogram::mean`] reproduces the paper's reported figure;
/// the tail quantiles are this reproduction's addition.
#[derive(Debug, Clone, PartialEq)]
pub struct Table1 {
    /// Methods in paper order: no covering, covering, perfect merging,
    /// imperfect merging.
    pub methods: [&'static str; 4],
    /// Per-publication routing-time histogram for Set A.
    pub set_a: [Histogram; 4],
    /// Per-publication routing-time histogram for Set B.
    pub set_b: [Histogram; 4],
    /// Number of publications routed.
    pub publications: usize,
}

/// Runs the experiment.
pub fn run(scale: &Scale) -> Table1 {
    let dtd = nitf_dtd();
    let universe = universe_sample(&dtd, 4_000);
    let documents = docs::documents(&dtd, scale.table1_docs, SEED + 5);
    let paths = docs::publication_paths(&documents);
    let pubs: Vec<Vec<String>> = paths.into_iter().map(|p| p.elements).collect();

    let a = sets::set_a(&dtd, scale.table1_queries, SEED + 6);
    let b = sets::set_b(&dtd, scale.table1_queries, SEED + 7);

    Table1 {
        methods: [
            "No Covering",
            "Covering",
            "Perfect Merging",
            "Imperfect Merging",
        ],
        set_a: run_set(&a, &pubs, &universe),
        set_b: run_set(&b, &pubs, &universe),
        publications: pubs.len(),
    }
}

/// Routes every publication with `route` (which returns the number of
/// hops reached) and records each call's latency.
fn time_each(pubs: &[Vec<String>], mut route: impl FnMut(&[String]) -> usize) -> Histogram {
    let mut hist = Histogram::new();
    for p in pubs {
        let sw = Stopwatch::start();
        std::hint::black_box(route(p));
        hist.record(sw.elapsed());
    }
    hist
}

/// The forwarding set for `path` by the paper's covering-tree walk.
fn tree_walk_hops(prt: &Prt<u32>, path: &[String]) -> BTreeSet<u32> {
    let mut hops = BTreeSet::new();
    prt.tree()
        .for_each_matching_with_attrs(path, &[], |_, subs| {
            hops.extend(subs.iter().map(|&(_, h)| h));
        });
    hops
}

fn run_set(queries: &[Xpe], pubs: &[Vec<String>], universe: &[Vec<String>]) -> [Histogram; 4] {
    // Flat baseline.
    let mut flat: FlatPrt<u32> = FlatPrt::new();
    for (i, q) in queries.iter().enumerate() {
        flat.insert(SubId(i as u64), q.clone(), i as u32);
    }
    let flat_hist = time_each(pubs, |p| flat.matching_hops(p, &[]).len());

    // Covering.
    let mut prt: Prt<u32> = Prt::new();
    for (i, q) in queries.iter().enumerate() {
        prt.insert(SubId(i as u64), q.clone(), i as u32);
    }
    let route_tree = |prt: &Prt<u32>| time_each(pubs, |p| tree_walk_hops(prt, p).len());
    let cov_hist = route_tree(&prt);

    // Covering + perfect merging.
    let mut seq = 1_000_000u64;
    let pm_cfg = MergeConfig {
        max_degree: 0.0,
        ..MergeConfig::default()
    };
    prt.apply_merging(universe, &pm_cfg, || {
        seq += 1;
        SubId(seq)
    });
    let pm_hist = route_tree(&prt);

    // Covering + imperfect merging (on top of the perfect pass, as in
    // a broker that relaxes its degree budget).
    let ipm_cfg = MergeConfig {
        max_degree: 0.1,
        ..MergeConfig::default()
    };
    prt.apply_merging(universe, &ipm_cfg, || {
        seq += 1;
        SubId(seq)
    });
    let ipm_hist = route_tree(&prt);

    [flat_hist, cov_hist, pm_hist, ipm_hist]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn covering_beats_flat_on_both_sets() {
        let t = run(&Scale::quick());
        assert!(t.publications > 100);
        // Table 1's ordering: covering < no covering, merging <= covering
        // (allowing jitter headroom on the small quick scale).
        for set in [&t.set_a, &t.set_b] {
            assert_eq!(set[0].count(), t.publications as u64);
            assert!(
                set[1].mean() < set[0].mean(),
                "covering ({:?}) must beat flat ({:?})",
                set[1].mean(),
                set[0].mean()
            );
            let merged_ok = set[2].mean() <= set[1].mean() + set[1].mean() / 2;
            assert!(merged_ok, "merging should not regress much");
            // The distribution is populated, not just its mean.
            assert!(set[0].p95() >= set[0].p50());
        }
    }
}
