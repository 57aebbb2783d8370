//! Delegation-completeness tests for the [`PublicationRouter`]
//! wrapper: [`ShardedRouter`] must forward every method to
//! its shards (modulo the documented exceptions: merging is a no-op on
//! non-covering shards, and `shard_stats` is answered by the sharded
//! router itself). A wrapper that silently falls back to a default
//! implementation would route correctly but drop the inner router's
//! semantics — these tests turn that into a loud failure.

use std::collections::BTreeSet;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use xdn_core::merge::MergeConfig;
use xdn_core::rtable::{
    FlatPrt, MergeApplication, PublicationRouter, RouteRequest, SubId, SubscribeOutcome,
    UnsubscribeOutcome,
};
use xdn_core::shard::ShardedRouter;
use xdn_xpath::Xpe;

/// Per-method call counters, observable after the spy is moved into a
/// wrapper via a retained [`Arc`].
#[derive(Debug, Default)]
struct Counts {
    insert: AtomicUsize,
    remove: AtomicUsize,
    for_each: AtomicUsize,
    matching_hops: AtomicUsize,
    route_batch: AtomicUsize,
    len: AtomicUsize,
    xpe_of: AtomicUsize,
    forwarded_subs: AtomicUsize,
    effective_size: AtomicUsize,
    apply_merging: AtomicUsize,
    shard_stats: AtomicUsize,
}

/// A [`FlatPrt`] that counts every trait-method call. `Default` (used
/// by [`ShardedRouter`] to build shards) registers the counters in a
/// global list so the test can observe all of its shards.
#[derive(Debug)]
struct SpyRouter {
    inner: FlatPrt<u32>,
    counts: Arc<Counts>,
}

fn registry() -> &'static Mutex<Vec<Arc<Counts>>> {
    static REGISTRY: OnceLock<Mutex<Vec<Arc<Counts>>>> = OnceLock::new();
    REGISTRY.get_or_init(|| Mutex::new(Vec::new()))
}

impl Default for SpyRouter {
    fn default() -> Self {
        let counts = Arc::new(Counts::default());
        registry().lock().unwrap().push(counts.clone());
        SpyRouter {
            inner: FlatPrt::new(),
            counts,
        }
    }
}

impl PublicationRouter<u32> for SpyRouter {
    fn insert(&mut self, id: SubId, xpe: Xpe, last_hop: u32) -> SubscribeOutcome<u32> {
        self.counts.insert.fetch_add(1, Ordering::Relaxed);
        self.inner.insert(id, xpe, last_hop)
    }

    fn remove(&mut self, id: SubId) -> UnsubscribeOutcome {
        self.counts.remove.fetch_add(1, Ordering::Relaxed);
        self.inner.remove(id)
    }

    fn for_each_matching_with_attrs(
        &self,
        path: &[String],
        attrs: &[Vec<(String, String)>],
        f: &mut dyn FnMut(SubId, &u32),
    ) {
        self.counts.for_each.fetch_add(1, Ordering::Relaxed);
        self.inner.for_each_matching_with_attrs(path, attrs, f);
    }

    fn matching_hops(&self, path: &[String], attrs: &[Vec<(String, String)>]) -> BTreeSet<u32> {
        self.counts.matching_hops.fetch_add(1, Ordering::Relaxed);
        self.inner.matching_hops(path, attrs)
    }

    fn route_batch(&self, requests: &[RouteRequest<'_>]) -> Vec<BTreeSet<u32>> {
        self.counts.route_batch.fetch_add(1, Ordering::Relaxed);
        requests
            .iter()
            .map(|r| self.inner.matching_hops(r.path, r.attrs))
            .collect()
    }

    fn len(&self) -> usize {
        self.counts.len.fetch_add(1, Ordering::Relaxed);
        PublicationRouter::len(&self.inner)
    }

    fn xpe_of(&self, id: SubId) -> Option<&Xpe> {
        self.counts.xpe_of.fetch_add(1, Ordering::Relaxed);
        PublicationRouter::xpe_of(&self.inner, id)
    }

    fn forwarded_subs(&self) -> Vec<(SubId, Xpe, Vec<u32>)> {
        self.counts.forwarded_subs.fetch_add(1, Ordering::Relaxed);
        self.inner.forwarded_subs()
    }

    fn effective_size(&self) -> usize {
        self.counts.effective_size.fetch_add(1, Ordering::Relaxed);
        self.inner.effective_size()
    }

    fn apply_merging(
        &mut self,
        universe: &[Vec<String>],
        cfg: &MergeConfig,
        next_id: &mut dyn FnMut() -> SubId,
    ) -> Vec<MergeApplication> {
        self.counts.apply_merging.fetch_add(1, Ordering::Relaxed);
        self.inner.apply_merging(universe, cfg, next_id)
    }

    fn shard_stats(&self) -> Option<xdn_core::shard::ShardStats> {
        self.counts.shard_stats.fetch_add(1, Ordering::Relaxed);
        None
    }
}

fn xpe(s: &str) -> Xpe {
    s.parse().unwrap()
}

fn path(p: &[&str]) -> Vec<String> {
    p.iter().map(|s| (*s).to_string()).collect()
}

#[test]
fn sharded_router_forwards_every_method_to_its_shards() {
    const SHARDS: usize = 3;
    let before = registry().lock().unwrap().len();
    let mut sharded: ShardedRouter<SpyRouter> = ShardedRouter::with_threads(SHARDS, 1);
    let shards: Vec<Arc<Counts>> = registry().lock().unwrap()[before..].to_vec();
    assert_eq!(shards.len(), SHARDS, "one registered spy per shard");
    let total = |get: fn(&Counts) -> &AtomicUsize| -> usize {
        shards.iter().map(|c| get(c).load(Ordering::Relaxed)).sum()
    };

    sharded.insert(SubId(1), xpe("/a/b"), 7);
    assert_eq!(total(|c| &c.insert), 1, "insert goes to exactly one shard");

    // The per-publication path funnels through the batched fan-out,
    // which asks every shard once.
    assert_eq!(
        sharded.matching_hops(&path(&["a", "b"]), &[]),
        BTreeSet::from([7])
    );
    assert_eq!(
        total(|c| &c.matching_hops),
        SHARDS,
        "matching_hops fans to every shard"
    );

    let (pa, pb) = (path(&["a", "b"]), path(&["x"]));
    let reqs = [
        RouteRequest {
            path: &pa,
            attrs: &[],
        },
        RouteRequest {
            path: &pb,
            attrs: &[],
        },
    ];
    sharded.route_batch(&reqs);
    assert_eq!(
        total(|c| &c.matching_hops),
        SHARDS * 3,
        "each batched request asks every shard"
    );

    sharded.for_each_matching_with_attrs(&path(&["a", "b"]), &[], &mut |_, _| {});
    assert_eq!(
        total(|c| &c.for_each),
        SHARDS,
        "for_each fans to every shard"
    );

    assert_eq!(PublicationRouter::len(&sharded), 1);
    assert_eq!(total(|c| &c.len), SHARDS, "len sums every shard");

    assert_eq!(
        PublicationRouter::xpe_of(&sharded, SubId(1)),
        Some(&xpe("/a/b"))
    );
    assert_eq!(total(|c| &c.xpe_of), 1, "xpe_of goes to the owning shard");

    assert_eq!(sharded.forwarded_subs().len(), 1);
    assert_eq!(
        total(|c| &c.forwarded_subs),
        SHARDS,
        "forwarded_subs drains every shard"
    );

    assert_eq!(sharded.effective_size(), 1);
    assert_eq!(
        total(|c| &c.effective_size),
        SHARDS,
        "effective_size sums every shard"
    );

    // Documented exceptions: shards are non-covering, so merging is a
    // router-level no-op, and shard_stats is the sharded router's own
    // answer (it reads shard occupancy via `len`).
    let mut next = 100u64;
    let merged = sharded.apply_merging(&[], &MergeConfig::default(), &mut || {
        next += 1;
        SubId(next)
    });
    assert!(merged.is_empty());
    assert_eq!(
        total(|c| &c.apply_merging),
        0,
        "merging never reaches shards"
    );
    assert!(sharded.shard_stats().is_some());
    assert_eq!(
        total(|c| &c.shard_stats),
        0,
        "stats answered by the sharded router"
    );

    sharded.remove(SubId(1));
    assert_eq!(total(|c| &c.remove), 1, "remove goes to exactly one shard");
}
