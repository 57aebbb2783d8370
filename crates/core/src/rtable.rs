//! Routing tables (§2.1, Figure 1).
//!
//! Advertisement-based routing maintains two tables at each broker:
//!
//! * the **subscription routing table** ([`Srt`]) stores
//!   ⟨advertisement, last hop⟩ tuples; a subscription is forwarded only
//!   to the last hops of advertisements it overlaps;
//! * the **publication routing table** ([`Prt`]) stores
//!   ⟨subscription, last hop⟩ tuples; a publication is forwarded to the
//!   last hops of subscriptions it matches, tracing the reverse path
//!   the subscription built.
//!
//! [`Prt`] is the covering table of the paper's `with-Cov` strategies:
//! its [`SubscriptionTree`] decides which subscriptions are forwarded
//! upstream (covering, merging, Figures 6/7), while an embedded
//! [`AutomatonPrt`] matches publications. [`FlatPrt`] is the
//! non-covering baseline used by the paper's `no-Cov` routing
//! strategies (Tables 2 and 3) and the test oracle. All of them — and
//! the candidate-pruning [`crate::index::IndexedPrt`] — implement
//! [`PublicationRouter`], the strategy-agnostic interface brokers
//! program against.

use crate::adv::{AdvSegment, Advertisement};
use crate::advmatch::PreparedAdv;
use crate::automaton::AutomatonPrt;
use crate::subtree::{Insertion, NodeId, SubscriptionTree};
use std::collections::hash_map::RandomState;
use std::collections::{BTreeSet, HashMap};
use std::fmt;
use std::hash::BuildHasher;
use xdn_xpath::Xpe;

/// Network-wide identifier of an advertisement.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct AdvId(pub u64);

/// Network-wide identifier of a subscription.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SubId(pub u64);

impl fmt::Display for AdvId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "adv{}", self.0)
    }
}

impl fmt::Display for SubId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "sub{}", self.0)
    }
}

/// The subscription routing table: advertisements with the neighbour
/// they arrived from. Generic over the hop type `H` (a broker id, a
/// client handle, …).
///
/// Besides the entries, the table keeps an exact candidate index for
/// [`Srt::match_sub`]: for each element name, the ids of the
/// advertisements naming it at some position (inside `(…)+`
/// repetitions too), plus the ids of the advertisements with a
/// wildcard position. A named subscription step overlaps only a
/// position with the same name or `*` (Figure 2(b)), and every
/// position of every expansion comes from the advertisement's
/// segments, so an advertisement that names none of a subscription's
/// steps' elements and has no wildcard cannot overlap it.
#[derive(Debug, Clone)]
pub struct Srt<H> {
    entries: HashMap<AdvId, (PreparedAdv, H)>,
    /// Element name → ids of the advertisements naming it, ascending.
    by_name: HashMap<String, Vec<AdvId>>,
    /// Ids of the advertisements with a wildcard position, ascending.
    wildcard: Vec<AdvId>,
}

/// Longest subscription the SRT pre-expands recursive advertisements
/// for; longer subscriptions use the exact dynamic algorithm. The
/// paper caps query length at 10.
const SRT_PREPARED_SUB_LEN: usize = 16;

impl<H> Default for Srt<H> {
    fn default() -> Self {
        Srt {
            entries: HashMap::new(),
            by_name: HashMap::new(),
            wildcard: Vec::new(),
        }
    }
}

impl<H: Clone + Ord> Srt<H> {
    /// Creates an empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records an advertisement from `last_hop`, pre-expanding its
    /// repetitions for fast repeated matching. Replaces any previous
    /// entry for the same id (re-flooded advertisements).
    pub fn insert(&mut self, id: AdvId, adv: Advertisement, last_hop: H) {
        self.remove(id);
        let (names, wildcard) = adv_positions(&adv);
        for name in names {
            insert_sorted(self.by_name.entry(name.to_owned()).or_default(), id);
        }
        if wildcard {
            insert_sorted(&mut self.wildcard, id);
        }
        self.entries
            .insert(id, (PreparedAdv::new(adv, SRT_PREPARED_SUB_LEN), last_hop));
    }

    /// Removes an advertisement (producer departure).
    pub fn remove(&mut self, id: AdvId) -> Option<(Advertisement, H)> {
        let (prepared, hop) = self.entries.remove(&id)?;
        let (names, wildcard) = adv_positions(prepared.adv());
        for name in names {
            if let Some(ids) = self.by_name.get_mut(name) {
                remove_sorted(ids, id);
                if ids.is_empty() {
                    self.by_name.remove(name);
                }
            }
        }
        if wildcard {
            remove_sorted(&mut self.wildcard, id);
        }
        Some((prepared.adv().clone(), hop))
    }

    /// Number of stored advertisements.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if the table is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The last hops whose advertisements overlap `sub` — where the
    /// subscription must be forwarded. Deduplicated.
    ///
    /// Runs the exact overlap test on the index's candidates only, and
    /// skips candidates whose hop is already in the answer.
    pub fn match_sub(&self, sub: &Xpe) -> BTreeSet<H> {
        let mut hops = BTreeSet::new();
        for (adv, hop) in self.candidates(sub) {
            if !hops.contains(hop) && adv.overlaps(sub) {
                hops.insert(hop.clone());
            }
        }
        hops
    }

    /// True if some advertisement from `hop` overlaps `sub`: the
    /// one-hop question `match_sub(sub).contains(hop)`, answered from
    /// the same candidates.
    pub fn overlaps_via(&self, sub: &Xpe, hop: &H) -> bool {
        self.candidates(sub)
            .any(|(adv, h)| h == hop && adv.overlaps(sub))
    }

    /// Exact overlap of the stored advertisement `id` with `sub`, on
    /// its prepared expansions. False if there is no such entry.
    pub fn overlaps(&self, id: AdvId, sub: &Xpe) -> bool {
        self.entries
            .get(&id)
            .is_some_and(|(adv, _)| adv.overlaps(sub))
    }

    /// The entries that can overlap `sub`. A subscription without a
    /// named step can overlap anything: every entry. Otherwise the
    /// advertisements naming its rarest element (none if some step's
    /// element is advertised nowhere), plus those with a wildcard
    /// position.
    fn candidates<'a>(&'a self, sub: &Xpe) -> Box<dyn Iterator<Item = &'a (PreparedAdv, H)> + 'a> {
        let rarest = sub
            .steps()
            .iter()
            .filter_map(|step| step.test.name())
            .map(|name| {
                self.by_name
                    .get(name)
                    .map(Vec::as_slice)
                    .unwrap_or_default()
            })
            .min_by_key(|ids| ids.len());
        let Some(named) = rarest else {
            return Box::new(self.entries.values());
        };
        let wildcard = self
            .wildcard
            .iter()
            .filter(move |id| named.binary_search(id).is_err());
        Box::new(
            named
                .iter()
                .chain(wildcard)
                .filter_map(|id| self.entries.get(id)),
        )
    }

    /// Iterates over the stored entries.
    pub fn iter(&self) -> impl Iterator<Item = (AdvId, &Advertisement, &H)> {
        self.entries
            .iter()
            .map(|(&id, (adv, hop))| (id, adv.adv(), hop))
    }

    /// Compacts the table by dropping non-recursive advertisements
    /// covered by another non-recursive advertisement **from the same
    /// last hop** (§4.2 notes advertisement covering works like
    /// subscription covering). Routing is unchanged: `P(a2) ⊆ P(a1)`
    /// means every subscription overlapping `a2` overlaps `a1`, and the
    /// hop — the routing answer — is identical. Returns the number of
    /// entries removed.
    pub fn compact(&mut self) -> usize {
        let mut ids: Vec<AdvId> = self.entries.keys().copied().collect();
        ids.sort();
        let mut dropped = Vec::new();
        for &a in &ids {
            let (pa, ha) = &self.entries[&a];
            let Some(path_a) = pa.adv().as_non_recursive() else {
                continue;
            };
            let covered = ids.iter().any(|&b| {
                if a == b || dropped.contains(&b) {
                    return false;
                }
                let (pb, hb) = &self.entries[&b];
                if ha != hb {
                    return false;
                }
                let Some(path_b) = pb.adv().as_non_recursive() else {
                    return false;
                };
                // Equal advertisements tie-break on id so exactly one
                // survives.
                crate::advmatch::adv_covers(path_b, path_a)
                    && !(crate::advmatch::adv_covers(path_a, path_b) && b > a)
            });
            if covered {
                dropped.push(a);
            }
        }
        for &id in &dropped {
            self.remove(id);
        }
        dropped.len()
    }
}

/// The distinct element names at `adv`'s positions, inside repetitions
/// too, and whether some position is a wildcard.
fn adv_positions(adv: &Advertisement) -> (BTreeSet<&str>, bool) {
    fn walk<'a>(segments: &'a [AdvSegment], names: &mut BTreeSet<&'a str>, wildcard: &mut bool) {
        for segment in segments {
            match segment {
                AdvSegment::Plain(path) => {
                    for test in path.positions() {
                        match test.name() {
                            Some(name) => {
                                names.insert(name);
                            }
                            None => *wildcard = true,
                        }
                    }
                }
                AdvSegment::Repeat(inner) => walk(inner, names, wildcard),
            }
        }
    }
    let mut names = BTreeSet::new();
    let mut wildcard = false;
    walk(adv.segments(), &mut names, &mut wildcard);
    (names, wildcard)
}

fn insert_sorted(ids: &mut Vec<AdvId>, id: AdvId) {
    if let Err(at) = ids.binary_search(&id) {
        ids.insert(at, id);
    }
}

fn remove_sorted(ids: &mut Vec<AdvId>, id: AdvId) {
    if let Ok(at) = ids.binary_search(&id) {
        ids.remove(at);
    }
}

/// One publication in a [`PublicationRouter::route_batch`] call: the
/// root-to-leaf element path and its aligned per-element attributes,
/// borrowed from the caller.
#[derive(Debug, Clone, Copy)]
pub struct RouteRequest<'a> {
    /// Element names from root to leaf.
    pub path: &'a [String],
    /// Per-element attributes aligned with `path` (may be empty).
    pub attrs: &'a [Vec<(String, String)>],
}

/// The publication routing table abstraction: everything a broker needs
/// from its PRT, independent of the matching strategy behind it.
///
/// Implemented by the covering [`Prt`], the linear-scan [`FlatPrt`],
/// the candidate-pruning [`crate::index::IndexedPrt`], and the
/// parallel [`crate::shard::ShardedRouter`]; brokers, the simulator,
/// and the benches program against `Box<dyn PublicationRouter<H>>` and
/// stop branching on strategy internals. The trait is dyn-compatible:
/// the match visitor is a `&mut dyn FnMut`, and paths arrive as
/// concrete `&[String]`.
pub trait PublicationRouter<H: Clone + Ord>: fmt::Debug {
    /// Registers a subscription from `last_hop` and reports what the
    /// broker owes the wire (forwarding, retractions, owed directions).
    ///
    /// Re-registering a known id under a different expression replaces
    /// it. The outcome describes only the new registration, so a caller
    /// that forwards subscriptions withdraws an id's old expression
    /// before registering a different one.
    fn insert(&mut self, id: SubId, xpe: Xpe, last_hop: H) -> SubscribeOutcome<H>;

    /// Removes a subscription; reports forwarding and promotions.
    fn remove(&mut self, id: SubId) -> UnsubscribeOutcome;

    /// Calls `f` with every ⟨subscription, last hop⟩ whose expression
    /// matches `path` (with per-element `attrs`). Hops repeat if
    /// several matching subscriptions share one; dedup with
    /// [`Self::matching_hops`] when only directions are needed.
    fn for_each_matching_with_attrs(
        &self,
        path: &[String],
        attrs: &[Vec<(String, String)>],
        f: &mut dyn FnMut(SubId, &H),
    );

    /// Number of stored subscriptions (distinct expressions for the
    /// covering table).
    fn len(&self) -> usize;

    /// True if no subscriptions are stored.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The expression registered under `id`, if present.
    fn xpe_of(&self, id: SubId) -> Option<&Xpe>;

    /// The forwarded subscriptions: a representative id, the
    /// expression, and the last hops each was received from. Used to
    /// re-forward state toward newly arrived advertisements.
    fn forwarded_subs(&self) -> Vec<(SubId, Xpe, Vec<H>)>;

    /// The effective routing table size after covering (Figures 6/7);
    /// equals [`Self::len`] for non-covering tables.
    fn effective_size(&self) -> usize {
        self.len()
    }

    /// The deduplicated last hops owed a publication on `path` — the
    /// broker's forwarding set.
    fn matching_hops(&self, path: &[String], attrs: &[Vec<(String, String)>]) -> BTreeSet<H> {
        let mut out = BTreeSet::new();
        self.for_each_matching_with_attrs(path, attrs, &mut |_, h| {
            out.insert(h.clone());
        });
        out
    }

    /// Runs the merging engine (§4.3) if the strategy supports it.
    /// Non-covering tables have nothing to merge and return no
    /// applications.
    fn apply_merging(
        &mut self,
        _universe: &[Vec<String>],
        _cfg: &crate::merge::MergeConfig,
        _next_id: &mut dyn FnMut() -> SubId,
    ) -> Vec<MergeApplication> {
        Vec::new()
    }

    /// The forwarding sets for a whole batch of publications, in
    /// request order. Sequential tables answer one request at a time;
    /// [`crate::shard::ShardedRouter`] fans the batch across its
    /// worker pool. Either way `route_batch(reqs)[i]` equals
    /// `matching_hops(reqs[i].path, reqs[i].attrs)` exactly.
    fn route_batch(&self, requests: &[RouteRequest<'_>]) -> Vec<BTreeSet<H>> {
        requests
            .iter()
            .map(|r| self.matching_hops(r.path, r.attrs))
            .collect()
    }

    /// Parallel-matching metrics (per-shard occupancy and latency,
    /// pool counters); `None` for unsharded tables.
    fn shard_stats(&self) -> Option<crate::shard::ShardStats> {
        None
    }

    /// Shared-automaton metrics (state count, transitions, rebuild
    /// timings); `None` unless the table matches with
    /// [`crate::automaton::AutomatonPrt`].
    fn automaton_stats(&self) -> Option<crate::automaton::AutomatonStats> {
        None
    }
}

/// Result of a [`PublicationRouter::insert`] call, telling the broker
/// what to do on the wire.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SubscribeOutcome<H = ()> {
    /// Forward this subscription to matching neighbours (it is not
    /// covered by anything already forwarded).
    pub forward: bool,
    /// Previously forwarded subscriptions now covered by the new one:
    /// send unsubscriptions for them (covering-based routing, §4.1).
    pub retract: Vec<SubId>,
    /// When covered (`forward == false`): the last hops of the
    /// *top-level* covering subscription. Suppression is only valid
    /// toward neighbours the coverer was itself sent to — it was sent
    /// everywhere **except** its own last hops — so the broker must
    /// still forward this subscription toward any of these hops that
    /// are routing targets. Empty for synthetic mergers (which were
    /// forwarded everywhere on creation).
    pub covered_root_hops: Vec<H>,
}

/// Result of a [`PublicationRouter::remove`] call.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UnsubscribeOutcome {
    /// Forward the unsubscription (the subscription had been forwarded).
    pub forward: bool,
    /// Subscriptions uncovered by the removal that must now be
    /// (re-)forwarded.
    pub promote: Vec<SubId>,
}

/// The covering publication routing table. It does two jobs with two
/// structures, kept in step by [`PublicationRouter::insert`] and
/// [`PublicationRouter::remove`]:
///
/// * **forwarding** — a [`SubscriptionTree`] whose payloads are the
///   ⟨subscription id, last hop⟩ pairs sharing an expression decides
///   what goes upstream: [`SubscribeOutcome`] / [`UnsubscribeOutcome`],
///   retractions, promotions, [`PublicationRouter::forwarded_subs`],
///   [`Prt::effective_size`] and merging (§4);
/// * **delivery** — an embedded [`AutomatonPrt`] holding the expression
///   of every tree node with subscribers matches publications in one
///   traversal and reports the matching nodes' payloads
///   ([`PublicationRouter::for_each_matching_with_attrs`], and through
///   it `matching_hops` and `route_batch`).
///
/// The automaton answers exactly what the paper's tree walk answers:
/// covering is sound (a parent matches every publication its children
/// match), so the walk's pruning loses nothing, and merger nodes carry
/// empty payloads, so they add nothing and stay out of the automaton
/// until a subscription with the same expression joins them. The walk
/// itself stays available through [`Prt::tree`].
#[derive(Debug)]
pub struct Prt<H> {
    tree: SubscriptionTree<Vec<(SubId, H)>>,
    by_sub: HashMap<SubId, NodeId>,
    /// Tree nodes by a hash of their expression, so an equal
    /// expression joins its node. The tree and the automaton already
    /// hold a copy of each expression; a third here would cost a few
    /// hundred bytes per subscription.
    by_xpe: HashMap<u64, Vec<NodeId>>,
    xpe_hasher: RandomState,
    /// Synthetic merger subscriptions (empty payload) by node.
    synthetic: HashMap<NodeId, SubId>,
    /// Exactly the tree nodes with a non-empty payload, registered
    /// under [`node_token`] with the node as their "hop".
    matcher: AutomatonPrt<NodeId>,
}

/// The automaton token of a tree node.
fn node_token(node: NodeId) -> SubId {
    SubId(u64::from(node.index()))
}

impl<H> Default for Prt<H> {
    fn default() -> Self {
        Prt {
            tree: SubscriptionTree::new(),
            by_sub: HashMap::new(),
            by_xpe: HashMap::new(),
            xpe_hasher: RandomState::new(),
            synthetic: HashMap::new(),
            matcher: AutomatonPrt::new(),
        }
    }
}

/// One merger produced by [`Prt::apply_merging`], with the control
/// traffic it implies: subscribe `xpe` under `merger_id` upstream and
/// retract the absorbed subscriptions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MergeApplication {
    /// Fresh id under which the merger is forwarded.
    pub merger_id: SubId,
    /// The merger expression.
    pub xpe: Xpe,
    /// Previously forwarded subscription ids the merger replaces.
    pub retract: Vec<SubId>,
}

impl<H: Clone + Ord> Prt<H> {
    /// Creates an empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// The unique last hops of `node`'s top-level ancestor, excluding
    /// `arriving` (the coverer was never forwarded toward its own
    /// origins, so a covered subscription still owes those directions).
    fn root_hops_of(&self, node: NodeId, arriving: &H) -> Vec<H> {
        let mut root = node;
        while let Some(p) = self.tree.parent(root) {
            root = p;
        }
        if self.synthetic.contains_key(&root) {
            // Mergers are created locally and forwarded to every
            // routing target; nothing is owed.
            return Vec::new();
        }
        let mut hops: Vec<H> = self
            .tree
            .payload(root)
            .iter()
            .map(|(_, h)| h.clone())
            .collect();
        hops.sort();
        hops.dedup();
        hops.retain(|h| h != arriving);
        hops
    }

    /// The expression registered under `id`, if present.
    pub fn xpe_of(&self, id: SubId) -> Option<&Xpe> {
        self.by_sub.get(&id).map(|&n| self.tree.xpe(n))
    }

    /// The tree node holding exactly `xpe`, if any.
    fn node_of(&self, xpe: &Xpe) -> Option<NodeId> {
        let bucket = self.by_xpe.get(&self.xpe_hasher.hash_one(xpe))?;
        bucket.iter().copied().find(|&n| self.tree.xpe(n) == xpe)
    }

    fn index_node(&mut self, node: NodeId) {
        let key = self.xpe_hasher.hash_one(self.tree.xpe(node));
        self.by_xpe.entry(key).or_default().push(node);
    }

    fn unindex_node(&mut self, node: NodeId) {
        let key = self.xpe_hasher.hash_one(self.tree.xpe(node));
        if let Some(bucket) = self.by_xpe.get_mut(&key) {
            bucket.retain(|&n| n != node);
            if bucket.is_empty() {
                self.by_xpe.remove(&key);
            }
        }
    }

    /// Number of distinct expressions stored (tree nodes).
    pub fn len(&self) -> usize {
        self.tree.len()
    }

    /// True if no subscriptions are stored.
    pub fn is_empty(&self) -> bool {
        self.tree.is_empty()
    }

    /// The effective (top-level) routing table size after covering —
    /// the metric of Figures 6 and 7.
    pub fn effective_size(&self) -> usize {
        self.tree.root_count()
    }

    /// Runs the merging engine (§4.3) over the table and returns, for
    /// each merger created, the subscription to issue upstream and the
    /// absorbed subscriptions to retract. `next_id` supplies fresh ids
    /// for the synthetic merger subscriptions.
    pub fn apply_merging<S: AsRef<str>>(
        &mut self,
        universe: &[Vec<S>],
        cfg: &crate::merge::MergeConfig,
        mut next_id: impl FnMut() -> SubId,
    ) -> Vec<MergeApplication> {
        let report = crate::merge::merge_tree(&mut self.tree, universe, cfg);
        let mut out = Vec::new();
        for (node, demoted) in report.mergers {
            let merger_id = next_id();
            self.by_sub.insert(merger_id, node);
            self.index_node(node);
            self.synthetic.insert(node, merger_id);
            let mut retract = Vec::new();
            for d in demoted {
                retract.extend(self.tree.payload(d).iter().map(|(s, _)| *s));
                if let Some(&syn) = self.synthetic.get(&d) {
                    retract.push(syn);
                }
            }
            out.push(MergeApplication {
                merger_id,
                xpe: self.tree.xpe(node).clone(),
                retract,
            });
        }
        out
    }

    /// The covering tree: forwarding decisions, table sizes, and the
    /// paper's tree-walk matching
    /// ([`SubscriptionTree::for_each_matching_with_attrs`]), which
    /// Table 1 times and the tests use as a second oracle.
    pub fn tree(&self) -> &SubscriptionTree<Vec<(SubId, H)>> {
        &self.tree
    }

    /// The embedded automaton's metrics snapshot. Its entries are the
    /// distinct expressions with subscribers, not the subscriptions.
    pub fn automaton_stats(&self) -> crate::automaton::AutomatonStats {
        self.matcher.stats()
    }
}

impl<H: Clone + Ord + fmt::Debug> PublicationRouter<H> for Prt<H> {
    /// Equal expressions share a tree node (their hops are unioned); a
    /// covered expression is stored but not forwarded; a covering
    /// expression demotes the top-level expressions it covers, which
    /// are reported in [`SubscribeOutcome::retract`].
    ///
    /// A known id under a different expression first leaves its old
    /// node exactly as [`PublicationRouter::remove`] would (retracting
    /// the node and promoting what it covered); the promotions are not
    /// reported here, so a forwarding caller removes the id itself.
    fn insert(&mut self, id: SubId, xpe: Xpe, last_hop: H) -> SubscribeOutcome<H> {
        if let Some(&old) = self.by_sub.get(&id) {
            if *self.tree.xpe(old) != xpe {
                self.remove(id);
            }
        }
        if let Some(node) = self.node_of(&xpe) {
            let payload = self.tree.payload_mut(node);
            if payload.is_empty() {
                // A merger's expression gains its first subscriber.
                self.matcher.insert(node_token(node), xpe, node);
            }
            // Re-forwarded subscriptions (advertisement re-evaluation)
            // are idempotent.
            if !payload.contains(&(id, last_hop.clone())) {
                payload.push((id, last_hop.clone()));
            }
            self.by_sub.insert(id, node);
            // An equal expression was already handled upstream except
            // toward the hops it arrived from (including this one, if
            // it differs).
            return SubscribeOutcome {
                forward: false,
                retract: Vec::new(),
                covered_root_hops: self.root_hops_of(node, &last_hop),
            };
        }
        let insertion = self.tree.insert(xpe.clone(), vec![(id, last_hop.clone())]);
        let node = insertion.id();
        self.matcher.insert(node_token(node), xpe, node);
        self.index_node(node);
        self.by_sub.insert(id, node);
        match insertion {
            Insertion::CoveredBy { .. } => SubscribeOutcome {
                forward: false,
                retract: Vec::new(),
                covered_root_hops: self.root_hops_of(node, &last_hop),
            },
            Insertion::NewTop { demoted, .. } => SubscribeOutcome {
                forward: true,
                retract: demoted
                    .iter()
                    .flat_map(|&d| self.tree.payload(d).iter().map(|(s, _)| *s))
                    .collect(),
                covered_root_hops: Vec::new(),
            },
        }
    }

    /// When the last subscriber of an expression leaves, the node is
    /// dropped and any children it was covering are promoted — those
    /// must be re-forwarded upstream. Unknown ids are ignored
    /// (duplicate unsubscriptions are routine in a network that
    /// retracts covered subscriptions).
    fn remove(&mut self, id: SubId) -> UnsubscribeOutcome {
        let Some(node) = self.by_sub.remove(&id) else {
            return UnsubscribeOutcome {
                forward: false,
                promote: Vec::new(),
            };
        };
        let subs = self.tree.payload_mut(node);
        subs.retain(|(s, _)| *s != id);
        if !subs.is_empty() {
            return UnsubscribeOutcome {
                forward: false,
                promote: Vec::new(),
            };
        }
        // A merger node never entered the automaton; removing it there
        // is a no-op.
        self.matcher.remove(node_token(node));
        let was_top = self.tree.parent(node).is_none();
        self.unindex_node(node);
        self.synthetic.remove(&node);
        let (_, promoted) = self.tree.remove(node);
        UnsubscribeOutcome {
            forward: was_top,
            promote: promoted
                .iter()
                .flat_map(|&p| {
                    self.tree
                        .payload(p)
                        .iter()
                        .map(|(s, _)| *s)
                        .chain(self.synthetic.get(&p).copied())
                })
                .collect(),
        }
    }

    /// Matched by the embedded automaton, not by walking the tree.
    fn for_each_matching_with_attrs(
        &self,
        path: &[String],
        attrs: &[Vec<(String, String)>],
        f: &mut dyn FnMut(SubId, &H),
    ) {
        self.matcher
            .for_each_matching_with_attrs(path, attrs, &mut |_, &node| {
                for (id, hop) in self.tree.payload(node) {
                    f(*id, hop);
                }
            });
    }

    fn len(&self) -> usize {
        Prt::len(self)
    }

    fn xpe_of(&self, id: SubId) -> Option<&Xpe> {
        Prt::xpe_of(self, id)
    }

    /// Each top-level tree node yields a representative id (the
    /// synthetic merger's, or the first subscriber's) with the hops the
    /// expression was received from.
    fn forwarded_subs(&self) -> Vec<(SubId, Xpe, Vec<H>)> {
        self.tree
            .roots()
            .iter()
            .filter_map(|&n| {
                let payload = self.tree.payload(n);
                let id = self
                    .synthetic
                    .get(&n)
                    .copied()
                    .or_else(|| payload.first().map(|(s, _)| *s))?;
                let hops = payload.iter().map(|(_, h)| h.clone()).collect();
                Some((id, self.tree.xpe(n).clone(), hops))
            })
            .collect()
    }

    fn effective_size(&self) -> usize {
        Prt::effective_size(self)
    }

    fn apply_merging(
        &mut self,
        universe: &[Vec<String>],
        cfg: &crate::merge::MergeConfig,
        next_id: &mut dyn FnMut() -> SubId,
    ) -> Vec<MergeApplication> {
        Prt::apply_merging(self, universe, cfg, next_id)
    }

    fn automaton_stats(&self) -> Option<crate::automaton::AutomatonStats> {
        Some(Prt::automaton_stats(self))
    }
}

/// The non-covering baseline: a flat list of subscriptions, each
/// matched independently (the `no-Cov` strategies of Tables 2/3).
#[derive(Debug, Clone)]
pub struct FlatPrt<H> {
    entries: HashMap<SubId, (Xpe, H)>,
}

impl<H> Default for FlatPrt<H> {
    fn default() -> Self {
        FlatPrt {
            entries: HashMap::new(),
        }
    }
}

impl<H: Clone + Ord> FlatPrt<H> {
    /// Creates an empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// The expression registered under `id`, if present.
    pub fn xpe_of(&self, id: SubId) -> Option<&Xpe> {
        self.entries.get(&id).map(|(xpe, _)| xpe)
    }

    /// Number of stored subscriptions — also the effective routing
    /// table size, since nothing is elided.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if no subscriptions are stored.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

impl<H: Clone + Ord + fmt::Debug> PublicationRouter<H> for FlatPrt<H> {
    /// Always forwarded (no covering).
    fn insert(&mut self, id: SubId, xpe: Xpe, last_hop: H) -> SubscribeOutcome<H> {
        self.entries.insert(id, (xpe, last_hop));
        SubscribeOutcome {
            forward: true,
            retract: Vec::new(),
            covered_root_hops: Vec::new(),
        }
    }

    fn remove(&mut self, id: SubId) -> UnsubscribeOutcome {
        let known = self.entries.remove(&id).is_some();
        UnsubscribeOutcome {
            forward: known,
            promote: Vec::new(),
        }
    }

    fn for_each_matching_with_attrs(
        &self,
        path: &[String],
        attrs: &[Vec<(String, String)>],
        f: &mut dyn FnMut(SubId, &H),
    ) {
        for (&id, (xpe, hop)) in &self.entries {
            if xdn_xpath::matching::matches_path_with_attrs(xpe, path, attrs) {
                f(id, hop);
            }
        }
    }

    fn len(&self) -> usize {
        FlatPrt::len(self)
    }

    fn xpe_of(&self, id: SubId) -> Option<&Xpe> {
        FlatPrt::xpe_of(self, id)
    }

    /// Every stored subscription with its last hop (all are forwarded
    /// in the flat scheme).
    fn forwarded_subs(&self) -> Vec<(SubId, Xpe, Vec<H>)> {
        self.entries
            .iter()
            .map(|(&id, (xpe, h))| (id, xpe.clone(), vec![h.clone()]))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adv::AdvPath;

    fn xpe(s: &str) -> Xpe {
        s.parse().unwrap()
    }

    fn adv(names: &[&str]) -> Advertisement {
        Advertisement::non_recursive(AdvPath::from_names(names))
    }

    fn path(p: &[&str]) -> Vec<String> {
        p.iter().map(ToString::to_string).collect()
    }

    #[test]
    fn srt_matches_overlapping_advertisements() {
        let mut srt = Srt::new();
        srt.insert(AdvId(1), adv(&["quotes", "nyse", "price"]), "west");
        srt.insert(AdvId(2), adv(&["news", "sports", "story"]), "east");
        let hops = srt.match_sub(&xpe("/quotes/*/price"));
        assert_eq!(hops.into_iter().collect::<Vec<_>>(), vec!["west"]);
        let both = srt.match_sub(&xpe("//price"));
        assert_eq!(both.len(), 1);
        assert_eq!(srt.len(), 2);
    }

    #[test]
    fn srt_dedups_hops() {
        let mut srt = Srt::new();
        srt.insert(AdvId(1), adv(&["a", "b"]), "n1");
        srt.insert(AdvId(2), adv(&["a", "c"]), "n1");
        assert_eq!(srt.match_sub(&xpe("/a")).len(), 1);
    }

    #[test]
    fn srt_remove() {
        let mut srt = Srt::new();
        srt.insert(AdvId(1), adv(&["a"]), "n1");
        assert!(srt.remove(AdvId(1)).is_some());
        assert!(srt.remove(AdvId(1)).is_none());
        assert!(srt.is_empty());
    }

    #[test]
    fn prt_forwarding_and_covering() {
        let mut prt = Prt::new();
        let wide = prt.insert(SubId(1), xpe("/a/*"), "hopA");
        assert!(wide.forward);
        let narrow = prt.insert(SubId(2), xpe("/a/b"), "hopB");
        assert!(!narrow.forward, "covered by /a/*");
        assert_eq!(prt.effective_size(), 1);
        assert_eq!(prt.len(), 2);
    }

    #[test]
    fn prt_retracts_on_takeover() {
        let mut prt = Prt::new();
        prt.insert(SubId(1), xpe("/a/b"), "h1");
        prt.insert(SubId(2), xpe("/a/c"), "h2");
        let top = prt.insert(SubId(3), xpe("/a/*"), "h3");
        assert!(top.forward);
        let mut retract = top.retract;
        retract.sort();
        assert_eq!(retract, vec![SubId(1), SubId(2)]);
    }

    #[test]
    fn prt_equal_xpes_share_node() {
        let mut prt = Prt::new();
        let first = prt.insert(SubId(1), xpe("/a/b"), "h1");
        assert!(first.forward);
        let second = prt.insert(SubId(2), xpe("/a/b"), "h2");
        assert!(!second.forward);
        assert_eq!(prt.len(), 1);
        let hops = prt.matching_hops(&path(&["a", "b"]), &[]);
        assert_eq!(hops.len(), 2);
    }

    #[test]
    fn prt_routing_collects_all_matching_hops() {
        let mut prt = Prt::new();
        prt.insert(SubId(1), xpe("/a/*"), "h1");
        prt.insert(SubId(2), xpe("/a/b"), "h2");
        prt.insert(SubId(3), xpe("/x"), "h3");
        let hops = prt.matching_hops(&path(&["a", "b"]), &[]);
        assert_eq!(hops.into_iter().collect::<Vec<_>>(), vec!["h1", "h2"]);
    }

    #[test]
    fn prt_unsubscribe_promotes() {
        let mut prt = Prt::new();
        prt.insert(SubId(1), xpe("/a/*"), "h1");
        prt.insert(SubId(2), xpe("/a/b"), "h2");
        let out = prt.remove(SubId(1));
        assert!(out.forward, "the wide subscription had been forwarded");
        assert_eq!(out.promote, vec![SubId(2)], "/a/b is now uncovered");
        assert_eq!(prt.effective_size(), 1);
    }

    #[test]
    fn prt_unsubscribe_shared_node_keeps_entry() {
        let mut prt = Prt::new();
        prt.insert(SubId(1), xpe("/a/b"), "h1");
        prt.insert(SubId(2), xpe("/a/b"), "h2");
        let out = prt.remove(SubId(1));
        assert!(
            !out.forward,
            "another subscriber still needs the expression"
        );
        assert_eq!(prt.matching_hops(&path(&["a", "b"]), &[]).len(), 1);
    }

    #[test]
    fn prt_unknown_unsubscribe_is_noop() {
        let mut prt = Prt::<&str>::new();
        let out = prt.remove(SubId(42));
        assert!(!out.forward && out.promote.is_empty());
    }

    /// The hops the paper's tree walk reaches for `p`.
    fn walk_hops<H: Clone + Ord>(prt: &Prt<H>, p: &[String]) -> BTreeSet<H> {
        let mut out = BTreeSet::new();
        prt.tree().for_each_matching_with_attrs(p, &[], |_, subs| {
            out.extend(subs.iter().map(|(_, h)| h.clone()));
        });
        out
    }

    #[test]
    fn prt_resubscribe_under_new_expression_replaces() {
        let mut prt = Prt::new();
        prt.insert(SubId(1), xpe("/a"), 7);
        prt.insert(SubId(1), xpe("/b"), 7);
        let (pa, pb) = (path(&["a"]), path(&["b"]));
        assert!(
            prt.matching_hops(&pa, &[]).is_empty(),
            "old expression gone"
        );
        assert_eq!(prt.matching_hops(&pb, &[]), BTreeSet::from([7]));
        assert!(walk_hops(&prt, &pa).is_empty());
        assert_eq!(prt.len(), 1);
        assert_eq!(prt.xpe_of(SubId(1)), Some(&xpe("/b")));
        assert!(prt.remove(SubId(1)).forward);
        assert!(prt.matching_hops(&pa, &[]).is_empty());
        assert!(prt.matching_hops(&pb, &[]).is_empty());
        assert_eq!(prt.len(), 0);
    }

    #[test]
    fn prt_resubscribe_promotes_what_the_old_expression_covered() {
        let mut prt = Prt::new();
        prt.insert(SubId(1), xpe("/a/*"), "h1");
        prt.insert(SubId(2), xpe("/a/b"), "h2");
        assert_eq!(prt.effective_size(), 1);
        prt.insert(SubId(1), xpe("/x"), "h1");
        assert_eq!(prt.effective_size(), 2, "/a/b is top-level again");
        let mut forwarded: Vec<SubId> = prt.forwarded_subs().iter().map(|f| f.0).collect();
        forwarded.sort();
        assert_eq!(forwarded, vec![SubId(1), SubId(2)]);
        let p = path(&["a", "b"]);
        assert_eq!(prt.matching_hops(&p, &[]), BTreeSet::from(["h2"]));
        assert_eq!(walk_hops(&prt, &p), BTreeSet::from(["h2"]));
    }

    #[test]
    fn prt_unions_the_hops_of_one_id() {
        let mut prt = Prt::new();
        prt.insert(SubId(1), xpe("/a"), "h1");
        prt.insert(SubId(1), xpe("/a"), "h1");
        prt.insert(SubId(1), xpe("/a"), "h2");
        let p = path(&["a"]);
        assert_eq!(prt.matching_hops(&p, &[]), BTreeSet::from(["h1", "h2"]));
        assert_eq!(walk_hops(&prt, &p), BTreeSet::from(["h1", "h2"]));
        assert_eq!(prt.automaton_stats().live_subs, 1);
        prt.remove(SubId(1));
        assert!(prt.matching_hops(&p, &[]).is_empty());
        assert_eq!(prt.automaton_stats().live_subs, 0);
    }

    #[test]
    fn prt_delivers_through_the_automaton() {
        let mut prt = Prt::new();
        prt.insert(SubId(1), xpe("/a/*"), "h1");
        prt.insert(SubId(2), xpe("/a/b"), "h2");
        prt.insert(SubId(3), xpe("/a/b"), "h3");
        let stats = PublicationRouter::automaton_stats(&prt).expect("covering has stats");
        assert_eq!(stats.live_subs, 2, "one entry per distinct expression");
        let p = path(&["a", "b"]);
        assert_eq!(prt.matching_hops(&p, &[]), walk_hops(&prt, &p));
        assert!(prt.automaton_stats().transitions_total > 0);
        prt.remove(SubId(1));
        assert_eq!(prt.automaton_stats().live_subs, 1);
        assert_eq!(prt.matching_hops(&p, &[]), BTreeSet::from(["h2", "h3"]));
    }

    #[test]
    fn flat_prt_always_forwards() {
        let mut flat = FlatPrt::new();
        assert!(flat.insert(SubId(1), xpe("/a/*"), "h1").forward);
        assert!(flat.insert(SubId(2), xpe("/a/b"), "h2").forward);
        assert_eq!(flat.len(), 2);
        assert_eq!(flat.matching_hops(&path(&["a", "b"]), &[]).len(), 2);
        assert!(flat.remove(SubId(1)).forward);
        assert!(!flat.remove(SubId(1)).forward);
    }

    #[test]
    fn flat_and_covering_route_identically() {
        let subs = ["/a/*", "/a/b", "a//c", "/x/y", "//b"];
        let mut prt = Prt::new();
        let mut flat = FlatPrt::new();
        for (i, s) in subs.iter().enumerate() {
            prt.insert(SubId(i as u64), xpe(s), i);
            flat.insert(SubId(i as u64), xpe(s), i);
        }
        let paths: [&[&str]; 4] = [&["a", "b"], &["a", "q", "c"], &["x", "y"], &["z", "b", "c"]];
        for p in paths {
            let p = path(p);
            assert_eq!(
                prt.matching_hops(&p, &[]),
                flat.matching_hops(&p, &[]),
                "divergence on {p:?}"
            );
        }
    }

    #[test]
    fn route_batch_default_matches_per_request_routing() {
        let mut prt = Prt::new();
        prt.insert(SubId(1), xpe("/a/*"), "h1");
        prt.insert(SubId(2), xpe("/x"), "h2");
        let (pa, px) = (path(&["a", "b"]), path(&["x"]));
        let reqs = [
            RouteRequest {
                path: &pa,
                attrs: &[],
            },
            RouteRequest {
                path: &px,
                attrs: &[],
            },
        ];
        let batched = prt.route_batch(&reqs);
        assert_eq!(batched[0], prt.matching_hops(&pa, &[]));
        assert_eq!(batched[1], prt.matching_hops(&px, &[]));
        assert!(prt.shard_stats().is_none(), "unsharded tables have none");
    }
}

#[cfg(test)]
mod compact_tests {
    use super::*;
    use crate::adv::AdvPath;

    fn adv(names: &[&str]) -> Advertisement {
        Advertisement::non_recursive(AdvPath::from_names(names))
    }

    #[test]
    fn compact_drops_covered_same_hop() {
        let mut srt = Srt::new();
        srt.insert(AdvId(1), adv(&["a", "*"]), "n1");
        srt.insert(AdvId(2), adv(&["a", "b"]), "n1");
        srt.insert(AdvId(3), adv(&["a", "b"]), "n2"); // different hop: kept
        let removed = srt.compact();
        assert_eq!(removed, 1);
        assert_eq!(srt.len(), 2);
        // Routing unchanged for the sub that only overlapped the
        // dropped advertisement.
        let hops = srt.match_sub(&"/a/b".parse().unwrap());
        assert_eq!(hops.len(), 2);
    }

    #[test]
    fn compact_keeps_one_of_equal_pair() {
        let mut srt = Srt::new();
        srt.insert(AdvId(1), adv(&["x", "y"]), "n1");
        srt.insert(AdvId(2), adv(&["x", "y"]), "n1");
        assert_eq!(srt.compact(), 1);
        assert_eq!(srt.len(), 1);
    }

    #[test]
    fn compact_ignores_recursive() {
        let mut srt = Srt::new();
        srt.insert(AdvId(1), Advertisement::parse("/a(/b)+/c").unwrap(), "n1");
        srt.insert(AdvId(2), Advertisement::parse("/a(/b)+/c").unwrap(), "n1");
        assert_eq!(srt.compact(), 0, "recursive advertisements are left alone");
    }

    #[test]
    fn compact_empty_and_singleton() {
        let mut srt: Srt<&str> = Srt::new();
        assert_eq!(srt.compact(), 0);
        srt.insert(AdvId(1), adv(&["a"]), "n1");
        assert_eq!(srt.compact(), 0);
        assert_eq!(srt.len(), 1);
    }
}
