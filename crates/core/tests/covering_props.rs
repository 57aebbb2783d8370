//! Property test for the covering table's split of labour: the
//! [`Prt`]'s tree decides forwarding while its embedded automaton
//! answers delivery. Under arbitrary churn — one expression shared by
//! several ids and hops, ids re-registered under new expressions,
//! removals that promote covered children, perfect and imperfect
//! merging mid-sequence, attribute predicates — the ⟨subscription,
//! hop⟩ match multiset and `route_batch` must equal both the linear
//! [`FlatPrt`] scan and the paper's covering-tree walk after every
//! operation.

use proptest::prelude::*;
use std::collections::BTreeSet;
use xdn_core::merge::MergeConfig;
use xdn_core::rtable::{FlatPrt, Prt, PublicationRouter, RouteRequest, SubId};
use xdn_xpath::{Axis, NodeTest, Predicate, Step, Xpe};

const ALPHABET: &[&str] = &["a", "b", "c"];
const ATTR_NAMES: &[&str] = &["p", "q"];
const ATTR_VALUES: &[&str] = &["1", "2"];
const HOPS: u32 = 4;
/// Expressions per case: small enough that ops keep landing on the
/// same ones (shared tree nodes) and on covering pairs.
const POOL: usize = 8;
/// Merger ids live far above the subscription ids.
const MERGER_BASE: u64 = 1 << 40;

type Attrs = Vec<Vec<(String, String)>>;

fn arb_predicates() -> impl Strategy<Value = Vec<Predicate>> {
    prop::collection::vec(
        prop_oneof![
            2 => (0..ATTR_NAMES.len()).prop_map(|i| Predicate::HasAttr(ATTR_NAMES[i].into())),
            1 => ((0..ATTR_NAMES.len()), (0..ATTR_VALUES.len())).prop_map(|(i, j)| {
                Predicate::AttrEq(ATTR_NAMES[i].into(), ATTR_VALUES[j].into())
            }),
        ],
        0..2,
    )
}

fn arb_step() -> impl Strategy<Value = Step> {
    (
        prop_oneof![3 => Just(Axis::Child), 1 => Just(Axis::Descendant)],
        prop_oneof![
            3 => (0..ALPHABET.len()).prop_map(|i| NodeTest::Name(ALPHABET[i].into())),
            1 => Just(NodeTest::Wildcard),
        ],
        prop_oneof![4 => Just(Vec::new()), 1 => arb_predicates()],
    )
        .prop_map(|(axis, test, predicates)| Step {
            axis,
            test,
            predicates,
        })
}

fn arb_xpe() -> impl Strategy<Value = Xpe> {
    (
        prop_oneof![3 => Just(true), 1 => Just(false)],
        prop::collection::vec(arb_step(), 1..4),
    )
        .prop_map(|(absolute, steps)| Xpe::new(absolute, steps))
}

/// A publication path with per-element attributes.
fn arb_path() -> impl Strategy<Value = (Vec<String>, Attrs)> {
    prop::collection::vec(
        (
            (0..ALPHABET.len()).prop_map(|i| ALPHABET[i].to_owned()),
            prop::collection::vec(
                ((0..ATTR_NAMES.len()), (0..ATTR_VALUES.len()))
                    .prop_map(|(i, j)| (ATTR_NAMES[i].to_owned(), ATTR_VALUES[j].to_owned())),
                0..3,
            ),
        ),
        1..5,
    )
    .prop_map(|elements| elements.into_iter().unzip())
}

#[derive(Debug, Clone)]
enum Op {
    /// A new id subscribes to pool expression `x` from hop `h`.
    Subscribe(usize, u32),
    /// The i-th live id (modulo the live count) unsubscribes.
    Unsubscribe(usize),
    /// The i-th live id re-registers under pool expression `x`.
    Resubscribe(usize, usize),
    /// A merging pass: perfect only, or imperfect up to degree 0.5.
    Merge(bool),
}

fn arb_ops() -> impl Strategy<Value = Vec<Op>> {
    prop::collection::vec(
        prop_oneof![
            6 => ((0..POOL), (0..HOPS)).prop_map(|(x, h)| Op::Subscribe(x, h)),
            3 => (0usize..64).prop_map(Op::Unsubscribe),
            2 => ((0usize..64), (0..POOL)).prop_map(|(i, x)| Op::Resubscribe(i, x)),
            1 => any::<bool>().prop_map(Op::Merge),
        ],
        1..40,
    )
}

/// Every element path of length 1–3 over the alphabet: the universe
/// the merging engine scores imperfect mergers against.
fn universe() -> Vec<Vec<String>> {
    let mut out: Vec<Vec<String>> = vec![Vec::new()];
    let mut all = Vec::new();
    for _ in 0..3 {
        out = out
            .iter()
            .flat_map(|p| {
                ALPHABET.iter().map(move |n| {
                    let mut q = p.clone();
                    q.push((*n).to_owned());
                    q
                })
            })
            .collect();
        all.extend(out.iter().cloned());
    }
    all
}

/// The sorted ⟨subscription, hop⟩ multiset a router reports.
fn matches<R: PublicationRouter<u32>>(r: &R, path: &[String], attrs: &Attrs) -> Vec<(u64, u32)> {
    let mut out = Vec::new();
    r.for_each_matching_with_attrs(path, attrs, &mut |id, &h| out.push((id.0, h)));
    out.sort_unstable();
    out
}

/// The same multiset from the paper's covering-tree walk.
fn tree_matches(prt: &Prt<u32>, path: &[String], attrs: &Attrs) -> Vec<(u64, u32)> {
    let mut out = Vec::new();
    prt.tree()
        .for_each_matching_with_attrs(path, attrs, |_, subs| {
            out.extend(subs.iter().map(|&(id, h)| (id.0, h)));
        });
    out.sort_unstable();
    out
}

/// Drives a covering table and the flat oracle through the same ops.
struct Harness {
    prt: Prt<u32>,
    flat: FlatPrt<u32>,
    /// Live ids with their last hops.
    live: Vec<(SubId, u32)>,
    next: u64,
    mergers: u64,
    universe: Vec<Vec<String>>,
}

/// What one applied op did, so fixed tests can assert their coverage.
#[derive(Debug, Default, PartialEq, Eq)]
struct Effect {
    promoted: usize,
    mergers: usize,
}

impl Harness {
    fn new() -> Self {
        Harness {
            prt: Prt::new(),
            flat: FlatPrt::new(),
            live: Vec::new(),
            next: 0,
            mergers: 0,
            universe: universe(),
        }
    }

    fn apply(&mut self, op: &Op, pool: &[Xpe]) -> Effect {
        let mut effect = Effect::default();
        let pick = |i: usize| i % self.live.len().max(1);
        match *op {
            Op::Subscribe(x, h) => {
                self.next += 1;
                let id = SubId(self.next);
                self.prt.insert(id, pool[x].clone(), h);
                self.flat.insert(id, pool[x].clone(), h);
                self.live.push((id, h));
            }
            Op::Unsubscribe(i) => {
                if !self.live.is_empty() {
                    let (id, _) = self.live.remove(pick(i));
                    effect.promoted = self.prt.remove(id).promote.len();
                    self.flat.remove(id);
                }
            }
            Op::Resubscribe(i, x) => {
                if let Some(&(id, hop)) = self.live.get(pick(i)) {
                    let top = |prt: &Prt<u32>| -> BTreeSet<SubId> {
                        prt.forwarded_subs().into_iter().map(|f| f.0).collect()
                    };
                    let before = top(&self.prt);
                    self.prt.insert(id, pool[x].clone(), hop);
                    self.flat.insert(id, pool[x].clone(), hop);
                    effect.promoted = top(&self.prt)
                        .iter()
                        .filter(|&&s| s != id && !before.contains(&s))
                        .count();
                }
            }
            Op::Merge(perfect) => {
                let cfg = MergeConfig {
                    max_degree: if perfect { 0.0 } else { 0.5 },
                    ..MergeConfig::default()
                };
                let mergers = &mut self.mergers;
                effect.mergers = self
                    .prt
                    .apply_merging(&self.universe, &cfg, || {
                        *mergers += 1;
                        SubId(MERGER_BASE + *mergers)
                    })
                    .len();
            }
        }
        effect
    }

    /// Asserts that delivery agrees three ways on every path.
    fn check(&self, paths: &[(Vec<String>, Attrs)], after: &Op) {
        let with_subscribers = self.prt.tree().iter().filter(|n| !n.2.is_empty()).count();
        assert_eq!(
            self.prt.automaton_stats().live_subs as usize,
            with_subscribers,
            "automaton holds every expression with subscribers after {after:?}"
        );
        assert!(self.prt.tree().check_invariants().is_ok());
        for (path, attrs) in paths {
            let want = matches(&self.flat, path, attrs);
            assert_eq!(
                matches(&self.prt, path, attrs),
                want,
                "automaton vs flat on {path:?} {attrs:?} after {after:?}"
            );
            assert_eq!(
                tree_matches(&self.prt, path, attrs),
                want,
                "tree walk vs flat on {path:?} {attrs:?} after {after:?}"
            );
        }
        let requests: Vec<RouteRequest<'_>> = paths
            .iter()
            .map(|(path, attrs)| RouteRequest { path, attrs })
            .collect();
        assert_eq!(
            self.prt.route_batch(&requests),
            self.flat.route_batch(&requests),
            "route_batch after {after:?}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn covering_delivers_like_flat_and_the_tree_walk(
        pool in prop::collection::vec(arb_xpe(), POOL),
        ops in arb_ops(),
        paths in prop::collection::vec(arb_path(), 6),
    ) {
        let mut h = Harness::new();
        for op in &ops {
            h.apply(op, &pool);
            h.check(&paths, op);
        }
    }
}

fn xpe(s: &str) -> Xpe {
    s.parse().expect("xpe")
}

fn path(names: &[&str], attrs: &[&[(&str, &str)]]) -> (Vec<String>, Attrs) {
    let names = names.iter().map(|n| (*n).to_owned()).collect();
    let attrs = attrs
        .iter()
        .map(|a| {
            a.iter()
                .map(|(k, v)| ((*k).to_owned(), (*v).to_owned()))
                .collect()
        })
        .collect();
    (names, attrs)
}

/// One fixed sequence through every case the property draws from,
/// asserting each case really happens.
#[test]
fn fixed_sequence_reaches_every_case() {
    let pool = [
        xpe("/a/*"),
        xpe("/a/b"),
        xpe("/a/c"),
        xpe("/a/b[@p='1']"),
        xpe("/c"),
        xpe("/b/a"),
        xpe("/b/b"),
        xpe("/b/c"),
        xpe("/b/*"),
    ];
    let paths = [
        path(&["a", "b"], &[&[], &[("p", "1")]]),
        path(&["a", "b"], &[&[], &[("p", "2")]]),
        path(&["a", "c"], &[]),
        path(&["b", "a"], &[]),
        path(&["b", "c"], &[]),
        path(&["c"], &[]),
    ];
    let mut h = Harness::new();
    let run = |h: &mut Harness, op: Op| {
        let effect = h.apply(&op, &pool);
        h.check(&paths, &op);
        effect
    };
    // One expression under several ids and hops; a covering one.
    run(&mut h, Op::Subscribe(1, 0));
    run(&mut h, Op::Subscribe(1, 1));
    run(&mut h, Op::Subscribe(3, 2));
    run(&mut h, Op::Subscribe(2, 3));
    run(&mut h, Op::Subscribe(0, 0));
    assert_eq!(h.prt.effective_size(), 1, "/a/* covers every /a/ query");
    // An id re-registered under a new expression.
    run(&mut h, Op::Resubscribe(1, 4));
    // Removing the coverer promotes its children.
    let removed = run(&mut h, Op::Unsubscribe(4));
    assert!(removed.promoted > 0, "{removed:?}");
    // Re-subscribing a coverer under a new expression promotes too.
    run(&mut h, Op::Subscribe(0, 1));
    let moved = run(&mut h, Op::Resubscribe(4, 7));
    assert!(moved.promoted > 0, "{moved:?}");
    // Perfect merging (/b/a, /b/b, /b/c → /b/*), then imperfect.
    run(&mut h, Op::Subscribe(5, 0));
    run(&mut h, Op::Subscribe(6, 1));
    let perfect = run(&mut h, Op::Merge(true));
    assert!(perfect.mergers > 0, "{perfect:?}");
    // A subscription joins the merger's (empty) node.
    let nodes = h.prt.len();
    run(&mut h, Op::Subscribe(8, 3));
    assert_eq!(h.prt.len(), nodes, "/b/* joined the merger /b/*");
    run(&mut h, Op::Subscribe(1, 2));
    let imperfect = run(&mut h, Op::Merge(false));
    assert!(imperfect.mergers > 0, "{imperfect:?}");
    // Churn under the mergers keeps delivery exact.
    run(&mut h, Op::Unsubscribe(0));
    run(&mut h, Op::Resubscribe(0, 3));
    let hops: BTreeSet<u32> = h.prt.matching_hops(&paths[0].0, &paths[0].1);
    assert_eq!(hops, h.flat.matching_hops(&paths[0].0, &paths[0].1));
}
