//! Property test for the subscription routing table's candidate index:
//! under arbitrary insert / replace-by-id / remove / compact churn,
//! [`Srt::match_sub`] must return exactly the hops of the live
//! advertisements that [`adv_overlaps_sub`] says overlap the
//! subscription — the brute-force linear scan the index prunes.
//!
//! Advertisements cover every shape the index must see through:
//! non-recursive, simple-, series- and embedded-recursive, with and
//! without wildcard positions. Subscriptions are absolute and relative,
//! with `/` and `//`, including all-`*` expressions (no named step) and
//! names that no advertisement carries.

use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet};
use xdn_core::adv::{AdvPath, AdvSegment, Advertisement};
use xdn_core::advmatch::adv_overlaps_sub;
use xdn_core::rtable::{AdvId, Srt};
use xdn_xpath::{Axis, NodeTest, Step, Xpe};

/// Names advertisements use.
const ADV_NAMES: &[&str] = &["a", "b", "c", "d"];
/// Names subscriptions use: the advertised ones plus one no
/// advertisement ever carries.
const SUB_NAMES: &[&str] = &["a", "b", "c", "d", "z"];
/// Distinct last hops.
const HOPS: u8 = 3;
/// Advertisement ids are drawn from a small range so inserts collide
/// and replace existing entries.
const IDS: u64 = 10;

fn arb_position() -> impl Strategy<Value = NodeTest> {
    prop_oneof![
        4 => (0..ADV_NAMES.len()).prop_map(|i| NodeTest::Name(ADV_NAMES[i].into())),
        1 => Just(NodeTest::Wildcard),
    ]
}

fn arb_run(max: usize) -> impl Strategy<Value = AdvPath> {
    prop::collection::vec(arb_position(), 1..=max).prop_map(AdvPath::new)
}

fn plain(p: AdvPath) -> AdvSegment {
    AdvSegment::Plain(p)
}

/// One advertisement of each §3.1 shape, with short runs so the
/// bounded expansions stay small. Embedded recursion is drawn least
/// often: preparing one expands thousands of paths.
fn arb_adv() -> impl Strategy<Value = Advertisement> {
    prop_oneof![
        12 => arb_run(5).prop_map(Advertisement::non_recursive),
        6 => (arb_run(2), arb_run(2), arb_run(2)).prop_map(|(a1, a2, a3)| {
            Advertisement::new(vec![
                plain(a1),
                AdvSegment::Repeat(vec![plain(a2)]),
                plain(a3),
            ])
        }),
        4 => (arb_run(1), arb_run(2), arb_run(1), arb_run(1), arb_run(1)).prop_map(
            |(a1, a2, a3, a4, a5)| {
                Advertisement::new(vec![
                    plain(a1),
                    AdvSegment::Repeat(vec![plain(a2)]),
                    plain(a3),
                    AdvSegment::Repeat(vec![plain(a4)]),
                    plain(a5),
                ])
            }
        ),
        1 => (arb_run(1), arb_run(1), arb_run(1), arb_run(1), arb_run(1)).prop_map(
            |(a1, a2, a3, a4, a5)| {
                Advertisement::new(vec![
                    plain(a1),
                    AdvSegment::Repeat(vec![
                        plain(a2),
                        AdvSegment::Repeat(vec![plain(a3)]),
                        plain(a4),
                    ]),
                    plain(a5),
                ])
            }
        ),
    ]
}

fn arb_xpe() -> impl Strategy<Value = Xpe> {
    let step = (
        prop_oneof![3 => Just(Axis::Child), 1 => Just(Axis::Descendant)],
        prop_oneof![
            4 => (0..SUB_NAMES.len()).prop_map(|i| NodeTest::Name(SUB_NAMES[i].into())),
            1 => Just(NodeTest::Wildcard),
        ],
    );
    let wildcard_step = prop_oneof![3 => Just(Axis::Child), 1 => Just(Axis::Descendant)];
    prop_oneof![
        4 => (any::<bool>(), prop::collection::vec(step, 1..6)).prop_map(|(absolute, steps)| {
            Xpe::new(
                absolute,
                steps
                    .into_iter()
                    .map(|(axis, test)| Step {
                        axis,
                        test,
                        predicates: Vec::new(),
                    })
                    .collect(),
            )
        }),
        // No named step: the index cannot prune, every entry is tested.
        1 => (any::<bool>(), prop::collection::vec(wildcard_step, 1..5)).prop_map(
            |(absolute, axes)| {
                Xpe::new(
                    absolute,
                    axes.into_iter()
                        .map(|axis| Step {
                            axis,
                            test: NodeTest::Wildcard,
                            predicates: Vec::new(),
                        })
                        .collect(),
                )
            }
        ),
    ]
}

#[derive(Debug, Clone)]
enum Op {
    /// Insert (or replace, when the id is live) an advertisement.
    Insert(u64, Advertisement, u8),
    Remove(u64),
    Compact,
}

fn arb_ops() -> impl Strategy<Value = Vec<Op>> {
    prop::collection::vec(
        prop_oneof![
            6 => ((0..IDS), arb_adv(), (0..HOPS)).prop_map(|(id, a, h)| Op::Insert(id, a, h)),
            2 => (0..IDS).prop_map(Op::Remove),
            1 => Just(Op::Compact),
        ],
        1..20,
    )
}

fn check(
    srt: &Srt<u8>,
    model: &BTreeMap<u64, (Advertisement, u8)>,
    subs: &[Xpe],
) -> Result<(), TestCaseError> {
    prop_assert_eq!(srt.len(), model.len());
    for (i, sub) in subs.iter().enumerate() {
        let mut expected = BTreeSet::new();
        for (&id, (adv, hop)) in model {
            let overlaps = adv_overlaps_sub(adv, sub);
            prop_assert_eq!(
                srt.overlaps(AdvId(id), sub),
                overlaps,
                "sub {} adv {}",
                sub,
                adv
            );
            if overlaps {
                expected.insert(*hop);
            }
        }
        prop_assert_eq!(&srt.match_sub(sub), &expected, "sub {}", sub);
        // One hop per subscription, rotating: each query is a full
        // candidate pass, and embedded-recursive entries are slow to test.
        let hop = (i % usize::from(HOPS)) as u8;
        prop_assert_eq!(
            srt.overlaps_via(sub, &hop),
            expected.contains(&hop),
            "sub {} via hop {}",
            sub,
            hop
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn indexed_match_sub_equals_brute_force(
        ops in arb_ops(),
        subs in prop::collection::vec(arb_xpe(), 8),
    ) {
        let mut srt: Srt<u8> = Srt::new();
        let mut model: BTreeMap<u64, (Advertisement, u8)> = BTreeMap::new();
        for op in ops {
            match op {
                Op::Insert(id, adv, hop) => {
                    srt.insert(AdvId(id), adv.clone(), hop);
                    model.insert(id, (adv, hop));
                }
                Op::Remove(id) => {
                    let removed = srt.remove(AdvId(id));
                    prop_assert_eq!(removed, model.remove(&id));
                }
                Op::Compact => {
                    let before: Vec<BTreeSet<u8>> = subs.iter().map(|s| srt.match_sub(s)).collect();
                    let dropped = srt.compact();
                    let live: BTreeSet<u64> = srt.iter().map(|(id, _, _)| id.0).collect();
                    prop_assert_eq!(model.len() - live.len(), dropped);
                    model.retain(|id, _| live.contains(id));
                    // Compaction drops only covered advertisements from
                    // the same hop, so routing is unchanged.
                    let after: Vec<BTreeSet<u8>> = subs.iter().map(|s| srt.match_sub(s)).collect();
                    prop_assert_eq!(before, after);
                }
            }
            check(&srt, &model, &subs)?;
        }
    }
}

/// Fixed cases for each branch of the candidate choice.
#[test]
fn candidate_choice_branches() {
    let adv = |s: &str| Advertisement::parse(s).unwrap();
    let xpe = |s: &str| -> Xpe { s.parse().unwrap() };
    let mut srt: Srt<u8> = Srt::new();
    srt.insert(AdvId(1), adv("/a/b(/c)+/d"), 0);
    srt.insert(AdvId(2), adv("/a/*/e"), 1);
    srt.insert(AdvId(3), adv("/x(/y(/z)+/w)+/v"), 2);
    let hops = |srt: &Srt<u8>, s: &str| srt.match_sub(&xpe(s)).into_iter().collect::<Vec<_>>();
    // Rarest named step inside a repetition.
    assert_eq!(hops(&srt, "//c/d"), vec![0]);
    // Nested repetition.
    assert_eq!(hops(&srt, "/x/y/z/z/w"), vec![2]);
    // A name no advertisement has still reaches the wildcard position.
    assert_eq!(hops(&srt, "/a/q"), vec![1]);
    assert_eq!(hops(&srt, "//q"), vec![1]);
    // No named step: every entry is a candidate.
    assert_eq!(hops(&srt, "/*/*/*"), vec![0, 1, 2]);
    // Replacing an entry re-indexes it.
    srt.insert(AdvId(2), adv("/a/f/e"), 1);
    assert!(hops(&srt, "/a/q").is_empty());
    assert_eq!(hops(&srt, "/a/f"), vec![1]);
    srt.remove(AdvId(1));
    assert!(hops(&srt, "//c").is_empty());
    assert_eq!(hops(&srt, "/a"), vec![1]);
}
