//! Delivery oracle: which publication paths the subscriber must
//! receive, may receive, or must not receive — exactly once each.

use std::collections::HashMap;

use crate::workload::PoolDoc;
use xdn_broker::Publication;
use xdn_core::adv::Advertisement;
use xdn_xpath::matching::matches_path_with_attrs;
use xdn_xpath::Xpe;

/// What the subscriber may see for one (document, path).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    /// Matched by a query that stays installed: exactly one delivery.
    Expected,
    /// Matched only by queries whose installation is in flux (churned,
    /// or still being installed): zero or one delivery.
    Either,
    /// Matched by a query that stays installed, but outside every
    /// advertisement of the publisher. `derive_advertisements` promises
    /// to cover every generated path, yet misses some deep recursive
    /// NITF paths; whether routing along advertisements still delivers
    /// one depends on which queries got forwarded upstream. Zero or one
    /// delivery, counted apart ([`Tally::unadvertised`]) so the gap
    /// stays visible.
    Unadvertised,
    /// Matched by no query: no delivery.
    Unexpected,
}

/// A publication path with its attributes.
type PathKey<'a> = (&'a [String], &'a [Vec<(String, String)>]);

/// Per pool document, per path (in document order), its class.
#[derive(Debug, Clone)]
pub struct Oracle {
    classes: Vec<Vec<Class>>,
}

impl Oracle {
    /// Classifies every pool path against the publisher's
    /// advertisements, the `stable` queries (always installed) and the
    /// `unsettled` ones (installed only part of the time).
    pub fn new(
        pool: &[PoolDoc],
        advs: &[Advertisement],
        stable: &[Xpe],
        unsettled: &[Xpe],
    ) -> Oracle {
        let hit = |set: &[Xpe], p: &Publication| {
            set.iter()
                .any(|x| matches_path_with_attrs(x, &p.elements, &p.attributes))
        };
        // Pool documents repeat paths; classify each distinct one once.
        let mut memo: HashMap<PathKey<'_>, Class> = HashMap::new();
        let classes = pool
            .iter()
            .map(|d| {
                d.paths
                    .iter()
                    .map(|p| {
                        *memo.entry((&p.elements, &p.attributes)).or_insert_with(|| {
                            if hit(stable, p) {
                                if advs.iter().any(|a| a.matches_path(&p.elements)) {
                                    Class::Expected
                                } else {
                                    Class::Unadvertised
                                }
                            } else if hit(unsettled, p) {
                                Class::Either
                            } else {
                                Class::Unexpected
                            }
                        })
                    })
                    .collect()
            })
            .collect();
        Oracle { classes }
    }

    /// The same paths with every `Expected` path relaxed to `Either`:
    /// the view while the whole query set is being (re)installed.
    pub fn relaxed(&self) -> Oracle {
        Oracle {
            classes: self
                .classes
                .iter()
                .map(|d| {
                    d.iter()
                        .map(|c| match c {
                            Class::Expected => Class::Either,
                            other => *other,
                        })
                        .collect()
                })
                .collect(),
        }
    }

    /// Classes of pool document `doc`.
    pub fn doc(&self, doc: usize) -> &[Class] {
        &self.classes[doc]
    }

    /// Expected deliveries of pool document `doc`.
    pub fn expected_in(&self, doc: usize) -> usize {
        self.classes[doc]
            .iter()
            .filter(|c| **c == Class::Expected)
            .count()
    }
}

/// Outcome of checking one document's receipts.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    /// Deliveries the oracle required.
    pub expected: u64,
    /// Required deliveries that never arrived.
    pub missing: u64,
    /// Deliveries beyond the first of one (document, path).
    pub duplicate: u64,
    /// Deliveries of paths no installed query matches.
    pub unexpected: u64,
    /// Published paths of class [`Class::Unadvertised`]: matched by an
    /// installed query but outside every advertisement.
    pub unadvertised: u64,
    /// How many of those were delivered.
    pub unadvertised_delivered: u64,
}

impl Tally {
    /// Adds another tally.
    pub fn add(&mut self, o: Tally) {
        self.expected += o.expected;
        self.missing += o.missing;
        self.duplicate += o.duplicate;
        self.unexpected += o.unexpected;
        self.unadvertised += o.unadvertised;
        self.unadvertised_delivered += o.unadvertised_delivered;
    }

    /// Failed deliveries of every kind.
    pub fn failures(&self) -> u64 {
        self.missing + self.duplicate + self.unexpected
    }
}

/// Checks `receipts` (deliveries per path, aligned with `classes`).
pub fn check(classes: &[Class], receipts: &[u32]) -> Tally {
    let mut t = Tally::default();
    for (c, &n) in classes.iter().zip(receipts) {
        let n = u64::from(n);
        t.duplicate += n.saturating_sub(1);
        match c {
            Class::Expected => {
                t.expected += 1;
                if n == 0 {
                    t.missing += 1;
                }
            }
            Class::Either => {}
            Class::Unadvertised => {
                t.unadvertised += 1;
                t.unadvertised_delivered += n.min(1);
            }
            Class::Unexpected => t.unexpected += n.min(1),
        }
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use xdn_core::adv::AdvPath;
    use xdn_xml::{DocId, PathId};

    fn doc(paths: &[&[&str]]) -> PoolDoc {
        PoolDoc {
            paths: paths
                .iter()
                .enumerate()
                .map(|(i, p)| Publication {
                    doc_id: DocId(0),
                    path_id: PathId(i as u32),
                    elements: p.iter().map(|s| s.to_string()).collect(),
                    attributes: Vec::new(),
                    doc_bytes: 64,
                })
                .collect(),
        }
    }

    fn xpes(s: &[&str]) -> Vec<Xpe> {
        s.iter().map(|x| x.parse().expect("valid xpe")).collect()
    }

    fn advs(paths: &[&[&str]]) -> Vec<Advertisement> {
        paths
            .iter()
            .map(|p| Advertisement::non_recursive(AdvPath::from_names(p)))
            .collect()
    }

    #[test]
    fn classifies_against_stable_and_unsettled_queries() {
        let pool = vec![doc(&[&["a", "b"], &["a", "c"], &["a", "d"], &["a", "e"]])];
        let advertised = advs(&[&["a", "b"], &["a", "c"], &["a", "d"]]);
        let o = Oracle::new(
            &pool,
            &advertised,
            &xpes(&["/a/b", "/a/e"]),
            &xpes(&["//c"]),
        );
        // /a/e matches a stable query but no advertisement.
        assert_eq!(
            o.doc(0),
            &[
                Class::Expected,
                Class::Either,
                Class::Unexpected,
                Class::Unadvertised
            ]
        );
        assert_eq!(o.expected_in(0), 1);
        assert_eq!(
            o.relaxed().doc(0),
            &[
                Class::Either,
                Class::Either,
                Class::Unexpected,
                Class::Unadvertised
            ]
        );
    }

    #[test]
    fn requires_exactly_one_delivery_per_expected_path() {
        use Class::*;
        let classes = [
            Expected,
            Expected,
            Either,
            Either,
            Unexpected,
            Unadvertised,
            Unadvertised,
        ];
        assert_eq!(
            check(&classes, &[1, 1, 0, 1, 0, 0, 1]),
            Tally {
                expected: 2,
                unadvertised: 2,
                unadvertised_delivered: 1,
                ..Tally::default()
            }
        );
        let t = check(&classes, &[0, 2, 2, 0, 3, 0, 2]);
        assert_eq!(t.expected, 2);
        assert_eq!(t.missing, 1);
        // One extra each on an expected, an either and an unadvertised
        // path, and two beyond the first on the unexpected one.
        assert_eq!(t.duplicate, 5);
        assert_eq!(t.unexpected, 1);
        assert_eq!((t.unadvertised, t.unadvertised_delivered), (2, 1));
        assert_eq!(t.failures(), 7);
    }
}
