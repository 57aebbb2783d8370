//! The benchmark's workloads, generated from a seed.
//!
//! Every input is a pure function of the workload name and `--seed`.
//! The query tables are part of a workload's definition and drawn with
//! a fixed seed: with the highly-covering Set A, which few general
//! queries a draw happens to contain decides how large the upstream
//! tables get, and that moved per-path routing cost 4x between seeds.
//! `--seed` draws the publication stream (the document pool) and the
//! churn schedule. The brokers only ever see these generated inputs.

use xdn_broker::{ClientId, Publication};
use xdn_core::adv::{derive_advertisements, Advertisement, DeriveOptions};
use xdn_workloads::{docs, nitf_dtd, psd_dtd, sets};
use xdn_xml::paths::{dedup_paths, extract_paths};
use xdn_xml::DocId;
use xdn_xpath::Xpe;

/// The publisher's client id (attached to B0).
pub const PUBLISHER: ClientId = ClientId(1);
/// The subscriber's client id (attached to B2).
pub const SUBSCRIBER: ClientId = ClientId(2);

/// The workloads `--workload` accepts.
pub const NAMES: [&str; 4] = ["psd_stream", "nitf_match", "nitf_churn", "nitf_resubscribe"];

/// How the subscriber installs its query set.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Install {
    /// Closed loop: send `n` subscriptions, wait until every broker
    /// holds exactly the state they leave behind, send the next `n`.
    Windowed(usize),
    /// Everything at once while publications run, as a client does
    /// after reconnecting.
    Burst,
}

/// One document of the publication pool: its distinct root-to-leaf
/// paths, with `doc_id` rewritten per send.
#[derive(Debug, Clone)]
pub struct PoolDoc {
    /// The paths, in document order.
    pub paths: Vec<Publication>,
}

/// A fully generated workload.
#[derive(Debug, Clone)]
pub struct Workload {
    /// Workload name (one of [`NAMES`]).
    pub name: &'static str,
    /// The publisher's advertisement set (the DTD's).
    pub advs: Vec<Advertisement>,
    /// The subscriber's query set, installed during set-up.
    pub subs: Vec<Xpe>,
    /// How `subs` is installed.
    pub install: Install,
    /// Replacement queries for churn, disjoint from `subs`.
    pub churn_pool: Vec<Xpe>,
    /// Churn replacements (one unsubscribe + one subscribe) per second
    /// during the open-loop phase; zero disables churn.
    pub churn_per_s: f64,
    /// Replacements made after the timed phases, with no publications
    /// running, when `churn_per_s` is zero: they time the unsubscribe
    /// path without touching the timed figures.
    pub replace_after: usize,
    /// Documents published round-robin.
    pub pool: Vec<PoolDoc>,
    /// Open-loop offered rate, in publication paths per second.
    pub rate_pps: f64,
    /// Closed-loop window: publication paths in flight at once.
    pub window: usize,
    /// Repetitions per measured run, each on a fresh overlay with its
    /// own set-up and share of the timed phases.
    pub setup_reps: usize,
}

impl Workload {
    /// Whether queries are replaced while publications run (otherwise
    /// after the timed phases, if at all).
    pub fn churns_live(&self) -> bool {
        self.churn_per_s > 0.0
    }

    /// Subscriptions sent before waiting for the overlay to settle.
    pub fn install_window(&self) -> usize {
        match self.install {
            Install::Windowed(n) => n,
            Install::Burst => self.subs.len(),
        }
    }
}

/// Input sizes: the benchmark's, or tiny ones for the harness's own
/// smoke tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The benchmark's sizes.
    Full,
    /// A few queries and documents per workload.
    #[cfg_attr(not(test), allow(dead_code))]
    Tiny,
}

impl Scale {
    fn cap(self, n: usize) -> usize {
        match self {
            Scale::Full => n,
            Scale::Tiny => n.min(40),
        }
    }

    fn docs(self) -> usize {
        match self {
            Scale::Full => 1000,
            Scale::Tiny => 20,
        }
    }
}

/// Set B queries installed by the NITF matching workloads. Each one
/// costs every broker a scan of the 4,064-entry SRT (4-10 ms on a
/// 2-vCPU 2.1 GHz host), and set-up runs several times per measurement,
/// so the table is kept to a size whose runs fit the time budget.
const NITF_TABLE: usize = 300;

/// Repetitions per measured run. A set-up is CPU-bound in the brokers,
/// so other tenants of the host only ever slow it down; each set-up
/// phase's better quartile over this many is what a few disturbed
/// seconds do not move. Five keep a NITF run near a minute.
const SETUP_REPS: usize = 5;

/// Queries `nitf_match` replaces after its timed phases. Each
/// replacement costs every broker two SRT scans, so these take about
/// two seconds.
const REPLACE_AFTER: usize = 24;

/// Queries of the NITF reconnect burst: a full Set A subscriber.
const NITF_BURST: usize = 1000;

fn seed_for(seed: u64, stream: u64) -> u64 {
    seed.wrapping_mul(1_000_003).wrapping_add(stream)
}

/// Seed of every workload's query table.
const TABLE_SEED: u64 = 1;

fn pool(dtd: &xdn_xml::dtd::Dtd, count: usize, seed: u64) -> Vec<PoolDoc> {
    docs::documents(dtd, count, seed)
        .iter()
        .map(|d| {
            let bytes = d.to_xml_string().len();
            let paths = dedup_paths(extract_paths(d, DocId(0)))
                .iter()
                .map(|p| Publication::from_doc_path(p, bytes))
                .collect();
            PoolDoc { paths }
        })
        .filter(|d: &PoolDoc| !d.paths.is_empty())
        .collect()
}

/// Generates workload `name` from `seed`, or `None` for an unknown name.
pub fn generate(name: &str, seed: u64, scale: Scale) -> Option<Workload> {
    let name = *NAMES.iter().find(|n| **n == name)?;
    let opts = DeriveOptions::default();
    let w = match name {
        "psd_stream" => {
            let dtd = psd_dtd();
            // Asking for far more than exist yields every distinct query
            // the Set A generator can produce over the PSD DTD.
            let mut subs = sets::set_a(&dtd, 1000, TABLE_SEED);
            subs.truncate(scale.cap(subs.len()));
            Workload {
                name,
                advs: derive_advertisements(&dtd, &opts),
                subs,
                install: Install::Windowed(64),
                churn_pool: Vec::new(),
                churn_per_s: 0.0,
                replace_after: 0,
                pool: pool(&dtd, scale.docs(), seed_for(seed, 1)),
                rate_pps: 4000.0,
                window: 256,
                setup_reps: SETUP_REPS,
            }
        }
        _ => {
            let dtd = nitf_dtd();
            let (subs, churn_pool, install, churn_per_s) = match name {
                "nitf_resubscribe" => (
                    sets::set_a(&dtd, scale.cap(NITF_BURST), TABLE_SEED),
                    Vec::new(),
                    Install::Burst,
                    0.0,
                ),
                _ => {
                    // One generation, split: the installed table and a
                    // disjoint replacement pool of the same size.
                    let n = scale.cap(NITF_TABLE);
                    let mut all = sets::set_b(&dtd, 2 * n, TABLE_SEED);
                    let pool = all.split_off(n.min(all.len()));
                    let churn = if name == "nitf_churn" { 10.0 } else { 0.0 };
                    (all, pool, Install::Windowed(50), churn)
                }
            };
            Workload {
                name,
                advs: derive_advertisements(&dtd, &opts),
                subs,
                install,
                churn_pool,
                churn_per_s,
                replace_after: if name == "nitf_match" {
                    REPLACE_AFTER
                } else {
                    0
                },
                pool: pool(&dtd, scale.docs(), seed_for(seed, 1)),
                rate_pps: 2000.0,
                window: 256,
                // Every burst set-up runs into its 40 s deadline today;
                // one per run keeps the run inside its time limit.
                setup_reps: if install == Install::Burst {
                    1
                } else {
                    SETUP_REPS
                },
            }
        }
    };
    Some(w)
}
