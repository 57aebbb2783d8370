//! Set-up completion oracle: the exact per-broker state the control
//! sequence must leave behind, computed by running the same sequence
//! through the deterministic simulator on the same chain topology.

use xdn_broker::{BrokerId, MessageKind, RoutingConfig};
use xdn_core::adv::Advertisement;
use xdn_core::rtable::SubId;
use xdn_net::latency::ClusterLan;
use xdn_net::topology::chain;
use xdn_xpath::Xpe;

/// Brokers in the chain: B0 (publisher) — B1 — B2 (subscriber).
pub const BROKERS: usize = 3;

/// The routing configuration `xdn-node` runs when started without
/// `--strategy`/`--shards`, copied from its argument parser. The oracle
/// must model the same tables; a run whose brokers settle into other
/// tables stops with an error that says so (see `run::check_routing`).
pub fn node_default_config() -> RoutingConfig {
    RoutingConfig::builder()
        .advertisements(true)
        .covering(true)
        .build()
}

/// The scrape-visible control state of one broker.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BrokerState {
    /// Advertisements received.
    pub advertise: u64,
    /// Subscriptions received.
    pub subscribe: u64,
    /// Unsubscriptions received.
    pub unsubscribe: u64,
    /// Advertisements in the SRT.
    pub srt: u64,
    /// Subscriptions in the PRT.
    pub prt: u64,
}

/// Expected states after the advertisement phase and after each window
/// of the subscription phase, indexed by broker id.
#[derive(Debug, Clone)]
pub struct Expected {
    /// After every advertisement has flooded the chain.
    pub after_advs: [BrokerState; BROKERS],
    /// After each window of subscriptions has been installed; the last
    /// entry is the state with the whole query set in effect.
    pub after_window: Vec<[BrokerState; BROKERS]>,
    /// After each control frame of the replacements, when they run
    /// with no publications. Only the edge broker's entry is exact
    /// for the live chain (see `run::run`).
    pub after_replace: Vec<[BrokerState; BROKERS]>,
}

impl Expected {
    /// The state with every subscription installed.
    pub fn after_subs(&self) -> &[BrokerState; BROKERS] {
        self.after_window.last().unwrap_or(&self.after_advs)
    }
}

fn snapshot(net: &xdn_net::Network) -> [BrokerState; BROKERS] {
    let mut out = [BrokerState::default(); BROKERS];
    for (i, s) in out.iter_mut().enumerate() {
        let b = net.broker(BrokerId(i as u32));
        let st = b.stats();
        *s = BrokerState {
            advertise: st.received_of(MessageKind::Advertise),
            subscribe: st.received_of(MessageKind::Subscribe),
            unsubscribe: st.received_of(MessageKind::Unsubscribe),
            srt: b.srt_size() as u64,
            prt: b.prt_size() as u64,
        };
    }
    out
}

/// Runs the advertisement phase (publisher at B0), the subscription
/// phase (subscriber at B2, queries in order, `window` at a time) and
/// then the `replace` pairs (unsubscribe installed query `i`, subscribe
/// the new query; one frame at a time) through the simulator.
/// Advertisement ids are `1..=advs.len()`, subscription ids
/// `1..=subs.len()` and then one per replacement, exactly as the load
/// generator assigns them.
pub fn compute(
    advs: &[Advertisement],
    subs: &[Xpe],
    window: usize,
    replace: &[(usize, &Xpe)],
) -> Expected {
    let mut net = chain(BROKERS as u32, node_default_config(), ClusterLan::default());
    let publisher = net.attach_client(BrokerId(0));
    let subscriber = net.attach_client(BrokerId(BROKERS as u32 - 1));
    net.advertise_all(publisher, advs.to_vec());
    net.run();
    let after_advs = snapshot(&net);
    let after_window = subs
        .chunks(window.max(1))
        .map(|chunk| {
            for x in chunk {
                net.subscribe(subscriber, x.clone());
            }
            net.run();
            snapshot(&net)
        })
        .collect();
    let mut after_replace = Vec::new();
    for (victim, fresh) in replace {
        net.unsubscribe(subscriber, SubId(*victim as u64 + 1));
        net.run();
        after_replace.push(snapshot(&net));
        net.subscribe(subscriber, (*fresh).clone());
        net.run();
        after_replace.push(snapshot(&net));
    }
    Expected {
        after_advs,
        after_window,
        after_replace,
    }
}
