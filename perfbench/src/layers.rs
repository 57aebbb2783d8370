//! Per-layer metrics: replay spans, standalone calls into the matching
//! layers, and the live nodes' scrape counters.

use std::time::Instant;

use xdn_broker::MessageKind;
use xdn_core::rtable::{AdvId, Srt};
use xdn_core::subtree::SubscriptionTree;

use crate::cluster::Scrape;
use crate::replay::{Replay, Site, Span};
use crate::run::RunResult;
use crate::stats::median;
use crate::workload::Workload;

/// Subscriptions timed by the standalone advertisement-matching call
/// (each one scans the whole SRT, ~ms on NITF).
const OVERLAP_SAMPLE: usize = 100;

/// One per-layer metric.
pub struct Metric {
    /// Name, as listed in `BENCHMARK.json`.
    pub name: String,
    /// Value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

fn m(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit,
    }
}

fn med_ns<'a>(spans: impl Iterator<Item = &'a Span>) -> f64 {
    median(&spans.map(|s| s.ns() as f64).collect::<Vec<_>>())
}

/// Median time of `Srt::match_sub` per subscription, microseconds.
fn overlap_us(w: &Workload) -> f64 {
    let mut srt: Srt<u8> = Srt::new();
    for (i, a) in w.advs.iter().enumerate() {
        srt.insert(AdvId(i as u64 + 1), a.clone(), 0);
    }
    let times: Vec<f64> = w
        .subs
        .iter()
        .take(OVERLAP_SAMPLE)
        .map(|x| {
            let t = Instant::now();
            std::hint::black_box(srt.match_sub(std::hint::black_box(x)));
            t.elapsed().as_nanos() as f64 / 1000.0
        })
        .collect();
    median(&times)
}

/// Median time of `SubscriptionTree::insert` over the query set in
/// order, microseconds.
fn insert_us(w: &Workload) -> f64 {
    let mut tree: SubscriptionTree<u32> = SubscriptionTree::new();
    let times: Vec<f64> = w
        .subs
        .iter()
        .enumerate()
        .map(|(i, x)| {
            let x = x.clone();
            let t = Instant::now();
            std::hint::black_box(tree.insert(x, i as u32));
            t.elapsed().as_nanos() as f64 / 1000.0
        })
        .collect();
    median(&times)
}

fn sum(scrapes: &[Scrape], name: &str) -> f64 {
    scrapes.iter().map(|s| s.sum(name)).sum::<f64>() + 0.0
}

/// Assembles every per-layer metric.
pub fn metrics(
    w: &Workload,
    r: &RunResult,
    rep: &Replay,
    pub_p50_us: f64,
    late_p99: f64,
) -> Vec<Metric> {
    let spans = &rep.spans;
    let publish = |s: &&Span| s.kind == MessageKind::Publish;
    let at_broker = |s: &&Span| matches!(s.site, Site::Broker(_));
    let mut out = Vec::new();

    // wire: codec calls on publication frames between brokers.
    let enc = med_ns(
        spans
            .iter()
            .filter(|s| s.name == "wire.encode")
            .filter(publish)
            .filter(at_broker),
    );
    let dec = med_ns(
        spans
            .iter()
            .filter(|s| s.name == "wire.decode")
            .filter(publish)
            .filter(at_broker),
    );
    let pub_frames: Vec<f64> = spans
        .iter()
        .filter(|s| s.name == "wire.encode")
        .filter(publish)
        .filter(at_broker)
        .map(|s| s.extra as f64)
        .collect();
    out.push(m("wire.encode_ns", enc, "ns"));
    out.push(m("wire.decode_ns", dec, "ns"));
    out.push(m(
        "wire.bytes_per_path",
        pub_frames.iter().sum::<f64>() / pub_frames.len().max(1) as f64,
        "B",
    ));

    // broker: handling per message, minus the routing-table time.
    let handles = |kind: MessageKind, b: Option<usize>| {
        spans
            .iter()
            .filter(move |s| s.name == "broker.handle" && s.kind == kind)
            .filter(move |s| b.is_none_or(|b| s.site == Site::Broker(b)))
    };
    let pub_self: Vec<f64> = handles(MessageKind::Publish, None)
        .map(|s| s.ns().saturating_sub(s.extra) as f64 / 1000.0)
        .collect();
    out.push(m("broker.pub_self_us", median(&pub_self), "us"));

    // rtable: routing time per publication at each broker.
    for b in 0..crate::expected::BROKERS {
        let route: Vec<f64> = handles(MessageKind::Publish, Some(b))
            .map(|s| s.extra as f64 / 1000.0)
            .collect();
        out.push(m(format!("rtable.route_us.b{b}"), median(&route), "us"));
    }
    let delivered: u64 = rep.receipts.iter().flatten().map(|n| u64::from(*n)).sum();
    out.push(m(
        "rtable.delivered_ratio",
        delivered as f64 / rep.paths_published.max(1) as f64,
        "ratio",
    ));

    // broker: control-frame handling per broker.
    for b in 0..crate::expected::BROKERS {
        out.push(m(
            format!("broker.sub_us.b{b}"),
            med_ns(handles(MessageKind::Subscribe, Some(b))) / 1000.0,
            "us",
        ));
        out.push(m(
            format!("broker.unsub_us.b{b}"),
            med_ns(handles(MessageKind::Unsubscribe, Some(b))) / 1000.0,
            "us",
        ));
    }

    // advmatch / subtree: standalone calls over the workload's inputs.
    out.push(m("advmatch.overlap_us", overlap_us(w), "us"));
    // Paths an installed query wants that no advertisement covers, as a
    // share of all such paths: adv-based routing never delivers them.
    let t = &r.tally;
    out.push(m(
        "advmatch.unadvertised_ratio",
        t.unadvertised as f64 / (t.expected + t.unadvertised).max(1) as f64,
        "ratio",
    ));
    out.push(m("subtree.insert_us", insert_us(w), "us"));
    let s = &r.scrapes;
    let edge_in = s.last().map_or(0, |e| e.received("subscribe"));
    let fwd = s.get(1).map_or(0, |e| e.received("subscribe"));
    out.push(m(
        "subtree.forward_ratio",
        fwd as f64 / edge_in.max(1) as f64,
        "ratio",
    ));

    // reliable: acks per broker-to-broker payload frame.
    let payload_kinds = [
        "advertise",
        "unadvertise",
        "subscribe",
        "unsubscribe",
        "publish",
    ];
    let payload_in: u64 = s
        .iter()
        .map(|sc| payload_kinds.iter().map(|k| sc.received(k)).sum::<u64>())
        .sum();
    let from_clients = w.advs.len() as u64
        + r.control.len() as u64
        + r.docs
            .iter()
            .map(|d| w.pool[d.pool].paths.len() as u64)
            .sum::<u64>();
    let acks: u64 = s.iter().map(|sc| sc.received("ack")).sum();
    out.push(m(
        "reliable.acks_per_payload",
        acks as f64 / payload_in.saturating_sub(from_clients).max(1) as f64,
        "ratio",
    ));
    out.push(m(
        "reliable.retransmits",
        sum(s, "xdn_retransmits_total"),
        "count",
    ));
    out.push(m(
        "reliable.dup_frames",
        sum(s, "xdn_dup_frames_total"),
        "count",
    ));

    // tcp: reconnects (sync states beyond one per link side) and shed.
    let links = (crate::expected::BROKERS - 1) as u64;
    let syncs: u64 = s.iter().map(|sc| sc.received("sync_state")).sum();
    out.push(m(
        "tcp.sync_states",
        syncs.saturating_sub(2 * links) as f64,
        "count",
    ));
    out.push(m(
        "tcp.shed",
        sum(s, "xdn_peer_shed_publications_total"),
        "count",
    ));
    let hits = sum(s, "xdn_frame_pool_hits_total");
    let misses = sum(s, "xdn_frame_pool_misses_total");
    out.push(m(
        "wire.pool_hit_ratio",
        hits / (hits + misses).max(1.0),
        "ratio",
    ));

    // tcp residual: what the replay's layers do not account for along
    // the path — client encode, per hop decode + handle + encode, and
    // the subscriber's decode.
    let client = |name: &str| {
        med_ns(
            spans
                .iter()
                .filter(|s| s.name == name && s.site == Site::Client)
                .filter(publish),
        )
    };
    let mut layers_ns = client("wire.encode") + client("wire.decode");
    for b in 0..crate::expected::BROKERS {
        let here = |name: &'static str| {
            med_ns(
                spans
                    .iter()
                    .filter(move |s| s.name == name && s.site == Site::Broker(b))
                    .filter(publish),
            )
        };
        layers_ns += here("wire.decode") + here("broker.handle") + here("wire.encode");
    }
    out.push(m("tcp.residual_us", pub_p50_us - layers_ns / 1000.0, "us"));

    out.push(m("gen.late_p99_us", late_p99, "us"));
    out
}
