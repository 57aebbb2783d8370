//! The traced replay: the run's exact inputs pushed in-process through
//! the layers' public functions, with a span recorded around each call.
//!
//! Three [`Broker`]s stand in for the three nodes. Every frame crosses
//! the codec exactly as on the wire (`wire::encode_into` or
//! `FrameBuf::write_to`, then `wire::decode_frame`), and each broker
//! handles one frame per `handle_batch_frames` call so its span belongs
//! to one message. Spans live in memory and are written out at the end.

use std::collections::VecDeque;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

use xdn_broker::{wire, Broker, BrokerId, Dest, Message, MessageKind, Publication};
use xdn_core::rtable::AdvId;
use xdn_xml::DocId;

use crate::expected::{node_default_config, BROKERS};
use crate::run::{Phase, RunResult};
use crate::workload::{Workload, PUBLISHER, SUBSCRIBER};

/// Where a span was taken.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Site {
    /// A client (publisher or subscriber).
    Client,
    /// Broker `i`.
    Broker(usize),
}

/// One timed call into a layer.
#[derive(Debug, Clone)]
pub struct Span {
    /// Span id (1-based).
    pub id: u64,
    /// The span that caused it (0 for a root).
    pub parent: u64,
    /// Layer call: `pub`, `ctl`, `wire.encode`, `wire.decode`,
    /// `broker.handle`.
    pub name: &'static str,
    /// Where it ran.
    pub site: Site,
    /// Kind of the message handled.
    pub kind: MessageKind,
    /// Publication id: document id and path id (zero for control).
    pub doc: u64,
    /// Path id within the document.
    pub path: u32,
    /// Start, nanoseconds since the replay's time base.
    pub start_ns: u64,
    /// End, nanoseconds since the replay's time base.
    pub end_ns: u64,
    /// Frame bytes for codec spans; for a broker's publication span,
    /// the publication routing time its stats recorded (ns).
    pub extra: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Replay output: spans, and deliveries per (document, path index).
pub struct Replay {
    /// Every recorded span.
    pub spans: Vec<Span>,
    /// Deliveries to the subscriber, aligned with `RunResult::receipts`.
    pub receipts: Vec<Vec<u32>>,
    /// Publication paths injected at B0.
    pub paths_published: u64,
}

/// What a span is about: message kind, document id, path id.
type Key = (MessageKind, u64, u32);

fn key(msg: &Message) -> Key {
    match msg.payload() {
        Message::Publish(p) => (MessageKind::Publish, p.doc_id.0, p.path_id.0),
        other => (other.kind(), 0, 0),
    }
}

struct Sim<'a> {
    brokers: Vec<Broker>,
    inbox: Vec<VecDeque<(Dest, Vec<u8>, u64)>>,
    spans: Vec<Span>,
    base: Instant,
    tracing: bool,
    receipts: Vec<Vec<u32>>,
    path_ids: &'a [Vec<u32>],
    docs: &'a [crate::run::SentDoc],
}

impl Sim<'_> {
    fn now(&self) -> u64 {
        self.base.elapsed().as_nanos() as u64
    }

    #[allow(clippy::too_many_arguments)]
    fn span(
        &mut self,
        parent: u64,
        name: &'static str,
        site: Site,
        (kind, doc, path): Key,
        start_ns: u64,
        end_ns: u64,
        extra: u64,
    ) -> u64 {
        if !self.tracing {
            return 0;
        }
        let id = self.spans.len() as u64 + 1;
        self.spans.push(Span {
            id,
            parent,
            name,
            site,
            kind,
            doc,
            path,
            start_ns,
            end_ns,
            extra,
        });
        id
    }

    /// A client sends `msg` to broker `b`.
    fn inject(&mut self, b: usize, from: Dest, msg: &Message, root: &'static str) {
        let t = self.now();
        let k = key(msg);
        let root_id = self.span(0, root, Site::Client, k, t, t, 0);
        let mut bytes = Vec::new();
        let t0 = self.now();
        wire::encode_into(msg, &mut bytes);
        let t1 = self.now();
        self.span(
            root_id,
            "wire.encode",
            Site::Client,
            k,
            t0,
            t1,
            bytes.len() as u64,
        );
        self.inbox[b].push_back((from, bytes, root_id));
        self.pump();
        let end = self.now();
        if let Some(s) = (root_id as usize)
            .checked_sub(1)
            .and_then(|i| self.spans.get_mut(i))
        {
            s.end_ns = end;
        }
    }

    /// Processes frames until every inbox is empty.
    fn pump(&mut self) {
        while let Some(b) = (0..BROKERS).find(|b| !self.inbox[*b].is_empty()) {
            let Some((from, bytes, root)) = self.inbox[b].pop_front() else {
                continue;
            };
            let t0 = self.now();
            let Ok((msg, _)) = wire::decode_frame(&bytes) else {
                continue;
            };
            let t1 = self.now();
            let k = key(&msg);
            let site = Site::Broker(b);
            self.span(root, "wire.decode", site, k, t0, t1, bytes.len() as u64);
            let routed_before = self.brokers[b].stats().pub_routing.sum_ns();
            let t2 = self.now();
            let out = self.brokers[b].handle_batch_frames(vec![(from, msg)]);
            let t3 = self.now();
            let routed = self.brokers[b].stats().pub_routing.sum_ns() - routed_before;
            let handle = self.span(root, "broker.handle", site, k, t2, t3, routed as u64);
            for ob in out {
                let mut wire_bytes = Vec::with_capacity(ob.frame.encoded_len());
                let t4 = self.now();
                if ob.frame.write_to(&mut wire_bytes).is_err() {
                    continue;
                }
                let t5 = self.now();
                let len = wire_bytes.len() as u64;
                let ok = key(ob.frame.payload());
                self.span(handle, "wire.encode", site, ok, t4, t5, len);
                match ob.dest {
                    Dest::Broker(nb) => {
                        let from = Dest::Broker(BrokerId(b as u32));
                        self.inbox[nb.0 as usize].push_back((from, wire_bytes, root));
                    }
                    Dest::Client(_) => {
                        let t6 = self.now();
                        let decoded = wire::decode_frame(&wire_bytes);
                        let t7 = self.now();
                        if let Ok((Message::Publish(p), _)) = decoded {
                            self.span(handle, "wire.decode", Site::Client, ok, t6, t7, len);
                            self.deliver(&p);
                        }
                    }
                }
            }
        }
    }

    fn deliver(&mut self, p: &Publication) {
        let seq = p.doc_id.0 as usize;
        let Some(d) = self.docs.get(seq) else { return };
        let Ok(idx) = self.path_ids[d.pool].binary_search(&p.path_id.0) else {
            return;
        };
        while self.receipts.len() <= seq {
            let n = self
                .docs
                .get(self.receipts.len())
                .map_or(0, |d| self.path_ids[d.pool].len());
            self.receipts.push(vec![0; n]);
        }
        self.receipts[seq][idx] += 1;
    }
}

/// Latency-phase publication paths traced; enough for stable medians
/// while keeping a span file in the tens of megabytes.
const TRACED_PATHS: usize = 20_000;

/// Replays the run's inputs: advertisements, then the subscriber's
/// control frames and the published documents merged by send time.
/// Spans are kept for control frames and the first [`TRACED_PATHS`]
/// latency-phase publication paths; every path is replayed.
pub fn replay(w: &Workload, r: &RunResult) -> Replay {
    let path_ids: Vec<Vec<u32>> = w
        .pool
        .iter()
        .map(|d| d.paths.iter().map(|p| p.path_id.0).collect())
        .collect();
    let mut brokers: Vec<Broker> = (0..BROKERS)
        .map(|i| Broker::new(BrokerId(i as u32), node_default_config()))
        .collect();
    for i in 0..BROKERS - 1 {
        brokers[i].add_neighbor(BrokerId(i as u32 + 1));
        brokers[i + 1].add_neighbor(BrokerId(i as u32));
    }
    let mut sim = Sim {
        brokers,
        inbox: (0..BROKERS).map(|_| VecDeque::new()).collect(),
        spans: Vec::new(),
        base: Instant::now(),
        tracing: true,
        receipts: Vec::new(),
        path_ids: &path_ids,
        docs: &r.docs,
    };
    let edge = BROKERS - 1;
    for (i, a) in w.advs.iter().enumerate() {
        let m = Message::Advertise {
            id: AdvId(i as u64 + 1),
            adv: a.clone(),
        };
        sim.inject(0, Dest::Client(PUBLISHER), &m, "ctl");
    }
    let mut paths_published = 0u64;
    let mut traced_paths = 0usize;
    let mut ctl = r.control.iter().peekable();
    for (seq, d) in r.docs.iter().enumerate() {
        while let Some(op) = ctl.next_if(|op| op.at_ns <= d.due_ns) {
            sim.tracing = true;
            sim.inject(edge, Dest::Client(SUBSCRIBER), &op.msg, "ctl");
        }
        sim.tracing = d.phase == Phase::Latency && traced_paths < TRACED_PATHS;
        if sim.tracing {
            traced_paths += w.pool[d.pool].paths.len();
        }
        for p in &w.pool[d.pool].paths {
            let m = Message::Publish(Publication {
                doc_id: DocId(seq as u64),
                ..p.clone()
            });
            sim.inject(0, Dest::Client(PUBLISHER), &m, "pub");
            paths_published += 1;
        }
    }
    sim.tracing = true;
    for op in ctl {
        sim.inject(edge, Dest::Client(SUBSCRIBER), &op.msg, "ctl");
    }
    while sim.receipts.len() < r.docs.len() {
        let n = path_ids[r.docs[sim.receipts.len()].pool].len();
        sim.receipts.push(vec![0; n]);
    }
    Replay {
        spans: sim.spans,
        receipts: sim.receipts,
        paths_published,
    }
}

/// Compares the replay's deliveries with the live run's on every path
/// whose outcome does not depend on timing: all but `Either` paths,
/// whose queries were installed or removed while they were in flight.
/// Returns (paths compared, paths that differ).
pub fn differences(oracles: &crate::run::Oracles, r: &RunResult, rep: &Replay) -> (u64, u64) {
    let (mut compared, mut differ) = (0, 0);
    for (seq, d) in r.docs.iter().enumerate() {
        for (i, c) in oracles.classes(d).iter().enumerate() {
            if *c == crate::oracle::Class::Either {
                continue;
            }
            compared += 1;
            let live = r.receipts.get(seq).and_then(|v| v.get(i)).copied() > Some(0);
            if live != (rep.receipts[seq][i] > 0) {
                differ += 1;
            }
        }
    }
    (compared, differ)
}

/// Writes spans as JSON lines.
pub fn write_spans(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    let f = std::fs::File::create(path)?;
    let mut out = std::io::BufWriter::new(f);
    for s in spans {
        let site = match s.site {
            Site::Client => "client".to_string(),
            Site::Broker(b) => format!("B{b}"),
        };
        writeln!(
            out,
            "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"site\":\"{site}\",\"kind\":\"{}\",\"doc\":{},\"path\":{},\"start_ns\":{},\"end_ns\":{},\"extra\":{}}}",
            s.id, s.parent, s.name, s.kind, s.doc, s.path, s.start_ns, s.end_ns, s.extra
        )?;
    }
    out.flush()
}
