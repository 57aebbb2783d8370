//! One measured run over the live chain: set-up repetitions, the
//! open-loop latency phase, the closed-loop saturation phase, and the
//! delivery check.

use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use xdn_broker::{Message, Publication};
use xdn_core::rtable::{AdvId, SubId};
use xdn_xml::DocId;
use xdn_xpath::Xpe;

use crate::client::Conn;
use crate::cluster::{Cluster, Scrape};
use crate::expected::{BrokerState, Expected, BROKERS};
use crate::oracle::{self, Class, Oracle, Tally};
use crate::workload::{Install, Workload, PUBLISHER, SUBSCRIBER};

/// Deadline for the overlay's links to come up and sync.
const START_DEADLINE: Duration = Duration::from_secs(15);
/// Deadline for in-flight deliveries after a publishing phase ends.
const DRAIN_DEADLINE: Duration = Duration::from_secs(5);
/// The closed loop gives up when no document completes for this long.
const STALL_DEADLINE: Duration = Duration::from_secs(3);
/// Untimed publishing before each latency phase.
const WARMUP: Duration = Duration::from_millis(500);
/// Sub-windows each repetition's share of a timed phase is split into.
/// Contention from other tenants of the host only ever slows a window
/// down, and on a shared 2-vCPU host it moved the same computation by
/// 2x from one second to the next; so a phase reports its
/// better-quartile window over every repetition, which a few disturbed
/// seconds do not move.
pub const WINDOWS: usize = 8;
/// Interval between scrapes while waiting for a control state.
const POLL: Duration = Duration::from_millis(5);
/// Pause before the second scrape that tells a stalled overlay from a
/// quiescent one.
const QUIESCE: Duration = Duration::from_millis(500);

/// Which phase published a document.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// While the subscriber's burst is being installed.
    Burst,
    /// Open loop at the workload's fixed rate, before timing starts.
    Warmup,
    /// Open loop at the workload's fixed rate, timed.
    Latency,
    /// Closed loop with a fixed window.
    Saturation,
}

/// One published document.
#[derive(Debug, Clone, Copy)]
pub struct SentDoc {
    /// Index into the workload's pool.
    pub pool: usize,
    /// The phase that sent it.
    pub phase: Phase,
    /// When its first path was due (open loop) or sent (closed loop),
    /// in nanoseconds since the run's time base.
    pub due_ns: u64,
    /// Due-time spacing of its paths, in nanoseconds.
    pub interval_ns: f64,
}

/// A subscriber control frame and when it was sent.
#[derive(Debug, Clone)]
pub struct ControlOp {
    /// Nanoseconds since the run's time base.
    pub at_ns: u64,
    /// The frame.
    pub msg: Message,
}

/// Everything one run measured.
#[derive(Debug, Default)]
pub struct RunResult {
    /// Set-up time of each repetition, seconds.
    pub setup_s: Vec<f64>,
    /// Per repetition that completed its set-up, the seconds each of its
    /// phases took: the advertisements, then each install window.
    pub setup_parts: Vec<Vec<f64>>,
    /// Latency-phase deliveries: (due time in ns since the run's time
    /// base, publish-to-deliver time in microseconds).
    pub latency_us: Vec<(u64, f64)>,
    /// (start, length) of each repetition's latency phase, ns since the
    /// run's time base.
    pub latency_spans: Vec<(u64, u64)>,
    /// How late the generator sent each open-loop path, microseconds.
    pub late_us: Vec<f64>,
    /// Paths delivered per second in each sub-window of every
    /// repetition's saturation phase.
    pub sat_pps: Vec<f64>,
    /// Delivery check over every published document.
    pub tally: Tally,
    /// Subscriptions sent (every repetition, churn included).
    pub subs_sent: u64,
    /// Subscriptions not in effect when a phase deadline passed.
    pub subs_failed: u64,
    /// Phases that ran past their deadline.
    pub deadlines_missed: Vec<String>,
    /// Sum of the brokers' peak RSS, MiB.
    pub rss_mb: f64,
    /// Final scrape of each broker.
    pub scrapes: Vec<Scrape>,
    /// Documents in publication order; the document id is the index.
    pub docs: Vec<SentDoc>,
    /// Subscriber control frames of the last repetition, in order.
    pub control: Vec<ControlOp>,
    /// Deliveries per (document, path index).
    pub receipts: Vec<Vec<u32>>,
}

impl RunResult {
    /// Failed operations: bad deliveries plus subscriptions not in
    /// effect by their deadline.
    pub fn failed(&self) -> u64 {
        self.tally.failures() + self.subs_failed
    }

    /// Attempted operations: expected deliveries plus subscriptions.
    pub fn attempted(&self) -> u64 {
        self.tally.expected + self.subs_sent
    }
}

/// The oracles a run checks deliveries against.
pub struct Oracles {
    /// Once the query set is installed.
    pub steady: Oracle,
    /// While the whole query set is (re)installing.
    pub installing: Oracle,
}

impl Oracles {
    fn for_phase(&self, phase: Phase) -> &Oracle {
        match phase {
            Phase::Burst => &self.installing,
            Phase::Warmup | Phase::Latency | Phase::Saturation => &self.steady,
        }
    }

    /// Classes of document `d`.
    pub fn classes(&self, d: &SentDoc) -> &[Class] {
        self.for_phase(d.phase).doc(d.pool)
    }
}

/// The churn schedule: which installed queries get replaced, by which
/// pool queries, in order. Churn during an open-loop phase of `seconds`
/// gets enough replacements for its rate; otherwise the workload's
/// [`Workload::replace_after`] are planned.
pub fn churn_plan(w: &Workload, seed: u64, seconds: f64) -> Vec<(usize, usize)> {
    let n = if w.churns_live() {
        (w.churn_per_s * seconds).ceil() as usize + 1
    } else {
        w.replace_after
    }
    .min(w.subs.len())
    .min(w.churn_pool.len());
    if n == 0 {
        return Vec::new();
    }
    let mut victims: Vec<usize> = (0..w.subs.len()).collect();
    // Seeded Fisher-Yates, so the plan is a function of the seed alone.
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    for i in (1..victims.len()).rev() {
        victims.swap(i, rng.gen_range(0..=i));
    }
    victims.truncate(n);
    victims
        .into_iter()
        .enumerate()
        .map(|(k, v)| (v, k))
        .collect()
}

/// The replacements `plan` makes after the timed phases, as (installed
/// query, new query) pairs for [`crate::expected::compute`]; none when
/// the workload churns during publication instead.
pub fn replaced_after<'a>(w: &'a Workload, plan: &[(usize, usize)]) -> Vec<(usize, &'a Xpe)> {
    if w.churns_live() {
        return Vec::new();
    }
    plan.iter().map(|(v, k)| (*v, &w.churn_pool[*k])).collect()
}

/// Builds the steady and installing oracles for `w` and its churn plan.
/// Replacements made after the timed phases touch no publication.
pub fn oracles(w: &Workload, plan: &[(usize, usize)]) -> Oracles {
    let plan = if w.churns_live() { plan } else { &[] };
    let touched: std::collections::HashSet<usize> = plan.iter().map(|(v, _)| *v).collect();
    let stable: Vec<Xpe> = w
        .subs
        .iter()
        .enumerate()
        .filter(|(i, _)| !touched.contains(i))
        .map(|(_, x)| x.clone())
        .collect();
    let mut unsettled: Vec<Xpe> = touched.iter().map(|&i| w.subs[i].clone()).collect();
    unsettled.extend(plan.iter().map(|(_, k)| w.churn_pool[*k].clone()));
    let steady = Oracle::new(&w.pool, &w.advs, &stable, &unsettled);
    let installing = steady.relaxed();
    Oracles { steady, installing }
}

/// State shared by the publisher, the subscriber's reader and the
/// churn thread.
struct Shared {
    base: Instant,
    docs: Mutex<Vec<SentDoc>>,
    /// One past the highest document whose expected deliveries have all
    /// arrived. Links are FIFO, so every earlier document is done too.
    done_upto: AtomicU64,
    /// First deliveries of expected paths so far.
    expected_seen: AtomicU64,
}

impl Shared {
    fn now_ns(&self) -> u64 {
        self.base.elapsed().as_nanos() as u64
    }
}

/// What the subscriber's reader collected.
struct Received {
    receipts: Vec<Vec<u32>>,
    latency_us: Vec<(u64, f64)>,
    stray: u64,
}

fn receive(
    mut reader: crate::client::FrameReader,
    shared: &Shared,
    oracles: &Oracles,
    path_ids: &[Vec<u32>],
) -> Received {
    let mut r = Received {
        receipts: Vec::new(),
        latency_us: Vec::new(),
        stray: 0,
    };
    let mut remaining: Vec<u32> = Vec::new();
    while let Some(msg) = reader.next() {
        let Message::Publish(p) = msg else { continue };
        let now = shared.now_ns();
        let seq = p.doc_id.0 as usize;
        let Some(doc) = shared.docs.lock().expect("docs lock").get(seq).copied() else {
            r.stray += 1;
            continue;
        };
        let Ok(idx) = path_ids[doc.pool].binary_search(&p.path_id.0) else {
            r.stray += 1;
            continue;
        };
        while r.receipts.len() <= seq {
            let d = r.receipts.len();
            let known = shared.docs.lock().expect("docs lock").get(d).copied();
            let (n, exp) = known.map_or((0, 0), |k| {
                let c = oracles.classes(&k);
                (c.len(), c.iter().filter(|c| **c == Class::Expected).count())
            });
            r.receipts.push(vec![0; n]);
            remaining.push(exp as u32);
        }
        let slot = &mut r.receipts[seq][idx];
        *slot += 1;
        if *slot == 1 {
            if doc.phase == Phase::Latency {
                let due = doc.due_ns as f64 + doc.interval_ns * idx as f64;
                r.latency_us.push((due as u64, (now as f64 - due) / 1000.0));
            }
            if oracles.classes(&doc)[idx] == Class::Expected {
                shared.expected_seen.fetch_add(1, Ordering::Relaxed);
                remaining[seq] -= 1;
                if remaining[seq] == 0 {
                    shared.done_upto.fetch_max(seq as u64 + 1, Ordering::SeqCst);
                }
            }
        }
    }
    r
}

/// The publisher's side of a run.
struct Publisher<'a> {
    conn: Conn,
    shared: &'a Shared,
    pool: &'a [crate::workload::PoolDoc],
    oracles: &'a Oracles,
    next_pool: usize,
    /// Expected deliveries published so far.
    expected_sent: u64,
}

impl Publisher<'_> {
    /// Records the next pool document as sent and returns its id.
    fn register_doc(&mut self, phase: Phase, due_ns: u64, interval_ns: f64) -> u64 {
        let pool = self.next_pool;
        self.next_pool = (self.next_pool + 1) % self.pool.len();
        let sent = SentDoc {
            pool,
            phase,
            due_ns,
            interval_ns,
        };
        self.expected_sent += self
            .oracles
            .classes(&sent)
            .iter()
            .filter(|c| **c == Class::Expected)
            .count() as u64;
        let mut docs = self.shared.docs.lock().expect("docs lock");
        docs.push(sent);
        docs.len() as u64 - 1
    }

    /// Buffers path `k` of document `seq`.
    fn send_path(&mut self, seq: u64, pool: usize, k: usize) -> std::io::Result<()> {
        let msg = Message::Publish(Publication {
            doc_id: DocId(seq),
            ..self.pool[pool].paths[k].clone()
        });
        self.conn.send(&msg)
    }

    /// Publishes at `rate` paths per second until `stop` is set or
    /// `until` passes. Each path is sent once due; latency is timed
    /// from the due time, so a stalled generator or broker shows.
    fn open_loop(
        &mut self,
        phase: Phase,
        rate: f64,
        until: Instant,
        stop: &AtomicBool,
        late_us: &mut Vec<f64>,
    ) -> std::io::Result<()> {
        let interval_ns = 1e9 / rate;
        let start_ns = self.shared.now_ns();
        let mut n_sent: u64 = 0;
        // (document id, pool index, next path index)
        let mut cur: Option<(u64, usize, usize)> = None;
        while Instant::now() < until && !stop.load(Ordering::Relaxed) {
            let now_ns = self.shared.now_ns();
            let mut due_ns = start_ns + (n_sent as f64 * interval_ns) as u64;
            if due_ns > now_ns {
                std::thread::sleep(Duration::from_nanos(due_ns - now_ns));
                continue;
            }
            // Everything due by now goes out in one flush.
            while due_ns <= now_ns {
                let (seq, pool, k) = match cur {
                    Some(c) => c,
                    None => {
                        let pool = self.next_pool;
                        (self.register_doc(phase, due_ns, interval_ns), pool, 0)
                    }
                };
                self.send_path(seq, pool, k)?;
                late_us.push((now_ns - due_ns) as f64 / 1000.0);
                cur = (k + 1 < self.pool[pool].paths.len()).then_some((seq, pool, k + 1));
                n_sent += 1;
                due_ns = start_ns + (n_sent as f64 * interval_ns) as u64;
            }
            self.conn.flush()?;
        }
        // Finish the document in progress so every registered path is
        // published.
        if let Some((seq, pool, k)) = cur {
            for k in k..self.pool[pool].paths.len() {
                self.send_path(seq, pool, k)?;
            }
            self.conn.flush()?;
        }
        Ok(())
    }

    /// Keeps `window` publication paths in flight for
    /// `parts` consecutive sub-windows of `part` each, returning the
    /// delivered paths per second of each, or `None` on a stall (no
    /// progress within [`STALL_DEADLINE`]).
    fn closed_loop(
        &mut self,
        window: usize,
        part: Duration,
        parts: usize,
    ) -> std::io::Result<Option<Vec<f64>>> {
        // (document id, paths, has expected deliveries), oldest first.
        let mut inflight: std::collections::VecDeque<(u64, usize, bool)> =
            std::collections::VecDeque::new();
        let mut inflight_paths = 0usize;
        let mut last_progress = Instant::now();
        let mut rates = Vec::with_capacity(parts);
        let mut mark = (
            Instant::now(),
            self.shared.expected_seen.load(Ordering::SeqCst),
        );
        loop {
            if mark.0.elapsed() >= part {
                let seen = self.shared.expected_seen.load(Ordering::SeqCst);
                rates.push((seen - mark.1) as f64 / mark.0.elapsed().as_secs_f64());
                if rates.len() == parts {
                    return Ok(Some(rates));
                }
                mark = (Instant::now(), seen);
            }
            let done = self.shared.done_upto.load(Ordering::SeqCst);
            while let Some(&(_, n, _)) = inflight.front().filter(|d| d.0 < done) {
                inflight.pop_front();
                inflight_paths -= n;
                last_progress = Instant::now();
            }
            // Documents nobody receives complete only when a later one
            // does, so they never hold the window closed on their own.
            if inflight_paths < window || !inflight.iter().any(|d| d.2) {
                let pool = self.next_pool;
                let n = self.pool[pool].paths.len();
                let seq = self.register_doc(Phase::Saturation, self.shared.now_ns(), 0.0);
                for k in 0..n {
                    self.send_path(seq, pool, k)?;
                }
                self.conn.flush()?;
                inflight.push_back((seq, n, self.oracles.steady.expected_in(pool) > 0));
                inflight_paths += n;
                continue;
            }
            if last_progress.elapsed() > STALL_DEADLINE {
                return Ok(None);
            }
            std::thread::sleep(Duration::from_micros(50));
        }
    }
}

/// Polls the brokers, one short connection at a time, until each one's
/// control state equals `want` exactly. Returns when the last broker
/// matched, or the last scrapes on deadline.
fn await_state(
    cluster: &Cluster,
    want: &[BrokerState; BROKERS],
    deadline: Instant,
) -> Result<Instant, Vec<Option<BrokerState>>> {
    let mut seen: Vec<Option<BrokerState>> = vec![None; BROKERS];
    let mut i = 0;
    loop {
        if let Some(s) = cluster.scrape(i) {
            seen[i] = Some(state_of(&s));
        }
        let at = Instant::now();
        if seen.iter().zip(want).all(|(s, w)| s.as_ref() == Some(w)) {
            return Ok(at);
        }
        if at >= deadline {
            return Err(seen);
        }
        // Re-scrape a broker only while it differs from its target.
        i = (0..BROKERS)
            .map(|k| (i + 1 + k) % BROKERS)
            .find(|k| seen[*k].as_ref() != Some(&want[*k]))
            .unwrap_or(i);
        std::thread::sleep(POLL);
    }
}

/// Checks a missed set-up deadline for a routing configuration other
/// than the oracle's ([`crate::expected::node_default_config`], a copy
/// of `xdn-node`'s default), rather than a slow overlay: the brokers are
/// quiescent (a second scrape reads the same), and some broker received
/// more control frames than the oracle's routing sends it, or exactly
/// its share yet holds different tables.
fn check_routing(
    cluster: &Cluster,
    seen: &[Option<BrokerState>],
    want: &[BrokerState; BROKERS],
    phase: &str,
) -> Result<(), String> {
    std::thread::sleep(QUIESCE);
    let again = states(cluster);
    if again == seen && routing_differs(&again, want) {
        return Err(format!(
            "xdn-node default routing differs from the oracle after the {phase} phase: scraped {again:?}, expected {want:?}"
        ));
    }
    Ok(())
}

/// Whether some broker received more control frames than `want` says,
/// or exactly as many yet holds different tables.
fn routing_differs(seen: &[Option<BrokerState>], want: &[BrokerState; BROKERS]) -> bool {
    seen.iter().zip(want).any(|(s, w)| {
        s.is_some_and(|s| {
            let got = [s.advertise, s.subscribe, s.unsubscribe];
            let exp = [w.advertise, w.subscribe, w.unsubscribe];
            got.iter().zip(exp).any(|(g, e)| *g > e)
                || (got == exp && (s.srt, s.prt) != (w.srt, w.prt))
        })
    })
}

/// Every broker's control state, scraped one at a time.
fn states(cluster: &Cluster) -> Vec<Option<BrokerState>> {
    (0..BROKERS)
        .map(|i| cluster.scrape(i).map(|s| state_of(&s)))
        .collect()
}

/// Polls the edge broker until its control state equals `want`;
/// false on deadline.
fn await_edge(cluster: &Cluster, want: &BrokerState, deadline: Instant) -> bool {
    loop {
        if cluster.scrape(BROKERS - 1).map(|s| state_of(&s)).as_ref() == Some(want) {
            return true;
        }
        if Instant::now() >= deadline {
            return false;
        }
        std::thread::sleep(POLL);
    }
}

/// Waits until two scrapes of every broker [`QUIESCE`] apart agree;
/// false on deadline.
fn await_quiet(cluster: &Cluster, deadline: Instant) -> bool {
    let mut last = states(cluster);
    loop {
        std::thread::sleep(QUIESCE);
        let now = states(cluster);
        if now == last && now.iter().all(Option::is_some) {
            return true;
        }
        if Instant::now() >= deadline {
            return false;
        }
        last = now;
    }
}

/// A broker's control state as scraped.
fn state_of(s: &Scrape) -> BrokerState {
    BrokerState {
        advertise: s.received("advertise"),
        subscribe: s.received("subscribe"),
        unsubscribe: s.received("unsubscribe"),
        srt: s.table("srt"),
        prt: s.table("prt"),
    }
}

/// Subscriptions not in effect, estimated from how far the scraped
/// state falls short of the target: the edge broker's unprocessed
/// subscriptions, or failing that the largest upstream shortfall.
fn subs_short(seen: &[Option<BrokerState>], want: &[BrokerState; BROKERS], n: u64) -> u64 {
    let gap = |s: &Option<BrokerState>, w: &BrokerState| match s {
        Some(s) => s.subscribe.abs_diff(w.subscribe).max(s.prt.abs_diff(w.prt)),
        None => w.subscribe,
    };
    let worst = seen
        .iter()
        .zip(want)
        .map(|(s, w)| gap(s, w))
        .max()
        .unwrap_or(n);
    worst.clamp(1, n.max(1))
}

fn sub_msg(id: u64, x: &Xpe) -> Message {
    Message::Subscribe {
        id: SubId(id),
        xpe: x.clone(),
    }
}

/// The control frames of the `k`-th replacement: unsubscribe installed
/// query `victim`, subscribe `fresh` under the next free id.
fn replacement(n_subs: u64, k: usize, victim: usize, fresh: &Xpe) -> [Message; 2] {
    [
        Message::Unsubscribe {
            id: SubId(victim as u64 + 1),
        },
        sub_msg(n_subs + 1 + k as u64, fresh),
    ]
}

/// Runs `reps` repetitions, each on a fresh overlay: a timed set-up,
/// then its share (`1 / reps`) of the latency and saturation phases.
/// The last one also makes the after-phase replacements and takes the
/// final scrape.
#[allow(clippy::too_many_lines, clippy::too_many_arguments)]
pub fn run(
    w: &Workload,
    expected: &Expected,
    oracles: &Oracles,
    plan: &[(usize, usize)],
    bin: &Path,
    pidfile: &Path,
    reps: usize,
    seconds: f64,
) -> Result<RunResult, String> {
    let mut res = RunResult::default();
    let shared = Shared {
        base: Instant::now(),
        docs: Mutex::new(Vec::new()),
        done_upto: AtomicU64::new(0),
        expected_seen: AtomicU64::new(0),
    };
    let path_ids: Vec<Vec<u32>> = w
        .pool
        .iter()
        .map(|d| d.paths.iter().map(|p| p.path_id.0).collect())
        .collect();
    let n_subs = w.subs.len() as u64;
    let setup_deadline = Duration::from_secs(if w.advs.len() > 1000 { 40 } else { 15 });
    // Each timed phase is spread over every repetition, so the windows
    // a phase reports span the whole run rather than its last seconds.
    let slice = Duration::from_secs_f64(seconds / 2.0 / reps.max(1) as f64);
    // Where the publisher stands in the pool, and the expected
    // deliveries it has published, carried from one overlay to the next.
    let (mut next_pool, mut expected_sent) = (0, 0);

    for rep in 0..reps {
        let last = rep + 1 == reps;
        let cluster = Cluster::start(bin, pidfile, START_DEADLINE)?;
        let mut publisher = Publisher {
            conn: Conn::connect(cluster.addr(0), PUBLISHER).map_err(|e| e.to_string())?,
            shared: &shared,
            pool: &w.pool,
            oracles,
            next_pool,
            expected_sent,
        };
        let mut subscriber =
            Conn::connect(cluster.addr(BROKERS - 1), SUBSCRIBER).map_err(|e| e.to_string())?;
        let reader = subscriber.reader().map_err(|e| e.to_string())?;
        // Dropped when the phase body returns, early or not, so the
        // scope below never waits on a reader of a live socket.
        let closer = reader.closer().map_err(|e| e.to_string())?;
        let started = Instant::now();
        let deadline = started + setup_deadline;
        let stop_burst = AtomicBool::new(false);

        std::thread::scope(|scope| -> Result<(), String> {
            let _closer = closer;
            let io = |e: std::io::Error| e.to_string();
            let receiver = scope.spawn(|| receive(reader, &shared, oracles, &path_ids));

            // Advertisement phase: the publisher floods its DTD's set.
            for (i, a) in w.advs.iter().enumerate() {
                publisher
                    .conn
                    .send(&Message::Advertise {
                        id: AdvId(i as u64 + 1),
                        adv: a.clone(),
                    })
                    .map_err(io)?;
            }
            publisher.conn.flush().map_err(io)?;
            let advs_ok = await_state(&cluster, &expected.after_advs, deadline);
            // Duration of each set-up phase: the advertisements, then
            // each install window (or the burst).
            let mut mark = *advs_ok.as_ref().unwrap_or(&Instant::now());
            let mut parts = vec![(mark - started).as_secs_f64()];
            eprintln!(
                "rep{rep}: advertisements in effect after {:.3} s",
                started.elapsed().as_secs_f64()
            );
            if let Err(seen) = advs_ok {
                check_routing(&cluster, &seen, &expected.after_advs, "advertisement")?;
                res.deadlines_missed
                    .push(format!("rep{rep}: advertisements"));
            }

            // Subscription phase.
            let log = |res: &mut RunResult, msg: Message| {
                if last {
                    res.control.push(ControlOp {
                        at_ns: shared.now_ns(),
                        msg,
                    });
                }
            };
            let settled = match w.install {
                Install::Windowed(n) => {
                    // Closed loop: the next window goes out once every
                    // broker holds exactly the state the previous one
                    // leaves behind.
                    let mut sent = 0u64;
                    let mut settled = Ok(started);
                    for (chunk, want) in w.subs.chunks(n.max(1)).zip(&expected.after_window) {
                        for x in chunk {
                            sent += 1;
                            let m = sub_msg(sent, x);
                            subscriber.send(&m).map_err(io)?;
                            log(&mut res, m);
                        }
                        subscriber.flush().map_err(io)?;
                        settled = await_state(&cluster, want, deadline);
                        match &settled {
                            Ok(at) => {
                                parts.push((*at - mark).as_secs_f64());
                                mark = *at;
                            }
                            Err(seen) => {
                                check_routing(&cluster, seen, want, "subscription")?;
                                break;
                            }
                        }
                    }
                    settled
                }
                Install::Burst => {
                    // The whole set at once, while publications run.
                    let pubs = scope.spawn(|| {
                        let r = publisher.open_loop(
                            Phase::Burst,
                            w.rate_pps,
                            deadline,
                            &stop_burst,
                            &mut Vec::new(),
                        );
                        (r, publisher)
                    });
                    for (i, x) in w.subs.iter().enumerate() {
                        let m = sub_msg(i as u64 + 1, x);
                        subscriber.send(&m).map_err(io)?;
                        log(&mut res, m);
                    }
                    subscriber.flush().map_err(io)?;
                    let settled = await_state(&cluster, expected.after_subs(), deadline);
                    if let Ok(at) = &settled {
                        parts.push((*at - mark).as_secs_f64());
                    }
                    stop_burst.store(true, Ordering::Relaxed);
                    let (r, p) = pubs.join().map_err(|_| "publisher panicked".to_string())?;
                    r.map_err(io)?;
                    publisher = p;
                    settled
                }
            };
            res.subs_sent += n_subs;
            match settled {
                Ok(at) => {
                    res.setup_s.push((at - started).as_secs_f64());
                    res.setup_parts.push(parts);
                }
                Err(seen) => {
                    res.deadlines_missed
                        .push(format!("rep{rep}: subscriptions"));
                    res.subs_failed += subs_short(&seen, expected.after_subs(), n_subs);
                    res.setup_s.push(setup_deadline.as_secs_f64());
                }
            }

            {
                // Open loop at the fixed rate, with churn alongside.
                let never = AtomicBool::new(false);
                // The churn thread owns the subscriber's writer for the
                // phase and hands it back when done.
                let sh = &shared;
                let mut sub_conn = subscriber;
                let churn = scope.spawn(move || {
                    let mut ops = Vec::new();
                    let gap = Duration::from_secs_f64(1.0 / w.churn_per_s.max(1e-9));
                    let t0 = Instant::now() + WARMUP;
                    let until = t0 + slice;
                    let mut send =
                        |ops: &mut Vec<ControlOp>, k: usize, victim: usize, fresh: usize| {
                            let msgs = replacement(n_subs, k, victim, &w.churn_pool[fresh]);
                            for m in &msgs {
                                sub_conn.send(m)?;
                            }
                            sub_conn.flush()?;
                            let at_ns = sh.now_ns();
                            ops.extend(msgs.map(|msg| ControlOp { at_ns, msg }));
                            Ok::<(), std::io::Error>(())
                        };
                    let mut result = Ok(());
                    let live = if w.churns_live() { plan } else { &[] };
                    for (k, (victim, fresh)) in live.iter().enumerate() {
                        let at = t0 + gap.mul_f64(k as f64 + 0.5);
                        if at >= until {
                            break;
                        }
                        std::thread::sleep(at.saturating_duration_since(Instant::now()));
                        result = send(&mut ops, k, *victim, *fresh);
                        if result.is_err() {
                            break;
                        }
                    }
                    (result, ops, sub_conn)
                });
                // Untimed lead-in: the first publications after set-up
                // meet cold caches and buffers.
                let warm = Instant::now() + WARMUP;
                publisher
                    .open_loop(Phase::Warmup, w.rate_pps, warm, &never, &mut Vec::new())
                    .map_err(io)?;
                let start_ns = shared.now_ns();
                publisher
                    .open_loop(
                        Phase::Latency,
                        w.rate_pps,
                        warm + slice,
                        &never,
                        &mut res.late_us,
                    )
                    .map_err(io)?;
                res.latency_spans.push((start_ns, slice.as_nanos() as u64));
                let (result, ops, conn) = churn.join().map_err(|_| "churn panicked".to_string())?;
                subscriber = conn;
                result.map_err(io)?;
                res.subs_sent += (ops.len() / 2) as u64;
                if last {
                    res.control.extend(ops);
                }
                drain(&shared, &publisher, "latency", &mut res);

                // Closed loop: a fixed window of paths in flight.
                match publisher
                    .closed_loop(w.window, slice / WINDOWS as u32, WINDOWS)
                    .map_err(io)?
                {
                    Some(rates) => res.sat_pps.extend(rates),
                    None => res
                        .deadlines_missed
                        .push(format!("rep{rep}: saturation stalled")),
                }
                drain(&shared, &publisher, "saturation", &mut res);
            }

            if last {
                if !w.churns_live() && !plan.is_empty() {
                    // Replacements with no publications running, one
                    // frame at a time: the next goes out once the edge
                    // broker holds exactly the state the last one
                    // leaves. Upstream, a broker handles the frames an
                    // unsubscription releases in one batch and may
                    // forward one subscription more or less than the
                    // frame-at-a-time simulator, so there the phase
                    // ends when the state stops changing.
                    let deadline = Instant::now() + setup_deadline;
                    let frames = plan.iter().enumerate().flat_map(|(k, (victim, fresh))| {
                        replacement(n_subs, k, *victim, &w.churn_pool[*fresh])
                    });
                    let mut missed = false;
                    for (m, want) in frames.zip(&expected.after_replace) {
                        subscriber.send(&m).map_err(io)?;
                        subscriber.flush().map_err(io)?;
                        log(&mut res, m);
                        if !await_edge(&cluster, &want[BROKERS - 1], deadline) {
                            missed = true;
                            break;
                        }
                    }
                    missed = missed || !await_quiet(&cluster, deadline);
                    let n = plan.len() as u64;
                    res.subs_sent += n;
                    if missed {
                        res.deadlines_missed.push("replacements".into());
                        res.subs_failed += n;
                    }
                }
                res.scrapes = cluster.scrape_all().unwrap_or_default();
                res.rss_mb = cluster.peak_rss_mb();
            }
            (next_pool, expected_sent) = (publisher.next_pool, publisher.expected_sent);
            publisher.conn.shutdown();
            subscriber.shutdown();
            let got = receiver
                .join()
                .map_err(|_| "receiver panicked".to_string())?;
            merge_receipts(&mut res.receipts, got.receipts);
            res.latency_us.extend(got.latency_us);
            res.tally.unexpected += got.stray;
            Ok(())
        })?;
        drop(cluster);
    }

    res.docs = shared.docs.into_inner().expect("docs lock");
    let empty = Vec::new();
    for (seq, d) in res.docs.iter().enumerate() {
        let got = res.receipts.get(seq).unwrap_or(&empty);
        let classes = oracles.classes(d);
        let padded: Vec<u32> = (0..classes.len())
            .map(|i| got.get(i).copied().unwrap_or(0))
            .collect();
        res.tally.add(oracle::check(classes, &padded));
    }
    Ok(res)
}

/// Adds one repetition's deliveries per (document, path index) to the
/// run's.
fn merge_receipts(total: &mut Vec<Vec<u32>>, rep: Vec<Vec<u32>>) {
    for (seq, got) in rep.into_iter().enumerate() {
        if seq == total.len() {
            total.push(got);
            continue;
        }
        let t = &mut total[seq];
        if t.len() < got.len() {
            t.resize(got.len(), 0);
        }
        for (a, b) in t.iter_mut().zip(got) {
            *a += b;
        }
    }
}

/// Waits until every expected delivery published so far has arrived,
/// or records a missed drain deadline.
fn drain(shared: &Shared, publisher: &Publisher<'_>, phase: &str, res: &mut RunResult) {
    let deadline = Instant::now() + DRAIN_DEADLINE;
    while shared.expected_seen.load(Ordering::SeqCst) < publisher.expected_sent {
        if Instant::now() >= deadline {
            res.deadlines_missed.push(format!("{phase}: drain"));
            return;
        }
        std::thread::sleep(Duration::from_millis(1));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn routing_differs_only_on_overshoot_or_settled_tables() {
        let want = [BrokerState {
            advertise: 10,
            subscribe: 5,
            unsubscribe: 0,
            srt: 10,
            prt: 4,
        }; BROKERS];
        let with = |f: fn(&mut BrokerState)| {
            let mut s = want[0];
            f(&mut s);
            vec![Some(want[0]), Some(s), None]
        };
        assert!(!routing_differs(&with(|_| {}), &want));
        // Still short of frames: a slow overlay, whatever the tables.
        assert!(!routing_differs(
            &with(|s| {
                s.subscribe = 4;
                s.prt = 3;
            }),
            &want
        ));
        // More frames than the oracle's routing sends.
        assert!(routing_differs(&with(|s| s.subscribe = 6), &want));
        // Every frame handled, yet other tables.
        assert!(routing_differs(&with(|s| s.prt = 5), &want));
        assert!(routing_differs(&with(|s| s.srt = 0), &want));
    }

    #[test]
    fn receipts_add_up_across_repetitions() {
        // The first overlay saw documents 0 and 1; the second knows
        // document 1 only by its path count and delivers document 2.
        let mut total = Vec::new();
        merge_receipts(&mut total, vec![vec![1, 0], vec![1]]);
        merge_receipts(&mut total, vec![vec![0, 0], vec![0, 0, 0], vec![1, 1]]);
        assert_eq!(total, vec![vec![1, 0], vec![1, 0, 0], vec![1, 1]]);
    }

    #[test]
    fn churn_plan_is_a_function_of_the_seed() {
        let w = crate::workload::generate("nitf_match", 1, crate::workload::Scale::Tiny)
            .expect("workload");
        let plan = churn_plan(&w, 3, 10.0);
        assert_eq!(plan.len(), w.replace_after);
        assert_eq!(plan, churn_plan(&w, 3, 10.0));
        assert_ne!(plan, churn_plan(&w, 4, 10.0));
        let victims: std::collections::HashSet<usize> = plan.iter().map(|p| p.0).collect();
        assert_eq!(victims.len(), plan.len(), "a query is replaced once");
        // Replaced after the timed phases: every query stays stable.
        assert_eq!(replaced_after(&w, &plan).len(), plan.len());
        assert_eq!(
            oracles(&w, &plan).steady.expected_in(0),
            oracles(&w, &[]).steady.expected_in(0)
        );
    }
}
