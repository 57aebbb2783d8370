//! The live overlay: three `xdn-node` processes chained on loopback,
//! their process hygiene, and their Prometheus scrape.
//!
//! Each node dials its successor (B0 → B1 → B2), so B0 and B1 run the
//! link supervisors and B1 and B2 echo heartbeats from their broker
//! loops. Nodes run with no routing flags: whatever `xdn-node` does by
//! default is what gets measured.

use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use crate::expected::BROKERS;

/// A running chain. Dropping it kills and reaps every node.
pub struct Cluster {
    children: Vec<Child>,
    addrs: Vec<SocketAddr>,
    pidfile: PathBuf,
}

/// Parsed Prometheus text: series (name plus label set, exactly as
/// exposed) to value.
#[derive(Debug, Clone, Default)]
pub struct Scrape(HashMap<String, f64>);

impl Scrape {
    /// The value of one series, zero when absent.
    pub fn get(&self, series: &str) -> f64 {
        self.0.get(series).copied().unwrap_or(0.0)
    }

    /// Sum over every series of metric `name`, whatever its labels.
    pub fn sum(&self, name: &str) -> f64 {
        self.0
            .iter()
            .filter(|(k, _)| k.as_str() == name || k.starts_with(&format!("{name}{{")))
            .map(|(_, v)| *v)
            // An empty float sum is -0.0; report it as 0.
            .sum::<f64>()
            + 0.0
    }

    /// A `xdn_broker_messages_received_total` counter by kind.
    pub fn received(&self, kind: &str) -> u64 {
        self.get(&format!(
            "xdn_broker_messages_received_total{{kind=\"{kind}\"}}"
        )) as u64
    }

    /// A routing-table size gauge (`srt` or `prt`).
    pub fn table(&self, table: &str) -> u64 {
        self.get(&format!("xdn_routing_table_size{{table=\"{table}\"}}")) as u64
    }
}

/// Parses Prometheus text exposition into a [`Scrape`].
pub fn parse_prometheus(text: &str) -> Scrape {
    let mut map = HashMap::new();
    for line in text.lines() {
        if line.starts_with('#') || line.trim().is_empty() {
            continue;
        }
        if let Some((series, value)) = line.rsplit_once(' ') {
            if let Ok(v) = value.parse::<f64>() {
                map.insert(series.to_string(), v);
            }
        }
    }
    Scrape(map)
}

/// Reserves `n` distinct free loopback ports.
fn free_ports(n: usize) -> std::io::Result<Vec<u16>> {
    let listeners: Vec<TcpListener> = (0..n)
        .map(|_| TcpListener::bind("127.0.0.1:0"))
        .collect::<Result<_, _>>()?;
    listeners
        .iter()
        .map(|l| l.local_addr().map(|a| a.port()))
        .collect()
}

fn pid_alive(pid: u32) -> bool {
    // A zombie still has a /proc entry; only a live, unreaped process
    // that is not a zombie counts as a running node.
    match std::fs::read_to_string(format!("/proc/{pid}/stat")) {
        Ok(stat) => !stat
            .rsplit_once(')')
            .is_some_and(|(_, rest)| rest.trim_start().starts_with('Z')),
        Err(_) => false,
    }
}

/// Refuses to start while a node from an earlier run (recorded in
/// `pidfile`) is still alive. Returns the live pids on refusal.
pub fn check_no_stale_nodes(pidfile: &Path) -> Result<(), Vec<u32>> {
    let Ok(text) = std::fs::read_to_string(pidfile) else {
        return Ok(());
    };
    let live: Vec<u32> = text
        .split_whitespace()
        .filter_map(|s| s.parse().ok())
        .filter(|&pid| {
            pid_alive(pid)
                && std::fs::read_to_string(format!("/proc/{pid}/comm"))
                    .is_ok_and(|c| c.trim() == "xdn-node")
        })
        .collect();
    if live.is_empty() {
        Ok(())
    } else {
        Err(live)
    }
}

impl Cluster {
    /// Starts B2, B1, B0 (in that order) on fresh ports and waits until
    /// every link has completed its initial sync, or fails after
    /// `deadline`.
    pub fn start(bin: &Path, pidfile: &Path, deadline: Duration) -> Result<Cluster, String> {
        let ports = free_ports(BROKERS).map_err(|e| format!("no free ports: {e}"))?;
        let addrs: Vec<SocketAddr> = ports
            .iter()
            .map(|p| SocketAddr::from(([127, 0, 0, 1], *p)))
            .collect();
        let mut cluster = Cluster {
            children: Vec::new(),
            addrs: addrs.clone(),
            pidfile: pidfile.to_path_buf(),
        };
        for id in (0..BROKERS).rev() {
            let mut cmd = Command::new(bin);
            cmd.arg("--id")
                .arg(id.to_string())
                .arg("--listen")
                .arg(addrs[id].to_string());
            if id + 1 < BROKERS {
                cmd.arg("--peer")
                    .arg(format!("{}={}", id + 1, addrs[id + 1]));
            }
            let child = cmd
                .stdin(Stdio::null())
                .stdout(Stdio::null())
                .stderr(Stdio::null())
                .spawn()
                .map_err(|e| format!("cannot start {}: {e}", bin.display()))?;
            cluster.children.push(child);
            cluster.write_pidfile();
        }
        // `children` is in spawn order B2, B1, B0; keep it by broker id.
        cluster.children.reverse();
        cluster.write_pidfile();
        let ready = Instant::now() + deadline;
        loop {
            // A fresh broker⇄broker connection makes each side send one
            // SyncRequest, so a node has synced once it has received one
            // SyncState per link.
            let synced = (0..BROKERS).all(|i| {
                let links_here = if i == 0 || i == BROKERS - 1 { 1 } else { 2 };
                cluster
                    .scrape(i)
                    .is_some_and(|s| s.received("sync_state") >= links_here)
            });
            if synced {
                return Ok(cluster);
            }
            if let Some(dead) = cluster.exited() {
                return Err(format!("xdn-node B{dead} exited during start-up"));
            }
            if Instant::now() >= ready {
                return Err("overlay links did not sync before the start-up deadline".into());
            }
            std::thread::sleep(Duration::from_millis(10));
        }
    }

    fn write_pidfile(&self) {
        let pids: Vec<String> = self.children.iter().map(|c| c.id().to_string()).collect();
        let _ = std::fs::write(&self.pidfile, pids.join("\n"));
    }

    /// The broker id of a node that has exited, if any.
    pub fn exited(&mut self) -> Option<usize> {
        self.children
            .iter_mut()
            .position(|c| !matches!(c.try_wait(), Ok(None)))
    }

    /// Broker `i`'s listen address.
    pub fn addr(&self, i: usize) -> SocketAddr {
        self.addrs[i]
    }

    /// One scrape of broker `i` over one short connection, or `None`
    /// if the node does not answer within two seconds.
    pub fn scrape(&self, i: usize) -> Option<Scrape> {
        let timeout = Duration::from_secs(2);
        let mut s = TcpStream::connect_timeout(&self.addrs[i], timeout).ok()?;
        s.set_read_timeout(Some(timeout)).ok()?;
        s.set_write_timeout(Some(timeout)).ok()?;
        s.write_all(b"GET /metrics HTTP/1.0\r\n\r\n").ok()?;
        let mut body = String::new();
        s.read_to_string(&mut body).ok()?;
        let (_, text) = body.split_once("\r\n\r\n")?;
        if text.is_empty() {
            return None;
        }
        Some(parse_prometheus(text))
    }

    /// Scrapes every broker in turn (one connection at a time).
    pub fn scrape_all(&self) -> Option<Vec<Scrape>> {
        (0..BROKERS).map(|i| self.scrape(i)).collect()
    }

    /// Sum of the nodes' peak resident set sizes (`VmHWM`), in MiB.
    pub fn peak_rss_mb(&self) -> f64 {
        self.children
            .iter()
            .filter_map(|c| std::fs::read_to_string(format!("/proc/{}/status", c.id())).ok())
            .filter_map(|status| {
                status
                    .lines()
                    .find(|l| l.starts_with("VmHWM:"))
                    .and_then(|l| l.split_whitespace().nth(1))
                    .and_then(|kb| kb.parse::<f64>().ok())
            })
            .sum::<f64>()
            / 1024.0
    }
}

impl Drop for Cluster {
    fn drop(&mut self) {
        for c in &mut self.children {
            let _ = c.kill();
        }
        for c in &mut self.children {
            let _ = c.wait();
        }
        let _ = std::fs::remove_file(&self.pidfile);
    }
}
