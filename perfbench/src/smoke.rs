//! Tiny-scale smoke runs of every workload against real `xdn-node`
//! processes, plus the traced replay's agreement with the live run.

use std::path::PathBuf;
use std::process::Command;

use xdn_broker::MessageKind;

use crate::expected;
use crate::replay;
use crate::run;
use crate::workload::{self, Scale, NAMES};

/// Builds `xdn-node` into the target directory this test binary lives
/// in and returns its path.
fn node_binary() -> PathBuf {
    let exe = std::env::current_exe().expect("test binary path");
    // <target>/<profile>/deps/<test binary>
    let target = exe
        .ancestors()
        .nth(3)
        .expect("test binary sits in <target>/<profile>/deps")
        .to_path_buf();
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("..");
    let status = Command::new(env!("CARGO"))
        .args(["build", "--release", "--offline", "--quiet"])
        .args(["-p", "xdn-net", "--bin", "xdn-node"])
        .env("CARGO_TARGET_DIR", &target)
        .current_dir(&root)
        .status()
        .expect("cargo runs");
    assert!(status.success(), "building xdn-node failed");
    target.join("release").join("xdn-node")
}

#[test]
fn every_workload_runs_clean_at_tiny_scale() {
    let node = node_binary();
    let out = node.parent().expect("binary dir").join("perfbench-smoke");
    std::fs::create_dir_all(&out).expect("smoke dir");
    for name in NAMES {
        let w = workload::generate(name, 7, Scale::Tiny).expect("known workload");
        let plan = run::churn_plan(&w, 7, 1.0);
        let replaced = run::replaced_after(&w, &plan);
        let exp = expected::compute(&w.advs, &w.subs, w.install_window(), &replaced);
        let oracles = run::oracles(&w, &plan);
        let pidfile = out.join(format!("{name}.pid"));
        let r = run::run(&w, &exp, &oracles, &plan, &node, &pidfile, 1, 2.0)
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_eq!(
            r.failed(),
            0,
            "{name}: {:?} {:?}",
            r.tally,
            r.deadlines_missed
        );
        assert!(r.tally.expected > 0, "{name}: nothing to deliver");
        assert!(!r.latency_us.is_empty(), "{name}: no latency samples");
        assert!(
            r.sat_pps.iter().all(|x| *x > 0.0),
            "{name}: {:?}",
            r.sat_pps
        );
        assert!(r.rss_mb > 0.0, "{name}: no RSS read");
        assert!(!pidfile.exists(), "{name}: nodes not reaped");

        // The traced replay delivers exactly what the live run did.
        let rep = replay::replay(&w, &r);
        let (compared, differ) = replay::differences(&oracles, &r, &rep);
        assert!(compared > 0, "{name}: nothing compared");
        assert_eq!(differ, 0, "{name}: replay and live run disagree");
        assert!(!rep.spans.is_empty(), "{name}: no spans");
        if !plan.is_empty() {
            let unsubs = rep
                .spans
                .iter()
                .filter(|s| s.name == "broker.handle" && s.kind == MessageKind::Unsubscribe)
                .count();
            assert!(unsubs >= plan.len(), "{name}: {unsubs} unsubscribes timed");
        }
    }
}

/// With several repetitions every overlay publishes its share of the
/// timed phases, and the deliveries of all of them are checked.
#[test]
fn timed_phases_spread_over_every_repetition() {
    let node = node_binary();
    let out = node.parent().expect("binary dir").join("perfbench-smoke");
    std::fs::create_dir_all(&out).expect("smoke dir");
    let w = workload::generate("psd_stream", 7, Scale::Tiny).expect("known workload");
    let exp = expected::compute(&w.advs, &w.subs, w.install_window(), &[]);
    let oracles = run::oracles(&w, &[]);
    let pidfile = out.join("reps.pid");
    let r = run::run(&w, &exp, &oracles, &[], &node, &pidfile, 3, 3.0).expect("run");
    assert_eq!(r.failed(), 0, "{:?} {:?}", r.tally, r.deadlines_missed);
    assert_eq!(r.setup_s.len(), 3);
    assert_eq!(r.latency_spans.len(), 3);
    assert_eq!(r.sat_pps.len(), 3 * run::WINDOWS);
    // Every overlay delivered latency samples inside its own span.
    for (start, len) in &r.latency_spans {
        assert!(
            r.latency_us
                .iter()
                .any(|(t, _)| (*start..start + len).contains(t)),
            "no samples in span at {start}"
        );
    }
    // The pool carries on where the previous overlay stopped.
    assert!(r
        .docs
        .iter()
        .enumerate()
        .all(|(i, d)| d.pool == i % w.pool.len()));
    assert!(!pidfile.exists(), "nodes not reaped");
}

#[test]
fn refuses_to_start_beside_a_live_node() {
    let node = node_binary();
    let out = node.parent().expect("binary dir").join("perfbench-smoke");
    std::fs::create_dir_all(&out).expect("smoke dir");
    let pidfile = out.join("stale.pid");
    let mut stale = Command::new(&node)
        .args(["--id", "0", "--listen", "127.0.0.1:0"])
        .stdout(std::process::Stdio::null())
        .spawn()
        .expect("node starts");
    std::fs::write(&pidfile, stale.id().to_string()).expect("pidfile");
    let refused = crate::cluster::check_no_stale_nodes(&pidfile);
    stale.kill().expect("kill");
    stale.wait().expect("reap");
    assert_eq!(refused, Err(vec![stale.id()]));
    assert_eq!(crate::cluster::check_no_stale_nodes(&pidfile), Ok(()));
}
