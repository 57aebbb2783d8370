//! `perfbench` — the repository's end-to-end benchmark.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> \
//!           --node <path/to/xdn-node> --out <dir>
//! ```
//!
//! Starts three `xdn-node` processes chained on loopback, drives them
//! from one publisher (at B0) and one subscriber (at B2), checks every
//! delivery against an oracle, and prints the metrics as one JSON
//! object on the last line of standard output. With `--trace 1` it
//! also replays the run in-process through the layers' public
//! functions, writes the spans to `<out>/spans-<workload>-<seed>.jsonl`
//! and prints per-layer metrics instead of end-to-end ones.
//! `perfbench/run.py` builds everything and is the intended entry point.

mod client;
mod cluster;
mod expected;
mod layers;
mod oracle;
mod replay;
mod run;
mod stats;
mod workload;

#[cfg(test)]
mod smoke;

use std::path::PathBuf;
use std::process::ExitCode;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    node: PathBuf,
    out: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let mut a = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        node: PathBuf::new(),
        out: PathBuf::from(".bench_out"),
    };
    while let Some(flag) = it.next() {
        let mut val = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => a.workload = val()?,
            "--seed" => a.seed = val()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => a.seconds = val()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => a.trace = val()? == "1",
            "--node" => a.node = PathBuf::from(val()?),
            "--out" => a.out = PathBuf::from(val()?),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if a.node.as_os_str().is_empty() {
        return Err("--node <xdn-node binary> is required".into());
    }
    if a.seconds.is_nan() || a.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(a)
}

/// The end-to-end metrics of a `--trace 0` run, in output order.
/// `ok_ratio` is `1 - failed_ratio`, which is zero on a healthy run and
/// so cannot be gated as a share of its median. The p99 latency is
/// printed but not gated: on a shared 2-vCPU host it lands inside
/// host-scheduling stalls and moved by more than 2x between identical
/// runs.
const E2E: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("pub_p50_us", "us"),
    ("sat_pps", "1/s"),
    ("ok_ratio", "ratio"),
    ("rss_mb", "MiB"),
];

fn metric(name: &str, value: f64, unit: &str) -> String {
    format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let Some(w) = workload::generate(&args.workload, args.seed, workload::Scale::Full) else {
        eprintln!(
            "perfbench: unknown workload {:?}; choose one of {:?}",
            args.workload,
            workload::NAMES
        );
        return ExitCode::from(2);
    };
    let _ = std::fs::create_dir_all(&args.out);
    let pidfile = args.out.join("nodes.pid");
    if let Err(live) = cluster::check_no_stale_nodes(&pidfile) {
        eprintln!("perfbench: xdn-node processes from an earlier run are still alive: {live:?}");
        return ExitCode::from(3);
    }
    match bench(&args, &w, &pidfile) {
        Ok(correct) => {
            if correct {
                ExitCode::SUCCESS
            } else {
                ExitCode::from(1)
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(4)
        }
    }
}

fn bench(args: &Args, w: &workload::Workload, pidfile: &std::path::Path) -> Result<bool, String> {
    let plan = run::churn_plan(w, args.seed, args.seconds / 2.0);
    let expected = expected::compute(
        &w.advs,
        &w.subs,
        w.install_window(),
        &run::replaced_after(w, &plan),
    );
    let oracles = run::oracles(w, &plan);
    let reps = if args.trace { 1 } else { w.setup_reps };
    let r = run::run(
        w,
        &expected,
        &oracles,
        &plan,
        &args.node,
        pidfile,
        reps,
        args.seconds,
    )?;

    let parts = stats::windows(&r.latency_us, &r.latency_spans, run::WINDOWS);
    // A window whose paths were all lost has no latency to report.
    let p50s: Vec<f64> = parts
        .iter()
        .filter(|w| !w.is_empty())
        .map(|w| stats::quantile(w, 0.5))
        .collect();
    let p50 = stats::better_quartile(&p50s, stats::Better::Lower);
    let tails: Vec<(f64, f64)> = parts
        .iter()
        .filter_map(|w| stats::tail_percentile(w, 0.99))
        .collect();
    let tail_q = tails.iter().map(|t| t.0).fold(1.0, f64::min);
    let p99 = stats::better_quartile(
        &tails.iter().map(|t| t.1).collect::<Vec<_>>(),
        stats::Better::Lower,
    );
    let sat_pps = stats::better_quartile(&r.sat_pps, stats::Better::Higher);
    let mut late = r.late_us.clone();
    late.sort_by(f64::total_cmp);
    let late_p99 = stats::tail_percentile(&late, 0.99).map_or(0.0, |t| t.1);
    let failed_ratio = r.failed() as f64 / r.attempted().max(1) as f64;
    let setup = stats::setup_time(&r.setup_s, &r.setup_parts);
    let correct = r.failed() == 0;

    println!(
        "workload {} seed {}: {} advs, {} subs, {} docs published, churn ops {}",
        w.name,
        args.seed,
        w.advs.len(),
        w.subs.len(),
        r.docs.len(),
        r.control.len().saturating_sub(w.subs.len()),
    );
    let round = |v: &[f64]| {
        v.iter()
            .map(|x| (x * 1e3).round() / 1e3)
            .collect::<Vec<_>>()
    };
    println!(
        "setup_s {setup:.4} s (sum over set-up phases of their better quartile; totals {:?}, phases {:?})",
        round(&r.setup_s),
        r.setup_parts.iter().map(|p| round(p)).collect::<Vec<_>>()
    );
    println!(
        "pub_p50_us {p50:.1} us, pub_p99_us {p99:.1} us (better quartile over {} sub-windows of p50 {:?} and p{:.2}; {} delivered paths at {} paths/s offered, generator late p99 {late_p99:.1} us)",
        parts.len(),
        p50s.iter().map(|x| x.round()).collect::<Vec<_>>(),
        tail_q * 100.0,
        r.latency_us.len(),
        w.rate_pps
    );
    println!(
        "sat_pps {sat_pps:.1} paths/s (better quartile of {:?}, window {} paths)",
        r.sat_pps.iter().map(|x| x.round()).collect::<Vec<_>>(),
        w.window
    );
    println!(
        "failed_ratio {failed_ratio:.6} ({} failed of {} attempted: {:?}, subs not in effect {}, deadlines missed {:?})",
        r.failed(),
        r.attempted(),
        r.tally,
        r.subs_failed,
        r.deadlines_missed
    );
    println!(
        "unadvertised paths {} published, {} delivered (matched by an installed query but outside every advertisement; not counted as failures)",
        r.tally.unadvertised, r.tally.unadvertised_delivered
    );
    println!("rss_mb {:.2} MiB (sum of peak RSS)", r.rss_mb);

    if !args.trace {
        // pub_p99_us is printed above but not gated: see E2E.
        let values = [setup, p50, sat_pps, 1.0 - failed_ratio, r.rss_mb];
        let metrics: Vec<String> = E2E
            .iter()
            .zip(values)
            .map(|((name, unit), v)| metric(name, v, unit))
            .collect();
        print_result(correct, r.attempted(), r.failed(), &metrics);
        return Ok(correct);
    }

    // Traced replay: same inputs, in-process, spans around each layer.
    let rep = replay::replay(w, &r);
    let (compared, mismatched) = replay::differences(&oracles, &r, &rep);
    let spans_path = args
        .out
        .join(format!("spans-{}-{}.jsonl", w.name, args.seed));
    replay::write_spans(&spans_path, &rep.spans).map_err(|e| format!("writing spans: {e}"))?;
    println!(
        "replay: {} spans written to {}; {} paths published; {mismatched} deliveries differ from the live run",
        rep.spans.len(),
        spans_path.display(),
        rep.paths_published
    );
    let per_layer = layers::metrics(w, &r, &rep, p50, late_p99);
    for l in &per_layer {
        println!("{} {:.3} {}", l.name, l.value, l.unit);
    }
    let metrics: Vec<String> = per_layer
        .iter()
        .map(|l| metric(&l.name, l.value, l.unit))
        .collect();
    let correct = correct && mismatched == 0;
    print_result(
        correct,
        r.attempted() + compared,
        r.failed() + mismatched,
        &metrics,
    );
    Ok(correct)
}

fn print_result(correct: bool, attempted: u64, failed: u64, metrics: &[String]) {
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        attempted.max(1),
        metrics.join(", ")
    );
}

#[cfg(test)]
mod tests {
    /// Every metric the program emits is declared in `BENCHMARK.json`
    /// with the same unit.
    #[test]
    fn emitted_metrics_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let spec = std::fs::read_to_string(path).expect("BENCHMARK.json");
        let declared = |name: &str, unit: &str| {
            spec.contains(&format!("\"name\": \"{name}\", \"unit\": \"{unit}\""))
        };
        for (name, unit) in super::E2E {
            assert!(declared(name, unit), "{name} [{unit}]");
        }
        let w = crate::workload::generate("psd_stream", 1, crate::workload::Scale::Tiny)
            .expect("workload");
        let r = crate::run::RunResult::default();
        let rep = crate::replay::Replay {
            spans: Vec::new(),
            receipts: Vec::new(),
            paths_published: 0,
        };
        let layers = crate::layers::metrics(&w, &r, &rep, 0.0, 0.0);
        assert_eq!(
            layers.len(),
            spec.matches("\"better\"").count() - super::E2E.len()
        );
        for l in &layers {
            assert!(declared(&l.name, l.unit), "{} [{}]", l.name, l.unit);
        }
    }
}
