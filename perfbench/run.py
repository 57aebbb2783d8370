#!/usr/bin/env python3
"""Entry point of the end-to-end benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. Builds the unmodified `xdn-node` binary
and the `perfbench` load generator (release, offline) into
$CARGO_TARGET_DIR (default `.bench_build`), then runs one measurement:
three `xdn-node` processes chained on loopback, one publisher, one
subscriber. The last line of standard output is the JSON result.

The generator runs in its own process group. Whatever happens to this
script -- deadline, Ctrl-C, SIGTERM, a crash -- the whole group is
killed and every node recorded in `.bench_out/nodes.pid` is reaped
before it exits.
"""

import argparse
import os
import signal
import subprocess
import sys
import time

# One measurement must end well within the 180 s a run may take.
DEADLINE_S = 170


def fail(msg, code=1):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def build(root, env):
    steps = [
        ["cargo", "build", "--release", "--offline", "--quiet",
         "-p", "xdn-net", "--bin", "xdn-node"],
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join("perfbench", "Cargo.toml")],
    ]
    for cmd in steps:
        if subprocess.run(cmd, cwd=root, env=env, stdout=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(cmd))


def pid_alive(pid):
    try:
        with open(f"/proc/{pid}/stat") as f:
            return f.read().rsplit(")", 1)[1].split()[0] != "Z"
    except (OSError, IndexError):
        return False


def reap_nodes(pidfile):
    """SIGKILLs every recorded node and waits until each is gone."""
    try:
        with open(pidfile) as f:
            pids = [int(p) for p in f.read().split()]
    except (OSError, ValueError):
        return
    for pid in pids:
        try:
            os.kill(pid, signal.SIGKILL)
        except OSError:
            pass
    end = time.monotonic() + 10
    while any(pid_alive(p) for p in pids) and time.monotonic() < end:
        time.sleep(0.05)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", choices=["0", "1"], default="0")
    args = ap.parse_args()

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    for needed in ["Cargo.toml", "crates"]:
        if not os.path.exists(os.path.join(root, needed)):
            fail(f"{needed} not found next to perfbench/: run from a full checkout", 2)
    target = os.path.join(root, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build(root, env)

    out = os.path.join(root, ".bench_out")
    os.makedirs(out, exist_ok=True)
    pidfile = os.path.join(out, "nodes.pid")
    cmd = [
        os.path.join(target, "release", "perfbench"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", args.trace,
        "--node", os.path.join(target, "release", "xdn-node"),
        "--out", out,
    ]

    def on_signal(signum, _frame):
        raise KeyboardInterrupt(f"signal {signum}")

    signal.signal(signal.SIGTERM, on_signal)
    proc = subprocess.Popen(cmd, cwd=root, start_new_session=True)
    code = 1
    try:
        code = proc.wait(timeout=DEADLINE_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: no result within {DEADLINE_S} s", file=sys.stderr)
    except KeyboardInterrupt:
        print("perfbench: interrupted", file=sys.stderr)
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except OSError:
            pass
        proc.wait()
        reap_nodes(pidfile)
    sys.exit(code if code >= 0 else 1)


if __name__ == "__main__":
    main()
