#!/usr/bin/env python3
"""Builds and runs the serving benchmark from the root of a checkout.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

The first form builds the `pops` binary and the benchmark (release, into
$CARGO_TARGET_DIR, default `.bench_build`), prints one provenance line,
then runs the benchmark; its last stdout line is the JSON result. The
second form is the negative self-test: every workload is run with
corrupted replies and must fail its schedule checks.
"""

import argparse
import json
import os
import platform
import re
import signal
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ["hit_binary", "miss_binary", "mixed_json"]
# What the first failed check must say under --corrupt: hit_binary replies
# are all repeats (byte compare), miss_binary ones are all new (simulator).
EXPECTED_FAILURE = {
    "hit_binary": "differs from the checked reply",
    "miss_binary": "slot 0",
    "mixed_json": "CHECK FAILED",
}
RUN_TIMEOUT_S = 170


def target_dir():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return target if os.path.isabs(target) else os.path.join(ROOT, target)


def build():
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir())
    for args in (
        ["-p", "pops-cli"],
        ["--manifest-path", os.path.join("perfbench", "Cargo.toml")],
    ):
        cmd = ["cargo", "build", "--release", "--offline", "--quiet"] + args
        done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr)
        if done.returncode != 0:
            sys.exit(done.returncode or 1)
    release = os.path.join(target_dir(), "release")
    return os.path.join(release, "pops"), os.path.join(release, "perfbench")


def rustc_version():
    try:
        out = subprocess.run(["rustc", "--version"], capture_output=True, text=True)
        return out.stdout.strip()
    except OSError:
        return "unknown"


def run_bench(bench, pops, args, capture=False):
    """Runs the benchmark in its own process group, so a timeout can stop
    it together with the server it spawned."""
    proc = subprocess.Popen(
        [bench, "--pops", pops] + args,
        cwd=ROOT,
        stdout=subprocess.PIPE if capture else None,
        text=True,
        start_new_session=True,
    )
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1, ""
    return proc.returncode, out or ""


def self_test(bench, pops):
    failures = []
    for workload in WORKLOADS:
        args = ["--workload", workload, "--seed", "1", "--seconds", "1", "--trace", "0"]
        code, out = run_bench(bench, pops, args + ["--corrupt"], capture=True)
        lines = out.strip().splitlines()
        result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else {}
        caught = re.search(r"(\d+) failed$", lines[0] if lines else "")
        caught = int(caught.group(1)) if caught else 0
        # Every measured reply was corrupted, so every one must be caught.
        tripped = (
            code != 0
            and result.get("correct") is False
            and caught == result.get("attempted")
            and EXPECTED_FAILURE[workload] in out
        )
        print(f"self-test {workload}: {caught} of {result.get('attempted')} corrupted "
              f"replies caught, exit {code}: {'ok' if tripped else 'NOT DETECTED'}")
        if not tripped:
            failures.append(workload)
    code, out = run_bench(bench, pops, ["--workload", "hit_binary", "--seed", "1",
                                        "--seconds", "1", "--trace", "0"], capture=True)
    clean = code == 0 and json.loads(out.strip().splitlines()[-1]).get("correct") is True
    print(f"self-test control: clean replies -> exit {code}: {'ok' if clean else 'FAILED'}")
    if not clean:
        failures.append("control")
    return 1 if failures else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--self-test", action="store_true")
    opts = parser.parse_args()
    if not opts.self_test and None in (opts.workload, opts.seed, opts.seconds):
        parser.error("--workload, --seed and --seconds are required")

    pops, bench = build()
    if opts.self_test:
        sys.exit(self_test(bench, pops))
    print(f"provenance: {rustc_version()}; nproc {len(os.sched_getaffinity(0))}; "
          f"{platform.machine()}; workload {opts.workload}; seed {opts.seed}; "
          f"seconds {opts.seconds}; trace {opts.trace}", flush=True)
    args = ["--workload", opts.workload, "--seed", str(opts.seed),
            "--seconds", str(opts.seconds), "--trace", str(opts.trace)]
    code, _ = run_bench(bench, pops, args)
    sys.exit(code)


if __name__ == "__main__":
    main()
