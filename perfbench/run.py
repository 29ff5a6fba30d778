#!/usr/bin/env python3
"""Builds and runs the repository benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload cnn-spd --seed 1 --seconds 10 --trace 0

Run it from the repository root.  It configures and builds perfbench/ (which
pulls in the library sources of the parent directory) under
$CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench, runs the
helpers' self-test, then one measurement.  The last line of its standard
output is the JSON summary.  Build output goes to standard error.
"""

import argparse
import json
import os
import signal
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ["cnn-spd", "cnn-dkfac", "mlp-spd-shm", "daemon-scrape"]
DEFAULT_SEED = 1
RUN_TIMEOUT_S = 170


def fail(message, code=2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def build():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = Path(target) / "perfbench"
    if not (build_dir / "CMakeCache.txt").exists():
        configure = ["cmake", "-S", str(HERE), "-B", str(build_dir),
                     "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            fail("configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    compile_cmd = ["cmake", "--build", str(build_dir), "-j", jobs]
    if subprocess.run(compile_cmd, stdout=sys.stderr).returncode != 0:
        fail("build failed")
    return build_dir


def reference_line(workload, digest, isa):
    refs = json.loads((HERE / "reference_digests.json").read_text())
    want = refs.get(isa, {}).get(workload)
    if want is None:
        return f"reference digest: none recorded for {workload} on {isa}"
    verdict = "match" if digest == want else f"differs (recorded {want})"
    return f"reference digest ({isa}, seed {DEFAULT_SEED}): {verdict}"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    build_dir = build()
    if subprocess.run([str(build_dir / "perfbench_selftest")],
                      stdout=sys.stderr).returncode != 0:
        fail("helper self-test failed")

    work_dir = build_dir / "work"
    work_dir.mkdir(parents=True, exist_ok=True)
    command = [str(build_dir / "perfbench"), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace),
               "--work-dir", os.path.relpath(work_dir)]
    # A session of its own, so a timeout also stops the rank processes the
    # shared-memory workload forks.
    proc = subprocess.Popen(command, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    lines = stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.stdout.write(stdout)
        fail(f"benchmark exited with code {proc.returncode}")
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("malformed summary line")

    print("\n".join(lines[:-1]))
    # "digest <hex> isa <level>"
    words = next((l.split() for l in lines if l.startswith("digest ")), None)
    if args.seed == DEFAULT_SEED and words is not None:
        print(reference_line(args.workload, words[1], words[3]))
    print(lines[-1])


if __name__ == "__main__":
    main()
