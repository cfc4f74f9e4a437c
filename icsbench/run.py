#!/usr/bin/env python3
"""End-to-end benchmark for icsched.

Builds the library, the icsched_serve daemon and the benchmark driver from
source in Release (into $CARGO_TARGET_DIR/icsbench, default
.bench_build/icsbench, never touching the repository's own build tree), then
runs one workload and prints its result as the last line of stdout:

    python3 icsbench/run.py --workload sweep_threads --seed 1 --seconds 12 --trace 0
    python3 icsbench/run.py --short          # every workload, small, all checks
    python3 icsbench/run.py --self-test      # the checkers reject corrupted cases

Run it from the root of a checkout. See icsbench/README.md.
"""

import argparse
import hashlib
import os
import shutil
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["sweep_threads", "sweep_shards_faults", "service_mix"]
RUN_TIMEOUT_S = 170


def log(msg):
    print("icsbench: " + msg, file=sys.stderr, flush=True)


def build_root():
    d = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(d):
        d = os.path.join(ROOT, d)
    return os.path.join(d, "icsbench")


def build(bdir):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("no icsched sources next to the benchmark (expected %s)" % os.path.join(ROOT, "src"))
        sys.exit(2)
    jobs = str(min(4, os.cpu_count() or 1))
    if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
        cfg = ["cmake", "-S", HERE, "-B", bdir, "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.call(cfg, stdout=sys.stderr, stderr=sys.stderr) != 0:
            log("cmake configure failed")
            sys.exit(2)
    cmd = ["cmake", "--build", bdir, "-j", jobs, "--target", "icsbench", "icsbench_selftest",
           "icsched_serve"]
    if subprocess.call(cmd, stdout=sys.stderr, stderr=sys.stderr) != 0:
        log("build failed")
        sys.exit(2)


def source_digest():
    h = hashlib.sha256()
    for top in ("src", "tools"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()


def commit():
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=10)
        return out.stdout.strip() if out.returncode == 0 else "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def stop_group(pgid):
    """SIGKILLs whatever is left of the driver's process group (a daemon
    orphaned by a crash) and waits until the group is empty."""
    deadline = time.time() + 30
    while time.time() < deadline:
        try:
            os.killpg(pgid, signal.SIGKILL)
        except ProcessLookupError:
            return
        time.sleep(0.05)


def run_driver(bdir, args):
    """Runs the driver in its own process group; returns (code, stdout)."""
    p = subprocess.Popen([os.path.join(bdir, "icsbench")] + args, cwd=ROOT,
                         stdout=subprocess.PIPE, text=True, start_new_session=True)
    try:
        out, _ = p.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        stop_group(p.pid)
        p.wait()
        log("driver timed out after %d s" % RUN_TIMEOUT_S)
        return 3, ""
    stop_group(p.pid)
    return p.returncode, out


def run_workload(bdir, workload, seed, seconds, trace, short):
    work = os.path.join(bdir, "runs", "%s-%d" % (workload, os.getpid()))
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    results = os.path.join(bdir, "results")
    os.makedirs(results, exist_ok=True)
    result = os.path.join(results, "%s-seed%d-trace%d%s.json" %
                          (workload, seed, trace, "-short" if short else ""))
    args = ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
            "--trace", str(trace), "--work-dir", os.path.relpath(work, ROOT),
            "--serve", os.path.join(bdir, "icsched_tools", "icsched_serve"),
            "--result", result, "--commit", commit(), "--source-digest", source_digest()]
    if short:
        args.append("--short")
    try:
        return run_driver(bdir, args)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def main():
    ap = argparse.ArgumentParser(description="icsched end-to-end benchmark")
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=12)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--short", action="store_true",
                    help="run every workload at small size, traced and untraced")
    ap.add_argument("--self-test", action="store_true",
                    help="show that every checker rejects a corrupted case")
    a = ap.parse_args()
    if not (a.workload or a.short or a.self_test):
        ap.error("one of --workload, --short or --self-test is required")

    bdir = build_root()
    build(bdir)

    if a.self_test or a.short:
        code = subprocess.call([os.path.join(bdir, "icsbench_selftest")], cwd=ROOT)
        if code != 0 or a.self_test:
            return code
    if a.short:
        for w in WORKLOADS:
            for trace in (0, 1):
                code, out = run_workload(bdir, w, a.seed, 1, trace, True)
                sys.stdout.write(out)
                if code != 0:
                    log("%s (trace %d) failed with exit code %d" % (w, trace, code))
                    return code
        return 0

    code, out = run_workload(bdir, a.workload, a.seed, a.seconds, a.trace, False)
    sys.stdout.write(out)
    sys.stdout.flush()
    return code


if __name__ == "__main__":
    sys.exit(main())
