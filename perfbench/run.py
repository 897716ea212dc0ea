#!/usr/bin/env python3
"""Build and run the G-HBA end-to-end benchmark.

    python3 perfbench/run.py --workload stat_hot --seed 1 --seconds 10 --trace 0

Run from the repository root. The first call configures and builds
perfbench/ (which compiles the repository's src/) into .bench_build/perfbench;
later calls rebuild only what changed. The benchmark binary then runs under
a wall-time cap with its data directories under .bench_build/perfbench-data.
Its report goes to stdout, and the last line is the JSON result
{"correct", "attempted", "failed", "metrics"}.

Exit status: the benchmark's own (0 = every check passed), 2 when the
sources are missing or the build fails, 3 when the wall-time cap fired.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
WORK_DIR = os.path.join(ROOT, ".bench_build", "perfbench-data")
TMP_DIR = os.path.join(ROOT, ".bench_build", "tmp")
BINARY = os.path.join(BUILD_DIR, "ghba_perfbench")
BUILD_TYPE = "Release"

# A run must end within 180 s. The binary caps itself first and names the
# stalled operation; this is the backstop if it cannot.
BINARY_CAP_SECONDS = 160
KILL_AFTER_SECONDS = 170


def fail(message, code=2):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(code)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("the G-HBA sources (src/) are missing; nothing to build")
    for tool in ("cmake", "c++"):
        if shutil.which(tool) is None:
            fail("%s not found on PATH" % tool)
    os.makedirs(TMP_DIR, exist_ok=True)
    env = dict(os.environ, TMPDIR=TMP_DIR)
    log_path = os.path.join(ROOT, ".bench_build", "perfbench-build.log")
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=" + BUILD_TYPE])
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "ghba_perfbench",
                  "-j", jobs])
    with open(log_path, "w") as log:
        for cmd in steps:
            result = subprocess.run(cmd, cwd=ROOT, env=env, stdout=log,
                                    stderr=subprocess.STDOUT)
            if result.returncode != 0:
                log.flush()
                with open(log_path) as f:
                    sys.stderr.write("".join(f.readlines()[-40:]))
                fail("build failed (%s); see %s" % (" ".join(cmd[:2]),
                                                      log_path))


def source_version():
    """The commit when the checkout is a git repository, else a digest of
    the sources the benchmark compiles."""
    if os.path.isdir(os.path.join(ROOT, ".git")) and shutil.which("git"):
        result = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                                stdout=subprocess.PIPE,
                                stderr=subprocess.DEVNULL, text=True)
        if result.returncode == 0:
            return result.stdout.strip()
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "tree-" + digest.hexdigest()[:16]


def remove_run_dirs(pid):
    prefix = "run-%d-" % pid
    if not os.path.isdir(WORK_DIR):
        return
    for name in os.listdir(WORK_DIR):
        if name.startswith(prefix):
            shutil.rmtree(os.path.join(WORK_DIR, name), ignore_errors=True)


def run(args):
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", WORK_DIR, "--git-sha", source_version(),
           "--cap-seconds", str(BINARY_CAP_SECONDS)]
    if args.quick:
        cmd.append("--quick")
    os.makedirs(WORK_DIR, exist_ok=True)
    child = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                             start_new_session=True, text=True)
    try:
        out, _ = child.communicate(timeout=KILL_AFTER_SECONDS)
    except subprocess.TimeoutExpired:
        os.killpg(child.pid, signal.SIGKILL)
        child.wait()
        remove_run_dirs(child.pid)
        fail("benchmark killed after %ds without finishing" %
             KILL_AFTER_SECONDS, 3)
    except BaseException:
        os.killpg(child.pid, signal.SIGKILL)
        child.wait()
        remove_run_dirs(child.pid)
        raise
    remove_run_dirs(child.pid)

    lines = out.rstrip("\n").split("\n") if out.strip() else []
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            result = None
    if child.returncode != 0:
        sys.stdout.write(out)
        sys.stdout.flush()
        fail("benchmark exited with status %d" % child.returncode,
             child.returncode if child.returncode > 0 else 1)
    if not isinstance(result, dict) or set(result) != {
            "correct", "attempted", "failed", "metrics"}:
        sys.stdout.write(out)
        fail("benchmark printed no result line", 1)
    sys.stdout.write(out)
    sys.stdout.flush()
    return 0 if result["correct"] else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["stat_hot", "stat_cold", "namespace_churn"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--quick", action="store_true",
                        help="small namespace and one set-up (self-check)")
    args = parser.parse_args()
    build()
    sys.exit(run(args))


if __name__ == "__main__":
    main()
