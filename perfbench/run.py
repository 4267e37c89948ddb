#!/usr/bin/env python3
"""The repository benchmark: builds ktcli and kt_perfbench from this
checkout, runs one workload, and prints the result.

    python3 perfbench/run.py --workload serve_c1_light --seed 1 \
        --seconds 20 --trace 0
    python3 perfbench/run.py --self-test

Everything is built and written under .bench_build/ (or $CARGO_TARGET_DIR,
relative to the checkout root). The workloads and metrics are described in
perfbench/README.md and listed in BENCHMARK.json; the last line of standard
output is the JSON result with exactly the metrics BENCHMARK.json names for
the run's mode (end_to_end with --trace 0, per_layer with --trace 1).
"""
import argparse
import hashlib
import json
import os
import signal
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN_TIMEOUT_S = 170


def build_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build():
    """Configures (once) and builds ktcli + kt_perfbench; returns their paths."""
    out = build_dir()
    cmake_dir = os.path.join(out, "cmake")
    os.makedirs(out, exist_ok=True)
    log_path = os.path.join(out, "build.log")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(cmake_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B",
                      cmake_dir])
    steps.append(["cmake", "--build", cmake_dir, "--target", "ktcli",
                  "kt_perfbench", "-j", jobs])
    with open(log_path, "w") as log:
        for step in steps:
            if subprocess.run(step, stdout=log, stderr=subprocess.STDOUT,
                              cwd=ROOT).returncode != 0:
                with open(log_path) as f:
                    sys.stderr.write("".join(f.readlines()[-30:]))
                fail(f"build failed (full log: {log_path})")
    return (os.path.join(cmake_dir, "repo", "tools", "ktcli"),
            os.path.join(cmake_dir, "kt_perfbench"))


def source_id():
    """The commit when this is a git checkout, else a hash of the sources."""
    try:
        head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
        if head.returncode == 0 and head.stdout.strip():
            return "git:" + head.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for top in ("CMakeLists.txt", "src", "tools", "perfbench"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for name in files:
            digest.update(os.path.relpath(name, ROOT).encode())
            with open(name, "rb") as f:
                digest.update(f.read())
    return "tree:" + digest.hexdigest()[:16]


def run_group(argv, timeout_s):
    """Runs argv in its own process group; afterwards stops and waits out
    anything left in the group. Returns (exit code, stdout)."""
    proc = subprocess.Popen(argv, cwd=ROOT, stdout=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=timeout_s)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        stdout, _ = proc.communicate()
        print(stdout, end="")
        fail(f"{os.path.basename(argv[0])} ran past {timeout_s}s")
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        deadline = time.time() + 30
        while time.time() < deadline:
            try:
                os.killpg(proc.pid, 0)
            except ProcessLookupError:
                break
            time.sleep(0.05)
    return proc.returncode, stdout


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()

    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no rckt sources next to perfbench/ (src/CMakeLists.txt missing)")
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    workloads = [w["name"] for w in spec["workloads"]]
    if not args.self_test and args.workload not in workloads:
        fail(f"--workload must be one of {', '.join(workloads)}")

    ktcli, generator = build()
    code, out = run_group([generator, "--self-test"], 60)
    print(out, end="")
    if code != 0:
        fail("kt_perfbench self-test failed")
    if args.self_test:
        return

    argv = [generator, "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
            "--ktcli", ktcli, "--work-dir", build_dir(),
            "--commit", source_id()]
    code, out = run_group(argv, RUN_TIMEOUT_S)
    result = None
    for line in out.splitlines():
        if line.startswith("RESULT "):
            result = json.loads(line[len("RESULT "):])
        else:
            print(line)
    if code != 0 or result is None:
        fail(f"kt_perfbench exited with {code}")

    results = os.path.join(build_dir(), "results")
    os.makedirs(results, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(results, name), "w") as f:
        json.dump(result, f, indent=1)
    print(f"environment: {json.dumps(result['environment'])}")

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {}
    for metric in wanted:
        got = result["metrics"].get(metric["name"])
        if got is None:
            fail(f"the run produced no metric {metric['name']}")
        if got["unit"] != metric["unit"]:
            fail(f"{metric['name']} came in {got['unit']}, "
                 f"BENCHMARK.json says {metric['unit']}")
        metrics[metric["name"]] = {"value": got["value"], "unit": got["unit"]}
    print(json.dumps({"correct": result["correct"],
                      "attempted": result["attempted"],
                      "failed": result["failed"],
                      "metrics": metrics}))
    if not result["correct"]:
        sys.exit(1)


if __name__ == "__main__":
    main()
