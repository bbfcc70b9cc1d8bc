#!/usr/bin/env python3
"""The repository benchmark: one command per workload run.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. Builds the measuring program
(`perfbench/`, release) and the `lift-harness` binary into
`$CARGO_TARGET_DIR` (default `.bench_build`), runs the workload, and prints
every metric by name and unit. The last line of standard output is one
JSON object: `correct`, `attempted`, `failed` and `metrics` (the
end-to-end metrics of BENCHMARK.json, or with `--trace 1` its per-layer
metrics, with the units BENCHMARK.json gives them). Scratch files
(campaign checkpoints, the Chrome trace of a traced run, determinism
records keyed by the binaries under test) go to `.perfbench_work/`.

`--smoke` shrinks the grids for the benchmark's own tests
(`python3 perfbench/test_smoke.py`).

Exit codes: 0 when every output was correct, 1 on a wrong output, a
nondeterministic result, a failed build or a timeout, 2 on usage errors.
"""

import argparse
import json
import os
import signal
import subprocess
import sys
import threading
import time

WORKLOADS = ("fig7-tune", "fig8-campaign")
# A run must finish within 180 s, its first run in a checkout (which
# builds) within 900 s.
RUN_LIMIT_S = 170.0


def log(msg):
    print(f"run.py: {msg}", file=sys.stderr, flush=True)


def build(root, target_dir):
    """Builds the measuring program and the harness binary; returns the
    path of each, or None when a build fails."""
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir)
    for manifest, extra in (
        (os.path.join(root, "perfbench", "Cargo.toml"), []),
        (os.path.join(root, "Cargo.toml"), ["-p", "lift-harness", "--bin", "lift-harness"]),
    ):
        if not os.path.isfile(manifest):
            log(f"missing {manifest}; run from a full checkout of the repository")
            return None
        cmd = ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest] + extra
        if subprocess.run(cmd, env=env, stdout=sys.stderr).returncode != 0:
            log("build failed: " + " ".join(cmd))
            return None
    release = os.path.join(target_dir, "release")
    return os.path.join(release, "perfbench"), os.path.join(release, "lift-harness")


def steal_ticks():
    """Host steal time so far, in clock ticks (0 where /proc/stat is
    missing)."""
    try:
        with open("/proc/stat", encoding="ascii") as f:
            fields = f.readline().split()
        return int(fields[8])
    except (OSError, IndexError, ValueError):
        return 0


def run_measured(cmd, env, out_path, deadline):
    """Runs `cmd` with stdout to `out_path`; returns (exit code, peak RSS
    in MiB of the process and every descendant it waited for), or None on
    timeout."""
    with open(out_path, "wb") as out:
        # A session of its own, so a timeout can stop the whole tree.
        proc = subprocess.Popen(cmd, env=env, stdout=out, stdin=subprocess.DEVNULL, start_new_session=True)
    timed_out = threading.Event()

    def watchdog():
        remaining = deadline - time.monotonic()
        if remaining > 0:
            time.sleep(remaining)
        if proc.returncode is None:
            timed_out.set()
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass

    threading.Thread(target=watchdog, daemon=True).start()
    # wait4 reports the child's own peak and, through it, those of the
    # descendants it reaped (the campaign's workers), and nothing of the
    # build that ran before.
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    if timed_out.is_set():
        return None
    return proc.returncode, usage.ru_maxrss / 1024.0


def with_units(values, specs, trace):
    """The result's metrics, `{name: {"value", "unit"}}`, in the order and
    with the units of BENCHMARK.json; None (after a message) when the
    program produced a metric BENCHMARK.json does not name, or missed an
    end-to-end one. A per-layer metric the workload does not exercise
    reads 0."""
    names = {m["name"] for m in specs}
    unknown = sorted(set(values) - names)
    if unknown:
        log(f"metrics not in BENCHMARK.json: {', '.join(unknown)}")
        return None
    missing = sorted(names - set(values))
    if missing and not trace:
        log(f"end-to-end metrics not produced: {', '.join(missing)}")
        return None
    return {m["name"]: {"value": values.get(m["name"], 0), "unit": m["unit"]} for m in specs}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, choices=("0", "1"))
    ap.add_argument("--smoke", action="store_true", help="tiny grids, for the smoke test")
    args = ap.parse_args()
    if args.seconds <= 0:
        ap.error("--seconds must be positive")

    started = time.monotonic()
    root = os.getcwd()
    target_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    work_dir = os.path.join(root, ".perfbench_work")
    os.makedirs(work_dir, exist_ok=True)
    binaries = build(root, target_dir)
    if binaries is None:
        return 1
    perfbench, harness = binaries

    # Settings reach the program only through the benchmark's arguments;
    # temporary files stay inside the checkout.
    env = {k: v for k, v in os.environ.items() if not k.startswith("LIFT_")}
    env["TMPDIR"] = work_dir
    cmd = [
        perfbench,
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", repr(args.seconds),
        "--trace", args.trace,
        "--work-dir", work_dir,
        "--harness", harness,
    ] + (["--smoke"] if args.smoke else [])
    out_path = os.path.join(work_dir, f"stdout-{args.workload}.txt")
    load = os.getloadavg()[0]
    steal0, t0 = steal_ticks(), time.monotonic()
    # The build has had its own allowance; the run gets the usual one.
    result = run_measured(cmd, env, out_path, time.monotonic() + RUN_LIMIT_S)
    steal_s = (steal_ticks() - steal0) / os.sysconf("SC_CLK_TCK")
    run_s = time.monotonic() - t0
    if result is None:
        log(f"{args.workload} did not finish within {RUN_LIMIT_S:.0f} s")
        return 1
    code, peak_rss_mb = result
    with open(out_path, encoding="utf-8") as f:
        lines = f.read().splitlines()
    if not lines:
        log(f"{args.workload} printed nothing (exit {code})")
        return 1
    try:
        doc = json.loads(lines[-1])
    except json.JSONDecodeError:
        log(f"{args.workload} did not end with a result line (exit {code})")
        return 1
    for line in lines[:-1]:
        print(line)
    print(f"  conditions: nproc={os.cpu_count()}, load average {load:.2f} at start, "
          f"host steal {steal_s:.1f} s of {run_s:.1f} s")
    own_peak = doc.pop("own_peak_rss_mb", 0)
    values = doc["metrics"]
    if args.trace == "0":
        values["peak_rss_mb"] = peak_rss_mb
        setter = "the benchmark process" if own_peak >= peak_rss_mb else "a process it started"
        print(f"  peak_rss_mb: largest process doing the work is {setter} "
              f"(tree {peak_rss_mb:.1f} MiB, benchmark process {own_peak:.1f} MiB)")
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as f:
        specs = json.load(f)["per_layer" if args.trace == "1" else "end_to_end"]
    doc["metrics"] = with_units(values, specs, args.trace == "1")
    if doc["metrics"] is None:
        return 1
    print("  metrics:")
    for name, m in doc["metrics"].items():
        print(f"    {name:28} {m['value']:>14.4f} {m['unit']}")
    log(f"{args.workload}: {time.monotonic() - started:.1f} s including the build")
    print(json.dumps(doc), flush=True)
    return 0 if code == 0 and doc.get("correct") is True else 1


if __name__ == "__main__":
    sys.exit(main())
