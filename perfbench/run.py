"""Benchmark of the pseudosurv CLI: one workload, one seed, one run.

    python3 perfbench/run.py --workload train_aft --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout.  The program is used straight from
``src/`` (nothing is installed).  With ``--trace 0`` the run generates the
workload's inputs from the seed, then drives the CLI in a closed loop for
``--seconds`` seconds, one command at a time, checks every output and
prints the end-to-end metrics.  With ``--trace 1`` it instead calls each
module's public functions in pipeline order inside this process, records a
span around every call, and prints the per-layer metrics (see
``tracing.py``).  Either way the last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  Workloads, metrics and the measured baseline are described in
``perfbench/NOTES.md``.

The harness never sets a BLAS or OpenMP thread variable: over-subscription
of the cores by BLAS threads inside worker pools is one of the defects the
benchmark exists to show.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"

SETUP_REPEATS = 5
RUN_DEADLINE_S = 170.0  # a run must exit within 180 s
THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "GOTO_NUM_THREADS",
)

# the end-to-end metrics of BENCHMARK.json, with their units; every workload reports all
END_TO_END = {
    "setup_s": "s",
    "serial_s": "s",
    "peak_rss_mb": "MB",
    "c_index": "1",
    "brier": "1",
}
# per-command timings printed for reading, by the names the notes use
COMMAND_METRICS = (
    "train_s",
    "train_serial_s",
    "predict_s",
    "transform_s",
    "evaluate_s",
    "simulate_s",
    "simulate_serial_s",
)


class BenchError(Exception):
    """A failure that ends the run without a result."""


@dataclass
class Sample:
    metric: str
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    returncode: int


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def run_process(metric: str, argv: list[str], log: Path, deadline: float) -> Sample:
    """Run one process to completion; wall time, CPU time and peak RSS of its tree.

    ``os.wait4`` reports the largest resident set among the process and the
    descendants it reaped, so pool workers are included.  A watchdog kills
    the process if it outlives the run's deadline.
    """
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("run deadline reached")
    with open(log, "ab") as fh:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=fh, stderr=subprocess.STDOUT, env=child_env(), cwd=ROOT)
        watchdog = threading.Timer(remaining, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Sample(
        metric=metric,
        wall_s=wall,
        cpu_s=usage.ru_utime + usage.ru_stime,
        peak_rss_mb=usage.ru_maxrss / 1024.0,
        returncode=proc.returncode,
    )


def cgroup_memory_limit() -> str:
    """The memory limit of this process's cgroup, v1 or v2, as found."""
    try:
        lines = Path("/proc/self/cgroup").read_text().splitlines()
    except OSError:
        return "unknown"
    for line in lines:
        hierarchy, controllers, path = line.split(":", 2)
        if hierarchy == "0" and controllers == "":
            candidate = Path("/sys/fs/cgroup") / path.lstrip("/") / "memory.max"
        elif "memory" in controllers.split(","):
            candidate = Path("/sys/fs/cgroup/memory") / path.lstrip("/") / "memory.limit_in_bytes"
        else:
            continue
        try:
            value = candidate.read_text().strip()
        except OSError:
            continue
        if value == "max" or (value.isdigit() and int(value) >= 2**62):
            return "unlimited"
        return value
    return "unknown"


def environment() -> dict:
    import numpy

    blas = {}
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cgroup_memory_limit": cgroup_memory_limit(),
        "thread_vars": {k: os.environ.get(k) for k in THREAD_VARS},
    }


def setup(workload: str, seed: int, workdir: Path, deadline: float) -> tuple[list[float], dict]:
    """Generate the inputs SETUP_REPEATS times in fresh processes; keep the last."""
    times, facts = [], {}
    argv = [sys.executable, str(HERE / "make_inputs.py"), "--workload", workload,
            "--seed", str(seed), "--out", str(workdir)]
    for _ in range(SETUP_REPEATS):
        log = workdir / "setup.log"
        log.unlink(missing_ok=True)
        sample = run_process("setup_s", argv, log, deadline)
        if sample.returncode != 0:
            raise BenchError(f"input generation failed:\n{log.read_text()[-2000:]}")
        facts = json.loads(log.read_text().strip().splitlines()[-1])
        times.append(sample.wall_s)
    if Path(facts["package"]) != (SRC / "pseudosurv").resolve():
        raise BenchError(f"pseudosurv imported from {facts['package']}, not from {SRC}")
    return times, facts


def tail(values: list[float]) -> str:
    """Highest percentile with at least ten samples beyond it, if there is one."""
    n = len(values)
    if n < 20:
        return f"none (n={n} < 20), max {max(values):.4f}"
    level = math.floor(100 * (1 - 10 / n))
    q = statistics.quantiles(values, n=100, method="inclusive")[level - 1]
    return f"p{level} {q:.4f}"


def run_commands(commands, workdir: Path, deadline: float, samples: list) -> float | None:
    """Run CLI commands one after another; their summed wall time, or None on a failure."""
    total = 0.0
    for cmd in commands:
        sample = run_process(cmd.metric, [sys.executable, "-m", "pseudosurv.cli", *cmd.args],
                             workdir / "commands.log", deadline)
        samples.append(sample)
        total += sample.wall_s
        if sample.returncode != 0:
            print(f"command failed ({sample.returncode}): {' '.join(cmd.args)}", file=sys.stderr)
            return None
    return total


def timed_run(workload_name: str, seed: int, seconds: float, workdir: Path) -> dict:
    from workloads import WORKLOADS

    workload = WORKLOADS[workload_name]
    deadline = time.monotonic() + RUN_DEADLINE_S
    setup_times, facts = setup(workload_name, seed, workdir, deadline)

    samples: list[Sample] = []
    serial, checks = [], []
    quality = set()
    if run_commands(workload.default(workdir), workdir, deadline, samples) is not None:
        start = time.perf_counter()
        while not serial or time.perf_counter() - start < seconds:
            pass_s = run_commands(workload.passes(workdir), workdir, deadline, samples)
            if pass_s is None:
                break
            result = workload.check(workdir, facts)
            checks.extend(result.checks)
            quality.add((result.c_index, result.brier))
            serial.append(pass_s)

    if len(quality) > 1:
        checks.append(("c-index and Brier repeat exactly across passes", False, str(quality)))
    failed_cmds = sum(s.returncode != 0 for s in samples)
    failed_checks = sum(not ok for _, ok, _ in checks)
    c_index, brier = next(iter(quality)) if quality else (float("nan"), float("nan"))
    return {
        "setup_times": setup_times,
        "samples": samples,
        "serial": serial,
        "checks": checks,
        "attempted": len(samples) + len(checks),
        "failed": failed_cmds + failed_checks,
        "c_index": c_index,
        "brier": brier,
    }


def report_timed(res: dict) -> dict:
    """Print the human-readable table; return the end-to-end metrics."""
    verdicts: dict[str, list] = {}  # check name -> [all passed, times run, detail]
    for name, ok, detail in res["checks"]:
        v = verdicts.setdefault(name, [True, 0, detail])
        v[1] += 1
        if v[0] and not ok:
            v[0], v[2] = False, detail
    for name, (ok, count, detail) in verdicts.items():
        print(f"check {'ok  ' if ok else 'FAIL'} x{count} {name}" + (f" [{detail}]" if detail else ""))

    def row(name, unit, values):
        if not values:
            print(f"{name:20s} {unit:5s} n/a (not run by this workload)")
            return
        print(f"{name:20s} {unit:5s} median {statistics.median(values):.4f}  "
              f"tail {tail(values)}  n={len(values)}")

    rows = {m: [s.wall_s for s in res["samples"] if s.metric == m] for m in COMMAND_METRICS}
    row("setup_s", "s", res["setup_times"])
    for m in COMMAND_METRICS:
        row(m, "s", rows[m])
    row("serial_s", "s", res["serial"])
    for m in COMMAND_METRICS:
        cpu = [s.cpu_s for s in res["samples"] if s.metric == m]
        if cpu:
            row(m[: -len("_s")] + "_cpu_s", "s", cpu)
    rss = [s.peak_rss_mb for s in res["samples"]]
    print(f"{'peak_rss_mb':20s} MB    {max(rss):.1f}")
    print(f"{'c_index':20s} 1     {res['c_index']:.6f}")
    print(f"{'brier':20s} 1     {res['brier']:.6f}")
    print(f"{'failed_share':20s} 1     {res['failed'] / res['attempted']:.4f} "
          f"({res['failed']} of {res['attempted']} commands and checks)")
    if not res["serial"]:
        return {}
    return {
        "setup_s": statistics.median(res["setup_times"]),
        "serial_s": statistics.median(res["serial"]),
        "peak_rss_mb": max(rss),
        "c_index": res["c_index"],
        "brier": res["brier"],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="pseudosurv CLI benchmark (one run)")
    parser.add_argument("--workload", required=True, choices=["train_aft", "ipcw_cohort", "simulate_cox"])
    parser.add_argument("--seed", required=True, type=int, help="seed the inputs are made from")
    parser.add_argument("--seconds", required=True, type=float,
                        help="how long the serial passes run (the traced run ignores it)")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0,
                        help="1: the in-process traced run with per-layer metrics")
    args = parser.parse_args(argv)

    if not (SRC / "pseudosurv" / "cli.py").is_file():
        print(f"error: no pseudosurv sources at {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(HERE), str(SRC)]
    env = environment()
    for var, value in env["thread_vars"].items():
        if value is not None:
            print(f"warning: {var}={value} is set; results are not the default user setting",
                  file=sys.stderr)
    workdir = WORK / args.workload
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)

    try:
        if args.trace:
            from tracing import traced_run

            result = traced_run(args.workload, args.seed, workdir, child_env())
            metrics, units = result["metrics"], result["units"]
            attempted, failed = result["attempted"], result["failed"]
        else:
            result = timed_run(args.workload, args.seed, args.seconds, workdir)
            metrics = report_timed(result)
            attempted, failed = result["attempted"], result["failed"]
            units = END_TO_END
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if not metrics:
        print("error: no complete pass; no result", file=sys.stderr)
        return 1

    print("environment " + json.dumps(env, sort_keys=True))
    summary = {
        "correct": failed == 0,
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {k: {"value": float(metrics[k]), "unit": units[k]} for k in units},
    }
    with open(workdir / "result.json", "w") as fh:
        json.dump({"workload": args.workload, "seed": args.seed, "environment": env, **summary},
                  fh, indent=2)
        fh.write("\n")
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
