"""End-to-end benchmark of the Gemini DSE reproduction.

Usage, from the repository root::

    python3 bench/run.py --workload fig5-compare --seed 0 --seconds 15 --trace 0

Runs one workload of ``BENCHMARK.json`` in a fresh process and prints,
as its last line, one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` (every end-to-end metric with ``--trace 0``,
every per-layer metric with ``--trace 1``).  Exits 1 when an output
check fails and 2 when the program's sources are missing.

Set-up time is the median over several fresh processes (one with
``--scale`` < 1).  A fixed host-calibration probe runs before and after
the workload, and a record of the run (metrics, checks, git SHA, seed,
CPU count, Python and numpy versions, calibration) is written under
``<out>/runs/`` for ``bench/compare.py``.
"""

import os

# Before numpy loads anywhere: one BLAS thread per process.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import math
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

#: Fresh-process set-ups per full-scale run; the median is reported.
SETUP_SAMPLES = 5
#: Every child process must end within this many seconds of the start.
BUDGET_S = 170.0


class ChildFailed(RuntimeError):
    pass


def calib_s() -> float:
    """A fixed numpy + pure-Python probe of host speed (never used to
    normalise a metric; recorded so host drift shows)."""
    t0 = time.perf_counter()
    a = np.random.default_rng(0).random((256, 256))
    for _ in range(25):
        a = np.tanh(a @ a)
    sum(i * i % 7 for i in range(1_000_000))
    return time.perf_counter() - t0


def git_sha() -> str:
    """HEAD's commit, read from ``.git`` without running git (the
    benchmark may run from a plain checkout, which has no ``.git``)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run_child(args, work: Path, deadline: float, setup_only=False) -> dict:
    """One ``workloads.py`` process; returns its JSON result line."""
    cmd = [sys.executable, str(BENCH / "workloads.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--scale", str(args.scale)]
    if setup_only:
        cmd.append("--setup-only")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0",
               BENCH_SPAWN_T=repr(time.time()))
    proc = subprocess.Popen(cmd, cwd=work, env=env, stdout=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.time()))
    except subprocess.TimeoutExpired:
        # The whole process group, so pool workers die with it.
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise ChildFailed(f"{args.workload} did not finish in time")
    if proc.returncode != 0 or not out.strip():
        raise ChildFailed(f"{args.workload} exited {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1])


def metrics_of(result: dict, setup: list[float], calib: list[float],
               trace: int) -> dict:
    """The run's metrics, named and ordered as in BENCHMARK.json."""
    if trace:
        values = dict(result["per_layer"], **{
            "host.calib_s": statistics.mean(calib)})
        spec = SPEC["per_layer"]
    else:
        values = dict(result["end_to_end"],
                      setup_s=statistics.median(setup))
        spec = SPEC["end_to_end"]
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
            for m in spec}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=[w["name"] for w in SPEC["workloads"]])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True,
                    help="length of the timed phase (whole passes over "
                         "the work list; at least two always run)")
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--scale", type=float, default=1.0,
                    help="shrink iterations and work lists (smoke tests)")
    ap.add_argument("--out", type=Path, default=BENCH / "out",
                    help="directory for work files and run records")
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no program sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    deadline = time.time() + BUDGET_S
    started = time.time()
    name = f"{args.workload}.seed{args.seed}.trace{args.trace}"
    work = args.out / "work" / f"{name}.{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    calib = [calib_s()]
    setup = []
    # Set-up probes before and after the measuring process, so one
    # burst of host load cannot slow every sample.
    probes = SETUP_SAMPLES - 1 if args.scale >= 1 else 0
    try:
        for _ in range(probes // 2):
            setup.append(run_child(args, work, deadline, setup_only=True)
                         ["setup_s"])
        result = run_child(args, work, deadline)
        for _ in range(probes - probes // 2):
            setup.append(run_child(args, work, deadline, setup_only=True)
                         ["setup_s"])
    except ChildFailed as exc:
        print(exc, file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    setup.append(result["setup_s"])
    calib.append(calib_s())

    metrics = metrics_of(result, setup, calib, args.trace)
    failures = list(result["failures"])
    for key, m in metrics.items():
        if not math.isfinite(m["value"]):
            failures.append(f"{key} is not a number")
            m["value"] = None
        elif not args.trace and m["value"] <= 0:
            failures.append(f"{key} is not positive")
    correct = not failures and result["failed"] == 0

    record = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "scale": args.scale,
        "started": started, "git_sha": git_sha(),
        "nproc": len(os.sched_getaffinity(0)), "workers": result["workers"],
        "python": platform.python_version(), "numpy": np.__version__,
        "calib_s": calib, "setup_samples_s": setup,
        "import_s": result["import_s"], "timed_s": result["wall_s"],
        "pass_s": result["pass_s"], "correct": correct,
        "attempted": result["attempted"], "failed": result["failed"],
        "failures": failures, "notes": result["notes"], "metrics": metrics,
        "layer_rows": result["layer_rows"],
    }
    runs = args.out / "runs"
    runs.mkdir(parents=True, exist_ok=True)
    (runs / f"{name}.{time.time_ns()}.json").write_text(
        json.dumps(record, indent=1))

    print(f"{args.workload} seed {args.seed}: {len(result['pass_s'])} passes, "
          f"{result['wall_s']:.1f} s timed, {result['attempted']} attempted, "
          f"{result['failed']} failed, checks "
          + ("ok" if correct else "FAILED"))
    for failure in failures:
        print(f"  check failed: {failure}")
    for key, m in metrics.items():
        if m["value"] is not None:
            print(f"  {key:44s} {m['value']:.6g} {m['unit']}")
    for key, value in result["notes"].items():
        print(f"  note {key}: {value}")
    if result["layer_rows"]:
        print("  heaviest layers: span, calls, total ms, self ms, self %, "
              "cpu ms, pids")
        for row in result["layer_rows"]:
            print("    " + "  ".join(str(c) for c in row))
    print(json.dumps({"correct": correct, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
