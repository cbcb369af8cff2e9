"""Closed-loop benchmark of the quiverkit command line.

Run from the root of a quiverkit checkout:

    python3 perfbench/run.py --workload classify --seed 1 --seconds 15 --trace 0

One process runs one job at a time through ``quiverkit.cli.main`` with
``--out`` to a file under ``.bench_out/``, in passes over the workload's
job list, until the next pass would end after ``--seconds``.  The seed
orders the jobs of each pass (and is ``verify``'s ``--seed``).  Every
job's output is checked against its known answer after the pass, outside
the timed region.

The host's speed drifts by tens of percent within seconds, so every
time is scaled to a nominal host speed measured by a small probe work
timed around and during each job (see :class:`Clock`).  The
human-readable lines give the raw times too.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates a
plain pass with a pass under :class:`spans.Tracer` and reports the
per-layer metrics, including the tracing overhead.  Human-readable lines
go first; the last line of stdout is the JSON result.
"""

from __future__ import annotations

import argparse
import functools
import gc
import json
import os
import random
import resource
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path
from statistics import mean, median

import sympy

import spans
import workloads

ROOT = Path.cwd()
SRC = ROOT / "src"
SETUP_SAMPLES = 5
SETUP_ARGV = ("gamma", "--n", "4")
# The console script ``quiverkit = quiverkit.cli:main``, spelled out.
ENTRY = "import sys; from quiverkit.cli import main; sys.exit(main())"
PROBE_NOMINAL_S = 0.0023
PROBE_PERIOD_S = 0.1


def import_quiverkit():
    """Import quiverkit from ``src/`` of the checkout, and nowhere else."""
    if not (SRC / "quiverkit" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no quiverkit sources under {SRC}; run from the repository root")
    sys.path.insert(0, str(SRC))
    import quiverkit.cli

    if Path(quiverkit.__file__).resolve().parent != (SRC / "quiverkit").resolve():
        raise SystemExit(f"perfbench: imported quiverkit from {quiverkit.__file__}, not {SRC}")
    return quiverkit.cli


_X, _Y, _Z = sympy.symbols("x y z")
_P = sympy.Poly(_X * _Y + _Z + 1, _X, _Y, _Z, domain="ZZ")
_Q = sympy.Poly(_X + _Y * _Z + 2, _X, _Y, _Z, domain="ZZ")


def probe_s() -> float:
    """Time of a small fixed work (about 2 ms): a sympy polynomial power,
    gcd and exact division over ZZ, the dict- and tuple-heavy pure Python
    that quiverkit's layers also run.  It calls no quiverkit code, so a
    change to quiverkit cannot move it.  Of the probes tried (an integer
    loop, dict building and sorting, this one), it tracked the jobs' times
    best."""
    t0 = time.perf_counter()
    prod = (_P * _Q) ** 2
    prod.exquo(prod.gcd(_P * _P))
    return time.perf_counter() - t0


class Clock:
    """Times calls in seconds at a nominal host speed.

    The host's speed drifts by tens of percent within seconds, so the
    probe work is timed three times before and after every call and, if
    ``sample`` is set, every ``PROBE_PERIOD_S`` during it from a SIGALRM
    handler (in the same thread, between bytecodes, two frames deep).  A
    call's time, less the probes inside it, is multiplied by the mean of
    ``PROBE_NOMINAL_S / probe time``, which integrates the host's speed
    over the call.  ``probes`` keeps every probe time and ``pauses`` the
    (start, end) of every probe taken during a call, so that spans can
    leave them out.
    """

    def __init__(self, sample: bool = True):
        self.sample = sample
        self.probes: list[float] = []
        self.pauses: list[tuple[float, float]] = []
        self._inside: list[float] = []

    def _on_alarm(self, signum, frame):
        t0 = time.perf_counter()
        self._inside.append(probe_s())
        self.pauses.append((t0, time.perf_counter()))

    def time(self, fn, *args):
        """``(result, raw seconds, scaled seconds)``; ``result`` may be an exception."""
        before = [probe_s() for _ in range(3)]
        self._inside = []
        if self.sample:
            previous = signal.signal(signal.SIGALRM, self._on_alarm)
            signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD_S, PROBE_PERIOD_S)
        t0 = time.perf_counter()
        try:
            result = fn(*args)
        except KeyboardInterrupt:
            raise
        except BaseException as exc:  # a crash is a failed job, never an aborted run
            result = exc
        finally:
            if self.sample:
                signal.setitimer(signal.ITIMER_REAL, 0, 0)
            raw = time.perf_counter() - t0
            if self.sample:
                signal.signal(signal.SIGALRM, previous)
        after = [probe_s() for _ in range(3)]
        probes = before + self._inside + after
        raw -= sum(self._inside)
        self.probes += probes
        return result, raw, raw * mean(PROBE_NOMINAL_S / p for p in probes)


def setup_times(work: Path, samples: int) -> list[tuple[float, float]]:
    """(raw, scaled) seconds from a fresh interpreter to a finished
    ``quiverkit gamma --n 4``.  One untimed run first compiles the
    sources' bytecode, as a user's first call does once.  The probe runs
    only around each start, since during it would compete with the child."""
    clock = Clock(sample=False)
    env = {k: v for k, v in os.environ.items() if k != "QUIVERKIT_CAP"}
    env["PYTHONPATH"] = str(SRC)
    out = work / "setup.out"
    argv = [sys.executable, "-c", ENTRY, *SETUP_ARGV, "--out", str(out)]
    times = []
    for i in range(samples + 1):
        proc, raw, scaled = clock.time(functools.partial(
            subprocess.run, argv, cwd=ROOT, env=env,
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, timeout=120))
        if isinstance(proc, BaseException) or proc.returncode != 0 or not out.is_file():
            detail = proc if isinstance(proc, BaseException) else proc.stderr.decode()[-500:]
            raise RuntimeError(f"set-up command failed: {detail}")
        if i:
            times.append((raw, scaled))
    return times


class Runner:
    """Runs jobs through ``cli.main`` and checks them; one per benchmark run."""

    def __init__(self, cli, work: Path, clock: Clock):
        self.cli = cli
        self.work = work
        self.clock = clock
        self.seed_counts: list[int] = []
        mutation = sys.modules["quiverkit.mutation"]
        enumerate_vars = mutation.enumerate_cluster_variables

        @functools.wraps(enumerate_vars)
        def record_seed_count(*args, **kwargs):
            result = enumerate_vars(*args, **kwargs)
            self.seed_counts.append(result.seed_count)
            return result

        # The CLI prints cluster variables but not the number of clusters
        # (seeds); this records it for the closure checks.  It keeps the
        # original's name and module, so a Tracer made while it is bound
        # wraps it like the function it stands for.
        self.capture = spans.Rebinder({enumerate_vars: record_seed_count})

    def run_job(self, job: workloads.Job, slot: int):
        out = self.work / f"job{slot}.out"
        if out.exists():
            out.unlink()
        self.seed_counts = []
        gc.collect()  # each job starts from a collected heap, as a fresh CLI process would
        rc, raw, scaled = self.clock.time(self.cli.main, [*job.argv, "--out", str(out)])
        error = None
        if isinstance(rc, BaseException):
            rc, error = None, f"{type(rc).__name__}: {str(rc)[:200]}"
        return workloads.Outcome(rc, error, out, self.seed_counts), raw, scaled

    def run_pass(self, jobs, order, tracer=None) -> dict:
        """One pass over ``jobs`` in ``order``; checks run after it."""
        outcomes, raw, scaled = {}, {}, {}
        for slot in order:
            if tracer is not None:
                tracer.job = slot
            outcomes[slot], raw[slot], scaled[slot] = self.run_job(jobs[slot], slot)
        failures, nbytes = {}, 0
        for slot, outcome in outcomes.items():
            reason = jobs[slot].verdict(outcome)
            if reason is not None:
                failures[slot] = reason
            if outcome.out.is_file():
                nbytes += outcome.out.stat().st_size
                outcome.out.unlink()
        wrong = [s for s in failures if outcomes[s].error is None and outcomes[s].rc == 0]
        return {"raw": raw, "scaled": scaled, "failures": failures, "wrong": wrong, "bytes": nbytes}


def _unit(key: str) -> str:
    if key.endswith(("_s", ".s")):
        return "s"
    if key.endswith(("_ratio", "per_match")):
        return "ratio"
    if key.endswith(".bytes"):
        return "bytes"
    return "count"


def run_workload(name: str, seed: int, seconds: float, trace: bool, smoke: bool = False) -> dict:
    """Measure one workload.  Returns the result printed as JSON plus a
    ``report`` list of human-readable lines."""
    os.environ.pop("QUIVERKIT_CAP", None)  # the documented default cap applies
    cli = import_quiverkit()
    jobs = workloads.WORKLOADS[name].job_list(seed, smoke)
    rng = random.Random(seed)
    work = ROOT / ".bench_out" / str(os.getpid())
    work.mkdir(parents=True, exist_ok=True)
    try:
        clock = Clock()
        runner = Runner(cli, work, clock)
        setup = [] if trace else setup_times(work, SETUP_SAMPLES)
        passes, traced, layer = [], [], []
        t_begin = time.perf_counter()
        with runner.capture:
            tracer = spans.Tracer() if trace else None
            while True:
                order = rng.sample(range(len(jobs)), len(jobs))
                passes.append(runner.run_pass(jobs, order))
                if trace:
                    with tracer:
                        traced.append(runner.run_pass(jobs, order, tracer))
                    layer.append(spans.layer_metrics(tracer.spans, traced[-1]["bytes"], clock.pauses))
                spent = time.perf_counter() - t_begin
                if spent * (len(passes) + 1) / len(passes) > seconds:
                    break
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass

    every = passes + traced
    attempted = len(jobs) * len(every)
    failed = sum(len(p["failures"]) for p in every)
    wrong = sum(len(p["wrong"]) for p in every)
    report = [f"workload {name}: {len(jobs)} jobs x {len(passes)} passes, seed {seed}, trace {int(trace)}"]
    for slot, reason in sorted(every[0]["failures"].items()):
        report.append(f"  FAILED {jobs[slot].label}: {reason}")

    def walls(ps, kind):
        return [sum(p[kind].values()) for p in ps]

    if not trace:
        timings = {
            "setup_s": [s for _, s in setup],
            "wall_s": walls(passes, "scaled"),
            "slowest_job_s": [max(p["scaled"].values()) for p in passes],
        }
        raws = {
            "setup_s": [r for r, _ in setup],
            "wall_s": walls(passes, "raw"),
            "slowest_job_s": [max(p["raw"].values()) for p in passes],
        }
        metrics = {k: (median(v), "s") for k, v in timings.items()}
        metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
        metrics["ok_frac"] = ((attempted - failed) / attempted, "ratio")
        for key, values in timings.items():
            report.append(
                f"  {key} {median(values):.6g} s (max {max(values):.6g}, n={len(values)}; "
                f"raw median {median(raws[key]):.6g} s)")
        report.append(f"  peak_rss_mb {metrics['peak_rss_mb'][0]:.6g} MB")
        report.append(f"  ok_frac {metrics['ok_frac'][0]:.6g} ratio")
        report.append(f"  failed_frac {failed / attempted:.6g} ratio ({failed}/{attempted} jobs)")
    else:
        metrics = {}
        for key in layer[0]:
            values = [m[key] for m in layer]
            if key in spans.COUNTS and len(set(values)) > 1:
                report.append(f"  WARNING: count {key} differs between traced passes: {values}")
            metrics[key] = (median(values), _unit(key))
        overhead = median(walls(traced, "scaled")) - median(walls(passes, "scaled"))
        metrics["trace.overhead_s"] = (overhead, "s")
        metrics["ref_s"] = (median(clock.probes), "s")
        report += [f"  {k} {v:.6g} {u}" for k, (v, u) in metrics.items()]
    report.append(f"  probe: median {median(clock.probes):.6g} s, "
                  f"range {min(clock.probes):.6g}..{max(clock.probes):.6g} s, n={len(clock.probes)}")
    for slot in range(len(jobs)):
        ts = [p["scaled"][slot] for p in passes]
        report.append(f"  job {jobs[slot].label}: median {median(ts):.4f} s, max {max(ts):.4f} s, n={len(ts)}")

    return {
        "correct": wrong == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "report": report,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    for line in result.pop("report"):
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
