"""Measurement passes, metrics and the result document of one benchmark run.

``run.py`` checks the checkout, pins BLAS threads and then calls ``run``.
A run is one workload, one seed, one caller, one solve at a time:

* set-up is measured in fresh interpreters (``setup_probe.py``), several
  times, and reported as the median;
* with ``trace=0`` passes repeat until the time is up and the end-to-end
  metrics are medians over passes.  A calibration kernel is timed after
  every request, probe and CLI process, and each time is reported at the
  reference speed (see ``calibration.py``); raw wall times go into the full
  document;
* with ``trace=1`` untraced and traced passes alternate, then one counting
  pass runs; the per-layer metrics are self times (medians over traced
  passes) and counts.

Every attempt goes through ``checks.replay``; any failure makes the run exit
non-zero.
"""

from __future__ import annotations

import contextlib
import gc
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import numpy as np
import scipy

import lattice_rearrange as lr
from lattice_rearrange import cli, lattice2d, lor, por

import calibration
import checks
import layertrace
import workloads

PERFBENCH = Path(__file__).resolve().parent
SETUP_PROBES = 5
CHILD_TIMEOUT_S = 120
# what the `lattice-rearrange` console script (lattice_rearrange.cli:main) runs
CLI_ENTRY = "import sys; from lattice_rearrange.cli import main; sys.exit(main())"
_MODULES = {"lor": lor, "por": por, "lattice2d": lattice2d}

# gated metrics: every one applies to every workload
END_TO_END = {
    "setup_s": "s",
    "solve_s": "s",
    "travel_ratio": "ratio",
    "peak_rss_mb": "MB",
}

_SPAN_METRICS = (
    "core.simulate", "graphs.permutation_cycles", "graphs.min_arborescence",
    "graphs.min_cost_assignment", "graphs.linear_sum_assignment", "lor.follow_cycles",
    "por.form_cycles", "por.merge_cycles", "por.merge_cycles_mst",
    "por.group_sweep_cycles_por", "lattice2d.switch_cycles_ltr",
    "lattice2d.form_cycles_ptr", "lattice2d.merge_cycles_ptr", "lattice2d.sweep_cycles_ptr",
    "cli.json_parse", "core.instance_from_dict", "core.plan_cost", "cli.json_dump", "cli.main",
)
_COUNT_METRICS = {
    "core.simulate.calls": "count", "core.simulate.steps": "count",
    "core.distance.calls": "count", "graphs.cycles": "count",
    "graphs.min_arborescence.calls": "count", "graphs.min_arborescence.edges": "count",
    "graphs.min_arborescence.weight": "dist",
    "graphs.min_cost_assignment.calls": "count", "graphs.linear_sum_assignment.calls": "count",
    "por.cycles_formed": "count", "por.cycles_after_free": "count",
    "por.cycles_final": "count", "por.fusion_travel": "dist",
    "lattice2d.switch_fallbacks": "count", "lattice2d.cycles_formed": "count",
    "lattice2d.cycles_final": "count", "lattice2d.fusion_travel": "dist",
}
PER_LAYER = {
    "import.s": "s", "import.modules": "count", "gen.s": "s",
    **{name + ".s": "s" for name in _SPAN_METRICS},
    **_COUNT_METRICS,
    "trace.overhead": "ratio",
}


def child_env(root: Path) -> dict:
    """This process's environment (BLAS threads pinned by run.py) plus src."""
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    return env


def setup_probe(workload: str, seed: int, cli_dir: Path, env: dict) -> dict:
    argv = [sys.executable, str(PERFBENCH / "setup_probe.py"), workload, str(seed), str(cli_dir)]
    done = subprocess.run(argv, env=env, cwd=PERFBENCH.parent, capture_output=True,
                          text=True, timeout=CHILD_TIMEOUT_S, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


def run_child(argv: list[str], env: dict, err_path: Path) -> tuple[float, int, int]:
    """Run one process to exit: (wall seconds, exit code, peak RSS in KiB)."""
    with open(err_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, env=env, cwd=PERFBENCH.parent,
                                stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, stderr=err)
        deadline = t0 + CHILD_TIMEOUT_S
        while True:
            # wait4 (not Popen.wait) so the child's own peak RSS is reported
            pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
            if pid:
                break
            if time.perf_counter() > deadline:
                proc.kill()
                pid, status, usage = os.wait4(proc.pid, 0)
                break
            time.sleep(0.0005)
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, proc.returncode, usage.ru_maxrss


def tail(samples: list[float]) -> dict:
    """Median, plus the highest percentile with at least ten samples beyond it."""
    ordered = sorted(samples)
    n = len(ordered)
    out = {"p50": statistics.median(ordered), "samples": n, "tail": None, "tail_percentile": None}
    if n > 10:
        out["tail"] = ordered[n - 11]
        out["tail_percentile"] = 100.0 * (n - 10) / n
    return out


def git_commit(root: Path) -> str | None:
    """HEAD commit read from .git, without running git (the checkout may have none)."""
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = root / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def environment(root: Path) -> dict:
    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "nproc": len(os.sched_getaffinity(0)),
            "cpu_count": os.cpu_count(), "platform": platform.platform(),
            "git_commit": git_commit(root)}


class Run:
    """Requests, expectations and the failure record of one benchmark run."""

    def __init__(self, workload: str, seed: int, work: Path):
        self.workload = workload
        self.work = work
        self.requests = workloads.build(workload, seed)
        self.expect = {r.id: checks.expectation(r) for r in self.requests}
        self.digests: dict[str, str] = {}
        self.travel: dict[str, float] = {}
        self.attempted = 0
        self.failures: list[str] = []

    def _record(self, req, out: checks.Outcome) -> None:
        self.attempted += 1
        if out.failure is None:
            first = self.digests.setdefault(req.id, out.digest)
            self.travel.setdefault(req.id, out.travel)
            if first != out.digest:
                out.failure = "plan differs from the first attempt's plan"
        if out.failure is not None:
            self.failures.append(f"{req.id}: {out.failure}")

    def _fail(self, req, message: str) -> checks.Outcome:
        out = checks.Outcome(failure=message)
        self._record(req, out)
        return out

    # -- library passes ------------------------------------------------------

    def library_pass(self, tracer: layertrace.Tracer | None = None,
                     clock: calibration.Clock | None = None) -> dict:
        """Plan each instance, then replay it.  Times exclude the checks.

        With a `clock`, each request's times are scaled to the reference
        speed; ``raw_solve_s`` keeps the plain wall time.
        """
        plan_s = Counter()
        verify = raw = 0.0
        for req in self.requests:
            if tracer is not None:
                tracer.instance = req.id
            solver = getattr(_MODULES[req.module], req.solver)
            t0 = time.perf_counter()
            try:
                plan = solver(req.instance, req.model)
            except Exception as exc:  # a raising solver is a counted failure
                self._fail(req, f"solver raised {type(exc).__name__}: {exc}")
                continue
            planned = time.perf_counter() - t0
            out = checks.replay(req, plan, self.expect[req.id])
            scale = clock.scale() if clock is not None else 1.0
            plan_s[req.cli_solver] += planned * scale
            verify += out.verify_s * scale
            raw += planned + out.verify_s
            self._record(req, out)
        if tracer is not None:
            tracer.instance = None
        return {"solve_s": sum(plan_s.values()) + verify, "verify_s": verify,
                "raw_solve_s": raw, "solvers": plan_s}

    # -- CLI passes -------------------------------------------------------------

    def cli_argv(self, req, path: Path) -> list[str]:
        argv = ["solve", "--solver", req.cli_solver, "-i", str(path),
                "-o", str(self.work / f"{req.id}.plan.json")]
        if req.metric != "euclidean":
            argv += ["--metric", req.metric]
        return argv

    def check_cli_output(self, req, code: int, err: str) -> checks.Outcome:
        if code != 0:
            return self._fail(req, f"exit {code}: {err.strip()[-300:]}")
        try:
            doc = json.loads((self.work / f"{req.id}.plan.json").read_text(encoding="utf-8"))
            plan = lr.plan_from_dict(doc)
        except (OSError, ValueError, lr.RearrangeError) as exc:
            return self._fail(req, f"unreadable plan: {exc}")
        out = checks.replay(req, plan, self.expect[req.id], reported=doc.get("cost"))
        self._record(req, out)
        return out

    def cli_process_pass(self, inputs: list[Path], env: dict,
                         clock: calibration.Clock) -> dict:
        """One fresh `lattice-rearrange solve` process per request.

        Each process's wall time is scaled to the reference speed by `clock`;
        ``raw_solve_s`` keeps the plain sum.
        """
        walls, rss, raw, verify = [], [], 0.0, 0.0
        solvers = Counter()
        err_path = self.work / "stderr.txt"
        for req, path in zip(self.requests, inputs):
            (self.work / f"{req.id}.plan.json").unlink(missing_ok=True)
            argv = [sys.executable, "-c", CLI_ENTRY] + self.cli_argv(req, path)
            wall, code, maxrss_kib = run_child(argv, env, err_path)
            scale = clock.scale()
            raw += wall
            walls.append(wall * scale)
            rss.append(maxrss_kib)
            solvers[req.cli_solver] += wall * scale
            out = self.check_cli_output(req, code, err_path.read_text(errors="replace"))
            verify += out.verify_s * scale
        return {"solve_s": sum(walls), "raw_solve_s": raw, "verify_s": verify,
                "solvers": solvers, "walls": walls, "peak_rss_kib": max(rss)}

    def _cli_calls(self, inputs: list[Path], tracer=None) -> tuple[float, list[int], str]:
        """The requests through ``cli.main(argv)`` in this process."""
        codes, total = [], 0.0
        with contextlib.redirect_stderr(io.StringIO()) as err:
            for req, path in zip(self.requests, inputs):
                if tracer is not None:
                    tracer.instance = req.id
                t0 = time.perf_counter()
                codes.append(cli.main(self.cli_argv(req, path)))
                total += time.perf_counter() - t0
        if tracer is not None:
            tracer.instance = None
        return total, codes, err.getvalue()

    def in_process_pass(self, inputs, tracer=None, patched=None) -> float:
        """One pass in this process, with `patched` (tracer or counters) active.

        Returns the pass's solve time.  CLI outputs are checked after
        `patched` has been left, so only the CLI's own calls are traced.
        """
        with patched if patched is not None else contextlib.nullcontext():
            if self.workload != "cli":
                return self.library_pass(tracer)["solve_s"]
            total, codes, err = self._cli_calls(inputs, tracer)
        for req, code in zip(self.requests, codes):
            self.check_cli_output(req, code, err)
        return total

    # -- report -------------------------------------------------------------

    def travel_ratio(self) -> float:
        bound = sum(e.bound for e in self.expect.values())
        return sum(self.travel.values()) / bound if bound else 1.0

    def instances(self) -> list[dict]:
        return [{**r.describe(), "digest": self.digests.get(r.id),
                 "min_picks": self.expect[r.id].min_picks,
                 "carry_bound": self.expect[r.id].bound,
                 "travel": self.travel.get(r.id)} for r in self.requests]


def _median_counter(samples: list[Counter]) -> dict:
    keys = sorted({k for s in samples for k in s})
    return {k: statistics.median(s.get(k, 0.0) for s in samples) for k in keys}


def _measure_end_to_end(run: Run, seconds: float, inputs, env) -> tuple[dict, dict]:
    passes = []
    clock = calibration.Clock()
    deadline = time.perf_counter() + seconds
    while True:
        if run.workload == "cli":
            passes.append(run.cli_process_pass(inputs, env, clock))
        else:
            passes.append(run.library_pass(clock=clock))
        if time.perf_counter() >= deadline:
            break
    if run.workload == "cli":
        peak_kib = max(p["peak_rss_kib"] for p in passes)
    else:
        peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics = {
        "solve_s": statistics.median(p["solve_s"] for p in passes),
        "travel_ratio": run.travel_ratio(),
        "peak_rss_mb": peak_kib / 1024.0,
    }
    # the issue's names for these figures, where each applies; times scaled alike
    named = {"solve_s": (metrics["solve_s"], "s"),
             "verify_s": (statistics.median(p["verify_s"] for p in passes), "s")}
    solvers = {f"{k.replace('-', '_')}_s": v
               for k, v in _median_counter([p["solvers"] for p in passes]).items()}
    if run.workload == "cli":
        lat = tail([1000.0 * w for p in passes for w in p["walls"]])
        named.update({"cli_ms.p50": (lat["p50"], "ms"), "cli_ms.tail": (lat["tail"], "ms"),
                      "cli_ms.tail_percentile": (lat["tail_percentile"], "%"),
                      "cli_ms.samples": (lat["samples"], "count")})
    else:
        named.update({k: (v, "s") for k, v in solvers.items()})
    extra = {"passes": len(passes), "named": named, "kernels": clock.kernels,
             "raw_solve_s": statistics.median(p["raw_solve_s"] for p in passes)}
    if run.workload == "cli":
        extra["process_s"] = solvers
    return metrics, extra


def _measure_per_layer(run: Run, seconds: float, inputs) -> tuple[dict, dict]:
    tracer = layertrace.Tracer()
    untraced, traced, selfs = [], [], []
    epoch = time.perf_counter()
    deadline = epoch + seconds
    while True:
        first = len(tracer.spans)
        # alternate which side runs first, so warm-up and drift hit both alike
        for with_trace in ((False, True) if len(traced) % 2 == 0 else (True, False)):
            if with_trace:
                traced.append(run.in_process_pass(inputs, tracer, tracer.active()))
            else:
                untraced.append(run.in_process_pass(inputs))
        selfs.append(tracer.self_times(first))
        if time.perf_counter() >= deadline:
            break
    counters = layertrace.Counters()
    run.in_process_pass(inputs, patched=counters.active())
    tracer.write(run.work / "spans.json", epoch)
    times = _median_counter(selfs)
    metrics = {name + ".s": times.get(name, 0.0) for name in _SPAN_METRICS}
    metrics.update({name: float(counters.counts.get(name, 0)) for name in _COUNT_METRICS})
    metrics["trace.overhead"] = statistics.median(traced) / statistics.median(untraced)
    extra = {"passes": len(traced), "spans": len(tracer.spans),
             "self_s": {k: v for k, v in times.items() if k + ".s" not in metrics}}
    return metrics, extra


def run(workload: str, seed: int, seconds: float, traced: bool, root: Path) -> int:
    work = root / ".perfbench" / workload
    work.mkdir(parents=True, exist_ok=True)
    cli_dir = work / "inputs"
    env = child_env(root)
    clock = calibration.Clock()
    probes = []
    for _ in range(SETUP_PROBES):
        probe = setup_probe(workload, seed, cli_dir, env)
        probe["scale"] = clock.scale()
        probes.append(probe)

    def setup_median(key: str) -> float:
        return statistics.median(p[key] * p["scale"] for p in probes)

    run_ = Run(workload, seed, work)
    # keep the whole workload's instances and checks out of the collector's
    # scans, so a solve pays for its own garbage only
    gc.collect()
    gc.freeze()
    inputs = workloads.write_cli_inputs(run_.requests, cli_dir) if workload == "cli" else None
    if traced:
        metrics, extra = _measure_per_layer(run_, seconds, inputs)
        metrics["import.s"] = setup_median("import_s")
        metrics["import.modules"] = float(statistics.median(p["import_modules"] for p in probes))
        metrics["gen.s"] = setup_median("gen_s")
        units = PER_LAYER
    else:
        metrics, extra = _measure_end_to_end(run_, seconds, inputs, env)
        metrics["setup_s"] = setup_median("setup_s")
        extra["raw_setup_s"] = statistics.median(p["setup_s"] for p in probes)
        units = END_TO_END

    failed = len(run_.failures)
    if not traced:
        named = {"setup_s": (metrics["setup_s"], "s"), **extra.pop("named"),
                 "travel_ratio": (metrics["travel_ratio"], "ratio"),
                 "fail_frac": (failed / max(1, run_.attempted), "ratio"),
                 "peak_rss_mb": (metrics["peak_rss_mb"], "MB")}
        extra["issue_metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in named.items()}
    report = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": int(traced),
        "environment": environment(root),
        "calibration_reference_s": calibration.REFERENCE_S,
        "setup_probes": probes,
        "instances": run_.instances(),
        "travel_ratio": run_.travel_ratio(),
        "attempted": run_.attempted, "failed": failed,
        "fail_frac": failed / max(1, run_.attempted),
        "failures": run_.failures[:20],
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
        **extra,
    }
    (work / f"report-trace{int(traced)}.json").write_text(json.dumps(report, indent=1) + "\n")
    print(json.dumps(report))
    print(json.dumps({"correct": failed == 0, "attempted": run_.attempted, "failed": failed,
                      "metrics": report["metrics"]}))
    return 0 if failed == 0 else 1
