"""genstokes benchmark: the CLI end to end, and its layers from outside.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  ``NAME`` is one of ``WORKLOADS``, or ``all``
for each workload listed in ``BENCHMARK.json`` in turn.  ``ellipticity-uniaxial``
runs by name but is not listed: on a shared two-core machine its short
invocations are not steady with few per run, and more per run would not
fit the time a benchmark set may take (see ``CHANGES.md``).  The seed
picks the generated input variant (see ``inputs.py``); the program sees
only the generated files and the flags.  Children run one at a time, from
this one process, with ``--threads 1`` and BLAS/OpenMP pinned to one
thread.

``--trace 0`` (end-to-end metrics, tracing off):

* ``setup_s``: median over ``SETUP_REPEATS`` fresh processes that import
  genstokes and build the workload's inputs (``pipeline.py setup``).
* ``wall_s``: median wall time of one ``python -m genstokes.cli``
  invocation, spawn to exit.  Invocations repeat until ``S`` seconds of
  them have run (at least one).
* ``peak_rss_mb``: median of the CLI child's own ``ru_maxrss`` from
  ``os.wait4`` (the parent's memory is excluded).
* ``failed_frac``: failed invocations / attempted ones, printed and carried
  by ``failed``/``attempted``.  An invocation fails when it exits non-zero,
  is killed, or its outputs are outside ``check.RTOL`` of the references.

``--trace 1`` (per-layer metrics): pairs of one untraced CLI invocation and
one ``pipeline.py trace`` child that replays the CLI's library calls with
spans, repeated until ``S`` seconds of pairs have run (at least one).  Both
children are checked, and the pipeline's numbers must reproduce the CLI's.
Each metric is the median over the pairs.  Time metrics are span totals; on
``mms-aniso`` a ``.nN`` suffix gives the value at mesh level N, and an
unsuffixed count or ratio is that of the finest level.  ``<layer>.self_s``
is the layer's span time not covered by its child spans.  Probe spans (see
``pipeline.py``) are replays beside the CLI's calls: ``trace.probe_s`` is
their total, and they are left out of the replayed CLI work, which is the
traced child's wall time less probes and benchmark-only work (``bench_s``).
``trace.coverage`` is the share of that work inside non-probe top-level
spans; ``trace.overhead_s`` is its median less the median CLI wall time.
Each workload must produce the metrics in ``REACHES``; one missing is a
failed check.  A listed metric of a layer the workload does not reach reads
0.  The last traced run's spans are kept in
``.perfbench-out/<workload>-spans.json``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import os

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
PINNED_THREADS = "1"
for _var in THREAD_VARS:
    os.environ[_var] = PINNED_THREADS

import argparse  # noqa: E402
import importlib.metadata  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
import time  # noqa: E402
from collections import defaultdict  # noqa: E402
from typing import NamedTuple  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench-out")

import check  # noqa: E402
import inputs  # noqa: E402
import pipeline  # noqa: E402

WORKLOADS = ("mms-aniso", "solve-grid-8", "ellipticity-uniaxial", "verify-suite")
SETUP_REPEATS = 3
# a run must end within 180 s; no child starts that could not finish by this
RUN_BUDGET_S = 170.0

# per-layer metrics that each workload's traced run must produce
_TRACE_COMMON = (
    "process.import_s", "process.self_s", "process.cpu_s", "cli.self_s",
    "trace.coverage", "trace.overhead_s", "trace.probe_s",
    "input.samples", "input.repeated_eig_share")
# the counts and spans of assemble's probes and of one direct solve
_PER_LEVEL = (
    "fem.mesh_space_s", "fem.geometry_s", "fem.n_tets", "fem.quad_points",
    "fields.b_eval_s", "fields.f_eval_s", "tensors.eig_batch_s",
    "tensors.ch_inverse_batch_s", "constitutive.acal_values_s",
    "ellipticity.alpha_field_s", "assembly.assemble_s", "assembly.kkt_n",
    "assembly.kkt_nnz", "solver.solve_s", "solver.factor_nnz",
    "solver.fill_ratio", "solver.residual", "verification.audit_s")
_ASSEMBLY = _PER_LEVEL + (
    "tensors.eig_rows_per_s", "assembly.peak_rss_mb", "solver.peak_rss_mb",
    "fem.self_s", "fields.self_s", "tensors.self_s", "constitutive.self_s",
    "ellipticity.self_s", "assembly.self_s", "solver.self_s",
    "verification.self_s")
REACHES = {
    "mms-aniso": _TRACE_COMMON + _ASSEMBLY + (
        "verification.case_build_s", "verification.case_norm_suite_s",
        "verification.errors_s") + tuple(
            f"{m}.n{n}" for n in pipeline.MMS_DIVISIONS
            for m in _PER_LEVEL + ("verification.errors_s",)),
    "solve-grid-8": _TRACE_COMMON + _ASSEMBLY + (
        "fields.grid_load_s", "vtkio.write_s", "vtkio.bytes", "vtkio.self_s"),
    "ellipticity-uniaxial": _TRACE_COMMON + (
        "fields.grid_load_s", "fields.b_eval_s", "fields.self_s",
        "tensors.eig_batch_s", "tensors.eig_rows_per_s", "tensors.self_s",
        "ellipticity.alpha_field_s", "ellipticity.radius_s",
        "ellipticity.self_s"),
    "verify-suite": _TRACE_COMMON + (
        "verifysuite.run_suite_s", "verifysuite.self_s",
        "tensors.eig_sym3_us", "tensors.ch_inverse_us", "tensors.self_s",
        "constitutive.audit_bounds_s", "constitutive.self_s",
        "assembly.korn_terms_s", "assembly.self_s"),
}

CHILD_ENV = dict(os.environ, PYTHONPATH=SRC, PYTHONHASHSEED="0")
CHILD_ENV.pop("GENSTOKES_OUTDIR", None)


class Child(NamedTuple):
    wall_s: float
    rss_mb: float
    cpu_s: float
    code: int


def run_child(argv, log_path, deadline) -> Child:
    """Run one child to completion (killed at ``deadline``), measured by wait4."""
    t0 = time.perf_counter()
    with open(log_path, "wb") as log:
        proc = subprocess.Popen(argv, cwd=ROOT, env=CHILD_ENV, stdout=log,
                                stderr=subprocess.STDOUT)
    timer = threading.Timer(max(deadline - time.perf_counter(), 0.0), proc.kill)
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        proc.kill()
        os.wait4(proc.pid, 0)
        raise
    finally:
        timer.cancel()
    wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(wall, usage.ru_maxrss / 1024.0, usage.ru_utime + usage.ru_stime,
                 proc.returncode)


def _mu_flag(workload: str) -> str:
    return ",".join(f"{v:g}" for v in pipeline.MU[workload])


def cli_argv(workload: str, paths: dict, variant: int, outdir: str) -> list:
    """The user's command line for one invocation of the workload."""
    argv = [sys.executable, "-m", "genstokes.cli", "--threads", "1", "--out", outdir]
    if workload == "mms-aniso":
        meshes = ",".join(str(n) for n in pipeline.MMS_DIVISIONS)
        return argv + ["mms", "--case", "anisotropic", "--meshes", meshes,
                       "--csv", "mms.csv"]
    if workload == "solve-grid-8":
        return argv + ["solve", "--mu", _mu_flag(workload), "--mesh", "8,8,8",
                       "--b-grid", paths["b_grid"], "--f-expr", paths["f_expr"]]
    if workload == "ellipticity-uniaxial":
        return argv + ["ellipticity", "--mu", _mu_flag(workload),
                       "--b-grid", paths["b_grid"],
                       "--samples", str(pipeline.ELLIPTICITY_SAMPLES),
                       "--radius", "--report", "ellipticity.json"]
    return argv + ["verify", "--seed", str(variant), "--report", "verify.json"]


def pipeline_argv(mode: str, workload: str, paths: dict, extra=()) -> list:
    return [sys.executable, os.path.join(HERE, "pipeline.py"), mode,
            "--workload", workload, "--inputs", json.dumps(paths), *extra]


class Run:
    """One benchmark run of one workload: inputs, children, checks."""

    def __init__(self, workload: str, seed: int, deadline: float):
        self.workload = workload
        self.variant = inputs.variant(seed)
        self.deadline = deadline
        self.dir = os.path.join(WORK, f"{workload}-s{seed}-p{os.getpid()}")
        shutil.rmtree(self.dir, ignore_errors=True)
        os.makedirs(self.dir)
        self.paths = inputs.write_inputs(workload, seed, self.dir)
        if workload == "solve-grid-8":
            self.paths["f_expr"] = inputs.F_EXPR
        self.reference = check.reference_for(check.load_references(),
                                             workload, self.variant)
        self.problems = []
        self._n = 0

    def _subdir(self, tag: str) -> str:
        self._n += 1
        path = os.path.join(self.dir, f"{tag}-{self._n}")
        os.makedirs(path)
        return path

    def _failed(self, what: str, child: Child, log_path: str) -> None:
        with open(log_path, "r", encoding="utf-8", errors="replace") as fh:
            tail = fh.read()[-2000:]
        self.problems.append(f"{what}: exit {child.code}")
        print(f"{what} exited {child.code}:\n{tail}", file=sys.stderr)

    def setup(self) -> Child:
        out = self._subdir("setup")
        log = os.path.join(out, "log.txt")
        child = run_child(pipeline_argv("setup", self.workload, self.paths),
                          log, self.deadline)
        if child.code != 0:
            self._failed("setup", child, log)
        return child

    def cli(self):
        """One CLI invocation; returns (child, checked outputs or None)."""
        out = self._subdir("cli")
        log = os.path.join(out, "log.txt")
        child = run_child(cli_argv(self.workload, self.paths, self.variant, out),
                          log, self.deadline)
        if child.code != 0:
            self._failed("cli", child, log)
            return child, None
        try:
            got = check.read_outputs(self.workload, out)
        except (OSError, KeyError, ValueError) as exc:
            self.problems.append(f"cli outputs unreadable: {exc!r}")
            return child, None
        found = check.compare(self.workload, got, self.reference)
        self.problems += [f"cli: {p}" for p in found]
        shutil.rmtree(out)
        return child, (None if found else got)

    def trace(self):
        """The traced pipeline child; returns (child, checked result or None)."""
        out = self._subdir("trace")
        log = os.path.join(out, "log.txt")
        result_path = os.path.join(out, "spans.json")
        extra = ["--variant", str(self.variant), "--out", out,
                 "--result", result_path]
        child = run_child(pipeline_argv("trace", self.workload, self.paths, extra),
                          log, self.deadline)
        if child.code != 0:
            self._failed("trace", child, log)
            return child, None
        with open(result_path, "r", encoding="utf-8") as fh:
            res = json.load(fh)
        # the run directory is removed at the end; the last spans stay readable
        shutil.copyfile(result_path, os.path.join(WORK, f"{self.workload}-spans.json"))
        outputs = res["outputs"]
        if "vtk_path" in outputs:
            outputs.update(check.vtk_counts(outputs.pop("vtk_path")))
        found = check.compare(self.workload, outputs, self.reference)
        self.problems += [f"trace: {p}" for p in found]
        return child, (None if found else res)

    def close(self) -> None:
        shutil.rmtree(self.dir, ignore_errors=True)


def tail_percentile(values):
    """Highest of a few percentiles with at least ten samples beyond it."""
    n = len(values)
    for p in (99.9, 99, 95, 90, 75, 50):
        if n - math.ceil(p / 100.0 * n) >= 10:
            return p, statistics.quantiles(values, n=1000, method="inclusive")[
                int(round(p * 10)) - 1]
    return None


def _describe(name, values, unit) -> str:
    tail = tail_percentile(values)
    tail_txt = (f"p{tail[0]:g} {tail[1]:.6g} {unit}" if tail
                else "no tail percentile (n < 20)")
    return (f"{name}: median {statistics.median(values):.6g} {unit}, "
            f"{tail_txt}, min {min(values):.6g}, max {max(values):.6g}, "
            f"n={len(values)}")


def measure_end_to_end(run: Run, seconds: float):
    setups = [run.setup().wall_s for _ in range(SETUP_REPEATS)]
    walls, rss, attempted, failed = [], [], 0, 0
    while not walls or (sum(walls) < seconds
                        and time.perf_counter() + 1.5 * max(walls) < run.deadline):
        child, outputs = run.cli()
        attempted += 1
        failed += outputs is None
        walls.append(child.wall_s)
        rss.append(child.rss_mb)
    print(_describe("wall_s", walls, "s"))
    print(_describe("setup_s", setups, "s"))
    print(_describe("peak_rss_mb", rss, "MB"))
    print(f"failed_frac: {failed}/{attempted} = {failed / attempted:.6g}, "
          f"n={attempted}")
    metrics = {"wall_s": statistics.median(walls),
               "setup_s": statistics.median(setups),
               "peak_rss_mb": statistics.median(rss)}
    return metrics, attempted, failed


def _dur(span) -> float:
    return span["end"] - span["start"]


def layer_values(res: dict, traced: Child) -> dict:
    """Per-layer values of one traced run, and the wall time of the CLI
    work it replayed (``replay_s``)."""
    spans = res["spans"]
    vals = defaultdict(float)
    covered = defaultdict(float)
    for s in spans:
        vals[s["name"] + "_s"] += _dur(s)
        if s["level"] is not None:
            vals[f"{s['name']}_s.n{s['level']}"] += _dur(s)
        if s["parent"] is not None:
            covered[s["parent"]] += _dur(s)
    for i, s in enumerate(spans):
        vals[s["name"].split(".")[0] + ".self_s"] += _dur(s) - covered[i]
    # counts arrive coarse to fine, so the unsuffixed value is the finest
    for c in res["counts"]:
        vals[c["name"]] = c["value"]
        if c["level"] is not None:
            vals[f"{c['name']}.n{c['level']}"] = c["value"]
    # probes are never nested in probes, but may sit inside a top-level span
    probe = sum(_dur(s) for s in spans if s["probe"])
    top = sum(_dur(s) for s in spans if s["parent"] is None)
    vals["trace.probe_s"] = probe
    vals["replay_s"] = traced.wall_s - probe - res["bench_s"]
    vals["trace.coverage"] = (top - probe) / vals["replay_s"]
    return vals


def measure_layers(run: Run, seconds: float):
    traced_vals, cli_walls, cli_cpus = [], [], []
    attempted = failed = 0
    pair_s = []
    while not pair_s or (sum(pair_s) < seconds
                         and time.perf_counter() + 1.5 * max(pair_s) < run.deadline):
        cli, cli_out = run.cli()
        traced, res = run.trace()
        attempted += 2
        failed += int(cli_out is None) + int(res is None)
        pair_s.append(cli.wall_s + traced.wall_s)
        if cli_out is None or res is None:
            continue
        found = check.compare(run.workload, res["outputs"], cli_out)
        run.problems += [f"trace vs cli: {p}" for p in found]
        failed += int(bool(found))
        cli_walls.append(cli.wall_s)
        cli_cpus.append(cli.cpu_s)
        traced_vals.append(layer_values(res, traced))
        print(f"trace: run {res['run']}, {len(res['spans'])} spans, traced "
              f"{traced.wall_s:.6g} s (replay {traced_vals[-1]['replay_s']:.6g} s)"
              f" vs cli {cli.wall_s:.6g} s")
    if not traced_vals:
        return {}, attempted, failed
    vals = {k: statistics.median(v[k] for v in traced_vals)
            for k in traced_vals[0]}
    vals["trace.overhead_s"] = vals.pop("replay_s") - statistics.median(cli_walls)
    vals["process.cpu_s"] = statistics.median(cli_cpus)
    missing = [m for m in REACHES[run.workload] if m not in vals]
    if missing:
        run.problems.append(f"trace produced no {', '.join(missing)}")
    print(f"trace: medians over {len(traced_vals)} pairs")
    return vals, attempted, failed


def environment() -> dict:
    ram = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    env = {"nproc": os.cpu_count(), "ram_mb": round(ram / 2**20),
           "python": sys.version.split()[0]}
    for pkg in ("numpy", "scipy", "sympy"):
        env[pkg] = importlib.metadata.version(pkg)
    env["threads"] = {v: CHILD_ENV[v] for v in THREAD_VARS}
    return env


def benchmark_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as fh:
        return json.load(fh)


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 deadline: float) -> dict:
    spec = benchmark_spec()
    run = Run(workload, seed, deadline)
    try:
        if trace:
            vals, attempted, failed = measure_layers(run, seconds)
            wanted = spec["per_layer"]
        else:
            vals, attempted, failed = measure_end_to_end(run, seconds)
            wanted = spec["end_to_end"]
    finally:
        run.close()
    for p in run.problems:
        print(f"check failed: {p}", file=sys.stderr)
    metrics = {m["name"]: {"value": vals.get(m["name"], 0), "unit": m["unit"]}
               for m in wanted}
    return {"correct": not run.problems, "attempted": attempted,
            "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="genstokes benchmark")
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "genstokes")):
        print(f"no genstokes sources under {SRC}; run from a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)

    print(json.dumps({"env": environment()}, sort_keys=True))
    names = ([w["name"] for w in benchmark_spec()["workloads"]]
             if args.workload == "all" else [args.workload])
    results = {}
    for name in names:
        print(f"== {name} (seed {args.seed}, trace {args.trace})")
        deadline = time.perf_counter() + RUN_BUDGET_S
        results[name] = run_workload(name, args.seed, args.seconds,
                                     bool(args.trace), deadline)
    if len(names) == 1:
        out = results[names[0]]
    else:
        out = {"correct": all(r["correct"] for r in results.values()),
               "attempted": sum(r["attempted"] for r in results.values()),
               "failed": sum(r["failed"] for r in results.values()),
               "metrics": {f"{w}/{m}": v for w, r in results.items()
                           for m, v in r["metrics"].items()}}
    print(json.dumps(out, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
