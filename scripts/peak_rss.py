"""Peak memory and wall time of one ``genstokes solve`` at a chosen mesh.

Writes the benchmark's solve-grid-8 inputs (the 17^3 shear grid B of seed
1301 from ``perfbench.inputs``, mu from ``perfbench.pipeline.MU`` and
``F_EXPR``) to a temporary directory, then runs
``python -m genstokes.cli --threads 1 solve --mesh N,N,N ...`` on them, with
its report and VTK output, in a child process whose address space is capped
by ``RLIMIT_AS`` and whose BLAS is pinned to one thread.  It prints the
child's wall time and peak resident set (``ru_maxrss`` from ``os.wait4``),
or, when the child fails, its exit code.

Run from the repository root (the child imports genstokes from ``src``):

    python scripts/peak_rss.py --mesh 32 [--limit-gb 7]

The exit code is the child's: 0 when it completed, 128 + n when signal n
ended it.
"""

from __future__ import annotations

import argparse
import os
import resource
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [ROOT, os.path.join(ROOT, "src")]

SEED = 1301
WORKLOAD = "solve-grid-8"


def measure(mesh_n: int, limit_gb: float) -> int:
    """Run ``solve`` in a child capped at ``limit_gb``; print its wall time
    and peak RSS, or its exit code.  Returns the exit code."""
    from perfbench.inputs import F_EXPR, write_inputs
    from perfbench.pipeline import MU

    limit = int(limit_gb * 2**30)
    # the child imports genstokes from this checkout, whatever the caller's path
    path = os.pathsep.join(filter(None, [os.path.join(ROOT, "src"),
                                         os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path, OMP_NUM_THREADS="1",
               OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    with tempfile.TemporaryDirectory() as workdir:
        b_grid = write_inputs(WORKLOAD, SEED, workdir)["b_grid"]
        argv = [sys.executable, "-m", "genstokes.cli", "--threads", "1", "--out", workdir,
                "solve", "--mu", ",".join(f"{v:g}" for v in MU[WORKLOAD]),
                "--mesh", f"{mesh_n},{mesh_n},{mesh_n}", "--b-grid", b_grid,
                "--f-expr", F_EXPR]
        start = time.perf_counter()
        child = subprocess.Popen(
            argv, env=env,
            preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)))
        _, status, usage = os.wait4(child.pid, 0)
        wall = time.perf_counter() - start
    code = os.waitstatus_to_exitcode(status)
    if code == 0:
        print(f"mesh {mesh_n}: wall {wall:.1f} s, peak RSS "
              f"{usage.ru_maxrss / 1024:.1f} MB (limit {limit_gb:g} GB)")
    else:
        print(f"mesh {mesh_n}: exit code {code} after {wall:.1f} s "
              f"(limit {limit_gb:g} GB)")
    return code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--mesh", type=int, required=True, help="divisions per axis")
    parser.add_argument("--limit-gb", type=float, default=7.0,
                        help="the child's address-space limit in GB")
    args = parser.parse_args(argv)
    code = measure(args.mesh, args.limit_gb)
    return code if code >= 0 else 128 - code  # killed by signal -code, as a shell reports it


if __name__ == "__main__":
    sys.exit(main())
