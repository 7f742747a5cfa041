"""Record ``references.json`` from the program as it is now.

    python3 perfbench/record.py [--workload NAME ...]

Runs the CLI once per workload and each of the ``inputs.N_VARIANTS`` input
variants, and stores the outputs that ``check.py`` compares.  The
references belong to the program at the commit that defined the benchmark;
re-record them only when the benchmark's inputs change, never to let a
changed program pass.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

import run  # pins the BLAS/OpenMP threads before numpy loads

import check
import inputs


def record_one(workload: str, variant: int, workdir: str) -> dict:
    os.makedirs(workdir, exist_ok=True)
    paths = inputs.write_inputs(workload, variant, workdir)
    if workload == "solve-grid-8":
        paths["f_expr"] = inputs.F_EXPR
    log = os.path.join(workdir, "log.txt")
    child = run.run_child(run.cli_argv(workload, paths, variant, workdir), log,
                          time.perf_counter() + 600.0)
    if child.code != 0:
        raise SystemExit(f"{workload} variant {variant}: exit {child.code}, see {log}")
    got = check.read_outputs(workload, workdir)
    problems = check.compare(workload, got, got)  # only the absolute checks can fail
    if problems:
        raise SystemExit(f"{workload} variant {variant}: {problems}")
    got.pop("rates", None)
    got.pop("residual", None)
    got.pop("positive", None)
    print(f"{workload} v{variant}: {child.wall_s:.2f} s", flush=True)
    return got


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", choices=run.WORKLOADS)
    args = parser.parse_args(argv)
    sys.path.insert(0, run.SRC)
    refs = check.load_references() if os.path.exists(check.REFERENCES) else {}
    for workload in args.workload or run.WORKLOADS:
        workdir = os.path.join(run.WORK, "record", workload)
        if workload == "mms-aniso":
            refs[workload] = record_one(workload, 0, workdir)
            continue
        refs[workload] = {str(v): record_one(workload, v, os.path.join(workdir, str(v)))
                          for v in range(inputs.N_VARIANTS)}
    with open(check.REFERENCES, "w", encoding="utf-8") as fh:
        json.dump(refs, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
