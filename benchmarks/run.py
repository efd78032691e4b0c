"""Run one benchmark workload and print its metrics.

    python3 benchmarks/run.py --workload train_t96 --seed 1 --seconds 20 --trace 0

Run from the repository root. The package is imported from ``src/`` of
the checkout this file sits in, never from an installed copy. With
``--trace 0`` the end-to-end metrics are printed, with ``--trace 1`` the
per-layer metrics of a traced run. End-to-end timings are scaled to a
reference machine speed (see ``calibration.py``); the values as measured
are printed too, on lines starting ``unscaled``. The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
A copy of the result, with the machine description, is written to
``benchmarks/out/``.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import platform
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

# One BLAS thread, the CLI's deterministic default; must precede numpy's import.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = BENCH_DIR / "out"
WORKLOADS = ("train_t96", "train_t720", "forecast_sweep")
IMPORT_REPS = 7

sys.path.insert(0, str(BENCH_DIR))
import calibration  # noqa: E402  (after the BLAS pinning above)


def import_elastst() -> list[tuple[float, float]]:
    """Import the package from this checkout.

    Returns the time of ``import elastst`` (numpy included) in each of
    IMPORT_REPS fresh interpreters, since a process imports only once,
    each with the mean calibration kernel time just before and after it.
    """
    if not (SRC / "elastst" / "__init__.py").is_file():
        raise SystemExit(f"benchmark: no elastst package under {SRC}")
    compileall.compile_dir(SRC / "elastst", quiet=1)  # byte-compile outside the timed import
    probe = (
        "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
        "import elastst; print(time.perf_counter() - t)"
    )
    times = []
    for _ in range(IMPORT_REPS):
        before = calibration.kernel_time()
        run = subprocess.run([sys.executable, "-c", probe, str(SRC)], check=True, capture_output=True, text=True)
        times.append((float(run.stdout), (before + calibration.kernel_time()) / 2))
    sys.path.insert(0, str(SRC))
    import elastst

    if Path(elastst.__file__).resolve().parent != SRC / "elastst":
        raise SystemExit(f"benchmark: imported elastst from {elastst.__file__}, not {SRC}")
    return times


def declared_metrics(trace: bool) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def machine() -> dict:
    import numpy as np

    cpu = next(
        (line.split(":", 1)[1].strip() for line in Path("/proc/cpuinfo").read_text().splitlines()
         if line.startswith("model name")),
        platform.processor(),
    )
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "cpu": cpu,
        "cpus": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    imports = import_elastst()
    import workloads

    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    try:
        result = workloads.run(args.workload, args.seed, args.seconds, bool(args.trace), workdir, imports)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    units = declared_metrics(bool(args.trace))
    if set(units) != set(result.metrics) and not result.problems:
        raise SystemExit(f"benchmark: measured metrics differ from BENCHMARK.json: {sorted(set(units) ^ set(result.metrics))}")
    for problem in result.problems:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    for name, unit in units.items():
        if name in result.metrics:
            print(f"{name:<44} {result.metrics[name]:>14.6f} {unit}")
    for name, value in (result.unscaled or {}).items():
        print(f"unscaled {name:<35} {value:>14.6f}")
    print(f"attempted {result.attempted}, failed {result.failed}")
    line = {
        "correct": not result.problems,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {name: {"value": result.metrics[name], "unit": unit} for name, unit in units.items() if name in result.metrics},
    }
    record = dict(line, workload=args.workload, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, problems=result.problems, unscaled=result.unscaled, machine=machine())
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
