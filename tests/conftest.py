import os

# Pin math-library thread pools before numpy loads anywhere: single-core
# execution is both the deterministic default and what the runtime
# budgets assume.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.setdefault("OMP_NUM_THREADS", "1")
os.environ.setdefault("MKL_NUM_THREADS", "1")

import numpy as np


def make_sinusoid_values(n_steps=6000, n_variates=4, seed=0, noise=0.1):
    """Daily+weekly-style double sinusoid with Gaussian noise, one amplitude
    pair per variate. The standard synthetic benchmark for these tests."""
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    t = np.arange(n_steps, dtype=np.float64)
    columns = []
    for _ in range(n_variates):
        a = rng.uniform(0.5, 1.5)
        b = rng.uniform(0.5, 1.5)
        columns.append(
            a * np.sin(2.0 * np.pi * t / 24.0)
            + b * np.sin(2.0 * np.pi * t / 96.0)
            + rng.normal(0.0, noise, n_steps)
        )
    return np.stack(columns, axis=1)


def write_csv(path, values, timestamps=None, columns=None):
    columns = columns or [f"v{k}" for k in range(values.shape[1])]
    lines = ["ts," + ",".join(columns)]
    for i, row in enumerate(values):
        ts = str(i) if timestamps is None else timestamps[i]
        lines.append(ts + "," + ",".join(repr(float(x)) for x in row))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path
