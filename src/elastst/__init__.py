"""Train-once, forecast-any-horizon time-series transformer.

The model segments the context into patches at several sizes, fills
the requested horizon with placeholder patches of zeros, runs a shared
self-attention backbone with tunable rotary position embeddings, and
averages the per-size forecasts. Because only context patches are
attention keys, every already-predicted position is bitwise invariant
to extending the horizon.

Importing the package pins the BLAS thread pools to one thread, the
deterministic setting, unless the caller has already set them. The pin
only takes effect when this package is imported before numpy.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

from . import backbone, data_io, evaluation, model, numerics, patching, training, trope
