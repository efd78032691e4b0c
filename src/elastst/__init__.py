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

from .backbone import AttentionConfig, LayerWeights, attention, transformer_block
from .data_io import Dataset, Scaler, SplitSpec, load_csv, split_and_scale
from .data_io import sample_windows, stride_windows, window_values
from .evaluation import MetricReport, MetricRow, nmae, nrmse, varied_horizon_eval
from .model import (
    ElasTSTConfig,
    Forecast,
    ModelState,
    composite_loss,
    forward_batch,
    load_model,
    read_checkpoint,
    write_checkpoint,
)
from .numerics import Graph, Tensor, backward
from .patching import unpatch
from .training import (
    Checkpoint,
    TrainConfig,
    TrainData,
    adam_step,
    reweight_vector,
    train,
)
from .trope import PeriodSpec, TunablePeriods, init_periods, rotate

__version__ = "0.1.0"
