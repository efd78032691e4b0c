"""Patch grids and the patch/series round trip.

A forecast request is a batch of context series plus a horizon length.
Context and horizon are segmented *separately* so that no patch ever
mixes observed values with placeholder positions: the context is
left-padded with zeros to a multiple of the patch size, and the horizon,
right-padded, spans ``n_h`` placeholder patches. A placeholder patch is
all zeros, so only the context patches are materialized; the model
encodes one zero patch for all placeholders.
"""

from __future__ import annotations

import numpy as np

from . import numerics as nm
from .errors import DimensionError, ParameterError
from .numerics import Tensor


def grid_dims(context_len: int, horizon_len: int, patch_size: int) -> tuple[int, int, int, int]:
    """(context patches, horizon patches, left pad, right pad) for a window."""
    if patch_size < 1:
        raise ParameterError(f"patch size must be >= 1, got {patch_size}")
    n_c = -(-context_len // patch_size)
    n_h = -(-horizon_len // patch_size)
    return n_c, n_h, n_c * patch_size - context_len, n_h * patch_size - horizon_len


def segment_batch(contexts: np.ndarray, patch_size: int) -> np.ndarray:
    """(B, L) contexts to their (B, n_c, P) context patches, left-padded."""
    b, length = contexts.shape
    n_c, _, left_pad, _ = grid_dims(length, 0, patch_size)
    return np.concatenate([np.zeros((b, left_pad)), contexts], axis=1).reshape(b, n_c, patch_size)


def unpatch(rows: Tensor, horizon_len: int) -> Tensor:
    """(B, n_h, P) horizon patch rows to the (B, horizon_len) forecast series:
    the rows concatenated in order, right padding dropped."""
    shape = rows.data.shape
    if len(shape) != 3 or grid_dims(0, horizon_len, shape[2])[1] != shape[1]:
        raise DimensionError(f"horizon patch rows {shape} do not hold a horizon of {horizon_len}")
    b, n_h, p = shape
    return nm.slice_axis(nm.reshape(rows, (b, n_h * p)), 1, 0, horizon_len)
