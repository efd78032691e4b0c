"""Windows, patch grids, and the patch/series round trip.

A forecast request is a context series plus a horizon length. Context and
horizon are padded and segmented *separately* so that no patch ever mixes
observed values with placeholder positions: the context is left-padded
with zeros to a multiple of the patch size, the horizon is materialized
as zeros and right-padded. Context patches come first and placeholder
patches after them, so for any horizon length the attention keys, the
context patches, are exactly the first ``context_patches`` rows.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, ParameterError


@dataclass(frozen=True)
class Window:
    """A forecasting task: context values (most recent last) and horizon length."""

    context: np.ndarray
    horizon_len: int

    def __post_init__(self):
        ctx = np.asarray(self.context, dtype=np.float64)
        if ctx.ndim != 1 or ctx.shape[0] < 1:
            raise ParameterError(f"window context must be a non-empty 1-D series, got shape {ctx.shape}")
        if not np.all(np.isfinite(ctx)):
            raise ParameterError("window context contains non-finite values")
        if self.horizon_len < 1:
            raise ParameterError(f"horizon length must be >= 1, got {self.horizon_len}")
        object.__setattr__(self, "context", ctx)


@dataclass(frozen=True)
class PatchGrid:
    """Padded, segmented view of one context+placeholder window."""

    patch_size: int
    patches: np.ndarray  # (N, P), context patches first
    left_pad: int
    right_pad: int
    context_patches: int
    horizon_patches: int

    @property
    def total_patches(self) -> int:
        return self.context_patches + self.horizon_patches


def grid_dims(context_len: int, horizon_len: int, patch_size: int) -> tuple[int, int, int, int]:
    """(context patches, horizon patches, left pad, right pad) for a window."""
    if patch_size < 1:
        raise ParameterError(f"patch size must be >= 1, got {patch_size}")
    n_c = -(-context_len // patch_size)
    n_h = -(-horizon_len // patch_size)
    return n_c, n_h, n_c * patch_size - context_len, n_h * patch_size - horizon_len


def segment(window: Window, patch_size: int) -> PatchGrid:
    """Segment a window into non-overlapping context and placeholder patches."""
    n_c, n_h, left_pad, right_pad = grid_dims(window.context.shape[0], window.horizon_len, patch_size)
    return PatchGrid(
        patch_size=patch_size,
        patches=segment_batch(window.context[None, :], window.horizon_len, patch_size)[0],
        left_pad=left_pad,
        right_pad=right_pad,
        context_patches=n_c,
        horizon_patches=n_h,
    )


def segment_batch(contexts: np.ndarray, horizon_len: int, patch_size: int) -> np.ndarray:
    """(B, L) contexts to (B, N, P) patches: left-padded context patches
    first, placeholder (zero) patches last."""
    b, length = contexts.shape
    n_c, n_h, left_pad, _ = grid_dims(length, horizon_len, patch_size)
    ctx = np.concatenate([np.zeros((b, left_pad)), contexts], axis=1).reshape(b, n_c, patch_size)
    return np.concatenate([ctx, np.zeros((b, n_h, patch_size))], axis=1)


def unpatch(horizon_patch_outputs: np.ndarray, grid: PatchGrid) -> np.ndarray:
    """Reassemble horizon patch rows into the first T forecast values."""
    rows = np.asarray(horizon_patch_outputs, dtype=np.float64)
    expected = (grid.horizon_patches, grid.patch_size)
    if rows.shape != expected:
        raise DimensionError(f"horizon patch outputs must have shape {expected}, got {rows.shape}")
    horizon_len = grid.horizon_patches * grid.patch_size - grid.right_pad
    return rows.reshape(-1)[:horizon_len].copy()
