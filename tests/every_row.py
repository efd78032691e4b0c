"""An every-row reference forward pass, the oracle for ``model.forward_batch``.

It computes what the model computed before placeholder rows entered the
stack as one constant row per patch size: every window's context and
placeholder patches go through the encoder as one (B, N, P) tensor, and
each block projects queries for all N rows (the last block only for the
placeholder rows), keys and values for the first ``n_keys`` rows. Same
ops, same float arithmetic per row; only the row sets differ. Its forward
values are therefore bitwise those of ``forward_batch``, and its
gradients differ only in sums over rows.

With ``use_key_mask=False`` every row, placeholders included, is a key:
the unmasked forward, which forfeits horizon invariance. The library has
no such mode. Criterion 2 uses this one to show that the mask is needed,
and the golden ``FORWARD[(h, False)]`` digests pin its bytes, the same
bytes the library's unmasked mode gave.
"""

import math

import numpy as np

import elastst.numerics as nm
from elastst import trope
from elastst.model import Forecast
from elastst.numerics import Tensor
from elastst.patching import grid_dims, segment_batch, unpatch


def every_row_block(h, n_keys, periods, weights, first_query=0):
    """Pre-norm block on (B, N, D); keys are the first ``n_keys`` rows and
    queries rows ``[first_query, N)``, which it returns."""
    b, n, _ = h.data.shape
    cfg = weights.config
    hd, heads = cfg.head_dim, cfg.n_heads
    normed = nm.layer_norm(h, weights.ln1_gain, weights.ln1_bias)
    h_keys = nm.slice_axis(normed, 1, 0, n_keys)
    h_queries = nm.slice_axis(normed, 1, first_query, n) if first_query else normed

    def project(x, w):
        rows = x.data.shape[1]
        return nm.transpose(nm.reshape(nm.matmul(x, w), (b, rows, heads, hd)), (0, 2, 1, 3))

    q = trope.rotate(project(h_queries, weights.wq), np.arange(first_query, n), periods)
    k = trope.rotate(project(h_keys, weights.wk), np.arange(n_keys), periods)
    v = project(h_keys, weights.wv)
    scores = nm.scale(nm.matmul(q, nm.transpose(k, (0, 1, 3, 2))), 1.0 / math.sqrt(hd))
    mixed = nm.matmul(nm.softmax_lastdim(scores), v)
    merged = nm.reshape(nm.transpose(mixed, (0, 2, 1, 3)), (b, n - first_query, heads * hd))
    rows = nm.slice_axis(h, 1, first_query, n) if first_query else h
    mid = nm.add(rows, nm.matmul(merged, weights.wo))
    return nm.add(mid, weights.ffn(nm.layer_norm(mid, weights.ln2_gain, weights.ln2_bias)))


def every_row_forward(state, contexts, horizon, use_key_mask=True):
    """``forward_batch`` with the encoder on all B·N patches and every
    layer on the concatenated rows."""
    cfg = state.config
    contexts = np.asarray(contexts, dtype=np.float64)
    b, length = contexts.shape
    if cfg.instance_norm:
        offset = contexts.mean(axis=1)
        denom = contexts.std(axis=1) + cfg.instance_norm_eps
        normed = (contexts - offset[:, None]) / denom[:, None]
    else:
        offset, denom, normed = np.zeros(b), np.ones(b), contexts
    per_size = []
    for p in cfg.patch_sizes:
        n_c, n_h, _, _ = grid_dims(length, horizon, p)
        patches = np.concatenate([segment_batch(normed, p), np.zeros((b, n_h, p))], axis=1)
        n_keys = n_c if use_key_mask else n_c + n_h
        h = state.coders[p].enc(Tensor(patches))
        for layer in state.layers[:-1]:
            h = every_row_block(h, n_keys, state.periods, layer)
        h = every_row_block(h, n_keys, state.periods, state.layers[-1], first_query=n_c)
        per_size.append(unpatch(state.coders[p].dec(h), horizon))
    acc = per_size[0]
    for series in per_size[1:]:
        acc = nm.add(acc, series)
    assembled = nm.scale(acc, 1.0 / len(per_size))
    values = assembled.data * denom[:, None] + offset[:, None]
    return Forecast(per_size=per_size, assembled=assembled, offset=offset, denom=denom, values=values)
