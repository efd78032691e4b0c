"""The softmax, rotary and transpose kernels give the bytes of their earlier
formulas (``helpers.softmax_oracle``, ``rotate_oracle``,
``inverse_axes_oracle``), forward and backward, on any layout: C order,
transposed (the last two axes swapped in memory) and broadcast (one axis
of stride 0).

One exception: where rotary's input or gradient holds NaN or infinities,
a NaN result may differ in its sign bit. The table form adds its two
products in the other order on odd lanes and puts the minus sign on
another factor, and x86 passes on the sign of the first NaN operand.
Every other result, and every result on finite input, is byte for byte
the same."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import elastst.numerics as nm
from elastst.numerics import Graph, Tensor
from elastst.trope import TunablePeriods, rotate
from helpers import inverse_axes_oracle, rotate_oracle, softmax_oracle

SPECIALS = [-np.inf, np.inf, np.nan, 0.0, -0.0, 1e300, -1e300]
LAYOUTS = ("contiguous", "transposed", "broadcast")


@st.composite
def laid_out(draw, shape, finite):
    """A float64 array of ``shape`` in one of ``LAYOUTS``: ``finite``
    entries and up to three of ``SPECIALS`` at drawn places."""
    layout = draw(st.sampled_from(LAYOUTS))
    if layout == "transposed" and len(shape) < 2:
        layout = "contiguous"
    stored = shape
    if layout == "transposed":
        stored = shape[:-2] + (shape[-1], shape[-2])
    elif layout == "broadcast":
        axis = draw(st.integers(0, len(shape) - 1))
        stored = shape[:axis] + (1,) + shape[axis + 1 :]
    a = draw(hnp.arrays(np.float64, stored, elements=finite))
    flat = a.reshape(-1)
    for _ in range(draw(st.integers(0, 3))):
        flat[draw(st.integers(0, flat.size - 1))] = draw(st.sampled_from(SPECIALS))
    if layout == "transposed":
        return a.swapaxes(-1, -2)
    return np.broadcast_to(a, shape) if layout == "broadcast" else a


def same_bytes(a: np.ndarray, b: np.ndarray) -> bool:
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def same_bytes_but_nan_sign(a: np.ndarray, b: np.ndarray) -> bool:
    """NaN where the other is NaN, and the same bytes everywhere else."""
    nan = np.isnan(a)
    return a.shape == b.shape and np.array_equal(nan, np.isnan(b)) and a[~nan].tobytes() == b[~nan].tobytes()


def layout(a: np.ndarray) -> tuple:
    """Memory order of ``a``'s axes longer than 1, which later reductions follow."""
    return tuple((n, s) for n, s in zip(a.shape, a.strides) if n > 1)


def run_op(op, x: Tensor, g: np.ndarray) -> np.ndarray:
    """The output of ``op(x)``, after its one tape node ran backward on ``g``
    itself, whose layout the backward's reductions follow."""
    with Graph() as graph:
        out = op(x)
    ((_, backward_fn),) = graph._nodes
    backward_fn(g)
    return out.data


lead_shapes = st.lists(st.integers(1, 4), min_size=0, max_size=2).map(tuple)
grad_entries = st.floats(-1e3, 1e3)


@st.composite
def softmax_cases(draw):
    shape = draw(lead_shapes) + (draw(st.integers(1, 80)),)
    return draw(laid_out(shape, st.floats(-30.0, 30.0))), draw(laid_out(shape, grad_entries))


@settings(max_examples=300, deadline=None)
@given(softmax_cases())
def test_softmax_matches_the_np_max_formula(case):
    x, g = case
    with np.errstate(all="ignore"):
        want_y, want_dx = softmax_oracle(x, g)
        xt = Tensor(x, requires_grad=True)
        y = run_op(nm.softmax_lastdim, xt, g)
    assert same_bytes(y, want_y) and layout(y) == layout(want_y)
    assert same_bytes(xt.grad, want_dx)


def test_softmax_special_rows():
    """A NaN or +inf entry makes its row NaN, -inf maps to 0, and ±0 and ±1e300 act as numbers."""
    x = np.array([[np.nan, 1.0, -np.inf], [np.inf, 0.0, 1.0], [-0.0, 0.0, -np.inf], [1e300, -1e300, 0.0]])
    with np.errstate(all="ignore"):
        y = nm.softmax_lastdim(Tensor(x)).data
        want, _ = softmax_oracle(x, np.ones_like(x))
    assert same_bytes(y, want)
    assert np.isnan(y[:2]).all() and y[2].tolist() == [0.5, 0.5, 0.0] and y[3].tolist() == [1.0, 0.0, 0.0]


@st.composite
def rotate_cases(draw):
    half = draw(st.integers(1, 4))
    n = draw(st.integers(1, 6))
    shape = draw(lead_shapes) + (n, 2 * half)
    positions = draw(st.lists(st.integers(0, 300), min_size=n, max_size=n))
    log_periods = draw(hnp.arrays(np.float64, (half,), elements=st.floats(-1.0, 7.0)))
    x = draw(laid_out(shape, st.floats(-1e6, 1e6)))
    g = draw(laid_out(shape, grad_entries))
    return x, positions, log_periods, g


@settings(max_examples=300, deadline=None)
@given(rotate_cases())
def test_rotate_matches_the_pair_formulas(case):
    x, positions, log_periods, g = case
    periods = TunablePeriods(Tensor(log_periods.copy(), requires_grad=True))
    with np.errstate(all="ignore"):
        want_y, want_dx, want_dlogp = rotate_oracle(x, positions, log_periods, g)
        xt = Tensor(x, requires_grad=True)
        y = run_op(lambda t: rotate(t, positions, periods), xt, g)
    assert same_bytes_but_nan_sign(y, want_y) and layout(y) == layout(want_y)
    assert same_bytes_but_nan_sign(xt.grad, want_dx)
    assert same_bytes_but_nan_sign(periods.log_periods.grad, want_dlogp)
    if np.isfinite(x).all() and np.isfinite(g).all():
        assert same_bytes(y, want_y) and same_bytes(xt.grad, want_dx)
        assert same_bytes(periods.log_periods.grad, want_dlogp)


@pytest.mark.parametrize("axes", list(itertools.permutations(range(4))), ids=str)
def test_transpose_backward_inverts_every_permutation(axes):
    rng = np.random.default_rng(sum(a * 4**i for i, a in enumerate(axes)))
    x = rng.standard_normal((2, 3, 4, 5))
    g = rng.standard_normal(tuple(x.shape[a] for a in axes))
    xt = Tensor(x, requires_grad=True)
    out = run_op(lambda t: nm.transpose(t, axes), xt, g)
    assert same_bytes(out, np.transpose(x, axes))
    want = np.transpose(g, inverse_axes_oracle(axes))
    assert same_bytes(xt.grad, want) and xt.grad.strides == want.strides
