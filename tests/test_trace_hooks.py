"""The traced benchmark (``benchmarks/run.py --trace 1``) wraps ``elastst``
functions by module attribute; these tests fail when one of those
attributes is renamed or deleted, or is not restored afterwards."""

import importlib.util
from pathlib import Path

import numpy as np

from elastst import model, numerics, training
from elastst.backbone import AttentionConfig
from elastst.trope import PeriodSpec

TRACER_PATH = Path(__file__).resolve().parents[1] / "benchmarks" / "tracer.py"


def load_tracer():
    # loaded from its file under a name of its own: putting benchmarks/ on
    # sys.path could shadow this directory's conftest module
    spec = importlib.util.spec_from_file_location("elastst_benchmark_tracer", TRACER_PATH)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def patched_sites(tracer):
    spans = {**tracer.FUNCTION_SPANS, **tracer.OP_SPANS}
    return [site for sites in spans.values() for site in sites] + [(numerics, "matmul"), (numerics, "record_op")]


def test_every_hook_resolves_and_is_restored():
    tracer = load_tracer()
    sites = patched_sites(tracer)
    originals = [getattr(module, attr) for module, attr in sites]
    with tracer.Tracer().installed():
        assert all(getattr(module, attr) is not fn for (module, attr), fn in zip(sites, originals))
    assert all(getattr(module, attr) is fn for (module, attr), fn in zip(sites, originals))


def test_installed_tracer_records_a_forward_pass():
    config = model.ElasTSTConfig(
        patch_sizes=(4, 8),
        period_spec=PeriodSpec(1.0, 100.0, 8),
        attention=AttentionConfig(d_model=16, n_heads=2, head_dim=8, d_ff=24, n_layers=1),
        lookback=16,
    )
    tracer = load_tracer()
    with tracer.Tracer().installed() as t:
        model.forward_batch(model.ModelState.init(config), np.zeros((2, 16)), 8)
    totals = t.take()
    assert totals.calls["model.forward_batch"] == 1
    assert totals.calls["patching.segment_batch"] == 2  # one per patch size
    assert totals.counters["model.forward_batch.patch_rows"] == 2 * (4 + 2 + 2 + 1)


def test_installed_tracer_times_the_one_checkpoint_read(tmp_path):
    config = model.ElasTSTConfig(
        patch_sizes=(4,),
        period_spec=PeriodSpec(1.0, 100.0, 4),
        attention=AttentionConfig(d_model=8, n_heads=1, head_dim=4, d_ff=8, n_layers=1),
        lookback=8,
    )
    state = model.ModelState.init(config)
    zeros = [np.zeros_like(t.data) for _, t in state.trainable()]
    path = tmp_path / "best.ckpt"
    training.save_training_checkpoint(path, training.Checkpoint(state, zeros, zeros, 0, 0, float("inf")))
    tracer = load_tracer()
    for load in (model.load_model, training.load_training_checkpoint):
        with tracer.Tracer().installed() as t:
            load(path)
        assert t.take().calls["model.read_checkpoint"] == 1, load.__name__


def test_the_tracer_leaves_the_bytes_alone():
    """The tracer wraps ``record_op`` and every backward closure; a training
    step's forecast, loss and leaf gradients keep their bytes under it."""
    config = model.ElasTSTConfig(
        patch_sizes=(4, 8),
        period_spec=PeriodSpec(1.0, 100.0, 8),
        attention=AttentionConfig(d_model=16, n_heads=2, head_dim=8, d_ff=24, n_layers=2),
        lookback=16,
    )
    rng = np.random.default_rng(3)
    contexts, targets = rng.standard_normal((4, 16)), rng.standard_normal((4, 12))

    def step():
        state = model.ModelState.init(config, seed=5)
        with numerics.Graph():
            forecast = training.forward_batch(state, contexts, 12)
            loss = training.composite_loss(forecast, targets, np.full(12, 1.0 / 48))
        training.backward(loss)
        return [forecast.values.tobytes(), loss.data.tobytes()] + [t.grad.tobytes() for _, t in state.trainable()]

    plain = step()
    with load_tracer().Tracer().installed() as t:
        traced = step()
    assert t.take().counters["numerics.tape_ops"] > 0
    assert traced == plain
