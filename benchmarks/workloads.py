"""The benchmark's workloads, their inputs, and the checks on their outputs.

Every workload runs whole *rounds* of one fixed piece of work for the
measured time, then checks the outputs. A round restarts from the same
inputs, so every round of a run computes the same bytes; the checks
require that too.

* ``train_t96`` / ``train_t720``: a round is one ``training.train`` call,
  writing the best checkpoint and the log as ``elastst train`` does.
  ``train_t96`` starts each round from a fresh ``ModelState.init``;
  ``train_t720`` fine-tunes a copy of a model trained at ``t_max=96``
  before set-up, since its two steps per round would leave a fresh model
  untrained.
* ``forecast_sweep``: a round is ``forward_batch`` at B=32 for each sweep
  horizon, then one ``varied_horizon_eval`` over the same horizons, on a
  checkpoint written by a short training run before set-up.

Every workload reports every end-to-end metric. Those its rounds do not
produce are sampled by a short probe after each round: the train
workloads time ``forward_batch`` and the evaluation at ``t_max`` on the
model the round trained, and ``forecast_sweep`` times a short training
run and two more H=96 forecasts.
"""

from __future__ import annotations

import contextlib
import datetime
import hashlib
import itertools
import resource
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from elastst import data_io, evaluation, model, training
from elastst.backbone import AttentionConfig
from elastst.errors import ElaststError
from elastst.trope import PeriodSpec

import reference
import tracer as tracing
import calibration

N_STEPS = 10_000  # validation split (10%) must hold lookback + 720
N_VARIATES = 4
LOOKBACK = 96
BATCH = 32
SPLIT = data_io.SplitSpec(0.7, 0.1, 0.2)
CLI_T_MAX = 720  # `elastst evaluate` sizes its splits with the default train.t_max
SETUP_REPS = 7
SWEEP_HORIZONS = (96, 192, 336, 720, 1024)
EVAL_STRIDE = 192  # windows overlap at H >= 336; a round fits about 6 s
SWEEP_TRAIN = dict(t_max=96, epochs=1, batches_per_epoch=4)  # the sweep's training probe
WARM_START = dict(t_max=96, epochs=2, batches_per_epoch=10)  # train_t720's starting model: a train_t96 round
CHECK_STRIDE = 48  # persistence check over 100+ overlapping windows, not the handful at stride t_max
REL_TOL = 1e-11  # engine vs numpy reference, relative to the largest value compared; float64 round-off here is ~1e-14


def model_config() -> model.ElasTSTConfig:
    """The acceptance-criterion shape: patch sizes 8/16/32, d_model 64, 2 layers."""
    return model.ElasTSTConfig(
        patch_sizes=(8, 16, 32),
        period_spec=PeriodSpec(p_min=1.0, p_max=1000.0, head_dim=16),
        attention=AttentionConfig(d_model=64, n_heads=4, head_dim=16, d_ff=128, n_layers=2),
        lookback=LOOKBACK,
    )


# ---------------------------------------------------------------------------
# inputs


def synthetic_values(seed: int) -> np.ndarray:
    """(N_STEPS, N_VARIATES) hourly series: level + daily + weekly sinusoids + noise."""
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    t = np.arange(N_STEPS, dtype=np.float64)
    columns = []
    for _ in range(N_VARIATES):
        level, daily, weekly = rng.uniform(-1.0, 1.0), rng.uniform(0.5, 1.5), rng.uniform(0.5, 1.5)
        phase_d, phase_w = rng.uniform(0.0, 2.0 * np.pi, 2)
        columns.append(
            level
            + daily * np.sin(2.0 * np.pi * t / 24.0 + phase_d)
            + weekly * np.sin(2.0 * np.pi * t / 168.0 + phase_w)
            + rng.normal(0.0, 0.1, N_STEPS)
        )
    return np.stack(columns, axis=1)


def write_csv(path: Path, values: np.ndarray) -> None:
    start = datetime.datetime(2020, 1, 1)
    hour = datetime.timedelta(hours=1)
    lines = ["date," + ",".join(f"v{k}" for k in range(values.shape[1]))]
    for i, row in enumerate(values):
        lines.append(f"{start + i * hour:%Y-%m-%d %H:%M:%S}," + ",".join(repr(float(x)) for x in row))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def sample_contexts(values: np.ndarray, count: int, seed: int) -> np.ndarray:
    """``count`` lookback windows from random variates and start positions."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, 1]))
    variates = rng.integers(0, values.shape[1], count)
    starts = rng.integers(0, values.shape[0] - LOOKBACK + 1, count)
    return np.stack([values[s : s + LOOKBACK, k] for s, k in zip(starts, variates)])


def load_splits(csv_path: Path, min_len: int):
    ds = data_io.load_csv(csv_path)
    train_v, val_v, test_v, scaler = data_io.split_and_scale(ds, SPLIT, min_len=min_len)
    return ds, train_v, val_v, test_v, scaler


def digest(*parts: bytes) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part)
    return h.hexdigest()


def log_bytes(log: list[dict]) -> bytes:
    """The training log without its wall-clock column."""
    return repr([(r["epoch"], r["train_loss"], r["val_nmae"], r["val_nrmse"]) for r in log]).encode()


# ---------------------------------------------------------------------------
# correctness checks shared by the workloads


def original_scale_test(values: np.ndarray, test_len: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(raw test split, train mean, train std) computed without elastst."""
    train = values[: int(round(N_STEPS * SPLIT.train))]
    return values[N_STEPS - test_len :], train.mean(axis=0), train.std(axis=0)


def windows(series: np.ndarray, horizon: int, stride: int) -> tuple[np.ndarray, np.ndarray, list[int]]:
    """Strided (contexts, targets, variate) over each variate in turn."""
    contexts, targets, variates = [], [], []
    for k in range(series.shape[1]):
        for s in range(0, series.shape[0] - LOOKBACK - horizon + 1, stride):
            contexts.append(series[s : s + LOOKBACK, k])
            targets.append(series[s + LOOKBACK : s + LOOKBACK + horizon, k])
            variates.append(k)
    return np.array(contexts), np.array(targets), variates


def check_close(problems: list[str], what: str, got, want) -> None:
    err = reference.relative_error(got, want)
    if not err <= REL_TOL:
        problems.append(f"{what}: relative error {err:.3e} > {REL_TOL:.0e}")


# ---------------------------------------------------------------------------
# workloads


class Job:
    """One workload's inputs, phases and checks.

    ``prepare`` runs once before set-up; ``setup_once`` is the set-up a
    user pays per process, repeated; ``round`` is the measured unit and
    returns a digest of every output it made; ``probe`` follows each
    round, untraced, and samples the end-to-end metrics that the rounds
    do not produce. Interleaving the probes with the rounds spreads their
    samples over the whole run, which keeps their medians steady on a
    machine whose speed drifts. ``check`` appends a line per failed check.
    """

    steps_per_round = 0

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir
        self.values = synthetic_values(seed)
        self.csv_path = workdir / "series.csv"
        write_csv(self.csv_path, self.values)
        self.samples: dict[str, list[tuple[float, float]]] = {}  # metric -> (value, kernel time around it)
        self.attempted = 0

    def add(self, name: str, value: float, kernel_s: float) -> None:
        self.samples.setdefault(name, []).append((value, kernel_s))

    @staticmethod
    def timed(fn, *args):
        """``fn(*args)``, its wall time, and the mean calibration kernel time just before and after it."""
        before = calibration.kernel_time()
        start = time.perf_counter()
        out = fn(*args)
        seconds = time.perf_counter() - start
        return out, seconds, (before + calibration.kernel_time()) / 2

    def train(self, data, config: training.TrainConfig, start: model.ModelState | None = None):
        """``training.train`` from a copy of ``start`` or a fresh model; records its step rate."""
        state = model.ModelState.init(model_config(), seed=self.seed) if start is None else start.copy()
        steps = config.epochs * config.batches_per_epoch
        self.attempted += steps
        best, seconds, kernel_s = self.timed(training.train, state, data, config)
        self.add("train_steps_per_s", steps / seconds, kernel_s)
        return state, best

    def forward(self, state, contexts: np.ndarray, horizon: int) -> np.ndarray:
        """One ``forward_batch`` call; records its latency at H=96 and H=1024."""
        self.attempted += 1
        forecast, seconds, kernel_s = self.timed(model.forward_batch, state, contexts, horizon)
        if horizon in (96, 1024):
            self.add(f"forecast_h{horizon}_ms", 1e3 * seconds, kernel_s)
        return forecast.values

    def evaluate(self, state, horizons, stride=None):
        """One ``varied_horizon_eval`` call on the test split, as ``elastst evaluate`` makes it."""
        self.attempted += len(horizons)
        report, seconds, kernel_s = self.timed(lambda: evaluation.varied_horizon_eval(
            state, self.test_v, LOOKBACK, list(horizons), self.scaler, stride=stride,
            dataset=self.csv_path.stem, checkpoint_id=self.workdir.name,
        ))
        self.add("eval_s", seconds, kernel_s)
        return report

    def prepare(self) -> None:
        pass


class TrainJob(Job):
    def __init__(self, seed: int, workdir: Path, t_max: int, epochs: int, batches_per_epoch: int, warm_start=None):
        super().__init__(seed, workdir)
        self.t_max = t_max
        self.warm_start = warm_start
        self.start = None
        self.steps_per_round = epochs * batches_per_epoch
        self.config = training.TrainConfig(
            t_max=t_max, epochs=epochs, batches_per_epoch=batches_per_epoch, batch_size=BATCH,
            seed=seed, checkpoint_path=str(workdir / "best.ckpt"), log_path=str(workdir / "train_log.csv"),
        )

    def prepare(self) -> None:
        """Train the model that rounds start from, if the workload fine-tunes one."""
        if self.warm_start is None:
            return
        _, train_v, val_v, _, scaler = load_splits(self.csv_path, LOOKBACK + self.t_max)
        data = training.TrainData(train_values=train_v, val_values=val_v, scaler=scaler)
        config = training.TrainConfig(**self.warm_start, batch_size=BATCH, seed=self.seed)
        self.start = training.train(model.ModelState.init(model_config(), seed=self.seed), data, config).state

    def setup_once(self) -> None:
        ds, train_v, val_v, self.test_v, self.scaler = load_splits(self.csv_path, LOOKBACK + self.t_max)
        self.data = training.TrainData(train_values=train_v, val_values=val_v, scaler=self.scaler, name=ds.name)
        self.state = model.ModelState.init(model_config(), seed=self.seed)
        self.contexts = sample_contexts(self.test_v, BATCH, self.seed)

    def round(self) -> str:
        self.state, self.best = self.train(self.data, self.config, self.start)
        params = b"".join(t.data.tobytes() for _, t in self.state.parameters())
        ckpt = Path(self.config.checkpoint_path).read_bytes()
        return digest(ckpt, params, log_bytes(self.best.log))

    def probe(self) -> None:
        for horizon in (96, 96, 96, 96, 96, 96, 1024):
            self.forward(self.best.state, self.contexts, horizon)
        for _ in range(3):
            self.evaluate(self.best.state, [self.t_max])

    def check(self, problems: list[str]) -> None:
        for label, state in (("trained", self.state), ("best", self.best.state)):
            bad = [n for n, t in state.parameters() if not np.all(np.isfinite(t.data))]
            if bad:
                problems.append(f"{label} parameters not finite: {bad[:3]}")
        reloaded, _, _ = model.load_model(self.config.checkpoint_path)
        contexts = sample_contexts(self.test_v, 8, self.seed + 1)
        got = model.forward_batch(reloaded, contexts, self.t_max).values
        if not np.array_equal(got, model.forward_batch(self.best.state, contexts, self.t_max).values):
            problems.append("reloaded best checkpoint forecasts differ from the returned state's")
        # persistence: the last context value repeated over the horizon
        raw_test, _, _ = original_scale_test(self.values, len(self.test_v))
        ctx, target, _ = windows(raw_test, self.t_max, CHECK_STRIDE)
        naive = reference.nmae(target, np.repeat(ctx[:, -1:], self.t_max, axis=1))
        (row,) = evaluation.varied_horizon_eval(
            self.best.state, self.test_v, LOOKBACK, [self.t_max], self.scaler, stride=CHECK_STRIDE
        ).rows
        if not row.nmae < naive:
            problems.append(f"test NMAE {row.nmae:.4f} at t_max={self.t_max} not below persistence {naive:.4f}")


class SweepJob(Job):
    def prepare(self) -> None:
        """Train briefly and write the checkpoint that set-up loads."""
        _, train_v, val_v, _, scaler = load_splits(self.csv_path, LOOKBACK + CLI_T_MAX)
        self.data = training.TrainData(train_values=train_v, val_values=val_v, scaler=scaler)
        self.ckpt_path = self.workdir / "model.ckpt"
        self.probe_config = training.TrainConfig(
            **SWEEP_TRAIN, batch_size=BATCH, seed=self.seed, checkpoint_path=str(self.workdir / "probe.ckpt")
        )
        config = training.TrainConfig(**SWEEP_TRAIN, batch_size=BATCH, seed=self.seed, checkpoint_path=str(self.ckpt_path))
        self.train(self.data, config)

    def setup_once(self) -> None:
        _, _, _, self.test_v, self.scaler = load_splits(self.csv_path, LOOKBACK + CLI_T_MAX)
        self.state, _, _ = model.load_model(self.ckpt_path)
        self.contexts = sample_contexts(self.test_v, BATCH, self.seed)

    def round(self) -> str:
        self.forecasts = {h: self.forward(self.state, self.contexts, h) for h in SWEEP_HORIZONS}
        self.report = self.evaluate(self.state, SWEEP_HORIZONS, EVAL_STRIDE)
        return digest(*(v.tobytes() for v in self.forecasts.values()), self.report.to_csv().encode())

    def probe(self) -> None:
        self.train(self.data, self.probe_config)
        for _ in range(4):
            self.forward(self.state, self.contexts, 96)

    def check(self, problems: list[str]) -> None:
        base = self.forecasts[96]
        for horizon, values in self.forecasts.items():
            if not np.array_equal(values[:, :96], base):
                problems.append(f"first 96 steps at H={horizon} differ from the H=96 forecast")
        ref = reference.ReferenceModel.load(self.ckpt_path)
        for horizon in (96, 1024):
            check_close(problems, f"forward_batch H={horizon}", self.forecasts[horizon], ref.forecast(self.contexts, horizon))
        raw_test, mean, std = original_scale_test(self.values, len(self.test_v))
        scaled = (raw_test - mean) / std
        for row in self.report.rows:
            per_variate = (len(self.test_v) - LOOKBACK - row.horizon) // EVAL_STRIDE + 1
            if row.windows != N_VARIATES * per_variate:
                problems.append(f"H={row.horizon}: {row.windows} windows, closed form gives {N_VARIATES * per_variate}")
            ctx, target, variates = windows(scaled, row.horizon, EVAL_STRIDE)
            k = np.array(variates)[:, None]
            actual = target * std[k] + mean[k]
            pred = ref.forecast(ctx, row.horizon) * std[k] + mean[k]
            check_close(problems, f"NMAE H={row.horizon}", row.nmae, reference.nmae(actual, pred))
            check_close(problems, f"NRMSE H={row.horizon}", row.nrmse, reference.nrmse(actual, pred))


WORKLOADS = {
    "train_t96": lambda seed, workdir: TrainJob(seed, workdir, t_max=96, epochs=2, batches_per_epoch=10),
    "train_t720": lambda seed, workdir: TrainJob(seed, workdir, t_max=720, epochs=1, batches_per_epoch=2, warm_start=WARM_START),
    "forecast_sweep": SweepJob,
}


# ---------------------------------------------------------------------------
# measurement


@dataclass
class Result:
    metrics: dict[str, float]
    attempted: int
    failed: int
    problems: list[str]
    unscaled: dict[str, float] | None = None  # end-to-end timings as measured, before calibration


# end-to-end timings: 1 for a duration, -1 for a rate (see calibration.scaled)
POWER = {"setup_s": 1, "forecast_h96_ms": 1, "forecast_h1024_ms": 1, "eval_s": 1, "train_steps_per_s": -1}


def _rounds(job: Job, seconds: float, tracer: tracing.Tracer | None):
    """Rounds, each followed by a probe, until the next would end past ``seconds``.

    With a tracer, rounds alternate untraced and traced, starting
    untraced, and at least one of each runs; probes are never traced.
    Returns (wall times of the untraced rounds, of the traced rounds,
    digests of completed rounds, failed ops).
    """
    walls: dict[bool, list[float]] = {False: [], True: []}
    prints, failed, cycles = [], 0, []
    start = time.perf_counter()
    for i in itertools.count():
        traced = tracer is not None and i % 2 == 1
        before = job.attempted
        t0 = time.perf_counter()
        try:
            with tracer.installed() if traced else contextlib.nullcontext():
                prints.append(job.round())
            walls[traced].append(time.perf_counter() - t0)
            job.probe()
        except ElaststError as exc:
            failed += job.attempted - before
            print(f"round failed: {exc}", file=sys.stderr)
        cycles.append(time.perf_counter() - t0)
        finished = tracer is None or i >= 1
        if finished and time.perf_counter() - start + statistics.median(cycles) > seconds:
            return walls[False], walls[True], prints, failed


def run(workload: str, seed: int, seconds: float, trace: bool, workdir: Path, imports) -> Result:
    """Run one workload; ``imports`` holds (seconds, kernel time around it) per timed import."""
    job = WORKLOADS[workload](seed, workdir)
    job.prepare()
    tracer = tracing.Tracer() if trace else None
    setups = []
    with tracer.installed() if trace else contextlib.nullcontext():
        for _ in range(SETUP_REPS):
            _, setup_s, kernel_s = job.timed(job.setup_once)
            setups.append((setup_s, kernel_s))
    setup_totals = tracer.take() if trace else None

    untraced, traced, prints, failed = _rounds(job, seconds, tracer)
    problems: list[str] = []
    if not prints or (trace and not (traced and untraced)):
        return Result({}, job.attempted, failed, ["no round completed" + (" in each mode" if trace else "")])
    if len(set(prints)) > 1:
        problems.append("rounds computed different bytes" + (" traced and untraced" if trace else ""))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    job.check(problems)
    if not trace:
        def median(pairs, name, scale):
            return statistics.median(calibration.scaled(v, k, POWER[name]) if scale else v for v, k in pairs)

        end_to_end, unscaled = {}, {}
        for out, scale in ((end_to_end, True), (unscaled, False)):
            out.update({name: median(pairs, name, scale) for name, pairs in job.samples.items()})
            out["setup_s"] = median(imports, "setup_s", scale) + median(setups, "setup_s", scale)
        end_to_end["peak_rss_mb"] = peak_rss_mb
        unscaled["kernel_ms"] = 1e3 * statistics.median(k for pairs in job.samples.values() for _, k in pairs)
        return Result(end_to_end, job.attempted, failed, problems, unscaled)
    per_layer = tracing.per_layer_metrics(
        setup_totals, SETUP_REPS, tracer.take(), len(traced), job.steps_per_round * len(traced)
    )
    per_layer["trace.overhead_s"] = statistics.median(traced) - statistics.median(untraced)
    return Result(per_layer, job.attempted, failed, problems)
