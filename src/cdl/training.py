"""Alternating MAP training and its degenerate variants.

Each sweep runs a full exact user pass, a full exact item pass, then a block
of momentum gradient epochs on the autoencoder with a fresh corruption mask
per epoch.  The objective is tracked per sweep, term by term, and checked;
a NumericError in a network sweep triggers a restore-and-halve recovery.
"""

from __future__ import annotations

import logging
import math
import time
from dataclasses import dataclass, field, fields

import numpy as np

from . import factors as mf
from . import sdae
from .data import corrupt, open_text, write_table
from .exceptions import (
    ArgumentError,
    ConfigError,
    NumericError,
    ParseError,
    ShapeError,
    TrainingError,
    ValidationError,
)
from .factors import ConfidenceParams, LatentFactors

MAX_LR_HALVINGS = 5

log = logging.getLogger(__name__)


@dataclass
class HyperParams:
    """Every knob of a training run; one config key per field."""

    lambda_u: float = 0.1
    lambda_v: float = 10.0
    lambda_n: float = 1000.0
    lambda_w: float = 1e-4
    lambda_s: float = math.inf
    conf_a: float = 1.0
    conf_b: float = 0.01
    n_factors: int = 50
    widths: tuple | None = None
    noise_level: float = 0.3
    dropout_rate: float = 0.1
    learning_rate: float = 0.01
    momentum: float = 0.9
    epochs_per_block: int = 5
    max_sweeps: int = 30
    early_stop_tol: float = 1e-6
    early_stop_patience: int = 3
    seed: int = 0

    def __post_init__(self):
        self.validate()

    def validate(self):
        for name in _INT_FIELDS:
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
                raise ArgumentError(f"{name} must be an integer", [name])
        # infinite precisions are legal limits for data synthesis; the MAP
        # fitters check finiteness where they need it
        for name in ("lambda_u", "lambda_v", "lambda_n", "lambda_w", "lambda_s"):
            if not getattr(self, name) > 0:
                raise ArgumentError(f"{name} must be positive", [name])
        try:
            ConfidenceParams(self.conf_a, self.conf_b)
        except ValidationError as exc:
            raise ArgumentError(str(exc), ["conf_a", "conf_b"]) from None
        if self.n_factors < 1:
            raise ArgumentError("n_factors must be at least 1", ["n_factors"])
        if not 0.0 <= self.noise_level <= 1.0:
            raise ArgumentError("noise_level must lie in [0, 1]", ["noise_level"])
        if not 0.0 <= self.dropout_rate < 1.0:
            raise ArgumentError("dropout_rate must lie in [0, 1)", ["dropout_rate"])
        if not self.learning_rate >= 0.0:
            raise ArgumentError("learning_rate must be non-negative", ["learning_rate"])
        if not 0.0 <= self.momentum < 1.0:
            raise ArgumentError("momentum must lie in [0, 1)", ["momentum"])
        if self.epochs_per_block < 0 or self.max_sweeps < 1:
            bad = "epochs_per_block" if self.epochs_per_block < 0 else "max_sweeps"
            raise ArgumentError("epochs_per_block >= 0 and max_sweeps >= 1 required", [bad])
        if not self.early_stop_tol >= 0 or self.early_stop_patience < 1:
            bad = "early_stop_patience" if self.early_stop_tol >= 0 else "early_stop_tol"
            raise ArgumentError("bad early-stop settings", [bad])
        if self.seed < 0:
            raise ArgumentError("seed must be non-negative", ["seed"])
        if self.widths is not None:
            self.widths = sdae.check_widths(self.widths)
            middle = self.widths[len(self.widths) // 2]
            if middle != self.n_factors:
                raise ArgumentError(f"middle width {middle} must equal n_factors "
                                    f"{self.n_factors}", ["widths", "n_factors"])

    def confidence(self):
        return ConfidenceParams(self.conf_a, self.conf_b)

    def require_finite(self, *names):
        for name in names:
            if math.isinf(getattr(self, name)):
                raise ArgumentError(f"{name} must be finite here", [name])

    def network_widths(self, vocab_size):
        """Resolve the architecture against the data's vocabulary size."""
        if self.widths is None:
            return (vocab_size, self.n_factors, vocab_size)
        if self.widths[0] != vocab_size or self.widths[-1] != vocab_size:
            raise ShapeError(
                f"widths end at {self.widths[0]}/{self.widths[-1]} "
                f"but the vocabulary has {vocab_size} words"
            )
        return self.widths


_INT_FIELDS = ("n_factors", "epochs_per_block", "max_sweeps", "early_stop_patience", "seed")


def _parse_field(name, text):
    text = text.strip()
    if name == "widths":
        if text == "auto":
            return None
        return tuple(int(tok) for tok in text.split(","))
    if name in _INT_FIELDS:
        return int(text)
    return float(text)


def _format_field(name, value):
    if name == "widths":
        return "auto" if value is None else ",".join(str(w) for w in value)
    if name in _INT_FIELDS:
        return str(value)
    return repr(float(value))


CONFIG_FIELDS = tuple(f.name for f in fields(HyperParams))


def config_lines(text, path="<config>"):
    """{key: (value text, line number)} of a flat key=value config; a line
    without '=' and a repeated key are rejected naming file:line."""
    raw = {}
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key=value, got {line!r}")
        key, value = line.split("=", 1)
        key = key.strip()
        if key in raw:
            raise ConfigError(f"{path}:{lineno}: duplicate key {key!r}", [key])
        raw[key] = (value, lineno)
    return raw


def hyper_from_config(raw, path="<config>"):
    """HyperParams from config_lines' {key: (value text, line number)}.

    Missing and unknown keys are rejected together, listing every offender;
    a value outside its domain is named at its line.
    """
    unknown = sorted(set(raw) - set(CONFIG_FIELDS))
    missing = sorted(set(CONFIG_FIELDS) - set(raw))
    if unknown or missing:
        parts = []
        if missing:
            parts.append("missing keys: " + ", ".join(missing))
        if unknown:
            parts.append("unknown keys: " + ", ".join(unknown))
        raise ConfigError(f"{path}: " + "; ".join(parts), unknown + missing)
    kwargs = {}
    for name in CONFIG_FIELDS:
        value, lineno = raw[name]
        try:
            kwargs[name] = _parse_field(name, value)
        except ValueError:
            raise ConfigError(f"{path}:{lineno}: bad value for {name}: {value!r}",
                              [name]) from None
    try:
        return HyperParams(**kwargs)
    except ArgumentError as exc:
        raise named_at_line(exc, raw, path) from None


def named_at_line(exc, raw, path):
    """``exc``, an ArgumentError naming hyperparameter fields, named at the
    line of its first field in config_lines' map ``raw`` of ``path``."""
    return ArgumentError(f"{path}:{raw[exc.fields[0]][1]}: {exc}", exc.fields)


def config_from_text(text, path="<config>"):
    """Parse a flat key=value config covering every hyperparameter field."""
    return hyper_from_config(config_lines(text, path), path)


def load_config(path):
    with open_text(path) as fh:
        return config_from_text(fh.read(), path=str(path))


def config_text(hyper):
    """Render a HyperParams back into the flat key=value format."""
    lines = [f"{name}={_format_field(name, getattr(hyper, name))}"
             for name in CONFIG_FIELDS]
    return "\n".join(lines) + "\n"


@dataclass
class SweepRow:
    sweep: int
    total: float
    user_prior: float
    weight_prior: float
    item_offset: float
    reconstruction: float
    rating: float
    seconds: float


REPORT_COLUMNS = tuple(f.name for f in fields(SweepRow))


@dataclass
class TrainReport:
    """Per-sweep objective values with the five-term breakdown.

    Row 0 records the state before any sweep; later rows follow each sweep.
    """

    rows: list = field(default_factory=list)

    def totals(self):
        return np.array([row.total for row in self.rows])

    def term_series(self, name):
        return np.array([getattr(row, name) for row in self.rows])

    def write_tsv(self, path):
        write_table(path, REPORT_COLUMNS, map(_report_cells, self.rows))

    @staticmethod
    def read_tsv(path):
        rows = []
        with open_text(path) as fh:
            header = fh.readline().rstrip("\n").split("\t")
            if tuple(header) != REPORT_COLUMNS:
                raise ConfigError(f"{path}: unexpected report header {header}")
            for lineno, line in enumerate(fh, 2):
                vals = line.rstrip("\n").split("\t")
                try:
                    if len(vals) != len(REPORT_COLUMNS):
                        raise ValueError
                    rows.append(SweepRow(int(vals[0]), *(float(v) for v in vals[1:])))
                except ValueError:
                    raise ParseError(f"{path}:{lineno}: bad report row {line!r}") from None
        return TrainReport(rows)


def _report_cells(row):
    """The TSV cells of one report row, in REPORT_COLUMNS order."""
    return [str(row.sweep)] + [format(getattr(row, n), ".17g") for n in REPORT_COLUMNS[1:]]


def objective_terms(ratings, U, V, conf, lambda_u, lambda_v, lambda_n, lambda_w,
                    net=None, prior=None, rec_ss=None):
    """Per-term breakdown of the joint objective; every term is <= 0.

    The item-offset term measures V against the item prior ``prior``, or
    against 0 without one; the reconstruction term is -lambda_n/2 times
    ``rec_ss``, the squared reconstruction residual sum, and exactly 0.0
    without one.
    """
    U = np.asarray(U, dtype=np.float64)
    V = np.asarray(V, dtype=np.float64)
    diff = V if prior is None else V - prior
    return {
        "user_prior": -0.5 * lambda_u * float(np.sum(U * U)),
        "weight_prior": -0.5 * lambda_w * net.squared_norm() if net is not None else 0.0,
        "item_offset": -0.5 * lambda_v * float(np.sum(diff * diff)),
        "reconstruction": -0.5 * lambda_n * rec_ss if rec_ss is not None else 0.0,
        "rating": mf.rating_objective(U, V, ratings, conf),
    }


def _checked(terms):
    """(total, terms); NumericError names a non-finite term, with the
    hyperparameter that scales it, or the total."""
    scale = {"user_prior": "lambda_u", "weight_prior": "lambda_w",
             "item_offset": "lambda_v", "reconstruction": "lambda_n", "rating": "conf_a"}
    for name, value in terms.items():
        if not math.isfinite(value):
            raise NumericError(f"objective term {name!r} ({scale[name]}) is non-finite")
    total = sum(terms.values())
    if math.isinf(total):
        raise NumericError("objective total overflows")
    return total, terms


def objective(*args, **kwargs):
    """(total, terms) of the joint objective, checked; takes objective_terms' arguments."""
    return _checked(objective_terms(*args, **kwargs))


@dataclass
class _State:
    """What a sweep replaces, and all a report row reads: the factors, the
    item prior V is pulled toward and the reconstruction residual sum (None
    without that term), the network with its heavy-ball velocities (one per
    weight and bias, in ``net.weights + net.biases`` order), and the
    corrupted input the network last trained on."""

    U: np.ndarray
    V: np.ndarray
    prior: np.ndarray | None = None
    rec_ss: float | None = None
    net: sdae.SdaeNetwork | None = None
    velocities: list | None = None
    x0: object = None

    def copy(self):
        return _State(self.U.copy(), self.V.copy(), self.prior, self.rec_ss, self.net.copy(),
                      [v.copy() for v in self.velocities], self.x0)


def _objective_args(state, ratings, hyper):
    """objective_terms' arguments at a fit's state."""
    return (ratings, state.U, state.V, hyper.confidence(), hyper.lambda_u, hyper.lambda_v,
            hyper.lambda_n, hyper.lambda_w, state.net, state.prior, state.rec_ss)


def _sweep_loop(report, path, state, step, evaluate, hyper, trains_network, may_stop):
    """Run ``hyper.max_sweeps`` sweeps of ``step(state, learning_rate)`` and
    append ``evaluate(state)``, a (total, terms) pair, to ``report`` after
    each one; with a ``path``, each row is also appended to that TSV file.

    Sweep numbers continue the report; an empty report first gets row 0, the
    state before any sweep.  A NumericError from the step or from
    ``evaluate``, which checks its terms, is the one divergence signal.  In a
    phase that trains the network it restores the pre-sweep state and halves
    the learning rate; after MAX_LR_HALVINGS halvings it raises TrainingError
    carrying the last good state.  At row 0 and in other phases it propagates.
    A phase that may stop early ends after ``early_stop_patience``
    consecutive sweeps whose relative objective change is below
    ``early_stop_tol``.  Returns the final state.
    """
    def record(row):
        report.rows.append(row)
        if path is not None:
            first = len(report.rows) == 1
            write_table(path, REPORT_COLUMNS if first else None, [_report_cells(row)],
                        "w" if first else "a")

    if not report.rows:
        total, terms = evaluate(state)
        record(SweepRow(0, total, **terms, seconds=0.0))
    end = len(report.rows) + hyper.max_sweeps
    lr = hyper.learning_rate
    halvings = 0
    streak = 0
    while len(report.rows) < end:
        saved = state.copy() if trains_network else None
        start = time.perf_counter()
        try:
            step(state, lr)
            seconds = time.perf_counter() - start
            total, terms = evaluate(state)
        except NumericError as exc:
            if not trains_network:
                raise
            state = saved
            halvings += 1
            if halvings > MAX_LR_HALVINGS:
                raise TrainingError(
                    f"sweep {len(report.rows)} diverged ({exc}) after "
                    f"{MAX_LR_HALVINGS} learning-rate halvings",
                    checkpoint={"net": state.net,
                                "factors": LatentFactors(state.U, state.V),
                                "report": report},
                ) from exc
            lr *= 0.5
            log.warning("sweep %d diverged (%s): learning rate halved to %g (halving %d of %d)",
                        len(report.rows), exc, lr, halvings, MAX_LR_HALVINGS)
            continue
        record(SweepRow(len(report.rows), total, **terms, seconds=seconds))
        if not may_stop:
            continue
        prev = report.rows[-2].total
        if abs(total - prev) / max(abs(total), 1e-300) < hyper.early_stop_tol:
            streak += 1
            if streak >= hyper.early_stop_patience:
                break
        else:
            streak = 0
    return state


def _factor_sweep(state, ratings, hyper):
    """One exact user pass, then one exact item pass toward ``state.prior``."""
    conf = hyper.confidence()
    state.U = mf.sweep_users(state.V, ratings, conf, hyper.lambda_u)
    state.V = mf.sweep_items(state.U, ratings, conf, hyper.lambda_v, state.prior)


def check_inputs(ratings, content, hyper):
    """Reject, before a fit or chain allocates anything, inputs it cannot
    use, among them an ``n_factors`` whose factor matrices cannot be
    allocated; ``content`` is None for the content-free baseline, which has no
    network to need a finite lambda_n or lambda_w, or a lambda_n small enough
    that the reconstruction term cannot overflow."""
    network = () if content is None else ("lambda_n", "lambda_w")
    hyper.require_finite("lambda_u", "lambda_v", *network, "conf_a")
    # the rating term at U = 0 is -conf_a * nnz / 2
    if math.isinf(hyper.conf_a * ratings.nnz):
        raise ArgumentError(f"conf_a {hyper.conf_a!r} overflows the rating term over "
                            f"{ratings.nnz} ratings", ["conf_a"])
    rows = max(ratings.num_users, ratings.num_items)
    try:  # the larger factor matrix, allocated and freed unfilled
        np.empty((rows, hyper.n_factors))
    except (MemoryError, ValueError):  # the allocation fails or its byte size overflows
        raise ArgumentError(f"n_factors {hyper.n_factors} makes the {rows} x "
                            f"{hyper.n_factors} factor matrix too large to allocate",
                            ["n_factors"]) from None
    if content is None:
        return
    if content.num_items != ratings.num_items:
        raise ShapeError(f"content has {content.num_items} items, ratings {ratings.num_items}")
    # every reconstruction residual lies in [-1, 1], so this bounds the term
    if math.isinf(0.5 * hyper.lambda_n * content.num_items * content.vocab_size):
        raise ArgumentError(f"lambda_n {hyper.lambda_n!r} overflows the reconstruction "
                            f"term over {content.num_items} x {content.vocab_size} "
                            "content", ["lambda_n"])


def _network_setup(ratings, content, hyper, lambda_n):
    """The state at a seeded network and first corruption, and the epoch
    block that trains the network toward given item factors with
    reconstruction weight ``lambda_n`` (joint and two-step share both).  One
    no-dropout pass over the corruption, at set-up and at the end of each
    block, writes the item prior and reconstruction sum (only the prior, by
    ``sdae.encode``, when lambda_n is 0); V starts at the prior."""
    check_inputs(ratings, content, hyper)
    widths = hyper.network_widths(content.vocab_size)
    clean = sdae._as_matrix(content)  # laid out once per fit, not per gradients call
    net_seed, noise_seq, mask_seq = np.random.SeedSequence(hyper.seed).spawn(3)
    net = sdae.init_network(widths, net_seed, hyper.lambda_w)

    def network_pass(state):
        if lambda_n > 0:
            state.prior, state.rec_ss = sdae.coupling_residuals(state.net, state.x0, clean)
        else:
            state.prior = sdae.encode(state.net, state.x0)

    def train_block(state, lr, V, lambda_v):
        for _ in range(hyper.epochs_per_block):
            state.x0 = corrupt(content, hyper.noise_level, noise_seq.spawn(1)[0])
            mask = None
            if hyper.dropout_rate > 0:
                mask = sdae.dropout_mask(widths, ratings.num_items,
                                         hyper.dropout_rate, mask_seq.spawn(1)[0])
            grads_w, grads_b = sdae.gradients(state.net, state.x0, clean, V, lambda_v,
                                              lambda_n, hyper.lambda_w, mask=mask)
            # heavy ball, v = momentum * v + lr * g, updated in place
            for p, v, g in zip(state.net.weights + state.net.biases, state.velocities,
                               grads_w + grads_b):
                v *= hyper.momentum
                v += lr * g
                p += v
        network_pass(state)

    state = _State(np.zeros((ratings.num_users, hyper.n_factors)), None, net=net,
                   velocities=[np.zeros_like(p) for p in net.weights + net.biases],
                   x0=corrupt(content, hyper.noise_level, noise_seq.spawn(1)[0]))
    network_pass(state)
    state.V = state.prior.copy()
    return state, train_block


def _joint_fit(ratings, content, hyper, lambda_n, report_path=None):
    state, train_block = _network_setup(ratings, content, hyper, lambda_n)

    def step(state, lr):
        _factor_sweep(state, ratings, hyper)
        train_block(state, lr, state.V, hyper.lambda_v)

    report = TrainReport()
    state = _sweep_loop(report, report_path, state, step,
                        lambda state: objective(*_objective_args(state, ratings, hyper)), hyper,
                        trains_network=True, may_stop=True)
    return state.net, LatentFactors(state.U, state.V), report


def fit(ratings, content, hyper, report_path=None, batch_size=sdae.BLOCK_ROWS):
    """Joint training: exact factor sweeps alternating with autoencoder epochs.

    Returns (network, factors, report); deterministic for a fixed seed.  The
    network sees its rows in blocks of ``sdae.BLOCK_ROWS``; ``batch_size`` is
    kept for callers that name that block and may take no other value.
    """
    if batch_size != sdae.BLOCK_ROWS:
        raise ArgumentError(
            f"batch_size must equal sdae.BLOCK_ROWS ({sdae.BLOCK_ROWS}), got {batch_size!r}"
        )
    return _joint_fit(ratings, content, hyper, hyper.lambda_n, report_path=report_path)


def fit_encoder_only(ratings, content, hyper, report_path=None):
    """Degenerate variant with the reconstruction term dropped: the decoder
    receives only weight decay and the objective excludes reconstruction."""
    return _joint_fit(ratings, content, hyper, 0.0, report_path=report_path)


def fit_two_step(ratings, content, hyper, report_path=None):
    """Degenerate variant that first trains the autoencoder on reconstruction
    alone (ratings never enter), freezes the encodings, then runs factor
    sweeps with the frozen encodings as the item-prior mean."""
    state, train_block = _network_setup(ratings, content, hyper, hyper.lambda_n)
    zero_v = np.zeros_like(state.V)
    report = TrainReport()

    # reconstruction phase: V tracks the item prior, so the offset term is
    # exactly 0 while only the autoencoder trains
    def train_network(state, lr):
        train_block(state, lr, zero_v, 0.0)
        state.V = state.prior

    state = _sweep_loop(report, report_path, state, train_network,
                        lambda state: objective(*_objective_args(state, ratings, hyper)), hyper,
                        trains_network=True, may_stop=False)

    # frozen factor phase: the state keeps phase one's last item prior and
    # reconstruction sum, even after a rollback
    state = _sweep_loop(
        report, report_path, state, lambda state, lr: _factor_sweep(state, ratings, hyper),
        lambda state: _checked(objective_terms(*_objective_args(state, ratings, hyper))), hyper,
        trains_network=False, may_stop=False,
    )
    return state.net, LatentFactors(state.U, state.V), report


def fit_mf_baseline(ratings, hyper, report_path=None):
    """Content-free control: factor sweeps with a zero-mean item prior.

    Returns (factors, report); the weight-prior and reconstruction terms of
    the report are identically zero.
    """
    check_inputs(ratings, None, hyper)
    rng = np.random.default_rng(np.random.SeedSequence(hyper.seed))
    V = rng.normal(scale=hyper.lambda_v ** -0.5,
                   size=(ratings.num_items, hyper.n_factors))
    report = TrainReport()
    state = _sweep_loop(
        report, report_path, _State(np.zeros((ratings.num_users, hyper.n_factors)), V,
                                    np.zeros_like(V)),
        lambda state, lr: _factor_sweep(state, ratings, hyper),
        lambda state: objective(*_objective_args(state, ratings, hyper)), hyper,
        trains_network=False, may_stop=True,
    )
    return LatentFactors(state.U, state.V), report
