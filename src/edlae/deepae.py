"""Deep nonlinear autoencoders versus the rank-k linear optimum.

A deep AE here is f(X) = g(X) @ W_out where g is a stack of nonlinear
layers whose last hidden width is k and W_out is a plain linear map; any
such model's output matrix has rank at most k, so its training squared
error can never drop below the rank-k truncated-SVD error of X.  This
module trains such models by full-batch gradient descent with hand-written
backpropagation and checks that bound empirically over many trials, the
architectures of DEFAULT_ARCHS and the data generators of DEFAULT_GENERATORS.
Each step builds new parameters and never writes into an earlier step's.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field

import numpy as np

from .errors import DimensionMismatch, Divergence


def _tanh_grad(h):
    return 1.0 - h * h


def _relu(z):
    return np.maximum(z, 0.0)


def _relu_grad(h):
    return h > 0.0


def _linear(z):
    return z


def _linear_grad(h):
    return np.ones_like(h)


# Each activation with its derivative, read off the layer's output h = act(z):
# relu's h > 0 holds exactly where z > 0 does, NaN and -0.0 included.
ACTIVATIONS = {
    "tanh": (np.tanh, _tanh_grad),
    "relu": (_relu, _relu_grad),
    "linear": (_linear, _linear_grad),
}


@dataclass(frozen=True)
class ArchSpec:
    """Encoder architecture: hidden widths as multiples of the bottleneck k.

    ``hidden_multipliers`` lists the widths of the layers before the final
    k-wide hidden layer, e.g. () is a single n->k layer and (4, 2) is
    n->4k->2k->k.  The activation applies to every hidden layer; the output
    map stays linear.
    """

    name: str
    hidden_multipliers: tuple[int, ...]
    activation: str

    def widths(self, k: int) -> list[int]:
        return [m * k for m in self.hidden_multipliers] + [k]


DEFAULT_ARCHS = (
    ArchSpec("tanh-1layer", (), "tanh"),
    ArchSpec("tanh-2layer", (2,), "tanh"),
    ArchSpec("relu-3layer", (4, 2), "relu"),
)


@dataclass(frozen=True)
class DeepAEParams:
    """Weights and biases of the encoder stack plus the final linear map.

    ``w_out`` starts at zero so an untrained model reproduces nothing, which
    pins the initial squared error at ||X||_F^2.
    """

    weights: list[np.ndarray]
    biases: list[np.ndarray]
    w_out: np.ndarray
    activation: str


def init_params(n: int, k: int, arch: ArchSpec, seed: int) -> DeepAEParams:
    if arch.activation not in ACTIVATIONS:
        raise ValueError(f"unknown activation {arch.activation!r}")
    rng = np.random.default_rng(seed)
    widths = arch.widths(k)
    weights, biases = [], []
    fan_in = n
    for width in widths:
        weights.append(rng.standard_normal((fan_in, width)) / np.sqrt(fan_in))
        biases.append(np.zeros(width))
        fan_in = width
    return DeepAEParams(weights, biases, np.zeros((k, n)), arch.activation)


def _encode(params: DeepAEParams, x: np.ndarray):
    """The encoder's activations with x first: layer i maps acts[i] to
    acts[i + 1]."""
    act, _ = ACTIVATIONS[params.activation]
    acts = [x]
    for w, b in zip(params.weights, params.biases):
        acts.append(act(acts[-1] @ w + b))
    return acts


def deep_ae_forward(params: DeepAEParams, x: np.ndarray) -> np.ndarray:
    """Row-wise encoder application followed by the linear output map."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != params.weights[0].shape[0]:
        raise DimensionMismatch(
            f"input has shape {x.shape}, encoder expects {params.weights[0].shape[0]} columns"
        )
    return _encode(params, x)[-1] @ params.w_out


def squared_error(x: np.ndarray, xhat: np.ndarray) -> float:
    """Squared Frobenius norm of the reconstruction error."""
    x = np.asarray(x, dtype=np.float64)
    xhat = np.asarray(xhat, dtype=np.float64)
    if x.shape != xhat.shape:
        raise DimensionMismatch(f"shape mismatch: {x.shape} vs {xhat.shape}")
    diff = x - xhat
    return float(np.sum(diff * diff))


def se_and_gradients(params: DeepAEParams, x: np.ndarray):
    """Squared error and its gradient w.r.t. every parameter (backprop)."""
    _, act_grad = ACTIVATIONS[params.activation]
    acts = _encode(params, x)
    diff = acts[-1] @ params.w_out - x
    se = float(np.sum(diff * diff))

    d_out = 2.0 * diff
    g_w_out = acts[-1].T @ d_out
    d_h = d_out @ params.w_out.T
    g_weights = [None] * len(params.weights)
    g_biases = [None] * len(params.biases)
    for layer in range(len(params.weights) - 1, -1, -1):
        d_z = d_h * act_grad(acts[layer + 1])
        g_weights[layer] = acts[layer].T @ d_z
        g_biases[layer] = d_z.sum(axis=0)
        if layer > 0:
            d_h = d_z @ params.weights[layer].T
    return se, (g_weights, g_biases, g_w_out)


# Step halvings train_deep_ae allows before it gives up on a run.
_MAX_HALVINGS = 60


def train_deep_ae(x: np.ndarray, arch: ArchSpec, k: int, steps: int = 500,
                  lr: float = 1e-3, seed: int = 0):
    """Full-batch gradient descent on the reconstruction squared error.

    The step size is fixed; when the loss turns non-finite the trainer
    restarts from the best parameters seen and halves the step.  Returns
    (params, best squared error seen).  Raises Divergence if _MAX_HALVINGS
    halvings cannot restore a finite loss.
    """
    x = np.asarray(x, dtype=np.float64)
    m, n = x.shape
    if not 1 <= k < min(m, n):
        raise DimensionMismatch(f"bottleneck k must satisfy 1 <= k < min{m, n}, got {k}")
    params = init_params(n, k, arch, seed)
    # the first step's loss is the initial parameters' loss
    best_se, best_params = np.inf, params
    halvings = 0
    for _ in range(steps):
        # overflow here is expected when the step is too large; the halving
        # logic below handles it, so suppress the warnings
        with np.errstate(over="ignore", invalid="ignore"):
            se, (gw, gb, gout) = se_and_gradients(params, x)
        if not np.isfinite(se):
            # restart from the best parameters seen with a smaller step
            params = best_params
            lr *= 0.5
            halvings += 1
            if halvings > _MAX_HALVINGS:
                raise Divergence(
                    f"loss stayed non-finite after {halvings} step halvings; lower the learning rate"
                )
            continue
        if se < best_se:
            best_se, best_params = se, params
        params = DeepAEParams([w - lr * g for w, g in zip(params.weights, gw)],
                              [b - lr * g for b, g in zip(params.biases, gb)],
                              params.w_out - lr * gout, params.activation)
    with np.errstate(over="ignore", invalid="ignore"):
        final_se = squared_error(x, deep_ae_forward(params, x))
    if np.isfinite(final_se) and final_se < best_se:
        best_se, best_params = final_se, params
    return best_params, best_se


def linear_ae_optimum(x: np.ndarray, k: int) -> float:
    """Best achievable squared error of a rank-k linear AE.

    The optimum equals the truncated-SVD error, i.e. the sum of the squared
    discarded singular values, reached by predicting X @ V_k @ V_k^T.
    """
    x = np.asarray(x, dtype=np.float64)
    m, n = x.shape
    if not 1 <= k < min(m, n):
        raise DimensionMismatch(f"k must satisfy 1 <= k < min{m, n}, got {k}")
    _, singular, _ = np.linalg.svd(x, full_matrices=False)
    return float(np.sum(singular[k:] ** 2))


def _gen_gaussian(rng, m, n):
    return rng.standard_normal((m, n))


def _gen_low_rank_noise(rng, m, n):
    r = max(1, min(m, n) // 4)
    return rng.standard_normal((m, r)) @ rng.standard_normal((r, n)) + 0.1 * rng.standard_normal((m, n))


def _gen_sparse_binary(rng, m, n):
    return (rng.random((m, n)) < 0.2).astype(np.float64)


DEFAULT_GENERATORS = {
    "gaussian": _gen_gaussian,
    "low-rank-noise": _gen_low_rank_noise,
    "sparse-binary": _gen_sparse_binary,
}


@dataclass(frozen=True)
class TrialRecord:
    seed: int
    arch: str
    generator: str
    k: int
    se_deep: float
    se_linear: float

    @property
    def gap(self) -> float:
        return self.se_deep - self.se_linear

    def to_json(self) -> str:
        return json.dumps(asdict(self) | {"gap": self.gap})


_BOUND_TOL_REL = 1e-6


@dataclass(frozen=True)
class BoundReport:
    """Outcome of the deep-vs-linear training-error check.

    Passes when every trial satisfies se_deep >= se_linear - _BOUND_TOL_REL *
    se_linear; the deep model may tie (it does when it converges to the
    truncated-SVD optimum) but must never land meaningfully below.
    """

    trials: list[TrialRecord] = field(default_factory=list)

    def failures(self) -> list[TrialRecord]:
        return [t for t in self.trials if t.gap < -_BOUND_TOL_REL * t.se_linear]

    @property
    def passed(self) -> bool:
        return not self.failures()

    @property
    def min_gap(self) -> float:
        return min((t.gap for t in self.trials), default=0.0)

    def write_jsonl(self, stream) -> None:
        for trial in self.trials:
            stream.write(trial.to_json() + "\n")
        stream.write(self.summary() + "\n")

    def summary(self) -> str:
        return json.dumps(
            {
                "trials": len(self.trials),
                "failures": len(self.failures()),
                "min_gap": self.min_gap,
                "passed": self.passed,
            }
        )


def verify_linear_bound(m: int, n: int, ks, trials: int, restarts: int, steps: int,
                        lr: float, seed: int) -> BoundReport:
    """Train deep AEs across architectures, generators, ranks, and seeds and
    record their best squared error against the rank-k linear optimum.

    Runs exactly ``trials`` trials, cycling round-robin through the
    (generator, architecture, k) grid with per-trial rng streams derived
    from (seed, trial index); each keeps the best of ``restarts`` runs.
    ``ks`` must hold one or more ranks, each with 1 <= k < min(m, n).  Trial
    failures are recorded in the report, never raised.
    """
    for k in ks:
        if not 1 <= k < min(m, n):
            raise ValueError(f"every k must satisfy 1 <= k < min(m, n) = {min(m, n)}, got {k}")
    if not len(ks):
        raise ValueError("ks must hold one or more ranks, got []")
    for name, count in (("trials", trials), ("restarts", restarts), ("steps", steps)):
        if count < 1:
            raise ValueError(f"{name} must be >= 1, got {count}")
    if not 0.0 < lr < float("inf"):
        raise ValueError(f"lr must be finite and > 0, got {lr}")
    combos = [
        (gen_name, gen, arch, k)
        for gen_name, gen in DEFAULT_GENERATORS.items()
        for arch in DEFAULT_ARCHS
        for k in ks
    ]
    records = []
    for index in range(trials):
        gen_name, gen, arch, k = combos[index % len(combos)]
        trial_seed = int(np.random.default_rng((seed, index)).integers(2**31))
        rng = np.random.default_rng((seed, index, 1))
        x = gen(rng, m, n)
        se_linear = linear_ae_optimum(x, k)
        se_deep = min(train_deep_ae(x, arch, k, steps=steps, lr=lr, seed=trial_seed + restart)[1]
                      for restart in range(restarts))
        records.append(
            TrialRecord(
                seed=trial_seed,
                arch=arch.name,
                generator=gen_name,
                k=k,
                se_deep=se_deep,
                se_linear=se_linear,
            )
        )
    return BoundReport(trials=records)
