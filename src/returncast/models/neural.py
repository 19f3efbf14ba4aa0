"""Single-hidden-layer regression network trained by full-batch gradient descent.

Inputs and target are standardized so one learning rate works across widely
different predictor scales. Everything is seeded and deterministic.

Training is bound by numpy's per-call overhead, not arithmetic: the network
is small, and an epoch is ten array calls plus the update. So parameters and
gradient live in two flat buffers, every intermediate has a preallocated
home, and an epoch allocates nothing. The five matrix products are bound
`ndarray.dot` calls with `out`, which skip the dispatch layer of `np.dot`.
Scalar operands are 0-d arrays built once per fit: a ufunc takes an array
operand as it is, where a Python float is converted on every call.

The outer product `w2 ⊗ s` of the hidden deltas is one of the five: a
`(hidden, 1) · (1, n)` product costs a third of the broadcast multiply,
which numpy runs through its general iterator. With K = 1 each entry is one
rounded product `w2[j] * s[i]` on every BLAS kernel; only a zero's sign can
differ, as BLAS adds the product to +0.0 and writes +0.0 where the multiply
writes -0.0. That sign cannot reach the gradient: past the slope multiply,
which keeps a zero a zero, the deltas are read only by the input product.
Its sums also start at +0.0, and from +0.0 a sum of terms that are zero or
cancel is +0.0 whatever their signs.

The biases and the target ride inside the products, so no epoch spends a
call on a bias add, a target subtract or an axis reduce:
- The inputs are held as `[Xᵀ; 1]`, so `[W1; b1]ᵀ · [Xᵀ; 1]` is the
  transposed hidden pre-activation and `[Xᵀ; 1] · D` writes the gradients
  of `W1` and `b1` together (`D` the hidden deltas, `n × hidden`).
- The activations are held transposed in one `(hidden + 2, n)` buffer
  `[Zᵀ; 1; y]`. The parameter buffer carries a `-1` after `b2`, so
  `[w2; b2; -1] · [Zᵀ; 1; y]` is the residual, and `[Zᵀ; 1] · s` writes
  the gradients of `w2` and `b2` together.
- `s` is the residual times one scale: `1/n` for the plain gradient, and
  `lr/n` in the fit, which then steps with a single subtract.

Every shape takes the same calls; a unit dimension changes only which BLAS
routine runs a product. The tests pin the bits against the same products
written as plain expressions on the same layouts. Those bits hold per
OpenBLAS kernel (see the README on byte-identical output).
"""
from __future__ import annotations

import numpy as np

from ..core import FeatureMatrix
from .base import FittedModel, ModelKind, ModelsConfig, ModelSpec, register_fitter, require_rows

MIN_ROWS = 10


def unpack_params(flat: np.ndarray, n_inputs: int, hidden: int):
    """Views (W1, b1, W2, b2) of a flat parameter vector; b2 is 0-d."""
    k = n_inputs * hidden
    w1 = flat[:k].reshape(n_inputs, hidden)
    b1 = flat[k : k + hidden]
    w2 = flat[k + hidden : k + 2 * hidden]
    b2 = flat[-1, ...]
    return w1, b1, w2, b2


def _backprop(flat: np.ndarray, X: np.ndarray, y: np.ndarray, hidden: int, scale: float):
    """The half-MSE gradient, times `scale * n`, as a reusable kernel over
    fixed buffers.

    Returns `(params, grad, err, step)`. `params` starts as a copy of `flat`
    and may be updated in place between calls; calling `step()` writes the
    scaled gradient at its current contents into `grad` and the residuals
    into `err`, allocating nothing.
    """
    n, p = X.shape
    k = (p + 1) * hidden
    work = np.append(flat, -1.0)  # [W1; b1 | w2; b2 | -1], see the module docstring
    params, grad = work[:-1], np.empty_like(flat)
    w1b, g_w1b = work[:k].reshape(p + 1, hidden), grad[:k].reshape(p + 1, hidden)
    w2_col = work[k : k + hidden, None]
    inputs = np.vstack((X.T, np.ones(n)))
    acts = np.empty((hidden + 2, n))
    acts[hidden], acts[hidden + 1] = 1.0, y
    zt = acts[:hidden]
    d_zt = np.empty((hidden, n))
    slope = np.empty((hidden, n))
    err = np.empty(n)
    s = np.empty(n)
    forward, residual, outer = w1b.T.dot, work[k:].dot, w2_col.dot
    out_grad, in_grad = acts[: hidden + 1].dot, inputs.dot
    multiply, subtract, tanh = np.multiply, np.subtract, np.tanh
    d_z, g_out, s_row = d_zt.T, grad[k:], s[None, :]
    scale, one = np.array(scale), np.array(1.0)

    def step() -> None:
        # Zᵀ = tanh([W1; b1]ᵀ [Xᵀ; 1]); err = [w2; b2; -1] [Zᵀ; 1; y]
        forward(inputs, zt)
        tanh(zt, zt)
        residual(acts, err)
        multiply(err, scale, s)
        out_grad(s, g_out)
        # Dᵀ = (w2 ⊗ s) * (1 - Zᵀ * Zᵀ)
        outer(s_row, d_zt)
        multiply(zt, zt, slope)
        subtract(one, slope, slope)
        multiply(d_zt, slope, d_zt)
        in_grad(d_z, g_w1b)

    return params, grad, err, step


def loss_and_grad(
    flat: np.ndarray, X: np.ndarray, y: np.ndarray, hidden: int
) -> tuple[float, np.ndarray]:
    """Half-MSE loss and its analytic gradient for the flat parameter vector."""
    n = len(y)
    _, grad, err, step = _backprop(flat, X, y, hidden, 1.0 / n)
    step()
    return 0.5 * float(err @ err) / n, grad


def _standardizer(values: np.ndarray):
    sd = values.std(axis=0)
    return values.mean(axis=0), np.where(sd == 0.0, 1.0, sd)


class NeuralModel(FittedModel):
    def __init__(self, spec: ModelSpec, predictor_names, window, params, scalers, hidden: int):
        super().__init__(spec, predictor_names, window)
        self.params = params
        self.x_mean, self.x_sd, self.y_mean, self.y_sd = scalers
        self.hidden = hidden

    def _predict_raw(self, matrix: FeatureMatrix) -> np.ndarray:
        xs = (matrix.X - self.x_mean) / self.x_sd
        w1, b1, w2, b2 = unpack_params(self.params, xs.shape[1], self.hidden)
        out = np.tanh(xs @ w1 + b1) @ w2 + b2
        return out * self.y_sd + self.y_mean


def fit_neural(spec: ModelSpec, train: FeatureMatrix) -> NeuralModel:
    require_rows(spec.kind, train, MIN_ROWS)
    hidden = int(spec.param("hidden_units", ModelsConfig.nn_hidden_units))
    epochs = int(spec.param("epochs", ModelsConfig.nn_epochs))
    lr = float(spec.param("learning_rate", ModelsConfig.nn_learning_rate))

    x_mean, x_sd = _standardizer(train.X)
    y_mean, y_sd = _standardizer(train.y)
    xs = (train.X - x_mean) / x_sd
    ys = (train.y - y_mean) / y_sd

    p = xs.shape[1]
    rng = np.random.default_rng(spec.seed)
    flat = np.concatenate(
        [
            rng.standard_normal(p * hidden) / np.sqrt(max(p, 1)),
            np.zeros(hidden),
            rng.standard_normal(hidden) / np.sqrt(hidden),
            np.zeros(1),
        ]
    )
    params, grad, _, step = _backprop(flat, xs, ys, hidden, lr / len(ys))
    subtract = np.subtract
    # a diverging net ends in non-finite predictions, which the zoo skips
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(epochs):
            step()
            subtract(params, grad, params)

    return NeuralModel(
        spec, train.predictor_names, train.interval, params, (x_mean, x_sd, y_mean, y_sd), hidden
    )


register_fitter(ModelKind.NEURAL, fit_neural)
