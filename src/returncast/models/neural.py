"""Single-hidden-layer regression network trained by full-batch gradient descent.

Inputs and target are standardized so one learning rate works across widely
different predictor scales. Everything is seeded and deterministic.

Training is bound by numpy's per-call overhead, not arithmetic: the network
is small and each epoch is a few dozen array calls. So parameters and
gradient live in two flat buffers, every intermediate has a preallocated
home, and an epoch allocates nothing. The four matrix products go through
`np.dot` with `out`: it calls the same BLAS routines as `np.matmul`, bit for
bit, with less overhead per call than the generalized-ufunc entry point.
Scalar operands are 0-d arrays built once per fit: a ufunc takes an array
operand as it is, where a Python float is converted on every call.

The hidden bias rides inside the two products with the inputs. `[W1; b1]`
is one contiguous block of the flat buffers, so with a ones column appended
to the inputs, `[X | 1] @ [W1; b1]` is the forward pre-activation and
`[X | 1].T @ d_z` writes both gradient blocks, two calls an epoch fewer than
a separate bias add and column sum. The fold is bit-identical because the
BLAS matrix-matrix kernel sums each output over K in order: the bias, last,
is added after the full product, and the ones row sums `d_z` row by row, as
`np.add` and `np.add.reduce` do. A product with a unit dimension (one input
or one hidden unit) runs as a matrix-vector kernel that sums in another
order, so those shapes keep the separate add and reduce.
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


def _backprop(flat: np.ndarray, X: np.ndarray, y: np.ndarray, hidden: int):
    """The half-MSE gradient as a reusable kernel over fixed buffers.

    Returns `(grad, err, step)`: calling `step()` writes the gradient at the
    current contents of `flat` into `grad` and the residuals into `err`,
    allocating nothing. `flat` may be updated in place between calls.
    """
    n, p = X.shape
    w1, b1, w2, b2 = unpack_params(flat, p, hidden)
    grad = np.empty_like(flat)
    g_w1, g_b1, g_w2, g_b2 = unpack_params(grad, p, hidden)
    # the bias folds into the input products (see the module docstring)
    # unless a unit dimension makes them gemv, which sums in another order
    fold = p >= 2 and hidden >= 2
    if fold:
        X1 = np.column_stack((X, np.ones(n)))
        k = (p + 1) * hidden
        w1b, g_w1b = flat[:k].reshape(p + 1, hidden), grad[:k].reshape(p + 1, hidden)
        X1t = X1.T
    z = np.empty((n, hidden))
    d_z = np.empty((n, hidden))
    slope = np.empty((n, hidden))
    err = np.empty(n)
    d_out = np.empty(n)
    dot, add, subtract, multiply = np.dot, np.add, np.subtract, np.multiply
    divide, tanh, reduce = np.divide, np.tanh, np.add.reduce
    Xt, zt, d_out_col = X.T, z.T, d_out[:, None]
    rows, one = np.array(float(n)), np.array(1.0)  # n is exact as a float

    def step() -> None:
        # z = tanh(X @ w1 + b1); err = z @ w2 + b2 - y
        if fold:
            dot(X1, w1b, z)
        else:
            dot(X, w1, z)
            add(z, b1, z)
        tanh(z, z)
        dot(z, w2, err)
        add(err, b2, err)
        subtract(err, y, err)
        divide(err, rows, d_out)
        dot(zt, d_out, g_w2)
        reduce(d_out, 0, None, g_b2)
        # d_z = outer(d_out, w2) * (1 - z * z)
        multiply(d_out_col, w2, d_z)
        multiply(z, z, slope)
        subtract(one, slope, slope)
        multiply(d_z, slope, d_z)
        if fold:
            dot(X1t, d_z, g_w1b)
        else:
            dot(Xt, d_z, g_w1)
            reduce(d_z, 0, None, g_b1)

    return grad, err, step


def loss_and_grad(
    flat: np.ndarray, X: np.ndarray, y: np.ndarray, hidden: int
) -> tuple[float, np.ndarray]:
    """Half-MSE loss and its analytic gradient for the flat parameter vector."""
    grad, err, step = _backprop(flat, X, y, hidden)
    step()
    return 0.5 * float(err @ err) / len(y), grad


def _standardizer(values: np.ndarray, axis=0):
    mean = values.mean(axis=axis)
    sd = values.std(axis=axis)
    sd = np.where(sd == 0.0, 1.0, sd) if np.ndim(sd) else (sd if sd != 0.0 else 1.0)
    return mean, sd


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
    lr = np.array(float(spec.param("learning_rate", ModelsConfig.nn_learning_rate)))

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
    grad, _, step = _backprop(flat, xs, ys, hidden)
    delta = np.empty_like(flat)
    multiply, subtract = np.multiply, np.subtract
    # a diverging net ends in non-finite predictions, which the zoo skips
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(epochs):
            step()
            multiply(lr, grad, delta)
            subtract(flat, delta, flat)

    return NeuralModel(
        spec, train.predictor_names, train.interval, flat, (x_mean, x_sd, y_mean, y_sd), hidden
    )


register_fitter(ModelKind.NEURAL, fit_neural)
