"""Naive reference formulas the tests hold the library against.

Plain array functions, no validation: the library keeps only Gram stacks
and never forms these per-device samples, residuals or gradients itself,
and computes its aggregation weights only in array form.
"""

import math

import numpy as np

from acfl import FederatedDataset


def random_samples(seed, n=3, m=10, d=4, o=2):
    """Legal random samples ``(x, y)`` with non-trivial labels, both ``U[-1, 1]``,
    drawn per device: ``x_i``, then ``y_i``."""
    rng = np.random.default_rng(seed)
    x = np.empty((n, m, d))
    y = np.empty((n, m, o))
    for i in range(n):
        x[i] = rng.uniform(-1.0, 1.0, (m, d))
        y[i] = rng.uniform(-1.0, 1.0, (m, o))
    return x, y


def replay_samples(n, m, d, o, stream, label_noise_sd=0.0):
    """The samples ``(x, y, w_true)`` that ``generate`` draws from ``stream``,
    each as one block from the same child streams."""
    w_true = stream.child("w_true").generator().uniform(0.0, 1.0 / 30.0, size=(d, o))
    x = stream.child("x").generator().uniform(-1.0, 1.0, size=(n, m, d))
    y = x @ w_true
    if label_noise_sd > 0.0:
        y = y + stream.child("y").generator().normal(0.0, label_noise_sd, size=y.shape)
    return x, y, w_true


def residual_loss(x, y, w):
    """``sum_i 0.5 * ||X_i W - Y_i||_F^2`` from the residuals of an ``(n, m, .)`` stack."""
    r = x @ w - y
    return 0.5 * float(np.vdot(r, r))


def dataset_from_samples(x, y, w_true=None):
    """The dataset of ``(n, m, .)`` sample stacks: Gram stacks and the sums of
    ``X_i^T E_i`` and ``||E_i||^2`` with ``E_i = Y_i - X_i W_true`` (``W_true = 0``
    when not given)."""
    if w_true is None:
        w_true = np.zeros((x.shape[2], y.shape[2]))
    xt = x.transpose(0, 2, 1)
    e = y - x @ w_true
    return FederatedDataset(
        xt @ x, xt @ y, w_true, (xt @ e).sum(axis=0), float(np.vdot(e, e))
    )


def device_gradient(x, y, w):
    """One device's full-batch gradient ``X^T (X W - Y)``."""
    return x.T @ (x @ w - y)


def coded_gradient(h_x_sum, h_y_sum, w):
    """The server's gradient from the coded sums, ``H_X W - H_Y``."""
    return h_x_sum @ w - h_y_sum


def blend(g_s, grads, mask, alpha, p):
    """``alpha * G_s + (1 - alpha) / (1 - p) * sum_i mask_i G_i`` for an ``(n, d, o)``
    stack, per boolean mask of a ``(..., n)`` stack of masks, each with its ``G_s``."""
    received = np.where(mask[..., None, None], grads, 0.0).sum(axis=-3)
    return alpha * g_s + ((1.0 - alpha) / (1.0 - p)) * received


def coded_sums(ds, noise, stream):
    """The server's sums ``(H_X, H_Y)`` of ``ds`` encoded with ``noise``: the
    Gram sums plus one standard-normal ``(d, d + o)`` block from ``stream``,
    scaled by ``sqrt(n) * sqrt(sigma_sq)``, the entry deviation of ``n``
    i.i.d. ``N(0, sigma_sq)`` noises summed."""
    d = ds.d
    z = stream.generator().standard_normal((d, d + ds.o))
    root_n = math.sqrt(ds.n_devices)
    h_x = ds.gram_x.sum(axis=0) + root_n * math.sqrt(noise.sigma1_sq) * z[:, :d]
    h_y = ds.gram_xy.sum(axis=0) + root_n * math.sqrt(noise.sigma2_sq) * z[:, d:]
    return h_x, h_y


def alpha_estimated(p, d, o, noise, beta_sq, c_sq):
    """Adaptive weight from norm estimates, the scalar form of the
    library's array kernel.

    ``beta_sq`` estimates the squared Frobenius norm of a device gradient
    (during training: the mean over the most recent reports) and ``c_sq``
    the squared norm of the iterate.  The weight is

        alpha = p b^2 / (p b^2 + d s1 c^2 (1-p) + s2 o d (1-p)) ,

    which equals ``alpha_oracle`` at the same estimates.  A zero
    ``c_sq`` adds no coded-gradient noise, also when ``d s1`` overflows.
    """
    if p == 0.0:
        return 0.0
    num = p * beta_sq
    coded = d * noise.sigma1_sq * c_sq if c_sq != 0.0 else 0.0
    den = num + coded * (1.0 - p) + noise.sigma2_sq * o * d * (1.0 - p)
    if den <= 0.0:
        # Every observed norm is zero and so is the noise: the gradient is
        # zero regardless of the weight.
        return 0.0
    return num / den

