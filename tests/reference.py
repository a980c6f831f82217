"""Naive reference formulas the tests hold the training kernel against.

Plain array functions, no validation: the kernel works on Gram stacks and
never forms these per-device quantities itself.
"""

import numpy as np


def device_gradient(x, y, w):
    """One device's full-batch gradient ``X^T (X W - Y)``."""
    return x.T @ (x @ w - y)


def coded_gradient(h_x_sum, h_y_sum, w):
    """The server's gradient from the coded sums, ``H_X W - H_Y``."""
    return h_x_sum @ w - h_y_sum


def blend(g_s, grads, mask, alpha, p):
    """``alpha * G_s + (1 - alpha) / (1 - p) * sum_i mask_i G_i`` for an ``(n, d, o)`` stack."""
    return alpha * g_s + ((1.0 - alpha) / (1.0 - p)) * grads[mask].sum(axis=0)


def linear_solve(a, b):
    """``A^{-1} B`` by LU with partial pivoting (``np.linalg.solve``), for
    holding the Cholesky solve against an independent factorization."""
    return np.linalg.solve(a, b)
