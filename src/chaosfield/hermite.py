"""Probabilists' Hermite polynomials (leading coefficient one)."""

from __future__ import annotations

import numpy as np

from .multiindex import _check_integer


def hermite(n: int, t):
    """H_n(t), row n of ``hermite_table``; accepts scalars or arrays."""
    _check_integer("n", n, 0)
    h = hermite_table(n, t)[n]
    return h if h.ndim else float(h)


def hermite_table(n_max: int, t):
    """Array of H_n(t) for n = 0..n_max; shape (n_max + 1,) + t.shape.

    Three-term recurrence: H_0 = 1, H_1 = t, H_{n+1}(t) = t H_n(t) - n H_{n-1}(t).
    An order that is not an integer >= 0 raises ConfigurationError.
    """
    _check_integer("n_max", n_max, 0)
    t = np.asarray(t, dtype=float)
    out = np.empty((n_max + 1,) + t.shape)
    out[0] = 1.0
    if n_max >= 1:
        out[1] = t
    for m in range(1, n_max):
        out[m + 1] = t * out[m] - m * out[m - 1]
    return out
