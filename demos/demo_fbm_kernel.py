"""Fractional Brownian motion through its Volterra kernel representation.

Checks the kernel constant, the operator-norm bound, and the covariance it
induces against the analytic fBm covariance.
"""

import numpy as np

from chaosfield.kernels import (
    covariance_from_kernel,
    fbm_kernel_spec,
    k1_empirical,
    op_norm_bound,
    op_norm_estimate,
)
from chaosfield.verify import fbm_covariance


def main():
    hurst = 0.75
    kernel = fbm_kernel_spec(hurst, 1.0)

    k1 = kernel.k1_bound
    print("K1 analytic:", k1)
    print("K1 empirical:", k1_empirical(kernel))
    print("operator norm bound:", op_norm_bound(0.0, k1))
    print("operator norm estimate:", op_norm_estimate(kernel, 256))

    analytic = fbm_covariance(hurst)
    worst = 0.0
    for t in np.linspace(0.2, 1.0, 5):
        for s in np.linspace(0.2, 1.0, 5):
            worst = max(worst, abs(covariance_from_kernel(kernel, t, s) - analytic(t, s)))
    print("max covariance error on a 5x5 grid:", worst)


if __name__ == "__main__":
    main()
