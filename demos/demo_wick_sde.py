"""Linear Wick SDE u(t) = 1 + X_t^{diamond}(u): closed form vs Picard vs MC.

The solution is the Wick exponential of the field; for Brownian motion its
samples are the lognormal exp(W(T) - T/2).
"""

import math

import numpy as np

from chaosfield.basis import BasisFamily
from chaosfield.kernels import brownian_kernel, fbm_kernel_spec
from chaosfield.mc import sample_batch
from chaosfield.multiindex import Truncation
from chaosfield.sde import solve_closed_form, solve_picard


def main():
    basis = BasisFamily("cosine", 1.0)
    trunc = Truncation(6, 6)
    grid = np.linspace(0.0, 1.0, 17)

    for name, kernel in (("brownian", brownian_kernel(1.0)), ("fbm H=0.75", fbm_kernel_spec(0.75, 1.0))):
        closed = solve_closed_form(kernel, basis, trunc, grid)
        picard = solve_picard(kernel, basis, trunc, grid)
        gap = float(np.max(np.abs(closed.coeffs - picard.coeffs)))
        print(f"{name}: closed vs Picard max gap = {gap:.3e}")
        print(f"{name}: second moment at T = {closed.second_moment(1.0):.6f}")

    # Monte Carlo spot check against the exact lognormal
    closed = solve_closed_form(brownian_kernel(1.0), basis, Truncation(6, 8), [1.0])
    batch = sample_batch(42, 5000, 6)
    mt = basis.antideriv(range(1, 7), 1.0)
    oracle = np.exp(batch.z @ mt - float(np.sum(mt**2)) / 2.0)
    vals = closed.sample(1.0, batch.z)
    diff = vals - oracle
    print(f"MC vs lognormal: mean diff = {np.mean(diff):.2e}, stderr = {np.std(diff)/math.sqrt(len(diff)):.2e}")


if __name__ == "__main__":
    main()
