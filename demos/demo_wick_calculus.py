"""Wick algebra on a truncated chaos space.

Shows the Hermite ladder under the Wick product and the truncated Ito /
Stratonovich integral identities for the projected Brownian path.
"""

import math

import numpy as np

from chaosfield.basis import BasisFamily
from chaosfield.chaos import ChaosExpansion, wick_product
from chaosfield.integrals import brownian_path_integrand, ito_integral, strat_integral
from chaosfield.multiindex import MultiIndex, Truncation


def main():
    # H_2(xi) wick H_3(xi) = H_5(xi): the ladder is exact in chaos coordinates
    trunc = Truncation(1, 8)
    f = ChaosExpansion(trunc, {MultiIndex.single(1, 2): math.sqrt(2.0)})
    g = ChaosExpansion(trunc, {MultiIndex.single(1, 3): math.sqrt(6.0)})
    prod = wick_product(f, g)
    print("H2 wick H3 coefficient at 5*eps_1:", prod.get(MultiIndex.single(1, 5)))
    print("expected sqrt(5!):", math.sqrt(120.0))

    # truncated Brownian path on [0, 1] with 8 cosine modes
    basis = BasisFamily("cosine", 1.0)
    trunc = Truncation(8, 2)
    eta = brownian_path_integrand(trunc, basis)
    mt = basis.antideriv(range(1, 9), 1.0)
    s_k = float(np.sum(mt**2))

    ito = ito_integral(eta)
    strat = strat_integral(eta)
    print()
    print("s_K =", s_k)
    print("ito mean (expected 0):", ito.mean)
    print("ito norm^2 (expected s_K^2/2):", ito.norm_squared())
    print("strat mean (expected s_K/2):", strat.mean)


if __name__ == "__main__":
    main()
