"""Metamorphic relations: transforms that cannot change the answer.

Each relation transforms seeded instances in a way that keeps them valid
and checks that the transformed instance still certifies and verifies.
"""

import numpy as np
import pytest

import hckit as hk
from gen import scaled_form, witness_instance


@pytest.mark.parametrize("exponent", [100, 200])
def test_plane_scaling_certifies(exponent):
    # F and the cone elements times S = 2^k with the same cone pose the same
    # question at another scale, so every instance must still certify;
    # criterion 1's generator and seeds, 125 instances per dimension
    factor = 2.0 ** exponent
    for n in (1, 2, 3, 6):
        rng = np.random.default_rng(1000 + n)
        for i in range(125):
            fmap, cone, pu, pv, alpha = witness_instance(rng, n)
            fmap = hk.QuadraticMap(scaled_form(fmap.f, factor), scaled_form(fmap.g, factor))
            pu, pv = (hk.ConePoint(p.x, factor * p.e, factor * p.value) for p in (pu, pv))
            w = alpha * pu.value + (1 - alpha) * pv.value
            cert = hk.witness_convex_combination(fmap, cone, pu, pv, alpha)
            assert hk.verify_certificate(fmap, cone, w, cert), (n, i, cert.branch)
