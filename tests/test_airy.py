"""Airy-pair model: scipy values and zeros against mpmath, the domain cap,
pair symmetry, and the Maclaurin route against scipy."""

import cmath
import math

import numpy as np
import pytest
import scipy.special

from g0bound.airy import (DOMAIN_MAX_ABS, AiryPairModel, airy_ai_maclaurin, airy_pair_eval,
                          airy_squared_zeros)
from g0bound.errors import DomainError
from g0bound.zeros import product_eval

# |a_n|^2 for the first Airy zeros a_n, 30-digit reference
AIRY_SQUARED = [5.466746262846877, 16.711330657770713, 30.47658081558238,
                46.05940669984546, 63.109258450021635]


def test_maclaurin_against_scipy():
    pts = [0.3, -1.2, 1 + 1j, -0.5 + 2j, 2.5j]
    for w in pts:
        got = airy_ai_maclaurin(w)
        want = scipy.special.airy(w)[0]
        assert abs(got - want) / abs(want) < 1e-12, w


def test_maclaurin_radius_guard():
    with pytest.raises(DomainError):
        airy_ai_maclaurin(30.0)


def test_squared_zero_head():
    got = airy_squared_zeros(5)
    assert np.allclose(got, AIRY_SQUARED, rtol=1e-10)


def test_squared_zeros_match_mpmath():
    # every zero of the 200-zero head, against 30-digit airyaizero
    mpmath = pytest.importorskip("mpmath")
    got = airy_squared_zeros(200)
    with mpmath.workdps(30):
        want = [float(mpmath.airyaizero(n) ** 2) for n in range(1, 201)]
    for n, (g, w) in enumerate(zip(got, want), start=1):
        assert abs(g - w) <= 1e-14 * w, n


def test_pair_eval_is_positive_on_axis():
    # f(x) = Ai(i sqrt x) Ai(-i sqrt x) = |Ai(i sqrt x)|^2 for x >= 0
    for x in (0.0, 1.0, 4.0, 20.0):
        v = airy_pair_eval(x)
        assert abs(v.imag) < 1e-14 * max(1.0, abs(v))
        assert v.real > 0.0


def test_pair_eval_value_at_zero():
    # Ai(0)^2 = (3^(-2/3)/Gamma(2/3))^2
    want = (3.0 ** (-2.0 / 3.0) / math.gamma(2.0 / 3.0)) ** 2
    assert complex(airy_pair_eval(0.0)).real == pytest.approx(want, rel=1e-13)


def test_pair_eval_domain_cap():
    assert DOMAIN_MAX_ABS == 5e3
    # finite on the whole disc: |f(z)| <= f(|z|), and f(5e3)/f(0) is 2e242
    for theta in (0.0, 0.5, 2.0, math.pi):
        v = airy_pair_eval(cmath.rect(DOMAIN_MAX_ABS, theta))
        assert cmath.isfinite(v), theta
    with pytest.raises(DomainError):
        airy_pair_eval(5001.0)
    with pytest.raises(DomainError):
        airy_pair_eval(cmath.rect(5001.0, 2.0))


def test_model_metadata(airy):
    assert airy.order_rho0 == 0.75
    assert airy.zeros_authoritative
    assert airy.identity_rhos == (0.8, 0.875, 0.95)
    assert airy.domain_radius_max == 5e3
    assert airy.zeros().tail_exponent == pytest.approx(4.0 / 3.0)


def test_model_value_ratio_vs_product(airy):
    for z in (1.0, 4.0, 2 + 2j, 10 - 5j):
        direct = complex(airy.value_ratio(z))
        product = complex(product_eval(airy.zeros(), z))
        assert abs(direct - product) / abs(direct) < 1e-7, z


def test_model_axis_monotone(airy):
    xs = np.linspace(0.0, 20.0, 9)
    vals = [float(abs(airy.value_ratio(x))) for x in xs]
    assert vals[0] == pytest.approx(1.0, abs=1e-12)
    assert all(b > a for a, b in zip(vals, vals[1:]))


def test_model_rejects_out_of_domain(airy):
    airy.value_ratio(1000.0 + 100.0j)
    with pytest.raises(DomainError):
        airy.value_ratio(5.1e3)
    with pytest.raises(DomainError):
        airy.value_ratio(-4000.0 + 4000.0j)


def test_value_ratio_matches_mpmath_airyai(airy, verify_points):
    # Ai(i sqrt z) Ai(-i sqrt z) / Ai(0)^2 at 30 digits: at the verify points,
    # over |z| in [1e-3, 5e3] with |arg z| <= 0.95 pi, and on the negative
    # axis with both signs of a zero imaginary part (f is entire)
    mpmath = pytest.importorskip("mpmath")
    pts = list(verify_points)
    pts += [cmath.rect(r, theta)
            for r in np.geomspace(1e-3, DOMAIN_MAX_ABS, 12)
            for theta in np.linspace(-0.95 * math.pi, 0.95 * math.pi, 9)]
    pts += [complex(-x, zero) for x in (0.5, 3.0, 100.0, 4999.0)
            for zero in (0.0, -0.0)]
    for z in pts:
        with mpmath.workdps(30):
            s = mpmath.sqrt(mpmath.mpc(z))
            want = complex(mpmath.airyai(1j * s) * mpmath.airyai(-1j * s)
                           / mpmath.airyai(0) ** 2)
        got = complex(airy.value_ratio(z))
        assert abs(got - want) <= 1e-12 * abs(want), z
