"""Airy-pair model: Maclaurin evaluation, zero head, pair symmetry."""

import math

import numpy as np
import pytest
import scipy.special

import g0bound.airy
from g0bound.airy import (AiryPairModel, airy_ai_maclaurin, airy_pair_eval,
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


def test_zero_table_is_one_bracketed_solve(monkeypatch):
    calls = []
    real = g0bound.airy.find_root_bracketed

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(g0bound.airy, "find_root_bracketed", counted)
    airy_squared_zeros(200)
    assert len(calls) == 1


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
    with pytest.raises(DomainError):
        airy_pair_eval(26.0)
    airy_pair_eval(39.0, z_max=40.0)  # explicit cap extends the domain


def test_model_metadata(airy):
    assert airy.order_rho0 == 0.75
    assert airy.zeros_authoritative
    assert airy.identity_rhos == (0.8, 0.875, 0.95)
    assert airy.domain_radius_max == 25.0
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
    with pytest.raises(DomainError):
        airy.value_ratio(30.0)


def test_value_ratio_matches_mpmath_airyai(airy, verify_points):
    # Ai(i sqrt z) Ai(-i sqrt z) / Ai(0)^2 at 30 digits
    mpmath = pytest.importorskip("mpmath")
    for z in verify_points:
        with mpmath.workdps(30):
            s = mpmath.sqrt(mpmath.mpc(z))
            want = complex(mpmath.airyai(1j * s) * mpmath.airyai(-1j * s)
                           / mpmath.airyai(0) ** 2)
        got = complex(airy.value_ratio(z))
        assert abs(got - want) <= 1e-12 * abs(want), z
