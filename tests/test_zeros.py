"""Zero-sequence container, tail-completed sums, products, phi."""

import math
import warnings

import numpy as np
import pytest

from g0bound.errors import DivergenceError, DomainError
from g0bound.zeros import (ZeroSequence, model_from_zeros, phi, product_eval,
                           reciprocal_power_zero_sum, reciprocal_zero_sum,
                           sup_weighted_phi, zero_sum)

# independent values: zeta(1.2), zeta(1.5), zeta(1.8)
ZETA_12 = 5.5915824411777519
ZETA_15 = 2.6123753486854883
ZETA_18 = 1.8822296181028220


def toy_sequence(head=10_000):
    n = np.arange(1, head + 1, dtype=float)
    return ZeroSequence(n * n, 2.0, 1.0, order_rho0=0.5)


def test_validation_rejects_bad_heads():
    with pytest.raises(DomainError):
        ZeroSequence([0.0, 1.0], 2.0, 1.0, order_rho0=0.5)
    with pytest.raises(DomainError):
        ZeroSequence([2.0, 1.0], 2.0, 1.0, order_rho0=0.5)
    with pytest.raises(DomainError):
        ZeroSequence([], 2.0, 1.0, order_rho0=0.5)


def test_validation_tail_parameters():
    with pytest.raises(DomainError):
        ZeroSequence([1.0], 1.0, 1.0, order_rho0=0.5)  # exponent must be > 1
    with pytest.raises(DomainError):
        ZeroSequence([1.0], 2.0, -1.0, order_rho0=0.5)
    # tailed sequences pin order_rho0 to 1/tail_exponent
    with pytest.raises(DomainError):
        ZeroSequence([1.0], 2.0, 1.0, order_rho0=0.6)
    with pytest.raises(DomainError):
        ZeroSequence([1.0], 2.0, None, order_rho0=1.0)
    # head-only sequences default to order 0
    assert ZeroSequence([1.0], 2.0, None).order_rho0 == 0.0


def test_zero_sum_matches_zeta():
    zs = toy_sequence()
    assert zero_sum(zs, 0.6) == pytest.approx(ZETA_12, rel=1e-9)
    assert zero_sum(zs, 0.75) == pytest.approx(ZETA_15, rel=1e-10)
    assert zero_sum(zs, 0.9) == pytest.approx(ZETA_18, rel=1e-10)
    assert zero_sum(zs, 1.0) == pytest.approx(math.pi ** 2 / 6.0, rel=1e-10)


def test_zero_sum_small_head_uses_tail():
    # 40 explicit zeros + tail model must still reach the closed form
    zs = toy_sequence(head=40)
    assert zero_sum(zs, 0.75) == pytest.approx(ZETA_15, rel=1e-8)


def test_zero_sum_diverges_at_order():
    zs = toy_sequence(head=50)
    with pytest.raises((DivergenceError, DomainError)):
        zero_sum(zs, 0.5)


def test_product_eval_toy_closed_form():
    zs = toy_sequence()
    for z in (0.5, 2.0, 1 + 1j, 4 - 2j, 9.0):
        w = np.pi * np.sqrt(complex(z))
        want = np.sinh(w) / w
        got = product_eval(zs, z)
        assert abs(got - want) / abs(want) < 1e-7, z


def test_product_eval_at_zero_is_one():
    assert product_eval(toy_sequence(), 0.0) == pytest.approx(1.0, abs=1e-12)


def test_phi_matches_direct_sum():
    zs = toy_sequence(head=60)
    n = np.arange(1, 300_001, dtype=float)
    for t in (0.01, 0.1, 1.0, 5.0):
        direct = float(np.exp(-n * n * t).sum())
        assert phi(zs, t) == pytest.approx(direct, rel=1e-9), t


def test_phi_requires_positive_t():
    with pytest.raises(DomainError):
        phi(toy_sequence(head=10), 0.0)


def test_sup_weighted_phi_toy():
    # sup_t t^0.75 sum e^{-n^2 t}; high-precision reference 0.45413034500424715
    zs = toy_sequence()
    assert sup_weighted_phi(zs, 0.75) == pytest.approx(0.45413034500424715,
                                                       rel=1e-9)


def _sum_recip_squares_plus(w):
    # sum_n 1/(n^2 + w) = (pi sqrt(w) coth(pi sqrt(w)) - 1) / (2w)
    if w == 0:
        return math.pi ** 2 / 6.0
    r = np.sqrt(complex(w))
    return (np.pi * r / np.tanh(np.pi * r) - 1.0) / (2.0 * w)


def test_reciprocal_sums_against_closed_form():
    zs = toy_sequence(head=50)
    for w in (0.0, 0.7, 13.0):
        want = complex(_sum_recip_squares_plus(w)).real
        assert reciprocal_zero_sum(zs, w) == pytest.approx(want, rel=1e-9), w


def test_reciprocal_power_sum_complex():
    zs = toy_sequence(head=50)
    n = np.arange(1, 500_001, dtype=float)
    zn = n * n
    for w in (1 + 1j, 2 + 3j, 0.5 + 0.2j):
        want = complex(_sum_recip_squares_plus(w))
        got = complex(reciprocal_power_zero_sum(zs, w, 1))
        assert abs(got - want) / abs(want) < 1e-9, w
        # powers >= 2: direct truncation error is ~N^(1-2p), negligible
        for power in (2, 3, 4):
            direct = complex((1.0 / (w + zn) ** power).sum())
            got = complex(reciprocal_power_zero_sum(zs, w, power))
            assert abs(got - direct) / abs(direct) < 1e-8, (w, power)


def test_model_from_zeros_roundtrip():
    zs = toy_sequence()
    m = model_from_zeros(zs, model_id="toy")
    assert m.model_id == "toy"
    assert m.order_rho0 == 0.5
    assert m.zeros_authoritative
    assert m.value_ratio(1.0) == pytest.approx(math.sinh(math.pi) / math.pi,
                                               rel=1e-7)
    # x = 0 returns the reciprocal-sum limit of f'/f
    assert m.log_derivative(0.0) == pytest.approx(math.pi ** 2 / 6.0,
                                                  rel=1e-9)
    with pytest.raises(DomainError):
        m.log_derivative(-1.0)


def test_phi_negative_tail_shift_emits_no_warning():
    # Bessel nu > 1/2 has a negative tail shift: exp(-shift t) overflows
    # where the tail sum has already underflowed to 0
    from g0bound.bessel import BesselIModel
    from g0bound.zeros import phi_vec

    zs = BesselIModel(2.0).zeros()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        vals = phi_vec(zs, [1.0, 10.0, 1e3])
    assert np.all(np.isfinite(vals)) and vals[-1] == 0.0
    assert vals[0] == pytest.approx(phi(zs, 1.0), rel=1e-15)
