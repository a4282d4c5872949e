"""Zero-sequence container, tail-completed sums, products, phi."""

import math
import tracemalloc
import warnings

import numpy as np
import pytest

from g0bound import bound, zeros
from g0bound.airy import AiryPairModel
from g0bound.bessel import BesselIModel
from g0bound.errors import DivergenceError, DomainError
from g0bound.models import toy_square_model
from g0bound.numerics import doubling_panel_rules
from g0bound.zeros import (ZeroSequence, model_from_zeros, phi, phi_vec,
                           product_eval, reciprocal_power_zero_sum,
                           reciprocal_zero_sum, sup_weighted_phi, zero_sum)

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


@pytest.mark.parametrize("head", [1, 8, 32, 50, 10_000])
def test_reciprocal_sum_tail_extension_matches_closed_form(head):
    # 0.5 < w / z_{N+1} < 2: the head is extended by model zeros to at least
    # 2 max w and to z_256, and the series takes the rest
    mpmath = pytest.importorskip("mpmath")
    zs = toy_sequence(head=head)
    w = np.geomspace(0.51, 1.99, 9) * (head + 1.0) ** 2
    with mpmath.workdps(30):
        want = np.array([float(
            mpmath.pi * mpmath.coth(mpmath.pi * mpmath.sqrt(v))
            / (2 * mpmath.sqrt(v)) - 1 / (2 * v))
            for v in map(mpmath.mpf, w.tolist())])
    got = reciprocal_zero_sum(zs, w)
    assert np.max(np.abs(got / want - 1.0)) <= 1e-14


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
    zs = BesselIModel(2.0).zeros()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        vals = phi_vec(zs, [1.0, 10.0, 1e3])
    assert np.all(np.isfinite(vals)) and vals[-1] == 0.0
    assert vals[0] == pytest.approx(phi(zs, 1.0), rel=1e-15)


def _phi_per_t(zs, t):
    """Reference phi: one head window and one exp sum per t, then the tail."""
    flat = np.asarray(t, dtype=float).reshape(-1)
    out = np.empty(flat.shape)
    zh = zs.head
    for i, ti in enumerate(flat):
        k = np.searchsorted(zh, zh[0] + 46.0 / ti, side="right")
        out[i] = np.exp(-zh[:k] * ti).sum()
    if zs.has_tail:
        out = out + zs.tail_exp_sum(flat)
    return out


@pytest.mark.parametrize("which", ["toy", "bessel-nu2", "head-only"])
def test_phi_vec_matches_per_t_reference(which):
    # windows run from one term (large t) to the whole head (small t)
    zs = {"toy": toy_sequence,
          "bessel-nu2": lambda: BesselIModel(2.0).zeros(),
          "head-only": lambda: ZeroSequence(np.arange(1.0, 301.0) ** 1.5,
                                            2.0, None)}[which]()
    t = np.random.default_rng(7).permutation(np.geomspace(1e-12, 1e3, 401))
    want = _phi_per_t(zs, t)
    got = phi_vec(zs, t)
    live = want > 0.0
    assert np.array_equal(got[~live], want[~live])
    assert np.max(np.abs(got[live] / want[live] - 1.0)) <= 1e-14


def test_phi_vec_shape_contract():
    zs = toy_sequence(head=50)
    t = np.geomspace(1e-3, 10.0, 12).reshape(3, 4)
    got = phi_vec(zs, t)
    assert got.shape == (3, 4)
    assert np.allclose(got.reshape(-1), _phi_per_t(zs, t), rtol=1e-14, atol=0.0)
    assert type(phi_vec(zs, 0.5)) is float
    for bad in (0.0, -1.0, np.inf, np.nan, [1.0, 0.0]):
        with pytest.raises(DomainError):
            phi_vec(zs, bad)


def test_phi_samples_toy_match_jacobi_and_mpmath():
    # phi(t) = sum_n e^{-n^2 t} on all 512 sup-grid nodes, 181 of them with
    # t z_N <= 1 (the head-moment series): below t = 1 through Jacobi's
    # theta_3(t) = sqrt(pi/t) (1 + 2 sum_k e^{-pi^2 k^2 / t}), above it as
    # a direct 30-digit sum
    mpmath = pytest.importorskip("mpmath")
    zs = toy_sequence()
    ts, phis = zs.phi_samples()
    want = []
    with mpmath.workdps(30):
        for t in map(mpmath.mpf, ts.tolist()):
            if t < 1:
                theta = mpmath.sqrt(mpmath.pi / t) * (1 + 2 * mpmath.nsum(
                    lambda k: mpmath.exp(-mpmath.pi ** 2 * k ** 2 / t),
                    [1, mpmath.inf]))
                want.append(float((theta - 1) / 2))
            else:
                want.append(float(mpmath.nsum(lambda k: mpmath.exp(-k * k * t),
                                              [1, mpmath.inf])))
    want = np.array(want)
    live = want > 0.0
    assert np.count_nonzero(ts * zs.head[-1] <= 1.0) == 181
    assert np.max(np.abs(phis[live] / want[live] - 1.0)) <= 1e-14


def test_phi_vec_head_only_matches_dense_sum():
    # a head-only sequence has no tail term: the head-moment series (t z_N
    # <= 1) and the windowed exp blocks against every term, summed exactly
    zs = ZeroSequence(np.arange(1.0, 301.0) ** 1.5, 2.0, None)
    t = np.geomspace(1e-6 / zs.head[-1], 1e3 / zs.head[0], 256)
    want = np.array([math.fsum(np.exp(-ti * zs.head)) for ti in t])
    got = phi_vec(zs, t)
    live = want > 0.0
    assert np.any(t * zs.head[-1] <= 1.0)
    assert np.max(np.abs(got[live] / want[live] - 1.0)) <= 1e-14


def test_phi_vec_memory_stays_blockwise():
    # the 512-node sup grid over the 10,000-zero toy would need 40 MB as one
    # dense exp matrix; blocks of 2^16 terms keep it near 1 MB
    zs = toy_sequence()
    ts = np.geomspace(1e-6 / zs.head[-1], 1e3 / zs.head[0], 512)
    tracemalloc.start()
    try:
        phi_vec(zs, ts)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2 ** 20


@pytest.mark.parametrize("z", [1e-3, 1.0, 1e4])
def test_sup_weighted_phi_single_zero_closed_form(z):
    # sup_t t^rho e^{-z t} is attained at t = rho/z
    zs = ZeroSequence([z], 2.0, None)
    for rho in (0.05, 0.5, 0.95):
        want = (rho / (math.e * z)) ** rho
        assert sup_weighted_phi(zs, rho) == pytest.approx(want, rel=1e-13), rho


def test_sup_weighted_phi_two_zeros_matches_mpmath():
    mpmath = pytest.importorskip("mpmath")
    z1, z2 = 1.0, 2.5
    zs = ZeroSequence([z1, z2], 2.0, None)
    for rho in (0.2, 0.5, 0.9):
        with mpmath.workdps(30):
            def dlog(t):
                e1, e2 = mpmath.exp(-z1 * t), mpmath.exp(-z2 * t)
                return rho / t - (z1 * e1 + z2 * e2) / (e1 + e2)

            # the only critical point lies in [rho/z2, rho/z1]
            t_star = mpmath.findroot(dlog, (mpmath.mpf(rho) / z2,
                                            mpmath.mpf(rho) / z1),
                                     solver="anderson")
            want = float(t_star ** rho * (mpmath.exp(-z1 * t_star)
                                          + mpmath.exp(-z2 * t_star)))
        assert sup_weighted_phi(zs, rho) == pytest.approx(want, rel=1e-13), rho


def test_sup_weighted_phi_work_budget(monkeypatch):
    # phi is sampled on the 512-node grid once per sequence; each rho then
    # costs only its refinement rounds
    calls = []
    real = zeros.phi_vec

    def counting(zs, t):
        calls.append(np.size(t))
        return real(zs, t)

    monkeypatch.setattr(zeros, "phi_vec", counting)
    zs = toy_sequence(head=200)
    sup_weighted_phi(zs, 0.75)
    assert calls[0] == 512 and calls[1:].count(512) == 0
    assert 1 <= len(calls) - 1 <= 16
    calls.clear()
    sup_weighted_phi(zs, 0.6)
    assert 512 not in calls and 1 <= len(calls) <= 16


def _profile_nodes():
    """x = 0 and every node at which bound._Profile samples f'/f."""
    x_gl, _, x_lob, _ = doubling_panel_rules(bound._EPS, bound._PANELS)
    return np.concatenate(([0.0], x_lob, x_gl))


def _dense_reciprocal_sum(zs, w, power=1):
    """Reference: the head summed term by term, plus the tail model's sum."""
    w = np.asarray(w)
    head = np.sum((w[:, None] + zs.head) ** -float(power), axis=1)
    return head + (zs.tail_reciprocal_sum(w, power) if zs.has_tail else 0.0)


def _rotations(x):
    # the same moduli turned through the closed right half-plane
    return x * np.exp(1j * np.linspace(-0.5 * np.pi, 0.5 * np.pi, x.size))


def test_reciprocal_sum_toy_profile_matches_mpmath():
    # sum_n 1/(n^2 + w) = pi coth(pi sqrt w)/(2 sqrt w) - 1/(2w), at every
    # profile node and at the same moduli off the axis
    mpmath = pytest.importorskip("mpmath")
    zs = toy_sequence()
    x = _profile_nodes()
    for w in (x, _rotations(x)):
        got = np.concatenate([reciprocal_zero_sum(zs, w[i:i + 64])
                              for i in range(0, w.size, 64)])
        with mpmath.workdps(30):
            want = np.array([
                complex(mpmath.pi ** 2 / 6 if v == 0 else
                        mpmath.pi * mpmath.coth(mpmath.pi * mpmath.sqrt(v))
                        / (2 * mpmath.sqrt(v)) - 1 / (2 * v))
                for v in map(mpmath.mpmathify, w.tolist())])
        assert np.max(np.abs(got - want) / np.abs(want)) <= 1e-14


@pytest.mark.parametrize("which", ["bessel-nu0", "airy", "head-only"])
def test_reciprocal_sum_profile_matches_dense_reference(which):
    zs = {"bessel-nu0": lambda: BesselIModel(0.0).zeros(),
          "airy": lambda: AiryPairModel().zeros(),
          "head-only": lambda: model_from_zeros(ZeroSequence(
              np.arange(1.0, 301.0) ** 1.5, 2.0, None)).zeros()}[which]()
    x = _profile_nodes()
    if which == "bessel-nu0":
        x = x[x > 1e4]  # the model's own series covers smaller x
    for w in (x, _rotations(x)):
        got = np.concatenate([reciprocal_zero_sum(zs, w[i:i + 64])
                              for i in range(0, w.size, 64)])
        want = _dense_reciprocal_sum(zs, w)
        assert np.max(np.abs(got - want) / np.abs(want)) <= 1e-14


def test_reciprocal_power_sum_matches_dense_reference():
    # the table's binomial series for powers 2..4, on and off the axis,
    # within the range where the tail model's own series applies
    zs = toy_sequence()
    x = np.geomspace(1e-3, 1e7, 61)
    for w in (x, _rotations(x)):
        for power in (2, 3, 4):
            got = reciprocal_power_zero_sum(zs, w, power)
            want = _dense_reciprocal_sum(zs, w, power)
            assert np.max(np.abs(got - want) / np.abs(want)) <= 1e-14, power
    with pytest.raises(DomainError):
        reciprocal_power_zero_sum(zs, 1e9, 2)  # past half the first model zero


def test_reciprocal_sum_work_budget(monkeypatch):
    # one toy profile sums at most 2.0M head terms densely; every zero past
    # 4x enters through the suffix power-sum table (10.3M terms without it)
    counted = []
    real = zeros._head_sums

    def counting(zh, x, k, term):
        counted.append(int(np.sum(k)))
        return real(zh, x, k, term)

    monkeypatch.setattr(zeros, "_head_sums", counting)
    bound._Profile(toy_square_model())
    assert 0 < sum(counted) <= 2_000_000


def test_expansion_tables_built_on_first_use():
    zs = toy_sequence(head=300)
    assert zs._suffix_table is None and zs._head_moments is None
    reciprocal_zero_sum(zs, 1.0)
    assert zs._suffix_table is not None and zs._head_moments is None
    m, r, suffix = zs.suffix_power_table()
    assert m.tolist() == [0, 1, 2, 4, 8, 16, 32, 64, 128, 256, 300]
    assert np.array_equal(r, (m + 1.0) ** 2)
    # the k = 1 column is r * (sum_{n>m} n^-2), tail included
    want = [r_i * (math.pi ** 2 / 6 - np.sum(1.0 / np.arange(1.0, m_i + 1.0) ** 2))
            for m_i, r_i in zip(m, r)]
    assert suffix[:, 0] == pytest.approx(want, rel=1e-12)


def test_expansion_tables_match_fsum():
    # every entry of the toy's two tables against math.fsum of explicit
    # powers: Q[i, k-1] = sum_{n>m_i} (r_i/z_n)^k + r_i^k tail_power_sum(k)
    # and mu_k = sum_n (z_n/z_N)^k
    zs = toy_sequence()
    head = zs.head
    m, r, suffix = zs.suffix_power_table()
    for i, (m_i, r_i) in enumerate(zip(m, r)):
        for k in range(1, suffix.shape[1] + 1):
            want = (math.fsum(np.power(r_i / head[m_i:], k))
                    + r_i ** k * zs.tail_power_sum(float(k)))
            assert abs(suffix[i, k - 1] - want) <= 1e-15 * want, (m_i, k)
    mu = zs.head_moments()
    for k, got in enumerate(mu):
        want = math.fsum(np.power(head / head[-1], k))
        assert abs(got - want) <= 1e-15 * want, k
