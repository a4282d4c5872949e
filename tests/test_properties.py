"""Hypothesis properties, drawn deterministically (profile in conftest.py)."""

import cmath
import functools
import math

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

from g0bound.bessel import BesselIModel, bessel_j_squared_zeros  # noqa: E402
from g0bound.bound import evaluate_chain, log_ratio_integral  # noqa: E402
from g0bound.kbessel import k_order_eval, k_order_log_derivative  # noqa: E402
from g0bound.models import build_model  # noqa: E402
from g0bound.verify import run_identity_suite  # noqa: E402
from g0bound.zeros import (ZeroSequence, phi_vec,  # noqa: E402
                           reciprocal_power_zero_sum, sup_weighted_phi,
                           zero_sum_detail)

_ZEROS = st.lists(st.floats(min_value=1e-3, max_value=1e4), min_size=1,
                  max_size=50).map(sorted)
_RHO = st.floats(min_value=0.0, max_value=1.0, exclude_min=True,
                 exclude_max=True)


@hypothesis.given(head=_ZEROS, rho=_RHO)
def test_sup_weighted_phi_between_grid_and_paper_bound(head, rho):
    # from below: the best node of the 512-node grid the sup starts from;
    # from above: sum_n sup_t t^rho e^{-z_n t} = (rho/e)^rho sum_n z_n^-rho
    zs = ZeroSequence(head, 2.0, None)
    ts = np.geomspace(1e-6 / head[-1], 1e3 / head[0], 512)
    grid_best = float(np.max(ts ** rho * phi_vec(zs, ts)))
    upper = math.exp(rho * (math.log(rho) - 1.0)) * float(
        np.sum(np.asarray(head) ** -rho))
    sup = sup_weighted_phi(zs, rho)
    assert grid_best <= sup <= upper * (1.0 + 1e-12)


_TAIL = st.one_of(st.none(), st.tuples(st.floats(min_value=1.1, max_value=4.0),
                                        st.floats(min_value=0.5, max_value=4.0)))
_MODULI = st.lists(st.one_of(st.just(0.0), st.floats(min_value=-8.0, max_value=8.0)
                             .map(lambda e: 10.0 ** e)), min_size=1, max_size=20)


@hypothesis.given(head=_ZEROS, tail=_TAIL, moduli=_MODULI,
                  theta=st.floats(min_value=-0.5 * math.pi, max_value=0.5 * math.pi))
def test_reciprocal_sums_match_dense_reference(head, tail, moduli, theta):
    # tail: (p, s) puts the first model zero at s z_N, so it may fall below
    # the head's last zero; reference: the head term by term plus the tail
    # model's own sum
    if tail is None:
        zs = ZeroSequence(head, 2.0, None)
    else:
        p, s = tail
        zs = ZeroSequence(head, p, s * head[-1] / (len(head) + 1.0) ** p)
    x = np.asarray(moduli)
    for w in (x, x * cmath.exp(1j * theta)):
        for power in (1, 2, 3, 4):
            if power > 1 and zs.has_tail:
                # the tail model's expansion for power >= 2 stops there
                w = w[np.abs(w) <= 0.5 * zs.model_zero(len(head) + 1)]
                if not w.size:
                    continue
            want = np.sum((w[:, None] + zs.head) ** -float(power), axis=1)
            if zs.has_tail:
                want = want + zs.tail_reciprocal_sum(w, power)
            got = reciprocal_power_zero_sum(zs, w, power)
            assert np.all(np.abs(got - want) <= 1e-13 * np.abs(want)), power


@hypothesis.given(nu=st.floats(min_value=-1.0, max_value=3.0, exclude_min=True))
def test_bessel_zeros_interlace_in_order(nu):
    # j_{nu,n} < j_{nu+1,n} < j_{nu,n+1} (Watson, Bessel Functions, 15.22)
    j = np.sqrt(bessel_j_squared_zeros(nu, 21))
    j1 = np.sqrt(bessel_j_squared_zeros(nu + 1.0, 20))
    assert np.all(j[:20] < j1)
    assert np.all(j1 < j[1:])


_BESSEL_NU = st.floats(min_value=-1.0, max_value=3.0, exclude_min=True)


@hypothesis.given(nu=_BESSEL_NU,
                  rho=st.floats(min_value=0.5, max_value=1.0, exclude_min=True,
                                exclude_max=True))
def test_bessel_j_bracket_meets_the_zero_sum(nu, rho):
    # J(rho) = pi/sin(pi rho) sum_n j_{nu,n}^(-2 rho): the certified bracket
    # [J_hi - width, J_hi] from the f'/f profile meets the zero-sum value
    # widened by its error estimate and by what that estimate leaves out
    model = BesselIModel(nu)
    res = log_ratio_integral(model, rho)
    s, err = zero_sum_detail(model.zeros(), rho)
    # sin(pi (1 - rho)), as 1 - rho is exact: pi*rho rounds by ~4e-16,
    # which near rho = 1 is 1e-11 of sin(pi rho)
    scale = math.pi / math.sin(math.pi * (1.0 - rho))
    # zero_sum_detail's err counts neither the zero table's tolerance (each
    # j_{nu,n} to 1e-13 relative, so 2 rho 1e-13 of S; j_{0.7265625,1} is
    # 2.4e-14 off) nor the O(n^-2) terms the tail model drops from
    # j_{nu,n}^2 (S(1) is 1.8e-13 off 1/(4(nu+1)) at nu = 2.9); allow 5e-13
    slack = 5e-13 * scale * s
    assert res.value - res.error_estimate <= scale * (s + err) + slack
    assert scale * (s - err) <= res.value + slack


@hypothesis.given(rho=st.floats(min_value=0.5, max_value=1.0, exclude_min=True,
                                exclude_max=True))
def test_toy_j_bracket_contains_zeta(toy, rho):
    # zeros n^2: J(rho) = pi/sin(pi rho) zeta(2 rho), inside the bracket
    # [J_hi - width, J_hi] with no allowance beyond its width
    mpmath = pytest.importorskip("mpmath")
    res = log_ratio_integral(toy, rho)
    with mpmath.workdps(30):
        r = mpmath.mpf(rho)
        want = float(mpmath.pi / mpmath.sin(mpmath.pi * (1 - r))
                     * mpmath.zeta(2 * r))
    assert res.value - res.error_estimate <= want <= res.value


@hypothesis.given(rho=st.floats(min_value=0.5 + 1e-6, max_value=0.999,
                                exclude_min=True, exclude_max=True))
def test_toy_mellin_record_matches_zeta(toy, rho):
    # zeros n^2: int_0^inf phi(t) t^(rho-1) dt = Gamma(rho) zeta(2 rho), also
    # next to rho0 = 1/2, where the closed-form head carries most of it
    mpmath = pytest.importorskip("mpmath")
    (rec,) = [r for r in run_identity_suite(toy, rho_list=(rho,))
              if r.check_name == "mellin_transform"]
    with mpmath.workdps(30):
        r = mpmath.mpf(rho)
        want = float(mpmath.gamma(r) * mpmath.zeta(2 * r))
    assert abs(rec.lhs - want) <= 1e-11 * want


@hypothesis.given(rho=st.floats(min_value=0.751, max_value=0.999,
                                exclude_min=True, exclude_max=True))
def test_airy_j_bracket_meets_the_zero_sum(airy, rho):
    # J(rho) = pi/sin(pi rho) sum_n t_n^(-2 rho): the bracket meets the
    # zero-sum value widened by its error estimate
    res = log_ratio_integral(airy, rho)
    s, err = zero_sum_detail(airy.zeros(), rho)
    scale = math.pi / math.sin(math.pi * (1.0 - rho))
    assert res.value - res.error_estimate <= scale * (s + err)
    assert scale * (s - err) <= res.value


_K_A = st.floats(min_value=math.log(0.1), max_value=math.log(10.0)).map(math.exp)


@hypothesis.given(a=_K_A,
                  r=st.floats(min_value=math.log(1e-2),
                              max_value=math.log(1e3)).map(math.exp),
                  theta=st.floats(min_value=-0.49 * math.pi,
                                  max_value=0.49 * math.pi))
def test_k_order_eval_matches_mpmath_besselk(a, r, theta):
    mpmath = pytest.importorskip("mpmath")
    z = cmath.rect(r, theta)
    with mpmath.workdps(30):
        want = complex(mpmath.besselk(mpmath.sqrt(mpmath.mpc(z)), a))
    got = complex(k_order_eval(a, z))
    assert abs(got - want) <= 1e-12 * abs(want)


@hypothesis.given(a=_K_A,
                  xs=st.lists(st.floats(min_value=0.0, max_value=1.2e17),
                              min_size=2, max_size=30).map(sorted))
def test_k_order_log_derivative_positive_and_nonincreasing(a, xs):
    # [0, 1.2e17] is the range of the bound's g profile
    vals = k_order_log_derivative(a, np.array(xs))
    assert np.all(vals > 0.0)
    assert np.all(vals[1:] <= vals[:-1] * (1.0 + 1e-13))


_CHAIN_MODELS = (("toy-square", {}), ("bessel-i", {"nu": -0.9}),
                 ("bessel-i", {"nu": 0.0}), ("bessel-i", {"nu": 2.9}),
                 ("airy-pair", {}), ("k-order", {"a": 1.0}))


@functools.lru_cache(maxsize=None)
def _chain_model(k):
    name, params = _CHAIN_MODELS[k]
    return build_model(name, **params)


_UNIT = st.floats(min_value=0.0, max_value=1.0)


def _log_uniform(lo, hi):
    return _UNIT.map(lambda u: lo * (hi / lo) ** u)


_THETA_MAX = 0.5 * math.pi * (1.0 - 1e-9)
# |arg z| uniform up to the edge, or log-uniform down to 1e-12 next to the axis
_ABS_THETA = st.one_of(_UNIT.map(lambda u: u * _THETA_MAX),
                       _log_uniform(1e-12, _THETA_MAX))
# a share of (rho0, 1): uniform, or log-uniform down to 1e-12 from either end
_RHO_SHARE = st.one_of(_UNIT, _log_uniform(1e-12, 0.5),
                       _log_uniform(1e-12, 0.5).map(lambda d: 1.0 - d))


@pytest.mark.parametrize("k", range(len(_CHAIN_MODELS)))
@hypothesis.given(u_r=_UNIT, abs_theta=_ABS_THETA, sign=st.sampled_from((1, -1)),
                  u_rho=_RHO_SHARE)
def test_chain_holds_over_z_and_rho(k, u_r, abs_theta, sign, u_rho):
    # 1 <= |f(Re z)/f(0)| <= |f(z)/f(0)| <= exp(E(z, rho)) for |z| drawn
    # log-uniform in [1e-3, min(domain cap, 1e3)], |arg z| < pi/2 and rho
    # anywhere in (rho0, 1)
    model = _chain_model(k)
    r = 1e-3 * (min(model.domain_radius_max, 1e3) / 1e-3) ** u_r
    rho = model.order_rho0 + u_rho * (1.0 - model.order_rho0)
    hypothesis.assume(model.order_rho0 < rho < 1.0)
    rep = evaluate_chain(model, cmath.rect(r, sign * abs_theta), rho)
    assert rep.chain_ok, rep
