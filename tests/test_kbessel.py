"""Order-direction profile z -> K_sqrt(z)(a): evaluation, log-derivative,
zero scan, model adapter."""

import cmath
import math

import numpy as np
import pytest

import g0bound.kbessel
from g0bound import bound
from g0bound.errors import (ConvergenceError, DomainError,
                            EvaluationOverflowError, InsufficientZerosError)
from g0bound.kbessel import (KOrderModel, _window, _window_rows, k_order_eval,
                             k_order_log_derivative, k_order_zeros)
from g0bound.numerics import doubling_panel_rules

# 30-digit references for K_sqrt(z)(a)
K_REFERENCE = {
    (1.0, 1.0 + 0.0j): 0.6019072301972346 + 0.0j,
    (1.0, 1.0 + 1.0j): 0.5696424980125051 + 0.20751124761733897j,
    (0.5, 2.0 - 1.0j): 2.506255251660403 - 1.4268111362528517j,
    (2.0, 9.0 + 0.0j): 0.6473853909486341 + 0.0j,
    (1.0, -2.0 + 0.0j): 0.1947691851743938 + 0.0j,
}

K0_REFERENCE = {0.5: 0.9244190712276659, 1.0: 0.42102443824070834,
                2.0: 0.11389387274953344}

# d/dz log K_sqrt(z)(a) on the positive axis
KLD_REFERENCE = {
    (1.0, 1e-6): 0.3655500733221154,
    (1.0, 0.5): 0.35729584744998377,
    (1.0, 4.0): 0.31477941268429105,
    (1.0, 100.0): 0.1473984798009316,
    (2.0, 1.0): 0.20357693969094737,
}

# squared zeros (first six) of tau -> K_{i tau}(a), 25-digit bisection
K_ZEROS_REFERENCE = {
    0.5: [4.4152310442797374, 11.641266543451663, 20.681002201492919,
          31.267506485093191, 43.244850204059735, 56.50642260295322],
    1.0: [8.7766938196884972, 20.56160607276706, 34.572838285816025,
          50.517747993807616, 68.210030610585361, 87.517780489074384],
    2.0: [19.584910613976163, 40.100628481649503, 63.152145528773804,
          88.54076032094486, 116.08499285095547, 145.64103972478785],
}


def test_eval_reference_values():
    for (a, z), want in K_REFERENCE.items():
        got = complex(k_order_eval(a, z))
        assert abs(got - want) / abs(want) < 1e-12, (a, z)


@pytest.mark.parametrize("a", [0.5, 1.0, 2.0])
def test_eval_matches_mpmath_besselk(a, verify_points):
    mpmath = pytest.importorskip("mpmath")
    for z in verify_points:
        with mpmath.workdps(30):
            want = complex(mpmath.besselk(mpmath.sqrt(mpmath.mpc(z)), a))
        got = complex(k_order_eval(a, z))
        assert abs(got - want) <= 1e-12 * abs(want), (a, z)


@pytest.mark.parametrize("a, z", [(1.0, -4650.0), (0.5, -3546.0),
                                  (2.0, -9900.0), (1.0, -7264.0), (1.0, -2.0)])
def test_eval_negative_axis_matches_mpmath(a, z):
    # the first three sit at tau = sqrt(-z) ~ 128 pi/vp, vp the window end:
    # trapezoid sums at 32 and 64 intervals there share the alias
    # K_{i(128 pi/vp - tau)}(a) ~ K_0(a), so two agreeing halvings would
    # accept it, while the true values are below 1e-45
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(30):
        want = float(mpmath.re(mpmath.besselk(1j * math.sqrt(-z), a)))
    assert abs(k_order_eval(a, z) - want) <= 1e-15


@pytest.mark.parametrize("theta", [0.98 * math.pi, 0.99 * math.pi])
@pytest.mark.parametrize("r", [10.0, 1000.0])
def test_eval_near_negative_axis_matches_mpmath(r, theta):
    # Re nu / |nu| ~ 0.016 at 0.99 pi: the centred integrand oscillates so
    # fast that the halvings settle only at 4,096-16,384 intervals
    mpmath = pytest.importorskip("mpmath")
    z = cmath.rect(r, theta)
    for a in (0.5, 2.0):
        with mpmath.workdps(30):
            want = complex(mpmath.besselk(mpmath.sqrt(mpmath.mpc(z)), a))
        got = complex(k_order_eval(a, z))
        assert abs(got - want) <= 1e-11 * abs(want), (a, z)


def test_eval_unresolved_integral_raises():
    # just above the negative axis Re w ~ 3e-4 and Im w ~ 1.7: the centred
    # integrand oscillates ever faster across its window, so the trapezoid
    # halvings reach their node cap and say so instead of returning a value
    with pytest.raises(ConvergenceError):
        k_order_eval(1.0, -4.0 + 1e-3j)


@pytest.mark.parametrize("nu_re", [0.0, 1e-300, 1e-12])
def test_window_that_never_closes_raises(nu_re):
    # with Re w = 0 the drop never reaches its target on the left side: the
    # search must stop with ConvergenceError before math.sinh overflows
    with pytest.raises(ConvergenceError):
        _window(0.0, nu_re)


def test_eval_at_zero_is_k0():
    for a, want in K0_REFERENCE.items():
        assert k_order_eval(a, 0.0) == pytest.approx(want, rel=1e-13)


def test_eval_conjugate_symmetry():
    z = 3.0 + 2.0j
    up = complex(k_order_eval(1.0, z))
    down = complex(k_order_eval(1.0, z.conjugate()))
    assert up == down.conjugate()


def test_eval_real_input_returns_float():
    v = k_order_eval(1.0, 4.0)
    assert isinstance(v, float)
    assert v > 0.0


def test_eval_overflow_guard():
    # nu = sqrt(3e4) ~ 173: the exponent nu*asinh(nu/a) - w tops 700
    with pytest.raises(EvaluationOverflowError):
        k_order_eval(1.0, 3.0e4)


def test_eval_requires_positive_a():
    with pytest.raises(DomainError):
        k_order_eval(0.0, 1.0)
    with pytest.raises(DomainError):
        k_order_eval(-1.0, 1.0)


def test_log_derivative_reference_values():
    for (a, x), want in KLD_REFERENCE.items():
        got = float(k_order_log_derivative(a, x))
        assert got == pytest.approx(want, rel=1e-11), (a, x)


def test_log_derivative_limit_at_zero():
    got = float(k_order_log_derivative(1.0, 0.0))
    assert got == pytest.approx(0.36555009060558485, rel=1e-11)


SMALL_X_AS = [0.2, 0.5, 1.37, 2.0, 10.0]


@pytest.mark.parametrize("a", SMALL_X_AS)
def test_log_derivative_at_zero_matches_mpmath(a):
    # d/dx log K_sqrt(x)(a) at x = 0 is K''_nu(a)|_{nu=0} / (2 K_0(a))
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(30):
        want = float(mpmath.diff(lambda nu: mpmath.besselk(nu, a), 0, 2)
                     / (2 * mpmath.besselk(0, a)))
    got = float(k_order_log_derivative(a, 0.0))
    assert got == pytest.approx(want, rel=1e-12)


def test_log_derivative_seam_continuity():
    # the small-x series and the quadrature branch meet at 1e-4
    for a in SMALL_X_AS:
        lo = float(k_order_log_derivative(a, 1e-4 * (1 - 1e-9)))
        hi = float(k_order_log_derivative(a, 1e-4 * (1 + 1e-9)))
        assert abs(lo - hi) / hi < 1e-10, a


def test_log_derivative_rejects_small_a():
    # below a = 0.1 the small-x series misses 1e-12 next to the seam (4.4e-13
    # at a = 0.05, 1.4e-12 at a = 0.02); values and zeros there are unaffected
    with pytest.raises(DomainError, match="a >= 0.1"):
        k_order_log_derivative(0.05, 1.0)
    with pytest.raises(DomainError):
        KOrderModel(0.05).log_derivative(np.array([0.0, 1.0]))
    assert k_order_eval(0.05, 0.0) > 0.0
    assert k_order_zeros(0.05, 2)[0] > 0.0


@pytest.mark.parametrize("x", [1e-4 * (1 - 1e-9), 1e-4 * (1 + 1e-9)])
def test_log_derivative_at_smallest_a_matches_mpmath(x):
    mpmath = pytest.importorskip("mpmath")
    a = 0.1
    with mpmath.workdps(30):
        want = float(mpmath.diff(
            lambda t: mpmath.log(mpmath.besselk(mpmath.sqrt(t), a)),
            mpmath.mpf(x)))
    assert float(k_order_log_derivative(a, x)) == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize("a", [0.02, 0.05])
def test_axis_moments_match_mpmath(a):
    # the even moments of e^{-a cosh u} that feed the small-x series; the
    # weight's flat plateau of half-width ~log(2/a) is widest at small a
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(30):
        pts = mpmath.linspace(0, mpmath.acosh(1 + 120 / mpmath.mpf(a)), 12)

        def moment(k):
            return mpmath.quad(
                lambda u: u ** k * mpmath.exp(-a * (mpmath.cosh(u) - 1)), pts)

        m0 = moment(0)
        want = [float(moment(k) / m0) for k in (2, 4, 6)]
    got = g0bound.kbessel._axis_moments(a)
    assert got == pytest.approx(want, rel=1e-13)


@pytest.mark.parametrize("a", [0.5, 1.0, 2.0])
def test_log_derivative_on_profile_nodes_matches_mpmath(a):
    # every 25th node of the bound's f'/f profile above the 1e-4 seam, and
    # its last one (1.2e17): (1/(2 nu)) d/dnu log K_nu(a) at nu = sqrt x
    mpmath = pytest.importorskip("mpmath")
    x_gl, _, x_lob, _ = doubling_panel_rules(bound._EPS, bound._PANELS)
    x = np.sort(np.concatenate((x_lob, x_gl)))
    x = x[x > 1e-4]
    x = np.append(x[::25], x[-1])
    got = k_order_log_derivative(a, x)
    with mpmath.workdps(30):
        want = []
        for xi in x:
            nu = mpmath.sqrt(mpmath.mpf(xi))
            want.append(float(mpmath.diff(
                lambda v: mpmath.log(mpmath.besselk(v, a)), nu) / (2 * nu)))
    assert np.max(np.abs(got / np.array(want) - 1.0)) <= 1e-13


def test_window_rows_match_scalar_window():
    # the row search of the log-derivative and the scalar search of values
    # and moments take the same number of growth steps from the same start;
    # numpy's vectorised arccosh is up to 1 ulp off math.acosh, and the
    # repeated factor 1.25 carries that to at most 3 ulp (38 of these 1,000
    # pairs exceed 1 ulp), far below the 25% of one step
    rng = np.random.default_rng(20)
    nu = np.exp(rng.uniform(math.log(1e-3), math.log(4e8), 1000))
    a = np.exp(rng.uniform(math.log(0.1), math.log(10.0), 1000))
    w = np.hypot(a, nu)
    vm, vp = _window_rows(w, nu)
    want_m, want_p = np.array([_window(wi, ni) for wi, ni in zip(w, nu)]).T
    assert np.all(np.abs(vm - want_m) <= 4 * np.spacing(np.abs(want_m)))
    assert np.all(np.abs(vp - want_p) <= 4 * np.spacing(want_p))


def test_window_rows_that_never_close_raise():
    with pytest.raises(ConvergenceError):
        _window_rows(np.array([1.0, 0.0]), np.array([0.5, 1e-12]))


def test_log_derivative_vectorized():
    xs = np.array([0.0, 1e-6, 0.5, 4.0, 100.0])
    vals = k_order_log_derivative(1.0, xs)
    assert vals.shape == xs.shape
    assert np.all(vals > 0.0)
    assert np.all(np.diff(vals) < 0.0)


def test_log_derivative_rejects_negative():
    with pytest.raises(DomainError):
        k_order_log_derivative(1.0, -0.5)


def test_zero_scan_reference_values():
    for a, want in K_ZEROS_REFERENCE.items():
        got = k_order_zeros(a, 6)
        assert np.allclose(got, want, rtol=5e-9), a


@pytest.mark.parametrize("a", [0.5, 1.0, 1.37, 2.0])
def test_zero_scan_matches_mpmath_roots(a):
    # 30-digit secant roots of tau -> K_{i tau}(a) started at each scanned
    # zero; near tau ~ 19, |K_{i tau}(2)| ~ 1e-10 and rounding in the scan's
    # sums limits the deepest zeros to a few 1e-9
    mpmath = pytest.importorskip("mpmath")
    got = k_order_zeros(a, 8)
    with mpmath.workdps(30):
        want = [float(mpmath.findroot(
            lambda t: mpmath.re(mpmath.besselk(1j * t, a)), math.sqrt(z))) ** 2
            for z in got]
    assert np.all(np.diff(want) > 0.0)
    assert np.allclose(got, want, rtol=1e-8, atol=0.0)


@pytest.mark.parametrize("a", [0.5, 1.0, 2.0])
def test_zero_scan_one_bracketed_solve_per_block(a, monkeypatch):
    calls = []
    real = g0bound.kbessel.find_root_bracketed

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(g0bound.kbessel, "find_root_bracketed", counted)
    got = k_order_zeros(a, 8)
    # the scan runs in blocks of 8 in tau and stops at the eighth zero
    assert 1 <= len(calls) <= math.ceil(math.sqrt(got[-1]) / 8.0)


def test_zero_scan_count_bounds():
    with pytest.raises(DomainError):
        k_order_zeros(1.0, 0)
    with pytest.raises(DomainError):
        k_order_zeros(1.0, 33)


def test_zero_scan_floor_limits_count():
    # for a = 2 the unscaled oscillation sinks below the noise floor after
    # eleven zeros
    with pytest.raises(InsufficientZerosError):
        k_order_zeros(2.0, 12)


def test_model_metadata(korder):
    assert korder.order_rho0 == 0.5
    assert not korder.zeros_authoritative
    assert korder.domain_radius_max == 1e4
    assert korder.identity_rhos == (0.55, 0.75, 0.9)
    assert korder.model_id == "k-order(a=1)"
    assert korder.f0 == pytest.approx(K0_REFERENCE[1.0], rel=1e-13)


def test_model_matched_tail(korder):
    zs = korder.zeros()
    assert zs.head.size == 8
    assert zs.tail_exponent == 2.0
    # c is matched so the tail model passes through the last head zero:
    # mp reference for z_8/64 is 2.0406412560523473
    assert zs.tail_coefficient == pytest.approx(zs.head[-1] / 64.0, rel=1e-15)
    assert zs.tail_coefficient == pytest.approx(2.0406412560523473, rel=1e-8)


def test_model_tail_overestimates_true_zeros(korder):
    # matched tail: model zeros beyond the head exceed the true ones, so
    # model zero sums under-count the true ones (low estimates, not bounds)
    zs = korder.zeros()
    true_tail = k_order_zeros(1.0, 12)[8:]
    model_tail = zs.model_zero(np.arange(9, 13))
    ratios = model_tail / true_tail
    assert np.all(ratios > 1.0)
    assert np.all(np.diff(ratios) > 0.0)  # the margin widens with n


def test_model_value_ratio(korder):
    want = (0.5696424980125051 + 0.20751124761733897j) / 0.42102443824070834
    got = complex(korder.value_ratio(1 + 1j))
    assert abs(got - want) / abs(want) < 1e-12
    assert float(abs(korder.value_ratio(0.0))) == pytest.approx(1.0)


def test_model_axis_values_grow(korder):
    vals = [float(abs(korder.value_ratio(x))) for x in (0.0, 1.0, 16.0, 256.0)]
    assert all(b > a for a, b in zip(vals, vals[1:]))
    assert vals[0] == pytest.approx(1.0)
