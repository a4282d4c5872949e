"""Modified-Bessel model: F_nu(z) = I_nu(sqrt z)/(sqrt z/2)^nu through scipy's
ive past the series seam and the power series below it, f'/f on the axis,
the j_{nu,n}^2 zero table and its Rayleigh sums."""

import cmath
import math

import numpy as np
import pytest
import scipy.special

import g0bound.bessel
from g0bound.bessel import (BesselIModel, bessel_i_log_derivative,
                            bessel_i_scaled, bessel_j_squared_zeros)
from g0bound.errors import DomainError
from g0bound.zeros import zero_sum

# reference values computed with 30-digit arithmetic:
# F_nu(x) = I_nu(sqrt x) / (sqrt x / 2)^nu
F_REFERENCE = {
    (0.0, 1.0): 1.2660658777520084,
    (0.5, 4.0): 2.046236863089055,
    (2.0, 10.0): 1.0710071731462947,
    (-0.5, 2.0): 1.2289084736935603,
}

# j_{0,n}^2 for n = 1..5
J0_SQUARED = [5.783185962946784, 30.471262343662087, 74.88700679069518,
              139.04028442645986, 222.93230361763415]


def test_series_reference_values():
    for (nu, x), want in F_REFERENCE.items():
        got = bessel_i_scaled(nu, x)
        assert got == pytest.approx(want, rel=1e-13), (nu, x)


def test_series_at_zero():
    # F_nu(0) = 1/Gamma(nu+1)
    for nu in (-0.5, 0.0, 0.5, 2.0):
        assert bessel_i_scaled(nu, 0.0) == pytest.approx(
            1.0 / math.gamma(nu + 1.0), rel=1e-14)


def test_series_rejects_nu_at_most_minus_one():
    with pytest.raises(DomainError):
        bessel_i_scaled(-1.0, 1.0)
    with pytest.raises(DomainError):
        BesselIModel(-1.5)


def test_log_derivative_limit_at_zero():
    # (f'/f)(0) = 1/(4(nu+1)), the full Rayleigh sum
    for nu in (-0.999, -0.5, 0.0, 0.5, 2.0, 2.9):
        got = bessel_i_log_derivative(nu, 0.0)
        assert got == pytest.approx(0.25 / (nu + 1.0), rel=1e-15), nu
        assert BesselIModel(nu).log_derivative(0.0) == got


def test_log_derivative_positive_and_decreasing():
    xs = np.array([0.5, 1.0, 2.0, 4.0, 8.0, 16.0])
    vals = bessel_i_log_derivative(0.5, xs)
    assert np.all(vals > 0.0)
    assert np.all(np.diff(vals) < 0.0)


def test_zero_head_matches_reference():
    got = bessel_j_squared_zeros(0.0, 5)
    assert np.allclose(got, J0_SQUARED, rtol=1e-10)


def test_zero_head_interlaces_in_nu():
    a = bessel_j_squared_zeros(0.0, 10)
    b = bessel_j_squared_zeros(0.5, 10)
    assert np.all(b > a)  # j_{nu,n} increases with nu


def test_rayleigh_sum_head_plus_tail(bessel_zero, bessel_half):
    for model, nu in ((bessel_zero, 0.0), (bessel_half, 0.5)):
        s = zero_sum(model.zeros(), 1.0)
        assert s == pytest.approx(0.25 / (nu + 1.0), rel=1e-6), nu


def test_model_value_ratio_complex(bessel_half):
    # I_nu-route reference at z = 1+2i, nu = 0.5
    want = 1.1394658828068807 + 0.3662027590030942j
    got = complex(bessel_half.value_ratio(1 + 2j))
    assert abs(got - want) / abs(want) < 1e-12


def test_model_value_ratio_is_one_at_zero(bessel_zero):
    assert complex(bessel_zero.value_ratio(0.0)) == pytest.approx(1.0)


def test_model_rejects_out_of_domain(bessel_zero):
    with pytest.raises(DomainError):
        bessel_zero.value_ratio(2.0 * bessel_zero.domain_radius_max)
    with pytest.raises(DomainError):
        bessel_zero.log_derivative(-1.0)


def test_model_metadata(bessel_half):
    assert bessel_half.order_rho0 == 0.5
    assert bessel_half.zeros_authoritative
    assert bessel_half.identity_rhos == (0.55, 0.75, 0.9)
    assert bessel_half.model_id == "bessel-i(nu=0.5)"


def test_product_route_agrees_with_series(bessel_half):
    # value via the zero product (head+tail) against the direct series
    from g0bound.zeros import product_eval

    for z in (0.5, 2.0, 1 + 1j, 4 - 3j):
        series = complex(bessel_half.value_ratio(z))
        product = complex(product_eval(bessel_half.zeros(), z))
        assert abs(series - product) / abs(series) < 1e-7, z


@pytest.mark.parametrize("nu", [-0.999, -0.99, -0.97, -0.5])
def test_first_zero_near_minus_one_matches_mpmath(nu):
    # as nu -> -1 the first zero closes in on the Rayleigh bracket
    # 2 sqrt(nu+1) < j < 2 sqrt((nu+1)(nu+2)).  The oracle is mpmath's
    # 30-digit J_nu root in that bracket (besseljzero only takes nu >= 0).
    mpmath = pytest.importorskip("mpmath")
    lo = 2.0 * math.sqrt(nu + 1.0)
    hi = lo * math.sqrt(nu + 2.0)
    with mpmath.workdps(30):
        want = float(mpmath.findroot(lambda w: mpmath.besselj(nu, w),
                                     (lo, hi), solver="anderson"))
    zeros = bessel_j_squared_zeros(nu, 3)
    assert math.sqrt(zeros[0]) == pytest.approx(want, rel=1e-13)
    assert lo < math.sqrt(zeros[0]) < hi < math.sqrt(zeros[1])


def test_model_builds_for_nu_near_minus_one():
    # every nu in (-1, 0] used to need McMahon's guess for j_{nu,1}
    for nu in np.linspace(-0.999, 0.0, 400):
        bessel_j_squared_zeros(float(nu), 2)
    model = BesselIModel(-0.97)
    assert zero_sum(model.zeros(), 1.0) == pytest.approx(
        0.25 / (1.0 - 0.97), rel=1e-6)


@pytest.mark.parametrize("nu", [0.0, 0.5, 2.0, 2.9])
def test_zeros_match_mpmath_besseljzero(nu):
    mpmath = pytest.importorskip("mpmath")
    roots = np.sqrt(bessel_j_squared_zeros(nu, 200))
    for n in (1, 2, 10, 200):
        with mpmath.workdps(30):
            want = float(mpmath.besseljzero(nu, n))
        assert roots[n - 1] == pytest.approx(want, rel=1e-13), n


@pytest.mark.parametrize("nu", [5, 30, 50, 100])
def test_zeros_match_scipy_jn_zeros(nu):
    roots = np.sqrt(bessel_j_squared_zeros(nu, 200))
    assert np.allclose(roots, scipy.special.jn_zeros(nu, 200), rtol=1e-13,
                       atol=0.0)


@pytest.mark.parametrize("nu", [-0.5, 0.0, 2.9])
def test_rayleigh_sum_misses_no_zero(nu):
    # sum_n j_{nu,n}^-2 = 1/(4(nu+1)): one missed zero in the head would
    # leave a gap of at least j_{nu,200}^-2 ~ 2.5e-6 relative
    model = BesselIModel(nu)
    assert zero_sum(model.zeros(), 1.0) == pytest.approx(
        0.25 / (nu + 1.0), rel=1e-6)


def test_zero_table_is_one_bracketed_solve(monkeypatch):
    calls = []
    real = g0bound.bessel.find_root_bracketed

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(g0bound.bessel, "find_root_bracketed", counted)
    bessel_j_squared_zeros(0.0, 200)
    assert len(calls) == 1


@pytest.mark.parametrize("nu", [-0.5, 0.0, 0.5, 2.0, 2.9])
def test_value_ratio_matches_mpmath_besseli(nu, verify_points):
    # F_nu(z) = I_nu(sqrt z) Gamma(nu+1) / (sqrt z / 2)^nu at 30 digits
    mpmath = pytest.importorskip("mpmath")
    model = BesselIModel(nu)
    for z in verify_points:
        with mpmath.workdps(30):
            s = mpmath.sqrt(mpmath.mpc(z))
            want = complex(mpmath.besseli(nu, s) / (s / 2) ** nu
                           * mpmath.gamma(nu + 1))
        got = complex(model.value_ratio(z))
        assert abs(got - want) <= 1e-12 * abs(want), (nu, z)


def _mp_value_ratio(mpmath, nu, z):
    with mpmath.workdps(30):
        s = mpmath.sqrt(mpmath.mpc(z))
        return complex(mpmath.besseli(nu, s) / (s / 2) ** nu
                       * mpmath.gamma(nu + 1))


def _mp_log_derivative(mpmath, nu, x):
    # I_(nu+1)(r) / (2 r I_nu(r)) with r = sqrt x
    with mpmath.workdps(30):
        r = mpmath.sqrt(mpmath.mpf(x))
        return float(mpmath.besseli(nu + 1, r) / (2 * r * mpmath.besseli(nu, r)))


@pytest.mark.parametrize("nu", [-0.5, 0.0, 0.5, 2.0, 2.9])
def test_value_ratio_matches_mpmath_out_to_the_domain_cap(nu):
    # |z| from the series seam to the cap 1e4, |arg z| <= pi/2
    mpmath = pytest.importorskip("mpmath")
    model = BesselIModel(nu)
    for r in np.geomspace(4.5, model.domain_radius_max, 9):
        for theta in np.linspace(-0.5 * math.pi, 0.5 * math.pi, 9):
            z = cmath.rect(r, theta)
            want = _mp_value_ratio(mpmath, nu, z)
            got = complex(model.value_ratio(z))
            assert abs(got - want) <= 1e-12 * abs(want), (nu, z)


@pytest.mark.parametrize("nu", [-0.999, -0.5, 0.0, 0.5, 2.0, 2.9])
def test_log_derivative_matches_mpmath_on_the_profile_range(nu):
    # [1e-10, 1.2e17] is the range of the bound's g profile
    mpmath = pytest.importorskip("mpmath")
    xs = np.geomspace(1e-10, 1.2e17, 81)
    got = BesselIModel(nu).log_derivative(xs)
    for x, g in zip(xs, got):
        want = _mp_log_derivative(mpmath, nu, x)
        assert g == pytest.approx(want, rel=1e-13, abs=0.0), (nu, x)


@pytest.mark.parametrize("nu", [-0.999, 2.9])
def test_tiny_argument_is_the_limit_at_zero(nu):
    # ive(nu, w) and (w/2)^nu both underflow here; the series does not, and
    # the RuntimeWarning filter turns any 0/0 into a failure
    model = BesselIModel(nu)
    assert model.value_ratio(1e-300) == 1.0
    assert bessel_i_scaled(nu, 1e-300) == pytest.approx(1.0 / math.gamma(nu + 1.0),
                                                        rel=1e-15)
    assert model.log_derivative(1e-300) == pytest.approx(0.25 / (nu + 1.0),
                                                         rel=1e-15)


@pytest.mark.parametrize("nu", [-0.999, -0.5, 0.0, 0.5, 2.0, 2.9])
def test_series_ive_seam_matches_mpmath(nu):
    # the moduli on either side of the switch from the series to ive
    mpmath = pytest.importorskip("mpmath")
    seam = g0bound.bessel._SERIES_MAX_ABS
    moduli = [np.nextafter(seam, 0.0), seam, np.nextafter(seam, np.inf)]
    model = BesselIModel(nu)
    for mod in moduli:
        for theta in (0.0, 0.5, -1.0, 1.5):
            z = cmath.rect(mod, theta) if theta else complex(mod)
            want = _mp_value_ratio(mpmath, nu, z)
            got = complex(model.value_ratio(z))
            assert abs(got - want) <= 1e-14 * abs(want), (nu, z)
    got = model.log_derivative(np.array(moduli))
    for x, g in zip(moduli, got):
        want = _mp_log_derivative(mpmath, nu, x)
        assert g == pytest.approx(want, rel=1e-14, abs=0.0), (nu, x)
