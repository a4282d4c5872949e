"""Quadrature, root finding, scalar minimization, gamma."""

import math

import numpy as np
import pytest

from g0bound.errors import (BracketError, ConvergenceError, DomainError,
                            EvaluationOverflowError)
from g0bound.numerics import (QuadratureResult, doubling_panel_rules,
                              find_root_bracketed, gamma, integrate_singular,
                              minimize_scalar, quad_adaptive)


def test_gamma_values():
    assert gamma(0.5) == pytest.approx(math.sqrt(math.pi), rel=1e-14)
    assert gamma(5.0) == 24.0
    assert gamma(1.0) == 1.0


def test_gamma_domain():
    with pytest.raises(DomainError):
        gamma(0.0)
    with pytest.raises(DomainError):
        gamma(-1.5)
    with pytest.raises(DomainError):
        gamma(51.0)


def test_quadrature_result_validation():
    with pytest.raises(ValueError):
        QuadratureResult(1.0, -1.0, 10)
    with pytest.raises(ValueError):
        QuadratureResult(1.0, 0.0, 0)


def test_quad_adaptive_polynomial():
    res = quad_adaptive(lambda x: x ** 2, 0.0, 1.0)
    assert res.value == pytest.approx(1.0 / 3.0, rel=1e-13)
    assert res.evaluations >= 21


def test_quad_adaptive_oscillatory():
    res = quad_adaptive(lambda x: np.cos(10.0 * x), 0.0, 10.0, rel_tol=1e-12)
    assert res.value == pytest.approx(math.sin(100.0) / 10.0, abs=1e-12)


def test_quad_adaptive_complex():
    res = quad_adaptive(lambda x: np.exp(1j * x), 0.0, 1.0)
    want = (np.exp(1j) - 1.0) / 1j
    assert abs(res.value - want) < 1e-12


def test_quad_adaptive_bad_interval():
    with pytest.raises(DomainError):
        quad_adaptive(lambda x: x, 1.0, 1.0)


@pytest.mark.parametrize("power", [1.0, 1.5])
def test_quad_adaptive_divergent_raises(power):
    # x^-power is not integrable at 0: the bisection reaches x where the
    # integrand overflows, which must surface as ConvergenceError (no bare
    # ValueError, no RuntimeWarning, no unconverged value)
    with pytest.raises(ConvergenceError):
        quad_adaptive(lambda x: x ** -power, 0.0, 1.0)


def test_integrate_singular_gamma_tail():
    # int_0^inf x^-rho e^-x dx = Gamma(1-rho)
    for rho in (0.3, 0.75, 0.9):
        res = integrate_singular(lambda x: np.exp(-x), rho)
        assert res.value == pytest.approx(gamma(1.0 - rho), rel=1e-9), rho


def test_integrate_singular_algebraic_tail():
    # int_0^inf x^-0.5 / (1+x^2) dx = pi / sqrt(2)
    res = integrate_singular(lambda x: 1.0 / (1.0 + np.asarray(x) ** 2), 0.5)
    assert res.value == pytest.approx(math.pi / math.sqrt(2.0), rel=1e-8)


def test_integrate_singular_scaled_exponential():
    # int_0^inf x^-rho e^(-x/L) dx = L^(1-rho) Gamma(1-rho): the fixed split
    # at x = 1 serves scales far on either side of it
    for L in (1e-3, 1.0, 1e3, 1e6):
        for rho in (0.05, 0.5, 0.95):
            res = integrate_singular(lambda x: np.exp(-x / L), rho)
            want = L ** (1.0 - rho) * gamma(1.0 - rho)
            assert res.value == pytest.approx(want, rel=1e-9), (L, rho)


def test_integrate_singular_divergent():
    # g -> 1 at infinity: integrand ~ x^-0.5 is not integrable
    with pytest.raises(ConvergenceError):
        integrate_singular(lambda x: np.ones_like(np.asarray(x, dtype=float)),
                           0.5)


def test_integrate_singular_head_underflow():
    # at rho = 0.999 the first head node u ~ 2e-3 maps to x = u^1000 = 0;
    # g must never see it
    seen = []

    def g(x):
        seen.append(x.min())
        return np.exp(-x)

    with pytest.raises(EvaluationOverflowError):
        integrate_singular(g, 0.999)
    assert seen == []


def test_integrate_singular_domain():
    with pytest.raises(DomainError):
        integrate_singular(lambda x: np.exp(-x), 1.0)
    with pytest.raises(DomainError):
        integrate_singular(lambda x: np.exp(-x), 0.0)


def test_find_root_bracketed():
    root = find_root_bracketed(math.cos, 1.0, 2.0)
    assert root == pytest.approx(math.pi / 2.0, abs=1e-12)


def test_find_root_bracketed_requires_sign_change():
    with pytest.raises(BracketError):
        find_root_bracketed(lambda x: x * x + 1.0, -1.0, 1.0)
    with pytest.raises(BracketError):
        find_root_bracketed(math.cos, 2.0, 1.0)


def test_minimize_scalar_quadratic():
    x, fx = minimize_scalar(lambda x: (x - 1.3) ** 2 + 0.25, 0.0, 2.0,
                            tol=1e-10)
    assert x == pytest.approx(1.3, abs=1e-7)
    assert fx == pytest.approx(0.25, abs=1e-12)


def test_minimize_scalar_picks_global_cell():
    # two local minima; the deeper one is near 2.2
    def h(x):
        return math.sin(3.0 * x) + 0.2 * (x - 2.2) ** 2

    x, fx = minimize_scalar(h, 0.0, 3.0, tol=1e-9)
    assert fx <= min(h(t) for t in np.linspace(0.0, 3.0, 2000)) + 1e-9


def test_minimize_scalar_handles_nonfinite_objective():
    def h(x):
        return math.inf if x < 0.5 else (x - 0.7) ** 2

    x, fx = minimize_scalar(h, 0.0, 1.0, tol=1e-9)
    assert x == pytest.approx(0.7, abs=1e-6)


def test_doubling_panel_rules_exact_to_degree_15():
    x_gl, w_gl, x_lob, w_lob = doubling_panel_rules(1.0, 1)
    assert x_gl.size == 8 and x_lob.size == 9
    for d in range(16):
        want = (2.0 ** (d + 1) - 1.0) / (d + 1)
        assert w_gl @ x_gl ** d == pytest.approx(want, rel=1e-14), d
        assert w_lob @ x_lob ** d == pytest.approx(want, rel=1e-14), d


def test_doubling_panel_rules_bracket_completely_monotone():
    # x^-rho/(1+x) is completely monotone: Legendre from below, Lobatto from
    # above, both close to the exact integral over [lo, lo 2^panels]
    lo, panels = 1e-3, 24
    hi = lo * 2.0 ** panels
    x_gl, w_gl, x_lob, w_lob = doubling_panel_rules(lo, panels)
    assert x_gl.size == 8 * panels and x_lob.size == 8 * panels + 1
    assert x_lob[0] == lo and x_lob.max() == pytest.approx(hi, rel=1e-15)
    for rho in (0.0, 0.5):
        def g(x):
            return x ** -rho / (1.0 + x)

        want = quad_adaptive(lambda u: g(np.exp(u)) * np.exp(u),
                             math.log(lo), math.log(hi), rel_tol=1e-14).value
        below, above = float(w_gl @ g(x_gl)), float(w_lob @ g(x_lob))
        assert below < want < above
        assert above - below < 1e-10 * want


def test_doubling_panel_rules_domain():
    with pytest.raises(DomainError):
        doubling_panel_rules(0.0, 4)
    with pytest.raises(DomainError):
        doubling_panel_rules(1.0, 0)
