import cmath

import pytest

from g0bound.models import build_model, toy_square_model
from g0bound.verify import (_JENSEN_H, _JENSEN_XS, _JENSEN_YS, _MONO_ZS,
                            GridSpec)

try:
    from hypothesis import settings
except ImportError:  # a test extra; the property tests skip without it
    pass
else:
    # the same examples on every run, so a failure reproduces and a pass
    # does not depend on the draw; no example database in the checkout
    settings.register_profile("g0bound", derandomize=True, deadline=None,
                              max_examples=100, database=None)
    settings.load_profile("g0bound")


@pytest.fixture(scope="session")
def toy():
    return toy_square_model()


@pytest.fixture(scope="session")
def bessel_zero():
    return build_model("bessel-i", nu=0.0)


@pytest.fixture(scope="session")
def bessel_half():
    return build_model("bessel-i", nu=0.5)


@pytest.fixture(scope="session")
def airy():
    return build_model("airy-pair")


@pytest.fixture(scope="session")
def korder():
    return build_model("k-order", a=1.0)


@pytest.fixture(scope="session")
def verify_points():
    """Every z at which the default verify run evaluates a model's
    value_ratio on the chain, monotonicity and Jensen checks: the polar
    grid, the monotonicity points and the x+iy Jensen stencils."""
    grid = GridSpec.default()
    pts = [cmath.rect(r, t) for r in grid.radii for t in grid.angles]
    pts += list(_MONO_ZS)
    pts += [complex(x, y + k * _JENSEN_H)
            for x in _JENSEN_XS for y in _JENSEN_YS for k in (-1, 0, 1)]
    return pts
