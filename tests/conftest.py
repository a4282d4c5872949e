import pytest

from g0bound.models import build_model, toy_square_model

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
