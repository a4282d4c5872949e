"""Named model construction and the standard verification fleet.

Maps the model-selection strings used on the command line ("toy-square",
"bessel-i", "airy-pair", "k-order") to constructed FunctionModel instances,
and builds the nine-member fleet the full verification run sweeps.
"""

from __future__ import annotations

import numpy as np

from .airy import AiryPairModel
from .bessel import BesselIModel
from .errors import DomainError
from .kbessel import KOrderModel
from .zeros import FunctionModel, ZeroSequence, model_from_zeros

MODEL_NAMES = ("toy-square", "bessel-i", "airy-pair", "k-order")

TOY_HEAD_COUNT = 10_000

# fleet parameter sweep: one toy sequence, Bessel orders spanning the
# admissible nu > -1 range, the Airy pair, and three K arguments
FLEET_BESSEL_NUS = (-0.5, 0.0, 0.5, 2.0)
FLEET_K_ARGS = (0.5, 1.0, 2.0)


def toy_square_model() -> FunctionModel:
    """The z_n = n^2 product sinh(pi sqrt z)/(pi sqrt z): exact tail model,
    closed forms for everything; the calibration member of the fleet.  Its
    10,000 head zeros are all it lists."""
    n = np.arange(1.0, TOY_HEAD_COUNT + 1.0)
    return model_from_zeros(ZeroSequence(n * n, 2.0, 1.0), 1.0,
                            model_id="toy-square")


def build_model(name: str, nu: float | None = None,
                a: float | None = None) -> FunctionModel:
    """Construct a model from its selection string and optional parameters:
    nu for bessel-i, a for k-order (airy-pair and toy-square take none).

    Unused parameters for the selected model are rejected, so a typo like
    --nu on the Airy model fails loudly instead of being ignored.
    """
    key = str(name).strip().lower()

    def reject(**given):
        extras = [f"--{flag}" for flag, value in given.items() if value is not None]
        if extras:
            raise DomainError(
                f"model '{key}' does not take {', '.join(extras)}")

    if key == "toy-square":
        reject(nu=nu, a=a)
        return toy_square_model()
    if key == "bessel-i":
        reject(a=a)
        return BesselIModel(0.0 if nu is None else float(nu))
    if key == "airy-pair":
        reject(nu=nu, a=a)
        return AiryPairModel()
    if key == "k-order":
        reject(nu=nu)
        return KOrderModel(1.0 if a is None else float(a))
    raise DomainError(
        f"unknown model '{name}'; choose one of {', '.join(MODEL_NAMES)}")


def default_fleet() -> list[FunctionModel]:
    """The nine models the full verification run exercises."""
    fleet: list[FunctionModel] = [toy_square_model()]
    fleet.extend(BesselIModel(nu) for nu in FLEET_BESSEL_NUS)
    fleet.append(AiryPairModel())
    fleet.extend(KOrderModel(a) for a in FLEET_K_ARGS)
    return fleet
