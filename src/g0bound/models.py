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

TOY_HEAD_DEFAULT = 10_000

# fleet parameter sweep: one toy sequence, Bessel orders spanning the
# admissible nu > -1 range, the Airy pair, and three K arguments
FLEET_BESSEL_NUS = (-0.5, 0.0, 0.5, 2.0)
FLEET_K_ARGS = (0.5, 1.0, 2.0)


def toy_square_model(head_count: int = TOY_HEAD_DEFAULT) -> FunctionModel:
    """The z_n = n^2 product sinh(pi sqrt z)/(pi sqrt z): exact tail model,
    closed forms for everything; the calibration member of the fleet."""
    head_count = int(head_count)
    if head_count < 1:
        raise DomainError("head_count must be positive")
    n = np.arange(1.0, head_count + 1.0)
    zs = ZeroSequence(n * n, 2.0, 1.0, order_rho0=0.5)
    return model_from_zeros(zs, 1.0, model_id="toy-square")


def build_model(name: str, nu: float | None = None, a: float | None = None,
                head_count: int | None = None) -> FunctionModel:
    """Construct a model from its selection string and optional parameters:
    nu for bessel-i, a for k-order, head_count for every model (airy-pair
    takes no parameter of its own).

    Unused parameters for the selected model are rejected, so a typo like
    --nu on the Airy model fails loudly instead of being ignored.
    """
    key = str(name).strip().lower()

    def reject(**given):
        extras = [f"--{flag}" for flag, value in given.items() if value is not None]
        if extras:
            raise DomainError(
                f"model '{key}' does not take {', '.join(extras)}")

    kwargs = {} if head_count is None else {"head_count": int(head_count)}
    if key == "toy-square":
        reject(nu=nu, a=a)
        return toy_square_model(**kwargs)
    if key == "bessel-i":
        reject(a=a)
        return BesselIModel(0.0 if nu is None else float(nu), **kwargs)
    if key == "airy-pair":
        reject(nu=nu, a=a)
        return AiryPairModel(**kwargs)
    if key == "k-order":
        reject(nu=nu)
        return KOrderModel(1.0 if a is None else float(a), **kwargs)
    raise DomainError(
        f"unknown model '{name}'; choose one of {', '.join(MODEL_NAMES)}")


def default_fleet() -> list[FunctionModel]:
    """The nine models the full verification run exercises."""
    fleet: list[FunctionModel] = [toy_square_model()]
    fleet.extend(BesselIModel(nu) for nu in FLEET_BESSEL_NUS)
    fleet.append(AiryPairModel())
    fleet.extend(KOrderModel(a) for a in FLEET_K_ARGS)
    return fleet
