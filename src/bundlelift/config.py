"""Shared numeric defaults: the tolerance ladder and integration parameters.

Two tolerance tiers are the CLI's defaults (``--tol-exact`` and
``--tol-transport``): ``exact`` for closed-formula constructions and
algebraic identities on freshly built objects, and ``transport`` for
anything derived from ODE integration at the default step count.
"""

from dataclasses import dataclass


@dataclass(frozen=True)
class Tolerances:
    exact: float = 1e-10
    transport: float = 1e-5


DEFAULT_TOLERANCES = Tolerances()

DEFAULT_SEED = 42
DEFAULT_SAMPLES = 200
DEFAULT_TRANSPORT_STEPS = 1024
DEFAULT_MESH_LEVEL = 4
# Chern numbers and degrees read the icosphere at level L and L + 1, and
# peak memory grows about 3.3x per level: a scenario at mesh level 7 peaks
# near 0.5 GB and takes 3.5-5 s, so level 8 would need about 1.7 GB
MAX_MESH_LEVEL = 7
