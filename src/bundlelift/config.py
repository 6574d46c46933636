"""Shared numeric defaults: the tolerance ladder and integration parameters.

Two tolerance tiers are the CLI's defaults (``--tol-exact`` and
``--tol-transport``): ``exact`` for closed-formula constructions and
algebraic identities on freshly built objects, and ``transport`` for
anything derived from ODE integration at the default step count.
"""

DEFAULT_TOL_EXACT = 1e-10
DEFAULT_TOL_TRANSPORT = 1e-5

DEFAULT_SEED = 42
DEFAULT_SAMPLES = 200
# The smallest power of two at which every transport error estimate of the
# CLI scenarios (homotopy_lift_sphere, s1xs2_generators, torus_sweep) stays
# below tol_transport / 1000 = 1e-8 at seeds 0-9 and the other defaults:
# the worst is a_lift.n2.transport_error, 2.5e-9 at 128 steps and 3.9e-8
# at 64.
DEFAULT_TRANSPORT_STEPS = 128
DEFAULT_MESH_LEVEL = 4
# Chern numbers and degrees read the icosphere at level L and L + 1, and
# peak memory grows about 3.3x per level: a scenario at mesh level 7 peaks
# near 0.5 GB and takes 3.5-5 s, so level 8 would need about 1.7 GB
MAX_MESH_LEVEL = 7
