"""Exception types raised across the package."""


class BundleLiftError(Exception):
    """Base class for all package-specific errors."""


class Singular(BundleLiftError):
    """Matrix expected to be invertible is (numerically) singular."""


class NotComplexStructure(BundleLiftError):
    """Matrix J fails J^2 = -I within tolerance."""


class UnknownName(BundleLiftError):
    """Requested registry entry does not exist."""


class BadParams(BundleLiftError):
    """Parameters fail validation for the requested construction."""


class BadPlane(BundleLiftError):
    """Invalid coordinate plane for a rotation."""


class NonConvergent(BundleLiftError):
    """Integer-valued quantity failed to stabilize across mesh levels."""


class Ambiguous(BundleLiftError):
    """Holonomy sign could not be resolved (insufficient transport steps)."""


class BundleMismatch(BundleLiftError):
    """Operation requires lifts over the same bundle."""


class NonInjective(BundleLiftError):
    """Projected fiber map is not injective at some probe point."""

    def __init__(self, message, witness_point=None, singular_value=None):
        super().__init__(message)
        self.witness_point = witness_point
        self.singular_value = singular_value


class CriterionFails(BundleLiftError):
    """Integer lattice criterion rejects the requested line-bundle lift."""

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class DegenerateJacobian(BundleLiftError):
    """Differential has a (numerically) vanishing singular value."""


class NotIsometric(BundleLiftError):
    """Lift is not an isometry within tolerance."""


class NotOrthonormal(BundleLiftError):
    """Frame fails the orthonormality check."""


class NoComplexStructure(BundleLiftError):
    """Bundle carries no complex structure."""


class DegeneratePlaquette(BundleLiftError):
    """Triple-projector overlap too small; mesh too coarse."""


class PatchNotInvariant(BundleLiftError):
    """Diffeomorphism moves a sample out of its patch."""


class UnknownScenario(BundleLiftError):
    """CLI scenario name not registered."""


class ConfigInvalid(BundleLiftError):
    """Scenario configuration failed validation."""
