"""Exception types shared across the package.

Numerical failures carry the offending values so callers (and the CLI)
can report them without re-running the computation.
"""


class VmspecError(Exception):
    """Base class for all package errors."""


class ConfigError(VmspecError):
    """Bad user configuration (unknown key, invalid value, missing input)."""


class ProfileEvaluationError(VmspecError):
    """A profile returned a non-finite value."""

    def __init__(self, message, e=None, p=None):
        super().__init__(message)
        self.e = e
        self.p = p


class QuadratureError(VmspecError):
    """Quadrature refinement failed to converge."""


class ConservationError(VmspecError):
    """Trajectory integration could not keep invariants below tolerance."""

    def __init__(self, message, drift_e=None, drift_p=None):
        super().__init__(message)
        self.drift_e = drift_e
        self.drift_p = drift_p


class OrbitError(VmspecError):
    """An orbit could not be classified or closed within the allowed horizon."""


class AssemblyError(VmspecError):
    """Inconsistent matrix assembly (symmetry or adjoint defect above tolerance)."""


class HypothesisError(VmspecError):
    """A hypothesis of the instability criteria fails (e.g. l0 indistinguishable from 0)."""


class SpuriousIntervalError(VmspecError):
    """A sign-count change was not caused by an eigenvalue crossing zero."""

