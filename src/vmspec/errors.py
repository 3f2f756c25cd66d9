"""Exception types shared across the package.

A profile failure carries the offending (e, p), and the other numerical
failures name the offending values in their message, so callers (and the
CLI) can report them without re-running the computation.
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


class OrbitError(VmspecError):
    """The equilibrium well has no center, or its orbit does not close."""


class AssemblyError(VmspecError):
    """Inconsistent matrix assembly (a non-finite or asymmetric block, or a lam = 0 coupling)."""


class HypothesisError(VmspecError):
    """A hypothesis of the instability criteria fails (e.g. l0 indistinguishable from 0)."""


class SpuriousIntervalError(VmspecError):
    """A sign-count change was not caused by an eigenvalue crossing zero."""

