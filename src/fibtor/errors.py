"""Exception hierarchy with machine-readable error codes.

Every failure mode that can surface through the CLI carries a stable
`code` string so sweep output and exit diagnostics stay grep-able.
"""


class FibtorError(Exception):
    code = "ERROR"


class ReducibleCharacterError(FibtorError):
    """Character has commutator trace 2: no irreducible representation."""
    code = "REDUCIBLE_CHARACTER"


class NotFixedPointError(FibtorError):
    """No meridian intertwiner: the character is not monodromy-invariant."""
    code = "NOT_FIXED_POINT"


class RelatorViolationError(FibtorError):
    """A representation fails a relator beyond tolerance."""
    code = "RELATOR_VIOLATION"


class ReducibleRestrictionError(FibtorError):
    """Fiber restriction is reducible; the torsion pipeline needs H^0 = 0."""
    code = "REDUCIBLE_RESTRICTION"


class NoUnitEigenvalueError(FibtorError):
    """Twisted monodromy has no eigenvalue near 1 (not boundary-regular)."""
    code = "NO_UNIT_EIGENVALUE"


class NonSimpleUnitEigenvalueError(FibtorError):
    """Several eigenvalues near 1: regularity failure or tolerance clash."""
    code = "NONSIMPLE_UNIT_EIGENVALUE"


class DegenerateMonodromyError(FibtorError):
    """det(I - abelianized monodromy) = 0: not a fibered-knot monodromy."""
    code = "DEGENERATE_MONODROMY"


class InvalidInputError(FibtorError):
    code = "INVALID_INPUT"
