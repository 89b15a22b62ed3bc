"""Small dense linear algebra with an explicit numerical-rank policy.

Everything downstream (homology, torsion, eigenvalue splitting) makes rank
decisions through one rule, `_rank`, with one relative singular-value cutoff.
Its default is `RANK_TOL`; a different cutoff enters where the data is made
(`Representation(tol=)`, `BasedChainComplex(tol=)`, the CLI's `--tol`) and
travels on the representation and the complex.  The two other thresholds are
fixed: `RELATOR_TOL`, the allowed ||rho(r) - 1|| of a representation (looser
than the rank cutoff: representation solving is itself numerical), and
`UNIT_EIGENVALUE_TOL`, the |lambda - 1| below which an eigenvalue of the
twisted monodromy counts as the geometric eigenvalue 1 (eigenvalues of
nonsymmetric matrices are less stable than singular values).  Ranks and
orthonormal bases all come from numpy SVDs; numpy is the only dependency.
"""

import numpy as np

RANK_TOL = 1e-9
RELATOR_TOL = 1e-8
UNIT_EIGENVALUE_TOL = 1e-6


def _as_matrix(m):
    a = np.asarray(m, dtype=complex)
    if a.ndim != 2:
        raise ValueError("expected a matrix, got shape %r" % (a.shape,))
    return a


def _rank(s, tol):
    """The package's one rank rule: the number of singular values `s`
    (descending) above tol times the largest, or times 1 if that is
    smaller."""
    return int(np.count_nonzero(s > tol * max(s[0], 1.0))) if s.size else 0


def nullspace(m, tol=RANK_TOL):
    """Orthonormal basis (columns) of ker(m)."""
    m = _as_matrix(m)
    if m.shape[0] == 0:
        return np.eye(m.shape[1], dtype=complex)
    if m.shape[1] == 0:
        return np.zeros((0, 0), dtype=complex)
    _, s, vh = np.linalg.svd(m)
    return vh[_rank(s, tol):].conj().T


def column_space(m, tol=RANK_TOL):
    """Orthonormal basis (columns) of the column space of `m`."""
    m = _as_matrix(m)
    if 0 in m.shape:
        return np.zeros((m.shape[0], 0), dtype=complex)
    u, s, _ = np.linalg.svd(m)
    return u[:, :_rank(s, tol)]


def orthogonal_complement(basis, tol=RANK_TOL):
    """Orthonormal basis of the orthogonal complement of span(basis), for a
    basis of at least one column."""
    u, s, _ = np.linalg.svd(_as_matrix(basis), full_matrices=True)
    return u[:, _rank(s, tol):]

