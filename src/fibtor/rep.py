"""SL2(C) and SU(2) representations, the adjoint action, and twisted
cochain complexes.

The Lie algebra sl2(C) is the traceless 2x2 matrices, with ordered basis

    H = [[1, 0], [0, -1]],  E = [[0, 1], [0, 0]],  F = [[0, 0], [1, 0]],

and the coordinates of [[a, b], [c, -a]] are (a, b, c).  Adjoint matrices and
twisted cochain complexes are expressed in these (H, E, F) coordinates for
SU(2) representations too.  No other basis is needed: the eigenvalues of the
monodromy on H^1(F; sl2_rho) do not depend on the basis, and a change of
coefficient basis scales the torsion of the exterior by its determinant to the
power of the Euler characteristic, which is 0.
"""

import numpy as np

from .errors import RelatorViolationError
from .linalg import RANK_TOL, RELATOR_TOL
from .torsion import BasedChainComplex
from .words import GroupRingElement, Word

SL2C = "SL2C"
SU2 = "SU2"

_H = np.array([[1, 0], [0, -1]], dtype=complex)
_E = np.array([[0, 1], [0, 0]], dtype=complex)
_F = np.array([[0, 0], [1, 0]], dtype=complex)
SL2_BASIS = (_H, _E, _F)
_SL2_STACK = np.array(SL2_BASIS)


def is_unimodular(m):
    """Whether the 2x2 matrix `m` has determinant 1; Python complex arithmetic
    reads a NaN or an overflowing determinant as False, without a warning."""
    (a, b), (c, d) = np.asarray(m).tolist()
    return abs(a * d - b * c - 1.0) <= 1e-8


def is_special_unitary(m):
    return (is_unimodular(m)
            and np.linalg.norm(m @ m.conj().T - np.eye(2)) <= 1e-8)


def sl2_inverse(m):
    """Inverse of a determinant-1 matrix, or of each matrix of a stack
    (..., 2, 2), by the adjugate: an exact sign-and-swap."""
    m = np.asarray(m)
    out = np.empty(m.shape, dtype=complex)
    out[..., 0, 0] = m[..., 1, 1]
    out[..., 0, 1] = -m[..., 0, 1]
    out[..., 1, 0] = -m[..., 1, 0]
    out[..., 1, 1] = m[..., 0, 0]
    return out


def adjoint(g):
    """Matrix of Ad_g : v -> g v g^-1 in the (H, E, F) coordinates: a 3x3
    matrix of determinant 1 for one g in SL2(C), or a (..., 3, 3) stack for a
    stack (..., 2, 2).  Column j holds the coordinates (entries 00, 01, 10)
    of (g b_j) g^-1 for the basis element b_j.
    """
    g = np.asarray(g, dtype=complex)
    images = g[..., None, :, :] @ _SL2_STACK @ sl2_inverse(g)[..., None, :, :]
    return images.reshape(g.shape[:-2] + (3, 4))[..., :3].swapaxes(-1, -2)


def commutator_trace(x1, x2, x3):
    """tr(ABA^-1B^-1) from (tr A, tr B, tr AB), by the trace identity

    tr[A,B] = -2 - trA trB trAB + tr^2 A + tr^2 B + tr^2 AB.

    Equals 2 exactly when the pair (A, B) is reducible.
    """
    return -2 - x1 * x2 * x3 + x1 ** 2 + x2 ** 2 + x3 ** 2


class Representation:
    """Assignment of unimodular 2x2 matrices to the generators of a
    presentation, acting on words and on the group ring through Ad.

    `images` may be a list (indexed like the presentation generators) or a
    dict keyed by generator name.  `tol` is the rank cutoff that every rank
    decision made on this representation's data uses.
    """

    def __init__(self, presentation, images, flavor=SL2C, tol=RANK_TOL,
                 check=True):
        self.presentation = presentation
        if isinstance(images, dict):
            images = [images[name] for name in presentation.generators]
        self.images = [np.asarray(m, dtype=complex) for m in images]
        if len(self.images) != presentation.generator_count:
            raise ValueError("one image per generator required")
        self.flavor = flavor
        self.tol = tol
        self._inverses = [sl2_inverse(m) for m in self.images]
        self._adjoints = {}
        if check:
            for m in self.images:
                if m.shape != (2, 2):
                    raise ValueError("generator image is not a 2x2 matrix")
                if not is_unimodular(m):
                    raise ValueError("generator image is not unimodular")
                if flavor == SU2 and not is_special_unitary(m):
                    raise ValueError("generator image is not in SU(2)")
            self.check_relators()

    def image(self, name):
        return self.images[self.presentation.generators.index(name)]

    def evaluate_word(self, w):
        """Ordered product of generator images along the word."""
        if not isinstance(w, Word):
            w = self.presentation.word(w)
        m = np.eye(2, dtype=complex)
        for g, e in w:
            m = m @ (self.images[g] if e == 1 else self._inverses[g])
        return m

    def adjoint_of_word(self, w):
        if not isinstance(w, Word):
            w = self.presentation.word(w)
        w = w.reduce()
        key = w.letters
        if key not in self._adjoints:
            self._adjoints[key] = adjoint(self.evaluate_word(w))
        return self._adjoints[key]

    def evaluate_group_ring(self, elem):
        """Linear extension of Ad o rho over the group ring: a 3x3 matrix."""
        if not isinstance(elem, GroupRingElement):
            raise TypeError("expected a GroupRingElement")
        out = np.zeros((3, 3), dtype=complex)
        for c, w in elem.terms:
            out = out + c * self.adjoint_of_word(w)
        return out

    def relator_defect(self):
        """Largest ||rho(r) - 1|| over the presentation's relators; inf or NaN,
        without a warning, when a product overflows."""
        with np.errstate(over="ignore", invalid="ignore"):
            return np.max([np.linalg.norm(self.evaluate_word(r) - np.eye(2))
                           for r in self.presentation.relators], initial=0.0)

    def check_relators(self):
        defect = self.relator_defect()
        if not defect <= RELATOR_TOL:  # a NaN defect fails too
            raise RelatorViolationError(
                "representation violates a relator (defect %.3e)" % defect)
        return defect

    def conjugate(self, g):
        """The conjugated representation g rho g^-1."""
        g = np.asarray(g, dtype=complex)
        gi = sl2_inverse(g)
        return Representation(
            self.presentation, [g @ m @ gi for m in self.images],
            flavor=self.flavor, tol=self.tol, check=False)


def coboundary_matrix(images):
    """The coboundary d0(v) = (Ad_g v - v)_g of the adjoint-twisted complex:
    a (3n, 3) matrix of one Ad(g) - I block per image g, in (H, E, F)
    coordinates.  Its kernel is the common Ad-fixed subspace, H^0 of the
    group the images generate; its column space is B^1.
    """
    return (adjoint(images) - np.eye(3)).reshape(-1, 3)


def fox_adjoint_blocks(rep, word):
    """All Fox/adjoint blocks of a word: an (n, 3, 3) array whose i-th entry
    is Phi(d word / d g_i), for the n generators of the presentation.

    One pass over the freely reduced word keeps the running prefix product:
    a letter g contributes +Ad(prefix) before the prefix is multiplied by
    rho(g), a letter g^-1 contributes -Ad(prefix) after it is multiplied by
    rho(g)^-1.  The adjoints of all prefixes are formed in one batched step
    and summed into each block in word order.  This repeats the arithmetic of
    `rep.evaluate_group_ring(fox_derivative(word, i))` bit for bit: the
    prefixes of a reduced word are reduced and are built by the same
    left-to-right products as `evaluate_word`, and the group-ring terms are
    sorted in word order.  The cost is linear in the word length.
    """
    letters = word.reduce().letters
    n = rep.presentation.generator_count
    if not letters:
        return np.zeros((n, 3, 3), dtype=complex)
    prefixes = np.empty((len(letters), 2, 2), dtype=complex)
    p = np.eye(2, dtype=complex)
    for k, (g, e) in enumerate(letters):
        if e == 1:
            prefixes[k] = p
            p = p @ rep.images[g]
        else:
            p = p @ rep._inverses[g]
            prefixes[k] = p
    terms = adjoint(prefixes)
    gens, exps = np.array(letters).T
    np.negative(terms, out=terms, where=(exps == -1)[:, None, None])
    # row i holds generator i's terms in word order and +0.0 elsewhere; its
    # running sum starts at +0.0, so the zeros change no bit and the result
    # is evaluate_group_ring's accumulation exactly
    spread = np.zeros((n, len(letters) + 1, 3, 3), dtype=complex)
    spread[gens, np.arange(1, len(letters) + 1)] = terms
    return np.cumsum(spread, axis=1)[:, -1]


def twisted_cochain_complex(rep):
    """The adjoint-twisted cochain complex of the 2-complex of the
    representation's presentation, under the representation's rank cutoff.

    Degrees 0, 1, 2 have dimensions 3, 3g, 3r for g generators and r
    relators.  With the left cocycle convention h(uv) = h(u) + Ad_{rho(u)} h(v),

        d0(v)(g)  = Ad_{rho(g)} v - v,
        d1(h)(r)  = sum_g Phi(dr/dg) h(g),

    where Phi is the Ad o rho extension over the group ring and dr/dg the
    Fox derivative.  d1 o d0 = 0 is the fundamental Fox identity and is
    verified at construction.
    """
    rep.check_relators()
    presentation = rep.presentation
    ng = presentation.generator_count
    nr = len(presentation.relators)
    d0 = coboundary_matrix(rep.images)
    d1 = np.zeros((3 * nr, 3 * ng), dtype=complex)
    for k, r in enumerate(presentation.relators):
        for i, block in enumerate(fox_adjoint_blocks(rep, r)):
            d1[3 * k:3 * k + 3, 3 * i:3 * i + 3] = block
    return BasedChainComplex([3, 3 * ng, 3 * nr], [d0, d1],
                             direction="cochain", tol=rep.tol)


# -- explicit SU(2) elements --------------------------------------------------

def su2_element(trace, axis):
    """The SU(2) element cos(t) + sin(t) (n . (i,j,k)) with 2cos(t) = trace."""
    t = np.arccos(np.clip(trace / 2.0, -1.0, 1.0))
    n = np.asarray(axis, dtype=float)
    n = n / np.linalg.norm(n)
    a = np.cos(t)
    b, c, d = np.sin(t) * n
    return np.array([[a + 1j * b, c + 1j * d], [-c + 1j * d, a - 1j * b]])


def su2_pair(x1, x2, x3):
    """A pair (A, B) in SU(2) with tr A = x1, tr B = x2, tr AB = x3.

    Exists iff the angle between the rotation axes can be chosen to match
    x3; raises ValueError outside the realizable range.
    """
    a1 = np.arccos(np.clip(x1 / 2.0, -1.0, 1.0))
    a2 = np.arccos(np.clip(x2 / 2.0, -1.0, 1.0))
    s = np.sin(a1) * np.sin(a2)
    if s == 0:
        raise ValueError("central element: traces +-2 give no free axis")
    cos_psi = (np.cos(a1) * np.cos(a2) - x3 / 2.0) / s
    if abs(cos_psi) > 1.0 + 1e-12:
        raise ValueError("character (%.4g, %.4g, %.4g) is not SU(2)-realizable"
                         % (x1, x2, x3))
    psi = np.arccos(np.clip(cos_psi, -1.0, 1.0))
    A = su2_element(x1, [1.0, 0.0, 0.0])
    B = su2_element(x2, [np.cos(psi), np.sin(psi), 0.0])
    return A, B
