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

import functools

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


def unimodular_defect(m):
    """|det m - 1| of the 2x2 matrix `m`, in Python complex arithmetic: NaN
    or inf, without a warning, for a NaN or overflowing determinant."""
    (a, b), (c, d) = np.asarray(m).tolist()
    return abs(a * d - b * c - 1.0)


def is_unimodular(m):
    """Whether the 2x2 matrix `m` has determinant 1; a NaN or overflowing
    determinant reads as False."""
    return unimodular_defect(m) <= 1e-8


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

    A stack of P matrices takes 3 + P BLAS products: the rows of all the g
    as one tall (2P, 2) matrix times each b_j, then per matrix its three
    g b_j as one (6, 2) matrix times g^-1.  Each entry is the 2x2 product's,
    signed zeros included, as the tests check by bytes; the operands are
    C-contiguous, since other strides leave BLAS for a loop with other bits.
    One (2, 2) @ (2, 6) product g [H|E|F] gives other signed zeros.
    """
    g = np.asarray(g, dtype=complex)
    rows = g.reshape(-1, 2)
    gb = np.stack([(rows @ b).reshape(-1, 2, 2) for b in SL2_BASIS], axis=1)
    images = gb.reshape(-1, 6, 2) @ sl2_inverse(g).reshape(-1, 2, 2)
    return images.reshape(g.shape[:-2] + (3, 4))[..., :3].swapaxes(-1, -2)


def commutator_trace(x1, x2, x3):
    """tr(ABA^-1B^-1) from (tr A, tr B, tr AB), by the trace identity

    tr[A,B] = -2 - trA trB trAB + tr^2 A + tr^2 B + tr^2 AB.

    Equals 2 exactly when the pair (A, B) is reducible.
    """
    return -2 - x1 * x2 * x3 + x1 ** 2 + x2 ** 2 + x3 ** 2


def prefix_products(images, inverses, letters):
    """The left-to-right partial products of the L letters (generator
    index, +-1), at one point or at N points at once.

    `images` and `inverses` hold each generator's image and its inverse: a
    2x2 matrix per generator, or an (N, 2, 2) stack of its images at N
    points.  The result is the (L + 1, 2, 2) stack, or (L + 1, N, 2, 2) for
    N points: entry k is the product of the images of the first k letters,
    entry 0 the identity.  Each entry is the one before times one generator
    image (or its inverse): the same products in the same order as
    `Representation.evaluate_word`, so at every point the last entry is
    that evaluation bit for bit.  One loop walks the letters beside the
    entries' views, taken once, and writes each product into the next view
    (`out` passed by position): at N > 1 each letter is one `np.matmul`
    over all points; at one point it is one `np.dot`, a 2x2 call with less
    overhead than a stacked `np.matmul`.  Both are one BLAS 2x2 product per
    point, and the tests compare them by bytes.
    """
    shape = np.shape(images[0])
    out = np.empty((len(letters) + 1,) + shape, dtype=complex)
    out[0] = np.eye(2)
    factors = (None, images, inverses)  # indexed by the exponent +-1
    rows = out
    if len(shape) == 3 and shape[0] == 1:  # a stack of one point: its 2x2 views
        rows = out.reshape(-1, 2, 2)
        factors = (None,) + tuple([m[0] for m in ms] for ms in factors[1:])
    product = np.dot if rows.ndim == 3 else np.matmul
    rows = list(rows)
    for src, dst, (g, e) in zip(rows, rows[1:], letters):
        product(src, factors[e][g], dst)
    return out


class Representation:
    """Assignment of unimodular 2x2 matrices to the generators of a
    presentation, acting on words and on the group ring through Ad.

    `images` may be a list (indexed like the presentation generators) or a
    dict keyed by generator name.  `tol` is the rank cutoff that every rank
    decision made on this representation's data uses.  `prefix_stacks` is
    the memo of `prefix_stack`, keyed by a word's letters; it lives with the
    representation, so each word is multiplied through once per
    representation.  A caller that has already computed the images'
    `inverses` (by `sl2_inverse`) or some words' `prefix_stacks` (by
    `prefix_products`) hands them in, and the checks run on them.
    """

    def __init__(self, presentation, images, flavor=SL2C, tol=RANK_TOL,
                 check=True, inverses=None, prefix_stacks=None):
        self.presentation = presentation
        if isinstance(images, dict):
            images = [images[name] for name in presentation.generators]
        self.images = [np.asarray(m, dtype=complex) for m in images]
        if len(self.images) != presentation.generator_count:
            raise ValueError("one image per generator required")
        self.flavor = flavor
        self.tol = tol
        self._inverses = (list(inverses) if inverses is not None
                          else [sl2_inverse(m) for m in self.images])
        self.prefix_stacks = dict(prefix_stacks or {})
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

    def prefix_stack(self, letters):
        """`prefix_products` of the letters under this representation,
        memoized; its last entry is rho of the word."""
        stack = self.prefix_stacks.get(letters)
        if stack is None:
            stack = self.prefix_stacks[letters] = prefix_products(
                self.images, self._inverses, letters)
        return stack

    def adjoint_of_word(self, w):
        return adjoint(self.evaluate_word(w.reduce()))

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
            return np.max([np.linalg.norm(self.prefix_stack(r.letters)[-1] - np.eye(2))
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
    coordinates, or an (N, 3n, 3) stack of them for an (N, n, 2, 2) stack
    of images.  Its kernel is the common Ad-fixed subspace, H^0 of the
    group the images generate; its column space is B^1.
    """
    images = np.asarray(images, dtype=complex)
    return (adjoint(images) - np.eye(3)).reshape(images.shape[:-3] + (-1, 3))


@functools.lru_cache(maxsize=256)
def _letter_arrays(words):
    """For the letters of all the words, in order: the word each lies in,
    its generator index, the mask of inverse letters, the prefix its Fox
    term is taken at (as a row of the words' prefix stacks concatenated) and
    its place in its word from 1.  Read-only arrays, built once per tuple of
    words since a knot's words never change."""
    starts = np.cumsum([0] + [len(w) + 1 for w in words])
    table = np.array([(j, g, e, starts[j] + k + (e == -1), k + 1)
                      for j, w in enumerate(words) for k, (g, e) in enumerate(w)],
                     dtype=int).reshape(-1, 5)
    word, gens, exps, prefixes, place = table.T
    arrays = word, gens, exps == -1, prefixes, place
    for a in arrays:
        a.flags.writeable = False
    return arrays


def fox_adjoint_blocks(words, n):
    """All Fox/adjoint blocks of W freely reduced words over n generators,
    from (prefix stack, letters) pairs, the stack being `prefix_products` of
    the letters at one point or at N points: a (W, n, 3, 3) array whose
    (w, i) entry is Phi(d word_w / d g_i), or (W, n, N, 3, 3) for
    (L + 1, N, 2, 2) stacks.

    A letter g contributes +Ad of the prefix before it, a letter g^-1
    contributes -Ad of the prefix after it.  The adjoints of the prefixes of
    all the words' letters are one `adjoint` call, and one sum along the
    letter axis adds them into each block in word order.  This repeats
    the arithmetic of `rep.evaluate_group_ring(fox_derivative(word, i))` bit
    for bit: the prefixes of a reduced word are reduced and are built by the
    same left-to-right products as `evaluate_word`, and the group-ring terms
    are sorted in word order.  The cost is linear in the words' length.
    """
    stacks = [stack for stack, _ in words]
    letters = tuple(w for _, w in words)
    points = np.shape(stacks[0])[1:-2] if stacks else ()
    longest = max(map(len, letters), default=0)
    # row (w, i) holds generator i's terms of word w in word order and +0.0
    # elsewhere; its sum starts at +0.0, so the zeros change no bit and the
    # result is evaluate_group_ring's accumulation exactly.  The letter axis
    # is not the last, so numpy adds it in order, not pairwise
    spread = np.zeros((len(words), n, longest + 1) + points + (3, 3), dtype=complex)
    word, gens, inverse, prefixes, place = _letter_arrays(letters)
    if len(gens):
        terms = adjoint(np.concatenate(stacks)[prefixes])
        np.negative(terms, out=terms, where=inverse.reshape((-1,) + (1,) * (terms.ndim - 1)))
        spread[word, gens, place] = terms
    return np.add.reduce(spread, axis=2)


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
    # block (k, i) is Phi(d r_k / d g_i)
    words = [r.reduce().letters for r in presentation.relators]
    blocks = fox_adjoint_blocks([(rep.prefix_stack(w), w) for w in words], ng)
    d1 = blocks.swapaxes(1, 2).reshape(3 * nr, 3 * ng)
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
