"""Fibered knots: monodromy data, the twisted monodromy action on the fiber
character variety, and the torsion of the knot exterior computed from its
eigenvalues.

A fibered knot of genus g is presented by its monodromy: the knot group is

    < a_1, b_1, ..., a_g, b_g, t | t^-1 x t = phi(x) for each fiber generator x >

with t the meridian.  For a boundary-regular irreducible representation rho,
the action induced by the monodromy on H^1(F; sl2_{rho}) -- equivalently the
tangent map to the monodromy's action on the fiber character variety -- has 1
as a simple eigenvalue, and the sign-determined torsion of the exterior with
respect to the longitude is

    T = -eps0 * prod_i 1/(1 - lambda_i)

over the remaining eigenvalues, where eps0 is the sign of det(I - phi_*) on
the ordinary first cohomology of the fiber.
"""

import cmath
import json
import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import (
    DegenerateMonodromyError,
    FibtorError,
    InvalidInputError,
    NonSimpleUnitEigenvalueError,
    NotFixedPointError,
    NoUnitEigenvalueError,
    ReducibleCharacterError,
    ReducibleRestrictionError,
    RelatorViolationError,
)
from .linalg import RANK_TOL, UNIT_EIGENVALUE_TOL, _rank
from .rep import (
    SL2C,
    SU2,
    Representation,
    adjoint,
    coboundary_matrix,
    commutator_trace,
    fox_adjoint_blocks,
    is_unimodular,
    prefix_products,
    sl2_inverse,
    su2_pair,
    twisted_cochain_complex,
    unimodular_defect,
)
from .torsion import (BasedChainComplex, _computed, _det, _sign_determined, _svd,
                      _valid, multiplicativity_check, run_alone, torsion)
from .words import GroupPresentation, Word, inverse_spelling


class FiberedKnot:
    """Monodromy presentation of a fibered knot.

    monodromy maps each fiber generator name to a word in the fiber
    generators only (the meridian never appears); the longitude is the
    product of commutators of the generator pairs, i.e. the boundary of
    the fiber.
    """

    def __init__(self, name, genus, fiber_generators, monodromy,
                 meridian="t", check_fibered=True):
        if not isinstance(name, str):
            raise InvalidInputError("knot name must be a string, not %r" % (name,))
        self.name = name
        if isinstance(genus, bool) or not isinstance(genus, int):
            raise InvalidInputError("genus must be an integer, not %r" % (genus,))
        if genus < 1:
            raise InvalidInputError("genus must be positive")
        self.genus = genus
        if not isinstance(fiber_generators, list):
            raise InvalidInputError("fiber_generators must be a list of names, not %r"
                                    % (fiber_generators,))
        self.fiber_generators = list(fiber_generators)
        if len(self.fiber_generators) != 2 * self.genus:
            raise InvalidInputError("need 2*genus fiber generators")
        names = self.fiber_generators + [meridian]
        if not all(isinstance(n, str) and n for n in names):
            raise InvalidInputError("generator names must be nonempty strings: %r"
                                    % (names,))
        # words spell an inverse by uppercasing the initial, so every name
        # and every inverse spelling must be told apart
        if len({s for n in names for s in (n, inverse_spelling(n))}) != 2 * len(names):
            raise InvalidInputError("generator names %r collide: a name or its "
                                    "inverse spelling is used twice" % (names,))
        self.meridian = meridian
        if not isinstance(monodromy, dict) or set(monodromy) != set(self.fiber_generators):
            raise InvalidInputError("monodromy must map exactly the fiber generators "
                                    "%r to words" % (self.fiber_generators,))
        self.monodromy = {}
        for g in self.fiber_generators:
            w = monodromy[g]
            if not isinstance(w, Word):
                w = Word.from_string(w, self.fiber_generators)
            if w.max_generator() >= len(self.fiber_generators):
                raise InvalidInputError(
                    "monodromy image of %r uses a non-fiber generator" % g)
            self.monodromy[g] = w.reduce()
        # the monodromy on genus-one trace coordinates; the catalog sets the chart
        self.trace_map = TraceCoordMap(*self.monodromy_words()) if genus == 1 else None
        self.locus_chart = None
        # det(I - phi_*) on H^1(F), an integer; fibered knots have
        # Delta_K(1) = +-1, so it is nonzero.  check_fibered=False admits
        # synthetic monodromies for bookkeeping
        self.det_i_minus_m = round(float(np.linalg.det(
            np.eye(2 * self.genus) - abelianized_monodromy(self))))
        if check_fibered and self.det_i_minus_m == 0:
            raise DegenerateMonodromyError(
                "det(I - abelianized monodromy) = 0; not a fibered-knot monodromy")
        # relators t^-1 x t phi(x)^-1, built once: all representations of
        # the knot share the presentation
        it = len(self.fiber_generators)
        self._presentation = GroupPresentation(
            self.fiber_generators + [meridian],
            [Word(((it, -1), (j, 1), (it, 1)) + self.monodromy[g].inverse().letters)
             for j, g in enumerate(self.fiber_generators)])

    # -- presentations ---------------------------------------------------------

    def presentation(self):
        """The mapping-torus presentation of the knot group, meridian last:
        one object per knot, shared by all its representations."""
        return self._presentation

    def longitude_word(self):
        """The boundary of the fiber, prod_i [a_i, b_i], in fiber generators."""
        return Word([(2 * i + j, e) for i in range(self.genus)
                     for j, e in ((0, 1), (1, 1), (0, -1), (1, -1))])

    def monodromy_words(self):
        return [self.monodromy[g] for g in self.fiber_generators]

    def power(self, k):
        """The knot of phi^k for k >= 1, named "<name>^k": each word is phi
        substituted into every letter k times."""
        phi = self.monodromy_words()
        images = [Word([(g, 1)]) for g in range(len(phi))]
        for _ in range(k):
            images = [Word([x for g, e in w for x in (phi[g] if e == 1 else phi[g].inverse())])
                      for w in images]
        return FiberedKnot("%s^%d" % (self.name, k), self.genus, self.fiber_generators,
                           dict(zip(self.fiber_generators, images)), meridian=self.meridian)

    def character_of(self, rep):
        """Trace coordinates (I_a, I_b, I_ab) of the fiber restriction
        (genus one only)."""
        if self.genus != 1:
            raise InvalidInputError("trace coordinates are a genus-one notion here")
        a = rep.image(self.fiber_generators[0])
        b = rep.image(self.fiber_generators[1])
        return (complex(np.trace(a)), complex(np.trace(b)),
                complex(np.trace(a @ b)))

    # -- serialization ---------------------------------------------------------

    def to_json(self):
        obj = {
            "name": self.name,
            "genus": self.genus,
            "fiber_generators": self.fiber_generators,
            "meridian": self.meridian,
            "monodromy": {g: self.monodromy[g].to_string(self.fiber_generators)
                          for g in self.fiber_generators},
        }
        return json.dumps(obj, indent=2)

    @classmethod
    def from_json(cls, text):
        """Read a knot file, raising InvalidInputError on any malformed one.
        Unknown keys are ignored: a knot file's `trace_map` key is ignored,
        since a genus-one knot derives its map from its monodromy."""
        try:
            obj = json.loads(text)
            return cls(obj.get("name", "knot"), obj["genus"], obj["fiber_generators"],
                       obj["monodromy"], meridian=obj.get("meridian", "t"))
        except (AttributeError, KeyError, RecursionError, TypeError, ValueError) as exc:
            raise InvalidInputError("malformed knot file (%s: %s)"
                                    % (type(exc).__name__, exc)) from exc

    def __repr__(self):
        return "FiberedKnot(%r, genus=%d)" % (self.name, self.genus)


def abelianized_monodromy(fk):
    """Integer matrix of the monodromy on first (co)homology of the fiber.

    Column j holds the exponent sums of the image of the j-th fiber
    generator, matching the displayed matrices for the catalog knots.
    """
    return np.array([[w.exponent_sum(i) for w in fk.monodromy_words()]
                     for i in range(2 * fk.genus)], dtype=int)


def epsilon0(fk):
    """Sign of det(I - phi_*) on H^1(F; R)."""
    det = fk.det_i_minus_m
    if det == 0:
        raise DegenerateMonodromyError("det(I - phi_*) = 0")
    return 1 if det > 0 else -1


# -- the twisted monodromy action ---------------------------------------------


@dataclass
class MonodromyAction:
    """The monodromy action on twisted fiber cohomology, with the scaffolding
    needed by the torsion formulas.

    full:       action on C^1(F) = sl2^{2g} (cocycles on the free fiber group)
    coboundaries: matrix of d^0, whose column space B^1 must be preserved
    complement: orthonormal basis of the quotient model of H^1(F)
    quotient:   induced matrix on H^1(F), size 6g-3
    """
    full: np.ndarray
    coboundaries: np.ndarray
    complement: np.ndarray
    quotient: np.ndarray


# rows of a stacked torsion pass held at once, counted as rows times
# generators times monodromy letters: a bound on the memory of the Fox/adjoint
# pass over long monodromy words
TORSION_STACK_LETTERS = 1 << 14


def _action_chunk(fk, reps, words):
    """One chunk of `monodromy_actions`.  Every row runs the whole pass: one
    batched SVD of d0, one Fox/adjoint pass over the prefix stacks of all
    the monodromy words, one Ad(T) product, one B^1-preservation product,
    one SVD of B^1 for its complement and one quotient product.  Only then
    is each row decided, under its own cutoff."""
    n = len(fk.fiber_generators)
    d0 = coboundary_matrix([rep.images[:n] for rep in reps])
    u, svals, _ = _svd(d0)
    bspace = u[:, :, :3]
    adT = adjoint(np.array([rep.image(fk.meridian) for rep in reps]))
    # block (j, i) is Ad(T) Phi(d phi(x_j) / d x_i), at every row
    blocks = fox_adjoint_blocks(
        [(np.stack([rep.prefix_stack(w) for rep in reps], 1), w) for w in words], n)
    blocks = adT[:, None, None] @ blocks.transpose(2, 0, 1, 3, 4)
    full = blocks.swapaxes(2, 3).reshape(len(reps), 3 * n, 3 * n)
    image = full @ bspace
    moved = image - bspace @ (bspace.conj().swapaxes(1, 2) @ image)
    # the quotient is modelled on the orthogonal complement of B^1, the
    # trailing 3n - 3 left singular vectors of its basis; the induced
    # eigenvalues do not depend on that choice
    comp = _svd(bspace)[0][:, :, 3:]
    quotient = comp.conj().swapaxes(1, 2) @ full @ comp
    return [_decided(*row) for row in zip(reps, svals, moved, full, d0, comp, quotient)]


def _decided(rep, svals, moved, full, d0, comp, quotient):
    """One row of `_action_chunk`: its MonodromyAction, or the error of the
    first check it fails."""
    # B^1 is the column space of d0; its rank is 3 exactly when the fiber
    # restriction has no Ad-fixed vector (H^0(F) = 0)
    rank = _rank(svals, rep.tol)
    if rank < 3:
        return ReducibleRestrictionError(
            "fiber restriction has an Ad-fixed vector (dim %d); "
            "the representation is reducible or metabelian" % (3 - rank))
    resid = np.linalg.norm(moved)
    if resid > 1e-6 * max(1.0, np.linalg.norm(full)):
        return RelatorViolationError(
            "monodromy action does not preserve the coboundary space "
            "(residual %.3e); the representation violates the mapping-torus "
            "relators" % resid)
    return MonodromyAction(full, d0, comp, quotient)


def monodromy_actions(fk, reps):
    """`monodromy_action` at every representation in `reps`: per
    representation, its MonodromyAction or the FibtorError that refused it,
    with the checks, messages and bits of a row computed alone.  A
    FibtorError given in place of a representation is kept at its index.
    Each chunk of at most TORSION_STACK_LETTERS generator-letters is one
    stacked pass (`_action_chunk`).  The errors are made and never raised,
    so they carry no traceback to hold the stack.
    """
    n = len(fk.fiber_generators)
    words = [w.letters for w in fk.monodromy_words()]
    out, live = list(reps), []
    for i, rep in enumerate(reps):
        if isinstance(rep, FibtorError):
            continue
        if rep.presentation.generators[:n] != fk.fiber_generators:
            out[i] = InvalidInputError("the representation's first generators must "
                                       "be the knot's fiber generators")
        else:
            live.append(i)
    step = max(1, TORSION_STACK_LETTERS // (n * sum(len(w) + 1 for w in words)))
    for start in range(0, len(live), step):
        rows = live[start:start + step]
        for i, action in zip(rows, _action_chunk(fk, [reps[i] for i in rows], words)):
            out[i] = action
    return out


def monodromy_action(fk, rep):
    """Compute the action of the monodromy on H^1(F; sl2_phi).

    `rep` is a representation of `fk.presentation()`, whose first 2g
    generators are the fiber generators and whose last is the meridian t.
    A cocycle h, determined by its values on the fiber generators, is sent
    to x |-> Ad_{rho(t)} h(phi(x)): expanding h over the image words by the
    left cocycle convention turns this into Fox-derivative blocks, the
    fiber-generator blocks of `fox_adjoint_blocks` (no monodromy word
    contains t).  B^1 is the column space of the coboundary matrix d0 of
    the fiber images; its rank is 3 exactly when the fiber restriction has
    no Ad-fixed vector (H^0(F) = 0), which is required.  B^1 is checked to
    be preserved, and the induced map on the quotient H^1 = C^1/B^1 is
    returned with its scaffolding.  The quotient is modelled on the
    orthogonal complement of B^1; the induced eigenvalues do not depend on
    that choice.  Ranks are decided under the representation's cutoff.
    This is the stack of one of `monodromy_actions`.
    """
    return _valid(monodromy_actions(fk, [rep])[0])


def _unit_eigenvalue(evs):
    """Index of the one eigenvalue in `evs` within UNIT_EIGENVALUE_TOL of 1.
    Raises if there is none or more than one -- the two failure modes
    (boundary-regularity failure, tolerance clash) are reported distinctly.
    """
    near = [k for k in range(len(evs)) if abs(evs[k] - 1.0) < UNIT_EIGENVALUE_TOL]
    if not near:
        raise NoUnitEigenvalueError(
            "no eigenvalue within %g of 1 (closest: %.3e); the representation "
            "is not boundary-regular" % (UNIT_EIGENVALUE_TOL, min(abs(evs - 1.0))))
    if len(near) > 1:
        raise NonSimpleUnitEigenvalueError(
            "%d eigenvalues within %g of 1; regularity failure or tolerance "
            "clash" % (len(near), UNIT_EIGENVALUE_TOL))
    return near[0]


def _sorted(evs):
    """The eigenvalues `evs` as complex numbers, in the order every report
    prints them: by (real, imaginary)."""
    return sorted((complex(z) for z in evs), key=lambda z: (z.real, z.imag))


def _excluding_one(evs):
    """The eigenvalues `evs` with the (required, simple) unit eigenvalue
    removed, sorted by (real, imaginary)."""
    unit = _unit_eigenvalue(evs)
    return _sorted(evs[k] for k in range(len(evs)) if k != unit)


def eigenvalues_excluding_one(m):
    """Eigenvalues of `m` with the (required, simple) unit eigenvalue removed,
    sorted by (real, imaginary)."""
    return _excluding_one(np.linalg.eigvals(np.asarray(m, dtype=complex)))


@dataclass
class TorsionReport:
    """Result of a torsion computation for one representation."""
    torsion: complex
    epsilon0: int
    eigenvalues: list
    method: str
    knot: str = ""
    character: tuple = None
    # genus one: the knot's trace map, read by jacobian_eigenvalues
    _trace_map: object = field(default=None, init=False, repr=False, compare=False)

    @cached_property
    def jacobian_eigenvalues(self):
        """Eigenvalues of the trace-map Jacobian at `character`, sorted as
        `eigenvalues` are, an independent cross-check of them; None without
        a trace map.  Computed the first time they are read."""
        if self._trace_map is None:
            return None
        return _sorted(np.linalg.eigvals(self._trace_map.jacobian(self.character)))

    @property
    def unit_eigenvalue_gap(self):
        """min |1 - lambda| over the eigenvalues; inf when there are none."""
        return min((abs(1.0 - lam) for lam in self.eigenvalues), default=math.inf)

    def to_dict(self):
        out = {
            "torsion_re": self.torsion.real,
            "torsion_im": self.torsion.imag,
            "epsilon0": self.epsilon0,
            "eigenvalues": [[z.real, z.imag] for z in self.eigenvalues],
            "method": self.method,
            # strict JSON has no Infinity: a report without eigenvalues has no gap
            "unit_eigenvalue_gap": (self.unit_eigenvalue_gap
                                    if math.isfinite(self.unit_eigenvalue_gap) else None),
        }
        if self.knot:
            out["knot"] = self.knot
        if self.character is not None:
            out["character"] = [[z.real, z.imag] for z in map(complex, self.character)]
        if self.jacobian_eigenvalues is not None:
            out["jacobian_eigenvalues"] = [[z.real, z.imag]
                                           for z in self.jacobian_eigenvalues]
        return out


def main_theorem_torsions(fk, reps):
    """`main_theorem_torsion` at every representation in `reps`: per
    representation, its TorsionReport or the FibtorError that refused it.
    A FibtorError given in place of a representation is kept at its index.

    The monodromy actions are computed stacked (`monodromy_actions`), and
    the eigenvalues of all their quotients, which share one shape, come from
    one batched call.  The unit-eigenvalue test, the product and the
    character run row by row, with the messages and on the bits of
    `main_theorem_torsion`, which is the stack of one.  A genus-one report
    gets the knot's trace map, and computes its Jacobian cross-check only
    when `jacobian_eigenvalues` is read: a CSV sweep never reads it.  Errors
    are kept without their tracebacks, whose frames would hold the whole
    stack.
    """
    return _reports(fk, reps, monodromy_actions(fk, reps))


def _reports(fk, reps, actions):
    """`main_theorem_torsions` from the actions `monodromy_actions` gives:
    T = -eps0 * prod 1/(1 - lambda_i) over the eigenvalues other than the
    unit eigenvalue."""
    out = list(actions)
    rows = [i for i, act in enumerate(out) if isinstance(act, MonodromyAction)]
    evs = np.linalg.eigvals([out[i].quotient for i in rows]) if rows else []
    for i, row_evs in zip(rows, evs):
        try:
            lams, eps0 = _excluding_one(row_evs), epsilon0(fk)
        except FibtorError as exc:
            out[i] = exc.with_traceback(None)
            continue
        value = -eps0 * np.prod([1.0 / (1.0 - lam) for lam in lams])
        out[i] = TorsionReport(torsion=complex(value), epsilon0=eps0, eigenvalues=lams,
                               method="cohomology", knot=fk.name)
        if fk.genus == 1:
            out[i].character = fk.character_of(reps[i])
            out[i]._trace_map = fk.trace_map
    return out


def main_theorem_torsion(fk, rep):
    """Sign-determined torsion of the knot exterior with respect to the
    longitude, from the eigenvalues of the twisted monodromy.

    Requires the fiber restriction irreducible and a simple unit eigenvalue
    of the action on H^1(F).  At genus one the report also carries the
    eigenvalues of the knot's trace-map Jacobian at the representation's
    character as an independent cross-check.
    This is the stack of one of `main_theorem_torsions`.
    """
    return _valid(main_theorem_torsions(fk, [rep])[0])


# -- Wang sequence ------------------------------------------------------------


def _unit_last_basis(mq):
    """Basis in which the monodromy action on H^1 is block diagonal: the
    invariant subspace of the non-unit eigenvalues first, the unit
    eigenvector last (so the matrix's last row and column are e_last)."""
    n = mq.shape[0]
    evs, vecs = np.linalg.eig(mq)
    u = vecs[:, _unit_eigenvalue(evs)]
    u = u / np.linalg.norm(u)
    # with 1 a simple eigenvalue, the image of mq - I is the invariant
    # subspace of the other eigenvalues: its n - 1 leading left singular vectors
    left, _, _ = np.linalg.svd(mq - np.eye(n))
    return np.column_stack([left[:, :n - 1], u])


def wang_complex(fk, rep):
    """The based acyclic Wang complex

        0 -> H^1(M) -> H^1(F) -> H^1(F) -> H^2(M) -> 0

    with the block-diagonalizing basis (unit eigenvector last) on both
    H^1(F) slots, H^1(M) based so its image is that last basis vector, and
    H^2(M) based by the image of the last basis vector under the connecting
    map.  Returns (complex, action, basis)."""
    return _wang_complex(monodromy_action(fk, rep), rep.tol)


def _wang_complex(act, tol):
    """`wang_complex` from the monodromy action `act`, under the rank
    cutoff `tol`."""
    basis = _unit_last_basis(act.quotient)
    n = basis.shape[0]
    diff = np.eye(n, dtype=complex) - np.linalg.solve(basis, act.quotient @ basis)
    # the basis puts the unit eigenvector last, so the last row and column of
    # I - mq vanish; set them to exact zeros, not roundoff near the cutoff
    diff[-1, :] = diff[:, -1] = 0.0
    last = np.zeros((n, 1), dtype=complex)
    last[n - 1, 0] = 1.0
    cochain = BasedChainComplex(
        [1, n, n, 1],
        [last, diff, last.T.copy()],
        direction="cochain",
        tol=tol,
    )
    return cochain, act, basis


def wang_sequence_torsion(fk, rep):
    """Torsion of the Wang complex; equals prod_i (1 - lambda_i).

    Together with the main formula this gives
    wang_sequence_torsion * main_theorem_torsion = -eps0.
    """
    cochain, _, _ = wang_complex(fk, rep)
    return torsion(cochain)


def wang_exact_sequence(fk, rep):
    """The degreewise short exact sequence realizing the Wang setup on the
    finite presentation complex: the meridian direction plus the 2-cells as
    a subcomplex, the fiber complex as the quotient.

    Returns (sub, total, quot, incl, proj), ready for multiplicativity_check.
    """
    return _wang_exact_sequence(fk, twisted_cochain_complex(rep))


def _wang_exact_sequence(fk, total):
    """`wang_exact_sequence` on the twisted cochain complex `total` of the
    representation, under its rank cutoff."""
    n = 2 * fk.genus
    # degree-1 cochains: the 3n fiber coordinates, then the meridian block
    eye = np.eye(3 * n + 3, dtype=complex)
    incl = [eye[:3, :0], eye[:, 3 * n:], eye[:3 * n, :3 * n]]
    proj = [eye[:3, :3], eye[:3 * n, :], eye[:0, :3 * n]]
    d1 = total.boundaries[1]
    sub = BasedChainComplex(
        [0, 3, 3 * n],
        [np.zeros((3, 0), dtype=complex), d1[:, 3 * n:]],
        direction="cochain", tol=total.tol)
    quot = BasedChainComplex(
        [3, 3 * n, 0],
        [total.boundaries[0][:3 * n, :], np.zeros((0, 3 * n), dtype=complex)],
        direction="cochain", tol=total.tol)
    return sub, total, quot, incl, proj


def wang_product_check(fk, rep):
    """Tor(presentation complex; h1, h2) * Tor(Wang complex) with consistent
    reference bases; equals -1 for boundary-regular representations.

    h1 is the generator of H^1 normalized so its fiber restriction is the
    unit eigenvector closing the Wang complex; h2 is the image of that
    eigenvector under the connecting map of the mapping-cone sequence.
    This is the stack of one of `wang_identities`.
    """
    return wang_identities(fk, [rep])[0][3]


def wang_identities(fk, reps):
    """The Wang identities at every representation in `reps`: per
    representation the tuple (wang, report, residual, product) of
    `wang_sequence_torsion`, `main_theorem_torsion`, the residual of
    `multiplicativity_check(*wang_exact_sequence(fk, rep))` and
    `wang_product_check`, with their bits.  One `monodromy_actions` call
    serves all; each Wang complex and twisted cochain complex is built once,
    and Tor(C) in the bases h1, h2 is validated against the decomposition
    the multiplicativity check keeps.  The representations are taken in
    order, and the first refusal is raised where a loop computing the four
    values one by one would raise it.
    """
    n = 2 * fk.genus
    actions = monodromy_actions(fk, reps)
    out = []
    for rep, act, report in zip(reps, actions, _reports(fk, reps, actions)):
        report = _valid(report)
        wang, _, basis = _wang_complex(act, rep.tol)
        wang_torsion = torsion(wang)
        total = twisted_cochain_complex(rep)
        residual, _ = multiplicativity_check(*_wang_exact_sequence(fk, total))
        hdata = run_alone(_computed(total.to_chain()))
        dims = hdata.dims[::-1]  # in the cochain complex's own degrees
        if dims != [0, 1, 1]:
            raise NoUnitEigenvalueError("twisted cohomology of the exterior has dims %r, "
                                        "expected [0, 1, 1]" % (dims,))
        # normalize h1 so that its restriction to the fiber is the unit
        # eigenvector (cochain degree 1 is degree 1 of the chain form)
        z = hdata.homology[1][:, 0]
        coords = np.linalg.solve(basis, act.complement.conj().T @ z[:3 * n])
        if abs(coords[-1]) < 1e-9:
            raise NoUnitEigenvalueError("H^1 restricts trivially to the fiber")
        h1 = z / coords[-1]
        # h2: connecting image of the unit eigenvector (cone identification,
        # oriented to match Tor(C) * Tor(Wang) = -1)
        adTi = adjoint(sl2_inverse(rep.image(fk.meridian)))
        h2 = -(np.kron(np.eye(n), adTi) @ (act.complement @ basis[:, -1]))
        exterior = run_alone(_sign_determined(total, [None, h1[:, None], h2[:, None]]))
        out.append((wang_torsion, report, residual, exterior * wang_torsion))
    return out


# -- trace-coordinate machinery (genus one) -----------------------------------
#
# A word W in a generic pair (A, B) of SL2 is W = i I + a A + b B + c AB, by
# Cayley-Hamilton: A^2 = x1 A - I, B^2 = x2 B - I and
# BA = x2 A + x1 B + (x3 - x1 x2) I - AB, with (x1, x2, x3) = (tr A, tr B,
# tr AB); an inverse letter by Fricke's identity X G^-1 = x_g X - X G.  The
# state of a word is its four coefficients, each a jet (value, d/dx1, d/dx2,
# d/dx3), and a letter acts by right multiplication.  Scalars see only + - *,
# so the same code runs on complex numbers and on exact or multiprecision
# scalars.


def _times_a(x, s):
    """W A, with ABA = x3 A + B - x2 I."""
    (i, i1, i2, i3), (a, a1, a2, a3), (b, b1, b2, b3), (c, c1, c2, c3) = s
    x1, x2, x3 = x
    k = x3 - x1 * x2
    return ((k * b - a - x2 * c, k * b1 - a1 - x2 * (c1 + b),
             k * b2 - a2 - x2 * c2 - x1 * b - c, k * b3 - a3 - x2 * c3 + b),
            (i + x1 * a + x2 * b + x3 * c, i1 + x1 * a1 + x2 * b1 + x3 * c1 + a,
             i2 + x1 * a2 + x2 * b2 + x3 * c2 + b, i3 + x1 * a3 + x2 * b3 + x3 * c3 + c),
            (x1 * b + c, x1 * b1 + c1 + b, x1 * b2 + c2, x1 * b3 + c3),
            (-b, -b1, -b2, -b3))


def _times_a_inverse(x, s):
    """W A^-1 = x1 W - W A."""
    (i, i1, i2, i3), (a, a1, a2, a3), (b, b1, b2, b3), (c, c1, c2, c3) = s
    x1, x2, x3 = x
    k = x3 - x1 * x2
    return ((x1 * i + a - k * b + x2 * c, x1 * i1 + a1 - k * b1 + x2 * (c1 + b) + i,
             x1 * i2 + a2 - k * b2 + x2 * c2 + x1 * b + c, x1 * i3 + a3 - k * b3 + x2 * c3 - b),
            (-i - x2 * b - x3 * c, -i1 - x2 * b1 - x3 * c1, -i2 - x2 * b2 - x3 * c2 - b,
             -i3 - x2 * b3 - x3 * c3 - c),
            (-c, -c1, -c2, -c3),
            (b + x1 * c, b1 + x1 * c1 + c, b2 + x1 * c2, b3 + x1 * c3))


def _times_b(x, s):
    """W B, with AB^2 = x2 AB - A."""
    (i, i1, i2, i3), (a, a1, a2, a3), (b, b1, b2, b3), (c, c1, c2, c3) = s
    x2 = x[1]
    return ((-b, -b1, -b2, -b3), (-c, -c1, -c2, -c3),
            (i + x2 * b, i1 + x2 * b1, i2 + x2 * b2 + b, i3 + x2 * b3),
            (a + x2 * c, a1 + x2 * c1, a2 + x2 * c2 + c, a3 + x2 * c3))


def _times_b_inverse(x, s):
    """W B^-1 = x2 W - W B."""
    (i, i1, i2, i3), (a, a1, a2, a3), (b, b1, b2, b3), (c, c1, c2, c3) = s
    x2 = x[1]
    return ((x2 * i + b, x2 * i1 + b1, x2 * i2 + b2 + i, x2 * i3 + b3),
            (x2 * a + c, x2 * a1 + c1, x2 * a2 + c2 + a, x2 * a3 + c3),
            (-i, -i1, -i2, -i3), (-a, -a1, -a2, -a3))


_LETTER_STEPS = {(0, 1): _times_a, (0, -1): _times_a_inverse,
                 (1, 1): _times_b, (1, -1): _times_b_inverse}
_EMPTY_WORD = ((1, 0, 0, 0), (0, 0, 0, 0), (0, 0, 0, 0), (0, 0, 0, 0))


def _run(steps, x, state=_EMPTY_WORD):
    for step in steps:
        state = step(x, state)
    return state


def _trace(x, s):
    """The jet of tr W = 2 i + x1 a + x2 b + x3 c."""
    (i, i1, i2, i3), (a, a1, a2, a3), (b, b1, b2, b3), (c, c1, c2, c3) = s
    x1, x2, x3 = x
    return (2 * i + x1 * a + x2 * b + x3 * c, 2 * i1 + x1 * a1 + x2 * b1 + x3 * c1 + a,
            2 * i2 + x1 * a2 + x2 * b2 + x3 * c2 + b, 2 * i3 + x1 * a3 + x2 * b3 + x3 * c3 + c)


class TraceCoordMap:
    """The monodromy action on genus-one trace coordinates (x1, x2, x3) =
    (I_a, I_b, I_ab): P(x) = (tr phi(a), tr phi(b), tr phi(a) phi(b)),
    given the words phi(a) and phi(b) in the generators 0 and 1."""

    def __init__(self, word_a, word_b):
        self._steps = [[_LETTER_STEPS[letter] for letter in w] for w in (word_a, word_b)]

    def jets(self, point):
        """The jets (P_k, dP_k/dx1, dP_k/dx2, dP_k/dx3) of the three traces at
        the point, in the point's scalars; phi(a) phi(b) continues from
        phi(a)'s state."""
        steps_a, steps_b = self._steps
        state_a = _run(steps_a, point)
        return [_trace(point, s) for s in (state_a, _run(steps_b, point),
                                           _run(steps_b, point, state_a))]

    def __call__(self, point):
        return tuple(complex(jet[0]) for jet in self.jets(point))

    def jacobian(self, point):
        """The Jacobian (dP_i/dx_j) at the point, a complex 3x3 matrix."""
        return np.array([jet[1:] for jet in self.jets(point)], dtype=complex)


def sample_fixed_locus(fk, count, rng, kind="complex"):
    """`count` irreducible points of the fixed locus P(x) = x, drawn on the
    knot's locus chart: kind 'su2' from the real range of SU(2) characters,
    'real' from the real irreducible range, others complex."""
    chart = fk.locus_chart
    if chart is None:
        raise InvalidInputError("knot %r has no locus chart" % fk.name)
    ranges = chart.ranges.get(kind, chart.ranges["complex"])
    pts = []
    while len(pts) < count:
        c = complex(*(rng.uniform(lo, hi) for lo, hi in ranges))
        if chart.pole is not None and abs(c - chart.pole) < 1e-3:
            continue
        p = chart.point(c)
        if abs(commutator_trace(*p) - 2.0) <= 1e-6:
            continue
        if kind == "su2":
            try:
                su2_pair(p[0].real, p[1].real, p[2].real)
            except ValueError:
                continue
        pts.append(p)
    return pts


# -- lifting characters to representations ------------------------------------


def _normal_form_pair(x1, x2, x3):
    """Irreducible pair with given trace coordinates: A upper triangular with
    unit off-diagonal entry, B lower triangular (principal square roots)."""
    al = (x1 + cmath.sqrt(x1 * x1 - 4.0)) / 2.0
    be = (x2 + cmath.sqrt(x2 * x2 - 4.0)) / 2.0
    if al == 0 or be == 0:
        # x + sqrt(x^2 - 4) cancels to 0 for x far below -2
        raise InvalidInputError("the normal form of (%s, %s, %s) has an eigenvalue "
                                "that rounds to 0" % (x1, x2, x3))
    r = x3 - al * be - 1.0 / (al * be)
    A = np.array([[al, 1.0], [0.0, 1.0 / al]], dtype=complex)
    B = np.array([[be, 0.0], [r, 1.0 / be]], dtype=complex)
    return A, B


def _fiber_pair(fk, point, flavor):
    """The scalar checks of a lift, in order, and the fiber pair (A, B) with
    the point's trace coordinates that they pass to."""
    if fk.genus != 1:
        raise InvalidInputError("character lifting is implemented for genus one")
    x1, x2, x3 = (complex(point[0]), complex(point[1]), complex(point[2]))
    try:
        kappa = commutator_trace(x1, x2, x3)
    except OverflowError:
        kappa = math.inf
    if not cmath.isfinite(kappa):
        raise InvalidInputError("the commutator trace of (%s, %s, %s) is not a "
                                "finite number" % (x1, x2, x3))
    if abs(kappa - 2.0) <= 1e-8:
        raise ReducibleCharacterError(
            "commutator trace is 2: the character (%s, %s, %s) is reducible"
            % (x1, x2, x3))
    if flavor == SU2:
        if max(abs(x1.imag), abs(x2.imag), abs(x3.imag)) > 1e-10:
            raise InvalidInputError("SU(2) characters must be real")
        try:
            return su2_pair(x1.real, x2.real, x3.real)
        except ValueError as exc:
            raise InvalidInputError(str(exc)) from exc
    return _normal_form_pair(x1, x2, x3)


def _intertwiner_systems(images, targets):
    """The (N, 8, 4) linear systems of the meridian intertwiners at N points.

    T rho(phi(x)) = rho(x) T reads kron(P^T, I) - kron(I, X) on the
    column-major entries of T, for P = rho(phi(x)) and X = rho(x): one 4x4
    block per fiber generator x.  `images` and `targets` are the (2, N, 2, 2)
    stacks of the P and the X.  The entries are the products np.kron forms,
    so they are kron's bits, signed zeros included.
    """
    eye = np.eye(2)
    left = images.swapaxes(-1, -2)[..., :, None, :, None] * eye[:, None, :]
    right = eye[:, None, :, None] * targets[..., None, :, None, :]
    return (left - right).swapaxes(0, 1).reshape(images.shape[1], -1, 4)


def lift_characters_to_reps(fk, points, flavor=SL2C, tol=RANK_TOL):
    """Representations of the knot group over fixed-locus character points:
    per point, its Representation or the FibtorError that refused it.  A
    FibtorError given in place of a point is kept at its index.

    Each point passes `lift_character_to_rep`'s checks in the same order,
    with the same messages and the same bits.  Every point that passes the
    scalar checks runs the whole stacked pass: one prefix-product pass per
    monodromy word, one SVD of the intertwiner systems, one determinant
    call, the normalization and one prefix-product pass per relator.  A row
    whose monodromy images are not finite has the identity in their place
    in the SVD.  Only then is each row decided.  Errors are kept without
    their tracebacks, whose frames would hold the whole stack.
    """
    out, pairs, live = list(points), [], []
    for i, point in enumerate(points):
        if isinstance(point, FibtorError):
            continue
        try:
            pairs.append(_fiber_pair(fk, point, flavor))
            live.append(i)
        except FibtorError as exc:
            out[i] = exc.with_traceback(None)
    if not pairs:
        return out
    A, B = (np.array(m) for m in zip(*pairs))
    inverses = (sl2_inverse(A), sl2_inverse(B))
    # rho(phi(x)) is the last entry of the monodromy word's prefix stack; the
    # stacks are left on the representations for monodromy_action's Fox blocks
    words = [w.letters for w in fk.monodromy_words()]
    presentation = fk.presentation()
    # a row refused below may overflow, or divide by its singular T's zero
    # determinant, before it is refused
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        stacks = [prefix_products((A, B), inverses, w) for w in words]
        moved = np.array([s[-1] for s in stacks])
        finite = np.isfinite(moved).all(axis=(0, 2, 3))
        moved[:, ~finite] = np.eye(2)
        _, svals, vh = _svd(_intertwiner_systems(moved, np.array([A, B])))
        # the kernel vector holds T column by column
        T = vh[:, -1].conj().reshape(-1, 2, 2).swapaxes(1, 2)
        dets = _det(T)
        T = T / np.array([cmath.sqrt(det) for det in dets])[:, None, None]
        images, inverses = (A, B, T), inverses + (sl2_inverse(T),)
        relators = {r.letters: prefix_products(images, inverses, r.letters)
                    for r in presentation.relators}
    for j, i in enumerate(live):
        small = len(svals[j]) - _rank(svals[j], 1e-7)
        if not finite[j]:
            out[i] = InvalidInputError("the monodromy images at (%s, %s, %s) are not "
                                       "finite numbers" % tuple(map(complex, points[i][:3])))
        elif small == 0:
            out[i] = NotFixedPointError(
                "no meridian intertwiner: the point is not fixed by the monodromy "
                "(smallest singular value %.3e)" % svals[j][-1])
        elif small > 1:
            out[i] = NotFixedPointError(
                "intertwiner space has dimension %d; the pair is degenerate" % small)
        elif abs(dets[j]) < 1e-12:
            out[i] = NotFixedPointError("intertwiner is singular")
        elif not is_unimodular(T[j]):
            # a nearly singular kernel vector, normalized, loses digits of det T
            out[i] = NotFixedPointError(
                "intertwiner is nearly singular: normalized, |det - 1| = %.3e"
                % unimodular_defect(T[j]))
        else:
            # the fiber generators are the presentation's first, so the
            # letters of a monodromy word index the same images there
            memo = {w: s[:, j] for w, s in zip(words, stacks)}
            memo.update((r, s[:, j]) for r, s in relators.items())
            try:
                out[i] = Representation(
                    presentation, [m[j] for m in images], flavor=flavor, tol=tol,
                    inverses=[m[j] for m in inverses], prefix_stacks=memo)
            except FibtorError as exc:
                out[i] = exc.with_traceback(None)
    return out


def lift_character_to_rep(fk, point, flavor=SL2C, tol=RANK_TOL):
    """Representation of the knot group over a fixed-locus character point.

    The fiber generators get matrices with the prescribed traces (SL2C
    normal form, or an honest SU(2) pair for flavor SU2); the meridian image
    is the intertwiner T with T rho(phi(x)) = rho(x) T, normalized to
    determinant one by the principal square root.  `tol` is the
    representation's rank cutoff.  This is the one-point case of
    `lift_characters_to_reps`.
    """
    return _valid(lift_characters_to_reps(fk, [point], flavor=flavor, tol=tol)[0])


def random_conjugate(rep, rng):
    """Conjugate by a random element of the representation's group: SU(2)
    for an SU(2) representation, SL2(C) otherwise."""
    if rep.flavor == SU2:
        q = rng.standard_normal(4)
        q = q / np.linalg.norm(q)
        g = np.array([[q[0] + 1j * q[1], q[2] + 1j * q[3]],
                      [-q[2] + 1j * q[3], q[0] - 1j * q[1]]])
    else:
        while True:
            g = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
            if abs(np.linalg.det(g)) > 0.3:
                break
        g = g / cmath.sqrt(np.linalg.det(g))
    return rep.conjugate(g)


# -- torus knots ---------------------------------------------------------------


def torus_closed_form(p, q, a, b):
    """Torsion of the (p, q) torus knot at the SU(2) character indexed by
    (a, b):

        -16 / (p^2 q^2) * sin^2(pi a / p) * sin^2(pi b / q),

    for 0 < a < p, 0 < b < q, a = b mod 2, and gcd(p, q) = 1."""
    p, q, a, b = int(p), int(q), int(a), int(b)
    if math.gcd(p, q) != 1:
        raise InvalidInputError("p and q must be coprime")
    if not 0 < a < p:
        raise InvalidInputError("need 0 < a < p")
    if not 0 < b < q:
        raise InvalidInputError("need 0 < b < q")
    if (a - b) % 2 != 0:
        raise InvalidInputError("need a = b (mod 2)")
    return -16.0 / (p * p * q * q) * math.sin(math.pi * a / p) ** 2 \
        * math.sin(math.pi * b / q) ** 2
