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
import re
from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateMonodromyError,
    InvalidInputError,
    NonSimpleUnitEigenvalueError,
    NotFixedPointError,
    NoUnitEigenvalueError,
    ReducibleCharacterError,
    ReducibleRestrictionError,
    RelatorViolationError,
    UnitEigenvalueInProductError,
)
from .linalg import RANK_TOL, UNIT_EIGENVALUE_TOL, column_space, orthogonal_complement
from .rep import (
    SL2C,
    SU2,
    Representation,
    adjoint,
    coboundary_matrix,
    commutator_trace,
    fox_adjoint_blocks,
    sl2_inverse,
    su2_pair,
    twisted_cochain_complex,
)
from .torsion import BasedChainComplex, homology, sign_determined_torsion, torsion
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
        # set by the catalog; from_json sets a knot file's checked trace map
        self.trace_map = self.locus_chart = None
        # det(I - phi_*) on H^1(F), an integer; fibered knots have
        # Delta_K(1) = +-1, so it is nonzero.  check_fibered=False admits
        # synthetic monodromies for bookkeeping
        self.det_i_minus_m = round(float(np.linalg.det(
            np.eye(2 * self.genus) - abelianized_monodromy(self))))
        if check_fibered and self.det_i_minus_m == 0:
            raise DegenerateMonodromyError(
                "det(I - abelianized monodromy) = 0; not a fibered-knot monodromy")

    # -- presentations ---------------------------------------------------------

    def presentation(self):
        """The mapping-torus presentation of the knot group, meridian last."""
        gens = self.fiber_generators + [self.meridian]
        it = len(self.fiber_generators)
        relators = []
        for j, g in enumerate(self.fiber_generators):
            w = self.monodromy[g]
            r = Word(((it, -1), (j, 1), (it, 1)) + w.inverse().letters)
            relators.append(r)
        return GroupPresentation(gens, relators)

    def longitude_word(self):
        """The boundary of the fiber, prod_i [a_i, b_i], in fiber generators."""
        letters = []
        for i in range(self.genus):
            a, b = 2 * i, 2 * i + 1
            letters += [(a, 1), (b, 1), (a, -1), (b, -1)]
        return Word(letters)

    def monodromy_words(self):
        return [self.monodromy[g] for g in self.fiber_generators]

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
        if self.trace_map is not None:
            obj["trace_map"] = [str(p) for p in self.trace_map.polynomials]
        return json.dumps(obj, indent=2)

    @classmethod
    def from_json(cls, text):
        """Read a knot file, raising InvalidInputError on any malformed one.
        An optional `trace_map` must equal the map derived from the monodromy."""
        try:
            obj = json.loads(text)
            fk = cls(obj.get("name", "knot"), obj["genus"], obj["fiber_generators"],
                     obj["monodromy"], meridian=obj.get("meridian", "t"))
            given = obj.get("trace_map") and TraceCoordMap(obj["trace_map"])
        except (AttributeError, KeyError, RecursionError, TypeError, ValueError) as exc:
            raise InvalidInputError("malformed knot file (%s: %s)"
                                    % (type(exc).__name__, exc)) from exc
        if given:
            fk.trace_map = TraceCoordMap.from_monodromy(fk)
            if given.polynomials != fk.trace_map.polynomials:
                raise InvalidInputError("trace_map disagrees with the monodromy's map %s"
                                        % [str(p) for p in fk.trace_map.polynomials])
        return fk

    def __repr__(self):
        return "FiberedKnot(%r, genus=%d)" % (self.name, self.genus)


def abelianized_monodromy(fk):
    """Integer matrix of the monodromy on first (co)homology of the fiber.

    Column j holds the exponent sums of the image of the j-th fiber
    generator, matching the displayed matrices for the catalog knots.
    """
    n = 2 * fk.genus
    m = np.zeros((n, n), dtype=int)
    for j, g in enumerate(fk.fiber_generators):
        w = fk.monodromy[g]
        for i in range(n):
            m[i, j] = w.exponent_sum(i)
    return m


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
    """
    n = len(fk.fiber_generators)
    if rep.presentation.generators[:n] != fk.fiber_generators:
        raise InvalidInputError("the representation's first generators must be "
                                "the knot's fiber generators")
    d0 = coboundary_matrix(rep.images[:n])
    bspace = column_space(d0, rep.tol)
    if bspace.shape[1] < 3:
        raise ReducibleRestrictionError(
            "fiber restriction has an Ad-fixed vector (dim %d); "
            "the representation is reducible or metabelian" % (3 - bspace.shape[1]))
    T = rep.image(fk.meridian)
    adT = adjoint(T)
    full = np.zeros((3 * n, 3 * n), dtype=complex)
    for j, w in enumerate(fk.monodromy_words()):
        for i, blk in enumerate(fox_adjoint_blocks(rep, w)[:n]):
            full[3 * j:3 * j + 3, 3 * i:3 * i + 3] = adT @ blk
    image = full @ bspace
    resid = np.linalg.norm(image - bspace @ (bspace.conj().T @ image))
    if resid > 1e-6 * max(1.0, np.linalg.norm(full)):
        raise RelatorViolationError(
            "monodromy action does not preserve the coboundary space "
            "(residual %.3e); the representation violates the mapping-torus "
            "relators" % resid)
    comp = orthogonal_complement(bspace, 3 * n, rep.tol)
    quotient = comp.conj().T @ full @ comp
    return MonodromyAction(full, d0, comp, quotient)


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


def eigenvalues_excluding_one(m):
    """Eigenvalues of `m` with the (required, simple) unit eigenvalue removed,
    sorted by (real, imaginary)."""
    evs = np.linalg.eigvals(np.asarray(m, dtype=complex))
    unit = _unit_eigenvalue(evs)
    rest = [complex(evs[k]) for k in range(len(evs)) if k != unit]
    rest.sort(key=lambda z: (z.real, z.imag))
    return rest


@dataclass
class TorsionReport:
    """Result of a torsion computation for one representation."""
    torsion: complex
    epsilon0: int
    eigenvalues: list
    unit_eigenvalue_gap: float
    method: str
    knot: str = ""
    character: tuple = None
    jacobian_eigenvalues: list = None

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

    def to_json(self):
        return json.dumps(self.to_dict())


def _product_from_eigenvalues(eps0, lams):
    gap = min((abs(1.0 - lam) for lam in lams), default=math.inf)
    if gap <= UNIT_EIGENVALUE_TOL:
        raise UnitEigenvalueInProductError(
            "a retained eigenvalue lies within %g of 1" % UNIT_EIGENVALUE_TOL)
    value = -eps0 * np.prod([1.0 / (1.0 - lam) for lam in lams])
    return complex(value), gap


def main_theorem_torsion(fk, rep):
    """Sign-determined torsion of the knot exterior with respect to the
    longitude, from the eigenvalues of the twisted monodromy.

    Requires the fiber restriction irreducible and a simple unit eigenvalue
    of the action on H^1(F).  For genus-one knots carrying a trace-coordinate
    map, the report also carries the eigenvalues of the exact trace-map
    Jacobian at the representation's character as an independent cross-check.
    """
    act = monodromy_action(fk, rep)
    lams = eigenvalues_excluding_one(act.quotient)
    eps0 = epsilon0(fk)
    value, gap = _product_from_eigenvalues(eps0, lams)
    report = TorsionReport(
        torsion=value,
        epsilon0=eps0,
        eigenvalues=lams,
        unit_eigenvalue_gap=gap,
        method="cohomology",
        knot=fk.name,
    )
    if fk.genus == 1:
        point = fk.character_of(rep)
        report.character = point
        if fk.trace_map is not None:
            jevs = np.linalg.eigvals(fk.trace_map.jacobian(point))
            report.jacobian_eigenvalues = sorted(
                (complex(z) for z in jevs), key=lambda z: (z.real, z.imag))
    return report


def jacobian_torsion(fk, point):
    """Torsion at a genus-one character point via the trace-map Jacobian only."""
    if fk.trace_map is None:
        raise InvalidInputError("knot %r carries no trace-coordinate map" % fk.name)
    jac = fk.trace_map.jacobian(point)
    lams = eigenvalues_excluding_one(jac)
    eps0 = epsilon0(fk)
    value, gap = _product_from_eigenvalues(eps0, lams)
    return TorsionReport(
        torsion=value, epsilon0=eps0, eigenvalues=lams,
        unit_eigenvalue_gap=gap, method="jacobian", knot=fk.name,
        character=tuple(map(complex, point)))


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
    act = monodromy_action(fk, rep)
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
        tol=rep.tol,
    )
    return cochain, act, basis


def wang_sequence_torsion(fk, rep):
    """Torsion of the Wang complex; equals prod_i (1 - lambda_i).

    Together with the main formula this gives
    wang_sequence_torsion * main_theorem_torsion = -eps0.
    """
    cochain, _, _ = wang_complex(fk, rep)
    return torsion(cochain)


def _meridian_block_embedding(fk):
    """Inclusion/projection matrices of the meridian-direction subcomplex of
    the presentation cochain complex (the mapping-cone short exact sequence)."""
    n = 2 * fk.genus
    incl0 = np.zeros((3, 0), dtype=complex)
    incl1 = np.zeros((3 * (n + 1), 3), dtype=complex)
    incl1[3 * n:, :] = np.eye(3)
    incl2 = np.eye(3 * n, dtype=complex)
    proj0 = np.eye(3, dtype=complex)
    proj1 = np.zeros((3 * n, 3 * (n + 1)), dtype=complex)
    proj1[:, :3 * n] = np.eye(3 * n)
    proj2 = np.zeros((0, 3 * n), dtype=complex)
    return [incl0, incl1, incl2], [proj0, proj1, proj2]


def wang_exact_sequence(fk, rep):
    """The degreewise short exact sequence realizing the Wang setup on the
    finite presentation complex: the meridian direction plus the 2-cells as
    a subcomplex, the fiber complex as the quotient.

    Returns (sub, total, quot, incl, proj), ready for multiplicativity_check.
    """
    total = twisted_cochain_complex(rep)
    incl, proj = _meridian_block_embedding(fk)
    n = 2 * fk.genus
    d1 = total.boundaries[1]
    sub = BasedChainComplex(
        [0, 3, 3 * n],
        [np.zeros((3, 0), dtype=complex), d1[:, 3 * n:]],
        direction="cochain", tol=rep.tol)
    quot = BasedChainComplex(
        [3, 3 * n, 0],
        [total.boundaries[0][:3 * n, :], np.zeros((0, 3 * n), dtype=complex)],
        direction="cochain", tol=rep.tol)
    return sub, total, quot, incl, proj


def wang_product_check(fk, rep):
    """Tor(presentation complex; h1, h2) * Tor(Wang complex) with consistent
    reference bases; equals -1 for boundary-regular representations.

    h1 is the generator of H^1 normalized so its fiber restriction is the
    unit eigenvector closing the Wang complex; h2 is the image of that
    eigenvector under the connecting map of the mapping-cone sequence.
    """
    wang, act, basis = wang_complex(fk, rep)
    total = twisted_cochain_complex(rep)
    hdata = homology(total)
    if hdata.dims != [0, 1, 1]:
        raise NoUnitEigenvalueError(
            "twisted cohomology of the exterior has dims %r, expected [0, 1, 1]"
            % (hdata.dims,))
    n = 2 * fk.genus
    # normalize h1 so that its restriction to the fiber is the unit eigenvector
    z = hdata.homology[1][:, 0]
    restr = act.complement.conj().T @ z[:3 * n]
    coords = np.linalg.solve(basis, restr)
    scale = coords[-1]
    if abs(scale) < 1e-9:
        raise NoUnitEigenvalueError("H^1 restricts trivially to the fiber")
    h1 = z / scale
    # h2: connecting image of the unit eigenvector (cone identification,
    # oriented to match Tor(C) * Tor(Wang) = -1)
    unit_cocycle = act.complement @ basis[:, -1]
    adTi = adjoint(sl2_inverse(rep.image(fk.meridian)))
    blocks = np.kron(np.eye(n), adTi)
    h2 = -(blocks @ unit_cocycle)
    based = BasedChainComplex(
        total.dims, total.boundaries, direction="cochain",
        homology_bases=[None, h1[:, None], h2[:, None]], tol=rep.tol)
    return sign_determined_torsion(based) * torsion(wang)


# -- trace-coordinate machinery (genus one) -----------------------------------


_ONE, _X1, _X2, _X3 = (0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)
_FACTOR = r"([0-9]+)|x([123])(?:\s*\*\*\s*([0-9]+))?"
_TERM = r"(?:%s)(?:\s*\*\s*(?:%s))*" % (_FACTOR, _FACTOR)
_POLYNOMIAL = re.compile(r"[-+]?\s*%s(?:\s*[-+]\s*%s)*" % (_TERM, _TERM))


class Polynomial(dict):
    """An integer polynomial in (x1, x2, x3), exponent triple -> coefficient,
    printed as sympy does and evaluated bit for bit as that print would be."""

    def _ordered(self):
        terms = sorted(self.items(), reverse=True)
        # sympy prints "1 - x1", not "-x1 + 1": a positive constant goes
        # first when the only other term is a negative multiple of one power
        if (len(terms) == 2 and terms[1][0] == _ONE and terms[1][1] > 0
                and terms[0][1] < 0 and sum(map(bool, terms[0][0])) == 1):
            terms.reverse()
        return terms

    def __str__(self):
        out = ""
        for k, (exps, c) in enumerate(self._ordered()):
            factors = ["x%d" % (i + 1) + ("**%d" % e if e > 1 else "")
                       for i, e in enumerate(exps) if e]
            if abs(c) != 1 or not factors:
                factors.insert(0, str(abs(c)))
            out += ("-" if c < 0 else "") if k == 0 else (" - " if c < 0 else " + ")
            out += "*".join(factors)
        return out or "0"

    def __call__(self, point):
        value = 0
        for k, (exps, c) in enumerate(self._ordered()):
            factors = [point[i] if e == 1 else point[i] ** e
                       for i, e in enumerate(exps) if e]
            term = c if k == 0 else abs(c)  # a leading minus binds to the term
            if factors and term in (1, -1):
                term = factors.pop(0) if term == 1 else -factors.pop(0)
            for f in factors:
                term = term * f
            value = term if k == 0 else value - term if c < 0 else value + term
        return value

    def diff(self, i):
        return Polynomial({e[:i] + (e[i] - 1,) + e[i + 1:]: c * e[i]
                           for e, c in self.items() if e[i]})


def _sum(*terms):
    """The sum of c * x^m * p over the (c, m, p) given."""
    out = {}
    for c, m, p in terms:
        for e, v in p.items():
            k = (e[0] + m[0], e[1] + m[1], e[2] + m[2])
            out[k] = out.get(k, 0) + c * v
    return Polynomial((k, v) for k, v in out.items() if v)


def parse_polynomial(text):
    """Read an expanded integer polynomial in x1, x2, x3 made of integers and
    `+ - * **` (exponents on variables only); the text is never evaluated."""
    if not isinstance(text, str) or not _POLYNOMIAL.fullmatch(text.strip()):
        raise InvalidInputError("not an integer polynomial in x1, x2, x3: %r" % (text,))
    terms = []
    for sign, body in re.findall(r"([-+]?)([^-+]+)", text.strip()):
        coef, exps = -1 if sign == "-" else 1, [0, 0, 0]
        for number, var, power in re.findall(_FACTOR, body):
            if number:
                coef *= int(number)
            else:
                exps[int(var) - 1] += int(power or 1)
        terms.append((coef, tuple(exps), {_ONE: 1}))
    return _sum(*terms)


def trace_polynomial(word):
    """tr rho(word), for a word in two generators, as a polynomial in
    (x1, x2, x3) = (tr A, tr B, tr AB).  The word acts on the span of a
    generic pair, basis (I, A, B, AB), by Cayley-Hamilton: A^2 = x1 A - I,
    B^2 = x2 B - I, BA = x2 A + x1 B + (x3 - x1 x2) I - AB; an inverse letter
    by Fricke's identity X G^-1 = tr(G) X - X G."""
    x = (Polynomial({_ONE: 1}), Polynomial(), Polynomial(), Polynomial())
    for g, e in word:
        i, a, b, ab = x
        if g == 0:  # with ABA = x3 A + B - x2 I
            y = (_sum((-1, _ONE, a), (1, _X3, b), (-1, (1, 1, 0), b), (-1, _X2, ab)),
                 _sum((1, _ONE, i), (1, _X1, a), (1, _X2, b), (1, _X3, ab)),
                 _sum((1, _X1, b), (1, _ONE, ab)), _sum((-1, _ONE, b)))
        else:  # with AB^2 = x2 AB - A
            y = (_sum((-1, _ONE, b)), _sum((-1, _ONE, ab)),
                 _sum((1, _ONE, i), (1, _X2, b)), _sum((1, _ONE, a), (1, _X2, ab)))
        if e == -1:
            y = tuple(_sum((1, (_X1, _X2)[g], p), (-1, _ONE, q)) for p, q in zip(x, y))
        x = y
    i, a, b, ab = x
    return _sum((2, _ONE, i), (1, _X1, a), (1, _X2, b), (1, _X3, ab))


class TraceCoordMap:
    """The monodromy action on genus-one trace coordinates (x1, x2, x3) =
    (I_a, I_b, I_ab): three Polynomials, or strings for `parse_polynomial`."""

    def __init__(self, polynomials):
        self.polynomials = tuple(p if isinstance(p, Polynomial) else parse_polynomial(p)
                                 for p in polynomials)
        if len(self.polynomials) != 3:
            raise InvalidInputError("a trace map has three polynomials")
        self._jac = [[p.diff(j) for j in range(3)] for p in self.polynomials]

    @classmethod
    def from_monodromy(cls, fk):
        """(tr phi(a), tr phi(b), tr phi(a) phi(b)), from the monodromy words."""
        if fk.genus != 1:
            raise InvalidInputError("trace maps are a genus-one notion here")
        wa, wb = fk.monodromy_words()
        return cls([trace_polynomial(w) for w in (wa, wb, wa * wb)])

    def __call__(self, point):
        return tuple(complex(p(point)) for p in self.polynomials)

    def jacobian(self, point):
        """Exact polynomial Jacobian (dP_i/dx_j), evaluated at the point."""
        return np.array([[d(point) for d in row] for row in self._jac], dtype=complex)

    def fixed_locus_relations(self):
        """Reduced Groebner basis of the fixed locus P(x) = x."""
        import sympy  # only here: the computing path never needs it
        gens = sympy.symbols("x1 x2 x3")
        eqs = [_sum((1, _ONE, p), (-1, v, {_ONE: 1}))
               for p, v in zip(self.polynomials, (_X1, _X2, _X3))]
        eqs = [sympy.Poly.from_dict(e, *gens).as_expr() for e in eqs if e]
        return list(sympy.groebner(eqs, *gens, order="lex").exprs) if eqs else []

    def preserves_boundary_trace(self):
        """Whether I_gamma o P = I_gamma exactly, I_gamma = tr [A, B]."""
        def mul(p, q):
            return _sum(*((c, e, q) for e, c in p.items()))

        def kappa(y1, y2, y3):
            return _sum((1, _ONE, mul(y1, y1)), (1, _ONE, mul(y2, y2)),
                        (1, _ONE, mul(y3, y3)), (-1, _ONE, mul(mul(y1, y2), y3)),
                        (-2, _ONE, {_ONE: 1}))
        return kappa(*self.polynomials) == kappa(*({m: 1} for m in (_X1, _X2, _X3)))


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


def lift_character_to_rep(fk, point, flavor=SL2C, tol=RANK_TOL):
    """Representation of the knot group over a fixed-locus character point.

    The fiber generators get matrices with the prescribed traces (SL2C
    normal form, or an honest SU(2) pair for flavor SU2); the meridian image
    is the intertwiner T with T rho(phi(x)) = rho(x) T, normalized to
    determinant one by the principal square root.  `tol` is the
    representation's rank cutoff.
    """
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
            A, B = su2_pair(x1.real, x2.real, x3.real)
        except ValueError as exc:
            raise InvalidInputError(str(exc)) from exc
    else:
        A, B = _normal_form_pair(x1, x2, x3)

    letters = ((A, sl2_inverse(A)), (B, sl2_inverse(B)))
    eye = np.eye(2)
    rows = []
    for w, target in zip(fk.monodromy_words(), [A, B]):
        X = np.eye(2, dtype=complex)
        for g, e in w:
            X = X @ letters[g][e == -1]
        rows.append(np.kron(X.T, eye) - np.kron(eye, target))
    system = np.vstack(rows)
    _, svals, vh = np.linalg.svd(system)
    small = int(np.sum(svals < 1e-7 * max(svals[0], 1.0)))
    if small == 0:
        raise NotFixedPointError(
            "no meridian intertwiner: the point is not fixed by the monodromy "
            "(smallest singular value %.3e)" % svals[-1])
    if small > 1:
        raise NotFixedPointError(
            "intertwiner space has dimension %d; the pair is degenerate" % small)
    T = vh[-1].conj().reshape((2, 2), order="F")
    det = np.linalg.det(T)
    if abs(det) < 1e-12:
        raise NotFixedPointError("intertwiner is singular")
    T = T / cmath.sqrt(det)
    images = {fk.fiber_generators[0]: A, fk.fiber_generators[1]: B,
              fk.meridian: T}
    return Representation(fk.presentation(), images, flavor=flavor, tol=tol)


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
