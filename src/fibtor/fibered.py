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
from dataclasses import dataclass

import numpy as np
import scipy.linalg
import sympy

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
from .linalg import DEFAULT_TOL, column_space, orthogonal_complement
from .rep import (
    SL2C,
    SU2,
    Representation,
    adjoint,
    commutator_trace,
    fixed_lie_subspace,
    fox_adjoint_blocks,
    sl2_inverse,
    su2_pair,
    twisted_cochain_complex,
)
from .torsion import BasedChainComplex, homology, sign_determined_torsion, torsion
from .words import GroupPresentation, Word


class FiberedKnot:
    """Monodromy presentation of a fibered knot.

    monodromy maps each fiber generator name to a word in the fiber
    generators only (the meridian never appears); the longitude is the
    product of commutators of the generator pairs, i.e. the boundary of
    the fiber.
    """

    def __init__(self, name, genus, fiber_generators, monodromy,
                 meridian="t", trace_map=None, check_fibered=True):
        self.name = name
        self.genus = int(genus)
        if self.genus < 1:
            raise InvalidInputError("genus must be positive")
        self.fiber_generators = list(fiber_generators)
        if len(self.fiber_generators) != 2 * self.genus:
            raise InvalidInputError("need 2*genus fiber generators")
        if meridian in self.fiber_generators:
            raise InvalidInputError("meridian symbol clashes with a fiber generator")
        self.meridian = meridian
        self.monodromy = {}
        for g in self.fiber_generators:
            w = monodromy[g]
            if not isinstance(w, Word):
                w = Word.from_string(w, self.fiber_generators)
            if w.max_generator() >= len(self.fiber_generators):
                raise InvalidInputError(
                    "monodromy image of %r uses a non-fiber generator" % g)
            self.monodromy[g] = w.reduce()
        self.trace_map = trace_map
        # fibered knots have Delta_K(1) = +-1, so I - M is invertible;
        # check_fibered=False admits synthetic monodromies for bookkeeping
        if check_fibered and abs(round(self._det_i_minus_m())) == 0:
            raise DegenerateMonodromyError(
                "det(I - abelianized monodromy) = 0; not a fibered-knot monodromy")

    # -- presentations ---------------------------------------------------------

    def fiber_presentation(self):
        return GroupPresentation(self.fiber_generators, [])

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

    def _det_i_minus_m(self):
        m = abelianized_monodromy(self)
        return round(float(np.linalg.det(np.eye(2 * self.genus) - m)))

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
        obj = json.loads(text)
        tm = obj.get("trace_map")
        return cls(
            obj.get("name", "knot"),
            obj["genus"],
            obj["fiber_generators"],
            obj["monodromy"],
            meridian=obj.get("meridian", "t"),
            trace_map=TraceCoordMap(tm) if tm else None,
        )

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
    det = fk._det_i_minus_m()
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
    fiber_rep: Representation
    meridian_image: np.ndarray


def monodromy_action(fk, rep, tol=None, complement=None):
    """Compute the action of the monodromy on H^1(F; sl2_phi).

    A cocycle h, determined by its values on the fiber generators, is sent
    to x |-> Ad_{rho(t)} h(phi(x)): expanding h over the image words by the
    left cocycle convention turns this into Fox-derivative blocks.  The
    coboundary space is checked to be preserved, and the induced map on the
    quotient H^1 = C^1/B^1 is returned with its scaffolding.

    `complement` overrides the quotient model with any column basis
    complementing B^1 (the induced eigenvalues cannot depend on it).
    """
    tol = tol or rep.tol
    fiber_names = fk.fiber_generators
    fiber_images = [rep.image(g) for g in fiber_names]
    fixed = fixed_lie_subspace(fiber_images, tol)
    if fixed.shape[1] > 0:
        raise ReducibleRestrictionError(
            "fiber restriction has an Ad-fixed vector (dim %d); "
            "the representation is reducible or metabelian" % fixed.shape[1])
    fiber_pres = fk.fiber_presentation()
    fiber_rep = Representation(fiber_pres, fiber_images, flavor=rep.flavor,
                               tol=tol, check=False)
    T = rep.image(fk.meridian)
    adT = adjoint(T)
    n = len(fiber_names)
    full = np.zeros((3 * n, 3 * n), dtype=complex)
    words = fk.monodromy_words()
    for j in range(n):
        for i, blk in enumerate(fox_adjoint_blocks(fiber_rep, words[j])):
            full[3 * j:3 * j + 3, 3 * i:3 * i + 3] = adT @ blk
    d0 = np.zeros((3 * n, 3), dtype=complex)
    for i in range(n):
        d0[3 * i:3 * i + 3, :] = adjoint(fiber_images[i]) - np.eye(3)
    bspace = column_space(d0, tol)
    if bspace.shape[1] != 3:
        raise ReducibleRestrictionError("coboundary space is degenerate")
    image = full @ bspace
    resid = np.linalg.norm(image - bspace @ (bspace.conj().T @ image))
    if resid > 1e-6 * max(1.0, np.linalg.norm(full)):
        raise RelatorViolationError(
            "monodromy action does not preserve the coboundary space "
            "(residual %.3e); the representation violates the mapping-torus "
            "relators" % resid)
    if complement is None:
        comp = orthogonal_complement(bspace, 3 * n, tol)
        quotient = comp.conj().T @ full @ comp
    else:
        comp = np.asarray(complement, dtype=complex)
        if comp.shape != (3 * n, 3 * n - 3):
            raise InvalidInputError("complement must have shape (6g, 6g-3)")
        frame = np.hstack([bspace, comp])
        coords = np.linalg.solve(frame, full @ comp)
        quotient = coords[3:, :]
    return MonodromyAction(full, d0, comp, quotient, fiber_rep, T)


def twisted_monodromy_on_H1(fk, rep, tol=None, complement=None):
    """Matrix (size 6g-3) of the twisted monodromy on H^1(F; sl2_phi)."""
    return monodromy_action(fk, rep, tol, complement).quotient


def eigenvalues_excluding_one(m, tol=1e-6):
    """Eigenvalues of `m` with the (required, simple) unit eigenvalue removed.

    Returns them sorted by (real, imaginary).  Raises if no eigenvalue or
    more than one eigenvalue lies within `tol` of 1 -- the two failure modes
    (boundary-regularity failure, tolerance clash) are reported distinctly.
    """
    evs = np.linalg.eigvals(np.asarray(m, dtype=complex))
    near = [k for k in range(len(evs)) if abs(evs[k] - 1.0) < tol]
    if not near:
        raise NoUnitEigenvalueError(
            "no eigenvalue within %g of 1 (closest: %.3e); the representation "
            "is not boundary-regular" % (tol, min(abs(evs - 1.0))))
    if len(near) > 1:
        raise NonSimpleUnitEigenvalueError(
            "%d eigenvalues within %g of 1; regularity failure or tolerance "
            "clash" % (len(near), tol))
    rest = [complex(evs[k]) for k in range(len(evs)) if k != near[0]]
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
            "unit_eigenvalue_gap": self.unit_eigenvalue_gap,
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


def _product_from_eigenvalues(eps0, lams, tol_unit):
    gap = min((abs(1.0 - lam) for lam in lams), default=math.inf)
    if gap <= tol_unit:
        raise UnitEigenvalueInProductError(
            "a retained eigenvalue lies within %g of 1" % tol_unit)
    value = -eps0 * np.prod([1.0 / (1.0 - lam) for lam in lams])
    return complex(value), gap


def main_theorem_torsion(fk, rep, tol=None):
    """Sign-determined torsion of the knot exterior with respect to the
    longitude, from the eigenvalues of the twisted monodromy.

    Requires the fiber restriction irreducible and a simple unit eigenvalue
    of the action on H^1(F).  For genus-one knots carrying a trace-coordinate
    map, the report also carries the eigenvalues of the exact trace-map
    Jacobian at the representation's character as an independent cross-check.
    """
    tol = tol or rep.tol
    act = monodromy_action(fk, rep, tol)
    lams = eigenvalues_excluding_one(act.quotient, tol.unit_eigenvalue)
    eps0 = epsilon0(fk)
    value, gap = _product_from_eigenvalues(eps0, lams, tol.unit_eigenvalue)
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


def trace_jacobian(trace_map, point):
    """Exact Jacobian of a trace-coordinate map at a character point."""
    return trace_map.jacobian(point)


def jacobian_torsion(fk, point, tol=DEFAULT_TOL):
    """Torsion at a genus-one character point via the trace-map Jacobian only."""
    if fk.trace_map is None:
        raise InvalidInputError("knot %r carries no trace-coordinate map" % fk.name)
    jac = fk.trace_map.jacobian(point)
    lams = eigenvalues_excluding_one(jac, tol.unit_eigenvalue)
    eps0 = epsilon0(fk)
    value, gap = _product_from_eigenvalues(eps0, lams, tol.unit_eigenvalue)
    return TorsionReport(
        torsion=value, epsilon0=eps0, eigenvalues=lams,
        unit_eigenvalue_gap=gap, method="jacobian", knot=fk.name,
        character=tuple(map(complex, point)))


# -- Wang sequence ------------------------------------------------------------


def _unit_last_basis(mq, tol_unit):
    """Basis in which the monodromy action on H^1 is upper triangular with
    the unit eigenvector as the last basis vector (so the matrix's last
    column is e_last)."""
    n = mq.shape[0]
    evs, vecs = np.linalg.eig(mq)
    near = [k for k in range(n) if abs(evs[k] - 1.0) < tol_unit]
    if not near:
        raise NoUnitEigenvalueError("no unit eigenvalue for the Wang basis")
    if len(near) > 1:
        raise NonSimpleUnitEigenvalueError("unit eigenvalue is not simple")
    u = vecs[:, near[0]]
    u = u / np.linalg.norm(u)
    # invariant subspace of the non-unit spectrum, from a sorted Schur form
    tt, zz, sdim = scipy.linalg.schur(
        mq, output="complex", sort=lambda z: abs(z - 1.0) > tol_unit)
    if sdim != n - 1:
        raise NonSimpleUnitEigenvalueError(
            "Schur sorting found %d non-unit eigenvalues, expected %d"
            % (sdim, n - 1))
    basis = np.column_stack([zz[:, :n - 1], u])
    return basis


def wang_complex(fk, rep, tol=None):
    """The based acyclic Wang complex

        0 -> H^1(M) -> H^1(F) -> H^1(F) -> H^2(M) -> 0

    with the upper-triangularizing basis (unit eigenvector last) on both
    H^1(F) slots, H^1(M) based so its image is that last basis vector, and
    H^2(M) based by the image of the last basis vector under the connecting
    map.  Returns (complex, action, basis)."""
    tol = tol or rep.tol
    act = monodromy_action(fk, rep, tol)
    basis = _unit_last_basis(act.quotient, tol.unit_eigenvalue)
    mq_tri = np.linalg.solve(basis, act.quotient @ basis)
    n = mq_tri.shape[0]
    last = np.zeros((n, 1), dtype=complex)
    last[n - 1, 0] = 1.0
    cochain = BasedChainComplex(
        [1, n, n, 1],
        [last, np.eye(n, dtype=complex) - mq_tri, last.T.copy()],
        direction="cochain",
        tol=tol,
    )
    return cochain, act, basis


def wang_sequence_torsion(fk, rep, tol=None):
    """Torsion of the Wang complex; equals prod_i (1 - lambda_i).

    Together with the main formula this gives
    wang_sequence_torsion * main_theorem_torsion = -eps0.
    """
    cochain, _, _ = wang_complex(fk, rep, tol)
    return torsion(cochain, tol or rep.tol)


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


def wang_exact_sequence(fk, rep, tol=None):
    """The degreewise short exact sequence realizing the Wang setup on the
    finite presentation complex: the meridian direction plus the 2-cells as
    a subcomplex, the fiber complex as the quotient.

    Returns (sub, total, quot, incl, proj), ready for multiplicativity_check.
    """
    tol = tol or rep.tol
    pres = fk.presentation()
    total = twisted_cochain_complex(pres, rep, tol)
    incl, proj = _meridian_block_embedding(fk)
    n = 2 * fk.genus
    d1 = total.boundaries[1]
    sub = BasedChainComplex(
        [0, 3, 3 * n],
        [np.zeros((3, 0), dtype=complex), d1[:, 3 * n:]],
        direction="cochain", tol=tol)
    quot = BasedChainComplex(
        [3, 3 * n, 0],
        [total.boundaries[0][:3 * n, :], np.zeros((0, 3 * n), dtype=complex)],
        direction="cochain", tol=tol)
    return sub, total, quot, incl, proj


def wang_product_check(fk, rep, tol=None):
    """Tor(presentation complex; h1, h2) * Tor(Wang complex) with consistent
    reference bases; equals -1 for boundary-regular representations.

    h1 is the generator of H^1 normalized so its fiber restriction is the
    unit eigenvector closing the Wang complex; h2 is the image of that
    eigenvector under the connecting map of the mapping-cone sequence.
    """
    tol = tol or rep.tol
    wang, act, basis = wang_complex(fk, rep, tol)
    pres = fk.presentation()
    total = twisted_cochain_complex(pres, rep, tol)
    hdata = homology(total, tol)
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
    adTi = adjoint(sl2_inverse(act.meridian_image))
    blocks = np.kron(np.eye(n), adTi)
    h2 = -(blocks @ unit_cocycle)
    based = BasedChainComplex(
        total.dims, total.boundaries, direction="cochain",
        homology_bases=[None, h1[:, None], h2[:, None]], tol=tol)
    return sign_determined_torsion(based, tol) * torsion(wang, tol)


# -- trace-coordinate machinery (genus one) -----------------------------------


_X123 = sympy.symbols("x1 x2 x3")


class TraceCoordMap:
    """The monodromy action on genus-one trace coordinates
    (x1, x2, x3) = (I_a, I_b, I_ab): three integer polynomials."""

    def __init__(self, polynomials):
        self.polynomials = tuple(
            sympy.sympify(p, locals={"x1": _X123[0], "x2": _X123[1], "x3": _X123[2]})
            for p in polynomials)
        if len(self.polynomials) != 3:
            raise InvalidInputError("a trace map has three polynomials")
        self._jac = sympy.Matrix([[sympy.diff(p, v) for v in _X123]
                                  for p in self.polynomials])
        self._fns = [sympy.lambdify(_X123, p, "numpy") for p in self.polynomials]
        self._jac_fn = sympy.lambdify(_X123, self._jac, "numpy")

    def __call__(self, point):
        return tuple(complex(f(*point)) for f in self._fns)

    def jacobian(self, point):
        """Exact polynomial Jacobian (dP_i/dx_j), evaluated at the point."""
        return np.asarray(self._jac_fn(*point), dtype=complex)

    def fixed_locus_relations(self):
        """Polynomial relations cutting out the fixed locus P(x) = x,
        as a reduced Groebner basis."""
        eqs = [sympy.expand(p - v) for p, v in zip(self.polynomials, _X123)]
        eqs = [e for e in eqs if e != 0]
        if not eqs:
            return []
        gb = sympy.groebner(eqs, *_X123, order="lex")
        return list(gb.exprs)

    def boundary_trace_polynomial(self):
        """I_gamma = tr of the commutator as a polynomial in (x1, x2, x3)."""
        x1, x2, x3 = _X123
        return sympy.expand(-2 - x1 * x2 * x3 + x1 ** 2 + x2 ** 2 + x3 ** 2)

    def preserves_boundary_trace(self):
        """Whether I_gamma o P = I_gamma identically (exact polynomial check)."""
        kappa = self.boundary_trace_polynomial()
        sub = kappa.xreplace(dict(zip(_X123, self.polynomials)))
        return sympy.expand(sub - kappa) == 0


class FixedLocus:
    """Fixed points of the trace map: defining relations plus a sampler."""

    def __init__(self, fk, relations, sampler):
        self.knot = fk.name
        self.relations = relations
        self._sampler = sampler

    def sample(self, count, rng=None, kind="complex"):
        """`count` character points on the locus.

        kind 'su2' draws from the real range where the character is realized
        by an SU(2) pair; 'real' from the real irreducible range; 'complex'
        from a generic complex parametrization.
        """
        rng = rng or np.random.default_rng(0)
        return self._sampler(count, rng, kind)

    def __repr__(self):
        return "FixedLocus(%s: %s)" % (self.knot, ", ".join(
            "%s = 0" % r for r in map(str, self.relations)))


def fixed_point_characters(fk):
    """Fixed locus of the monodromy on genus-one trace coordinates.

    The defining relations come from the exact fixed-point system
    P(x) = x; the sampler avoids the reducible points (commutator trace 2).
    """
    if fk.trace_map is None:
        raise InvalidInputError("knot %r carries no trace-coordinate map" % fk.name)
    relations = fk.trace_map.fixed_locus_relations()
    sampler = _generic_locus_sampler(fk)
    return FixedLocus(fk, relations, sampler)


def _irreducible(point, margin=1e-6):
    return abs(commutator_trace(*point) - 2.0) > margin


def _generic_locus_sampler(fk):
    name = fk.name
    if name == "trefoil":
        def sample(count, rng, kind):
            pts = []
            while len(pts) < count:
                if kind == "su2" or kind == "real":
                    # irreducible SU(2) range of the diagonal locus
                    x = complex(rng.uniform(-0.98, 1.98))
                else:
                    x = complex(rng.uniform(-2.5, 2.5), rng.uniform(-1.5, 1.5))
                p = (x, x, x)
                if _irreducible(p):
                    pts.append(p)
            return pts
        return sample
    if name == "figure_eight":
        def sample(count, rng, kind):
            pts = []
            while len(pts) < count:
                if kind == "su2":
                    u = complex(rng.uniform(-1.9, 0.6))
                elif kind == "real":
                    u = complex(rng.uniform(-2.5, 0.9))
                else:
                    u = complex(rng.uniform(-2.5, 2.5), rng.uniform(-1.5, 1.5))
                if abs(u - 1.0) < 1e-3:
                    continue
                p = (u, u / (u - 1.0), u)
                if not _irreducible(p):
                    continue
                if kind == "su2":
                    try:
                        su2_pair(p[0].real, p[1].real, p[2].real)
                    except ValueError:
                        continue
                pts.append(p)
            return pts
        return sample

    # generic genus-one knot: solve the fixed-point system with x1 as parameter
    def sample(count, rng, kind):
        tm = fk.trace_map
        x1s, x2s, x3s = _X123
        pts = []
        attempts = 0
        while len(pts) < count and attempts < 60 * count:
            attempts += 1
            if kind in ("su2", "real"):
                val = sympy.Rational(rng.integers(-200, 200), 101)
            else:
                val = (sympy.Rational(rng.integers(-200, 200), 101)
                       + sympy.I * sympy.Rational(rng.integers(-150, 150), 101))
            eqs = [sympy.expand((p - v).subs(x1s, val))
                   for p, v in zip(tm.polynomials, _X123)]
            try:
                sols = sympy.solve(eqs, [x2s, x3s], dict=True)
            except Exception:
                continue
            for sol in sols:
                p = (complex(val), complex(sol.get(x2s, 0)), complex(sol.get(x3s, 0)))
                if _irreducible(p):
                    pts.append(p)
                    break
        if len(pts) < count:
            raise NotFixedPointError(
                "could not sample %d fixed-locus points for %r" % (count, fk.name))
        return pts
    return sample


# -- lifting characters to representations ------------------------------------


def _normal_form_pair(x1, x2, x3):
    """Irreducible pair with given trace coordinates: A upper triangular with
    unit off-diagonal entry, B lower triangular (principal square roots)."""
    al = (x1 + cmath.sqrt(x1 * x1 - 4.0)) / 2.0
    be = (x2 + cmath.sqrt(x2 * x2 - 4.0)) / 2.0
    r = x3 - al * be - 1.0 / (al * be)
    A = np.array([[al, 1.0], [0.0, 1.0 / al]], dtype=complex)
    B = np.array([[be, 0.0], [r, 1.0 / be]], dtype=complex)
    return A, B


def lift_character_to_rep(fk, point, flavor=SL2C, meridian_sign=1, tol=None):
    """Representation of the knot group over a fixed-locus character point.

    The fiber generators get matrices with the prescribed traces (SL2C
    normal form, or an honest SU(2) pair for flavor SU2); the meridian image
    is the intertwiner T with T rho(phi(x)) = rho(x) T, normalized to
    determinant one by the principal square root.  `meridian_sign` selects
    between the two lifts T and -T, which differ by the center and carry the
    same torsion.
    """
    tol = tol or DEFAULT_TOL
    if fk.genus != 1:
        raise InvalidInputError("character lifting is implemented for genus one")
    x1, x2, x3 = (complex(point[0]), complex(point[1]), complex(point[2]))
    kappa = commutator_trace(x1, x2, x3)
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

    fiber_pres = fk.fiber_presentation()
    fiber_rep = Representation(fiber_pres, [A, B], flavor=flavor, tol=tol,
                               check=False)
    words = fk.monodromy_words()
    eye = np.eye(2)
    rows = []
    for w, target in zip(words, [A, B]):
        X = fiber_rep.evaluate_word(w)
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
    if meridian_sign == -1:
        T = -T
    images = {fk.fiber_generators[0]: A, fk.fiber_generators[1]: B,
              fk.meridian: T}
    return Representation(fk.presentation(), images, flavor=flavor, tol=tol)


def random_conjugate(rep, rng, su2=False):
    """Conjugate by a random group element (SU(2) when asked)."""
    if su2:
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
