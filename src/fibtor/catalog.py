"""Built-in knots.

Two genus-one fibered knots run the full pipeline (cohomology plus the
trace-coordinate Jacobian cross-check):

  trefoil       monodromy a -> a b^-1 a^-1, b -> a b;   trace map (x2, x3, x1)
  figure_eight  monodromy a -> a b, b -> b a b;         trace map
                (x3, x2 x3 - x1, x2 x3^2 - x1 x3 - x2)

The trace maps are derived from the monodromy words; each knot keeps only
its locus chart (`LocusChart`).

Torus knots are served by the closed-form value only (their fibered
presentations have genus (p-1)(q-1)/2 and are out of catalog scope beyond
the trefoil = torus(2, 3)).
"""

import collections
import math

import numpy as np

from .errors import InvalidInputError
from .fibered import FiberedKnot, TraceCoordMap, lift_character_to_rep, torus_closed_form
from .linalg import RANK_TOL
from .rep import SL2C, Representation, sl2_inverse

# A knot's chart of its fixed locus: the sweep grid coordinate, its map to
# characters (x1, x2, x3), the value it misses, per sampling kind the uniform
# ranges of real and imaginary parts, and the holonomy fiber character.
LocusChart = collections.namedtuple(
    "LocusChart", "coordinate point ranges pole holonomy", defaults=(None, None))

# The discrete faithful representation of the figure-eight knot restricts on
# the fiber to the character (x1, x2, x3) = ((3 + i sqrt 3)/2, (3 - i sqrt 3)/2,
# (3 + i sqrt 3)/2): the unique fixed-locus point (up to complex conjugation)
# where the meridian intertwiner is parabolic.  The two lifts differ by the
# sign of the meridian image, which is normalized here to [[1, 1], [0, 1]]
# and [[-1, 1], [0, -1]] respectively.

HOLONOMY_FIBER_CHARACTER = (
    complex(1.5, 0.5 * math.sqrt(3.0)),
    complex(1.5, -0.5 * math.sqrt(3.0)),
    complex(1.5, 0.5 * math.sqrt(3.0)),
)

_COMPLEX = ((-2.5, 2.5), (-1.5, 1.5))


def _genus_one_knot(name, monodromy, chart):
    fk = FiberedKnot(name, 1, ["a", "b"], monodromy)
    fk.trace_map, fk.locus_chart = TraceCoordMap.from_monodromy(fk), chart
    return fk


def trefoil():
    # the diagonal locus (x, x, x), real samples from its irreducible SU(2) range
    return _genus_one_knot("trefoil", {"a": "a B A", "b": "a b"}, LocusChart(
        "x", lambda x: (x, x, x),
        {"su2": ((-0.98, 1.98),), "real": ((-0.98, 1.98),), "complex": _COMPLEX}))


def figure_eight():
    # the locus x3 = x1, x1 + x2 = x1 x2, through u = x1
    return _genus_one_knot("figure_eight", {"a": "a b", "b": "b a b"}, LocusChart(
        "u", lambda u: (u, u / (u - 1.0), u),
        {"su2": ((-1.9, 0.6),), "real": ((-2.5, 0.9),), "complex": _COMPLEX},
        pole=1.0, holonomy=HOLONOMY_FIBER_CHARACTER))


class TorusKnotEntry:
    """Closed-form-only catalog entry for the (p, q) torus knot."""

    def __init__(self, p=None, q=None):
        self.name = "torus" if p is None else "torus(%d,%d)" % (p, q)
        self.p = p
        self.q = q
        self.genus = None if p is None else (p - 1) * (q - 1) // 2

    def value(self, a, b):
        if self.p is None:
            raise InvalidInputError("torus entry needs (p, q); use torus(p,q)")
        return torus_closed_form(self.p, self.q, a, b)


class CatalogEntry:
    def __init__(self, name, knot=None, torus=None):
        self.name = name
        self.knot = knot
        self.torus = torus

    @property
    def genus(self):
        return self.knot.genus if self.knot is not None else self.torus.genus

    @property
    def methods(self):
        if self.torus is not None:
            return ["closed_form"]
        out = ["cohomology"]
        if self.knot.trace_map is not None:
            out.append("jacobian")
        return out


def catalog():
    """All built-in entries."""
    return [
        CatalogEntry("trefoil", knot=trefoil()),
        CatalogEntry("figure_eight", knot=figure_eight()),
        CatalogEntry("torus", torus=TorusKnotEntry()),
    ]


def get_entry(name):
    name = name.strip()
    if name.startswith("torus(") and name.endswith(")"):
        try:
            p, q = (int(v) for v in name[len("torus("):-1].split(","))
        except ValueError as exc:
            raise InvalidInputError("bad torus knot spec %r" % name) from exc
        return CatalogEntry(name, torus=TorusKnotEntry(p, q))
    for entry in catalog():
        if entry.name == name:
            return entry
    raise InvalidInputError("unknown knot %r (try: %s)" % (
        name, ", ".join(e.name for e in catalog())))


def holonomy_representation(sign=1, tol=RANK_TOL):
    """A lift of the figure-eight holonomy in the fibered presentation.

    The meridian image is [[1, 1], [0, 1]] for sign +1 and [[-1, 1], [0, -1]]
    for sign -1 (the two lifts of the same PSL2(C) representation).  The
    longitude, i.e. the fiber boundary [a, b], evaluates to
    [[-1, -2i sqrt 3], [0, -1]]: trace -2.  `tol` is the representation's
    rank cutoff.
    """
    fk = figure_eight()
    rep = lift_character_to_rep(fk, fk.locus_chart.holonomy, flavor=SL2C, tol=tol)
    T = rep.image(fk.meridian)
    # move the fixed line of the parabolic T to the first coordinate axis
    N = T - np.eye(2)
    _, _, vh = np.linalg.svd(N)
    u = vh[-1].conj()
    w, *_ = np.linalg.lstsq(N, u, rcond=None)
    P = np.column_stack([u, w])
    P = P / np.sqrt(np.linalg.det(P))
    rep = rep.conjugate(sl2_inverse(P))
    # scale the off-diagonal entry to exactly 1 with diag(s, 1/s)
    c = rep.image(fk.meridian)[0, 1]
    s = c ** (-0.5)
    rep = rep.conjugate(np.diag([s, 1.0 / s]))
    if sign == -1:
        images = {g: rep.image(g) for g in fk.fiber_generators}
        images[fk.meridian] = -rep.image(fk.meridian)
        # conjugate by diag(i, -i) to flip the off-diagonal sign back to +1
        rep = Representation(fk.presentation(), images, flavor=SL2C,
                             tol=rep.tol).conjugate(np.diag([1j, -1j]))
    return fk, rep
