"""Reidemeister torsion of finite based (and homology based) chain complexes.

A complex C_* over R or C with reference bases c^i for the chain groups and
h^i for the homology carries the torsion

    tor(C_*) = prod_i [ d_{i+1}(b^{i+1})  h~^i  b^i / c^i ] ^ ((-1)^(i+1)),

where b^i is any family in C_i whose image under d_i is a basis of the
boundary space B_{i-1}, and h~^i is any lift of h^i into the cycle space
Z_i.  The value does not depend on the choices of b^i and h~^i (Milnor).
`homologies` is the one place where complexes are decomposed: one numpy SVD
per differential d_i decides its rank under the `linalg` rank rule and gives
the cycles Z_i (trailing right singular vectors), the boundaries B_{i-1}
(leading left singular vectors) and b^i (leading right singular vectors).
A complex is decomposed once, on first use, and keeps that decomposition,
its supplied homology bases validated: `torsion`, `sign_determined_torsion`
and `multiplicativity_check` all read it, and a cochain complex builds its
chain form once.

Each entry point works on a list of complexes (or of short exact sequences)
and batches its numpy calls by matrix shape across the list (`by_shape`);
`homology`, `torsion` and `multiplicativity_check` are its stacks of one.
numpy's linalg routines run a stack matrix by matrix, so a complex gets the
same bits alone or in a stack.
The sign-determined refinement multiplies by (-1)^{|C_*|} with

    |C_*| = sum_k alpha_k beta_k,
    alpha_k = sum_{j<=k} dim C_j  (mod 2),   beta_k = sum_{j<=k} dim H_j (mod 2).

Complexes may be stored homologically (differential lowers degree) or
cohomologically (differential raises degree); they are normalized to the
homological convention, reversing at the complex's own top degree, before
any torsion or sign bookkeeping happens.
"""

import numpy as np
from numpy.linalg import _umath_linalg

from .linalg import RANK_TOL, _rank


class ChainComplexError(ValueError):
    """Malformed complex: shape mismatch, d.d != 0, bad homology basis."""


class BasedChainComplex:
    """Finite chain or cochain complex over C with optional homology bases.

    dims[i] is the dimension of the degree-i term.  For direction 'chain'
    the differentials map degree i+1 -> i and ``boundaries[i]`` has shape
    (dims[i], dims[i+1]); for 'cochain' they map i -> i+1 and
    ``boundaries[i]`` has shape (dims[i+1], dims[i]).  The composite of
    consecutive differentials must vanish within tolerance.

    homology_bases, when given, has one entry per degree: a matrix whose
    columns are cycle representatives forming a basis of the homology in
    that degree, or None in a degree of trivial homology.
    tol is the rank cutoff of every rank decision made on the complex.
    """

    def __init__(self, dims, boundaries, direction="chain", homology_bases=None,
                 tol=RANK_TOL):
        if direction not in ("chain", "cochain"):
            raise ChainComplexError("direction must be 'chain' or 'cochain'")
        self.dims = [int(d) for d in dims]
        if any(d < 0 for d in self.dims):
            raise ChainComplexError("negative dimension")
        n = len(self.dims) - 1
        boundaries = list(boundaries)
        if len(boundaries) != max(n, 0):
            raise ChainComplexError(
                "expected %d boundary maps, got %d" % (max(n, 0), len(boundaries)))
        self.boundaries = []
        for i, d in enumerate(boundaries):
            d = np.asarray(d, dtype=complex)
            want = ((self.dims[i], self.dims[i + 1]) if direction == "chain"
                    else (self.dims[i + 1], self.dims[i]))
            if d.shape != want:
                raise ChainComplexError(
                    "boundary %d has shape %r, expected %r" % (i, d.shape, want))
            self.boundaries.append(d)
        self.direction = direction
        self.tol = tol
        self.homology_bases = None
        if homology_bases is not None:
            if len(homology_bases) != len(self.dims):
                raise ChainComplexError("expected %d homology bases, got %d"
                                        % (len(self.dims), len(homology_bases)))
            self.homology_bases = [None if h is None else np.asarray(h, dtype=complex)
                                   for h in homology_bases]
            for i, h in enumerate(self.homology_bases):
                if h is not None and h.shape[0] != self.dims[i]:
                    raise ChainComplexError("homology basis %d has wrong ambient dim" % i)
        self._check_dd()
        # the chain form and the decomposition, each made on first use
        self._chain = self._hdata = None

    # -- construction helpers -------------------------------------------------

    def _check_dd(self):
        for i in range(len(self.boundaries) - 1):
            if self.direction == "chain":
                comp = self.boundaries[i] @ self.boundaries[i + 1]
            else:
                comp = self.boundaries[i + 1] @ self.boundaries[i]
            if comp.size and _exceeds(np.linalg.norm(comp), 1e-8, lambda: np.linalg.norm(
                    self.boundaries[i]) * np.linalg.norm(self.boundaries[i + 1])):
                raise ChainComplexError("d o d != 0 at degree %d" % i)

    @property
    def top_degree(self):
        return len(self.dims) - 1

    def differential_out(self, i):
        """The differential leaving degree i (zero map at the end)."""
        n = self.top_degree
        if self.direction == "chain":
            if i == 0:
                return np.zeros((0, self.dims[0]), dtype=complex)
            return self.boundaries[i - 1]
        if i == n:
            return np.zeros((0, self.dims[n]), dtype=complex)
        return self.boundaries[i]

    def to_chain(self):
        """The same complex in the homological convention (degree-reversed),
        built on first use."""
        if self.direction == "chain":
            return self
        if self._chain is None:
            hb = None if self.homology_bases is None else self.homology_bases[::-1]
            self._chain = BasedChainComplex(self.dims[::-1], self.boundaries[::-1],
                                            homology_bases=hb, tol=self.tol)
        return self._chain




class HomologyData:
    """Per-degree cycle/boundary/homology bases of a complex (own indexing).

    cycles[i], boundaries[i]: orthonormal column bases of Z_i and B_i.
    lifts[i]: orthonormal columns b^i that the differential leaving degree i
    maps onto a basis of the boundaries of its target degree.
    homology[i]: columns are cycle representatives spanning a complement of
    B_i inside Z_i; they serve both as a homology basis and as the lift of
    that basis back into the cycle space.
    """

    def __init__(self, cycles, boundaries, homology, lifts):
        self.cycles = cycles
        self.boundaries = boundaries
        self.homology = homology
        self.lifts = lifts
        self.dims = [h.shape[1] for h in homology]


# -- stacks ------------------------------------------------------------------


def by_shape(fn, *columns):
    """`fn` over the rows of `columns` (equal-length lists of arrays), one
    call per distinct tuple of row shapes: a group is passed stacked along a
    new first axis, a group of one as a view, not a copy.  Returns per row
    its slice of fn's output, or a tuple of slices when fn returns a tuple.
    numpy's linalg routines run a stack matrix by matrix, so each row gets
    the bits of a call on its matrices alone."""
    rows = list(zip(*columns))
    keys = ([a.shape for a in columns[0]] if len(columns) == 1
            else [tuple([a.shape for a in row]) for row in rows])
    groups = {}
    for k, key in enumerate(keys):
        groups.setdefault(key, []).append(k)
    out = [None] * len(rows)
    for ks in groups.values():
        if len(ks) == 1:
            res = fn(*[a[None] for a in rows[ks[0]]])
        else:
            res = fn(*[np.array(col) for col in zip(*[rows[k] for k in ks])])
        for k, row in zip(ks, zip(*res) if isinstance(res, tuple) else res):
            out[k] = row
    return out


def _exceeds(value, bound, size):
    """value > bound * max(1, size()), calling `size` only when value
    exceeds the bare bound: the decision of the scaled test, with no norm
    taken where it cannot matter."""
    return value > bound and value > bound * max(1.0, size())


# numpy's LAPACK gufuncs, called as np.linalg calls them on complex input:
# the same routines in the same order, so the same bits.  np.linalg's checks
# cost more than the LAPACK work on a matrix of a few entries, and
# np.linalg.lstsq takes no stacks.  The names are numpy 2's.


def _raising(message):
    """The error state np.linalg runs a gufunc under: a LAPACK failure
    raises LinAlgError(message)."""
    def fail(err, flag):
        raise np.linalg.LinAlgError(message)
    return np.errstate(call=fail, invalid="call", over="ignore", divide="ignore",
                       under="ignore")


def _svd(a):
    """np.linalg.svd(a): full U, S and V^H."""
    with _raising("SVD did not converge"):
        return _umath_linalg.svd_f(a, signature="D->DdD")


def _singular_values(a):
    """np.linalg.svd(a, compute_uv=False)."""
    with _raising("SVD did not converge"):
        return _umath_linalg.svd(a, signature="D->d")


def _det(a):
    """np.linalg.det(a)."""
    return _umath_linalg.det(a, signature="D->D")


def _one(results):
    """The result of a stack of one, raising the error that refused it."""
    (result,) = results
    if _failed(result):
        raise result
    return result


def _failed(result):
    return isinstance(result, Exception)


# -- decomposition -------------------------------------------------------------


def homologies(cxs):
    """Cycle, boundary, lift and homology bases of every complex in `cxs`,
    degree by degree: per complex its HomologyData or the ChainComplexError
    that refused it.

    One SVD d = U S V^H of rank r per differential gives the cycles of its
    source degree (V's trailing columns), the lifts b^i there (V's leading
    r columns) and the boundaries of its target degree (U's leading r
    columns).  Homology bases are the orthogonal complements of B_i inside
    Z_i, the leading left singular vectors of Z_i with B_i projected out;
    the dimension satisfies dim H_i = dim Z_i - dim B_i.  The differentials
    of all the complexes run as one SVD per shape, and so do the
    complements.  Every rank is decided under its complex's cutoff `tol`.
    """
    svds = iter(by_shape(_svd, [d for cx in cxs for d in cx.boundaries if d.size]))
    made = []
    for cx in cxs:
        cycles = [None] * len(cx.dims)
        bnds = [np.zeros((m, 0), dtype=complex) for m in cx.dims]
        lifts = list(bnds)
        for k, d in enumerate(cx.boundaries):
            src, tgt = (k + 1, k) if cx.direction == "chain" else (k, k + 1)
            if d.size:
                u, s, vh = next(svds)
                r = _rank(s, cx.tol)
                cycles[src] = vh[r:].conj().T
                lifts[src] = vh[:r].conj().T
                bnds[tgt] = u[:, :r]
        # a degree no nonempty differential leaves is all cycles
        cycles = [np.eye(m, dtype=complex) if Z is None else Z
                  for m, Z in zip(cx.dims, cycles)]
        spans = []
        for i, (Z, Bm) in enumerate(zip(cycles, bnds)):
            # B must sit inside Z (d o d = 0 is validated at construction)
            if Bm.shape[1] > Z.shape[1]:
                spans = ChainComplexError(
                    "boundary space exceeds cycle space at degree %d" % i)
                break
            spans.append(Z - Bm @ (Bm.conj().T @ Z) if Bm.shape[1] else Z)
        made.append((cx, cycles, bnds, lifts, spans))
    svds = iter(by_shape(_svd, [W for *_, spans in made if not _failed(spans)
                                for W in spans if W.size]))
    out = []
    for cx, cycles, bnds, lifts, spans in made:
        if _failed(spans):
            out.append(spans)
            continue
        hom = []
        for W in spans:
            if W.size:
                u, s, _ = next(svds)
                hom.append(u[:, :_rank(s, cx.tol)])
            else:
                hom.append(np.zeros((W.shape[0], 0), dtype=complex))
        out.append(HomologyData(cycles, bnds, hom, lifts))
    return out


def homology(cx):
    """`homologies` of one complex, raising the error that refuses it."""
    return _one(homologies([cx]))


def _resolved(cxs, hdatas):
    """Each complex's `homologies` entry in the homology bases torsion uses:
    the supplied ones, validated, or the computed ones where a missing entry
    is trivial.  The rank tests of the supplied bases run as one SVD per
    shape; per complex, its HomologyData or the ChainComplexError that
    refused it."""
    checked, tests = [], []
    for cx, hdata in zip(cxs, hdatas):
        if _failed(hdata):
            checked.append((hdata, None, [], None))
            continue
        bases, ranked, error = [], [], None
        for i in range(len(cx.dims)):
            want = hdata.dims[i]
            supplied = None if cx.homology_bases is None else cx.homology_bases[i]
            if want == 0:
                if supplied is not None and supplied.shape[1] != 0:
                    error = ChainComplexError(
                        "degree %d is acyclic but a homology basis was supplied" % i)
                    break
                bases.append(np.zeros((cx.dims[i], 0), dtype=complex))
                continue
            if supplied is None:
                error = ChainComplexError(
                    "degree %d has homology of dimension %d but no reference basis"
                    % (i, want))
                break
            if supplied.shape[1] != want:
                error = ChainComplexError(
                    "homology basis at degree %d has %d vectors, expected %d"
                    % (i, supplied.shape[1], want))
                break
            # representatives must be cycles, inside the computed cycle space ...
            dout = cx.differential_out(i)
            if dout.size and _exceeds(np.linalg.norm(dout @ supplied), 1e-6,
                                      lambda: np.linalg.norm(supplied)):
                error = ChainComplexError(
                    "supplied basis at degree %d is not made of cycles" % i)
                break
            Z = hdata.cycles[i]
            if _exceeds(np.linalg.norm(supplied - Z @ (Z.conj().T @ supplied)), 1e-6,
                        lambda: np.linalg.norm(supplied)):
                error = ChainComplexError(
                    "supplied basis at degree %d lies off the cycle space" % i)
                break
            # ... and project to an independent family in homology: the
            # computed homology basis is orthonormal and orthogonal to the
            # boundaries
            ranked.append((i, want))
            tests.append(hdata.homology[i].conj().T @ supplied)
            bases.append(supplied)
        checked.append((hdata, bases, ranked, error))
    svals = iter(by_shape(_singular_values, tests))
    out = []
    for cx, (hdata, bases, ranked, error) in zip(cxs, checked):
        # a degree's rank test comes before any failure of a later degree
        short = [i for i, want in ranked if _rank(next(svals), cx.tol) < want]
        if short:
            error = ChainComplexError(
                "supplied vectors at degree %d do not span the homology" % short[0])
        if _failed(hdata) or error:
            out.append(error or hdata)
        else:
            out.append(HomologyData(hdata.cycles, hdata.boundaries, bases, hdata.lifts))
    return out


def _decompositions(cxs):
    """Per complex: its chain form and the HomologyData in the homology
    bases torsion uses, or the ChainComplexError that refused it.  A chain
    form keeps its decomposition; the ones not made yet are made together,
    by one `homologies` call and one `_resolved` pass."""
    chains = [cx.to_chain() for cx in cxs]
    fresh = list({id(c): c for c in chains if c._hdata is None}.values())
    errors = {}
    for c, made in zip(fresh, _resolved(fresh, homologies(fresh)) if fresh else ()):
        if _failed(made):
            errors[id(c)] = made
        else:
            c._hdata = made
    return [errors.get(id(c)) or (c, c._hdata) for c in chains]


# -- torsion -------------------------------------------------------------------


def _lift_systems(c, hdata, rng=None):
    """The square matrices [d(b^{i+1}) h~^i b^i] of the chain complex `c`
    from its decomposition `hdata`, in the homology bases `hdata.homology`:
    (degree, matrix) per degree of positive dimension.  A degree whose
    columns do not fill its dimension ends the list, with its
    ChainComplexError in place of the matrix.  A numpy Generator `rng`
    re-randomizes the families b^i and the lifts h~^i."""
    n = c.top_degree
    bfam = list(hdata.lifts)
    if rng is not None:
        for i in range(1, n + 1):
            r = bfam[i].shape[1]
            if not r:
                continue
            bfam[i] = bfam[i] @ random_invertible(rng, r)
            K = hdata.cycles[i]
            if K.shape[1]:
                bfam[i] = bfam[i] + K @ (rng.standard_normal((K.shape[1], r))
                                         + 1j * rng.standard_normal((K.shape[1], r)))
    systems = []
    for i in range(n + 1):
        m = c.dims[i]
        if m == 0:
            continue
        h = hdata.homology[i]
        Bm = hdata.boundaries[i]
        if rng is not None and h.shape[1] and Bm.shape[1]:
            h = h + Bm @ (rng.standard_normal((Bm.shape[1], h.shape[1]))
                          + 1j * rng.standard_normal((Bm.shape[1], h.shape[1])))
        cols = [h, bfam[i]]
        if i < n:
            cols.insert(0, c.boundaries[i] @ bfam[i + 1])
        M = np.concatenate(cols, axis=1)
        if M.shape != (m, m):
            systems.append((i, ChainComplexError(
                "degenerate decomposition at degree %d: %r columns for dim %d"
                % (i, M.shape[1], m))))
            break
        systems.append((i, M))
    return systems


def _torsions(items):
    """tor of each (chain complex, lift systems) pair in `items`, with one
    det per system size: per pair its value or the ChainComplexError that
    refused it, the first failing degree's."""
    dets = iter(by_shape(_det, [M for _, systems in items
                                         for _, M in systems if not _failed(M)]))
    out = []
    for c, systems in items:
        value = 1.0 + 0j
        for i, det in [(i, M if _failed(M) else next(dets)) for i, M in systems]:
            if _failed(det):
                value = det
            elif abs(det) <= c.tol:
                value = ChainComplexError("degenerate lift system at degree %d" % i)
            else:
                value *= det ** ((-1) ** (i + 1))
                continue
            break
        out.append(value if _failed(value) else complex(value))
    return out


def torsions(cxs):
    """Reidemeister torsion of every based, homology based complex in `cxs`:
    per complex its value or the ChainComplexError that refused it.  The
    complexes are decomposed together (`homologies`) and their lift systems
    run as one det per size."""
    decs = _decompositions(cxs)
    values = iter(_torsions([(c, _lift_systems(c, h)) for c, h in
                             (d for d in decs if not _failed(d))]))
    return [d if _failed(d) else next(values) for d in decs]


def torsion(cx, rng=None):
    """Reidemeister torsion of a based, homology based complex: `torsions`
    of one complex, raising the error that refuses it.

    The internal choices (the families b^i and the homology lifts) are
    deterministic by default; passing a numpy Generator as `rng`
    re-randomizes them, which must not change the value -- torsion is
    independent of these choices.
    """
    if rng is None:
        return _one(torsions([cx]))
    c, hdata = _one(_decompositions([cx]))
    return _one(_torsions([(c, _lift_systems(c, hdata, rng))]))


def random_invertible(rng, n):
    """A random well-conditioned invertible n x n matrix: a random unitary
    times a diagonal scaling near 1."""
    draw = draw_invertible(rng, n)
    return np.eye(0, dtype=complex) if draw is None else _scaled_unitaries(*draw)


def draw_invertible(rng, n):
    """The random numbers of `random_invertible(rng, n)`, drawn in its
    order, for `invertibles_from` to build the matrix from."""
    if n == 0:
        return None
    return rng.standard_normal((n, n)), rng.standard_normal((n, n)), rng.standard_normal(n)


def _scaled_unitaries(real, imag, scale):
    """The matrices of `random_invertible` from its draw, or from a stack
    of draws: the Q factor of np.linalg.qr, columns scaled, without the R
    factor np.linalg.qr also forms."""
    z = real + 1j * imag
    with _raising("Incorrect argument found while performing QR factorization"):
        tau = _umath_linalg.qr_r_raw(z, signature="D->D")  # factors z in place
        q = _umath_linalg.qr_reduced(z, tau, signature="DD->D")
    return q * np.exp(0.3 * scale)[..., None, :]


def invertibles_from(draws):
    """The matrices of `random_invertible` from their `draw_invertible`
    draws, with one QR per size."""
    sized = [d for d in draws if d is not None]
    mats = iter(by_shape(_scaled_unitaries, *zip(*sized)) if sized else ())
    return [np.eye(0, dtype=complex) if d is None else next(mats) for d in draws]


def sign_parity(dims, homology_dims):
    """The parity |C_*| = sum_i alpha_i beta_i mod 2 of a chain complex, the
    exponent of the sign-determined correction; alpha_i and beta_i are the
    cumulative chain and homology dimensions mod 2."""
    alphas = np.cumsum(dims) % 2
    betas = np.cumsum(homology_dims) % 2
    return int(np.sum(alphas * betas)) % 2


def sign_determined_torsion(cx):
    """Turaev's sign-corrected torsion (-1)^{|C_*|} tor(C_*).

    Coincides with plain torsion on acyclic complexes.
    """
    c, hdata = _one(_decompositions([cx]))
    return (-1) ** sign_parity(c.dims, hdata.dims) * _one(
        _torsions([(c, _lift_systems(c, hdata))]))


# -- multiplicativity --------------------------------------------------------

def multiplicativity_signs(dims_sub, dims_quot,
                           hdims_sub, hdims_total, hdims_quot):
    """Sign exponents (alpha, epsilon) of the multiplicativity lemma.

    For a short exact sequence 0 -> C' -> C -> C'' -> 0 of based chain
    complexes (homological indexing),

      alpha  = sum_i alpha_{i-1}(C') alpha_i(C''),
      epsilon = sum_i [(beta_i(C)+1)(beta_i(C')+beta_i(C''))
                        + beta_{i-1}(C') beta_i(C'')]   (mod 2).
    """
    ap = np.cumsum(dims_sub) % 2
    app = np.cumsum(dims_quot) % 2
    alpha = 0
    for i in range(len(app)):
        alpha += (ap[i - 1] if i >= 1 else 0) * app[i]
    bp = np.cumsum(hdims_sub) % 2
    b = np.cumsum(hdims_total) % 2
    bpp = np.cumsum(hdims_quot) % 2
    eps = 0
    for i in range(len(b)):
        bpm1 = bp[i - 1] if i >= 1 else 0
        eps += (b[i] + 1) * (bp[i] + bpp[i]) + bpm1 * bpp[i]
    return int(alpha) % 2, int(eps) % 2


def _lstsq(a, b):
    """`np.linalg.lstsq(a, b, rcond=None)[0]` on stacks a (..., m, n) and
    b (..., m, k): numpy's own least-squares gufunc, which np.linalg.lstsq
    runs on one matrix only, with its arguments and its edge cases."""
    m, n = a.shape[-2:]
    k = b.shape[-1]
    if k == 0:  # LAPACK cannot take zero right-hand sides
        b = np.zeros(b.shape[:-1] + (1,), dtype=complex)
    with _raising("SVD did not converge in Linear Least Squares"):
        x = _umath_linalg.lstsq(a, b, np.finfo(complex).eps * max(n, m),
                                signature="DDd->Ddid")[0]
    if m == 0:
        x[...] = 0
    return x[..., :k]


def _solutions(problems):
    """The least-squares x of basis @ x = vectors for every problem
    (basis, vectors, in_span), one lstsq per pair of shapes.  With in_span,
    `vectors` must lie in span(basis), within 1e-6 of their scale: such a
    problem gets x, or the LinAlgError that refused it."""
    solvable = [(a, b) for a, b, _ in problems if a.shape[1]]
    xs = iter(by_shape(_lstsq, *zip(*solvable)) if solvable else ())
    out = []
    for basis, vectors, in_span in problems:
        if not basis.shape[1]:
            if in_span and vectors.size and np.linalg.norm(vectors) > 1e-6:
                out.append(np.linalg.LinAlgError("vectors not in the zero span"))
            else:
                out.append(np.zeros((0, vectors.shape[1]), dtype=complex))
            continue
        x = next(xs)
        if in_span:
            resid = np.linalg.norm(basis @ x - vectors)
            if _exceeds(resid, 1e-6, lambda: np.linalg.norm(vectors)):
                x = np.linalg.LinAlgError("vectors are not in the span (residual %.3e)"
                                          % (resid / max(1.0, np.linalg.norm(vectors))))
        out.append(x)
    return out


class _Sequence:
    """One short exact sequence 0 -> C' -> C -> C'' -> 0 on its way through
    `multiplicativity_checks`, in the homological convention."""

    def __init__(self, index, cs, ct, cq, incl, proj):
        self.index = index
        self.cs, self.ct, self.cq = cs, ct, cq
        self.incl, self.proj = incl, proj
        self.n = ct.top_degree


def multiplicativity_checks(seqs):
    """`multiplicativity_check` on every sequence in `seqs`, each a tuple
    (c_sub, c_total, c_quot, incl, proj): per sequence its (residual,
    parts), or the error that refused it -- a ChainComplexError, or the
    LinAlgError of a class that falls off its span in the long exact
    sequence -- with the messages and in the order of the checks on one
    sequence.  Each stage runs batched by shape across the sequences: the
    rank tests of incl and proj, the pinv and det of the base compatibility,
    the decompositions, the least-squares solves of the long exact
    sequences, their homology and the four torsions."""
    out = [None] * len(seqs)
    live = []
    for k, (c_sub, c_total, c_quot, incl, proj) in enumerate(seqs):
        if not (c_sub.direction == c_total.direction == c_quot.direction):
            out[k] = ChainComplexError("complexes must share the direction convention")
            continue
        cs, ct, cq = c_sub.to_chain(), c_total.to_chain(), c_quot.to_chain()
        n = ct.top_degree
        if cs.top_degree != n or cq.top_degree != n:
            out[k] = ChainComplexError("complexes must share the degree range")
            continue
        incl = [np.asarray(m, dtype=complex) for m in incl]
        proj = [np.asarray(m, dtype=complex) for m in proj]
        if c_sub.direction == "cochain":
            incl = list(reversed(incl))
            proj = list(reversed(proj))
        live.append(_Sequence(k, cs, ct, cq, incl, proj))
    for stage in (_short_exact, _sequence_decompositions, _long_exact_sequences):
        live = stage(live, out)
    for s, hl in zip(live, homologies([s.les for s in live])):
        if not _failed(hl) and any(d != 0 for d in hl.dims):
            hl = ChainComplexError("long exact sequence is not exact (sequence invalid)")
        s.hl = hl
        if _failed(hl):
            out[s.index] = hl
    live = [s for s in live if not _failed(s.hl)]
    values = iter(_torsions([(c, _lift_systems(c, h)) for s in live for c, h in (
        (s.les, s.hl), (s.ct, s.ht), (s.cs, s.hs), (s.cq, s.hq))]))
    for s in live:
        tor_les, Tc, Ts, Tq = (next(values) for _ in range(4))
        failed = [t for t in (tor_les, Tc, Ts, Tq) if _failed(t)]
        if failed:
            out[s.index] = failed[0]
            continue
        Tc, Ts, Tq = ((-1) ** sign_parity(c.dims, h.dims) * t for c, h, t in (
            (s.ct, s.ht, Tc), (s.cs, s.hs, Ts), (s.cq, s.hq, Tq)))
        alpha, eps = multiplicativity_signs(s.cs.dims, s.cq.dims, s.hs.dims,
                                            s.ht.dims, s.hq.dims)
        rhs = (-1) ** ((alpha + eps) % 2) * Ts * Tq * tor_les
        out[s.index] = (abs(Tc - rhs), {"total": Tc, "sub": Ts, "quot": Tq,
                                        "les": tor_les, "alpha": alpha,
                                        "epsilon": eps})
    return out


def multiplicativity_check(c_sub, c_total, c_quot, incl, proj):
    """Residual of the multiplicativity identity on a short exact sequence.

    Checks that incl/proj form a degreewise short exact sequence with
    compatible bases, builds the based long exact sequence H_*, and returns
    (residual, parts): the residual

        | Tor(C) - (-1)^{alpha+eps} Tor(C') Tor(C'') tor(H_*) |,

    which vanishes (within numerical error) on valid input, and a dict of the
    individual factors and sign exponents.  This is the stack of one of
    `multiplicativity_checks`.
    """
    return _one(multiplicativity_checks([(c_sub, c_total, c_quot, incl, proj)]))


def _short_exact(seqs, out):
    """The sequences in `seqs` that are degreewise short exact with
    compatible bases ([c / c' c''] = +1); each other one gets its
    ChainComplexError in `out`.  The rank tests run as one SVD per shape of
    incl_i and proj_i, the sections as one pinv per shape of proj_i and the
    compatibility as one det per size."""
    svals = iter(by_shape(_singular_values, [m for s in seqs for m in s.incl + s.proj
                                             if m.size]))
    checked = []
    for s in seqs:
        ranks = [_rank(next(svals), s.ct.tol) if m.size else 0 for m in s.incl + s.proj]
        error, compat = None, []
        for i in range(s.n + 1):
            incl, proj = s.incl[i], s.proj[i]
            if ranks[i] < s.cs.dims[i]:
                error = ChainComplexError("inclusion not injective at degree %d" % i)
            elif ranks[s.n + 1 + i] < s.cq.dims[i]:
                error = ChainComplexError("projection not surjective at degree %d" % i)
            elif incl.size and proj.size and _exceeds(np.linalg.norm(proj @ incl), 1e-7,
                                                      lambda: np.linalg.norm(incl)):
                error = ChainComplexError("proj o incl != 0 at degree %d" % i)
            elif s.cs.dims[i] + s.cq.dims[i] != s.ct.dims[i]:
                error = ChainComplexError("sequence not exact at degree %d" % i)
            else:
                if s.ct.dims[i]:
                    compat.append(i)
                continue
            break
        checked.append((error, compat))
    sections = iter(by_shape(np.linalg.pinv, [s.proj[i] for s, (_, compat) in zip(seqs, checked)
                                              for i in compat if s.proj[i].size]))
    frames = [np.concatenate([s.incl[i], next(sections) if s.proj[i].size else np.zeros(
        (s.ct.dims[i], 0), dtype=complex)], axis=1) for s, (_, compat) in zip(seqs, checked)
        for i in compat]
    dets = iter(by_shape(_det, frames))
    kept = []
    for s, (error, compat) in zip(seqs, checked):
        # a degree's compatibility comes before any failure of a later degree
        bad = [(i, det) for i, det in [(i, next(dets)) for i in compat]
               if abs(det - 1.0) > 1e-6]
        if bad:
            error = ChainComplexError("bases incompatible at degree %d ([c/c'c''] = %s)"
                                      % bad[0])
        if error is None:
            kept.append(s)
        else:
            out[s.index] = error
    return kept


def _sequence_decompositions(seqs, out):
    """Each sequence's decompositions hs, ht, hq, in the homology bases
    torsion uses: a complex with no supplied bases uses its computed ones,
    the others their kept decompositions.  Each complex in turn may refuse
    its sequence."""
    chains = [c for s in seqs for c in (s.cs, s.ct, s.cq)]
    based = iter(_decompositions([c for c in chains if c.homology_bases is not None]))
    bare = iter(homologies([c for c in chains if c.homology_bases is None]))
    kept = []
    for s in seqs:
        made = [next(bare) if c.homology_bases is None else next(based)
                for c in (s.cs, s.ct, s.cq)]
        failed = [m for m in made if _failed(m)]
        if failed:
            out[s.index] = failed[0]
            continue
        s.hs, s.ht, s.hq = (m if isinstance(m, HomologyData) else m[1] for m in made)
        kept.append(s)
    return kept


def _long_exact_sequences(seqs, out):
    """Each sequence's homology long exact sequence `les`, a based chain
    complex H_* with H_{3i} = H_i(C''), H_{3i+1} = H_i(C), H_{3i+2} = H_i(C'),
    in the homology bases hs, ht, hq and under the rank cutoff of C.

    Its maps are the classes of the induced maps H_i(C) -> H_i(C''),
    H_i(C') -> H_i(C) and of the connecting maps H_{i+1}(C'') -> H_i(C'),
    the last by the zig-zag: lift z through proj, apply d, pull back
    through incl.  The least-squares solves of all the sequences run in
    three rounds, one lstsq per pair of shapes in each: the induced classes
    and the lifts through proj, the pullbacks through incl, then their
    classes.  A class or pullback off its span refuses its sequence with
    the first such failure of the one-sequence order."""
    def classes(problems, h, degree, vectors):
        # coordinates in h's homology basis, read off [H B] x = vectors; with
        # no basis at all they are empty, and nothing is checked
        basis = np.concatenate([h.homology[degree], h.boundaries[degree]], axis=1)
        problems.append((basis, vectors, bool(basis.shape[1])))

    first = []
    for s in seqs:
        for i in range(s.n + 1):
            classes(first, s.hq, i, s.proj[i] @ s.ht.homology[i])
            classes(first, s.ht, i, s.incl[i] @ s.hs.homology[i])
            if i < s.n:
                z = s.hq.homology[i + 1]
                first += [(s.proj[i + 1], z[:, k, None], False) for k in range(z.shape[1])]
    first = iter(_solutions(first))
    second = []
    for s in seqs:
        s.steps = []
        for i in range(s.n + 1):
            s.steps += [next(first), next(first)]
            if i < s.n:
                ys = [next(first)[:, 0] for _ in range(s.hq.dims[i + 1])]
                s.steps.append(ys)
                second += [(s.incl[i], (s.ct.boundaries[i] @ y)[:, None], True) for y in ys]
    second = iter(_solutions(second))
    third = []
    for s in seqs:
        for i in range(s.n):
            vs = [next(second) for _ in s.steps[3 * i + 2]]
            s.steps[3 * i + 2] = vs
            for v in vs:
                if not _failed(v):
                    classes(third, s.hs, i, v)
    third = iter(_solutions(third))
    kept = []
    for s in seqs:
        diffs, error, dims = [], None, []
        for i in range(s.n + 1):
            dims += [s.hq.dims[i], s.ht.dims[i], s.hs.dims[i]]
        for i in range(s.n + 1):
            for x, h in zip(s.steps[3 * i:3 * i + 2], (s.hq, s.ht)):
                if _failed(x):
                    error = error or x
                diffs.append(x if _failed(x) else x[:h.dims[i], :])
            if i < s.n:
                cols = []
                for v in s.steps[3 * i + 2]:
                    c = v if _failed(v) else next(third)
                    error = error or (c if _failed(c) else None)
                    cols.append(c)
                if error is None:
                    diffs.append(np.column_stack([c[:s.hs.dims[i], 0] for c in cols])
                                 if cols else np.zeros((s.hs.dims[i], 0), dtype=complex))
        if error is None:
            try:
                s.les = BasedChainComplex(dims, diffs, direction="chain", tol=s.ct.tol)
            except ChainComplexError as exc:
                error = exc.with_traceback(None)
        if error is None:
            kept.append(s)
        else:
            out[s.index] = error
    return kept
