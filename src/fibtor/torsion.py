"""Reidemeister torsion of finite based (and homology based) chain complexes.

A complex C_* over R or C with reference bases c^i for the chain groups and
h^i for the homology carries the torsion

    tor(C_*) = prod_i [ d_{i+1}(b^{i+1})  h~^i  b^i / c^i ] ^ ((-1)^(i+1)),

where b^i is any family in C_i whose image under d_i is a basis of the
boundary space B_{i-1}, and h~^i is any lift of h^i into the cycle space
Z_i.  The value does not depend on the choices of b^i and h~^i (Milnor).
`_homology` is the one place where complexes are decomposed: one numpy SVD
per differential d_i decides its rank under the `linalg` rank rule and gives
the cycles Z_i (trailing right singular vectors), the boundaries B_{i-1}
(leading left singular vectors) and b^i (leading right singular vectors).
A complex is decomposed once, on first use, and keeps that decomposition,
its supplied homology bases validated: `torsion`, `sign_determined_torsion`
and `multiplicativity_check` all read it, and a cochain complex builds its
chain form once.

Each algorithm is written once, for one complex or one short exact
sequence, as a step generator: at each step it yields the numpy calls it
needs, a list of (fn, array, ...) tuples, and is sent back their results.
`run_stack` runs a list of step generators side by side, one step of each
at a time, and makes each step's calls with one call per function and tuple
of argument shapes (`batched`); `run_alone` runs one, and `together` runs
a few inside another generator.  So `homologies`,
`torsions` and `multiplicativity_checks` are stacks, and `homology`,
`torsion`, `sign_determined_torsion` and `multiplicativity_check` the same
generators run alone.  Batches stay full because every generator of one kind
takes the same number of steps whatever its data: a step with nothing to
compute still yields its empty list.  numpy's linalg routines run a stack
matrix by matrix, so a complex gets the same bits alone or in a stack.

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


# -- steps -------------------------------------------------------------------


def batched(calls):
    """The results of `calls`, a list of (fn, array, ...) tuples, in order,
    with one call of fn per function and tuple of argument shapes: a group
    is passed stacked along a new first axis, a group of one as a view, not
    a copy.  A call's result is its slice of fn's output, or a tuple of
    slices when fn returns a tuple.  numpy's linalg routines run a stack
    matrix by matrix, so each call gets the bits of fn on its arrays alone."""
    groups = {}
    for k, call in enumerate(calls):
        key = ((call[0], call[1].shape) if len(call) == 2
               else (call[0], *[a.shape for a in call[1:]]))
        groups.setdefault(key, []).append(k)
    out = [None] * len(calls)
    for ks in groups.values():
        fn, *cols = zip(*[calls[k] for k in ks])
        res = fn[0](*[col[0][None] if len(ks) == 1 else np.array(col) for col in cols])
        for k, row in zip(ks, zip(*res) if isinstance(res, tuple) else res):
            out[k] = row
    return out


def run_alone(gen):
    """The value of the step generator `gen`, its steps' calls made through
    `batched`; the error that ends it is raised."""
    try:
        calls = next(gen)
        while True:
            calls = gen.send(batched(calls))
    except StopIteration as stop:
        return stop.value


def run_stack(gens):
    """The step generators `gens` run side by side: per generator its value
    or the error that ended it."""
    return run_alone(_lockstep(gens))


def together(gens):
    """Step generator: `gens` run side by side, their values in order; the
    first of their errors, in that order, is raised."""
    out = yield from _lockstep(gens)
    for value in out:
        _valid(value)
    return out


def _lockstep(gens):
    """Step generator: one step of each of `gens` per step, their calls
    yielded as one list and each sent its share of the results.  Returns
    per generator its value, or the ChainComplexError or LinAlgError that
    ended it, kept without its traceback."""
    out = [None] * len(gens)
    sent = [None] * len(gens)
    live = list(enumerate(gens))
    while live:
        calls, ends, stepped = [], [], []
        for k, gen in live:
            try:
                calls += gen.send(sent[k])
            except StopIteration as stop:
                out[k] = stop.value
                continue
            except (ChainComplexError, np.linalg.LinAlgError) as exc:
                out[k] = exc.with_traceback(None)
                continue
            stepped.append((k, gen))
            ends.append(len(calls))
        if stepped:
            results = yield calls
            start = 0
            for (k, _), end in zip(stepped, ends):
                sent[k] = results[start:end]
                start = end
        live = stepped
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


# -- decomposition -------------------------------------------------------------


def _homology(cx):
    """Step generator of `homology`: two steps.

    One SVD d = U S V^H of rank r per differential gives the cycles of its
    source degree (V's trailing columns), the lifts b^i there (V's leading
    r columns) and the boundaries of its target degree (U's leading r
    columns).  Homology bases are the orthogonal complements of B_i inside
    Z_i, the leading left singular vectors of Z_i with B_i projected out;
    the dimension satisfies dim H_i = dim Z_i - dim B_i.  Every rank is
    decided under the complex's cutoff `tol`.
    """
    svds = iter((yield [(_svd, d) for d in cx.boundaries if d.size]))
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
            raise ChainComplexError("boundary space exceeds cycle space at degree %d" % i)
        spans.append(Z - Bm @ (Bm.conj().T @ Z) if Bm.shape[1] else Z)
    svds = iter((yield [(_svd, W) for W in spans if W.size]))
    hom = []
    for W in spans:
        if W.size:
            u, s, _ = next(svds)
            hom.append(u[:, :_rank(s, cx.tol)])
        else:
            hom.append(np.zeros((W.shape[0], 0), dtype=complex))
    return HomologyData(cycles, bnds, hom, lifts)


def homologies(cxs):
    """Cycle, boundary, lift and homology bases of every complex in `cxs`,
    degree by degree: per complex its HomologyData or the ChainComplexError
    that refused it."""
    return run_stack([_homology(cx) for cx in cxs])


def homology(cx):
    """Cycle, boundary, lift and homology bases of `cx`, degree by degree."""
    return run_alone(_homology(cx))


def _validated(c, hdata):
    """Step generator: `hdata` in the homology bases torsion uses for `c`,
    the supplied ones, validated, or the computed ones where a missing
    entry is trivial.  The rank tests of the supplied bases are one step."""
    bases, tests, error = [], [], None
    for i in range(len(c.dims)):
        want = hdata.dims[i]
        supplied = None if c.homology_bases is None else c.homology_bases[i]
        if want == 0:
            if supplied is not None and supplied.shape[1] != 0:
                error = ChainComplexError(
                    "degree %d is acyclic but a homology basis was supplied" % i)
                break
            bases.append(np.zeros((c.dims[i], 0), dtype=complex))
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
        dout = c.differential_out(i)
        if dout.size and _exceeds(np.linalg.norm(dout @ supplied), 1e-6,
                                  lambda: np.linalg.norm(supplied)):
            error = ChainComplexError("supplied basis at degree %d is not made of cycles" % i)
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
        tests.append((i, hdata.homology[i].conj().T @ supplied))
        bases.append(supplied)
    svals = yield [(_singular_values, t) for _, t in tests]
    # a degree's rank test comes before any failure of a later degree
    for (i, _), s in zip(tests, svals):
        if _rank(s, c.tol) < hdata.dims[i]:
            raise ChainComplexError("supplied vectors at degree %d do not span the homology" % i)
    if error:
        raise error
    return HomologyData(hdata.cycles, hdata.boundaries, bases, hdata.lifts)


def _decomposed(cx):
    """Step generator: the chain form of `cx` and its HomologyData in the
    homology bases torsion uses.  A chain form keeps its decomposition, so
    only the first use takes steps."""
    c = cx.to_chain()
    if c._hdata is None:
        c._hdata = yield from _validated(c, (yield from _homology(c)))
    return c, c._hdata


# -- torsion -------------------------------------------------------------------


def _torsion_of(c, hdata, rng=None):
    """Step generator: tor of the chain complex `c` from its decomposition
    `hdata`, in the homology bases `hdata.homology`, from the square
    matrices [d(b^{i+1}) h~^i b^i] of the degrees of positive dimension;
    their determinants are one step.  A numpy Generator `rng`
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
    systems, error = [], None
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
            error = ChainComplexError("degenerate decomposition at degree %d: %r columns "
                                      "for dim %d" % (i, M.shape[1], m))
            break
        systems.append((i, M))
    dets = yield [(_det, M) for _, M in systems]
    value = 1.0 + 0j
    for (i, _), det in zip(systems, dets):
        if abs(det) <= c.tol:
            raise ChainComplexError("degenerate lift system at degree %d" % i)
        value *= det ** ((-1) ** (i + 1))
    if error:
        raise error
    return complex(value)


def _torsion(cx, rng=None):
    """Step generator of `torsion`."""
    c, hdata = yield from _decomposed(cx)
    return (yield from _torsion_of(c, hdata, rng))


def torsions(cxs):
    """Reidemeister torsion of every based, homology based complex in `cxs`:
    per complex its value or the ChainComplexError that refused it."""
    return run_stack([_torsion(cx) for cx in cxs])


def torsion(cx, rng=None):
    """Reidemeister torsion of a based, homology based complex.

    The internal choices (the families b^i and the homology lifts) are
    deterministic by default; passing a numpy Generator as `rng`
    re-randomizes them, which must not change the value -- torsion is
    independent of these choices.
    """
    return run_alone(_torsion(cx, rng))


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
    """Step generator: the matrices of `random_invertible` from their
    `draw_invertible` draws, one QR step."""
    made = iter((yield [(_scaled_unitaries, *d) for d in draws if d is not None]))
    return [np.eye(0, dtype=complex) if d is None else next(made) for d in draws]


def sign_parity(dims, homology_dims):
    """The parity |C_*| = sum_i alpha_i beta_i mod 2 of a chain complex, the
    exponent of the sign-determined correction; alpha_i and beta_i are the
    cumulative chain and homology dimensions mod 2."""
    alphas = np.cumsum(dims) % 2
    betas = np.cumsum(homology_dims) % 2
    return int(np.sum(alphas * betas)) % 2


def _sign_determined(cx):
    """Step generator of `sign_determined_torsion`."""
    c, hdata = yield from _decomposed(cx)
    return (-1) ** sign_parity(c.dims, hdata.dims) * (yield from _torsion_of(c, hdata))


def sign_determined_torsion(cx):
    """Turaev's sign-corrected torsion (-1)^{|C_*|} tor(C_*).

    Coincides with plain torsion on acyclic complexes.
    """
    return run_alone(_sign_determined(cx))


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
    """Step generator: the least-squares x of basis @ x = vectors for every
    problem (basis, vectors, in_span), one step.  With in_span, `vectors`
    must lie in span(basis), within 1e-6 of their scale: such a problem gets
    x, or the LinAlgError that refused it."""
    xs = iter((yield [(_lstsq, a, b) for a, b, _ in problems if a.shape[1]]))
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


def _classes(h, degree, vectors):
    """The problem whose solution's leading rows are the coordinates of the
    cycles `vectors` in h's homology basis at `degree`: [H B] x = vectors.
    With no basis at all the coordinates are empty, and nothing is
    checked."""
    basis = np.concatenate([h.homology[degree], h.boundaries[degree]], axis=1)
    return basis, vectors, bool(basis.shape[1])


def _valid(result):
    """`result`, raised if it is an error."""
    if isinstance(result, Exception):
        raise result
    return result


def _short_exact(cs, ct, cq, incl, proj):
    """Step generator: raises the ChainComplexError of the first degree at
    which incl and proj are not short exact with compatible bases
    ([c / c' c''] = +1).  The rank tests of incl_i and proj_i, the sections
    (pinv of proj_i) and the compatibility dets are a step each."""
    n = ct.top_degree
    svals = iter((yield [(_singular_values, m) for m in incl + proj if m.size]))
    ranks = [_rank(next(svals), ct.tol) if m.size else 0 for m in incl + proj]
    error, compat = None, []
    for i in range(n + 1):
        if ranks[i] < cs.dims[i]:
            error = ChainComplexError("inclusion not injective at degree %d" % i)
        elif ranks[n + 1 + i] < cq.dims[i]:
            error = ChainComplexError("projection not surjective at degree %d" % i)
        elif incl[i].size and proj[i].size and _exceeds(
                np.linalg.norm(proj[i] @ incl[i]), 1e-7, lambda: np.linalg.norm(incl[i])):
            error = ChainComplexError("proj o incl != 0 at degree %d" % i)
        elif cs.dims[i] + cq.dims[i] != ct.dims[i]:
            error = ChainComplexError("sequence not exact at degree %d" % i)
        else:
            if ct.dims[i]:
                compat.append(i)
            continue
        break
    sections = iter((yield [(np.linalg.pinv, proj[i]) for i in compat if proj[i].size]))
    dets = yield [(_det, np.concatenate([incl[i], next(sections) if proj[i].size else np.zeros(
        (ct.dims[i], 0), dtype=complex)], axis=1)) for i in compat]
    # a degree's compatibility comes before any failure of a later degree
    for i, det in zip(compat, dets):
        if abs(det - 1.0) > 1e-6:
            raise ChainComplexError("bases incompatible at degree %d ([c/c'c''] = %s)"
                                    % (i, det))
    if error:
        raise error


def _long_exact_sequence(hs, ht, hq, ct, incl, proj):
    """Step generator: the homology long exact sequence of a short exact
    sequence, a based chain complex H_* with H_{3i} = H_i(C''),
    H_{3i+1} = H_i(C), H_{3i+2} = H_i(C'), in the homology bases of the
    decompositions hs, ht, hq and under the rank cutoff of C = `ct`.

    Its maps are the classes of the induced maps H_i(C) -> H_i(C''),
    H_i(C') -> H_i(C) and of the connecting maps H_{i+1}(C'') -> H_i(C'),
    the last by the zig-zag: lift z through proj, apply d, pull back
    through incl.  The least-squares solves are three steps: the induced
    classes and the lifts through proj, the pullbacks through incl, then
    their classes.  A class or pullback off its span raises the first such
    failure in the order of the maps."""
    n = ct.top_degree
    first = []
    for i in range(n + 1):
        first += [_classes(hq, i, proj[i] @ ht.homology[i]),
                  _classes(ht, i, incl[i] @ hs.homology[i])]
        if i < n:
            z = hq.homology[i + 1]
            first += [(proj[i + 1], z[:, k, None], False) for k in range(z.shape[1])]
    first = iter((yield from _solutions(first)))
    induced, lifts = [], []
    for i in range(n + 1):
        induced.append((next(first), next(first)))
        if i < n:
            lifts.append([next(first)[:, 0] for _ in range(hq.dims[i + 1])])
    second = iter((yield from _solutions([(incl[i], (ct.boundaries[i] @ y)[:, None], True)
                                          for i in range(n) for y in lifts[i]])))
    pullbacks = [[next(second) for _ in ys] for ys in lifts]
    third = iter((yield from _solutions([_classes(hs, i, v) for i in range(n)
                                         for v in pullbacks[i]
                                         if not isinstance(v, Exception)])))
    dims, diffs = [], []
    for i in range(n + 1):
        dims += [hq.dims[i], ht.dims[i], hs.dims[i]]
        diffs += [_valid(x)[:h.dims[i], :] for x, h in zip(induced[i], (hq, ht))]
        if i < n:
            cols = []
            for v in pullbacks[i]:
                _valid(v)
                cols.append(_valid(next(third))[:hs.dims[i], 0])
            diffs.append(np.column_stack(cols) if cols
                         else np.zeros((hs.dims[i], 0), dtype=complex))
    return BasedChainComplex(dims, diffs, direction="chain", tol=ct.tol)


def _multiplicativity(c_sub, c_total, c_quot, incl, proj):
    """Step generator of `multiplicativity_check`."""
    if not (c_sub.direction == c_total.direction == c_quot.direction):
        raise ChainComplexError("complexes must share the direction convention")
    cs, ct, cq = c_sub.to_chain(), c_total.to_chain(), c_quot.to_chain()
    n = ct.top_degree
    if cs.top_degree != n or cq.top_degree != n:
        raise ChainComplexError("complexes must share the degree range")
    incl = [np.asarray(m, dtype=complex) for m in incl]
    proj = [np.asarray(m, dtype=complex) for m in proj]
    if c_sub.direction == "cochain":
        incl, proj = incl[::-1], proj[::-1]
    yield from _short_exact(cs, ct, cq, incl, proj)
    # each complex's decomposition, in the homology bases torsion uses; a
    # complex with no supplied bases uses the computed ones
    made = yield from together([_homology(c) if c.homology_bases is None else _decomposed(c)
                                for c in (cs, ct, cq)])
    hs, ht, hq = (h if isinstance(h, HomologyData) else h[1] for h in made)
    les = yield from _long_exact_sequence(hs, ht, hq, ct, incl, proj)
    hl = yield from _homology(les)
    if any(hl.dims):
        raise ChainComplexError("long exact sequence is not exact (sequence invalid)")
    tor_les, Tc, Ts, Tq = yield from together([_torsion_of(c, h) for c, h in (
        (les, hl), (ct, ht), (cs, hs), (cq, hq))])
    Tc, Ts, Tq = ((-1) ** sign_parity(c.dims, h.dims) * t for c, h, t in (
        (ct, ht, Tc), (cs, hs, Ts), (cq, hq, Tq)))
    alpha, eps = multiplicativity_signs(cs.dims, cq.dims, hs.dims, ht.dims, hq.dims)
    rhs = (-1) ** ((alpha + eps) % 2) * Ts * Tq * tor_les
    return abs(Tc - rhs), {"total": Tc, "sub": Ts, "quot": Tq, "les": tor_les,
                           "alpha": alpha, "epsilon": eps}


def multiplicativity_checks(seqs):
    """`multiplicativity_check` on every sequence in `seqs`, each a tuple
    (c_sub, c_total, c_quot, incl, proj): per sequence its (residual,
    parts), or the error that refused it -- a ChainComplexError, or the
    LinAlgError of a class that falls off its span in the long exact
    sequence."""
    return run_stack([_multiplicativity(*seq) for seq in seqs])


def multiplicativity_check(c_sub, c_total, c_quot, incl, proj):
    """Residual of the multiplicativity identity on a short exact sequence.

    Checks that incl/proj form a degreewise short exact sequence with
    compatible bases, builds the based long exact sequence H_*, and returns
    (residual, parts): the residual

        | Tor(C) - (-1)^{alpha+eps} Tor(C') Tor(C'') tor(H_*) |,

    which vanishes (within numerical error) on valid input, and a dict of the
    individual factors and sign exponents.
    """
    return run_alone(_multiplicativity(c_sub, c_total, c_quot, incl, proj))
