"""Reidemeister torsion of finite based (and homology based) chain complexes.

A complex C_* over R or C with reference bases c^i for the chain groups and
h^i for the homology carries the torsion

    tor(C_*) = prod_i [ d_{i+1}(b^{i+1})  h~^i  b^i / c^i ] ^ ((-1)^(i+1)),

where b^i is any family in C_i whose image under d_i is a basis of the
boundary space B_{i-1}, and h~^i is any lift of h^i into the cycle space
Z_i.  The value does not depend on the choices of b^i and h~^i (Milnor).
`homology` is the one place where a complex is decomposed: one numpy SVD per
differential d_i decides its rank under the `linalg` rank rule and gives the
cycles Z_i (trailing right singular vectors), the boundaries B_{i-1} (leading
left singular vectors) and b^i (leading right singular vectors).  A complex
is decomposed once, on first use, and keeps that decomposition, its supplied
homology bases validated: `torsion`, `sign_determined_torsion` and
`multiplicativity_check` all read it, and a cochain complex builds its chain
form once.
The sign-determined refinement multiplies by (-1)^{|C_*|} with

    |C_*| = sum_k alpha_k beta_k,
    alpha_k = sum_{j<=k} dim C_j  (mod 2),   beta_k = sum_{j<=k} dim H_j (mod 2).

Complexes may be stored homologically (differential lowers degree) or
cohomologically (differential raises degree); they are normalized to the
homological convention, reversing at the complex's own top degree, before
any torsion or sign bookkeeping happens.
"""

import numpy as np

from .linalg import (
    RANK_TOL,
    _rank,
    column_space,
    numerical_rank,
    solve_in_span,
)


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
            if comp.size and np.linalg.norm(comp) > 1e-8 * max(
                    1.0, np.linalg.norm(self.boundaries[i]) * np.linalg.norm(self.boundaries[i + 1])):
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

    def class_coordinates(self, degree, vectors):
        """Coordinates of the homology classes of cycle `vectors` in the
        degree-`degree` homology basis."""
        H = self.homology[degree]
        B = self.boundaries[degree]
        vectors = np.asarray(vectors, dtype=complex)
        if vectors.ndim == 1:
            vectors = vectors[:, None]
        M = np.hstack([H, B])
        if M.shape[1] == 0:
            return np.zeros((0, vectors.shape[1]), dtype=complex)
        x = solve_in_span(M, vectors)
        return x[:H.shape[1], :]


def homology(cx):
    """Cycle, boundary, lift and homology bases of `cx`, degree by degree.

    One SVD d = U S V^H of rank r per differential gives the cycles of its
    source degree (V's trailing columns), the lifts b^i there (V's leading
    r columns) and the boundaries of its target degree (U's leading r
    columns).  Homology bases are the orthogonal complements of B_i inside
    Z_i; the dimension satisfies dim H_i = dim Z_i - dim B_i.  Every rank
    is decided under the complex's cutoff `cx.tol`.
    """
    cycles = [np.eye(m, dtype=complex) for m in cx.dims]
    bnds = [np.zeros((m, 0), dtype=complex) for m in cx.dims]
    lifts = list(bnds)
    for k, d in enumerate(cx.boundaries):
        src, tgt = (k + 1, k) if cx.direction == "chain" else (k, k + 1)
        if d.size:
            u, s, vh = np.linalg.svd(d)
            r = _rank(s, cx.tol)
            cycles[src] = vh[r:].conj().T
            lifts[src] = vh[:r].conj().T
            bnds[tgt] = u[:, :r]
    hom = []
    for i, (Z, Bm) in enumerate(zip(cycles, bnds)):
        # B must sit inside Z (d o d = 0 is validated at construction)
        if Bm.shape[1] > Z.shape[1]:
            raise ChainComplexError("boundary space exceeds cycle space at degree %d" % i)
        W = Z - Bm @ (Bm.conj().T @ Z) if Bm.shape[1] else Z
        hom.append(column_space(W, cx.tol))
    return HomologyData(cycles, bnds, hom, lifts)


def _resolve_homology_bases(cx, hdata):
    """`hdata` in the homology bases torsion uses for `cx`: the supplied ones,
    validated, or the computed ones where a missing entry is trivial."""
    bases = []
    for i in range(len(cx.dims)):
        want = hdata.dims[i]
        supplied = None if cx.homology_bases is None else cx.homology_bases[i]
        if want == 0:
            if supplied is not None and supplied.shape[1] != 0:
                raise ChainComplexError(
                    "degree %d is acyclic but a homology basis was supplied" % i)
            bases.append(np.zeros((cx.dims[i], 0), dtype=complex))
            continue
        if supplied is None:
            raise ChainComplexError(
                "degree %d has homology of dimension %d but no reference basis"
                % (i, want))
        if supplied.shape[1] != want:
            raise ChainComplexError(
                "homology basis at degree %d has %d vectors, expected %d"
                % (i, supplied.shape[1], want))
        # representatives must be cycles, inside the computed cycle space ...
        dout = cx.differential_out(i)
        scale = max(1.0, np.linalg.norm(supplied))
        if dout.size and np.linalg.norm(dout @ supplied) > 1e-6 * scale:
            raise ChainComplexError("supplied basis at degree %d is not made of cycles" % i)
        Z = hdata.cycles[i]
        if np.linalg.norm(supplied - Z @ (Z.conj().T @ supplied)) > 1e-6 * scale:
            raise ChainComplexError("supplied basis at degree %d lies off the cycle space" % i)
        # ... and project to an independent family in homology: the computed
        # homology basis is orthonormal and orthogonal to the boundaries
        coords = hdata.homology[i].conj().T @ supplied
        if numerical_rank(coords, cx.tol) < want:
            raise ChainComplexError(
                "supplied vectors at degree %d do not span the homology" % i)
        bases.append(supplied)
    return HomologyData(hdata.cycles, hdata.boundaries, bases, hdata.lifts)


def _decomposition(cx):
    """The chain form of `cx` and its `HomologyData` in the homology bases
    torsion uses, worked out on first use and kept on the chain form."""
    c = cx.to_chain()
    if c._hdata is None:
        c._hdata = _resolve_homology_bases(c, homology(c))
    return c, c._hdata


def torsion(cx, rng=None):
    """Reidemeister torsion of a based, homology based complex.

    The internal choices (the families b^i and the homology lifts) are
    deterministic by default; passing a numpy Generator as `rng`
    re-randomizes them, which must not change the value -- torsion is
    independent of these choices.
    """
    return _torsion(*_decomposition(cx), rng)


def _torsion(c, hdata, rng=None):
    """tor of the chain complex `c` from its decomposition `hdata`, in the
    homology bases `hdata.homology`."""
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

    value = 1.0 + 0j
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
        M = np.hstack(cols)
        if M.shape != (m, m):
            raise ChainComplexError(
                "degenerate decomposition at degree %d: %r columns for dim %d"
                % (i, M.shape[1], m))
        det = np.linalg.det(M)
        if abs(det) <= c.tol:
            raise ChainComplexError("degenerate lift system at degree %d" % i)
        value *= det ** ((-1) ** (i + 1))
    return complex(value)


def random_invertible(rng, n):
    """A random well-conditioned invertible n x n matrix: a random unitary
    times a diagonal scaling near 1."""
    return invertible_from(draw_invertible(rng, n))


def draw_invertible(rng, n):
    """The random numbers of `random_invertible(rng, n)`, drawn in its
    order, for `invertible_from` to build the matrix from."""
    if n == 0:
        return None
    return rng.standard_normal((n, n)), rng.standard_normal((n, n)), rng.standard_normal(n)


def invertible_from(draw):
    """The matrix of `random_invertible` from its `draw_invertible` draw."""
    if draw is None:
        return np.eye(0, dtype=complex)
    real, imag, scale = draw
    q, _ = np.linalg.qr(real + 1j * imag)
    return q * np.exp(0.3 * scale)


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
    c, hdata = _decomposition(cx)
    return (-1) ** sign_parity(c.dims, hdata.dims) * _torsion(c, hdata)


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


def connecting_map(degree, incl, proj, c_total, hsub, hquot):
    """Connecting homomorphism H_degree(C'') -> H_{degree-1}(C'), degree >= 1,
    of a degreewise short exact sequence, computed by the usual zig-zag.

    incl, proj are per-degree matrices C'_i -> C_i and C_i -> C''_i.
    """
    out = []
    d = c_total.boundaries[degree - 1]
    for k in range(hquot.homology[degree].shape[1]):
        z = hquot.homology[degree][:, k]
        y, *_ = np.linalg.lstsq(proj[degree], z, rcond=None)
        w = d @ y
        v = solve_in_span(incl[degree - 1], w[:, None])[:, 0]
        out.append(hsub.class_coordinates(degree - 1, v)[:, 0])
    if not out:
        return np.zeros((hsub.dims[degree - 1], 0), dtype=complex)
    return np.column_stack(out)


def long_exact_sequence(hs, ht, hq, c_total, incl, proj):
    """The homology long exact sequence of a short exact sequence, as a based
    chain complex H_* with H_{3i} = H_i(C''), H_{3i+1} = H_i(C),
    H_{3i+2} = H_i(C'), in the homology bases of the sub, total and quotient
    decompositions `hs`, `ht`, `hq`, under the rank cutoff of `c_total`.
    """
    n = c_total.top_degree
    dims = []
    for i in range(n + 1):
        dims += [hq.dims[i], ht.dims[i], hs.dims[i]]
    diffs = []
    for i in range(n + 1):
        # the maps induced on homology: H_i(C) -> H_i(C''), H_i(C') -> H_i(C)
        diffs.append(hq.class_coordinates(i, proj[i] @ ht.homology[i]))
        diffs.append(ht.class_coordinates(i, incl[i] @ hs.homology[i]))
        if i < n:
            # H_{i+1}(C'') -> H_i(C')
            diffs.append(connecting_map(i + 1, incl, proj, c_total, hs, hq))
    return BasedChainComplex(dims, diffs, direction="chain", tol=c_total.tol)


def multiplicativity_check(c_sub, c_total, c_quot, incl, proj):
    """Residual of the multiplicativity identity on a short exact sequence.

    Checks that incl/proj form a degreewise short exact sequence with
    compatible bases, builds the based long exact sequence H_*, and returns
    (residual, parts): the residual

        | Tor(C) - (-1)^{alpha+eps} Tor(C') Tor(C'') tor(H_*) |,

    which vanishes (within numerical error) on valid input, and a dict of the
    individual factors and sign exponents.
    """
    if not (c_sub.direction == c_total.direction == c_quot.direction):
        raise ChainComplexError("complexes must share the direction convention")
    cs, ct, cq = c_sub.to_chain(), c_total.to_chain(), c_quot.to_chain()
    n = ct.top_degree
    if cs.top_degree != n or cq.top_degree != n:
        raise ChainComplexError("complexes must share the degree range")
    incl = [np.asarray(m, dtype=complex) for m in incl]
    proj = [np.asarray(m, dtype=complex) for m in proj]
    if c_sub.direction == "cochain":
        incl = list(reversed(incl))
        proj = list(reversed(proj))
    for i in range(n + 1):
        if numerical_rank(incl[i], ct.tol) < cs.dims[i]:
            raise ChainComplexError("inclusion not injective at degree %d" % i)
        if numerical_rank(proj[i], ct.tol) < cq.dims[i]:
            raise ChainComplexError("projection not surjective at degree %d" % i)
        if incl[i].size and proj[i].size and np.linalg.norm(proj[i] @ incl[i]) > 1e-7 * max(
                1.0, np.linalg.norm(incl[i])):
            raise ChainComplexError("proj o incl != 0 at degree %d" % i)
        if cs.dims[i] + cq.dims[i] != ct.dims[i]:
            raise ChainComplexError("sequence not exact at degree %d" % i)
        # base compatibility: [c / c' c''] = +1
        if ct.dims[i]:
            section = np.linalg.pinv(proj[i]) if proj[i].size else np.zeros(
                (ct.dims[i], 0), dtype=complex)
            M = np.hstack([incl[i], section])
            det = np.linalg.det(M)
            if abs(det - 1.0) > 1e-6:
                raise ChainComplexError(
                    "bases incompatible at degree %d ([c/c'c''] = %s)" % (i, det))

    # each complex's decomposition, in the homology bases torsion uses; a
    # complex with no supplied bases uses the computed ones
    hs, ht, hq = (homology(c) if c.homology_bases is None else _decomposition(c)[1]
                  for c in (cs, ct, cq))
    les = long_exact_sequence(hs, ht, hq, ct, incl, proj)
    hl = homology(les)
    if any(d != 0 for d in hl.dims):
        raise ChainComplexError("long exact sequence is not exact (sequence invalid)")

    tor_les = _torsion(les, hl)
    Tc, Ts, Tq = ((-1) ** sign_parity(c.dims, h.dims) * _torsion(c, h)
                  for c, h in ((ct, ht), (cs, hs), (cq, hq)))
    alpha, eps = multiplicativity_signs(cs.dims, cq.dims, hs.dims, ht.dims, hq.dims)
    rhs = (-1) ** ((alpha + eps) % 2) * Ts * Tq * tor_les
    return abs(Tc - rhs), {"total": Tc, "sub": Ts, "quot": Tq, "les": tor_les,
                           "alpha": alpha, "epsilon": eps}
