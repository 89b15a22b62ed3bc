"""Named verification checks: every headline result the package computes,
runnable through the CLI (`fibtor verify`) and mirrored one-to-one by the
acceptance test suite.

Each check returns (passed, detail).  Randomized checks draw from a seeded
generator so runs are reproducible; the seed is a parameter of `run_checks`.
"""

import cmath
import time

import numpy as np

from .catalog import figure_eight, holonomy_representation, trefoil
from .errors import FibtorError
from .fibered import (
    _normal_form_pair,
    epsilon0,
    lift_characters_to_reps,
    main_theorem_torsion,
    main_theorem_torsions,
    monodromy_actions,
    random_conjugate,
    sample_fixed_locus,
    torus_closed_form,
    wang_identities,
)
from .rep import SL2C, SU2, Representation, commutator_trace, twisted_cochain_complex
from .torsion import (
    BasedChainComplex,
    ChainComplexError,
    _multiplicativity,
    _torsion,
    _valid,
    draw_invertible,
    homologies,
    invertibles_from,
    run_alone,
    run_stack,
    torsion,
)
from .words import GroupPresentation


# -- random complexes (used here and by the test suite) ------------------------
#
# A random complex is drawn first and built after: `_draw_based_complex` takes
# every random number, in the order of a loop that builds each complex as it
# draws it, and the builders are step generators (see `fibtor.torsion`), so a
# check can draw all its complexes and then run one generator per complex,
# every basis change built with one QR and one inverse per size.


def random_based_complex(rng, max_degree=4):
    """A random based, homology based chain complex with controlled
    conditioning: a sum of elementary pieces (isomorphisms and bare homology
    summands) pushed through random well-conditioned basis changes."""
    draw = _draw_based_complex(rng, max_degree)
    return _build_based_complex(draw, *run_alone(_basis_changes(draw[5], len(draw[5]))))


def _draw_based_complex(rng, max_degree):
    """Every random number of `random_based_complex`, drawn in its order:
    the top degree n, the homology and pair dimensions, the pairs' diagonal
    entries and the basis-change draws.  Drawing is cheap; building is not,
    so a caller can look at n before it builds."""
    n = int(rng.integers(1, max_degree + 1))
    hdims = [int(rng.integers(0, 3)) for _ in range(n + 1)]
    pairs = [int(rng.integers(0, 3)) for _ in range(n)]
    dims = [hdims[i]
            + (pairs[i] if i < n else 0)
            + (pairs[i - 1] if i > 0 else 0) for i in range(n + 1)]
    diagonals = [[1.0 + 0.3 * rng.standard_normal() for _ in range(p)] for p in pairs]
    return n, hdims, pairs, dims, diagonals, [draw_invertible(rng, m) for m in dims]


def _basis_changes(draws, inverted):
    """Step generator: the matrices of the `draw_invertible` draws `draws`
    (a QR step), and the inverses of the first `inverted` (an inverse
    step)."""
    mats = yield from invertibles_from(draws)
    return mats, (yield [(np.linalg.inv, m) for m in mats[:inverted]])


def _build_based_complex(draw, mats, invs):
    """The complex of a `_draw_based_complex` draw, from the matrices of its
    basis-change draws and their inverses."""
    n, hdims, pairs, dims, diagonals, _ = draw
    # canonical block differentials
    ds = []
    for i in range(1, n + 1):
        d = np.zeros((dims[i - 1], dims[i]), dtype=complex)
        row0 = hdims[i - 1] + (pairs[i - 2] if i - 1 > 0 else 0)
        col0 = hdims[i]
        for k, v in enumerate(diagonals[i - 1]):
            d[row0 + k, col0 + k] = v
        ds.append(d)
    # random changes of basis
    nds = [invs[i - 1] @ ds[i - 1] @ mats[i] for i in range(1, n + 1)]
    nhb = [invs[i] @ np.eye(dims[i], hdims[i], dtype=complex) for i in range(n + 1)]
    return BasedChainComplex(dims, nds, direction="chain", homology_bases=nhb)


def random_block_sum_ses(rng):
    """A short exact sequence C' >-> C' (+) C'' ->> C'' with block bases and
    generically mixed homology bases on the middle complex."""
    return run_alone(_block_sum_ses(_draw_block_sum_ses(rng)))


def _draw_block_sum_ses(rng):
    """Every random number of `random_block_sum_ses`, drawn in its order:
    C', then C'' at C''s top degree (a draw of another degree only consumes
    its random numbers), then the mixing of the middle homology bases."""
    first = _draw_based_complex(rng, 3)
    while True:
        second = _draw_based_complex(rng, 3)
        if second[0] == first[0]:
            break
    return first, second, [draw_invertible(rng, k1 + k2)
                           for k1, k2 in zip(first[1], second[1])]


def _block_sum_ses(draw):
    """Step generator: the sequence (c1, total, c2, incl, proj) of a
    `_draw_block_sum_ses` draw."""
    first, second, mixes = draw
    k1, k2 = len(first[5]), len(second[5])
    mats, invs = yield from _basis_changes(first[5] + second[5] + mixes, k1 + k2)
    c1 = _build_based_complex(first, mats[:k1], invs[:k1])
    c2 = _build_based_complex(second, mats[k1:k1 + k2], invs[k1:])
    return _block_sum(c1, c2, mats[k1 + k2:])


def _block_sum(c1, c2, mixes):
    """The sequence C' >-> C' (+) C'' ->> C'' of `random_block_sum_ses`, its
    middle homology bases mixed by `mixes` (one matrix per degree)."""
    n = c1.top_degree
    dims = [c1.dims[i] + c2.dims[i] for i in range(n + 1)]
    ds = []
    for i in range(1, n + 1):
        d = np.zeros((dims[i - 1], dims[i]), dtype=complex)
        d[:c1.dims[i - 1], :c1.dims[i]] = c1.boundaries[i - 1]
        d[c1.dims[i - 1]:, c1.dims[i]:] = c2.boundaries[i - 1]
        ds.append(d)
    hb = []
    for i in range(n + 1):
        k1 = c1.homology_bases[i].shape[1]
        k2 = c2.homology_bases[i].shape[1]
        z = np.zeros((dims[i], k1 + k2), dtype=complex)
        z[:c1.dims[i], :k1] = c1.homology_bases[i]
        z[c1.dims[i]:, k1:] = c2.homology_bases[i]
        if k1 + k2:
            z = z @ mixes[i]
        hb.append(z)
    total = BasedChainComplex(dims, ds, direction="chain", homology_bases=hb)
    incl = [np.eye(dims[i], c1.dims[i], dtype=complex) for i in range(n + 1)]
    proj = [np.eye(c2.dims[i], dims[i], c1.dims[i], dtype=complex) for i in range(n + 1)]
    return c1, total, c2, incl, proj


def _attempt(fn, *args, **kwargs):
    """fn(*args, **kwargs), or the ChainComplexError or FibtorError it
    raised, kept without its traceback for a loop in draw order to raise."""
    try:
        return fn(*args, **kwargs)
    except (ChainComplexError, FibtorError) as exc:
        return exc.with_traceback(None)


# -- representation samplers ----------------------------------------------------


def _each(results):
    """The results of a stacked call in order, raising each refusal where
    a loop over the points one at a time would have raised it."""
    for result in results:
        yield _valid(result)


def _trefoil_su2_samples(count, rng):
    fk = trefoil()
    pts = sample_fixed_locus(fk, count, rng, kind="su2")
    return fk, list(_each(lift_characters_to_reps(fk, pts, flavor=SU2)))


def _fig8_samples(count, rng):
    fk = figure_eight()
    pts = (sample_fixed_locus(fk, (count + 1) // 2, rng, kind="real")
           + sample_fixed_locus(fk, count // 2, rng))
    return fk, pts, list(_each(lift_characters_to_reps(fk, pts)))


def _random_hyperbolic_torus_rep(rng, pres):
    """A nontrivial representation of Z^2 by commuting diagonalizable
    matrices, conjugated away from normal form."""
    lam = cmath.exp(0.5 * rng.standard_normal() + 1j * rng.uniform(0.3, 2.8))
    mu = cmath.exp(0.5 * rng.standard_normal() + 1j * rng.uniform(0.3, 2.8))
    m = np.diag([lam, 1.0 / lam])
    l = np.diag([mu, 1.0 / mu])
    rep = Representation(pres, [m, l], flavor=SL2C)
    return random_conjugate(rep, rng)


def _random_irreducible_pair(rng):
    while True:
        x1, x2, x3 = (complex(rng.uniform(-2.2, 2.2), rng.uniform(-1.2, 1.2))
                      for _ in range(3))
        if abs(commutator_trace(x1, x2, x3) - 2.0) > 0.2:
            return x1, x2, x3


# -- the checks -----------------------------------------------------------------


def check_torsion_core_basis_change(rng, perturb=False):
    """Basis-change formula over 100 random complexes."""
    # every random number first, in the order of a complex-by-complex loop:
    # each complex, its chain basis changes, then its homology basis changes;
    # then one generator per complex, run as one stack
    draws = []
    for _ in range(100):
        draw = _draw_based_complex(rng, 4)
        draws.append((draw, [draw_invertible(rng, m) for m in draw[3]],
                      [draw_invertible(rng, k) for k in draw[1] if k]))
    worst = 0.0
    for residual in run_stack([_basis_change_residual(*d) for d in draws]):
        worst = max(worst, _valid(residual))
    if perturb:
        worst += 1e-3
    return worst <= 1e-8, "max relative residual %.2e over 100 complexes" % worst


def _basis_change_residual(draw, changes, mixes):
    """Step generator: the relative residual of the basis-change formula on
    the complex of the `_draw_based_complex` draw `draw`, its chain bases
    changed by the matrices of the draws `changes` and its homology bases
    further changed by those of `mixes`, one per degree of nonzero
    homology."""
    k = len(changes)
    mats, invs = yield from _basis_changes(draw[5] + changes + mixes, 2 * k)
    own, changes, mixes = mats[:k], mats[k:2 * k], mats[2 * k:]
    cx = _build_based_complex(draw, own, invs[:k])
    dets = yield [(np.linalg.det, m) for m in mixes + [c.T for c in changes]]
    det_hs, det_cs = iter(dets[:len(mixes)]), dets[len(mixes):]
    t0 = yield from _torsion(cx)
    t1 = yield from _torsion(_basis_change(cx, changes, invs[k:], mixes))
    expected_ratio = 1.0 + 0j
    for i, h in enumerate(cx.homology_bases):
        det_h = next(det_hs) if h.shape[1] else 1.0 + 0j
        expected_ratio *= (complex(det_cs[i]) / det_h) ** ((-1) ** i)
    return abs(t1 - t0 * expected_ratio) / abs(t0 * expected_ratio)


def _basis_change(cx, mats, invs, mixes):
    """`cx` with its chain bases changed by `mats` (inverses `invs`) and
    its homology bases further changed by `mixes`, one per degree of
    nonzero homology."""
    n = cx.top_degree
    nds = [invs[i - 1] @ cx.boundaries[i - 1] @ mats[i] for i in range(1, n + 1)]
    nhb, mixes = [], iter(mixes)
    for i in range(n + 1):
        nh = invs[i] @ cx.homology_bases[i]
        nhb.append(nh @ next(mixes) if nh.shape[1] else nh)
    return BasedChainComplex(cx.dims, nds, direction="chain", homology_bases=nhb)


def check_torsion_core_choice_invariance(rng, perturb=False):
    """Torsion does not depend on the internal b^i and lift choices."""
    worst = 0.0
    for _ in range(100):
        cx = random_based_complex(rng)
        t0 = torsion(cx)
        t1 = torsion(cx, rng=rng)
        worst = max(worst, abs(t1 - t0) / abs(t0))
    return worst <= 1e-8, "max relative deviation %.2e over 100 re-randomizations" % worst


def check_torsion_core_multiplicativity(rng, perturb=False):
    """Multiplicativity lemma on 50 random block-sum short exact sequences,
    including the sign exponents."""
    # every sequence drawn first, in the order of a sequence-by-sequence
    # loop; then built, and checked, as one stack
    draws = [_draw_block_sum_ses(rng) for _ in range(50)]
    worst = 0.0
    sign_used = set()
    for checked in run_stack([_checked_ses(draw) for draw in draws]):
        residual, parts = _valid(checked)
        scale = max(1.0, abs(parts["total"]))
        worst = max(worst, residual / scale)
        sign_used.add((parts["alpha"] + parts["epsilon"]) % 2)
    detail = "max scaled residual %.2e; sign exponents hit: %s" % (
        worst, sorted(sign_used))
    return worst <= 1e-7 and len(sign_used) == 2, detail


def _checked_ses(draw):
    """Step generator: `multiplicativity_check` on the sequence of a
    `_draw_block_sum_ses` draw."""
    return (yield from _multiplicativity(*(yield from _block_sum_ses(draw))))


def check_cohomology_dims(rng, perturb=False):
    """Twisted cohomology dimensions: torus (1,2,1); rank-2 free group
    (0,3); trefoil and figure-eight exteriors (0,1,1)."""
    # every representation first, in the order of a rep-by-rep loop, then
    # their homology as one stack; a refused sample waits for the reps
    # drawn before it, as the loop met it
    t2 = GroupPresentation(["m", "l"], ["m l M L"])
    cases = [("torus rep", [1, 2, 1], _random_hyperbolic_torus_rep(rng, t2))
             for _ in range(10)]
    free2 = GroupPresentation(["a", "b"], [])
    for _ in range(10):
        a, b = _normal_form_pair(*_random_irreducible_pair(rng))
        cases.append(("free-group rep", [0, 3, 0],
                      Representation(free2, [a, b], flavor=SL2C)))
    refused = None
    try:
        fk_t, reps = _trefoil_su2_samples(4, rng)
        fk_f, _, reps_f = _fig8_samples(4, rng)
    except FibtorError as exc:
        refused = exc
    else:
        cases += [("%s exterior" % fk.name, [0, 1, 1], rep)
                  for fk, rr in ((fk_t, reps), (fk_f, reps_f)) for rep in rr]
    cxs = [_attempt(twisted_cochain_complex, rep) for _, _, rep in cases]
    found = iter(homologies([cx for cx in cxs if not isinstance(cx, Exception)]))
    for (what, want, _), cx in zip(cases, cxs):
        _valid(cx)
        dims = _valid(next(found)).dims
        if dims != want:
            return False, "%s gave dims %r" % (what, dims)
    _valid(refused)
    return True, "torus (1,2,1) x10; free rank 2 (0,3) x10; exteriors (0,1,1) x8"


def check_trefoil_third(rng, perturb=False):
    """>= 20 irreducible SU(2) representations on the trefoil locus all give
    torsion -1/3 within 1e-9, in under 5 seconds."""
    start = time.monotonic()
    fk, reps = _trefoil_su2_samples(20, rng)
    worst = 0.0
    for report in _each(main_theorem_torsions(fk, reps)):
        value = report.torsion
        if perturb:
            value += 1e-3
        worst = max(worst, abs(value - (-1.0 / 3.0)))
    elapsed = time.monotonic() - start
    ok = worst <= 1e-9 and elapsed < 5.0
    return ok, "max |T + 1/3| = %.2e over 20 SU(2) reps in %.2f s" % (worst, elapsed)


def check_trefoil_eigenvalues(rng, perturb=False):
    """Twisted monodromy spectrum is {1, e^{2 pi i/3}, e^{-2 pi i/3}}."""
    fk, reps = _trefoil_su2_samples(20, rng)
    expected = [1.0, cmath.exp(2j * cmath.pi / 3), cmath.exp(-2j * cmath.pi / 3)]
    worst = 0.0
    for act in _each(monodromy_actions(fk, reps)):
        evs = np.linalg.eigvals(act.quotient)
        worst = max(worst, multiset_distance(evs, expected))
    return worst <= 1e-8, "max eigenvalue deviation %.2e over 20 reps" % worst


def check_torus_crosscheck_23(rng, perturb=False):
    """Closed form for torus(2,3) at (1,1) equals the trefoil pipeline."""
    closed = torus_closed_form(2, 3, 1, 1)
    fk, reps = _trefoil_su2_samples(1, rng)
    pipeline = main_theorem_torsion(fk, reps[0]).torsion
    diff = abs(closed - pipeline)
    return diff <= 1e-10, "closed form %.12f vs pipeline %.12f (diff %.2e)" % (
        closed, pipeline.real, diff)


def check_fig8_locus_formula(rng, perturb=False):
    """Figure-eight: pipeline torsion equals 1/(3 - 2(x1+x2)) on >= 20 locus
    points (real and complex), and T^2 = 1/(17 + 4 I_gamma) with
    I_gamma = x1^2 + x2^2 - x1 - x2 - 2."""
    fk, pts, reps = _fig8_samples(20, rng)
    worst_f = worst_sq = 0.0
    for pt, report in zip(pts, _each(main_theorem_torsions(fk, reps))):
        value = report.torsion
        s = pt[0] + pt[1]
        worst_f = max(worst_f, abs(value - 1.0 / (3.0 - 2.0 * s)))
        igamma = pt[0] ** 2 + pt[1] ** 2 - pt[0] - pt[1] - 2.0
        worst_sq = max(worst_sq, abs(value ** 2 - 1.0 / (17.0 + 4.0 * igamma)))
    ok = worst_f <= 1e-8 and worst_sq <= 1e-8
    return ok, "max |T - 1/(3-2s)| = %.2e, max |T^2 - 1/(17+4I)| = %.2e over 20 points" % (
        worst_f, worst_sq)


def check_fig8_holonomy_fifth(rng, perturb=False):
    """Both holonomy lifts rho+- give torsion 1/5 within 1e-9.

    (The pipeline computes -1/3 at the parabolic-meridian representations;
    see README, "The figure-eight holonomy value".  The check keeps the
    pinned value and reports the computed one.  Acceptance criterion 05
    runs `fig8_holonomy_third`, which pins -1/3.)"""
    fk = figure_eight()
    values = [main_theorem_torsion(fk, holonomy_representation(fk, sign)).torsion
              for sign in (1, -1)]
    worst = max(abs(v - 0.2) for v in values)
    detail = "computed T(rho+) = %s, T(rho-) = %s; |T - 1/5| = %.3g" % (
        _fmt(values[0]), _fmt(values[1]), worst)
    return worst <= 1e-9, detail


def check_fig8_holonomy_third(rng, perturb=False):
    """Both holonomy lifts rho+- give torsion -1/3 within 1e-9, with the
    longitude oracle independent of the eigenvalues: tr rho(lambda) = -2
    (every SL2 lift of a hyperbolic holonomy) and T^2 (17 + 4 tr rho(lambda))
    = 1 (Porti's longitude formula)."""
    worst_t = worst_tr = worst_sq = 0.0
    fk = figure_eight()
    for sign in (1, -1):
        rep = holonomy_representation(fk, sign)
        value = main_theorem_torsion(fk, rep).torsion
        trace = complex(np.trace(rep.evaluate_word(fk.longitude_word())))
        worst_t = max(worst_t, abs(value - (-1.0 / 3.0)))
        worst_tr = max(worst_tr, abs(trace - (-2.0)))
        worst_sq = max(worst_sq, abs(value ** 2 * (17.0 + 4.0 * trace) - 1.0))
    ok = max(worst_t, worst_tr, worst_sq) <= 1e-9
    return ok, ("max |T + 1/3| = %.2e, max |tr rho(lambda) + 2| = %.2e, "
                "max |T^2 (17 + 4 tr) - 1| = %.2e over rho+-" % (
                    worst_t, worst_tr, worst_sq))


def check_epsilon0_values(rng, perturb=False):
    """eps0(trefoil) = +1 and eps0(figure_eight) = -1, exactly."""
    e_t = epsilon0(trefoil())
    e_f = epsilon0(figure_eight())
    return (e_t, e_f) == (1, -1), "trefoil %+d, figure_eight %+d" % (e_t, e_f)


def check_wang_identities(rng, perturb=False):
    """wang = prod(1 - lambda_i) and wang * main = -eps0 for both catalog
    knots over sampled representations; the mapping-cone short exact
    sequence also satisfies the multiplicativity lemma, and the torsion of
    the exterior complex times the Wang torsion is -1 in the tied bases."""
    worst_prod = worst_pair = worst_mult = worst_norm = 0.0
    fk_t, reps_t = _trefoil_su2_samples(4, rng)
    fk_f, _, reps_f = _fig8_samples(4, rng)
    for fk, reps in ((fk_t, reps_t), (fk_f, reps_f)):
        e0 = epsilon0(fk)
        for wang, report, residual, product in wang_identities(fk, reps):
            direct = np.prod([1.0 - lam for lam in report.eigenvalues])
            worst_prod = max(worst_prod, abs(wang - direct))
            worst_pair = max(worst_pair, abs(wang * report.torsion + e0))
            worst_mult = max(worst_mult, residual)
            worst_norm = max(worst_norm, abs(product + 1.0))
    ok = max(worst_prod, worst_pair, worst_mult, worst_norm) <= 1e-8
    return ok, ("|wang - prod| %.2e, |wang*main + eps0| %.2e, "
                "mult residual %.2e, |Tor(C)Tor(W) + 1| %.2e" %
                (worst_prod, worst_pair, worst_mult, worst_norm))


def check_dual_oracle(rng, perturb=False):
    """Cohomology-pipeline and trace-Jacobian eigenvalue multisets agree on
    every genus-one sample.

    Samples whose spectrum is nearly defective are re-drawn: individual
    eigenvalues of a matrix with a repeated eigenvalue are only sqrt(eps)
    accurate, so the comparison is ill-posed there (the symmetric functions
    entering the torsion stay stable, which the other checks cover)."""
    worst = 0.0
    count = 0
    fk_t, reps_t = _trefoil_su2_samples(6, rng)
    fk_f, _, reps_f = _fig8_samples(14, rng)
    for fk, reps in ((fk_t, reps_t), (fk_f, reps_f)):
        jacs = [np.linalg.eigvals(fk.trace_map.jacobian(fk.character_of(rep)))
                for rep in reps]
        kept = [k for k, jac in enumerate(jacs) if _min_pairwise_gap(jac) >= 1e-3]
        for k, act in zip(kept, _each(monodromy_actions(fk, [reps[k] for k in kept]))):
            coh = np.linalg.eigvals(act.quotient)
            worst = max(worst, multiset_distance(coh, jacs[k]))
            count += 1
    return (worst <= 1e-8 and count >= 12,
            "max multiset distance %.2e over %d samples" % (worst, count))


def _min_pairwise_gap(values):
    values = list(values)
    gaps = [abs(values[i] - values[j])
            for i in range(len(values)) for j in range(i + 1, len(values))]
    return min(gaps, default=float("inf"))


def check_conjugation_invariance(rng, perturb=False):
    """Torsion is unchanged under 10 random conjugations per sampled rep."""
    worst = 0.0
    fk_t, reps_t = _trefoil_su2_samples(3, rng)
    fk_f, _, reps_f = _fig8_samples(3, rng)
    # every conjugate is drawn first, in the order of a rep-by-rep loop; each
    # knot's reps and their conjugates then make one stack
    drawn = [(fk, [[rep] + [random_conjugate(rep, rng) for _ in range(10)]
                   for rep in reps])
             for fk, reps in ((fk_t, reps_t), (fk_f, reps_f))]
    for fk, families in drawn:
        reports = _each(main_theorem_torsions(fk, sum(families, [])))
        for family in families:
            base = next(reports).torsion
            for _ in family[1:]:
                worst = max(worst, abs(next(reports).torsion - base))
    return worst <= 1e-8, "max |T(g rho g^-1) - T(rho)| = %.2e" % worst


def multiset_distance(a, b):
    """Greedy matching distance between two complex multisets.

    Robust against the sort instability of conjugate pairs whose real parts
    agree to rounding; exact whenever one multiset is a small perturbation
    of the other."""
    a = [complex(z) for z in a]
    b = [complex(z) for z in b]
    if len(a) != len(b):
        return float("inf")
    worst = 0.0
    b = list(b)
    for x in a:
        j = min(range(len(b)), key=lambda k: abs(x - b[k]))
        worst = max(worst, abs(x - b[j]))
        b.pop(j)
    return worst


def _fmt(z):
    if abs(z.imag) < 1e-12:
        return "%.10f" % z.real
    return "%.10f%+.10fj" % (z.real, z.imag)


CHECKS = [
    ("torsion_core_basis_change", check_torsion_core_basis_change),
    ("torsion_core_choice_invariance", check_torsion_core_choice_invariance),
    ("torsion_core_multiplicativity", check_torsion_core_multiplicativity),
    ("cohomology_dims", check_cohomology_dims),
    ("trefoil_third", check_trefoil_third),
    ("trefoil_eigenvalues", check_trefoil_eigenvalues),
    ("torus_crosscheck_23", check_torus_crosscheck_23),
    ("fig8_locus_formula", check_fig8_locus_formula),
    ("fig8_holonomy_fifth", check_fig8_holonomy_fifth),
    ("fig8_holonomy_third", check_fig8_holonomy_third),
    ("epsilon0_values", check_epsilon0_values),
    ("wang_identities", check_wang_identities),
    ("dual_oracle_agreement", check_dual_oracle),
    ("conjugation_invariance", check_conjugation_invariance),
]


def run_checks(name_filter=None, seed=0, perturb=False):
    """Run (a filtered subset of) the registered checks.

    Returns a list of (check id, passed, detail).  `perturb` injects a
    deliberate error into the trefoil value as a negative control.
    """
    results = []
    for name, fn in CHECKS:
        if name_filter and name_filter not in name:
            continue
        rng = np.random.default_rng(seed)
        try:
            ok, detail = fn(rng, perturb=perturb)
        except Exception as exc:  # a crash is a failure, not an abort
            ok, detail = False, "raised %s: %s" % (type(exc).__name__, exc)
        results.append((name, ok, detail))
    return results
