"""Generic torsion engine: homology, torsion, signs, multiplicativity."""

import copy
import sys

import numpy as np
import pytest

from fibtor import (
    BasedChainComplex,
    ChainComplexError,
    figure_eight,
    holonomy_representation,
    homologies,
    homology,
    multiplicativity_check,
    multiplicativity_signs,
    sign_determined_torsion,
    torsion,
    wang_exact_sequence,
)
from fibtor.linalg import RANK_TOL, _rank, column_space, nullspace
from fibtor.rep import twisted_cochain_complex
from fibtor.torsion import (
    HomologyData,
    _det,
    _lstsq,
    _multiplicativity,
    _scaled_unitaries,
    _singular_values,
    _svd,
    _torsion,
    random_invertible,
    run_stack,
    sign_parity,
)
from fibtor.verify import CHECKS, random_based_complex, random_block_sum_ses


# -- homology ------------------------------------------------------------------

def test_homology_zero_boundary():
    cx = BasedChainComplex([2, 3], [np.zeros((2, 3))])
    assert homology(cx).dims == [2, 3]


def test_homology_multiplication_by_two():
    cx = BasedChainComplex([1, 1], [np.array([[2.0]])])
    assert homology(cx).dims == [0, 0]


def test_homology_ranks_under_the_complexs_cutoff():
    # a singular value of 1e-6 counts under the default cutoff and not under
    # 1e-3, in either direction and after normalizing to the chain convention
    d = np.diag([1.0, 1e-6])
    for direction in ("chain", "cochain"):
        fine = BasedChainComplex([2, 2], [d], direction=direction, tol=1e-9)
        coarse = BasedChainComplex([2, 2], [d], direction=direction, tol=1e-3)
        assert homology(fine).dims == homology(fine.to_chain()).dims == [0, 0]
        assert homology(coarse).dims == homology(coarse.to_chain()).dims == [1, 1]


def test_dd_nonzero_rejected():
    d2 = np.array([[1.0]])
    d1 = np.array([[1.0]])
    with pytest.raises(ChainComplexError):
        BasedChainComplex([1, 1, 1], [d1, d2])


def test_euler_characteristic_matches_homology():
    rng = np.random.default_rng(5)
    for _ in range(20):
        cx = random_based_complex(rng)
        hdims = homology(cx).dims
        chi_chain = sum((-1) ** i * d for i, d in enumerate(cx.dims))
        chi_hom = sum((-1) ** i * d for i, d in enumerate(hdims))
        assert chi_chain == chi_hom


def test_homology_reads_cycles_boundaries_and_lifts_off_one_svd():
    # reference: linalg's nullspace and column_space of each boundary matrix,
    # in both the chain and the cochain direction
    rng = np.random.default_rng(11)
    for _ in range(30):
        cx = random_based_complex(rng)
        rev = BasedChainComplex(list(reversed(cx.dims)), list(reversed(cx.boundaries)),
                                direction="cochain")
        for c in (cx, rev):
            h = homology(c)
            arriving = [np.zeros((m, 0)) for m in c.dims]
            for k, d in enumerate(c.boundaries):
                arriving[k if c.direction == "chain" else k + 1] = d
            for i in range(len(c.dims)):
                d = c.differential_out(i)
                assert np.array_equal(h.cycles[i], nullspace(d))
                assert np.array_equal(h.boundaries[i], column_space(arriving[i]))
                b = h.lifts[i]
                assert np.allclose(b.conj().T @ b, np.eye(b.shape[1]))
                assert b.shape[1] == _rank(np.linalg.svd(d, compute_uv=False), RANK_TOL)
                if b.shape[1]:
                    image = d @ b
                    B = h.boundaries[i - 1 if c.direction == "chain" else i + 1]
                    assert B.shape[1] == b.shape[1] == _rank(
                        np.linalg.svd(image, compute_uv=False), RANK_TOL)
                    assert np.allclose(B @ (B.conj().T @ image), image)


# -- torsion: pinned examples ----------------------------------------------------

def test_torsion_identity_boundary():
    cx = BasedChainComplex([1, 1], [np.array([[1.0]])])
    assert torsion(cx) == pytest.approx(1.0)


def test_torsion_multiplication_by_two():
    # one factor 2^{-1} at degree zero, nothing else
    cx = BasedChainComplex([1, 1], [np.array([[2.0]])])
    assert torsion(cx) == pytest.approx(0.5)


def test_torsion_requires_homology_bases():
    cx = BasedChainComplex([2, 3], [np.zeros((2, 3))])
    with pytest.raises(ChainComplexError):
        torsion(cx)


def test_homology_bases_need_one_entry_per_degree():
    with pytest.raises(ChainComplexError, match="expected 2 homology bases, got 1"):
        BasedChainComplex([1, 2], [np.array([[1.0, 0.0]])],
                          homology_bases=[None])


def test_torsion_rejects_non_cycle_basis():
    d = np.array([[1.0, 0.0]])
    bad = np.array([[1.0], [0.0]])  # not in ker d
    with pytest.raises(ChainComplexError):
        torsion(BasedChainComplex([1, 2], [d], homology_bases=[None, bad]))


def test_torsion_rejects_basis_off_the_cycle_space():
    # the cycle test d @ h ~ 0 passes (|d @ h| = 1e-10), but d has rank one
    # under the cutoff, so the third coordinate 1e-3 lies off the cycles
    cx = BasedChainComplex([1, 3, 0], [[[0, 0, 1e-7]], np.zeros((3, 0))],
                           homology_bases=[None, [[1, 0], [0, 1], [1e-3, 0]], None])
    with pytest.raises(ChainComplexError, match="degree 1 lies off the cycle space"):
        torsion(cx)


def test_torsion_rejects_cycles_dependent_in_homology():
    # C_2 -> C_1 maps onto e1, so e1 is a boundary: alone it is the zero
    # class, and beside e2 the cycle e2 + e1 repeats the class of e2
    for m, bad in ((2, [[1.0], [0.0]]),
                   (3, [[0.0, 1.0], [1.0, 1.0], [0.0, 0.0]])):
        d2 = np.eye(m, 1)
        cx = BasedChainComplex([0, m, 1], [np.zeros((0, m)), d2],
                               homology_bases=[None, np.array(bad), None])
        assert homology(cx).dims == [0, m - 1, 0]
        with pytest.raises(ChainComplexError, match="degree 1 do not span the homology"):
            torsion(cx)


def test_sign_determined_on_acyclic_equals_plain():
    rng = np.random.default_rng(11)
    # acyclic: invertible square boundary
    m = random_invertible(rng, 4)
    cx = BasedChainComplex([4, 4], [m])
    assert sign_determined_torsion(cx) == pytest.approx(torsion(cx))


def test_sign_determined_single_degree():
    cx = BasedChainComplex([1], [], homology_bases=[np.array([[1.0]])])
    assert sign_parity(cx.dims, homology(cx).dims) == 1
    assert sign_determined_torsion(cx) == pytest.approx(-1.0)


def test_sign_determined_empty_complex():
    cx = BasedChainComplex([], [])
    assert sign_determined_torsion(cx) == pytest.approx(1.0)


def test_all_zero_complex_has_torsion_exactly_one():
    cx = BasedChainComplex([0, 0, 0], [np.zeros((0, 0))] * 2)
    assert torsion(cx) == 1
    assert sign_determined_torsion(cx) == 1


def test_wang_shaped_complex_synthetic():
    # 0 -> F -> F^3 -> F^3 -> F -> 0 with middle map I - diag(1,2,3) and the
    # unit direction last: torsion is (1-2)(1-3) = 2
    last = np.zeros((3, 1), dtype=complex)
    last[2, 0] = 1.0
    mid = np.eye(3) - np.diag([1.0, 2.0, 3.0])
    # reorder so the kernel direction of the middle map is the last basis vector
    perm = np.array([[0, 0, 1.0], [1, 0, 0], [0, 1, 0]])
    mid = perm.T @ mid @ perm
    cx = BasedChainComplex([1, 3, 3, 1], [last, mid, last.T.copy()],
                           direction="cochain")
    assert torsion(cx) == pytest.approx(2.0)


# -- torsion: properties ---------------------------------------------------------

def test_torsion_independent_of_internal_choices():
    rng = np.random.default_rng(23)
    for _ in range(100):
        cx = random_based_complex(rng)
        t0 = torsion(cx)
        t1 = torsion(cx, rng=rng)
        assert abs(t1 - t0) <= 1e-8 * abs(t0)


def test_basis_change_formula():
    rng = np.random.default_rng(31)
    for _ in range(100):
        cx = random_based_complex(rng)
        t0 = torsion(cx)
        n = cx.top_degree
        mats = [random_invertible(rng, m) for m in cx.dims]
        nds = [np.linalg.inv(mats[i - 1]) @ cx.boundaries[i - 1] @ mats[i]
               for i in range(1, n + 1)]
        ratio = 1.0 + 0j
        nhb = []
        for i in range(n + 1):
            h = cx.homology_bases[i]
            nh = np.linalg.inv(mats[i]) @ h
            det_h = 1.0 + 0j
            if h.shape[1]:
                q = random_invertible(rng, h.shape[1])
                nh = nh @ q
                det_h = np.linalg.det(q)
            det_c = np.linalg.det(mats[i]) if cx.dims[i] else 1.0 + 0j
            ratio *= (det_c / det_h) ** ((-1) ** i)
            nhb.append(nh)
        t1 = torsion(BasedChainComplex(cx.dims, nds, homology_bases=nhb))
        assert abs(t1 - t0 * ratio) <= 1e-8 * abs(t0 * ratio)


def test_cochain_chain_directions_consistent():
    # reversing a chain complex and its bases leaves the homology dims reversed
    rng = np.random.default_rng(3)
    cx = random_based_complex(rng)
    rev = BasedChainComplex(list(reversed(cx.dims)),
                            list(reversed(cx.boundaries)),
                            direction="cochain",
                            homology_bases=list(reversed(cx.homology_bases)))
    assert homology(rev).dims == list(reversed(homology(cx).dims))
    assert torsion(rev.to_chain()) == pytest.approx(torsion(rev))


# -- multiplicativity -------------------------------------------------------------

def test_multiplicativity_signs_zero():
    z = [0, 0, 0]
    assert multiplicativity_signs(z, z, z, z, z) == (0, 0)


def test_multiplicativity_signs_twisted_wang_dims():
    # chain-normalized dimension data of the genus-one mapping-torus setup:
    # sub = exterior complex, middle = quotient = fiber complex
    sub_dims, sub_h = [6, 9, 3], [1, 1, 0]
    fib_dims, fib_h = [6, 3], [0, 3]          # fiber complex at its own length
    fib_dims3, fib_h3 = fib_dims + [0], fib_h + [0]
    alpha, eps = multiplicativity_signs(sub_dims, fib_dims3,
                                        sub_h, fib_h3, fib_h3)
    assert (alpha, eps) == (1, 0)


def test_multiplicativity_signs_real_wang_dims():
    sub_dims, sub_h = [2, 3, 1], [0, 1, 1]
    fib_dims, fib_h = [2, 1], [2, 1]
    fib_dims3, fib_h3 = fib_dims + [0], fib_h + [0]
    alpha, eps = multiplicativity_signs(sub_dims, fib_dims3,
                                        sub_h, fib_h3, fib_h3)
    assert (alpha, eps) == (1, 1)


def test_multiplicativity_block_sums():
    rng = np.random.default_rng(41)
    seen_signs = set()
    for _ in range(50):
        cs, ct, cq, incl, proj = random_block_sum_ses(rng)
        residual, parts = multiplicativity_check(cs, ct, cq, incl, proj)
        assert residual <= 1e-7 * max(1.0, abs(parts["total"]))
        seen_signs.add((parts["alpha"] + parts["epsilon"]) % 2)
    # the sign exponent must actually matter across the sample
    assert seen_signs == {0, 1}


def test_each_entry_point_decomposes_each_complex_once(monkeypatch):
    rng = np.random.default_rng(59)
    cx = random_based_complex(rng)
    assert sum(cx.dims)
    twin = _fresh_copy(cx)
    ses = random_block_sum_ses(rng)
    module = sys.modules["fibtor.torsion"]  # fibtor.torsion is also a function
    calls = []
    original = module._homology

    def counting(cx):
        calls.append(cx)
        return original(cx)

    # every decomposition is a `_homology` step generator: count the ones
    # made
    monkeypatch.setattr(module, "_homology", counting)
    fk = figure_eight()
    wang = wang_exact_sequence(fk, holonomy_representation(fk, 1))
    assert all(c.homology_bases is None for c in wang[:3])
    # a complex is decomposed on first use and keeps the result: sub, total,
    # quotient and the long exact sequence make 4 complexes, and a second
    # check on the same sequence decomposes only its new long exact sequence,
    # whether its complexes carry homology bases or not (the Wang sequence)
    for run, expected in ((lambda: torsion(cx), 1),
                          (lambda: torsion(cx, rng=rng), 0),
                          (lambda: sign_determined_torsion(cx), 0),
                          (lambda: sign_determined_torsion(twin), 1),
                          (lambda: multiplicativity_check(*ses), 4),
                          (lambda: multiplicativity_check(*ses), 1),
                          (lambda: multiplicativity_check(*wang), 4),
                          (lambda: multiplicativity_check(*wang), 1)):
        calls.clear()
        run()
        assert len(calls) == expected


def test_wang_identities_decompose_five_complexes_per_sample(monkeypatch):
    module = sys.modules["fibtor.torsion"]
    calls = []
    original = module._homology

    def counting(cx):
        calls.append(cx)
        return original(cx)

    monkeypatch.setattr(module, "_homology", counting)
    # 8 samples, each decomposing its Wang complex, the sub, total and
    # quotient of its Wang exact sequence and their long exact sequence; the
    # exterior's torsion in the tied bases reads the total's decomposition
    assert dict(CHECKS)["wang_identities"](np.random.default_rng(0))[0]
    assert len(calls) == 40


# the numpy calls the two stacked random-complex checks make at seed 0, one
# per function and tuple of argument shapes in a step: the counts of the
# stage-by-stage stacks that came before the step generators.  A generator
# whose number of steps came to depend on its data would split a batch across
# steps and raise the count.
BATCHED_CALLS_AT_SEED_0 = {"torsion_core_multiplicativity": 380,
                           "torsion_core_basis_change": 122}


@pytest.mark.parametrize("name", sorted(BATCHED_CALLS_AT_SEED_0))
def test_stacked_checks_keep_their_batches(monkeypatch, name):
    module = sys.modules["fibtor.torsion"]
    groups = []
    original = module.batched

    def counting(calls):
        groups.append(len({(c[0],) + tuple(a.shape for a in c[1:]) for c in calls}))
        return original(calls)

    monkeypatch.setattr(module, "batched", counting)
    assert dict(CHECKS)[name](np.random.default_rng(0))[0]
    assert 0 < sum(groups) <= BATCHED_CALLS_AT_SEED_0[name]


def _fresh_copy(cx):
    bases = cx.homology_bases
    return BasedChainComplex(
        list(cx.dims), [d.copy() for d in cx.boundaries], direction=cx.direction,
        homology_bases=None if bases is None else [None if h is None else h.copy()
                                                   for h in bases],
        tol=cx.tol)


def test_second_torsion_runs_no_svd(monkeypatch):
    rng = np.random.default_rng(61)
    cx = random_based_complex(rng)
    while not any(d.size for d in cx.boundaries):
        cx = random_based_complex(rng)
    module = sys.modules["fibtor.torsion"]
    svds = []
    original = module._svd

    def counting(a):
        svds.append(a)
        return original(a)

    # `_svd` is the decomposition's one SVD, run on stacks of equal shapes
    monkeypatch.setattr(module, "_svd", counting)
    torsion(cx)
    assert all(any(a.shape[1:] == d.shape and any(np.array_equal(m, d) for m in a)
                   for a in svds) for d in cx.boundaries if d.size)
    svds.clear()
    torsion(cx, rng=rng)
    assert svds == []


def test_kept_decomposition_matches_a_fresh_complex():
    # torsion of a complex that keeps its decomposition equals, bit for bit,
    # the torsion of a fresh complex built from copies of the same arrays
    rng = np.random.default_rng(67)
    for _ in range(50):
        cx = random_based_complex(rng)
        first = torsion(cx)
        torsion(cx, rng=rng)
        fresh = _fresh_copy(cx)
        assert torsion(cx) == first == torsion(fresh)
        assert sign_determined_torsion(cx) == sign_determined_torsion(_fresh_copy(cx))
    # a cochain complex: the twisted complex of the figure-eight exterior,
    # based in its computed homology
    tc = twisted_cochain_complex(holonomy_representation(figure_eight(), 1))
    cx = BasedChainComplex(tc.dims, tc.boundaries, direction="cochain",
                           homology_bases=homology(tc).homology, tol=tc.tol)
    assert cx.to_chain() is cx.to_chain()
    first = torsion(cx)
    assert torsion(cx, rng=rng) == pytest.approx(first)
    assert torsion(cx) == first == torsion(_fresh_copy(cx))
    assert sign_determined_torsion(cx) == sign_determined_torsion(_fresh_copy(cx))


# -- the verify generators keep their draws -----------------------------------------

def test_random_invertible_matches_its_reference():
    # the diagonal scaling as a broadcast product, bit for bit the matrix product
    for n in range(7):
        rng = np.random.default_rng(71 + n)
        for _ in range(20):
            ref_rng = copy.deepcopy(rng)
            got = random_invertible(rng, n)
            if n:
                q, _ = np.linalg.qr(ref_rng.standard_normal((n, n))
                                    + 1j * ref_rng.standard_normal((n, n)))
                ref = q @ np.diag(np.exp(0.3 * ref_rng.standard_normal(n)))
            else:
                ref = np.eye(0, dtype=complex)
            assert got.tobytes() == ref.tobytes()
            assert rng.bit_generator.state == ref_rng.bit_generator.state


def test_random_based_complex_supplies_one_vector_per_homology_dimension():
    for seed in range(300):
        cx = random_based_complex(np.random.default_rng(seed))
        assert [h.shape[1] for h in cx.homology_bases] == homology(cx).dims


def test_multiplicativity_trivial_sub():
    rng = np.random.default_rng(43)
    c2 = random_based_complex(rng)
    n = c2.top_degree
    zero = BasedChainComplex([0] * (n + 1),
                             [np.zeros((0, 0))] * n,
                             homology_bases=[np.zeros((0, 0))] * (n + 1))
    incl = [np.zeros((c2.dims[i], 0)) for i in range(n + 1)]
    proj = [np.eye(c2.dims[i]) for i in range(n + 1)]
    residual, _ = multiplicativity_check(zero, c2, c2, incl, proj)
    assert residual <= 1e-9


def test_multiplicativity_rejects_non_exact():
    rng = np.random.default_rng(47)
    cs, ct, cq, incl, proj = random_block_sum_ses(rng)
    bad = [p.copy() for p in proj]
    bad[0] = np.zeros_like(bad[0])
    with pytest.raises(ChainComplexError):
        multiplicativity_check(cs, ct, cq, incl, bad)


def test_multiplicativity_rejects_incompatible_bases():
    rng = np.random.default_rng(53)
    cs, ct, cq, incl, proj = random_block_sum_ses(rng)
    incl = [m.copy() for m in incl]
    # the first degree whose inclusion has a column (degree 1 at this seed)
    i = next(i for i, m in enumerate(incl) if m.shape[1])
    incl[i][:, 0] *= 2.0  # [c/c'c''] = 2
    with pytest.raises(ChainComplexError, match="bases incompatible at degree %d" % i):
        multiplicativity_check(cs, ct, cq, incl, proj)


def _unit_complex(direction="chain"):
    """Two degrees of dimension 1 joined by the differential 1: acyclic."""
    return BasedChainComplex([1, 1], [np.eye(1)], direction=direction)


def test_multiplicativity_rejects_mixed_directions():
    c = _unit_complex()
    with pytest.raises(ChainComplexError, match="must share the direction convention"):
        multiplicativity_check(_unit_complex("cochain"), c, c,
                               [np.eye(1)] * 2, [np.eye(1)] * 2)


def test_multiplicativity_rejects_mismatched_degree_ranges():
    c = _unit_complex()
    with pytest.raises(ChainComplexError, match="must share the degree range"):
        multiplicativity_check(BasedChainComplex([0], []), c, c,
                               [np.zeros((1, 0))], [np.eye(1)])


def test_multiplicativity_rejects_non_injective_inclusion():
    c = _unit_complex()
    zero = BasedChainComplex([0, 0], [np.zeros((0, 0))])
    with pytest.raises(ChainComplexError, match="inclusion not injective at degree 0"):
        multiplicativity_check(c, c, zero, [np.zeros((1, 1)), np.eye(1)],
                               [np.zeros((0, 1))] * 2)


def test_multiplicativity_rejects_projection_not_killing_the_sub():
    c = _unit_complex()
    total = BasedChainComplex([2, 2], [np.eye(2)])
    first = np.array([[1.0], [0.0]])
    with pytest.raises(ChainComplexError, match="proj o incl != 0 at degree 0"):
        multiplicativity_check(c, total, c, [first] * 2, [first.T] * 2)


# -- stacks ----------------------------------------------------------------------


def _outcome(result):
    """What a call gave, in bytes: the error's class and message, or the
    shape and bytes of every array in the result."""
    if isinstance(result, Exception):
        return type(result), str(result)
    if isinstance(result, HomologyData):
        return tuple(tuple((a.shape, a.tobytes()) for a in getattr(result, field))
                     for field in ("cycles", "boundaries", "homology", "lifts"))
    if isinstance(result, tuple):  # a multiplicativity check's (residual, parts)
        residual, parts = result
        return (np.float64(residual).tobytes(),
                {k: np.complex128(v).tobytes() for k, v in parts.items()})
    return np.complex128(result).tobytes()


def _alone(fn, *args):
    try:
        return _outcome(fn(*args))
    except (ChainComplexError, np.linalg.LinAlgError) as exc:
        return _outcome(exc)


def _mixed_complexes():
    """Complexes of many shapes, in both directions, and four that torsion
    refuses, each for its own reason."""
    rng = np.random.default_rng(73)
    cxs = [random_based_complex(rng) for _ in range(40)]
    cxs += [BasedChainComplex(list(reversed(c.dims)), list(reversed(c.boundaries)),
                              direction="cochain",
                              homology_bases=list(reversed(c.homology_bases)))
            for c in cxs[:8]]
    # no reference basis: H^1 and H^2 of the figure-eight exterior
    cxs.append(twisted_cochain_complex(holonomy_representation(figure_eight(), 1)))
    # e1 is not a cycle of d = [1 0]
    cxs.append(BasedChainComplex([1, 2], [np.array([[1.0, 0.0]])],
                                 homology_bases=[None, np.array([[1.0], [0.0]])]))
    # every singular value above the cutoff, the determinant 1e-12 below it
    cxs.append(BasedChainComplex([3], [], homology_bases=[1e-4 * np.eye(3)]))
    return cxs


def _not_exact_sequence():
    """incl and proj pass every degreewise test, but the total complex's
    zero differential makes no chain map of them: its homology has nowhere
    to go in the long exact sequence."""
    unit = BasedChainComplex([1, 1], [np.eye(1)])
    total = BasedChainComplex([2, 2], [np.zeros((2, 2))])
    first, second = np.array([[1.0], [0.0]]), np.array([[0.0, 1.0]])
    return unit, total, unit, [first] * 2, [second] * 2


def test_stacked_homology_and_torsion_match_the_stacks_of_one():
    cxs = _mixed_complexes()
    assert len({tuple(c.dims) for c in cxs}) > 20
    fresh = [_fresh_copy(c) for c in cxs]
    assert [_outcome(r) for r in homologies(cxs)] == [_alone(homology, c) for c in fresh]
    fresh = [_fresh_copy(c) for c in cxs]
    stacked = [_outcome(r) for r in run_stack([_torsion(cx) for cx in cxs])]
    assert stacked == [_alone(torsion, c) for c in fresh]
    refusals = [message for result in stacked if isinstance(result, tuple)
                for message in result[1:]]
    for expected in ("but no reference basis", "is not made of cycles",
                     "degenerate lift system at degree 0"):
        assert any(expected in message for message in refusals), expected
    assert homologies([]) == run_stack([]) == []


def test_stacked_multiplicativity_matches_the_stack_of_one():
    rng = np.random.default_rng(79)
    seqs = [random_block_sum_ses(rng) for _ in range(30)]
    fk = figure_eight()
    seqs.append(wang_exact_sequence(fk, holonomy_representation(fk, 1)))
    seqs.append(_not_exact_sequence())
    cs, ct, cq, incl, proj = random_block_sum_ses(rng)
    incl = [m.copy() for m in incl]
    i = next(i for i, m in enumerate(incl) if m.shape[1])
    incl[i][:, 0] *= 2.0
    seqs.append((cs, ct, cq, incl, proj))
    unit = BasedChainComplex([1, 1], [np.eye(1)])
    seqs.append((BasedChainComplex([1, 1], [np.eye(1)], direction="cochain"), unit, unit,
                 [np.eye(1)] * 2, [np.eye(1)] * 2))
    fresh = [tuple(_fresh_copy(c) for c in seq[:3]) + tuple(seq[3:]) for seq in seqs]
    stacked = [_outcome(r) for r in run_stack([_multiplicativity(*s) for s in seqs])]
    assert stacked == [_alone(multiplicativity_check, *seq) for seq in fresh]
    assert stacked[-3] == (ChainComplexError,
                           "long exact sequence is not exact (sequence invalid)")
    assert "bases incompatible at degree %d" % i in stacked[-2][1]
    assert "direction convention" in stacked[-1][1]


# the details of the complex-by-complex loops the stacked checks replace, at
# the verify seeds the documentation runs: a draw out of order, or a bit moved
# in a torsion, changes them
PINNED_DETAILS = {
    0: ("max relative residual 1.37e-15 over 100 complexes",
        "max relative deviation 1.66e-15 over 100 re-randomizations",
        "max scaled residual 2.73e-15; sign exponents hit: [0, 1]"),
    1: ("max relative residual 2.00e-15 over 100 complexes",
        "max relative deviation 2.52e-15 over 100 re-randomizations",
        "max scaled residual 2.95e-15; sign exponents hit: [0, 1]"),
    2: ("max relative residual 2.12e-15 over 100 complexes",
        "max relative deviation 3.98e-15 over 100 re-randomizations",
        "max scaled residual 2.49e-15; sign exponents hit: [0, 1]"),
    3: ("max relative residual 2.41e-15 over 100 complexes",
        "max relative deviation 2.73e-15 over 100 re-randomizations",
        "max scaled residual 2.59e-15; sign exponents hit: [0, 1]"),
    523000: ("max relative residual 1.88e-15 over 100 complexes",
             "max relative deviation 4.47e-15 over 100 re-randomizations",
             "max scaled residual 3.23e-15; sign exponents hit: [0, 1]"),
}


@pytest.mark.parametrize("seed", sorted(PINNED_DETAILS))
def test_torsion_core_check_details_are_pinned(seed):
    checks = dict(CHECKS)
    names = ("torsion_core_basis_change", "torsion_core_choice_invariance",
             "torsion_core_multiplicativity")
    for name, detail in zip(names, PINNED_DETAILS[seed]):
        assert checks[name](np.random.default_rng(seed)) == (True, detail), name
    assert checks["cohomology_dims"](np.random.default_rng(seed)) == (
        True, "torus (1,2,1) x10; free rank 2 (0,3) x10; exteriors (0,1,1) x8")


# -- numpy's LAPACK gufuncs, called directly -----------------------------------


def _same_bits(x, y):
    x, y = np.asarray(x), np.asarray(y)
    return x.shape == y.shape and x.dtype == y.dtype and x.tobytes() == y.tobytes()


def _complex_stack(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


@pytest.mark.parametrize("m,n", [(1, 1), (5, 3), (3, 5), (4, 4)])
def test_lapack_wrappers_give_numpys_bits(m, n):
    rng = np.random.default_rng(m * 10 + n)
    a = _complex_stack(rng, 6, m, n)
    for got, want in zip(_svd(a), np.linalg.svd(a)):
        assert _same_bits(got, want)
    assert _same_bits(_singular_values(a), np.linalg.svd(a, compute_uv=False))
    square = _complex_stack(rng, 6, n, n)
    assert _same_bits(_det(square), np.linalg.det(square))
    draw = rng.standard_normal((6, n, n)), rng.standard_normal((6, n, n)), rng.standard_normal((6, n))
    q = np.linalg.qr(draw[0] + 1j * draw[1])[0] * np.exp(0.3 * draw[2])[..., None, :]
    assert _same_bits(_scaled_unitaries(*draw), q)
    for rows, rhs in ((m, 2), (m, 0), (0, 2), (0, 0)):
        a = _complex_stack(rng, 6, rows, n)
        # a last column this close to the first is cut by lstsq's rcond
        a[..., -1] = a[..., 0] + 1e-14 * a[..., -1]
        b = _complex_stack(rng, 6, rows, rhs)
        x = _lstsq(a, b)
        for k in range(6):
            assert _same_bits(x[k], np.linalg.lstsq(a[k], b[k], rcond=None)[0])


@pytest.mark.parametrize("count", [1, 64])
def test_lapack_wrappers_give_numpys_bits_at_fibered_shapes(count):
    # the stacks fibered passes: d0 and the B^1 view of its left singular
    # vectors (N, 6, 3), the intertwiner systems (N, 8, 4) and the
    # intertwiners' transposed views (N, 2, 2) for their determinants
    rng = np.random.default_rng(count)
    d0 = _complex_stack(rng, count, 6, 3)
    bspace = np.linalg.svd(d0)[0][:, :, :3]
    systems = _complex_stack(rng, count, 8, 4)
    for a in (d0, bspace, systems):
        for got, want in zip(_svd(a), np.linalg.svd(a)):
            assert _same_bits(got, want)
    T = _complex_stack(rng, count, 2, 2).swapaxes(1, 2)
    assert _same_bits(_det(T), np.linalg.det(T))
