"""Generic torsion engine: determinants, homology, torsion, signs,
multiplicativity."""

import sys

import numpy as np
import pytest

from fibtor import (
    BasedChainComplex,
    ChainComplexError,
    change_of_basis_det,
    homology,
    multiplicativity_check,
    multiplicativity_signs,
    sign_determined_torsion,
    torsion,
)
from fibtor.linalg import column_space, nullspace, numerical_rank
from fibtor.torsion import random_invertible, sign_parity
from fibtor.verify import random_based_complex, random_block_sum_ses


# -- change of basis -----------------------------------------------------------

def test_change_of_basis_identity():
    b = np.eye(4)
    assert change_of_basis_det(b, b) == pytest.approx(1.0)


def test_change_of_basis_swap():
    b = list(np.eye(3))
    a = [b[1], b[0], b[2]]
    assert change_of_basis_det(a, b) == pytest.approx(-1.0)


def test_change_of_basis_scaling():
    b = list(np.eye(3))
    a = [2 * b[0], b[1], b[2]]
    assert change_of_basis_det(a, b) == pytest.approx(2.0)


def test_change_of_basis_singular_b():
    a = np.eye(2)
    b = np.array([[1.0, 0.0], [1.0, 0.0]])
    with pytest.raises(np.linalg.LinAlgError):
        change_of_basis_det(a, b)


def test_change_of_basis_mismatched():
    with pytest.raises(ValueError):
        change_of_basis_det(np.eye(2), np.eye(3))


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
                assert b.shape[1] == numerical_rank(d)
                if b.shape[1]:
                    image = d @ b
                    B = h.boundaries[i - 1 if c.direction == "chain" else i + 1]
                    assert B.shape[1] == numerical_rank(image) == b.shape[1]
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
        residual, parts = multiplicativity_check(cs, ct, cq, incl, proj,
                                                 return_parts=True)
        assert residual <= 1e-7 * max(1.0, abs(parts["total"]))
        seen_signs.add((parts["alpha"] + parts["epsilon"]) % 2)
    # the sign exponent must actually matter across the sample
    assert seen_signs == {0, 1}


def test_each_entry_point_decomposes_each_complex_once(monkeypatch):
    rng = np.random.default_rng(59)
    cx = random_based_complex(rng)
    assert sum(cx.dims)
    ses = random_block_sum_ses(rng)
    module = sys.modules["fibtor.torsion"]  # fibtor.torsion is also a function
    calls = []
    original = module.homology

    def counting(*args, **kwargs):
        calls.append(args[0])
        return original(*args, **kwargs)

    monkeypatch.setattr(module, "homology", counting)
    # sub, total, quotient and the long exact sequence: 4 complexes
    for run, expected in ((lambda: torsion(cx), 1),
                          (lambda: sign_determined_torsion(cx), 1),
                          (lambda: multiplicativity_check(*ses), 4)):
        calls.clear()
        run()
        assert len(calls) == expected


def test_multiplicativity_trivial_sub():
    rng = np.random.default_rng(43)
    c2 = random_based_complex(rng)
    n = c2.top_degree
    zero = BasedChainComplex([0] * (n + 1),
                             [np.zeros((0, 0))] * n,
                             homology_bases=[np.zeros((0, 0))] * (n + 1))
    incl = [np.zeros((c2.dims[i], 0)) for i in range(n + 1)]
    proj = [np.eye(c2.dims[i]) for i in range(n + 1)]
    assert multiplicativity_check(zero, c2, c2, incl, proj) <= 1e-9


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
    if incl[0].shape[1]:
        incl[0][:, 0] *= 2.0  # breaks [c/c'c''] = 1
        with pytest.raises(ChainComplexError):
            multiplicativity_check(cs, ct, cq, incl, proj)
