"""Words, Fox calculus, SL2/SU(2) representations, adjoint action, Killing
form, twisted cochain complexes."""

import cmath

import numpy as np
import pytest

from fibtor import (
    GroupPresentation,
    GroupRingElement,
    Representation,
    RelatorViolationError,
    SL2C,
    SU2,
    Word,
    adjoint,
    commutator_trace,
    figure_eight,
    fox_derivative,
    homology,
    killing_form,
    lift_character_to_rep,
    su2_pair,
    trefoil,
    twisted_cochain_complex,
)
from fibtor.rep import (
    SL2_BASIS,
    fixed_lie_subspace,
    fox_adjoint_blocks,
    lie_coordinates,
    sl2_inverse,
)

rng = np.random.default_rng(2024)


def random_sl2(scale=0.8):
    while True:
        g = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        g = g * scale
        if abs(np.linalg.det(g)) > 0.2:
            return g / cmath.sqrt(np.linalg.det(g))


# -- words ----------------------------------------------------------------------

def test_word_parse_and_print():
    w = Word.from_string("a B t", ["a", "b", "t"])
    assert w.letters == ((0, 1), (1, -1), (2, 1))
    assert w.to_string(["a", "b", "t"]) == "a B t"


def test_word_reduce():
    w = Word.from_string("a A b B a", ["a", "b"])
    assert w.reduce().letters == ((0, 1),)


def test_word_inverse():
    w = Word.from_string("a b", ["a", "b"])
    assert w.inverse().to_string(["a", "b"]) == "B A"


def test_unknown_generator_rejected():
    with pytest.raises(ValueError):
        Word.from_string("a c", ["a", "b"])


def test_presentation_json_roundtrip():
    pres = GroupPresentation(["a", "b", "t"], ["T a t B A", "T b t B A B"])
    again = GroupPresentation.from_json(pres.to_json())
    assert again.generators == pres.generators
    assert again.relators == pres.relators


# -- evaluation -------------------------------------------------------------------

def test_evaluate_empty_word_is_identity():
    pres = GroupPresentation(["a"], [])
    rep = Representation(pres, [random_sl2()])
    assert np.allclose(rep.evaluate_word(Word()), np.eye(2))


def test_evaluate_cancelling_pair_is_identity():
    pres = GroupPresentation(["a"], [])
    rep = Representation(pres, [random_sl2()])
    assert np.allclose(rep.evaluate_word("a A"), np.eye(2), atol=1e-12)


def test_evaluation_invariant_under_reduction():
    pres = GroupPresentation(["a", "b"], [])
    rep = Representation(pres, [random_sl2(), random_sl2()])
    w = Word.from_string("a b B a A b", ["a", "b"])
    assert np.allclose(rep.evaluate_word(w), rep.evaluate_word(w.reduce()),
                       atol=1e-10)


def test_relator_tolerance_enforced():
    pres = GroupPresentation(["a", "b"], ["a b A B"])  # forces commuting images
    with pytest.raises(RelatorViolationError):
        Representation(pres, [random_sl2(), random_sl2()])


# -- Fox calculus ------------------------------------------------------------------

def _w(text, names=("a", "b", "t")):
    return Word.from_string(text, list(names))


def test_fox_of_generator():
    assert fox_derivative(_w("a"), 0) == GroupRingElement([(1, Word())])


def test_fox_of_other_generator():
    assert fox_derivative(_w("b"), 0) == GroupRingElement([])


def test_fox_product_rule_right_factor():
    # d(uv)/dv = u for single letters
    assert fox_derivative(_w("a b"), 1) == GroupRingElement([(1, _w("a"))])


def test_fox_inverse_rule():
    assert fox_derivative(_w("A"), 0) == GroupRingElement([(-1, _w("A"))])


def test_fox_product_rule_random_words():
    names = ["a", "b", "t"]
    for _ in range(20):
        u = Word([(int(rng.integers(0, 3)), int(rng.integers(0, 2)) * 2 - 1)
                  for _ in range(int(rng.integers(0, 5)))])
        v = Word([(int(rng.integers(0, 3)), int(rng.integers(0, 2)) * 2 - 1)
                  for _ in range(int(rng.integers(0, 5)))])
        for g in range(3):
            lhs = fox_derivative(u * v, g)
            rhs = fox_derivative(u, g) + fox_derivative(v, g).left_multiply(u)
            assert lhs == rhs


def test_fox_fundamental_identity_under_evaluation():
    # sum_g Phi(dr/dg)(Ad_{rho(g)} - 1) = Ad_{rho(r)} - 1 = 0 for relators
    pres = GroupPresentation(["m", "l"], ["m l M L"])
    lam = cmath.exp(0.3 + 0.9j)
    rep = Representation(pres, [np.diag([lam, 1 / lam]),
                                np.diag([2.0, 0.5])])
    total = np.zeros((3, 3), dtype=complex)
    r = pres.relators[0]
    for g in range(2):
        total += rep.evaluate_group_ring(fox_derivative(r, g)) @ (
            adjoint(rep.images[g]) - np.eye(3))
    assert np.linalg.norm(total) < 1e-12


def test_group_ring_evaluation_examples():
    pres = GroupPresentation(["a", "b", "t"], [])
    rep = Representation(pres, [random_sl2(), random_sl2(), random_sl2()])
    one = GroupRingElement([(1, Word())])
    assert np.allclose(rep.evaluate_group_ring(one), np.eye(3))
    w = _w("a b T")
    diff = GroupRingElement([(1, w), (-1, w)])
    assert np.allclose(rep.evaluate_group_ring(diff), np.zeros((3, 3)))


def test_fig8_relator_fox_expansion_by_hand():
    # r = t^-1 a t (a b)^-1: dr/da = t^-1 - t^-1 a t b^-1 a^-1
    names = ["a", "b", "t"]
    r = _w("T a t B A")
    elem = fox_derivative(r, 0)
    expected = GroupRingElement([(1, _w("T")), (-1, _w("T a t B A"))])
    assert elem == expected
    pres = GroupPresentation(names, [])
    rep = Representation(pres, [random_sl2(), random_sl2(), random_sl2()])
    by_hand = rep.adjoint_of_word(_w("T")) - rep.adjoint_of_word(_w("T a t B A"))
    assert np.allclose(rep.evaluate_group_ring(elem), by_hand, atol=1e-10)


def _random_reduced_word(gen, n, length):
    letters = []
    while len(letters) < length:
        letter = (int(gen.integers(n)), int(gen.choice([1, -1])))
        if not letters or letters[-1] != (letter[0], -letter[1]):
            letters.append(letter)
    return Word(letters)


def _random_images(gen, n, flavor):
    """Generator images of moderate norm, so that products of a few hundred
    letters stay far from overflow."""
    images = []
    for _ in range(n):
        if flavor == SU2:
            q = gen.standard_normal(4)
            q /= np.linalg.norm(q)
            images.append(np.array([[q[0] + 1j * q[1], q[2] + 1j * q[3]],
                                    [-q[2] + 1j * q[3], q[0] - 1j * q[1]]]))
        else:
            g = np.eye(2) + 0.3 * (gen.standard_normal((2, 2))
                                   + 1j * gen.standard_normal((2, 2)))
            images.append(g / cmath.sqrt(np.linalg.det(g)))
    return images


def test_fox_adjoint_blocks_equal_group_ring_path():
    gen = np.random.default_rng(31)
    for n in (2, 4):
        pres = GroupPresentation(["a", "b", "c", "d"][:n], [])
        for flavor in (SL2C, SU2):
            rep = Representation(pres, _random_images(gen, n, flavor), flavor=flavor)
            for length in list(range(9)) + [17, 64, 150, 300]:
                w = _random_reduced_word(gen, n, length)
                blocks = fox_adjoint_blocks(rep, w)
                assert blocks.shape == (n, 3, 3)
                for i in range(n):
                    assert np.array_equal(
                        blocks[i], rep.evaluate_group_ring(fox_derivative(w, i)))


def test_fox_adjoint_blocks_empty_word_and_cancelling_pairs():
    gen = np.random.default_rng(32)
    pres = GroupPresentation(["a", "b", "t"], [])
    rep = Representation(pres, _random_images(gen, 3, SL2C))
    assert np.array_equal(fox_adjoint_blocks(rep, Word()), np.zeros((3, 3, 3)))
    for _ in range(10):
        letters = list(_random_reduced_word(gen, 3, 40))
        for _ in range(8):
            k = int(gen.integers(len(letters) + 1))
            g, e = int(gen.integers(3)), int(gen.choice([1, -1]))
            letters[k:k] = [(g, e), (g, -e)]
        padded = Word(letters)
        blocks = fox_adjoint_blocks(rep, padded.reduce())
        # the group-ring normal form of d(padded)/dg is that of the reduced
        # word, so the sums agree exactly, not just to rounding
        for i in range(3):
            assert np.array_equal(
                blocks[i], rep.evaluate_group_ring(fox_derivative(padded, i)))


# -- adjoint and Killing form --------------------------------------------------------

def test_adjoint_of_center_is_identity():
    assert np.allclose(adjoint(np.eye(2)), np.eye(3))
    assert np.allclose(adjoint(-np.eye(2)), np.eye(3))


def test_adjoint_of_diagonal_eigenvalues():
    lam = 1.3 + 0.4j
    lam /= abs(lam) ** 0  # keep as is; any unimodular-det matrix works
    g = np.diag([lam, 1 / lam])
    evs = np.sort_complex(np.linalg.eigvals(adjoint(g)))
    expected = np.sort_complex(np.array([1.0, lam ** 2, lam ** -2]))
    assert np.allclose(evs, expected, atol=1e-10)


def test_adjoint_determinant_one():
    for _ in range(10):
        assert abs(np.linalg.det(adjoint(random_sl2())) - 1.0) < 1e-10


def test_adjoint_is_homomorphism():
    for _ in range(10):
        g, h = random_sl2(), random_sl2()
        assert np.allclose(adjoint(g @ h), adjoint(g) @ adjoint(h), atol=1e-10)


def test_adjoint_matches_conjugation_on_basis():
    g = random_sl2()
    gi = sl2_inverse(g)
    A = adjoint(g)
    for k, X in enumerate(SL2_BASIS):
        direct = lie_coordinates(g @ X @ gi)
        assert np.allclose(A[:, k], direct, atol=1e-12)


def test_killing_form_values_sl2():
    H = np.array([1.0, 0.0, 0.0])
    E = np.array([0.0, 1.0, 0.0])
    F = np.array([0.0, 0.0, 1.0])
    assert killing_form(H, H) == pytest.approx(8.0)
    assert killing_form(E, F) == pytest.approx(4.0)
    assert killing_form(E, E) == pytest.approx(0.0)


def test_killing_form_values_su2():
    i = np.array([1.0, 0.0, 0.0])
    assert killing_form(i, i, flavor=SU2) == pytest.approx(-2.0)


def test_killing_form_ad_invariance():
    for _ in range(10):
        g = random_sl2()
        A = adjoint(g)
        u = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        v = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        assert abs(killing_form(A @ u, A @ v) - killing_form(u, v)) < 1e-9


# -- commutator trace ------------------------------------------------------------------

def test_commutator_trace_identity_point():
    assert commutator_trace(2.0, 2.0, 2.0) == pytest.approx(2.0)


def test_commutator_trace_origin():
    assert commutator_trace(0.0, 0.0, 0.0) == pytest.approx(-2.0)


def test_commutator_trace_against_matrices():
    for _ in range(10):
        A, B = random_sl2(), random_sl2()
        direct = np.trace(A @ B @ sl2_inverse(A) @ sl2_inverse(B))
        via_traces = commutator_trace(np.trace(A), np.trace(B), np.trace(A @ B))
        assert abs(direct - via_traces) < 1e-10


# -- twisted cochain complexes --------------------------------------------------------

def _hyperbolic_torus_rep(conjugate=True):
    pres = GroupPresentation(["m", "l"], ["m l M L"])
    lam = cmath.exp(0.4 + 1.1j)
    mu = cmath.exp(-0.2 + 0.7j)
    rep = Representation(pres, [np.diag([lam, 1 / lam]), np.diag([mu, 1 / mu])])
    if conjugate:
        rep = rep.conjugate(random_sl2())
    return pres, rep


def test_torus_twisted_dimensions():
    pres, rep = _hyperbolic_torus_rep()
    cx = twisted_cochain_complex(pres, rep)
    assert cx.dims == [3, 6, 3]
    assert homology(cx).dims == [1, 2, 1]


def test_torus_abelian_h0_is_one():
    # both hyperbolic-diagonal and parabolic nontrivial abelian reps
    pres = GroupPresentation(["m", "l"], ["m l M L"])
    hyper = Representation(pres, [np.diag([2.0, 0.5]), np.diag([3.0, 1 / 3.0])])
    para = Representation(pres, [np.array([[1.0, 1.0], [0.0, 1.0]]),
                                 np.array([[1.0, -2.0], [0.0, 1.0]])])
    for rep in (hyper, para):
        dims = homology(twisted_cochain_complex(pres, rep)).dims
        assert dims[0] == 1


def test_free_group_twisted_dimensions():
    pres = GroupPresentation(["a", "b"], [])
    while True:
        A, B = random_sl2(), random_sl2()
        if abs(commutator_trace(np.trace(A), np.trace(B), np.trace(A @ B)) - 2) > 0.3:
            break
    rep = Representation(pres, [A, B])
    cx = twisted_cochain_complex(pres, rep)
    assert homology(cx).dims == [0, 3, 0]
    assert fixed_lie_subspace([A, B]).shape[1] == 0


def test_twisted_complex_euler_characteristic():
    pres, rep = _hyperbolic_torus_rep()
    cx = twisted_cochain_complex(pres, rep)
    chi_cells = 3 * (1 - pres.generator_count + len(pres.relators))
    hdims = homology(cx).dims
    assert chi_cells == hdims[0] - hdims[1] + hdims[2]


def test_twisted_complex_rejects_non_representation():
    pres = GroupPresentation(["a", "b"], ["a b A B"])
    with pytest.raises(RelatorViolationError):
        rep = Representation(pres, [random_sl2(), random_sl2()], check=False)
        twisted_cochain_complex(pres, rep)


def test_twisted_complex_matches_group_ring_assembly():
    gen = np.random.default_rng(33)
    pres, rep = _hyperbolic_torus_rep(conjugate=False)
    cases = [(pres, rep.conjugate(_random_images(gen, 1, SL2C)[0]))]
    for fk, point in ((trefoil(), (0.4, 0.4, 0.4)),
                      (figure_eight(), (0.3, 0.3 / (0.3 - 1.0), 0.3))):
        cases.append((fk.presentation(), lift_character_to_rep(fk, point)))
    for pres, rep in cases:
        d1 = twisted_cochain_complex(pres, rep).boundaries[1]
        ng = pres.generator_count
        ref = np.zeros((3 * len(pres.relators), 3 * ng), dtype=complex)
        for k, r in enumerate(pres.relators):
            for i in range(ng):
                ref[3 * k:3 * k + 3, 3 * i:3 * i + 3] = rep.evaluate_group_ring(
                    fox_derivative(r, i))
        assert np.array_equal(d1, ref)


# -- SU(2) helpers ----------------------------------------------------------------------

def test_su2_pair_traces():
    for x in (0.5, 1.0, -0.9):
        A, B = su2_pair(x, x, x)
        for m in (A, B):
            assert np.linalg.norm(m @ m.conj().T - np.eye(2)) < 1e-12
            assert abs(np.linalg.det(m) - 1) < 1e-12
        assert np.trace(A).real == pytest.approx(x)
        assert np.trace(A @ B).real == pytest.approx(x)


def test_su2_pair_unrealizable():
    with pytest.raises(ValueError):
        su2_pair(1.9, 1.9, -1.9)


def test_su2_adjoint_is_rotation():
    A, B = su2_pair(0.7, -0.4, 1.1)
    for g in (A, B, A @ B):
        R = adjoint(g, flavor=SU2)
        assert np.allclose(R.imag, 0, atol=1e-12)
        assert np.allclose(R @ R.T, np.eye(3), atol=1e-10)
        assert np.linalg.det(R) == pytest.approx(1.0)
    assert np.allclose(adjoint(A @ B, flavor=SU2),
                       adjoint(A, flavor=SU2) @ adjoint(B, flavor=SU2),
                       atol=1e-10)
