"""Words, Fox calculus, SL2/SU(2) representations, adjoint action, twisted
cochain complexes."""

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
    lift_character_to_rep,
    lift_characters_to_reps,
    su2_pair,
    trefoil,
    twisted_cochain_complex,
)
from fibtor.rep import (
    SL2_BASIS,
    coboundary_matrix,
    fox_adjoint_blocks,
    prefix_products,
    sl2_inverse,
)
from fibtor.fibered import _normal_form_pair, sample_fixed_locus
from knots import fig8_locus_point

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
            rhs = fox_derivative(u, g) + GroupRingElement(
                [(c, u * w) for c, w in fox_derivative(v, g).terms])
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


def _pad_with_cancelling_pairs(gen, word, n, count):
    """The word with `count` pairs g^e g^-e inserted at random places."""
    letters = list(word)
    for _ in range(count):
        k = int(gen.integers(len(letters) + 1))
        g, e = int(gen.integers(n)), int(gen.choice([1, -1]))
        letters[k:k] = [(g, e), (g, -e)]
    return Word(letters)


def _fox_blocks(rep, word):
    """The Fox/adjoint blocks of a word from the representation's prefix stack."""
    letters = word.reduce().letters
    return fox_adjoint_blocks([(rep.prefix_stack(letters), letters)],
                              rep.presentation.generator_count)[0]


def test_fox_adjoint_blocks_equal_group_ring_path():
    # the prefix stack is the one kernel behind the Fox blocks, the relator
    # check and the lift; evaluate_word's @ loop is its reference, compared
    # by bytes, so a BLAS whose np.dot into the stack differs from @ fails here
    gen, pad = np.random.default_rng(31), np.random.default_rng(41)
    for n in (2, 4):
        pres = GroupPresentation(["a", "b", "c", "d"][:n], [])
        for flavor in (SL2C, SU2):
            rep = Representation(pres, _random_images(gen, n, flavor), flavor=flavor)
            for length in list(range(9)) + [17, 64, 150, 300]:
                w = _random_reduced_word(gen, n, length)
                blocks = _fox_blocks(rep, w)
                assert blocks.shape == (n, 3, 3)
                for i in range(n):
                    assert np.array_equal(
                        blocks[i], rep.evaluate_group_ring(fox_derivative(w, i)))
                stack = rep.prefix_stack(w.letters)
                assert stack.shape == (length + 1, 2, 2)
                assert stack[-1].tobytes() == rep.evaluate_word(w).tobytes()
                if length <= 17:
                    for k in range(length + 1):
                        assert stack[k].tobytes() == rep.evaluate_word(
                            Word(w.letters[:k])).tobytes()
                padded = _pad_with_cancelling_pairs(pad, w, n, 8)
                assert (rep.prefix_stack(padded.letters)[-1].tobytes()
                        == rep.evaluate_word(padded).tobytes())


def test_prefix_products_stacked_match_evaluate_word():
    # one point as a 2x2 matrix, as a stack of one and inside a stack of N:
    # at every point each entry is evaluate_word's @ loop, compared by bytes
    gen = np.random.default_rng(33)
    pres = GroupPresentation(["a", "b", "t"], [])
    for count in (1, 5):
        reps = [Representation(pres, _random_images(gen, 3, SL2C)) for _ in range(count)]
        images = [np.array([r.images[g] for r in reps]) for g in range(3)]
        inverses = [sl2_inverse(m) for m in images]
        for length in (0, 1, 2, 7, 40):
            w = _random_reduced_word(gen, 3, length)
            stacked = prefix_products(images, inverses, w.letters)
            assert stacked.shape == (length + 1, count, 2, 2)
            for n, rep in enumerate(reps):
                alone = prefix_products(rep.images, rep._inverses, w.letters)
                assert alone.shape == (length + 1, 2, 2)
                assert stacked[:, n].tobytes() == alone.tobytes()
                for k in range(length + 1):
                    assert alone[k].tobytes() == rep.evaluate_word(
                        Word(w.letters[:k])).tobytes()


def test_fox_adjoint_blocks_empty_word_and_cancelling_pairs():
    gen = np.random.default_rng(32)
    pres = GroupPresentation(["a", "b", "t"], [])
    rep = Representation(pres, _random_images(gen, 3, SL2C))
    assert np.array_equal(_fox_blocks(rep, Word()), np.zeros((3, 3, 3)))
    for _ in range(10):
        padded = _pad_with_cancelling_pairs(gen, _random_reduced_word(gen, 3, 40), 3, 8)
        blocks = _fox_blocks(rep, padded.reduce())
        # the group-ring normal form of d(padded)/dg is that of the reduced
        # word, so the sums agree exactly, not just to rounding
        for i in range(3):
            assert np.array_equal(
                blocks[i], rep.evaluate_group_ring(fox_derivative(padded, i)))


def test_fox_adjoint_blocks_stacked_match_each_point():
    # at N points the blocks come out as (n, N, 3, 3); at every point they
    # are the one-point blocks, compared by bytes
    gen = np.random.default_rng(34)
    pres = GroupPresentation(["a", "b", "t"], [])
    reps = [Representation(pres, _random_images(gen, 3, SL2C)) for _ in range(4)]
    images = [np.array([r.images[g] for r in reps]) for g in range(3)]
    inverses = [sl2_inverse(m) for m in images]
    for length in (0, 1, 5, 60):
        letters = _random_reduced_word(gen, 3, length).letters
        stacked = fox_adjoint_blocks([(prefix_products(images, inverses, letters), letters)], 3)[0]
        assert stacked.shape == (3, 4, 3, 3)
        for j, rep in enumerate(reps):
            alone = fox_adjoint_blocks([(rep.prefix_stack(letters), letters)], 3)[0]
            assert stacked[:, j].tobytes() == alone.tobytes()


def _figure_eight_fifth_reps():
    """figure_eight^5 lifted at 64 figure-eight locus points of a grid, and
    its words: the 89- and 144-letter fiber words, an empty word and the
    reduced relators."""
    fk = figure_eight().power(5)
    us = [complex(a, b) for a in np.linspace(-1.5, 0.4, 8) for b in np.linspace(0.2, 1.6, 8)]
    reps = lift_characters_to_reps(fk, [fig8_locus_point(u) for u in us])
    assert all(isinstance(rep, Representation) for rep in reps)
    short, long = (w.letters for w in fk.monodromy_words())
    assert (len(short), len(long)) == (89, 144)
    relators = [r.reduce().letters for r in fk.presentation().relators]
    return reps, [short, (), long] + relators


def test_one_fox_pass_matches_group_ring_path_on_long_words():
    # all the words in one call, at one point, as a stack of one and at 64
    # points: each block is evaluate_group_ring's Fox derivative, compared
    # by bytes (array_equal would let -0.0 stand for +0.0)
    reps, words = _figure_eight_fifth_reps()
    ng = reps[0].presentation.generator_count

    def blocks(rep, stack_of_one=False):
        pairs = [(rep.prefix_stack(w), w) for w in words]
        if stack_of_one:
            return fox_adjoint_blocks([(s[:, None], w) for s, w in pairs], ng)[:, :, 0]
        return fox_adjoint_blocks(pairs, ng)

    stacked = fox_adjoint_blocks(
        [(np.stack([rep.prefix_stack(w) for rep in reps], 1), w) for w in words], ng)
    assert stacked.shape == (len(words), ng, len(reps), 3, 3)
    for k, rep in enumerate(reps):
        alone = blocks(rep)
        assert alone.shape == (len(words), ng, 3, 3)
        assert stacked[:, :, k].tobytes() == alone.tobytes()
        if k % 21 == 0:  # the reference costs ~80 ms a point
            assert blocks(rep, stack_of_one=True).tobytes() == alone.tobytes()
            for j, w in enumerate(words):
                for i in range(ng):
                    reference = rep.evaluate_group_ring(fox_derivative(Word(w), i))
                    assert alone[j, i].tobytes() == reference.tobytes()
    assert fox_adjoint_blocks([], ng).shape == (0, ng, 3, 3)


def test_prefix_products_match_evaluate_word_on_long_words():
    # the 233 letters of figure_eight^5's fiber words at one point (every
    # prefix), as a stack of one and at 64 points (the whole word at each)
    reps, words = _figure_eight_fifth_reps()
    images = [np.array([rep.images[g] for rep in reps]) for g in range(3)]
    inverses = [sl2_inverse(m) for m in images]
    one = reps[0]
    for w in words[:3]:
        alone = prefix_products(one.images, one._inverses, w)
        assert alone.shape == (len(w) + 1, 2, 2)
        for k in range(len(w) + 1):
            assert alone[k].tobytes() == one.evaluate_word(Word(w[:k])).tobytes()
        of_one = prefix_products([m[:1] for m in images], [m[:1] for m in inverses], w)
        assert of_one.shape == (len(w) + 1, 1, 2, 2)
        assert of_one.tobytes() == alone.tobytes()
        stacked = prefix_products(images, inverses, w)
        assert stacked.shape == (len(w) + 1, len(reps), 2, 2)
        for n, rep in enumerate(reps):
            assert stacked[:, n].tobytes() == prefix_products(
                rep.images, rep._inverses, w).tobytes()
            assert stacked[-1, n].tobytes() == rep.evaluate_word(Word(w)).tobytes()


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
        image = g @ X @ gi
        direct = np.array([image[0, 0], image[0, 1], image[1, 0]])
        assert np.allclose(A[:, k], direct, atol=1e-12)


def _explicit_adjoint(g):
    """Ad(g) column by column: the (H, E, F) coordinates, entries 00, 01 and
    10, of (g @ b) @ sl2_inverse(g) for each basis element b."""
    gi = sl2_inverse(g)
    out = np.empty((3, 3), dtype=complex)
    for j, b in enumerate(SL2_BASIS):
        image = (g @ b) @ gi
        out[:, j] = [image[0, 0], image[0, 1], image[1, 0]]
    return out


def test_one_adjoint_for_single_matrices_stacks_and_coboundaries():
    # the single, stacked and coboundary forms of Ad repeat the explicit
    # conjugation bit for bit
    gs = [random_sl2() for _ in range(5)]
    for g in gs:
        assert adjoint(g).shape == (3, 3)
        assert adjoint(g).tobytes() == _explicit_adjoint(g).tobytes()
    stacked = adjoint(np.array(gs))
    assert stacked.shape == (5, 3, 3)
    for g, blk in zip(gs, stacked):
        assert blk.tobytes() == _explicit_adjoint(g).tobytes()
    d0 = coboundary_matrix(gs)
    assert d0.shape == (15, 3)
    for i, g in enumerate(gs):
        expected = _explicit_adjoint(g) - np.eye(3)
        assert d0[3 * i:3 * i + 3].tobytes() == expected.tobytes()


def test_adjoint_matches_explicit_conjugation_on_edge_inputs():
    # the lift's triangular normal-form pairs, the centre, signed zeros and a
    # real matrix, alone and as an (L, N, 2, 2) stack, compared by bytes;
    # a (2, 2) @ (2, 6) product g [H|E|F] flips signed zeros of the pairs
    gen = np.random.default_rng(35)
    triangular = [m for fk in (trefoil(), figure_eight())
                  for point in sample_fixed_locus(fk, 8, gen)
                  for m in _normal_form_pair(*point)]
    signed_zeros = np.array([[complex(-0.0, 1.0), complex(0.0, -0.0)],
                             [complex(-0.0, -0.0), complex(-0.0, -1.0)]])
    real = np.array([[2.0, 1.0], [1.0, 1.0]])
    cases = triangular + [np.eye(2), -np.eye(2), signed_zeros, real]
    for g in cases:
        # the reference runs on the complex matrix Ad runs on: negating a
        # complex -0.0 + 0j gives 0.0 - 0j, a real -0.0 gives 0.0 + 0j
        assert adjoint(g).tobytes() == _explicit_adjoint(np.asarray(g, complex)).tobytes()
    stack = np.array(cases).reshape(6, 6, 2, 2)
    stacked = adjoint(stack)
    assert stacked.shape == (6, 6, 3, 3)
    for index in np.ndindex(6, 6):
        assert stacked[index].tobytes() == _explicit_adjoint(stack[index]).tobytes()


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
    cx = twisted_cochain_complex(rep)
    assert cx.dims == [3, 6, 3]
    assert homology(cx).dims == [1, 2, 1]


def test_torus_abelian_h0_is_one():
    # both hyperbolic-diagonal and parabolic nontrivial abelian reps
    pres = GroupPresentation(["m", "l"], ["m l M L"])
    hyper = Representation(pres, [np.diag([2.0, 0.5]), np.diag([3.0, 1 / 3.0])])
    para = Representation(pres, [np.array([[1.0, 1.0], [0.0, 1.0]]),
                                 np.array([[1.0, -2.0], [0.0, 1.0]])])
    for rep in (hyper, para):
        dims = homology(twisted_cochain_complex(rep)).dims
        assert dims[0] == 1


def test_free_group_twisted_dimensions():
    pres = GroupPresentation(["a", "b"], [])
    while True:
        A, B = random_sl2(), random_sl2()
        if abs(commutator_trace(np.trace(A), np.trace(B), np.trace(A @ B)) - 2) > 0.3:
            break
    rep = Representation(pres, [A, B])
    cx = twisted_cochain_complex(rep)
    assert homology(cx).dims == [0, 3, 0]


def test_twisted_complex_euler_characteristic():
    pres, rep = _hyperbolic_torus_rep()
    cx = twisted_cochain_complex(rep)
    chi_cells = 3 * (1 - pres.generator_count + len(pres.relators))
    hdims = homology(cx).dims
    assert chi_cells == hdims[0] - hdims[1] + hdims[2]


def test_twisted_complex_rejects_non_representation():
    pres = GroupPresentation(["a", "b"], ["a b A B"])
    with pytest.raises(RelatorViolationError):
        rep = Representation(pres, [random_sl2(), random_sl2()], check=False)
        twisted_cochain_complex(rep)


def test_twisted_complex_matches_group_ring_assembly():
    gen = np.random.default_rng(33)
    pres, rep = _hyperbolic_torus_rep(conjugate=False)
    cases = [(pres, rep.conjugate(_random_images(gen, 1, SL2C)[0]))]
    for fk, point in ((trefoil(), (0.4, 0.4, 0.4)),
                      (figure_eight(), (0.3, 0.3 / (0.3 - 1.0), 0.3))):
        cases.append((fk.presentation(), lift_character_to_rep(fk, point)))
    for pres, rep in cases:
        d1 = twisted_cochain_complex(rep).boundaries[1]
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
