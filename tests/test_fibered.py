"""Fibered-knot pipeline: monodromy matrices, eigenvalues, the torsion
formula, Wang identities, character lifting, torus closed form."""

import cmath
import json
import math
import random
import warnings

import mpmath
import numpy as np
import pytest
import sympy
from hypothesis import example, given, settings, strategies as st

from fibtor import (
    DegenerateMonodromyError,
    FiberedKnot,
    FibtorError,
    GroupPresentation,
    InvalidInputError,
    NonSimpleUnitEigenvalueError,
    NotFixedPointError,
    NoUnitEigenvalueError,
    ReducibleCharacterError,
    RelatorViolationError,
    Representation,
    SU2,
    TraceCoordMap,
    Word,
    abelianized_monodromy,
    eigenvalues_excluding_one,
    epsilon0,
    figure_eight,
    homology,
    lift_character_to_rep,
    lift_characters_to_reps,
    main_theorem_torsion,
    main_theorem_torsions,
    monodromy_actions,
    multiplicativity_check,
    torus_closed_form,
    trefoil,
    twisted_cochain_complex,
    wang_exact_sequence,
    wang_identities,
    wang_product_check,
    wang_sequence_torsion,
)
from fibtor.fibered import (
    _normal_form_pair,
    monodromy_action,
    random_conjugate,
    sample_fixed_locus,
)
from fibtor import fibered as fibered_module
from fibtor.cli import main as cli_main
from fibtor import rep as rep_module
from fibtor.linalg import column_space
from fibtor.verify import multiset_distance
from knots import fig8_locus_point
from sympy_traces import (X, fixed_locus_relations, jets, polynomials,
                          preserves_boundary_trace)

rng = np.random.default_rng(99)


# the figure-eight map (x3, x2 x3 - x1, x2 x3^2 - x1 x3 - x2) of the catalog docstring
FIG8_TRACE_MAP = (X[2], X[1] * X[2] - X[0], X[1] * X[2] ** 2 - X[0] * X[2] - X[1])
# the map of the identity monodromy a -> a, b -> b
IDENTITY_MAP = TraceCoordMap(Word([(0, 1)]), Word([(1, 1)]))


# -- monodromy bookkeeping -------------------------------------------------------

def test_abelianized_monodromy_trefoil():
    assert abelianized_monodromy(trefoil()).tolist() == [[0, 1], [-1, 1]]


def test_abelianized_monodromy_figure_eight():
    assert abelianized_monodromy(figure_eight()).tolist() == [[1, 1], [1, 2]]


def test_identity_monodromy_rejected():
    with pytest.raises(DegenerateMonodromyError):
        FiberedKnot("synthetic", 1, ["a", "b"], {"a": "a", "b": "b"})


def test_identity_monodromy_synthetic_bookkeeping():
    fk = FiberedKnot("synthetic", 1, ["a", "b"], {"a": "a", "b": "b"},
                     check_fibered=False)
    assert abelianized_monodromy(fk).tolist() == [[1, 0], [0, 1]]
    with pytest.raises(DegenerateMonodromyError):
        epsilon0(fk)


def test_power_composes_the_monodromy():
    fk = figure_eight()
    once = fk.power(1)
    assert (once.name, once.monodromy) == ("figure_eight^1", fk.monodromy)
    squared = fk.power(2)
    assert squared.name == "figure_eight^2"
    assert squared.fiber_generators == fk.fiber_generators and squared.meridian == "t"
    # phi(phi(a)) = phi(a) phi(b), phi(phi(b)) = phi(b) phi(a) phi(b)
    assert [w.to_string(["a", "b"]) for w in squared.monodromy_words()] == [
        "a b b a b", "b a b a b b a b"]
    # the trefoil's words carry inverses, and come out freely reduced
    assert all(w == w.reduce() for w in trefoil().power(2).monodromy_words())
    # M^3 = -I on H_1 of the trefoil's fiber, M^6 = I: the constructor refuses it
    assert abelianized_monodromy(trefoil().power(3)).tolist() == [[-1, 0], [0, -1]]
    with pytest.raises(DegenerateMonodromyError):
        trefoil().power(6)
    granny = FiberedKnot("granny", 2, ["a1", "b1", "a2", "b2"],
                         {"a1": "a1 B1 A1", "b1": "a1 b1", "a2": "a2 B2 A2", "b2": "a2 b2"},
                         meridian="m")
    assert granny.power(2).meridian == "m" and granny.power(2).trace_map is None


def test_epsilon0_values():
    assert epsilon0(trefoil()) == 1
    assert epsilon0(figure_eight()) == -1


def test_monodromy_words_must_avoid_meridian():
    with pytest.raises(ValueError):
        FiberedKnot("bad", 1, ["a", "b"], {"a": "a t", "b": "b"})


def test_longitude_word():
    fk = trefoil()
    assert fk.longitude_word().to_string(fk.fiber_generators) == "a b A B"


# -- twisted monodromy -------------------------------------------------------------

def test_trefoil_twisted_monodromy_eigenvalues():
    fk = trefoil()
    omega = cmath.exp(2j * cmath.pi / 3)
    expected = [1.0, omega, omega.conjugate()]
    for x in (0.3, 1.0, 1.5):
        rep = lift_character_to_rep(fk, (x, x, x), flavor=SU2)
        m = monodromy_action(fk, rep).quotient
        assert m.shape == (3, 3)
        assert multiset_distance(np.linalg.eigvals(m), expected) < 1e-9


def test_monodromy_action_needs_the_knot_presentation():
    # Fox blocks are read by generator position, so a representation whose
    # generators come in another order is refused rather than misread
    fk = trefoil()
    rep = lift_character_to_rep(fk, (1.0, 1.0, 1.0))
    swapped = Representation(GroupPresentation(["b", "a", "t"], []),
                             [rep.image(g) for g in ("b", "a", "t")])
    with pytest.raises(InvalidInputError):
        monodromy_action(fk, swapped)


def test_figure_eight_holonomy_unit_eigenvalue_simple():
    from fibtor import holonomy_representation
    fk = figure_eight()
    rep = holonomy_representation(fk, 1)
    m = monodromy_action(fk, rep).quotient
    evs = np.linalg.eigvals(m)
    near_one = np.sum(np.abs(evs - 1.0) < 1e-6)
    assert near_one == 1


def test_quotient_complement_choice_immaterial():
    fk = figure_eight()
    rep = lift_character_to_rep(fk, fig8_locus_point(0.3))
    g = rng.standard_normal((6, 3)) + 1j * rng.standard_normal((6, 3))
    act = monodromy_action(fk, rep)
    m0 = act.quotient
    comp = act.complement + 0.3 * act.coboundaries @ (
        rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))
    # the induced map in the perturbed complement: coordinates of the image
    # of comp in the frame (B^1, comp), with the B^1 part dropped
    frame = np.hstack([column_space(act.coboundaries), comp])
    m1 = np.linalg.solve(frame, act.full @ comp)[3:]
    assert multiset_distance(np.linalg.eigvals(m0), np.linalg.eigvals(m1)) < 1e-9


def test_unit_eigenvector_is_unique_up_to_scale():
    fk = figure_eight()
    rep = lift_character_to_rep(fk, fig8_locus_point(2.0 + 0.5j))
    m = monodromy_action(fk, rep).quotient
    assert np.linalg.matrix_rank(m - np.eye(3), tol=1e-8) == 2


def test_eigenvalues_excluding_one_diagonal():
    lams = eigenvalues_excluding_one(np.diag([1.0, 2.0, 3.0]))
    assert lams == [pytest.approx(2.0), pytest.approx(3.0)]


def test_eigenvalues_excluding_one_rejects_double_unit():
    with pytest.raises(NonSimpleUnitEigenvalueError):
        eigenvalues_excluding_one(np.diag([1.0, 1.0, 2.0]))


def test_eigenvalues_excluding_one_requires_unit():
    with pytest.raises(NoUnitEigenvalueError):
        eigenvalues_excluding_one(np.diag([2.0, 3.0]))


# -- the torsion formula --------------------------------------------------------------

def test_trefoil_torsion_su2_and_generic():
    fk = trefoil()
    for x in (0.2, 1.2, 1.9):
        rep = lift_character_to_rep(fk, (x, x, x), flavor=SU2)
        assert main_theorem_torsion(fk, rep).torsion == pytest.approx(-1.0 / 3.0,
                                                                      abs=1e-10)
    z = 0.7 + 0.9j
    rep = lift_character_to_rep(fk, (z, z, z))
    assert main_theorem_torsion(fk, rep).torsion == pytest.approx(-1.0 / 3.0,
                                                                  abs=1e-10)


def test_figure_eight_locus_formula():
    fk = figure_eight()
    for u in (0.5, -1.5, 3.0, 0.4 + 0.7j, -1.0 + 0.3j):
        pt = fig8_locus_point(u)
        rep = lift_character_to_rep(fk, pt)
        s = pt[0] + pt[1]
        value = main_theorem_torsion(fk, rep).torsion
        assert value == pytest.approx(1.0 / (3.0 - 2.0 * s), abs=1e-9)


def test_report_invariant_and_serialization():
    fk = figure_eight()
    rep = lift_character_to_rep(fk, fig8_locus_point(0.25))
    report = main_theorem_torsion(fk, rep)
    recon = -report.epsilon0 * np.prod([1.0 / (1.0 - lam)
                                        for lam in report.eigenvalues])
    assert report.torsion == pytest.approx(recon)
    data = report.to_dict()
    assert data["method"] == "cohomology"
    assert data["epsilon0"] == -1
    assert len(data["eigenvalues"]) == 2


def test_conjugation_invariance():
    fk = figure_eight()
    rep = lift_character_to_rep(fk, fig8_locus_point(-0.75))
    base = main_theorem_torsion(fk, rep).torsion
    for _ in range(10):
        conj = random_conjugate(rep, rng)
        assert main_theorem_torsion(fk, conj).torsion == pytest.approx(base,
                                                                       abs=1e-9)


def test_random_conjugate_stays_in_su2():
    rep = lift_character_to_rep(trefoil(), (0.5, 0.5, 0.5), flavor=SU2)
    conj = random_conjugate(rep, np.random.default_rng(5))
    assert conj.flavor == SU2
    for m in conj.images:
        assert np.allclose(m @ m.conj().T, np.eye(2), atol=1e-12)


def test_meridian_sign_does_not_change_torsion():
    # the lifts T and -T of the meridian differ by the center
    fk = figure_eight()
    rep = lift_character_to_rep(fk, fig8_locus_point(0.3))
    images = {g: rep.image(g) for g in fk.fiber_generators}
    images[fk.meridian] = -rep.image(fk.meridian)
    flipped = Representation(fk.presentation(), images)
    assert (main_theorem_torsion(fk, flipped).torsion
            == pytest.approx(main_theorem_torsion(fk, rep).torsion))


# -- Wang identities --------------------------------------------------------------------

def test_wang_torsion_trefoil_is_three():
    fk = trefoil()
    rep = lift_character_to_rep(fk, (1.0, 1.0, 1.0), flavor=SU2)
    assert wang_sequence_torsion(fk, rep) == pytest.approx(3.0, abs=1e-9)


def test_wang_times_main_is_minus_epsilon0():
    for fk, pts in ((trefoil(), [(0.4, 0.4, 0.4), (1.1, 1.1, 1.1)]),
                    (figure_eight(), [fig8_locus_point(0.5),
                                      fig8_locus_point(2.5 + 0.4j)])):
        for pt in pts:
            rep = lift_character_to_rep(fk, pt)
            wang = wang_sequence_torsion(fk, rep)
            main = main_theorem_torsion(fk, rep).torsion
            assert wang * main == pytest.approx(-epsilon0(fk), abs=1e-9)


def test_wang_exact_sequence_satisfies_multiplicativity():
    fk = trefoil()
    rep = lift_character_to_rep(fk, (0.8, 0.8, 0.8))
    residual, _ = multiplicativity_check(*wang_exact_sequence(fk, rep))
    assert residual <= 1e-8


def test_wang_product_normalization():
    for fk, pt in ((trefoil(), (1.4, 1.4, 1.4)),
                   (figure_eight(), fig8_locus_point(-2.0)),
                   (figure_eight(), fig8_locus_point(1.7 - 0.8j))):
        rep = lift_character_to_rep(fk, pt)
        assert wang_product_check(fk, rep) == pytest.approx(-1.0, abs=1e-9)


def _bits(z):
    return np.complex128(z).tobytes()


def test_wang_identities_match_the_one_by_one_values():
    for fk, pts in ((trefoil(), [(0.4, 0.4, 0.4), (1.1, 1.1, 1.1), (1.4, 1.4, 1.4)]),
                    (figure_eight(), [fig8_locus_point(u)
                                      for u in (0.5, 2.5 + 0.4j, -2.0, 1.7 - 0.8j)])):
        reps = lift_characters_to_reps(fk, pts)
        stacked = wang_identities(fk, reps)
        assert len(stacked) == len(reps)
        for rep, (wang, report, residual, product) in zip(reps, stacked):
            assert _bits(wang) == _bits(wang_sequence_torsion(fk, rep))
            alone = main_theorem_torsion(fk, rep)
            assert json.dumps(report.to_dict()) == json.dumps(alone.to_dict())
            assert _bits(residual) == _bits(
                multiplicativity_check(*wang_exact_sequence(fk, rep))[0])
            assert _bits(product) == _bits(wang_product_check(fk, rep))


def test_wang_identities_raise_the_first_refusal_in_order():
    fk = figure_eight()
    rep = lift_character_to_rep(fk, fig8_locus_point(0.5))
    first, second = ReducibleCharacterError("first"), NotFixedPointError("second")
    with pytest.raises(ReducibleCharacterError, match="first"):
        wang_identities(fk, [rep, first, second])
    assert wang_identities(fk, []) == []


@pytest.mark.parametrize("offset", [2e-9, 1e-7])
def test_wang_complex_with_unit_eigenvalue_just_off_one(monkeypatch, offset):
    # a unit eigenvalue at 1 - offset passes UNIT_EIGENVALUE_TOL, but a
    # roundoff-sized 1 - lambda_unit left on the diagonal of I - mq gave the
    # Wang complex spurious homology (2e-9, near the rank cutoff) or broke
    # d o d = 0 (1e-7)
    import fibtor.fibered as fibered
    original = fibered.monodromy_action

    def shifted(fk, rep):
        act = original(fk, rep)
        evs, vecs = np.linalg.eig(act.quotient)
        evs[np.argmin(abs(evs - 1.0))] = 1.0 - offset
        act.quotient = vecs @ np.diag(evs) @ np.linalg.inv(vecs)
        return act

    monkeypatch.setattr(fibered, "monodromy_action", shifted)
    fk = figure_eight()
    rep = lift_character_to_rep(fk, (0.3, 0.3 / (0.3 - 1.0), 0.3))
    lams = eigenvalues_excluding_one(shifted(fk, rep).quotient)
    assert wang_sequence_torsion(fk, rep) == pytest.approx(
        np.prod([1.0 - lam for lam in lams]), rel=1e-12)


def test_exterior_cohomology_dims():
    fk = figure_eight()
    rep = lift_character_to_rep(fk, fig8_locus_point(0.5))
    cx = twisted_cochain_complex(rep)
    assert homology(cx).dims == [0, 1, 1]


# -- trace-coordinate machinery ------------------------------------------------------------

def test_trefoil_jacobian_is_cyclic_permutation():
    fk = trefoil()
    jac = fk.trace_map.jacobian((0.3, 0.9, -1.2))
    assert np.allclose(jac, np.array([[0, 1, 0], [0, 0, 1], [1, 0, 0]]))
    evs = np.sort_complex(np.linalg.eigvals(jac))
    omega = cmath.exp(2j * cmath.pi / 3)
    assert np.allclose(evs, np.sort_complex(np.array([1, omega, np.conj(omega)])))


def test_identity_trace_map_jacobian():
    assert polynomials(IDENTITY_MAP) == X
    assert np.allclose(IDENTITY_MAP.jacobian((5.0, -2.0, 0.1)), np.eye(3))


def test_figure_eight_jacobian_at_origin():
    fk = figure_eight()
    jac = fk.trace_map.jacobian((0.0, 0.0, 0.0))
    assert np.allclose(jac, np.array([[0, 0, 1], [-1, 0, 0], [0, -1, 0]]))


def test_trace_map_matches_monodromy_traces():
    # P(x(rho)) equals the traces of rho o phi on sampled representations
    for fk in (trefoil(), figure_eight()):
        for pt in sample_fixed_locus(fk, 3, rng):
            rep = lift_character_to_rep(fk, pt)
            a1, b1 = (rep.evaluate_word(fk.monodromy[g])
                      for g in fk.fiber_generators)
            moved = (np.trace(a1), np.trace(b1), np.trace(a1 @ b1))
            predicted = fk.trace_map(fk.character_of(rep))
            assert np.allclose(moved, predicted, atol=1e-9)


def test_boundary_trace_preserved_symbolically():
    assert preserves_boundary_trace(trefoil().trace_map)
    assert preserves_boundary_trace(figure_eight().trace_map)
    assert not preserves_boundary_trace(TraceCoordMap(Word([(0, 1)]), Word([(0, 1)])))


def test_fixed_locus_relations():
    x1, x2, x3 = sympy.symbols("x1 x2 x3")

    def same_ideal(got, want):
        gens = (x1, x2, x3)
        gb_got = sympy.groebner(got, *gens, order="lex")
        gb_want = sympy.groebner(want, *gens, order="lex")
        return (all(gb_got.reduce(p)[1] == 0 for p in want)
                and all(gb_want.reduce(p)[1] == 0 for p in got))

    tref = fixed_locus_relations(trefoil().trace_map)
    assert same_ideal(tref, [x1 - x3, x2 - x3])
    fig = fixed_locus_relations(figure_eight().trace_map)
    # the locus is x3 = x1 together with x1 + x2 = x1 x2
    assert same_ideal(fig, [x1 - x3, x1 * x2 - x1 - x2])


def test_sampling_needs_a_locus_chart():
    fk = FiberedKnot.from_json(figure_eight().to_json())
    with pytest.raises(InvalidInputError, match="no locus chart"):
        sample_fixed_locus(fk, 1, rng)


def test_identity_trace_map_fixes_everything():
    assert fixed_locus_relations(IDENTITY_MAP) == []


def test_locus_samples_are_fixed_and_irreducible():
    for fk in (trefoil(), figure_eight()):
        for pt in sample_fixed_locus(fk, 5, rng, kind="complex"):
            moved = fk.trace_map(pt)
            assert np.allclose(moved, pt, atol=1e-9)


def _random_word(r, length):
    return Word([(r.randrange(2), r.choice((1, -1))) for _ in range(length)])


def test_trace_recurrence_matches_numeric_traces():
    # the trace recurrence against matrix products at one fixed SL2(C) pair
    point = (0.7 + 0.4j, -1.3 + 0.2j, 0.5 - 0.9j)
    A, B = _normal_form_pair(*point)
    images = {0: (A, np.linalg.inv(A)), 1: (B, np.linalg.inv(B))}
    r = random.Random(3)
    for length in range(17):
        for _ in range(12):
            w = _random_word(r, length)
            m = np.eye(2, dtype=complex)
            for g, e in w:
                m = m @ images[g][0 if e == 1 else 1]
            got = TraceCoordMap(w, Word([]))(point)[0]
            assert abs(got - np.trace(m)) <= 1e-9 * max(1.0, abs(np.trace(m)))
    assert polynomials(TraceCoordMap(Word([]), Word([]))) == (2, 2, 2)


def test_derived_trace_maps_match_catalog_docstring():
    # the hand-written maps of the catalog docstring
    x1, x2, x3 = X
    assert polynomials(trefoil().trace_map) == (x2, x3, x1)
    assert polynomials(figure_eight().trace_map) == FIG8_TRACE_MAP
    # a knot built without the catalog derives the same map
    bare = FiberedKnot("figure_eight", 1, ["a", "b"], {"a": "a b", "b": "b a b"})
    assert bare.locus_chart is None
    assert polynomials(bare.trace_map) == FIG8_TRACE_MAP


def test_trace_recurrence_gradients_are_exact():
    # on sympy symbols the recurrence's gradient is the derivative of its
    # value polynomial, and the complex Jacobian is lambdify's to rounding
    r = random.Random(8)
    points = [(complex(0.3, -1.1), complex(-0.0, 2.5), complex(-1.7, 0.0)),
              (complex(0.0, -0.0), complex(-0.0, -0.0), complex(-0.0, 1.5)),
              (0.5, -0.0, 2.0)]
    for _ in range(40):
        words = {g: _random_word(r, r.randrange(7)) for g in "ab"}
        tm = FiberedKnot("k", 1, ["a", "b"], words, check_fibered=False).trace_map
        exact = jets(tm)
        for value, *gradient in exact:
            assert tuple(gradient) == tuple(sympy.diff(value, x) for x in X)
        f = sympy.lambdify(X, [list(jet[1:]) for jet in exact], "numpy")
        for pt in points:
            want = np.array(f(*pt), dtype=complex)
            got = tm.jacobian(pt)
            assert np.all(np.abs(got - want) <= 1e-12 * np.maximum(1.0, np.abs(want)))


def _mp_jacobian(tm, point):
    """The Jacobian by the same recurrence in 60-digit arithmetic."""
    with mpmath.workdps(60):
        return np.array([[complex(v) for v in jet[1:]]
                         for jet in tm.jets([mpmath.mpc(z) for z in point])])


def test_jacobian_on_long_words_matches_60_digits():
    # figure_eight^k up to k = 5 (233 letters): no cancellation grows with
    # the word, as it did when the expanded polynomials were evaluated
    for k in range(1, 6):
        tm = figure_eight().power(k).trace_map
        for u in (-1.2, -0.7 + 0.5j, 0.6 + 0.3j, 0.3 + 0.7j):
            point = fig8_locus_point(u)
            want = _mp_jacobian(tm, point)
            assert np.abs(tm.jacobian(point) - want).max() <= 1e-9 * np.abs(want).max()


def test_long_word_jacobian_eigenvalues_match_the_cohomology_route():
    # figure_eight^5 read from a knot file, as compute reads it
    fk = FiberedKnot.from_json(figure_eight().power(5).to_json())
    for u in (-1.2, -0.7 + 0.5j, 0.6 + 0.3j, 0.3 + 0.7j):
        report = main_theorem_torsion(fk, lift_character_to_rep(fk, fig8_locus_point(u)))
        scale = max(1.0, max(map(abs, report.eigenvalues)))
        assert multiset_distance(report.eigenvalues + [1.0],
                                 report.jacobian_eigenvalues) <= 1e-9 * scale


def test_jacobian_torsion_matches_pipeline():
    # T = -eps0 * prod 1/(1 - mu_i) over the trace-map Jacobian's
    # non-unit eigenvalues mu_i: the second route, with no Fox calculus
    fk = figure_eight()
    pt = fig8_locus_point(0.6 + 0.4j)
    rep = lift_character_to_rep(fk, pt)
    coh = main_theorem_torsion(fk, rep)
    mus = eigenvalues_excluding_one(fk.trace_map.jacobian(pt))
    jac = -epsilon0(fk) * np.prod([1.0 / (1.0 - mu) for mu in mus])
    assert jac == pytest.approx(coh.torsion, abs=1e-9)


def test_monodromy_power_oracle():
    # phi^k acts on H^1(F) with eigenvalues 1, mu_i^k, so
    # T(phi^k) = -sign det(I - M^k) prod 1/(1 - mu_i^k); the mu_i come from
    # the trace-map Jacobian, which shares no code with the Fox path
    fk = figure_eight()
    m = abelianized_monodromy(fk)
    for u in (-1.2, -0.7 + 0.5j, 0.6 + 0.3j):
        point = fig8_locus_point(u)
        evs = np.linalg.eigvals(fk.trace_map.jacobian(point))
        mus = np.delete(evs, np.argmin(np.abs(evs - 1.0)))
        assert np.max(np.abs(mus)) <= 3.0
        for k in range(1, 9):
            assert np.min(np.abs(1.0 - mus ** k)) >= 0.1
            powered = figure_eight().power(k)
            det = round(np.linalg.det(np.eye(2) - np.linalg.matrix_power(m, k)))
            expected = -np.sign(det) * np.prod(1.0 / (1.0 - mus ** k))
            rep = lift_character_to_rep(powered, point)
            value = main_theorem_torsion(powered, rep).torsion
            assert value == pytest.approx(expected, rel=1e-8)


def _lifted_cases():
    """(knot, lifted representation) on the trefoil, the figure-eight and
    the figure-eight monodromy composed five times (233 letters)."""
    return [(fk, lift_character_to_rep(fk, point))
            for fk, point in ((trefoil(), (0.4, 0.4, 0.4)),
                              (figure_eight(), fig8_locus_point(0.6 + 0.3j)),
                              (figure_eight().power(5), fig8_locus_point(-1.2)))]


def test_relator_defect_is_the_reference_evaluation():
    for fk, rep in _lifted_cases():
        reference = max(np.linalg.norm(rep.evaluate_word(r) - np.eye(2))
                        for r in fk.presentation().relators)
        assert rep.relator_defect().tobytes() == np.float64(reference).tobytes()


def test_prefix_memo_cannot_go_stale():
    # the lift leaves the monodromy words' stacks on its representation; a
    # representation built from the same images walks every word itself
    gen = np.random.default_rng(5)
    for fk, rep in _lifted_cases():
        words = {w.letters for w in fk.monodromy_words()}
        relators = {r.letters for r in fk.presentation().relators}
        assert set(rep.prefix_stacks) == words | relators
        fresh = Representation(fk.presentation(), rep.images)
        assert set(fresh.prefix_stacks) == relators
        report = main_theorem_torsion(fk, rep)
        assert repr(main_theorem_torsion(fk, fresh)) == repr(report)
        for mine, theirs in zip(twisted_cochain_complex(rep).boundaries,
                                twisted_cochain_complex(fresh).boundaries):
            assert mine.tobytes() == theirs.tobytes()
        conj = random_conjugate(rep, gen)
        assert conj.prefix_stacks == {}
        assert main_theorem_torsion(fk, conj).torsion == pytest.approx(
            report.torsion, abs=1e-9)


def test_each_word_is_walked_once_per_representation(monkeypatch):
    # lift + torsion on figure_eight^5 multiplies through the 233 letters of
    # the monodromy words (the lift) and the 239 of the relators (the
    # relator check) once each; the Fox blocks walk nothing again
    walked = []
    kernel = rep_module.prefix_products

    def counting(images, inverses, letters):
        walked.append(letters)
        return kernel(images, inverses, letters)

    monkeypatch.setattr(rep_module, "prefix_products", counting)
    monkeypatch.setattr(fibered_module, "prefix_products", counting)
    fk = figure_eight().power(5)
    assert sum(map(len, fk.monodromy_words())) == 233
    main_theorem_torsion(fk, lift_character_to_rep(fk, fig8_locus_point(-1.2)))
    assert sorted(map(len, walked)) == sorted(
        [len(w) for w in fk.monodromy_words()]
        + [len(r) for r in fk.presentation().relators])
    assert sum(map(len, walked)) == 233 + 239
    assert len(set(walked)) == len(walked)


def _outcome(lifted):
    """What a lift gave, in bytes and strings: the error's type, code and
    message, or the images, inverses and prefix stacks."""
    if isinstance(lifted, Exception):
        return type(lifted), lifted.code, str(lifted)
    return ([m.tobytes() for m in lifted.images], [m.tobytes() for m in lifted._inverses],
            {w: s.tobytes() for w, s in lifted.prefix_stacks.items()},
            lifted.flavor, lifted.tol)


def _one_point_outcome(fk, point, **kwargs):
    try:
        return _outcome(lift_character_to_rep(fk, point, **kwargs))
    except FibtorError as exc:
        return _outcome(exc)


def test_stacked_lift_matches_one_point_lift():
    u = np.linspace(-300.0, 300.0, 61)
    raw = [(x1, x2, x3) for x1 in np.linspace(-1, 2, 7) for x2 in (0.5, 0.75)
           for x3 in np.linspace(-1, 1, 5)]
    cases = [
        # ok and REDUCIBLE_CHARACTER rows (x = -1 and x = 2), and INVALID_INPUT
        # (x = -2e8: the normal form's eigenvalue rounds to 0)
        (trefoil(), [(x, x, x) for x in np.linspace(-1, 2, 13)] + [(-2e8,) * 3], {}),
        (trefoil(), [(x, x, x) for x in (-1.0, 0.3, 0.9, 1.5, 3.0)], {"flavor": SU2}),
        # ok and RELATOR_VIOLATION rows
        (figure_eight(), [fig8_locus_point(v) for v in u if v != 1.0], {}),
        # NOT_FIXED_POINT rows on raw coordinates, under another rank cutoff
        (figure_eight(), raw, {"tol": 1e-7}),
        # one stack of an ok row (the locus point u = 0.3), NOT_FIXED_POINT
        # rows and INVALID_INPUT rows whose monodromy images overflow
        (figure_eight(), [(x1, x2, x3) for x1 in (0.3, 1e100)
                          for x2 in (-0.4285714285714286, 1e100) for x3 in (0.3, 2.0)], {}),
    ]
    seen = set()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for fk, points, kwargs in cases:
            stacked = lift_characters_to_reps(fk, points, **kwargs)
            assert len(stacked) == len(points)
            for point, lifted in zip(points, stacked):
                assert _outcome(lifted) == _one_point_outcome(fk, point, **kwargs)
                seen.add(lifted.code if isinstance(lifted, FibtorError) else "ok")
    assert seen == {"ok", "REDUCIBLE_CHARACTER", "INVALID_INPUT", "NOT_FIXED_POINT",
                    "RELATOR_VIOLATION"}


# the figure-eight chart's reducible points u = (+-sqrt 5 - 1)/2
_FIG8_REDUCIBLE = ((math.sqrt(5.0) - 1.0) / 2.0, (-math.sqrt(5.0) - 1.0) / 2.0)


def _complex_of_size(lo, hi):
    """Complex numbers 10^e e^(i theta) for lo <= e <= hi."""
    return st.builds(lambda e, theta: 10.0 ** e * cmath.exp(1j * theta),
                     st.floats(lo, hi), st.floats(0.0, 2.0 * math.pi))


_LIFT_STACKS = st.one_of(
    # raw triples of magnitude 1e-8 to 1e8 on either knot
    st.tuples(st.sampled_from(["trefoil", "figure_eight"]),
              st.lists(st.tuples(*[_complex_of_size(-8.0, 8.0)] * 3), min_size=1, max_size=4)),
    # within 1e-12 to 1e-6 of a reducible character of either knot
    st.tuples(st.just("figure_eight"), st.lists(st.builds(
        lambda u, d: fig8_locus_point(u + d), st.sampled_from(_FIG8_REDUCIBLE),
        _complex_of_size(-12.0, -6.0)), min_size=1, max_size=4)),
    st.tuples(st.just("trefoil"), st.lists(st.builds(
        lambda x, d: (x + d,) * 3, st.sampled_from([-1.0, 2.0]),
        _complex_of_size(-12.0, -6.0)), min_size=1, max_size=4)),
)


@settings(derandomize=True, deadline=None, max_examples=200)
@given(_LIFT_STACKS)
# the normalized intertwiner misses det 1 by 4.2e-8 (compute --x 0,-1e8,0),
# and by 1.5e-8 next to the reducible point beside a row that lifts
@example(("figure_eight", [(0.0, -1e8, 0.0)]))
@example(("figure_eight", [fig8_locus_point(_FIG8_REDUCIBLE[0] + 3e-9 + 1e-9j),
                           fig8_locus_point(_FIG8_REDUCIBLE[0] + 0.3)]))
def test_lift_refuses_every_row_it_cannot_lift(case):
    # every row is a Representation or a FibtorError, the one its point
    # gives alone; nothing raises
    knot, points = case
    fk = trefoil() if knot == "trefoil" else figure_eight()
    for point, lifted in zip(points, lift_characters_to_reps(fk, points)):
        assert isinstance(lifted, (Representation, FibtorError))
        assert _outcome(lifted) == _one_point_outcome(fk, point)


def test_stacked_lift_edges():
    fk = figure_eight()
    assert lift_characters_to_reps(fk, []) == []
    # every point refused before the stack
    refused = lift_characters_to_reps(trefoil(), [(2.0, 2.0, 2.0)] * 3)
    assert [type(e) for e in refused] == [ReducibleCharacterError] * 3
    # a genus-two knot refuses every point with the same message
    granny = FiberedKnot("granny", 2, ["a1", "b1", "a2", "b2"],
                         {"a1": "a1 B1 A1", "b1": "a1 b1", "a2": "a2 B2 A2", "b2": "a2 b2"})
    with pytest.raises(InvalidInputError, match="genus one") as one:
        lift_character_to_rep(granny, (1, 1, 1))
    refused = lift_characters_to_reps(granny, [(1, 1, 1), (0, 0, 0)])
    assert [str(e) for e in refused] == [str(one.value)] * 2


def _torsion_outcome(result):
    """What a torsion call gave, in bytes and strings: the error's type and
    message, or the report's values."""
    if isinstance(result, Exception):
        return type(result), str(result)
    return (np.complex128(result.torsion).tobytes(), result.epsilon0, result.method,
            np.array(result.eigenvalues, dtype=complex).tobytes(),
            None if result.jacobian_eigenvalues is None
            else np.array(result.jacobian_eigenvalues, dtype=complex).tobytes(),
            None if result.character is None
            else np.array(result.character, dtype=complex).tobytes())


def _one_rep_torsion(fk, rep):
    try:
        return _torsion_outcome(main_theorem_torsion(fk, rep))
    except FibtorError as exc:
        return _torsion_outcome(exc)


def _action_outcome(result):
    """What a monodromy-action call gave, in bytes and strings: the error's
    type and message, or the four matrices of the action."""
    if isinstance(result, Exception):
        return type(result), str(result)
    return tuple(getattr(result, f).tobytes()
                 for f in ("full", "coboundaries", "complement", "quotient"))


def _one_rep_action(fk, rep):
    try:
        return _action_outcome(monodromy_action(fk, rep))
    except FibtorError as exc:
        return _action_outcome(exc)


def _mixed_torsion_cases():
    """(home knot, error code or "ok", representation) on the trefoil, the
    figure-eight and figure_eight^5, with every refusal of the torsion half."""
    tref, fig8, fig8_5 = trefoil(), figure_eight(), figure_eight().power(5)
    cases = [(tref, "ok", r) for r in lift_characters_to_reps(
        tref, [(x, x, x) for x in (0.4, 1.5, 2.5 + 0.5j)])]
    fig8_reps = lift_characters_to_reps(fig8, [fig8_locus_point(u)
                                               for u in (0.5, -1.2, 0.6 + 0.3j)])
    cases += [(fig8, "ok", r) for r in fig8_reps]
    cases.append((fig8_5, "ok", lift_character_to_rep(fig8_5, fig8_locus_point(-1.2))))
    # the fiber restriction has an Ad-fixed vector under the rank cutoff 0.1
    cases += [(tref, "REDUCIBLE_RESTRICTION", r) for r in lift_characters_to_reps(
        tref, [(x, x, x) for x in (-2.0, 2.8, 3.0)], tol=0.1)]
    # closest eigenvalue 1.759e-05 from 1
    cases.append((fig8, "NO_UNIT_EIGENVALUE", lift_character_to_rep(
        fig8, fig8_locus_point(0.75 + 0.9682458365518543j))))
    # a meridian image that breaks the relators: B^1 is not preserved
    lifted = fig8_reps[0]
    cases.append((fig8, "RELATOR_VIOLATION", Representation(
        fig8.presentation(), [lifted.image("a"), lifted.image("b"), np.eye(2)],
        check=False)))
    # fails both action checks (B^1 residual 9.6 past the rank test): the
    # rank refusal comes first
    cases.append((fig8, "REDUCIBLE_RESTRICTION", Representation(
        fig8.presentation(), [np.diag([2.0, 0.5]), np.diag([3.0, 1 / 3]),
                              np.array([[1.0, 1.0], [0.0, 1.0]])], check=False)))
    return cases


@pytest.mark.parametrize("budget", [fibered_module.TORSION_STACK_LETTERS, 1, 40])
def test_stacked_torsion_matches_the_stack_of_one(monkeypatch, budget):
    # every representation under every knot, its own and the others: the
    # stacked calls give each one the report bytes, or the action's
    # matrices, or the error that it gives alone, in chunks of every size
    monkeypatch.setattr(fibered_module, "TORSION_STACK_LETTERS", budget)
    cases = _mixed_torsion_cases()
    reps = [rep for _, _, rep in cases]
    for fk in {id(fk): fk for fk, _, _ in cases}.values():
        stacked = main_theorem_torsions(fk, reps)
        actions = monodromy_actions(fk, reps)
        assert len(stacked) == len(actions) == len(reps)
        for (home, code, rep), result, action in zip(cases, stacked, actions):
            assert _torsion_outcome(result) == _one_rep_torsion(fk, rep)
            assert _action_outcome(action) == _one_rep_action(fk, rep)
            if not isinstance(action, FibtorError):
                dim = 6 * fk.genus - 3
                assert action.complement.shape[1] == dim
                assert action.quotient.shape == (dim, dim)
            if home is fk:
                assert (result.code if isinstance(result, FibtorError) else "ok") == code
                # the unit-eigenvalue test belongs to the torsion, not the action
                assert (action.code if isinstance(action, FibtorError) else "ok") == (
                    "ok" if code == "NO_UNIT_EIGENVALUE" else code)
    far = [rep for _, code, rep in cases if code == "NO_UNIT_EIGENVALUE"]
    assert "closest: 1.759e-05" in str(main_theorem_torsions(figure_eight(), far)[0])


def test_stacked_torsion_edges():
    fk = figure_eight()
    cases = _mixed_torsion_cases()
    reps = [rep for _, _, rep in cases]
    order = np.random.default_rng(3).permutation(len(reps))
    for stacked, outcome in ((main_theorem_torsions, _torsion_outcome),
                             (monodromy_actions, _action_outcome)):
        assert stacked(fk, []) == []
        straight = stacked(fk, reps)
        permuted = stacked(fk, [reps[k] for k in order])
        assert [outcome(r) for r in permuted] == [outcome(straight[k]) for k in order]


def test_refusals_given_in_place_pass_through():
    # an error given in place of a point or a representation comes back at
    # its index, the same object, and every other row is that of the call
    # made without it
    fk = figure_eight()
    given = InvalidInputError("refused before the lift")
    points = [fig8_locus_point(0.5), (2.0, 2.0, 2.0), fig8_locus_point(-1.2)]
    reps = lift_characters_to_reps(fk, points)
    for stacked, outcome, rows in ((lift_characters_to_reps, _outcome, points),
                                   (monodromy_actions, _action_outcome, reps),
                                   (main_theorem_torsions, _torsion_outcome, reps)):
        out = stacked(fk, rows[:1] + [given] + rows[1:])
        assert out[1] is given
        assert [outcome(r) for r in out[:1] + out[2:]] == [
            outcome(r) for r in stacked(fk, rows)]


def test_overflowing_row_is_refused_alone():
    # (1e100, 1e100, 1) has a finite commutator trace, but its monodromy
    # images overflow: that row is refused (the stacked SVD sees the
    # identity in their place), with no numpy warning, and the other row
    # keeps its bits
    fk = figure_eight()
    good, bad = fig8_locus_point(0.6 + 0.3j), (1e100, 1e100, 1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        lifted = lift_characters_to_reps(fk, [good, bad])
        assert _outcome(lifted[0]) == _one_point_outcome(fk, good)
        with pytest.raises(InvalidInputError, match="monodromy images .* not finite"):
            lift_character_to_rep(fk, bad)
    assert isinstance(lifted[1], InvalidInputError)


def test_intertwiner_systems_are_krons_bits():
    # signed zeros and both signs of every part, as the normal form makes them
    gen = np.random.default_rng(8)
    parts = np.array([0.0, -0.0, 1.0, -1.0, 2.5, -1e-300])
    images, targets = (gen.choice(parts, (2, 6, 2, 2)) + 1j * gen.choice(parts, (2, 6, 2, 2))
                       for _ in range(2))
    systems = fibered_module._intertwiner_systems(images, targets)
    eye = np.eye(2)
    for n in range(6):
        reference = np.vstack([np.kron(images[w, n].T, eye) - np.kron(eye, targets[w, n])
                               for w in range(2)])
        assert systems[n].tobytes() == reference.tobytes()


def test_a_sweep_walks_each_word_once_for_all_rows(monkeypatch, capsys):
    # the 64 rows of a sweep are lifted as one stack: one kernel call per
    # monodromy word and per relator, not one per row
    walked = []
    kernel = rep_module.prefix_products

    def counting(images, inverses, letters):
        walked.append(letters)
        return kernel(images, inverses, letters)

    monkeypatch.setattr(rep_module, "prefix_products", counting)
    monkeypatch.setattr(fibered_module, "prefix_products", counting)
    assert cli_main(["sweep", "--knot", "figure_eight", "--grid", "u=-2:0.9:64"]) == 0
    assert capsys.readouterr().out.count("\n") == 65
    fk = figure_eight()
    assert sorted(walked) == sorted([w.letters for w in fk.monodromy_words()]
                                    + [r.letters for r in fk.presentation().relators])


def test_one_presentation_per_knot():
    fk = figure_eight()
    pres = fk.presentation()
    assert fk.presentation() is pres
    assert isinstance(pres.relators, tuple)
    reps = [lift_character_to_rep(fk, fig8_locus_point(u)) for u in (0.3, -1.2)]
    assert all(rep.presentation is pres for rep in reps)


# -- lifting -----------------------------------------------------------------------------

def test_lift_reducible_character_rejected():
    with pytest.raises(ReducibleCharacterError):
        lift_character_to_rep(figure_eight(), (2.0, 2.0, 2.0))


def test_lift_metabelian_locus_point_rejected():
    # x1 + x2 = -1 on the figure-eight locus has commutator trace exactly 2
    x1 = (-1.0 + math.sqrt(5.0)) / 2.0
    x2 = (-1.0 - math.sqrt(5.0)) / 2.0
    from fibtor import commutator_trace
    assert commutator_trace(x1, x2, x1) == pytest.approx(2.0)
    with pytest.raises(ReducibleCharacterError):
        lift_character_to_rep(figure_eight(), (x1, x2, x1))


def test_lift_off_locus_rejected():
    with pytest.raises(NotFixedPointError):
        lift_character_to_rep(figure_eight(), (0.3, 0.9, 1.4))


def test_trefoil_meridian_trace_form():
    # the meridian trace stays within sqrt(3) on the SU(2) family
    fk = trefoil()
    for pt in sample_fixed_locus(fk, 8, rng, kind="su2"):
        rep = lift_character_to_rep(fk, pt, flavor=SU2)
        tr = complex(np.trace(rep.image("t")))
        assert abs(tr.imag) < 1e-9
        assert abs(tr.real) < math.sqrt(3.0) + 1e-9
        theta = math.acos(tr.real / math.sqrt(3.0))
        assert 0.0 < theta < math.pi


def test_su2_lift_lands_in_su2():
    fk = trefoil()
    rep = lift_character_to_rep(fk, (0.9, 0.9, 0.9), flavor=SU2)
    for name in ("a", "b", "t"):
        m = rep.image(name)
        assert np.linalg.norm(m @ m.conj().T - np.eye(2)) < 1e-9


# -- torus closed form ----------------------------------------------------------------------

def test_torus_closed_form_trefoil_value():
    assert torus_closed_form(2, 3, 1, 1) == pytest.approx(-1.0 / 3.0)


def test_torus_closed_form_25():
    expected = -(16.0 / 100.0) * math.sin(math.pi / 5.0) ** 2
    assert torus_closed_form(2, 5, 1, 1) == pytest.approx(expected, abs=1e-12)
    assert torus_closed_form(2, 5, 1, 1) == pytest.approx(-0.0552786, abs=1e-7)


def test_torus_closed_form_parity_violation():
    with pytest.raises(InvalidInputError):
        torus_closed_form(3, 4, 1, 2)


def test_torus_closed_form_preconditions():
    with pytest.raises(InvalidInputError):
        torus_closed_form(2, 4, 1, 1)  # gcd != 1
    with pytest.raises(InvalidInputError):
        torus_closed_form(2, 3, 2, 1)  # a out of range
    with pytest.raises(InvalidInputError):
        torus_closed_form(2, 3, 0, 1)  # a out of range


def test_torus_closed_form_bounds():
    for (p, q) in ((2, 3), (2, 5), (3, 4), (3, 5)):
        for a in range(1, p):
            for b in range(1, q):
                if (a - b) % 2:
                    continue
                v = torus_closed_form(p, q, a, b)
                assert v < 0
                assert abs(v) <= 16.0 / (p * p * q * q) + 1e-12


# -- higher genus -----------------------------------------------------------------------------

def _granny_rep():
    """trefoil # trefoil, a genus-two knot with block monodromy, and the same
    SU(2) trefoil representation on both handles."""
    fk = FiberedKnot("granny", 2, ["a1", "b1", "a2", "b2"],
                     {"a1": "a1 B1 A1", "b1": "a1 b1",
                      "a2": "a2 B2 A2", "b2": "a2 b2"})
    r1 = lift_character_to_rep(trefoil(), (1.2, 1.2, 1.2), flavor=SU2)
    A, B, T = r1.image("a"), r1.image("b"), r1.image("t")
    rep = Representation(fk.presentation(),
                         {"a1": A, "b1": B, "a2": A, "b2": B, "t": T},
                         flavor=SU2)
    return fk, rep


def test_genus_two_connected_sum_detects_regularity_failure():
    # With the same trefoil representation on both handles the unit
    # eigenvalue has multiplicity three (the composite is not
    # boundary-regular there), which the pipeline must report rather than
    # produce a value.
    fk, rep = _granny_rep()
    assert abelianized_monodromy(fk).tolist() == [
        [0, 1, 0, 0], [-1, 1, 0, 0], [0, 0, 0, 1], [0, 0, -1, 1]]
    assert epsilon0(fk) == 1
    act = monodromy_action(fk, rep)
    assert act.quotient.shape == (9, 9)
    evs = np.linalg.eigvals(act.quotient)
    assert np.sum(np.abs(evs - 1.0) < 1e-6) == 3
    with pytest.raises(NonSimpleUnitEigenvalueError):
        main_theorem_torsion(fk, rep)


def test_block_matrices_place_each_fox_block():
    # block (j, i) of the monodromy action is Ad(T) Phi(d phi(x_j) / d x_i),
    # block (k, i) of d1 is Phi(d r_k / d g_i), bit for bit
    granny = _granny_rep()
    cases = [(figure_eight(), lift_character_to_rep(figure_eight(), fig8_locus_point(0.5))),
             granny]
    for fk, rep in cases:
        n = len(fk.fiber_generators)
        ng = rep.presentation.generator_count
        full = monodromy_action(fk, rep).full
        adT = rep_module.adjoint(rep.image(fk.meridian))
        for j, w in enumerate(fk.monodromy_words()):
            blocks = rep_module.fox_adjoint_blocks(
                [(rep.prefix_stack(w.letters), w.letters)], ng)[0]
            for i, blk in enumerate(blocks[:n]):
                assert full[3 * j:3 * j + 3, 3 * i:3 * i + 3].tobytes() == (adT @ blk).tobytes()
        d1 = twisted_cochain_complex(rep).boundaries[1]
        assert d1.shape == (3 * len(rep.presentation.relators), 3 * ng)
        for k, r in enumerate(rep.presentation.relators):
            blocks = rep_module.fox_adjoint_blocks(
                [(rep.prefix_stack(r.letters), r.letters)], ng)[0]
            for i, blk in enumerate(blocks):
                assert d1[3 * k:3 * k + 3, 3 * i:3 * i + 3].tobytes() == blk.tobytes()
    # a presentation without relators gives an empty d1 with one column per
    # generator coordinate
    rep = granny[1]
    free = Representation(GroupPresentation(["a", "b"], []), [rep.image("a1"), rep.image("b1")])
    assert twisted_cochain_complex(free).boundaries[1].shape == (0, 6)


@pytest.mark.parametrize("fk, point", [(trefoil(), (1.2, 1.2, 1.2)),
                                       (figure_eight(), fig8_locus_point(0.5))])
def test_monodromy_action_refuses_a_meridian_that_breaks_the_relators(fk, point):
    # lifted fiber images with meridian image I: t^-1 x t = phi(x) fails, and
    # the monodromy action moves B^1 by a residual of order 1
    lifted = lift_character_to_rep(fk, point)
    images = [lifted.image(g) for g in fk.fiber_generators] + [np.eye(2)]
    rep = Representation(fk.presentation(), images, check=False)
    with pytest.raises(RelatorViolationError,
                       match=r"does not preserve the coboundary space \(residual 1\.\d+e\+00\)"):
        monodromy_action(fk, rep)


# -- knot serialization ----------------------------------------------------------------------

def test_knot_json_roundtrip():
    fk = figure_eight()
    again = FiberedKnot.from_json(fk.to_json())
    assert again.name == fk.name
    assert again.monodromy == fk.monodromy
    assert abelianized_monodromy(again).tolist() == [[1, 1], [1, 2]]
    rep = lift_character_to_rep(again, fig8_locus_point(0.5))
    assert main_theorem_torsion(again, rep).torsion == pytest.approx(0.25, abs=1e-9)


def test_knot_file_trace_map_is_derived_from_the_monodromy():
    text = figure_eight().to_json()
    assert "trace_map" not in json.loads(text)
    loaded = FiberedKnot.from_json(text)
    assert polynomials(loaded.trace_map) == FIG8_TRACE_MAP
    assert loaded.locus_chart is None
    # a given map is ignored, even one that disagrees with the monodromy
    given = dict(json.loads(text), trace_map=["x1", "x2", "x3"])
    assert polynomials(FiberedKnot.from_json(json.dumps(given)).trace_map) == FIG8_TRACE_MAP
    # every genus-one file carries its map, and no file of higher genus does
    for words in ({"a": "a B A", "b": "a b"}, {"a": "a b b", "b": "b a"}):
        fk = FiberedKnot("k", 1, ["a", "b"], words)
        loaded = FiberedKnot.from_json(fk.to_json())
        assert polynomials(loaded.trace_map) == polynomials(
            TraceCoordMap(*fk.monodromy_words()))
    granny = FiberedKnot("granny", 2, ["a1", "b1", "a2", "b2"],
                         {"a1": "a1 B1 A1", "b1": "a1 b1", "a2": "a2 B2 A2", "b2": "a2 b2"})
    given = dict(json.loads(granny.to_json()), trace_map=["x1", "x2", "x3"])
    assert FiberedKnot.from_json(json.dumps(given)).trace_map is None
