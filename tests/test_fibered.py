"""Fibered-knot pipeline: monodromy matrices, eigenvalues, the torsion
formula, Wang identities, character lifting, torus closed form."""

import cmath
import json
import math
import random

import numpy as np
import pytest
import sympy

from fibtor import (
    DegenerateMonodromyError,
    FiberedKnot,
    GroupPresentation,
    InvalidInputError,
    NonSimpleUnitEigenvalueError,
    NotFixedPointError,
    NoUnitEigenvalueError,
    ReducibleCharacterError,
    Representation,
    SU2,
    TraceCoordMap,
    Word,
    abelianized_monodromy,
    eigenvalues_excluding_one,
    epsilon0,
    figure_eight,
    homology,
    jacobian_torsion,
    lift_character_to_rep,
    main_theorem_torsion,
    multiplicativity_check,
    torus_closed_form,
    trefoil,
    twisted_cochain_complex,
    wang_exact_sequence,
    wang_product_check,
    wang_sequence_torsion,
)
from fibtor.fibered import (
    _normal_form_pair,
    monodromy_action,
    parse_polynomial,
    random_conjugate,
    sample_fixed_locus,
    trace_polynomial,
)
from fibtor.linalg import column_space
from fibtor.verify import multiset_distance

rng = np.random.default_rng(99)


def fig8_locus_point(u):
    u = complex(u)
    return (u, u / (u - 1.0), u)


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
    fk, rep = holonomy_representation(1)
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
    residual = multiplicativity_check(*wang_exact_sequence(fk, rep))
    assert residual <= 1e-8


def test_wang_product_normalization():
    for fk, pt in ((trefoil(), (1.4, 1.4, 1.4)),
                   (figure_eight(), fig8_locus_point(-2.0)),
                   (figure_eight(), fig8_locus_point(1.7 - 0.8j))):
        rep = lift_character_to_rep(fk, pt)
        assert wang_product_check(fk, rep) == pytest.approx(-1.0, abs=1e-9)


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
    tm = TraceCoordMap(["x1", "x2", "x3"])
    assert np.allclose(tm.jacobian((5.0, -2.0, 0.1)), np.eye(3))


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
    assert trefoil().trace_map.preserves_boundary_trace()
    assert figure_eight().trace_map.preserves_boundary_trace()


def test_fixed_locus_relations():
    x1, x2, x3 = sympy.symbols("x1 x2 x3")

    def same_ideal(got, want):
        gens = (x1, x2, x3)
        gb_got = sympy.groebner(got, *gens, order="lex")
        gb_want = sympy.groebner(want, *gens, order="lex")
        return (all(gb_got.reduce(p)[1] == 0 for p in want)
                and all(gb_want.reduce(p)[1] == 0 for p in got))

    tref = trefoil().trace_map.fixed_locus_relations()
    assert same_ideal(tref, [x1 - x3, x2 - x3])
    fig = figure_eight().trace_map.fixed_locus_relations()
    # the locus is x3 = x1 together with x1 + x2 = x1 x2
    assert same_ideal(fig, [x1 - x3, x1 * x2 - x1 - x2])


def test_sampling_needs_a_locus_chart():
    fk = FiberedKnot.from_json(figure_eight().to_json())
    with pytest.raises(InvalidInputError, match="no locus chart"):
        sample_fixed_locus(fk, 1, rng)


def test_identity_trace_map_fixes_everything():
    tm = TraceCoordMap(["x1", "x2", "x3"])
    assert tm.fixed_locus_relations() == []


def test_locus_samples_are_fixed_and_irreducible():
    for fk in (trefoil(), figure_eight()):
        for pt in sample_fixed_locus(fk, 5, rng, kind="complex"):
            moved = fk.trace_map(pt)
            assert np.allclose(moved, pt, atol=1e-9)


def _random_word(r, length):
    return Word([(r.randrange(2), r.choice((1, -1))) for _ in range(length)])


def test_trace_polynomial_matches_numeric_traces():
    # Fricke's recursion against matrix products at one fixed SL2(C) pair
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
            got = trace_polynomial(w)(point)
            assert abs(got - np.trace(m)) <= 1e-9 * max(1.0, abs(np.trace(m)))
    assert trace_polynomial(Word([])) == {(0, 0, 0): 2}


def test_derived_trace_maps_match_catalog_docstring():
    # the hand-written maps of the catalog docstring
    assert trefoil().trace_map.polynomials == TraceCoordMap(["x2", "x3", "x1"]).polynomials
    assert figure_eight().trace_map.polynomials == TraceCoordMap(
        ["x3", "x2*x3 - x1", "x2*x3**2 - x1*x3 - x2"]).polynomials
    bare = FiberedKnot("figure_eight", 1, ["a", "b"], {"a": "a b", "b": "b a b"})
    assert bare.trace_map is None
    assert TraceCoordMap.from_monodromy(bare).polynomials == \
        figure_eight().trace_map.polynomials


def test_trace_polynomials_print_and_evaluate_like_sympy():
    # str() is sympy's string, and the values (Jacobian entries included)
    # are bit for bit those of sympy.lambdify on the same polynomial
    gens = sympy.symbols("x1 x2 x3")
    r = random.Random(8)
    points = [(complex(0.3, -1.1), complex(-0.0, 2.5), complex(-1.7, 0.0)),
              (complex(0.0, -0.0), complex(-0.0, -0.0), complex(-0.0, 1.5)),
              (0.5, -0.0, 2.0)]
    for _ in range(40):
        words = {g: _random_word(r, r.randrange(7)) for g in "ab"}
        tm = TraceCoordMap.from_monodromy(
            FiberedKnot("k", 1, ["a", "b"], words, check_fibered=False))
        for p in tm.polynomials + tuple(p.diff(j) for p in tm.polynomials
                                        for j in range(3)):
            expr = sympy.Poly.from_dict(dict(p) or {(0, 0, 0): 0}, *gens).as_expr()
            assert str(p) == str(expr)
            f = sympy.lambdify(gens, expr, "numpy")
            for pt in points:
                assert np.complex128(p(pt)).tobytes() == np.complex128(f(*pt)).tobytes()


def test_parse_polynomial():
    p = parse_polynomial(" - x1 + 2*x2*x3**2 - 7 + x1*x1 + 3*x3*2")
    assert str(p) == "x1**2 - x1 + 2*x2*x3**2 + 6*x3 - 7"
    assert parse_polynomial("x1 - x1") == {}
    for bad in ["", "x4", "x1 +", "+", "2**3", "x1**x2", "x1**-1", "(x1)",
                "1.5*x1", "x1 * * x2", "x1 x2", "__import__('os').getcwd()", 5]:
        with pytest.raises(InvalidInputError):
            parse_polynomial(bad)


def test_jacobian_torsion_matches_pipeline():
    fk = figure_eight()
    pt = fig8_locus_point(0.6 + 0.4j)
    rep = lift_character_to_rep(fk, pt)
    coh = main_theorem_torsion(fk, rep)
    jac = jacobian_torsion(fk, pt)
    assert jac.method == "jacobian"
    assert jac.torsion == pytest.approx(coh.torsion, abs=1e-9)


def _monodromy_power(fk, k):
    """Images of the fiber generators under phi^k, by substituting phi into
    every letter k times."""
    phi = fk.monodromy_words()
    images = [Word([(g, 1)]) for g in range(len(phi))]
    for _ in range(k):
        images = [Word([x for g, e in w
                        for x in (phi[g] if e == 1 else phi[g].inverse())])
                  for w in images]
    return dict(zip(fk.fiber_generators, images))


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
            powered = FiberedKnot("figure_eight^%d" % k, 1, fk.fiber_generators,
                                  _monodromy_power(fk, k), check_fibered=False)
            det = round(np.linalg.det(np.eye(2) - np.linalg.matrix_power(m, k)))
            expected = -np.sign(det) * np.prod(1.0 / (1.0 - mus ** k))
            rep = lift_character_to_rep(powered, point)
            value = main_theorem_torsion(powered, rep).torsion
            assert value == pytest.approx(expected, rel=1e-8)


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

def test_genus_two_connected_sum_detects_regularity_failure():
    # trefoil # trefoil: block monodromy, genus 2.  With the same trefoil
    # representation on both handles the unit eigenvalue has multiplicity
    # three (the composite is not boundary-regular there), which the
    # pipeline must report rather than produce a value.
    from fibtor.fibered import monodromy_action
    from fibtor.rep import Representation

    fk = FiberedKnot("granny", 2, ["a1", "b1", "a2", "b2"],
                     {"a1": "a1 B1 A1", "b1": "a1 b1",
                      "a2": "a2 B2 A2", "b2": "a2 b2"})
    assert abelianized_monodromy(fk).tolist() == [
        [0, 1, 0, 0], [-1, 1, 0, 0], [0, 0, 0, 1], [0, 0, -1, 1]]
    assert epsilon0(fk) == 1
    r1 = lift_character_to_rep(trefoil(), (1.2, 1.2, 1.2), flavor=SU2)
    A, B, T = r1.image("a"), r1.image("b"), r1.image("t")
    rep = Representation(fk.presentation(),
                         {"a1": A, "b1": B, "a2": A, "b2": B, "t": T},
                         flavor=SU2)
    act = monodromy_action(fk, rep)
    assert act.quotient.shape == (9, 9)
    evs = np.linalg.eigvals(act.quotient)
    assert np.sum(np.abs(evs - 1.0) < 1e-6) == 3
    with pytest.raises(NonSimpleUnitEigenvalueError):
        main_theorem_torsion(fk, rep)


# -- knot serialization ----------------------------------------------------------------------

def test_knot_json_roundtrip():
    fk = figure_eight()
    again = FiberedKnot.from_json(fk.to_json())
    assert again.name == fk.name
    assert again.monodromy == fk.monodromy
    assert abelianized_monodromy(again).tolist() == [[1, 1], [1, 2]]
    rep = lift_character_to_rep(again, fig8_locus_point(0.5))
    assert main_theorem_torsion(again, rep).torsion == pytest.approx(0.25, abs=1e-9)


def test_knot_file_trace_map_is_checked_against_the_monodromy():
    text = figure_eight().to_json()
    loaded = FiberedKnot.from_json(text)
    assert loaded.trace_map.polynomials == figure_eight().trace_map.polynomials
    assert loaded.locus_chart is None
    obj = json.loads(text)
    del obj["trace_map"]
    assert FiberedKnot.from_json(json.dumps(obj)).trace_map is None
    obj["trace_map"] = ["x1", "x2", "x3"]
    with pytest.raises(InvalidInputError, match="disagrees"):
        FiberedKnot.from_json(json.dumps(obj))
