"""Catalog entries and the figure-eight holonomy fixtures."""

import json
import math

import numpy as np
import pytest

from fibtor import (
    FiberedKnot,
    InvalidInputError,
    figure_eight,
    get_entry,
    holonomy_representation,
    lift_character_to_rep,
    main_theorem_torsion,
    torus_closed_form,
    trefoil,
)
from fibtor.catalog import TorusKnotEntry, catalog
from fibtor.cli import main
from sympy_traces import X, polynomials


def test_catalog_names_and_methods(capsys):
    assert [e.name for e in catalog()] == ["trefoil", "figure_eight", "torus"]
    # `list` derives each entry's methods from the entry
    assert main(["list", "--json"]) == 0
    entries = {e["name"]: e for e in json.loads(capsys.readouterr().out)}
    assert set(entries) == {"trefoil", "figure_eight", "torus"}
    assert entries["trefoil"]["genus"] == 1
    assert entries["trefoil"]["methods"] == ["cohomology", "jacobian"]
    assert entries["figure_eight"]["methods"] == ["cohomology", "jacobian"]
    assert entries["torus"]["methods"] == ["closed_form"]


def test_trefoil_monodromy_words():
    fk = trefoil()
    words = {g: fk.monodromy[g].to_string(fk.fiber_generators)
             for g in fk.fiber_generators}
    assert words == {"a": "a B A", "b": "a b"}


def test_figure_eight_monodromy_and_trace_map():
    fk = figure_eight()
    words = {g: fk.monodromy[g].to_string(fk.fiber_generators)
             for g in fk.fiber_generators}
    assert words == {"a": "a b", "b": "b a b"}
    x1, x2, x3 = X
    assert polynomials(fk.trace_map) == (x3, x2 * x3 - x1, x2 * x3 ** 2 - x1 * x3 - x2)


def test_get_entry_torus_parsing():
    entry = get_entry("torus(2,5)")
    assert isinstance(entry, TorusKnotEntry)
    assert entry.value(1, 1) == pytest.approx(torus_closed_form(2, 5, 1, 1))
    with pytest.raises(InvalidInputError):
        get_entry("torus(2,x)")
    with pytest.raises(InvalidInputError):
        get_entry("granny")


def test_get_entry_returns_the_knot():
    fk = get_entry(" figure_eight ")
    assert isinstance(fk, FiberedKnot)
    assert fk.name == "figure_eight"
    assert fk.locus_chart.holonomy is not None
    assert get_entry("torus").genus is None


def test_torus_23_matches_trefoil_pipeline():
    closed = torus_closed_form(2, 3, 1, 1)
    fk = trefoil()
    rep = lift_character_to_rep(fk, (0.5, 0.5, 0.5))
    pipeline = main_theorem_torsion(fk, rep).torsion
    assert abs(closed - pipeline) < 1e-10


def test_holonomy_meridian_matrices():
    fk = figure_eight()
    plus = holonomy_representation(fk, 1)
    t_plus = plus.image(fk.meridian)
    assert np.allclose(t_plus, np.array([[1.0, 1.0], [0.0, 1.0]]), atol=1e-9)
    assert np.trace(t_plus) == pytest.approx(2.0)
    assert t_plus[0, 1] == pytest.approx(1.0)
    minus = holonomy_representation(fk, -1)
    t_minus = minus.image(fk.meridian)
    assert np.allclose(t_minus, np.array([[-1.0, 1.0], [0.0, -1.0]]), atol=1e-9)


def test_holonomy_longitude_matrix():
    # the boundary of the fiber is parabolic with translation 2 sqrt(3) and
    # lifted trace -2 on both lifts
    fk = figure_eight()
    for sign in (1, -1):
        rep = holonomy_representation(fk, sign)
        gam = rep.evaluate_word(fk.longitude_word())
        assert np.trace(gam) == pytest.approx(-2.0, abs=1e-9)
        assert abs(gam[0, 1]) == pytest.approx(2.0 * math.sqrt(3.0), abs=1e-8)
        assert abs(gam[1, 0]) < 1e-9


def test_holonomy_character_is_parabolic_locus_point():
    fk = figure_eight()
    rep = holonomy_representation(fk, 1)
    x1, x2, x3 = fk.character_of(rep)
    assert x1 == pytest.approx(complex(1.5, 0.5 * math.sqrt(3.0)), abs=1e-9)
    assert x2 == pytest.approx(x1.conjugate(), abs=1e-9)
    assert x3 == pytest.approx(x1, abs=1e-9)
    # Markov-type relation of the once-punctured torus bundle
    assert abs(x1 * x1 + x2 * x2 + x3 * x3 - x1 * x2 * x3) < 1e-9


def test_holonomy_torsion_value_both_lifts():
    values = []
    fk = figure_eight()
    for sign in (1, -1):
        rep = holonomy_representation(fk, sign)
        values.append(main_theorem_torsion(fk, rep).torsion)
    assert values[0] == pytest.approx(values[1], abs=1e-10)
    assert values[0] == pytest.approx(-1.0 / 3.0, abs=1e-9)
