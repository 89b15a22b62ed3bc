"""Acceptance suite: the headline numerical results, one test per criterion.

Each test runs the corresponding named check from fibtor.verify (the same
code behind `fibtor verify`), prints its PASS/FAIL line, and asserts it.

Criterion 05 runs `fig8_holonomy_third`: both figure-eight holonomy lifts
give torsion -1/3, their longitude has trace -2, and T^2 (17 + 4 tr) = 1.
`fig8_holonomy_fifth`, which pins 1/5, stays in `fibtor verify` as the
record of the wrong pin (see README, "The figure-eight holonomy value").
The last test pins what a check reports when a sampled point is refused.
"""

import numpy as np
import pytest

from fibtor import verify
from fibtor.verify import CHECKS

_BY_NAME = dict(CHECKS)


def _run(name, seed=0):
    rng = np.random.default_rng(seed)
    ok, detail = _BY_NAME[name](rng)
    print("[%s] %s: %s" % ("PASS" if ok else "FAIL", name, detail))
    return ok, detail


def test_criterion_01_trefoil_constancy():
    ok, detail = _run("trefoil_third")
    assert ok, detail


def test_criterion_02_trefoil_eigenvalues():
    ok, detail = _run("trefoil_eigenvalues")
    assert ok, detail


def test_criterion_03_torus_crosscheck():
    ok, detail = _run("torus_crosscheck_23")
    assert ok, detail


def test_criterion_04_figure_eight_formula():
    ok, detail = _run("fig8_locus_formula")
    assert ok, detail


def test_criterion_05_holonomy_value():
    ok, detail = _run("fig8_holonomy_third")
    assert ok, detail


def test_criterion_06_epsilon0_values():
    ok, detail = _run("epsilon0_values")
    assert ok, detail


def test_criterion_07_cohomology_dimensions():
    ok, detail = _run("cohomology_dims")
    assert ok, detail


def test_criterion_08_torsion_core_properties():
    for name in ("torsion_core_basis_change",
                 "torsion_core_choice_invariance",
                 "torsion_core_multiplicativity"):
        ok, detail = _run(name)
        assert ok, detail


def test_criterion_09_wang_identities():
    ok, detail = _run("wang_identities")
    assert ok, detail


def test_criterion_10_dual_oracle_agreement():
    ok, detail = _run("dual_oracle_agreement")
    assert ok, detail


def test_criterion_11_conjugation_invariance():
    ok, detail = _run("conjugation_invariance")
    assert ok, detail


_REDUCIBLE = ("ReducibleCharacterError: commutator trace is 2: the character "
              "((1+0j), (1+0j), (-1+0j)) is reducible")
_NOT_FIXED = ("NotFixedPointError: no meridian intertwiner: the point is not fixed by the "
              "monodromy (smallest singular value %s)")


@pytest.mark.parametrize("replaced, trefoil_error, fig8_error", [
    ({1: (1.0, 1.0, -1.0)}, _REDUCIBLE, _REDUCIBLE),
    # a refusal of the stacked SVD comes before a later point's scalar refusal
    ({1: (1.0, 0.5, 0.3), 3: (1.0, 1.0, -1.0)},
     _NOT_FIXED % "4.284e-01", _NOT_FIXED % "4.602e-01"),
], ids=["reducible_second", "not_fixed_before_reducible"])
def test_a_refused_sample_is_reported_as_a_point_by_point_loop_meets_it(
        monkeypatch, replaced, trefoil_error, fig8_error):
    # the samples are lifted and their torsions computed as stacks; the
    # check still reports the first refusal in sample order
    sample = verify.sample_fixed_locus

    def with_refused_points(fk, count, rng, kind="complex"):
        pts = sample(fk, count, rng, kind=kind)
        for k, point in replaced.items():
            pts[k] = point
        return pts

    monkeypatch.setattr(verify, "sample_fixed_locus", with_refused_points)
    results = {name: (ok, detail) for check in ("trefoil_third", "fig8_locus_formula")
               for name, ok, detail in verify.run_checks(name_filter=check)}
    assert results == {"trefoil_third": (False, "raised " + trefoil_error),
                       "fig8_locus_formula": (False, "raised " + fig8_error)}
