"""Command line behavior: subcommands, exit codes, output formats."""

import contextlib
import io
import json
import subprocess
import sys
import warnings

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import numpy as np

from fibtor.cli import MAX_SWEEP_ROWS, _parse_grid, main
from fibtor.errors import InvalidInputError

CMD = [sys.executable, "-m", "fibtor.cli"]


def run(capsys, *args, expect=0):
    """Run the CLI in-process; return its (stdout, stderr)."""
    code = main(list(args))
    out, err = capsys.readouterr()
    assert code == expect, (code, out, err)
    return out, err


def test_list_text(capsys):
    out, _ = run(capsys, "list")
    assert "trefoil genus=1 methods=cohomology,jacobian" in out
    assert "figure_eight genus=1 methods=cohomology,jacobian" in out
    assert "torus" in out


def test_list_json(capsys):
    out, _ = run(capsys, "list", "--json")
    entries = json.loads(out)
    names = {e["name"] for e in entries}
    assert {"trefoil", "figure_eight", "torus"} <= names


# two smoke tests run `python -m fibtor.cli` for real; the rest call `main`

def test_unknown_subcommand_is_usage_error():
    proc = subprocess.run(CMD + ["frobnicate"], capture_output=True, text=True)
    assert proc.returncode == 2
    assert "usage" in (proc.stderr + proc.stdout).lower()


def test_compute_trefoil():
    proc = subprocess.run(CMD + ["compute", "--knot", "trefoil", "--x", "1,1,1",
                                 "--format", "json"], capture_output=True, text=True)
    assert proc.returncode == 0, (proc.stdout, proc.stderr)
    report = json.loads(proc.stdout)
    assert abs(report["torsion_re"] + 1.0 / 3.0) < 1e-9
    assert abs(report["torsion_im"]) < 1e-9
    assert report["epsilon0"] == 1


def test_compute_figure_eight_holonomy(capsys):
    out, _ = run(capsys, "compute", "--knot", "figure_eight", "--holonomy", "plus",
                 "--format", "json")
    report = json.loads(out)
    assert report["epsilon0"] == -1
    assert abs(report["torsion_im"]) < 1e-9


def test_compute_reducible_character_fails_with_code(capsys):
    _, err = run(capsys, "compute", "--knot", "figure_eight", "--x", "2,2,2", expect=1)
    assert "REDUCIBLE_CHARACTER" in err


def _reject_constant(name):
    raise ValueError("%s is not strict JSON" % name)


def test_compute_torus_closed_form(capsys):
    out, _ = run(capsys, "compute", "--knot", "torus(2,3)", "--x", "1,1",
                 "--format", "json")
    report = json.loads(out, parse_constant=_reject_constant)
    assert abs(report["torsion_re"] + 1.0 / 3.0) < 1e-12
    assert report["method"] == "closed_form"


def test_compute_knot_file_and_rep_file(tmp_path, capsys):
    from fibtor import figure_eight, lift_character_to_rep
    fk = figure_eight()
    knot_file = tmp_path / "fig8.json"
    knot_file.write_text(fk.to_json())
    u = 0.5
    rep = lift_character_to_rep(fk, (u, u / (u - 1.0), u))
    rep_file = tmp_path / "rep.json"
    rep_file.write_text(json.dumps({
        "images": {name: [[[z.real, z.imag] for z in row]
                          for row in rep.image(name).tolist()]
                   for name in ("a", "b", "t")}}))
    out, _ = run(capsys, "compute", "--knot-file", str(knot_file),
                 "--rep-file", str(rep_file), "--format", "json")
    report = json.loads(out)
    assert abs(report["torsion_re"] - 0.25) < 1e-9


def test_compute_rep_file_violating_relators(tmp_path, capsys):
    from fibtor import figure_eight
    fk = figure_eight()
    knot_file = tmp_path / "fig8.json"
    knot_file.write_text(fk.to_json())
    rep_file = tmp_path / "bad_rep.json"
    # random unimodular-ish images that do not satisfy the relations
    rep_file.write_text(json.dumps({
        "images": {"a": [[[2.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.5, 0.0]]],
                   "b": [[[1.0, 0.0], [1.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]],
                   "t": [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]}}))
    _, err = run(capsys, "compute", "--knot-file", str(knot_file),
                 "--rep-file", str(rep_file), expect=1)
    assert "RELATOR_VIOLATION" in err


def test_sweep_trefoil_csv(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    run(capsys, "sweep", "--knot", "trefoil", "--grid", "x=-0.9:1.9:20",
        "--out", str(out))
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "x,torsion_re,torsion_im,epsilon0,eigenvalues,error"
    assert len(lines) == 21
    for line in lines[1:]:
        cells = line.split(",")
        assert abs(float(cells[1]) + 1.0 / 3.0) < 1e-9
        assert cells[-1] == ""


def test_sweep_byte_stable(tmp_path, capsys):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    run(capsys, "sweep", "--knot", "trefoil", "--grid", "x=0.1:1.5:7", "--out", str(a))
    run(capsys, "sweep", "--knot", "trefoil", "--grid", "x=0.1:1.5:7", "--out", str(b))
    assert a.read_bytes() == b.read_bytes()


def test_sweep_figure_eight_locus(tmp_path, capsys):
    out = tmp_path / "fig8.csv"
    run(capsys, "sweep", "--knot", "figure_eight", "--grid", "u=-1.5:0.5:9",
        "--out", str(out))
    lines = out.read_text().strip().split("\n")[1:]
    for line in lines:
        cells = line.split(",")
        u = float(cells[0])
        s = u + u / (u - 1.0)
        assert abs(float(cells[1]) - 1.0 / (3.0 - 2.0 * s)) < 1e-8


def test_sweep_rows_with_failures_keep_error_codes(tmp_path, capsys):
    out = tmp_path / "bad.csv"
    # u = 2 is the reducible point on the figure-eight locus (s = 4)
    run(capsys, "sweep", "--knot", "figure_eight", "--grid", "u=2:2:1",
        "--out", str(out), expect=1)
    lines = out.read_text().strip().split("\n")
    assert lines[1].endswith("REDUCIBLE_CHARACTER")


def test_sweep_empty_grid_rejected(tmp_path, capsys):
    out = tmp_path / "never.csv"
    _, err = run(capsys, "sweep", "--knot", "trefoil", "--grid", "x=0:1:0",
                 "--out", str(out), expect=1)
    assert not out.exists()
    assert "INVALID_INPUT" in err


def test_verify_filter_torsion_core(capsys):
    out, _ = run(capsys, "verify", "--filter", "torsion_core")
    assert "torsion_core_basis_change" in out
    assert "trefoil_third" not in out


def test_verify_negative_control(capsys):
    out, _ = run(capsys, "verify", "--filter", "trefoil_third", "--inject-perturbation",
                 expect=1)
    assert "FAIL" in out


def _bad_knot_files(tmp_path):
    from fibtor import figure_eight
    good = json.loads(figure_eight().to_json())
    probe = tmp_path / "probe"
    runs_code = dict(good, trace_map=[
        "__import__('pathlib').Path(%r).touch() or x3" % str(probe),
        "x2*x3 - x1", "x2*x3**2 - x1*x3 - x2"])
    disagrees = dict(good, trace_map=["x1", "x2", "x3"])
    unknown_generator = dict(good, monodromy={"a": "a c", "b": "b a b"})
    missing_key = {k: v for k, v in good.items() if k != "monodromy"}
    # without a trace map, so that nothing but the names can refuse the file
    bare = {k: v for k, v in good.items() if k != "trace_map"}
    return probe, {
        "genus_float": json.dumps(dict(good, genus=1.9)),
        "genus_string": json.dumps(dict(good, genus="1")),
        "genus_bool": json.dumps(dict(good, genus=True)),
        "generator_empty": json.dumps(dict(
            bare, fiber_generators=["", "b"], monodromy={"": "b", "b": "b"})),
        "generator_spells_an_inverse": json.dumps(dict(
            bare, fiber_generators=["a", "A"], monodromy={"a": "a A", "A": "A a A"})),
        "generator_is_its_own_inverse": json.dumps(dict(
            bare, fiber_generators=["a", "2b"], monodromy={"a": "a 2b", "2b": "2b a 2b"})),
        # a string is not split into one-letter names
        "generators_a_string": json.dumps(dict(bare, fiber_generators="ab")),
        # every monodromy key is a fiber generator, and each is parsed
        "monodromy_extra_key": json.dumps(dict(
            bare, monodromy=dict(bare["monodromy"], c="zzz"))),
        "runs_code": json.dumps(runs_code),
        "disagrees": json.dumps(disagrees),
        "unknown_generator": json.dumps(unknown_generator),
        "missing_key": json.dumps(missing_key),
        "truncated": figure_eight().to_json()[:-25],
    }


@pytest.mark.parametrize("case", ["runs_code", "disagrees", "unknown_generator",
                                  "missing_key", "truncated", "genus_float",
                                  "genus_string", "genus_bool", "generator_empty",
                                  "generator_spells_an_inverse",
                                  "generator_is_its_own_inverse",
                                  "generators_a_string", "monodromy_extra_key"])
def test_malformed_knot_file_is_invalid_input(tmp_path, capsys, case):
    probe, files = _bad_knot_files(tmp_path)
    path = tmp_path / ("%s.json" % case)
    path.write_text(files[case])
    code = main(["compute", "--knot-file", str(path), "--x", "0.5,-1,0.5"])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error[INVALID_INPUT]: ")
    assert "Traceback" not in err
    assert not probe.exists()


_ONE = b"[[[1, 0], [0, 0]], [[0, 0], [1, 0]]]"


def _trefoil_rep_file(a, b=_ONE):
    """A trefoil rep file with the JSON matrices `a`, `b` and the identity for t."""
    return (["compute", "--knot", "trefoil", "--rep-file", "{path}"],
            b'{"images": {"a": %s, "b": %s, "t": %s}}' % (a, b, _ONE))


# argv (a file's path spelled "{path}") and the file's bytes, if any
BAD_INPUTS = {
    "rep_file_without_images": (
        ["compute", "--knot", "figure_eight", "--rep-file", "{path}"], b'{"imgs": {}}'),
    "rep_file_integer_entries": (
        ["compute", "--knot", "figure_eight", "--rep-file", "{path}"],
        b'{"images": {"a": [[1, 0], [0, 1]]}}'),
    # the determinant is NaN, or overflows; an integer too large for a float
    "rep_file_nan_entry": _trefoil_rep_file(b"[[[NaN, 0], [0, 0]], [[0, 0], [1, 0]]]"),
    "rep_file_huge_entries": _trefoil_rep_file(
        b"[[[1e308, 0], [1e308, 0]], [[1e308, 0], [1, 0]]]"),
    "rep_file_integer_overflows": _trefoil_rep_file(
        b"[[[1" + b"0" * 400 + b", 0], [0, 0]], [[0, 0], [1, 0]]]"),
    "rep_file_not_2x2": _trefoil_rep_file(b"[[[1, 0], [0, 0], [0, 0]]]"),
    "knot_file_not_utf8": (
        ["compute", "--knot-file", "{path}", "--x", "1,1,1"], b"\xff\xfe\x7b"),
    "grid_repeated_coordinate": (
        ["sweep", "--knot", "trefoil", "--grid", "x=0:1:2,x=0:1:3"], None),
    "grid_step_count_not_integer": (
        ["sweep", "--knot", "trefoil", "--grid", "x=0:1:abc"], None),
    "torus_index_not_number": (["compute", "--knot", "torus(2,5)", "--x", "1,abc"], None),
    "torus_index_not_integer": (["compute", "--knot", "torus(2,5)", "--x", "1.9,1"], None),
    # numpy refuses this step count without allocating, so the case is safe
    # to run without the cap too
    "grid_too_large": (
        ["sweep", "--knot", "trefoil", "--grid", "x=0:1:100000000000000000000"], None),
    "x_not_finite": (["compute", "--knot", "trefoil", "--x", "nan,1,1"], None),
    "x_trace_overflows": (["compute", "--knot", "trefoil", "--x", "1e200,1,1"], None),
    # the normal-form eigenvalue (x + sqrt(x^2 - 4))/2 cancels to 0
    "x_normal_form_underflows": (
        ["compute", "--knot", "trefoil", "--x=-2e8,-2e8,-2e8"], None),
    "tol_not_finite": (["compute", "--knot", "trefoil", "--x", "1,1,1", "--tol", "nan"], None),
    "tol_out_of_range": (["compute", "--knot", "trefoil", "--x", "1,1,1", "--tol=-1"], None),
    "grid_span_overflows": (["sweep", "--knot", "trefoil", "--grid", "x=1e308:-1e308:3"], None),
}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("case", sorted(BAD_INPUTS))
def test_bad_input_is_invalid_input(tmp_path, capsys, case):
    argv, content = BAD_INPUTS[case]
    path = tmp_path / "input.json"
    if content is not None:
        path.write_bytes(content)
    code = main([a.replace("{path}", str(path)) for a in argv])
    out, err = capsys.readouterr()
    assert code == 1
    assert err.startswith("error[INVALID_INPUT]: ")
    assert "Traceback" not in err
    assert out == ""


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("b", [_ONE, b"[[[1e200, 0], [-1e200, 0]], [[0, 0], [1e-200, 0]]]"],
                         ids=["identity", "huge"])
def test_rep_file_whose_relator_products_overflow(tmp_path, capsys, b):
    # unimodular images whose relator words overflow to a NaN defect, which
    # max() used to drop: with the huge b the file then ended in an SVD traceback
    argv, content = _trefoil_rep_file(
        b"[[[1e200, 0], [1e200, 0]], [[0, 0], [1e-200, 0]]]", b)
    path = tmp_path / "rep.json"
    path.write_bytes(content)
    code = main([a.replace("{path}", str(path)) for a in argv])
    assert code == 1
    assert capsys.readouterr().err.startswith("error[RELATOR_VIOLATION]: ")


def test_sweep_row_whose_normal_form_underflows(capsys):
    out, _ = run(capsys, "sweep", "--knot", "trefoil", "--grid", "x=-2e8:0.5:2", expect=1)
    lines = out.strip().split("\n")
    assert len(lines) == 3
    assert lines[1] == "-200000000,,,,,INVALID_INPUT"
    assert lines[2].startswith("0.5,-0.333333333333,")


@pytest.mark.parametrize("source", [["--knot", "trefoil", "--x", "1,1,1"],
                                    ["--knot", "figure_eight", "--holonomy", "plus"]])
def test_tol_reaches_the_rank_decisions(capsys, source):
    # the fiber restriction's coboundary matrix has rank 3 with a smallest
    # singular value between 0.1 and 0.5 of the largest
    _, err = run(capsys, "compute", *source, "--tol", "0.5", expect=1)
    assert err.startswith("error[REDUCIBLE_RESTRICTION]: ")
    out, _ = run(capsys, "compute", *source, "--tol", "0.1", "--format", "json")
    assert json.loads(out)["torsion_re"] == pytest.approx(-1.0 / 3.0, abs=1e-12)


def test_sweep_tol_reaches_every_row(capsys):
    out, _ = run(capsys, "sweep", "--knot", "trefoil", "--grid", "x=-0.9:1.9:20",
                 "--tol", "0.5", expect=1)
    rows = out.strip().split("\n")[1:]
    assert len(rows) == 20
    assert all(row.endswith(",,,,,REDUCIBLE_RESTRICTION") for row in rows)


@pytest.mark.parametrize("spec", ["x=0:1:1000001", "x1=0:1:1000,x2=0:1:1000,x3=0:1:2"])
def test_oversized_grid_is_refused_before_allocation(monkeypatch, spec):
    def no_linspace(*args, **kwargs):
        raise AssertionError("grid values were allocated")
    monkeypatch.setattr(np, "linspace", no_linspace)
    with pytest.raises(InvalidInputError, match="capped at %d" % MAX_SWEEP_ROWS):
        _parse_grid(spec)


def test_grid_at_the_row_cap_is_accepted():
    grid = _parse_grid("x1=0:1:1000,x2=0:1:1000")
    assert MAX_SWEEP_ROWS == 1000 * 1000
    assert [len(v) for v in grid.values()] == [1000, 1000]


def _matrix(m):
    return [[[complex(z).real, complex(z).imag] for z in row] for row in m]


_W = complex(-0.5, 3 ** 0.5 / 2)  # e^{2 pi i / 3}


@pytest.mark.parametrize("images, dim", [
    # dihedral: a = b diagonal of order 3, t swaps the eigenlines; H fixed
    ({"a": [[_W, 0], [0, _W.conjugate()]], "b": [[_W, 0], [0, _W.conjugate()]],
      "t": [[0, 1], [-1, 0]]}, 1),
    ({"a": [[1, 0], [0, 1]], "b": [[1, 0], [0, 1]], "t": [[1, 0], [0, 1]]}, 3),
], ids=["dihedral", "trivial"])
def test_rep_file_with_reducible_fiber_restriction(tmp_path, capsys, images, dim):
    path = tmp_path / "rep.json"
    path.write_text(json.dumps({"images": {g: _matrix(m) for g, m in images.items()}}))
    code = main(["compute", "--knot", "trefoil", "--rep-file", str(path)])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error[REDUCIBLE_RESTRICTION]: fiber restriction has an "
                          "Ad-fixed vector (dim %d); " % dim)


def test_runtime_does_not_import_sympy():
    # every subcommand and every verify check, in a fresh interpreter
    script = "\n".join([
        "import contextlib, io, sys",
        "import fibtor, fibtor.cli, fibtor.verify",
        "with contextlib.redirect_stdout(io.StringIO()), \\",
        "        contextlib.redirect_stderr(io.StringIO()):",
        "    fibtor.cli.main(['list'])",
        "    fibtor.cli.main(['sweep', '--knot', 'trefoil', '--grid', 'x=-0.9:1.9:4'])",
        "    fibtor.cli.main(['sweep', '--knot', 'figure_eight', '--grid', 'u=-2:2:5'])",
        "    fibtor.cli.main(['compute', '--knot', 'figure_eight', '--holonomy', 'plus'])",
        "failed = [n for n, ok, _ in fibtor.verify.run_checks() if not ok]",
        "print(failed, 'sympy' in sys.modules, 'scipy' in sys.modules)",
    ])
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "['fig8_holonomy_fifth'] False False"


_NUMBER_TEXT = st.one_of(
    st.floats().map(repr),
    st.sampled_from(["nan", "inf", "-inf", "1e308", "-1e308"]),
    st.integers().map(str),
    st.text(max_size=4),
)
_GRID_RANGE = st.tuples(st.sampled_from(["x", "u", "x1", "x2", "x3"]), _NUMBER_TEXT,
                        _NUMBER_TEXT, st.integers(-2, 5))
_ARGV = st.tuples(
    st.sampled_from(["trefoil", "figure_eight"]),
    st.one_of(
        st.lists(_GRID_RANGE, min_size=1, max_size=3).map(
            lambda ranges: ["sweep", "--grid=" + ",".join(
                "%s=%s:%s:%d" % r for r in ranges)]),
        st.lists(_NUMBER_TEXT, min_size=3, max_size=3).map(
            lambda xs: ["compute", "--x=" + ",".join(xs)]),
    ),
    st.one_of(st.none(), _NUMBER_TEXT),
).map(lambda t: t[1] + ["--knot", t[0]] + ([] if t[2] is None else ["--tol=" + t[2]]))


def _assert_exits_cleanly(argv):
    # a documented exit code: no traceback, no numpy warning
    with warnings.catch_warnings(), contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        warnings.simplefilter("error")
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
    assert code in (0, 1, 2), (argv, code)


@settings(derandomize=True, deadline=None, max_examples=150)
@given(_ARGV)
def test_cli_boundary_exits_cleanly(argv):
    # any sweep grid, --x triple or --tol
    _assert_exits_cleanly(argv)


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=3),
    lambda inner: (st.lists(inner, max_size=3)
                   | st.dictionaries(st.text(max_size=2), inner, max_size=3)),
    max_leaves=8)
_NAME = st.sampled_from(["a", "b", "t", "A", "c", ""]) | st.text(max_size=2)
_WORD = st.lists(_NAME, max_size=4).map(" ".join)
# a figure-eight knot file with each field kept or replaced, the optional
# ones also dropped
_KNOT_DOC = st.fixed_dictionaries({
    "genus": st.just(1) | st.integers(-1, 3) | _JSON,
    "fiber_generators": st.just(["a", "b"]) | st.lists(_NAME, max_size=3) | _JSON,
    "monodromy": (st.just({"a": "a b", "b": "b a b"})
                  | st.dictionaries(_NAME, _WORD | _JSON, max_size=3) | _JSON),
}, optional={
    "name": _JSON,
    "meridian": st.just("t") | _NAME | _JSON,
    "trace_map": (st.just(["x3", "x2*x3 - x1", "x2*x3**2 - x1*x3 - x2"])
                  | st.lists(st.text("x123+-* 0", max_size=6), max_size=4) | _JSON),
})
# 2x2 matrices of [re, im] pairs, with any float in them
_MATRIX = st.lists(st.lists(st.tuples(st.floats(), st.floats()).map(list),
                            min_size=2, max_size=2), min_size=2, max_size=2)
_REP_DOC = (st.fixed_dictionaries({"images": st.fixed_dictionaries(
                {"a": _MATRIX, "b": _MATRIX, "t": _MATRIX})})
            | st.fixed_dictionaries({"images": st.dictionaries(_NAME, _MATRIX | _JSON,
                                                               max_size=4)})
            | _JSON)


@settings(derandomize=True, deadline=None, max_examples=150,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.one_of(
    _KNOT_DOC.map(lambda doc: (doc, ["--knot-file", "{path}", "--x", "0.5,-1,0.5"])),
    st.tuples(_REP_DOC, st.sampled_from(["trefoil", "figure_eight"])).map(
        lambda t: (t[0], ["--knot", t[1], "--rep-file", "{path}"]))))
def test_cli_input_files_exit_cleanly(tmp_path, case):
    # any JSON in a knot file or a rep file
    doc, argv = case
    path = tmp_path / "input.json"
    path.write_text(json.dumps(doc))
    _assert_exits_cleanly(["compute"] + [a.replace("{path}", str(path)) for a in argv])
