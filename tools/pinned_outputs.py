"""Write the stdout, stderr and exit code of every pinned CLI command.

    python tools/pinned_outputs.py DIR

first writes the knot and rep files the commands read to DIR/inputs/,
then runs each command below as `python -m fibtor.cli ...` in DIR, and writes
DIR/<case>.stdout, DIR/<case>.stderr and DIR/<case>.code.  The elapsed
time that `verify` prints is masked, so two checkouts that behave alike
give directories that `diff -r` finds equal.  Exits 1 if any command
printed a traceback.  fibtor, here and in every command, is the `src/` of
the checkout this script sits in; the figure-eight power's knot file takes
its words from `FiberedKnot.power`.
"""

import json
import os
import pathlib
import re
import subprocess
import sys

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"
sys.path.insert(0, str(SRC))

from fibtor import figure_eight  # noqa: E402

FIG8_FILE = {"name": "figure_eight", "genus": 1, "fiber_generators": ["a", "b"],
             "meridian": "t", "monodromy": {"a": "a b", "b": "b a b"}}
FIG8_POWER5 = figure_eight().power(5)

# knot files, written as JSON
KNOT_FILES = {
    "fig8.json": FIG8_FILE,
    # the trace_map key as knot files used to carry it
    "fig8_trace_map.json": dict(FIG8_FILE, trace_map=[
        "x3", "x2*x3 - x1", "x2*x3**2 - x1*x3 - x2"]),
    "fig8_unknown_generator.json": dict(FIG8_FILE, monodromy={"a": "a c", "b": "b a b"}),
    # phi^5, 233 letters in all
    "fig8_power5.json": dict(FIG8_FILE, name=FIG8_POWER5.name, monodromy={
        g: w.to_string(FIG8_POWER5.fiber_generators)
        for g, w in FIG8_POWER5.monodromy.items()}),
}
# the figure-eight locus point (u, u / (u - 1), u) at u = 0.3 + 0.7i, which
# every power of the monodromy fixes
FIG8_LOCUS_X = "0.3+0.7j,0.2857142857142857-0.7142857142857143j,0.3+0.7j"
# files the checkout computes: each script prints one file
REP_FILE = """
import json
def write(rep, names):
    # the image of generator g of rep, under each file generator name -> g
    print(json.dumps({"images": {name: [[[z.real, z.imag] for z in row]
                                        for row in rep.image(g).tolist()]
                                 for name, g in names.items()}}))
"""
HOLONOMY_REP_FILE = "fig8_holonomy_plus.json"
HOLONOMY_REP = REP_FILE + """
from fibtor import figure_eight, holonomy_representation
write(holonomy_representation(figure_eight(), 1), {g: g for g in ("a", "b", "t")})
"""
# trefoil # trefoil, genus two, with one SU(2) trefoil lift on both handles:
# the unit eigenvalue is triple there, and compute must say so
GRANNY_FILE = "granny.json"
GRANNY = """
from fibtor import FiberedKnot
print(FiberedKnot("granny", 2, ["a1", "b1", "a2", "b2"],
                  {"a1": "a1 B1 A1", "b1": "a1 b1", "a2": "a2 B2 A2", "b2": "a2 b2"}).to_json())
"""
GRANNY_REP_FILE = "granny_trefoil_su2.json"
GRANNY_REP = REP_FILE + """
from fibtor import SU2, lift_character_to_rep, trefoil
write(lift_character_to_rep(trefoil(), (1.2, 1.2, 1.2), flavor=SU2),
      {"a1": "a", "b1": "b", "a2": "a", "b2": "b", "t": "t"})
"""
COMPUTED_FILES = {HOLONOMY_REP_FILE: HOLONOMY_REP, GRANNY_FILE: GRANNY,
                  GRANNY_REP_FILE: GRANNY_REP}

SWEEP_GRIDS = [
    ("trefoil", "x=-0.9:1.9:20"),
    ("figure_eight", "u=-2:2:41"),
    ("trefoil", "u=0:1:3"),
    ("figure_eight", "x1=-1:2:7,x2=0.5:0.5:1,x3=-1:1:5"),
    ("figure_eight", "u=-300:300:61"),
    ("trefoil", "x=-2e8:0.5:2"),
    ("torus(2,3)", "x=0:1:3"),
    # every row refused before the stacked lift: both rows reducible; the pole
    ("trefoil", "x=-1:2:2"),
    ("figure_eight", "u=1:1:1"),
    # a stack of one row
    ("figure_eight", "u=0.5:0.5:1"),
]
# raw coordinates on a knot file, with a rank cutoff that the stacked lift
# hands to every representation
KNOT_FILE_SWEEP = ["--knot-file", "inputs/fig8.json",
                   "--grid", "x1=-1:2:7,x2=0.5:0.5:1,x3=-1:1:5", "--tol", "1e-7"]
# one stack that holds a computed row (the locus point u = 0.3), five
# NOT_FIXED_POINT rows and two rows whose monodromy images are not finite
# (INVALID_INPUT)
MIXED_SWEEP = ["--knot-file", "inputs/fig8.json", "--grid",
               "x1=0.3:1e100:2,x2=-0.4285714285714286:1e100:2,x3=0.3:2:2"]

CASES = [
    ("list", ["list"]),
    ("list_json", ["list", "--json"]),
    ("compute_trefoil_x", ["compute", "--knot", "trefoil", "--x", "1,1,1"]),
    ("compute_trefoil_x_json",
     ["compute", "--knot", "trefoil", "--x", "1,1,1", "--format", "json"]),
    ("compute_fig8_plus", ["compute", "--knot", "figure_eight", "--holonomy", "plus"]),
    ("compute_fig8_minus", ["compute", "--knot", "figure_eight", "--holonomy", "minus"]),
    ("compute_fig8_plus_json",
     ["compute", "--knot", "figure_eight", "--holonomy", "plus", "--format", "json"]),
    ("compute_fig8_minus_json",
     ["compute", "--knot", "figure_eight", "--holonomy", "minus", "--format", "json"]),
    ("compute_trefoil_holonomy", ["compute", "--knot", "trefoil", "--holonomy", "plus"]),
    ("compute_torus25", ["compute", "--knot", "torus(2,5)", "--x", "1,1"]),
    ("compute_torus25_json",
     ["compute", "--knot", "torus(2,5)", "--x", "1,1", "--format", "json"]),
    ("compute_torus25_spaced", ["compute", "--knot", " torus( 2, 5)", "--x", "1,1"]),
    ("compute_torus", ["compute", "--knot", "torus", "--x", "1,1"]),
    ("compute_torus25_no_x", ["compute", "--knot", "torus(2,5)"]),
    ("compute_torus2x", ["compute", "--knot", "torus(2,x)", "--x", "1,1"]),
    ("compute_torus24", ["compute", "--knot", "torus(2,4)", "--x", "1,1"]),
    ("compute_granny", ["compute", "--knot", "granny", "--x", "1,1,1"]),
    ("compute_trefoil_no_source", ["compute", "--knot", "trefoil"]),
    ("compute_holonomy_and_x",
     ["compute", "--knot", "figure_eight", "--holonomy", "plus", "--x", "0,0,0"]),
    ("compute_torus_x_and_missing_rep_file",
     ["compute", "--knot", "torus(2,5)", "--x", "1,1", "--rep-file", "/nonexistent"]),
    ("compute_knot_file_fig8",
     ["compute", "--knot-file", "inputs/fig8.json", "--x", "3,1.5,3"]),
    ("compute_knot_file_fig8_json",
     ["compute", "--knot-file", "inputs/fig8.json", "--x", "3,1.5,3", "--format", "json"]),
    ("compute_knot_file_fig8_trace_map",
     ["compute", "--knot-file", "inputs/fig8_trace_map.json", "--x", "3,1.5,3"]),
    ("compute_knot_file_fig8_trace_map_json",
     ["compute", "--knot-file", "inputs/fig8_trace_map.json", "--x", "3,1.5,3",
      "--format", "json"]),
    ("compute_knot_file_fig8_power5_json",
     ["compute", "--knot-file", "inputs/fig8_power5.json", "--x", FIG8_LOCUS_X,
      "--format", "json"]),
    ("compute_knot_file_unknown_generator",
     ["compute", "--knot-file", "inputs/fig8_unknown_generator.json", "--x", "3,1.5,3"]),
    # monodromy images that overflow: refused, not a traceback
    ("compute_fig8_overflow", ["compute", "--knot", "figure_eight", "--x", "1e100,1e100,1"]),
    ("compute_fig8_rep_file",
     ["compute", "--knot", "figure_eight", "--rep-file", "inputs/" + HOLONOMY_REP_FILE]),
    ("compute_knot_file_granny_rep_file",
     ["compute", "--knot-file", "inputs/" + GRANNY_FILE,
      "--rep-file", "inputs/" + GRANNY_REP_FILE]),
]
for knot, grid in SWEEP_GRIDS:
    for fmt in ("csv", "json"):
        name = re.sub(r"[^\w.-]+", "_", "sweep_%s_%s_%s" % (knot, grid, fmt))
        CASES.append((name, ["sweep", "--knot", knot, "--grid", grid, "--format", fmt]))
# one row whose monodromy images overflow, alone and with a finite row
for grid in ("x1=1e100:1e100:1,x2=1e100:1e100:1,x3=1:1:1",
             "x1=1:1e100:2,x2=1e100:1e100:1,x3=1:1:1"):
    CASES.append((re.sub(r"[^\w.-]+", "_", "sweep_figure_eight_%s_csv" % grid),
                  ["sweep", "--knot", "figure_eight", "--grid", grid]))
for fmt in ("csv", "json"):
    CASES.append(("sweep_knot_file_fig8_raw_tol_" + fmt,
                  ["sweep"] + KNOT_FILE_SWEEP + ["--format", fmt]))
    CASES.append(("sweep_knot_file_fig8_mixed_" + fmt,
                  ["sweep"] + MIXED_SWEEP + ["--format", fmt]))
    # rows refused in the torsion half: under the rank cutoff 0.1 three rows
    # have an Ad-fixed vector on the fiber (REDUCIBLE_RESTRICTION), next to
    # two REDUCIBLE_CHARACTER rows and computed rows
    CASES.append(("sweep_trefoil_x_-2_3_26_tol_0.1_" + fmt,
                  ["sweep", "--knot", "trefoil", "--grid", "x=-2:3:26", "--tol", "0.1",
                   "--format", fmt]))
# 523000: a seed of the size the verify benchmark draws (a multiple of 1000)
for seed in (0, 1, 2, 3, 523000):
    CASES.append(("verify_seed%d" % seed, ["verify", "--seed", str(seed)]))
# known refusals: figure-eight samples next to degenerate points of the locus
# chart, where a rank decision of the Wang check lands on the wrong side of
# its cutoff ("d o d != 0", then "long exact sequence is not exact" twice;
# the last is the check seed the verify benchmark's seed 34 reaches at op
# 1362); all exit 1
for seed in (24109014, 224035068, 748834104):
    CASES.append(("verify_wang_identities_seed%d" % seed,
                  ["verify", "--filter", "wang_identities", "--seed", str(seed)]))

# the one wall time verify prints (trefoil_third's "... in 0.02 s")
ELAPSED = re.compile(r"\bin [0-9.]+ s\b")


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 1:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    out = pathlib.Path(argv[0])
    out.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    inputs = out / "inputs"
    inputs.mkdir(exist_ok=True)
    for name, doc in KNOT_FILES.items():
        (inputs / name).write_text(json.dumps(doc, indent=2) + "\n")
    for name, script in COMPUTED_FILES.items():
        made = subprocess.run([sys.executable, "-c", script], capture_output=True,
                              text=True, env=env, check=True)
        (inputs / name).write_text(made.stdout)
    crashed = []
    for name, args in CASES:
        # input paths are relative to DIR, so no output names the directory
        proc = subprocess.run([sys.executable, "-m", "fibtor.cli"] + args,
                              capture_output=True, text=True, env=env, cwd=out)
        stdout = proc.stdout
        if args[0] == "verify":
            stdout = ELAPSED.sub("in <elapsed> s", stdout)
        (out / (name + ".stdout")).write_text(stdout)
        (out / (name + ".stderr")).write_text(proc.stderr)
        (out / (name + ".code")).write_text("%d\n" % proc.returncode)
        if "Traceback" in proc.stderr:
            crashed.append(name)
    print("%d commands written to %s" % (len(CASES), out))
    for name in crashed:
        print("traceback: %s" % name, file=sys.stderr)
    return 1 if crashed else 0


if __name__ == "__main__":
    sys.exit(main())
