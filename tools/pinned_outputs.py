"""Write the stdout, stderr and exit code of every pinned CLI command.

    python tools/pinned_outputs.py DIR

runs each command below as `python -m fibtor.cli ...` against the `src/`
of the checkout this script sits in, and writes DIR/<case>.stdout,
DIR/<case>.stderr and DIR/<case>.code.  The elapsed time that `verify`
prints is masked, so two checkouts that behave alike give directories
that `diff -r` finds equal.  Exits 1 if any command printed a traceback.
"""

import os
import pathlib
import re
import subprocess
import sys

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"

SWEEP_GRIDS = [
    ("trefoil", "x=-0.9:1.9:20"),
    ("figure_eight", "u=-2:2:41"),
    ("trefoil", "u=0:1:3"),
    ("figure_eight", "x1=-1:2:7,x2=0.5:0.5:1,x3=-1:1:5"),
    ("figure_eight", "u=-300:300:61"),
    ("trefoil", "x=-2e8:0.5:2"),
    ("torus(2,3)", "x=0:1:3"),
]

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
]
for knot, grid in SWEEP_GRIDS:
    for fmt in ("csv", "json"):
        name = re.sub(r"[^\w.-]+", "_", "sweep_%s_%s_%s" % (knot, grid, fmt))
        CASES.append((name, ["sweep", "--knot", knot, "--grid", grid, "--format", fmt]))
for seed in (0, 1, 2):
    CASES.append(("verify_seed%d" % seed, ["verify", "--seed", str(seed)]))

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
    crashed = []
    for name, args in CASES:
        proc = subprocess.run([sys.executable, "-m", "fibtor.cli"] + args,
                              capture_output=True, text=True, env=env)
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
