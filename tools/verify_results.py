"""Write every result of the benchmark's verify workload, for byte comparison.

    python tools/verify_results.py DIR [BENCH_SEED ...]

For each bench seed (default 0 to 10), drives `bench/worker.py`'s own
`Verify` workload, as `bench/run.py --workload verify --seed BENCH_SEED`
seeds it, through ops 0 to 13 * 120 - 1: 120 passes over the 13 checks, at
check seeds base to base + 119.  Each op's `(name, ok, detail)` results go
to DIR/seed<BENCH_SEED>.tsv, one `name<TAB>ok<TAB>detail` line each, with
the elapsed time `trefoil_third` prints masked, so two checkouts that behave
alike give directories that `diff -r` finds equal.  fibtor is imported from
the `src/` of the checkout this script sits in.  A full run over the eleven
default seeds takes several minutes.
"""

import importlib.util
import pathlib
import random
import re
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
PASSES = 120

# the one wall time a check prints (trefoil_third's "... in 0.02 s")
ELAPSED = re.compile(r"\bin [0-9.]+ s\b")


def load_worker():
    """bench/worker.py as a module, importing fibtor from this checkout."""
    sys.path.insert(0, str(ROOT / "src"))
    sys.dont_write_bytecode = True  # no bytecode cache next to the benchmark
    spec = importlib.util.spec_from_file_location("_bench_worker", ROOT / "bench" / "worker.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if not argv or not all(a.isdigit() for a in argv[1:]):
        print(__doc__.strip(), file=sys.stderr)
        return 2
    out = pathlib.Path(argv[0])
    seeds = [int(a) for a in argv[1:]] or list(range(11))
    worker = load_worker()
    out.mkdir(parents=True, exist_ok=True)
    for seed in seeds:
        workload = worker.Verify(random.Random(seed))
        lines, failed = [], {}
        for i in range(workload.cycle * PASSES):
            for name, ok, detail in workload.op(i):
                lines.append("%s\t%s\t%s\n" % (name, ok, ELAPSED.sub("in <elapsed> s", detail)))
                if not ok:
                    failed[name] = failed.get(name, 0) + 1
        (out / ("seed%d.tsv" % seed)).write_text("".join(lines))
        print("bench seed %d: %d results, False: %s" % (seed, len(lines), failed or "none"))
    return 0


if __name__ == "__main__":
    sys.exit(main())
