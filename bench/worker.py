"""One benchmark run in a fresh interpreter.

Sets up (imports fibtor, builds the seeded inputs), then runs one workload
in a closed loop with one client: each op starts when the previous one
ends.  Only the call into fibtor is timed.  Every output is checked against
an oracle that shares no code with the path it checks.  The result is one
JSON line on stdout; `run.py` starts this file and reads that line.
"""

import argparse
import builtins
import contextlib
import io
import json
import math
import os
import random
import resource
import statistics
import sys
import time


def _import_fibtor():
    """Import the public entry points; return (third-party ms, fibtor ms).

    Imports of anything outside fibtor that are first loaded while fibtor
    imports are timed as dependencies; the rest of the import is fibtor's.
    """
    real_import = builtins.__import__
    depth = [0]
    spent = [0.0]

    def timed_import(name, globals=None, locals=None, fromlist=(), level=0):
        if level or depth[0] or name.partition(".")[0] == "fibtor" \
                or name in sys.modules:
            return real_import(name, globals, locals, fromlist, level)
        depth[0] += 1
        t0 = time.perf_counter()
        try:
            return real_import(name, globals, locals, fromlist, level)
        finally:
            spent[0] += time.perf_counter() - t0
            depth[0] -= 1

    builtins.__import__ = timed_import
    t0 = time.perf_counter()
    try:
        import fibtor.cli  # noqa: F401
        import fibtor.verify  # noqa: F401
    finally:
        builtins.__import__ = real_import
    total = time.perf_counter() - t0
    return 1000.0 * spent[0], 1000.0 * (total - spent[0])


# -- inputs and oracles --------------------------------------------------------

FIG8_MONODROMY = {"a": "a b", "b": "b a b"}
FIG8_ABELIANIZED = ((1, 1), (1, 2))  # column j: exponent sums of phi(gen j)
SQRT5 = math.sqrt(5.0)
GRID_ROWS = 64


def _fig8_point(u):
    return (u, u / (u - 1.0), u)


def _commutator_trace(x1, x2, x3):
    return -2 - x1 * x2 * x3 + x1 ** 2 + x2 ** 2 + x3 ** 2


def _fig8_jacobian(x1, x2, x3):
    """Jacobian of the figure-eight trace map
    (x1, x2, x3) -> (x3, x2 x3 - x1, x2 x3^2 - x1 x3 - x2), written out here
    so the oracle does not use fibtor."""
    import numpy as np
    return np.array([[0, 0, 1],
                     [-1, x3, x2],
                     [-x3, x3 * x3 - 1, 2 * x2 * x3 - x1]], dtype=complex)


def _fig8_nonunit_eigenvalues(point):
    import numpy as np
    evs = np.linalg.eigvals(_fig8_jacobian(*point))
    unit = int(np.argmin(abs(evs - 1.0)))
    return [complex(z) for k, z in enumerate(evs) if k != unit]


def _eps0_power(k):
    """Sign of det(I - M^k) for the abelianized figure-eight monodromy M."""
    (a, b), (c, d) = FIG8_ABELIANIZED
    m = ((1, 0), (0, 1))
    for _ in range(k):
        m = ((m[0][0] * a + m[0][1] * c, m[0][0] * b + m[0][1] * d),
             (m[1][0] * a + m[1][1] * c, m[1][0] * b + m[1][1] * d))
    det = (1 - m[0][0]) * (1 - m[1][1]) - m[0][1] * m[1][0]
    return 1 if det > 0 else -1


def power_oracle(point, k):
    """T(phi^k) = -eps0(phi^k) prod 1/(1 - mu_i^k), mu_i the non-unit
    eigenvalues of the figure-eight trace-map Jacobian at the point."""
    value = -_eps0_power(k)
    for mu in _fig8_nonunit_eigenvalues(point):
        value /= 1.0 - mu ** k
    return complex(value)


def compose_monodromy(k):
    """Word strings of phi^k for the figure-eight monodromy phi, by
    substituting phi into itself k - 1 times."""
    phi = {g: w.split() for g, w in FIG8_MONODROMY.items()}
    images = {g: [g] for g in phi}
    for _ in range(k):
        images = {g: [x for letter in w for x in _substitute(phi, letter)]
                  for g, w in images.items()}
    return {g: " ".join(w) for g, w in images.items()}


def _substitute(phi, letter):
    if letter in phi:
        return phi[letter]
    return [x.upper() if x.islower() else x.lower() for x in reversed(phi[letter.lower()])]


def composed_knot(k):
    from fibtor.fibered import FiberedKnot
    return FiberedKnot("figure_eight^%d" % k, 1, ["a", "b"], compose_monodromy(k),
                       check_fibered=False)


def well_conditioned_point(rng, max_power=6):
    """A figure-eight fixed-locus point where every power up to max_power is
    a well-posed torsion: irreducible, |mu| <= 3 and every mu^k well away
    from 1.  Larger |mu|^k lose digits in any eigenvalue method."""
    while True:
        im = 0.0 if rng.random() < 0.25 else rng.uniform(-1.0, 1.0)
        u = complex(rng.uniform(-1.5, 1.5), im)
        if abs(u - 1.0) < 0.2:
            continue
        point = _fig8_point(u)
        if abs(_commutator_trace(*point) - 2.0) < 0.1:
            continue
        mus = _fig8_nonunit_eigenvalues(point)
        if max(abs(mu) for mu in mus) > 3.0:
            continue
        if min(abs(1.0 - mu ** k) for mu in mus for k in range(1, max_power + 1)) < 0.1:
            continue
        return point


def _close(value, expected, rel=1e-9):
    return abs(value - expected) <= rel * max(1.0, abs(expected))


# -- workloads -----------------------------------------------------------------


class SweepGenus1:
    """`fibtor sweep` in-process over 64-row grids, trefoil and figure-eight
    in turn.  Each grid holds exactly two reducible points, which must come
    back as REDUCIBLE_CHARACTER rows."""

    cycle = 2
    pool = 8  # grids per knot

    def __init__(self, rng):
        self.grids = []
        for _ in range(self.pool):
            # trefoil: reducible at x = -1 and x = 2, spacing 3/m
            m = rng.randint(30, 45)
            h = 3.0 / m
            j = rng.randint(0, GRID_ROWS - 1 - m)
            self.grids.append(self._grid("trefoil", "x", -1.0 - j * h, h, (j, j + m)))
            # figure-eight: reducible at u = (-1 -+ sqrt 5)/2, spacing sqrt5/m;
            # the grid stays below u = 0.95, clear of the pole at u = 1
            m = rng.randint(36, 44)
            h = SQRT5 / m
            lo = math.ceil(GRID_ROWS - 1 - (0.95 + (1 + SQRT5) / 2) / h)
            j = rng.randint(lo, GRID_ROWS - 1 - m)
            self.grids.append(self._grid("figure_eight", "u", -(1 + SQRT5) / 2 - j * h,
                                         h, (j, j + m)))

    @staticmethod
    def _grid(knot, coord, start, h, reducible):
        import numpy as np
        stop = start + (GRID_ROWS - 1) * h
        values = [float(v) for v in np.linspace(start, stop, GRID_ROWS)]
        spec = "%s=%r:%r:%d" % (coord, start, stop, GRID_ROWS)
        return {"knot": knot, "spec": spec, "values": values, "reducible": reducible}

    def op(self, i):
        from fibtor import cli
        grid = self.grids[i % len(self.grids)]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(["sweep", "--knot", grid["knot"], "--grid", grid["spec"]])
        return code, out.getvalue()

    def check(self, i, result):
        grid = self.grids[i % len(self.grids)]
        code, text = result
        lines = text.splitlines()
        if code != 1 or len(lines) != GRID_ROWS + 1:
            return False
        if lines[0].split(",")[1:] != ["torsion_re", "torsion_im", "epsilon0",
                                       "eigenvalues", "error"]:
            return False
        for row, (line, x) in enumerate(zip(lines[1:], grid["values"])):
            cells = line.split(",")
            if not _close(float(cells[0]), x, 1e-11):
                return False
            if row in grid["reducible"]:
                if cells[-1] != "REDUCIBLE_CHARACTER":
                    return False
                continue
            if cells[-1]:
                return False
            if grid["knot"] == "trefoil":
                expected = -1.0 / 3.0
            else:
                x1, x2, _ = _fig8_point(x)
                expected = 1.0 / (3.0 - 2.0 * (x1 + x2))
            if not (_close(float(cells[1]), expected) and abs(float(cells[2])) <= 1e-9):
                return False
        return True

    @staticmethod
    def perturb(result):
        """Shift the torsion of the first computed row by 1e-6."""
        code, text = result
        lines = text.splitlines()
        for n, line in enumerate(lines[1:], 1):
            cells = line.split(",")
            if not cells[-1]:
                cells[1] = repr(float(cells[1]) + 1e-6)
                lines[n] = ",".join(cells)
                break
        return code, "\n".join(lines) + "\n"


class LongMonodromy:
    """The figure-eight monodromy composed k times (k = 5: word length 233),
    with check_fibered=False: each op lifts a seeded fixed-locus point and
    runs main_theorem_torsion."""

    cycle = 1

    def __init__(self, rng, k=5, points=32):
        self.k = k
        self.knot = composed_knot(k)
        self.points = [well_conditioned_point(rng) for _ in range(points)]

    def op(self, i):
        from fibtor import fibered
        point = self.points[i % len(self.points)]
        rep = fibered.lift_character_to_rep(self.knot, point)
        return fibered.main_theorem_torsion(self.knot, rep).torsion

    def check(self, i, value):
        point = self.points[i % len(self.points)]
        return _close(value, power_oracle(point, self.k), 1e-9)

    @staticmethod
    def perturb(value):
        return value * (1.0 + 1e-6)


VERIFY_CHECKS = (
    "torsion_core_basis_change", "torsion_core_choice_invariance",
    "torsion_core_multiplicativity", "cohomology_dims", "trefoil_third",
    "trefoil_eigenvalues", "torus_crosscheck_23", "fig8_locus_formula",
    "fig8_holonomy_fifth", "epsilon0_values", "wang_identities",
    "dual_oracle_agreement", "conjugation_invariance",
)
DELIBERATE_RED = "fig8_holonomy_fifth"


class Verify:
    """Each of the 13 named checks in turn through run_checks, one check per
    op, with a new check seed for each pass over the 13."""

    cycle = len(VERIFY_CHECKS)

    def __init__(self, rng):
        self.base_seed = rng.randrange(1 << 20) * 1000
        self.perturb_checks = False

    def check_id(self, i):
        return VERIFY_CHECKS[i % self.cycle]

    def op(self, i):
        from fibtor import verify
        return verify.run_checks(name_filter=self.check_id(i),
                                 seed=self.base_seed + i // self.cycle,
                                 perturb=self.perturb_checks)

    def check(self, i, results):
        if len(results) != 1 or results[0][0] != self.check_id(i):
            return False
        name, ok, detail = results[0]
        if name != DELIBERATE_RED:
            return ok
        # the deliberate red must fail and report the computed -1/3 for both lifts
        values = [part.split("=")[1].strip() for part in detail.split(";")[0].split(",")]
        return (not ok and len(values) == 2
                and all(_close(complex(v), -1.0 / 3.0) for v in values))

    @staticmethod
    def perturb(results):
        return results


WORKLOADS = {"sweep_genus1": SweepGenus1, "long_monodromy": LongMonodromy,
             "verify": Verify}


# -- the closed loop -----------------------------------------------------------

# The sandbox's speed drifts by up to ~30% over minutes and in bursts of a
# few seconds, for reasons outside the process (CPU time drifts with wall
# time).  So a fixed reference kernel, which runs no fibtor code, is timed
# before the first op and after every op, and each op's time is scaled by
# REFERENCE_MS over the slower of the two reference times around it: times
# are reported as on a machine where the kernel takes exactly REFERENCE_MS.
# The slower of the two catches a burst that starts or ends during the op.
# Raw times are reported beside them.
REFERENCE_MS = 4.0
_REFERENCE_INPUTS = {}


def reference_kernel():
    """Fixed work in the mix of fibtor's hot paths (about 4 ms): tiny complex
    numpy products, small LAPACK calls, and Python tuple, dict and object
    traffic.  Different parts slow down by different amounts when the
    machine does, so the kernel mixes them."""
    import numpy as np
    if not _REFERENCE_INPUTS:
        rng = np.random.default_rng(0)
        for key, shape in (("tall", (6, 3)), ("square", (3, 3))):
            _REFERENCE_INPUTS[key] = (rng.standard_normal(shape)
                                      + 1j * rng.standard_normal(shape))
    tall, square = _REFERENCE_INPUTS["tall"], _REFERENCE_INPUTS["square"]
    a = np.array([[1.0 + 0.5j, 0.2], [0.1, 0.9 - 0.1j]])
    m = np.eye(2, dtype=complex)
    for _ in range(150):
        m = m @ a
        m = m / abs(m[0, 0])
    counts = {}
    for k in range(1500):
        key = (k % 37, k % 11)
        counts[key] = counts.get(key, 0) + k
    for _ in range(12):
        np.linalg.svd(tall)
        np.linalg.eigvals(square)
        np.linalg.qr(tall)
        np.kron(square, np.eye(2))
    for _ in range(3):
        words = [tuple((g % 3, 1 if g % 2 else -1) for g in range(k, k + 12))
                 for k in range(120)]
        merged = {}
        for w in words:
            merged[w] = merged.get(w, 0) + 1
        sorted(merged.items())
    return m, counts


def time_reference():
    t0 = time.perf_counter()
    reference_kernel()
    return time.perf_counter() - t0


def speed_factor(refs):
    """Multiplier taking times measured beside these reference times to
    reference speed."""
    return REFERENCE_MS / (1000.0 * statistics.median(refs))


def scaled(latencies, refs):
    """Each op's seconds at reference speed; refs[i] and refs[i + 1] are the
    reference times just before and just after op i."""
    return [t * REFERENCE_MS / (1000.0 * max(refs[i], refs[i + 1]))
            for i, t in enumerate(latencies)]


def run_loop(workload, first, seconds, tracer=None):
    """Ops first, first + 1, ... until `seconds` have passed, stopping at a
    whole number of cycles so every phase runs the same mix of inputs.
    Returns (per-op seconds, reference seconds before the first op and after
    each op, [(op, output, exception)], elapsed seconds, next op)."""
    latencies, refs, outputs = [], [time_reference()], []
    clock = time.perf_counter
    start = clock()
    i = first
    while True:
        if tracer is not None:
            tracer.op = i
        t0 = clock()
        try:
            out, exc = workload.op(i), None
        except Exception as e:  # an op that raises is a failed op, not an abort
            out, exc = None, e
        latencies.append(clock() - t0)
        refs.append(time_reference())
        outputs.append((i, out, exc))
        i += 1
        if (i - first) % workload.cycle == 0 and clock() - start >= seconds:
            return latencies, refs, outputs, clock() - start, i


def check_outputs(workload, outputs, negative_control=False):
    """One flag per output: True when it passes its oracle.  With the
    negative control the first output is perturbed before the check."""
    flags = []
    for n, (i, out, exc) in enumerate(outputs):
        if exc is not None:
            print("op %d raised %s: %s" % (i, type(exc).__name__, exc), file=sys.stderr)
            flags.append(False)
            continue
        if negative_control and n == 0:
            out = workload.perturb(out)
        try:
            flags.append(bool(workload.check(i, out)))
        except (ValueError, IndexError, TypeError):  # output in the wrong shape
            flags.append(False)
    return flags


def percentile(values, q):
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def latency_metrics(latencies, ok):
    ms = [1000.0 * t for t in latencies]
    return {"ops_per_s": ok / sum(latencies),
            "latency_p50_ms": statistics.median(ms),
            "latency_p90_ms": percentile(ms, 90)}


def scaling_curve(seed, flags):
    """Lift + main_theorem_torsion on phi^k at one point, k = 1..6, at least
    3 ops and 0.25 s per k: median ms per k and the log-log slope over
    k = 4..6.  Stops at k = 6: at k = 7 (length 1597) one op takes seconds."""
    metrics, lengths = {}, {}
    for k in range(1, 7):
        workload = LongMonodromy(random.Random(seed), k, points=1)
        workload.cycle = 3
        latencies, refs, outputs, _, _ = run_loop(workload, 0, 0.25)
        flags += check_outputs(workload, outputs)
        lengths[k] = sum(len(w) for w in workload.knot.monodromy_words())
        metrics["scaling.k%d_ms" % k] = 1000.0 * statistics.median(scaled(latencies, refs))
    xs = [math.log(lengths[k]) for k in (4, 5, 6)]
    ys = [math.log(metrics["scaling.k%d_ms" % k]) for k in (4, 5, 6)]
    mx, my = sum(xs) / 3, sum(ys) / 3
    metrics["scaling.exponent"] = (sum((x - mx) * (y - my) for x, y in zip(xs, ys))
                                   / sum((x - mx) ** 2 for x in xs))
    return metrics


# Per-layer metrics of the traced phase, per op.  Time is in ms per op for
# layers every workload calls, and as a share of traced op time for layers
# only some workloads call, whose time is exactly 0 elsewhere.
LAYERS_EVERYWHERE = [
    ("words.fox_derivative", ("calls", "busy_ms", "letters", "terms")),
    ("rep.Representation.evaluate_word", ("calls", "busy_ms", "letters")),
    ("rep.Representation.evaluate_group_ring", ("calls", "busy_ms", "terms")),
    ("fibered.lift_character_to_rep",
     ("calls", "busy_ms", "self_ms", "rejected", "accept_ratio")),
    ("fibered.monodromy_action", ("calls", "busy_ms", "self_ms")),
    ("fibered.eigenvalues_excluding_one", ("calls", "busy_ms")),
    ("fibered.main_theorem_torsion", ("calls", "busy_ms", "self_ms")),
    ("linalg.column_space", ("calls", "busy_ms")),
    ("linalg.nullspace", ("calls", "busy_ms")),
    ("linalg.orthogonal_complement", ("calls", "busy_ms")),
]
LAYERS_SOME = [
    ("rep.twisted_cochain_complex", ("calls", "busy_pct")),
    ("fibered.wang_complex", ("busy_pct",)),
    ("fibered.wang_product_check", ("busy_pct",)),
    ("torsion.torsion", ("calls", "busy_pct", "self_pct")),
    ("torsion.homology", ("calls", "busy_pct", "self_pct")),
    ("torsion.sign_determined_torsion", ("calls", "busy_pct", "self_pct")),
    ("torsion.multiplicativity_check", ("calls", "busy_pct", "self_pct")),
    ("cli.main", ("calls", "busy_pct", "self_pct")),
]
GROUPS = ("words", "rep", "fibered", "torsion", "linalg", "cli", "fox_adjoint")


def layer_metrics(summary, ops, op_seconds, factor):
    """Per-op counts, busy and self ms (scaled by `factor`), and shares of
    the traced ops' raw time."""
    calls, busy, self_time = summary["calls"], summary["busy"], summary["self"]
    counts, raised = summary["counts"], summary["raised"]
    out = {}
    for name, fields in LAYERS_EVERYWHERE + LAYERS_SOME:
        values = {
            "calls": calls[name] / ops,
            "busy_ms": 1000.0 * factor * busy[name] / ops,
            "self_ms": 1000.0 * factor * self_time[name] / ops,
            "busy_pct": 100.0 * busy[name] / op_seconds,
            "self_pct": 100.0 * self_time[name] / op_seconds,
            "rejected": raised[name] / ops,
            "accept_ratio": 1.0 - raised[name] / calls[name] if calls[name] else 0.0,
            "letters": counts[name + ".letters"] / ops,
            "terms": counts[name + ".terms"] / ops,
        }
        for field in fields:
            out["%s.%s" % (name, field)] = values[field]
    lookups = counts["rep.adjoint_cache.lookups"]
    entries = counts["rep.adjoint_cache.entries"]
    out["rep.adjoint_cache.hit_ratio"] = 1.0 - entries / lookups if lookups else 0.0
    out["rep.adjoint_cache.entries"] = entries / ops
    for group in GROUPS:
        out["%s.busy_pct" % group] = 100.0 * busy[group] / op_seconds
    return out


# -- main ----------------------------------------------------------------------


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--negative-control", action="store_true")
    parser.add_argument("--trace-out")
    args = parser.parse_args(argv)

    deps_ms, fibtor_ms = _import_fibtor()
    import fibtor
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    if not os.path.abspath(fibtor.__file__).startswith(src + os.sep):
        raise SystemExit("fibtor imported from %s, not from %s" % (fibtor.__file__, src))
    t0 = time.perf_counter()
    fibtor.trefoil()
    fibtor.figure_eight()
    catalog_ms = 1000.0 * (time.perf_counter() - t0)
    workload = WORKLOADS[args.workload](random.Random(args.seed))
    setup_s = time.monotonic() - args.spawned_at
    # the first timings in a fresh process run with cold caches
    refs = [time_reference() for _ in range(20)]
    factor = speed_factor(refs[5:])
    setup = {"setup_s": factor * setup_s, "raw.setup_s": setup_s,
             "setup.import_deps_ms": factor * deps_ms,
             "setup.import_fibtor_ms": factor * fibtor_ms,
             "catalog.build_ms": factor * catalog_ms}
    if args.setup_only:
        print(json.dumps({"setup": setup}))
        return 0

    if args.negative_control and isinstance(workload, Verify):
        workload.perturb_checks = True
    # one untimed cycle first, so lazy imports and first-call costs are paid
    _, _, outputs, _, first = run_loop(workload, 0, 0.0)
    if not args.trace:
        latencies, refs, timed, elapsed, _ = run_loop(workload, first, args.seconds)
        flags = check_outputs(workload, outputs + timed, args.negative_control)
        ok = sum(flags[len(outputs):])
        raw = latency_metrics(latencies, ok)
        metrics = latency_metrics(scaled(latencies, refs), ok)
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        print(json.dumps({
            "setup": setup, "attempted": len(flags), "failed": flags.count(False),
            "timed_ops": len(timed), "elapsed_s": elapsed, "metrics": metrics,
            "raw": raw}))
        return 0

    from tracing import Tracer
    half = args.seconds / 2.0
    plain_lat, plain_refs, plain, _, first = run_loop(workload, first, half)
    flags = []
    scaling = scaling_curve(args.seed + 1, flags)
    probe = Verify(random.Random(args.seed + 2))
    probe_lat, probe_refs, probe_out, _, _ = run_loop(probe, 0, 0.0)
    flags += check_outputs(probe, probe_out)
    check_ms = {name: [] for name in VERIFY_CHECKS}
    samples = [(probe, probe_lat, probe_refs, probe_out)]
    if isinstance(workload, Verify):
        samples.append((workload, plain_lat, plain_refs, plain))
    for source, latencies, refs, outs in samples:
        for t, (i, _, _) in zip(scaled(latencies, refs), outs):
            check_ms[source.check_id(i)].append(1000.0 * t)

    tracer = Tracer()
    tracer.install()
    try:
        traced_lat, traced_refs, traced, _, _ = run_loop(workload, first, half, tracer)
    finally:
        tracer.uninstall()

    flags += check_outputs(workload, outputs + plain + traced, args.negative_control)
    metrics = layer_metrics(tracer.summary(), len(traced), sum(traced_lat),
                            speed_factor(traced_refs))
    metrics.update({"verify.%s.ms" % name: statistics.median(ms)
                    for name, ms in check_ms.items()})
    metrics.update(scaling)
    plain_rate = len(plain) / sum(scaled(plain_lat, plain_refs))
    traced_rate = len(traced) / sum(scaled(traced_lat, traced_refs))
    metrics["trace.overhead_pct"] = 100.0 * (plain_rate / traced_rate - 1.0)
    metrics["trace.spans_per_op"] = len(tracer.spans) / len(traced)
    if args.trace_out:
        tracer.write(args.trace_out)
    print(json.dumps({
        "setup": setup, "attempted": len(flags), "failed": flags.count(False),
        "timed_ops": len(traced), "untraced_ops_per_s": plain_rate,
        "traced_ops_per_s": traced_rate, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
