"""Spans around calls into fibtor's layers, installed at run time.

Each traced function is replaced, in every fibtor namespace that holds it,
by a wrapper that records one span: (parent span, op id, name, start, end,
raised).  Spans stay in memory and are summarised and written out when the
run ends.  Nothing under src/ is edited; `uninstall` restores every
replaced attribute.
"""

import collections
import functools
import gzip
import json
import sys
import time

from fibtor.errors import FibtorError


def _word_letters(args):
    w = args[1]
    return len(w.split()) if isinstance(w, str) else len(w)


def _count_fox(counts, args, result, _):
    counts["words.fox_derivative.letters"] += len(args[0])
    counts["words.fox_derivative.terms"] += len(result.terms)


def _count_evaluate_word(counts, args, result, _):
    counts["rep.Representation.evaluate_word.letters"] += _word_letters(args)


def _count_group_ring(counts, args, result, _):
    counts["rep.Representation.evaluate_group_ring.terms"] += len(args[1].terms)


def _cache_size(args):
    return len(getattr(args[0], "_adjoints", ()))


def _count_adjoint_cache(counts, args, result, size_before):
    counts["rep.adjoint_cache.lookups"] += 1
    counts["rep.adjoint_cache.entries"] += _cache_size(args) - size_before


# (module, attribute, span name, counter, pre-call probe).  A dotted
# attribute is a method, patched on its class.
TRACED = [
    ("fibtor.cli", "main", "cli.main", None, None),
    ("fibtor.fibered", "lift_character_to_rep",
     "fibered.lift_character_to_rep", None, None),
    ("fibtor.fibered", "main_theorem_torsion",
     "fibered.main_theorem_torsion", None, None),
    ("fibtor.fibered", "monodromy_action", "fibered.monodromy_action", None, None),
    ("fibtor.fibered", "eigenvalues_excluding_one",
     "fibered.eigenvalues_excluding_one", None, None),
    ("fibtor.fibered", "wang_complex", "fibered.wang_complex", None, None),
    ("fibtor.fibered", "wang_product_check", "fibered.wang_product_check",
     None, None),
    ("fibtor.words", "fox_derivative", "words.fox_derivative", _count_fox, None),
    ("fibtor.rep", "Representation.evaluate_word",
     "rep.Representation.evaluate_word", _count_evaluate_word, None),
    ("fibtor.rep", "Representation.evaluate_group_ring",
     "rep.Representation.evaluate_group_ring", _count_group_ring, None),
    ("fibtor.rep", "Representation.adjoint_of_word",
     "rep.Representation.adjoint_of_word", _count_adjoint_cache, _cache_size),
    ("fibtor.rep", "twisted_cochain_complex", "rep.twisted_cochain_complex",
     None, None),
    ("fibtor.torsion", "torsion", "torsion.torsion", None, None),
    ("fibtor.torsion", "homology", "torsion.homology", None, None),
    ("fibtor.torsion", "sign_determined_torsion",
     "torsion.sign_determined_torsion", None, None),
    ("fibtor.torsion", "multiplicativity_check", "torsion.multiplicativity_check",
     None, None),
    ("fibtor.linalg", "column_space", "linalg.column_space", None, None),
    ("fibtor.linalg", "nullspace", "linalg.nullspace", None, None),
    ("fibtor.linalg", "orthogonal_complement", "linalg.orthogonal_complement",
     None, None),
]

# Busy time is also summed per module, and for Fox/adjoint assembly as a
# whole (words and rep), counting each interval once however deeply the
# group's spans nest.
FOX_ADJOINT = "fox_adjoint"


def _groups(name):
    module = name.split(".")[0]
    groups = (name, module)
    if module in ("words", "rep"):
        groups += (FOX_ADJOINT,)
    return groups


class Tracer:
    def __init__(self):
        self.names = [spec[2] for spec in TRACED]
        self.spans = []
        self.counts = collections.Counter()
        self.op = -1
        self._stack = []
        self._active = collections.Counter()
        self._undo = []

    def install(self):
        for index, (module_name, attr, _, counter, probe) in enumerate(TRACED):
            # sys.modules, not the package attribute: fibtor.torsion is the
            # re-exported function, which shadows the module.
            module = sys.modules[module_name]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                original = cls.__dict__[meth]
                self._replace(cls, meth, self._wrap(index, original, counter, probe))
                continue
            original = getattr(module, attr)
            wrapper = self._wrap(index, original, counter, probe)
            for mod_name, mod in list(sys.modules.items()):
                if mod_name != "fibtor" and not mod_name.startswith("fibtor."):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._replace(mod, key, wrapper)

    def uninstall(self):
        for owner, key, original in reversed(self._undo):
            setattr(owner, key, original)
        self._undo = []

    def _replace(self, owner, key, value):
        self._undo.append((owner, key, getattr(owner, key)))
        setattr(owner, key, value)

    def _wrap(self, index, fn, counter, probe):
        groups = _groups(self.names[index])
        spans, stack, active, counts = self.spans, self._stack, self._active, self.counts
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            outer = tuple(g for g in groups if not active[g])
            for g in groups:
                active[g] += 1
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            before = probe(args) if probe else None
            raised = False
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except FibtorError:
                raised = True
                raise
            finally:
                t1 = clock()
                stack.pop()
                for g in groups:
                    active[g] -= 1
                spans[sid] = (parent, self.op, index, t0, t1, raised, outer)
            if counter:
                counter(counts, args, result, before)
            return result

        return traced

    def summary(self):
        """Per span name and per group: calls, busy and self seconds, raised."""
        calls = collections.Counter()
        raised = collections.Counter()
        busy = collections.Counter()
        self_time = collections.Counter()
        child = [0.0] * len(self.spans)
        # children start after their parent, so a reverse pass sees every
        # child before its parent
        for sid in range(len(self.spans) - 1, -1, -1):
            parent, _, index, t0, t1, failed, outer = self.spans[sid]
            name = self.names[index]
            d = t1 - t0
            calls[name] += 1
            raised[name] += failed
            for g in outer:
                busy[g] += d
            self_time[name] += d - child[sid]
            if parent >= 0:
                child[parent] += d
        return {"calls": calls, "raised": raised, "busy": busy,
                "self": self_time, "counts": self.counts}

    def write(self, path):
        """Write every span, start and end in microseconds from the first."""
        base = self.spans[0][3] if self.spans else 0.0
        rows = [[sid, parent, op, index, round((t0 - base) * 1e6),
                 round((t1 - base) * 1e6), int(failed)]
                for sid, (parent, op, index, t0, t1, failed, _) in enumerate(self.spans)]
        doc = {"names": self.names,
               "columns": ["span", "parent", "op", "name", "start_us", "end_us",
                           "raised"],
               "spans": rows}
        with gzip.open(path, "wt") as fh:
            json.dump(doc, fh, separators=(",", ":"))
