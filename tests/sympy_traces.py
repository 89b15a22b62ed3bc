"""Exact trace maps for the tests: the trace recurrence of `TraceCoordMap`
run on sympy symbols, and what the tests read off its polynomials."""

import sympy

X = sympy.symbols("x1 x2 x3")


def jets(tm):
    """The expanded jets (P_k, dP_k/dx1, dP_k/dx2, dP_k/dx3) of the map."""
    return [tuple(sympy.expand(v) for v in jet) for jet in tm.jets(X)]


def polynomials(tm):
    """The map's three trace polynomials P_k, expanded."""
    return tuple(sympy.expand(jet[0]) for jet in tm.jets(X))


def fixed_locus_relations(tm):
    """Reduced Groebner basis of the fixed locus P(x) = x."""
    eqs = [e for e in (p - x for p, x in zip(polynomials(tm), X)) if e != 0]
    return list(sympy.groebner(eqs, *X, order="lex").exprs) if eqs else []


def boundary_trace(x1, x2, x3):
    """I_gamma = tr [A, B] in trace coordinates."""
    return x1 ** 2 + x2 ** 2 + x3 ** 2 - x1 * x2 * x3 - 2


def preserves_boundary_trace(tm):
    """Whether I_gamma o P = I_gamma exactly."""
    return sympy.expand(boundary_trace(*polynomials(tm)) - boundary_trace(*X)) == 0
