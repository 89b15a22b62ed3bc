"""Knots and character points shared by the test modules."""

from fibtor import FiberedKnot, Word, figure_eight


def fig8_locus_point(u):
    """The figure-eight fixed-locus point (u, u / (u - 1), u)."""
    u = complex(u)
    return (u, u / (u - 1.0), u)


def monodromy_power(fk, k):
    """Images of the fiber generators under phi^k, by substituting phi into
    every letter k times."""
    phi = fk.monodromy_words()
    images = [Word([(g, 1)]) for g in range(len(phi))]
    for _ in range(k):
        images = [Word([x for g, e in w
                        for x in (phi[g] if e == 1 else phi[g].inverse())])
                  for w in images]
    return dict(zip(fk.fiber_generators, images))


def figure_eight_power(k):
    """The figure-eight with its monodromy composed k times; at k = 5 the
    fiber words have 89 and 144 letters."""
    fk = figure_eight()
    return FiberedKnot("figure_eight^%d" % k, 1, fk.fiber_generators,
                       monodromy_power(fk, k), check_fibered=False)
