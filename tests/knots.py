"""Character points shared by the test modules."""


def fig8_locus_point(u):
    """The figure-eight fixed-locus point (u, u / (u - 1), u)."""
    u = complex(u)
    return (u, u / (u - 1.0), u)
