"""Per-node integrands lifted to the panel integrands of
:mod:`oscbath.quadrature`, for the tests."""


def panel(f):
    """The panel integrand of f, a function of one abscissa that returns a
    tuple with one float per component: one column per component over the
    panel's abscissae."""
    return lambda nodes: list(zip(*map(f, nodes)))


def one(f):
    """The panel integrand of the one-component f."""
    return panel(lambda t: (f(t),))
