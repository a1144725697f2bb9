"""Generator of ``src/oscbath/_jet_tables.py``: Taylor polynomials of the
jet of R(z) = J(z) - 1/(12 z) about fixed centers, from mpmath.

    python tests/jet_tables.py          # rewrites src/oscbath/_jet_tables.py

Each component f of the jet (R, z R', z^2 R'') gets its own expansion
f(center + u) = sum_n f_n u^n, every coefficient formed at DPS digits and
rounded once to a double.  With a_n = R^(n)(c)/n!, the coefficients of
z R' and z^2 R'' are

    c (n + 1) a_(n+1) + n a_n,
    c^2 (n + 2)(n + 1) a_(n+2) + 2 c (n + 1) n a_(n+1) + n (n - 1) a_n,

and R^(n) comes from the polygamma functions: for n >= 2

    R^(n)(c) = psi(n - 1, c + 1) - (-1)^n (n - 2)!/c^(n - 1)
               + (-1)^n (n - 1)!/(2 c^n) - (-1)^n n!/(12 c^(n + 1)).

Two bands are tabulated.  Real arguments 1/2 <= x < 10 use real centers,
as do real pairs a > b >= 1/4 with a < 1.5 b, differenced about the
center of (a + b)/2; mirror pairs, x with |Re x| < Im x/4, |x| >= 1/2
and Im x < 10 differenced against -conj(x), use centers i eta0 on the
imaginary axis, so that x and its image lie in the same disk.  Each band is
split into CENTERS pieces of equal ratio (at most 1.2 from one edge to the
next), with the center at the geometric middle of its piece; R is analytic
in the disk of radius |center| about it, so the series converges as
(|u|/|center|)^n.  A center's rows reach the worst |u|/|center| that it
serves (:func:`real_band`, :func:`mirror_band`): the term count that
``stieltjes._term_count`` asks for there, plus two, plus one to spare.
``tests/test_jet_tables.py`` regenerates every literal from this file.
"""

from __future__ import annotations

import math
import sys
from pathlib import Path

import mpmath as mp

DPS = 60
# |x| of the middle band: from SMALL_ARGUMENT to _REMAINDER_ASYMPTOTIC
LOW, HIGH = 0.5, 10.0
CENTERS = 17
# a mirror pair has |Re x| < NEAR_AXIS Im x (stieltjes._NEAR_AXIS)
NEAR_AXIS = 0.25
# a real pair a > b with a < PAIR_RATIO b is differenced about the center of
# (a + b)/2 (stieltjes._PAIR_RATIO)
PAIR_RATIO = 1.5
SERIES_EPS = 1e-21           # stieltjes._SERIES_EPS

TARGET = Path(__file__).resolve().parent.parent / "src" / "oscbath" / \
    "_jet_tables.py"


def term_count(ratio: float) -> int:
    """stieltjes._term_count, for |ratio| < 1."""
    return math.ceil(math.log(SERIES_EPS) / math.log(ratio))


def pieces(low: float, high: float):
    """(edges, centers) of CENTERS pieces of equal ratio between low and
    high: the CENTERS - 1 inner edges and each piece's geometric middle, as
    doubles."""
    with mp.workdps(DPS):
        ratio = (mp.mpf(high) / mp.mpf(low)) ** (mp.mpf(1) / CENTERS)
        edges = [float(low * ratio ** k) for k in range(1, CENTERS)]
        centers = [float(low * ratio ** (k + mp.mpf(1) / 2))
                   for k in range(CENTERS)]
    return edges, centers


def real_band():
    """The real centers and the worst |u|/center each must reach.  A center
    serves the real arguments of its piece, the first one also those from
    LOW/2, the least argument of a pair; and the real pairs a > b with
    a < PAIR_RATIO b whose midpoint m lies in its piece, whose arguments
    reach out to 2 m PAIR_RATIO/(PAIR_RATIO + 1) (at most HIGH) and down
    to 2 m/(PAIR_RATIO + 1) (at least LOW/2)."""
    edges, centers = pieces(LOW, HIGH)
    ends = [LOW / 2] + edges + [HIGH]
    up, down = 2 * PAIR_RATIO / (PAIR_RATIO + 1), 2 / (PAIR_RATIO + 1)
    worst = [max(min(up * hi, HIGH) - c, c - max(down * lo, LOW / 2)) / c
             for c, lo, hi in zip(centers, ends, ends[1:])]
    return edges, centers, worst


def mirror_band():
    """The heights eta0 of the centers i eta0, and the worst |u|/eta0 of
    each piece: Im x from the least height of a mirror pair with |x| = 1/2
    to 10, and |Re x| up to NEAR_AXIS Im x."""
    low = LOW / math.sqrt(1.0 + NEAR_AXIS ** 2)
    edges, centers = pieces(low, HIGH)
    ends = [low] + edges + [HIGH]
    worst = [max(math.hypot(NEAR_AXIS * y, y - c) for y in (lo, hi)) / c
             for c, lo, hi in zip(centers, ends, ends[1:])]
    return edges, centers, worst


def remainder_coefficients(center, count):
    """a_0 .. a_count of R about the mpmath number ``center``."""
    c = center
    half = mp.mpf(1) / 2
    a = [mp.loggamma(c + 1) - mp.log(2 * mp.pi) / 2 - (c + half) * mp.log(c)
         + c - 1 / (12 * c),
         mp.digamma(c + 1) - mp.log(c) - 1 / (2 * c) + 1 / (12 * c * c)]
    for n in range(2, count + 1):
        sign = -1 if n % 2 else 1
        derivative = (mp.psi(n - 1, c + 1)
                      - sign * mp.factorial(n - 2) / c ** (n - 1)
                      + sign * mp.factorial(n - 1) / (2 * c ** n)
                      - sign * mp.factorial(n) / (12 * c ** (n + 1)))
        a.append(derivative / mp.factorial(n))
    return a


def jet_coefficients(center, count):
    """[(R_n, (z R')_n, (z^2 R'')_n) for n = 0 .. count] about ``center``
    (a float or a complex), each rounded once to the type of center."""
    kind = complex if isinstance(center, complex) else float
    with mp.workdps(DPS):
        c = mp.mpc(center.real, center.imag) if kind is complex \
            else mp.mpf(center)
        a = remainder_coefficients(c, count + 2)
        rows = []
        for n in range(count + 1):
            slope = c * (n + 1) * a[n + 1] + n * a[n]
            curvature = (c * c * (n + 2) * (n + 1) * a[n + 2]
                         + 2 * c * (n + 1) * n * a[n + 1] + n * (n - 1) * a[n])
            rows.append(tuple(kind(v) for v in (a[n], slope, curvature)))
    return rows


def tables():
    """The two bands as (edges, [(center, jet at center, rows)]), the rows
    those of u^1 .. u^M, lowest power first."""
    bands = []
    for band, kind in ((real_band(), float), (mirror_band(), complex)):
        edges, centers, worst = band
        entries = []
        for c, rho in zip(centers, worst):
            center = complex(0.0, c) if kind is complex else c
            coefficients = jet_coefficients(center, term_count(rho) + 3)
            entries.append((center, coefficients[0], coefficients[1:]))
        bands.append((edges, entries))
    return bands


HEADER = '''"""Taylor polynomials of the jet (R, z R', z^2 R'') of R(z) = J(z) - 1/(12 z)
about fixed centers, for :mod:`oscbath.stieltjes`.

Generated by tests/jet_tables.py from mpmath; do not edit.
tests/test_jet_tables.py regenerates every number and checks it to the bit.

Real arguments 1/4 <= x < 10 take the center REAL_CENTERS[k],
k = bisect(REAL_EDGES, x), and real pairs a > b, a < 1.5 b, that of
(a + b)/2.  Mirror pairs x, -conj(x) with
|Re x| < Im x/4, |x| >= 1/2 and Im x < 10 take MIRROR_CENTERS[k],
k = bisect(MIRROR_EDGES, Im x), on the imaginary axis.  Block k of
REAL_ROWS or MIRROR_ROWS (blocks apart by a blank line) holds the jet at
that center and then the coefficients of u^1, u^2, ... (u = z - center),
one line of three numbers per power, each the repr of a float or a
complex.  The rows are text, which oscbath.stieltjes splits and reads on
first use: the same numbers as tuple literals take ~40 ms and ~7 MB to
compile where no bytecode cache is written.
"""
'''


def render(bands=None) -> str:
    """The text of the module, from :func:`tables` or the given bands."""
    (real_edges, real), (mirror_edges, mirror) = bands or tables()
    lines = [HEADER]

    def block(name, values):
        lines.append(f"{name} = (")
        lines.extend(f"    {v!r}," for v in values)
        lines.append(")")

    def text(name, entries):
        blocks = ["\n".join(" ".join(map(repr, row)) for row in (jet, *rows))
                  for _, jet, rows in entries]
        lines.append(f'{name} = """\\\n' + "\n\n".join(blocks) + '\n"""')

    block("REAL_EDGES", real_edges)
    block("REAL_CENTERS", [center for center, _, _ in real])
    text("REAL_ROWS", real)
    block("MIRROR_EDGES", mirror_edges)
    block("MIRROR_CENTERS", [center for center, _, _ in mirror])
    text("MIRROR_ROWS", mirror)
    return "\n".join(lines) + "\n"


if __name__ == "__main__":
    TARGET.write_text(render())
    print(f"wrote {TARGET}", file=sys.stderr)
