"""The Taylor tables of the J engine's middle band (oscbath._jet_tables).

Every number is regenerated with mpmath by tests/jet_tables.py and must
come back to the bit.  The band test checks real jets and mirror-pair
differences against 50-digit mpmath at random points and at the hard
spots: the edges between two centers, |x| = 1/2, |x| just below 10 and
Re x = Im x/4.  Its bounds, 4e-16 (real) and 6e-16 (mirror) relative to
each component, are below the worst error of the shift recurrence on the
same points: 9.7e-16, 1.1e-15 and 1.4e-15 for R, z R' and z^2 R'' of a
real argument, 1.1e-15, 1.4e-15 and 2.0e-15 for a mirror difference.  The
tables reach 2.0e-16, 1.9e-16 and 1.6e-16, and 4.0e-16, 3.7e-16 and
4.4e-16.  Real pairs, with ratios from 1 + 1e-10 to 1e9, from 1/4 up and
astride 1/2, the ratio 1.5 and 10, are held to 6e-16 with delta rounded
once; they reach 5.2e-16, 5.0e-16 and 5.0e-16, where the shift recurrence
reached 1.2e-15, 1.5e-15 and 2.9e-15 on the same pairs.  Mirror pairs in
the sliver past |x| = 10 whose image has Im < 10, which the mirror table
serves too, are held to 6e-16; they reach 2.7e-16, 3.6e-16 and 3.1e-16,
where the shift recurrence reached 8.4e-16, 1.3e-15 and 1.7e-15.
"""

import math
import random

import pytest

import jet_tables
from oscbath import _jet_tables, thermo
from oscbath import stieltjes as sj

mp = pytest.importorskip("mpmath")


@pytest.fixture(scope="module")
def generated():
    return jet_tables.tables()


def hexes(values):
    return [part.hex() for v in values
            for part in ((v.real, v.imag) if isinstance(v, complex) else (v,))]


@pytest.mark.parametrize("band", [0, 1], ids=["real", "mirror"])
def test_every_center_regenerates_to_the_bit(generated, band):
    edges, entries = generated[band]
    committed_edges, committed = sj._taylor_bands()[band]
    assert hexes(edges) == hexes(committed_edges)
    assert len(committed) == len(entries) == len(edges) + 1
    for (center, jet, rows), (got_center, got_jet, prefixes, _) in zip(
            entries, committed):
        assert hexes([center]) == hexes([got_center])
        assert hexes(jet) == hexes(got_jet)
        got_rows = prefixes[-1][::-1]           # lowest power first
        assert hexes(v for row in rows for v in row) \
            == hexes(v for row in got_rows for v in row), center


def test_the_module_text_regenerates(generated):
    assert jet_tables.render(generated) == jet_tables.TARGET.read_text()


def test_the_generator_matches_the_engine():
    assert jet_tables.LOW == sj.SMALL_ARGUMENT
    assert jet_tables.HIGH == sj._REMAINDER_ASYMPTOTIC
    assert jet_tables.NEAR_AXIS == sj._NEAR_AXIS == thermo._NEAR_AXIS
    assert jet_tables.PAIR_RATIO == sj._PAIR_RATIO
    assert jet_tables.SERIES_EPS == sj._SERIES_EPS
    for edges in (_jet_tables.REAL_EDGES, _jet_tables.MIRROR_EDGES):
        assert all(b / a <= 1.2 for a, b in zip(edges, edges[1:]))


def test_rows_reach_the_worst_point_of_each_piece():
    # the term count the engine asks for at the far ends of each piece
    # (Re x = Im x/4 for a mirror pair) is within the committed rows
    for band, (_, table) in zip((jet_tables.real_band(),
                                 jet_tables.mirror_band()), sj._taylor_bands()):
        _, _, worst = band
        for rho, (_, _, prefixes, _) in zip(worst, table):
            assert sj._term_count(rho * (1.0 + 1e-12)) + 2 < len(prefixes)


def remainder_jet(w):
    """(R, w R', w^2 R'') at the mpmath number w."""
    j0 = (mp.loggamma(w + 1) - mp.log(2 * mp.pi) / 2
          - (w + mp.mpf(1) / 2) * mp.log(w) + w)
    j1 = mp.digamma(w + 1) - mp.log(w) - 1 / (2 * w)
    j2 = mp.psi(1, w + 1) - 1 / w + 1 / (2 * w * w)
    lead = 1 / (12 * w)
    return j0 - lead, w * j1 + lead, w * w * j2 - 2 * lead


def real_points():
    rng = random.Random(26)
    points = [10.0 ** rng.uniform(math.log10(0.5), 1.0) for _ in range(150)]
    for edge in _jet_tables.REAL_EDGES:
        points += [math.nextafter(edge, 0.0), edge]
    return points + [0.5, math.nextafter(10.0, 0.0)]


def mirror_points():
    rng = random.Random(27)
    points = []
    for _ in range(150):
        size = 10.0 ** rng.uniform(math.log10(0.5), 1.0)
        angle = math.atan(10.0 ** rng.uniform(-12.0, math.log10(0.25)))
        points.append(complex(size * math.sin(angle), size * math.cos(angle)))
    steep = math.nextafter(0.25, 0.0)            # Re x just below Im x/4
    for height in _jet_tables.MIRROR_EDGES:
        for eta in (math.nextafter(height, 0.0), height):
            points += [complex(slope * eta, eta) for slope in (1e-9, steep)]
    for size in (0.5, math.nextafter(10.0, 0.0)):
        for slope in (1e-9, 0.01, steep):
            angle = math.atan(slope)
            points.append(complex(size * math.sin(angle),
                                  size * math.cos(angle)))
    return [x for x in points
            if 0.5 <= abs(x) < 10.0 and x.real < 0.25 * x.imag]


def test_real_jets_against_mpmath():
    with mp.workdps(50):
        for x in real_points():
            want = remainder_jet(mp.mpf(x))
            got = sj.j_remainder(x)
            for i in range(3):
                assert abs(got[i] - want[i]) <= 4e-16 * abs(want[i]), (x, i)


def test_mirror_differences_against_mpmath():
    with mp.workdps(50):
        for x in mirror_points():
            b = -x.conjugate()
            got = sj.j_remainder_difference(x, b, x - b)
            wants = zip(remainder_jet(mp.mpc(x.real, x.imag)),
                        remainder_jet(mp.mpc(b.real, b.imag)))
            for i, (at_x, at_b) in enumerate(wants):
                want = at_x - at_b
                assert abs(got[i] - want) <= 6e-16 * abs(want), (x, i)


def real_pairs():
    """(a, b) with a > b >= 1/4: ratios a/b from 1 + 1e-10 to 1e9, pairs
    next to 1/4 and astride 1/2 and 10, and ratios at _PAIR_RATIO."""
    rng = random.Random(28)
    pairs = []
    for _ in range(300):
        b = 10.0 ** rng.uniform(math.log10(0.25), 1.2)
        pairs.append((b * (1.0 + 10.0 ** rng.uniform(-10.0, 9.0)), b))
    for anchor in (0.251, 0.5, 10.0):
        for _ in range(60):
            ratio = 1.0 + 10.0 ** rng.uniform(-10.0, 0.5)
            b = max(anchor / ratio ** rng.random(), 0.25)
            pairs.append((b * ratio, b))
    for b in (0.25, 0.3, 2.0, 9.0):
        for ratio in (sj._PAIR_RATIO, math.nextafter(sj._PAIR_RATIO, 0.0)):
            pairs.append((b * ratio, b))
    return [(a, b) for a, b in pairs if a > b]


def test_real_pair_differences_against_mpmath():
    # delta = a - b rounded once, as the closed form forms it from its gap
    with mp.workdps(60):
        for a, b in real_pairs():
            delta = float(mp.mpf(a) - mp.mpf(b))
            wants = zip(remainder_jet(mp.mpf(a)), remainder_jet(mp.mpf(b)))
            got = sj.j_remainder_difference(a, b, delta)
            swapped = sj.j_remainder_difference(b, a, -delta)
            for i, (at_a, at_b) in enumerate(wants):
                want = at_a - at_b
                assert abs(got[i] - want) <= 6e-16 * abs(want), (a, b, i)
                assert swapped[i] == -got[i]


def sliver_points():
    """Mirror arguments x past |x| = 10 whose image still has Im < 10:
    10 <= |x| < 10 sqrt(17/16), with |Re x| < Im x/4."""
    rng = random.Random(29)
    top = 10.0 * math.sqrt(1.0 + 0.25 ** 2)
    points = []
    while len(points) < 200:
        eta = rng.uniform(100.0 / top, 10.0)
        x = complex(rng.uniform(math.sqrt(100.0 - eta * eta), 0.25 * eta), eta)
        if 10.0 <= abs(x) < top and x.real < 0.25 * x.imag:
            points.append(x)
    return points


def test_mirror_differences_in_the_sliver():
    # the mirror table serves Im x < 10, |x| past 10 included
    with mp.workdps(60):
        for x in sliver_points():
            b = -x.conjugate()
            got = sj.j_remainder_difference(x, b, x - b)
            wants = zip(remainder_jet(mp.mpc(x.real, x.imag)),
                        remainder_jet(mp.mpc(b.real, b.imag)))
            for i, (at_x, at_b) in enumerate(wants):
                want = at_x - at_b
                assert abs(got[i] - want) <= 6e-16 * abs(want), (x, i)


def no_shift(z):
    raise AssertionError(f"shift recurrence at {z!r}")


def test_the_band_skips_the_shift_recurrence(monkeypatch):
    x = complex(1e-6, 3.0)
    with monkeypatch.context() as patch:
        patch.setattr(sj, "_shift_count", no_shift)
        for z in (0.5, 3.0, math.nextafter(10.0, 0.0), 10.0, 1e5):
            sj.j_remainder(z)
        for a, b in real_pairs():
            sj.j_remainder_difference(a, b, a - b)
        for mirror in (x, *sliver_points()[:5]):
            sj.j_remainder_difference(mirror, -mirror.conjugate(),
                                      complex(2.0 * mirror.real, 0.0))
        # a complex single keeps the recurrence
        with pytest.raises(AssertionError, match="shift recurrence"):
            sj.j_remainder(x)
    # a complex pair below 10 that is not a mirror pair is no pair of the
    # closed form: no recurrence differences it
    with pytest.raises(ValueError, match="j_remainder_difference: the pair"):
        sj.j_remainder_difference(x, x - 1e-3, 1e-3)
