"""The exact_quadrature route of :mod:`oscbath.thermo`, bit for bit.

Evaluating whole panels and the dark cut of
:func:`oscbath.thermo._spectral_moments` change no arithmetic: the rows
below are ``float.hex`` of F, S, U and C from a node-by-node quadrature
that integrated the dark region too, and every one must come back the
same to the bit.  A row of None raises OverflowError.
"""

import math

import pytest

from oscbath import thermo
from oscbath.baths import (OhmicSpec, QEDSpec, SingleRelaxationSpec,
                           canonicalize, spectral_weight, static_weight)

THETAS = (1e-100, 1e-5, 1e-3, 0.3, 3.0, 300.0)

# (model, gamma, Omega') -> ((theta, (F, S, U, C) as float.hex), ...)
QUADRATURE_ROWS = {
    ('ohmic', 1e-08, None): (
        (1e-100, ("-0x1.136b89d289b2fp-692", "0x1.3acd3a3357288p-359",
                  "0x1.136b89d289b2fp-692", "0x1.3acd3a3357288p-359")),
        (1e-05, ("-0x1.35140288b7f6ap-61", "0x1.d79da860fd5eep-44",
                 "0x1.3514028cd019ap-61", "0x1.d79da86d7c07bp-44")),
        (0.001, ("-0x1.794b4eb363aa4p-48", "0x1.7073ea2fefa4dp-37",
                 "0x1.794c11f051e0ap-48", "0x1.70756784c6befp-37")),
        (0.3, ("-0x1.651906787aa9bp-7", "0x1.46f06700ddc51p-3",
               "0x1.2f0d6d2fb8421p-5", "0x1.b47a2019974a3p-2")),
        (3.0, ("-0x1.e4174ac6ba5d1p+1", "0x1.0d369c6c96fafp+1",
               "0x1.438c8a7f0a93cp+1", "0x1.fb49154476b4cp-1")),
        (300.0, ("-0x1.abe89d5814136p+10", "0x1.ad0ac7972512ap+2",
                 "0x1.2b8012342d79cp+8", "0x1.ffffe0ee50d07p-1")),
    ),
    ('ohmic', 1.0, None): (
        (1e-100, ("-0x1.9a686b61d4147p-666", "0x1.d5174e84ff54fp-333",
                  "0x1.9a686b61d4147p-666", "0x1.d5174e84ff54fp-333")),
        (1e-05, ("-0x1.cc8ff66aa633dp-35", "0x1.5f6195b1cb200p-17",
                 "0x1.cc8ff66eb76edp-35", "0x1.5f6195b7ffea9p-17")),
        (0.001, ("-0x1.191b0ea1da9b8p-21", "0x1.12849ba3b665cp-10",
                 "0x1.191b6f9aff4b5p-21", "0x1.1285590a980c7p-10")),
        (0.3, ("-0x1.c083c3055f568p-5", "0x1.9116cf36a7d8cp-2",
               "0x1.010cb0bee68c0p-4", "0x1.c21824a4d27f6p-2")),
        (3.0, ("-0x1.07344342d8762p+2", "0x1.13adf476ad1f7p+1",
               "0x1.2ca156de56722p+1", "0x1.e2d2210e61cd0p-1")),
        (300.0, ("-0x1.ac2c382d27ebap+10", "0x1.ad1377c40f87fp+2",
                 "0x1.2a9a60b2691ebp+8", "0x1.ffba674f81880p-1")),
    ),
    ('ohmic', 10000.0, None): (
        (1e-100, ("-0x1.f4fc7714eb630p-653", "0x1.1e4f79acacd7ap-319",
                  "0x1.f4fc7714eb630p-653", "0x1.1e4f79acacd7ap-319")),
        (1e-05, ("-0x1.15bd27e215cbap-21", "0x1.a31391404f907p-4",
                 "0x1.0f8d8fc878569p-21", "0x1.9198122b97414p-4")),
        (0.001, ("-0x1.40e5ae962752cp-10", "0x1.aac0b52e8d73cp+0",
                 "0x1.d063fa9f68a7ap-12", "0x1.f01e9d94c6899p-2")),
        (0.3, ("-0x1.337cd03bf9471p+0", "0x1.20358c025d950p+2",
               "0x1.32e857d084f79p-3", "0x1.fffa545ca9d6ep-2")),
        (3.0, ("-0x1.eed9e8cd569e6p+3", "0x1.69e82c9988e78p+2",
               "0x1.8012d0c7b5e74p+0", "0x1.00287b6b07715p-1")),
        (300.0, ("-0x1.183a6b00e7f41p+11", "0x1.ff42032def98cp+2",
                 "0x1.35642dc026f74p+7", "0x1.0ff93046432a5p-1")),
    ),
    ('srt', 1e-08, 100.0): (
        (1e-100, ("-0x1.137296d0bdc57p-692", "0x1.3ad54948e6971p-359",
                  "0x1.137296d0bdc57p-692", "0x1.3ad54948e6971p-359")),
        (1e-05, ("-0x1.351bec1bd4624p-61", "0x1.d7a9bb29169c8p-44",
                 "0x1.351bec1fec853p-61", "0x1.d7a9bb3595455p-44")),
        (0.001, ("-0x1.7954f75377cb0p-48", "0x1.707d58dc433cep-37",
                 "0x1.7955ba9065e0cp-48", "0x1.707ed6311a172p-37")),
        (0.3, ("-0x1.65190678814b7p-7", "0x1.46f06700e0888p-3",
               "0x1.2f0d6d2fb9ea8p-5", "0x1.b47a201998abep-2")),
        (3.0, ("-0x1.e4174ac6bcf20p+1", "0x1.0d369c6c98b21p+1",
               "0x1.438c8a7f0d242p+1", "0x1.fb4915447d793p-1")),
        (300.0, ("-0x1.abe89d582001cp+10", "0x1.ad0ac797317a1p+2",
                 "0x1.2b80123437e51p+8", "0x1.ffffe0ee5aa92p-1")),
    ),
    ('srt', 2.0, 100.0): (
        (1e-100, ("-0x1.9a72b84b061eep-665", "0x1.d5231479b7601p-332",
                  "0x1.9a72b84b061eep-665", "0x1.d5231479b7601p-332")),
        (1e-05, ("-0x1.cc9b85901e038p-34", "0x1.5f6a6755bd4cbp-16",
                 "0x1.cc9b858e15661p-34", "0x1.5f6a6752a2e77p-16")),
        (0.001, ("-0x1.1921d407afd22p-20", "0x1.128af162e2b2ep-9",
                 "0x1.1921a38b88e7fp-20", "0x1.128a92b0acb0bp-9")),
        (0.3, ("-0x1.65d6a3bc16e05p-4", "0x1.19a212dbdc3b5p-1",
               "0x1.3e14bcb9f9ae0p-4", "0x1.ce2e32b0e42fcp-2")),
        (3.0, ("-0x1.184b33e0d87e8p+2", "0x1.19b7e8012e0ecp+1",
               "0x1.1c915041d92f4p+1", "0x1.ce61ca23095f5p-1")),
        (300.0, ("-0x1.acf7662c2bb56p+10", "0x1.adae686f2e0bap+2",
                 "0x1.2a43f0d87900ep+8", "0x1.ffea3add3cc67p-1")),
    ),
    ('srt', 10000.0, 1000000000000.0): (
        (1e-100, ("-0x1.f4fc7714eb630p-653", "0x1.1e4f79acacd7ap-319",
                  "0x1.f4fc7714eb630p-653", "0x1.1e4f79acacd7ap-319")),
        (1e-05, ("-0x1.15bd27e215cbap-21", "0x1.a31391404f907p-4",
                 "0x1.0f8d8fc878569p-21", "0x1.9198122b97414p-4")),
        (0.001, ("-0x1.40e5ae962752cp-10", "0x1.aac0b52e8d73cp+0",
                 "0x1.d063fa9f68a7ap-12", "0x1.f01e9d94c6899p-2")),
        (0.3, ("-0x1.337cd03bf9471p+0", "0x1.20358c025d950p+2",
               "0x1.32e857d084f79p-3", "0x1.fffa545ca9d6ep-2")),
        (3.0, ("-0x1.eed9e8cd569e6p+3", "0x1.69e82c9988e78p+2",
               "0x1.8012d0c7b5e74p+0", "0x1.00287b6b07715p-1")),
        (300.0, ("-0x1.183a6b00e7f41p+11", "0x1.ff42032def98cp+2",
                 "0x1.35642dc026f74p+7", "0x1.0ff93046432a5p-1")),
    ),
    ('qed', 1e-08, 100.0): (
        (1e-100, None),
        (1e-05, ("-0x1.060f748dfee61p-92", "0x1.8fdf553f793c6p-74",
                 "0x1.89172edd42118p-91", "0x1.2be77ff9102d1p-72")),
        (0.001, ("-0x1.8681fa41bd7c0p-66", "0x1.7d5bd94d919cfp-54",
                 "0x1.24e26c3df8ae4p-64", "0x1.1e06435ab950bp-52")),
        (0.3, ("-0x1.651905756c0a4p-7", "0x1.46f06694edfdfp-3",
               "0x1.2f0d6ceef5c7cp-5", "0x1.b47a1fe3a15d1p-2")),
        (3.0, ("-0x1.e4174a61e246cp+1", "0x1.0d369c2997a6cp+1",
               "0x1.438c8a1ae4ad9p+1", "0x1.fb49143c20c43p-1")),
        (300.0, ("-0x1.abe89b8608e8bp+10", "0x1.ad0ac5b2a05e9p+2",
                 "0x1.2b80109d2c186p+8", "0x1.ffffdf6db4c65p-1")),
    ),
    ('qed', 1.0, 1000000000000.0): (
        (1e-100, ("-0x0.0p+0", "0x1.6262487817d04p-994",
                  "0x0.0p+0", "0x1.09c9b65a11dc4p-992")),
        (1e-05, ("-0x1.86761a3f71a80p-66", "0x1.29e5fae687668p-47",
                 "0x1.24d893af953e1p-64", "0x1.bed8f859cb19cp-46")),
        (0.001, ("-0x1.22ea970520344p-39", "0x1.1c19177b016a3p-27",
                 "0x1.b45fe287b03c5p-38", "0x1.aa25a33881f39p-26")),
        (0.3, ("-0x1.6adb3e2696599p-7", "0x1.ddf33ca2aeeccp-4",
               "0x1.881ca9afed228p-6", "0x1.b6123ba11b032p-3")),
        (3.0, ("-0x1.ec58d1c5cfa52p+0", "0x1.0db80d24d5235p+0",
               "0x1.3ccf55a8afc4dp+0", "0x1.f79196358084bp-2")),
        (300.0, ("-0x1.abed8e60e0f5ap+9", "0x1.ad0ac988251acp+1",
                 "0x1.2b6c572aaa16fp+7", "0x1.ffffc1f49a5b7p-2")),
    ),
    ('qed', 2.0, 100.0): (
        (1e-100, ("-0x0.0p+0", "0x1.6981cd0c85f23p-993",
                  "0x0.0p+0", "0x1.0f2159c96475bp-991")),
        (1e-05, ("-0x1.8e4f42831103cp-65", "0x1.2fe2d86025cbep-46",
                 "0x1.2abb71cf54623p-63", "0x1.c7d44464cd547p-45")),
        (0.001, ("-0x1.28bf376564cbap-38", "0x1.21c8a11118f44p-26",
                 "0x1.bd1a8328a3865p-37", "0x1.b2a6a0a47f914p-25")),
        (0.3, ("-0x1.357683bc1ccbdp-7", "0x1.67956795552b3p-4",
               "0x1.14c4d40857cdep-6", "0x1.16fe2205f12f2p-3")),
        (3.0, ("-0x1.685ba1a0a386bp+0", "0x1.9d69aecc52cd8p-1",
               "0x1.03c2e491d8ad9p+0", "0x1.d5fd845502702p-2")),
        (300.0, ("-0x1.e5d0a37280927p+9", "0x1.06a448b27a28cp+2",
                 "0x1.0380cddf9b7a4p+8", "0x1.e6a0f71a59b2bp-1")),
    ),
    ('qed', 10000.0, 1000000000000.0): (
        (1e-100, ("-0x0.0p+0", "0x1.b098f9bf2b229p-981",
                  "0x0.0p+0", "0x1.4472bb4f605a0p-979")),
        (1e-05, ("-0x1.9a4119ffaa27cp-53", "0x1.258a5f2678099p-34",
                 "0x1.1a2f93afb8730p-51", "0x1.8611441495b3dp-33")),
        (0.001, ("-0x1.a59b413d78d38p-35", "0x1.acf58c553facep-24",
                 "0x1.c8e6e44e4d2a3p-35", "0x1.c11e73286f3e1p-24")),
        (0.3, ("-0x1.3c247bb88bf4dp-18", "0x1.077e74142ba08p-15",
               "0x1.3c3e3477dcbfbp-18", "0x1.0789303160511p-15")),
        (3.0, ("-0x1.ee1d30a3371eap-12", "0x1.496a200d2fb3cp-12",
               "0x1.ee212f8457fc8p-12", "0x1.496b6d6a0345fp-12")),
        (300.0, ("-0x1.2d3d38b2e3c6ep+2", "0x1.00c2337a9dd90p-5",
                 "0x1.2c89eff47e2dcp+2", "0x1.ff26421579e27p-6")),
    ),
}


def bath_of(model, gamma, omega_prime):
    if model == "ohmic":
        return canonicalize(OhmicSpec(gamma=gamma))
    if model == "srt":
        return canonicalize(SingleRelaxationSpec(
            gamma=gamma, tau=1.0 / (omega_prime + gamma)))
    return canonicalize(QEDSpec(gamma=gamma, omega_prime=omega_prime))


@pytest.mark.parametrize("key", QUADRATURE_ROWS)
def test_rows_are_pinned(key):
    bath = bath_of(*key)
    rows = QUADRATURE_ROWS[key]
    assert tuple(theta for theta, _ in rows) == THETAS
    thetas = [theta for theta, row in rows if row is not None]
    points = thermo.sweep(bath, thetas, "exact_quadrature")
    expected = [row for _, row in rows if row is not None]
    for point, row in zip(points, expected):
        assert tuple(v.hex() for v in (point.F, point.S, point.U,
                                       point.C)) == row
    for theta, row in rows:
        if row is None:
            with pytest.raises(OverflowError, match=f"theta = {theta!r}"):
                thermo.sweep(bath, [theta], "exact_quadrature")


@pytest.mark.parametrize("theta", [1e-300, 1e-5, 1e-3, 0.3, 300.0])
def test_kernels_vanish_beyond_the_dark_edge(theta):
    # exp(-x) is 0.0 from x ~ 745.2 on: every kernel is exactly 0 there
    ws = [thermo._DARK * theta * factor
          for factor in (1.0, 1.0 + 2**-52, 1.5, 2.0, 1e3, 1e300)]
    ws = [w for w in ws if math.isfinite(w)]
    for column in thermo._moments(ws, [1.0] * len(ws), theta, 1e300):
        assert column == [0.0] * len(ws)


@pytest.mark.parametrize("bath", [
    ("ohmic", 1.0, None), ("srt", 2.0, 1e2), ("qed", 1.0, 1e12)])
def test_no_node_at_or_beyond_the_cut(bath):
    # theta = 1e-5: the march of (theta, 1/2) ends at its doubling edge
    # 1024 theta, the first one at or beyond 746 theta, and the piece
    # beyond 1/2 is skipped; every node the weight sees lies below it
    theta = 1e-5
    bath = bath_of(*bath)
    static, weight_of = static_weight(bath), spectral_weight(bath)
    seen = []

    def counted(w, u):
        seen.append(w)
        return weight_of(w, u)

    assert thermo._spectral_moments(static, counted, bath.gamma, theta) == \
        thermo._spectral_moments(static, weight_of, bath.gamma, theta)
    assert seen and max(seen) < 1024.0 * theta


def test_the_route_takes_no_root(monkeypatch):
    # the cross-check stays independent of the closed form's roots and plan
    bath = bath_of("qed", 1.0, 1e12)
    want = thermo.sweep(bath, [1e-3, 0.3], "exact_quadrature")

    def refused(*args):
        raise AssertionError("the quadrature route took the plan")

    monkeypatch.setattr(thermo, "roots", refused)
    monkeypatch.setattr(thermo, "_plan", refused)
    assert thermo.sweep(bath, [1e-3, 0.3], "exact_quadrature") == want
