"""Tests for the heat-bath models and the canonical susceptibility."""

import cmath
import contextlib
import math
import re
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bath_kernels
from bath_kernels import mu_tilde, qed_mass_ratio, susceptibility_kernel_form
from oscbath import baths, thermo
from oscbath.baths import (
    CanonicalBath,
    OhmicSpec,
    QEDSpec,
    SingleRelaxationSpec,
    canonicalize,
    free_energy_integrand,
    roots,
    susceptibility,
)


class TestCanonicalize:
    def test_ohmic_is_the_cutoff_free_limit(self):
        bath = canonicalize(OhmicSpec(gamma=1.0))
        assert bath == CanonicalBath(gamma=1.0, Omega=math.inf,
                                     OmegaPrime=math.inf)
        assert bath.relation is None

    def test_srt_cutoffs(self):
        bath = canonicalize(SingleRelaxationSpec(gamma=1.0, tau=0.01))
        assert bath.Omega == 100.0
        assert bath.OmegaPrime == 99.0
        # Omega - Omega' = gamma holds exactly
        assert bath.Omega - bath.OmegaPrime == bath.gamma

    @pytest.mark.parametrize("gamma, prime", [(3.0, 1e-3), (1.0, 1e-3),
                                              (0.3, 1e-3), (1e-6, 1e-8),
                                              (2.0, 0.5), (1.0, 99.0)])
    def test_srt_second_cutoff_is_correctly_rounded(self, gamma, prime):
        # Omega' = 1/tau - gamma with the float tau taken as exact, rounded
        # once; fl(1/tau) - gamma is 2e-13 off at gamma = 3, Omega' = 1e-3
        tau = 1.0 / (prime + gamma)
        bath = canonicalize(SingleRelaxationSpec(gamma=gamma, tau=tau))
        assert bath.Omega == 1.0 / tau
        assert bath.OmegaPrime == float(1 / Fraction(tau) - Fraction(gamma))
        assert bath.relation == "relaxation"

    def test_qed_cutoffs(self):
        bath = canonicalize(QEDSpec(gamma=0.1, omega_prime=1000.0))
        assert abs(bath.Omega - 9.900990099009901) < 1e-14
        # 1/Omega - 1/Omega' = gamma to 1e-14
        assert abs(1.0 / bath.Omega - 1.0 / bath.OmegaPrime - 0.1) < 1e-14

    def test_qed_point_electron_limit(self):
        bath = canonicalize(QEDSpec(gamma=0.1, omega_prime=math.inf))
        assert bath.OmegaPrime == math.inf
        assert abs(bath.Omega - 10.0) < 1e-14

    def test_srt_too_slow_is_invalid(self):
        with pytest.raises(ValueError):
            SingleRelaxationSpec(gamma=2.0, tau=0.5)   # 1/tau = gamma

    @pytest.mark.parametrize("tau", [1e-310, 5e-324, 5e-309])
    def test_srt_tau_whose_reciprocal_overflows_is_named(self, tau):
        # 1/tau = inf made a triple (1, inf, inf) that failed as "not on
        # the relaxation relation", naming cutoffs the spec never had
        with pytest.raises(ValueError, match=re.escape(
                f"tau = {tau!r} is too small: 1/tau is inf")):
            SingleRelaxationSpec(gamma=1.0, tau=tau)

    def test_srt_subnormal_tau_with_a_finite_reciprocal(self):
        tau = 6e-309
        bath = canonicalize(SingleRelaxationSpec(gamma=1.0, tau=tau))
        assert bath.Omega == 1.0 / tau < math.inf
        assert bath.OmegaPrime == float(1 / Fraction(tau) - 1)

    def test_srt_long_memory_builds_without_warning(self, recwarn):
        # tau gamma = 0.4: no advisory; both exact routes are exact here
        bath = canonicalize(SingleRelaxationSpec(gamma=2.0, tau=0.2))
        assert bath.relation == "relaxation"
        assert len(recwarn) == 0

    def test_validation(self):
        with pytest.raises(ValueError):
            OhmicSpec(gamma=-1.0)
        with pytest.raises(TypeError):
            QEDSpec(gamma=0.1)           # the cutoff is required
        with pytest.raises(ValueError, match="omega_prime"):
            QEDSpec(gamma=0.1, omega_prime=0.0)

    @pytest.mark.parametrize("make, name", [
        (lambda: OhmicSpec(gamma=math.inf), "gamma"),
        (lambda: SingleRelaxationSpec(gamma=math.inf, tau=0.01), "gamma"),
        (lambda: SingleRelaxationSpec(gamma=1.0, tau=math.inf), "tau"),
        (lambda: QEDSpec(gamma=math.inf, omega_prime=1e3), "gamma"),
        (lambda: CanonicalBath(gamma=math.inf), "gamma"),
    ])
    def test_infinite_gamma_tau_rejected(self, make, name):
        with pytest.raises(ValueError, match=f"^{name} must be finite"):
            make()

    def test_infinite_cutoffs_allowed(self):
        # the Ohmic and point-electron limits; the latter has Omega = 1/gamma
        assert canonicalize(QEDSpec(gamma=0.1, omega_prime=math.inf)) \
            == CanonicalBath(gamma=0.1, Omega=10.0, OmegaPrime=math.inf,
                             relation="blackbody")
        # any other Omega with Omega' = inf is no bath of the three
        for relation in ("blackbody", "relaxation"):
            with pytest.raises(ValueError, match=f"not on the {relation}"):
                CanonicalBath(gamma=0.3, Omega=10.0, relation=relation)

    def test_canonical_fields_are_keyword_only(self):
        # (1.0, 0.3) must not pass for gamma = 1, Omega = 0.3
        with pytest.raises(TypeError):
            CanonicalBath(1.0, 0.3)


def log_uniform(low, high):
    return st.floats(math.log10(low), math.log10(high)).map(
        lambda e: 10.0 ** e)


@st.composite
def cutoff_triples(draw):
    """(gamma, Omega, Omega'): one of the three baths, one nudged off its
    relation by a relative 1e-12 .. 1, or two cutoffs drawn freely
    (infinity included)."""
    gamma = draw(log_uniform(1e-8, 1e4))
    prime = draw(log_uniform(1e-2, 1e12))
    family = draw(st.sampled_from(("ohmic", "relaxation", "blackbody",
                                   "point electron", "free")))
    if family == "ohmic":
        return gamma, math.inf, math.inf
    if family == "free":
        cutoff = st.one_of(log_uniform(1e-3, 1e6), st.just(math.inf))
        return gamma, draw(cutoff), draw(cutoff)
    if family == "relaxation":
        omega = prime + gamma
    elif family == "blackbody":
        omega = 1.0 / (1.0 / prime + gamma)
    else:
        omega, prime = 1.0 / gamma, math.inf
    if draw(st.booleans()):
        nudge = draw(log_uniform(1e-12, 1.0)) \
            * draw(st.sampled_from((-0.5, 1.0)))
        omega *= 1.0 + nudge
    return gamma, omega, prime


RELATIONS = (None, "relaxation", "blackbody")


def relation_residual(relation, gamma, omega, prime):
    """The relative residual of a cutoff relation in exact arithmetic:
    |Omega - Omega' - gamma| / Omega (relaxation) or
    |1/Omega - 1/Omega' - gamma| Omega (blackbody); for None, 0 for two
    infinite cutoffs.  inf where the relation cannot hold."""
    if relation is None:
        return 0.0 if math.isinf(omega) and math.isinf(prime) else math.inf
    if math.isinf(omega) or relation == "relaxation" and math.isinf(prime):
        return math.inf
    o, g = Fraction(omega), Fraction(gamma)
    if relation == "relaxation":
        return float(abs(o - Fraction(prime) - g) / o)
    inverse_prime = 0 if math.isinf(prime) else 1 / Fraction(prime)
    return float(abs(1 / o - inverse_prime - g) * o)


class TestAdmission:
    """CanonicalBath admits the Ohmic, relaxation and blackbody triples and
    nothing else; every triple it admits is a passive bath."""

    EPS = 2.220446049250313e-16

    @given(triple=cutoff_triples(), relation=st.sampled_from(RELATIONS))
    @settings(max_examples=400, deadline=None)
    def test_admitted_exactly_when_a_relation_holds(self, triple,
                                                    relation):
        gamma, omega, prime = triple
        residual = relation_residual(relation, gamma, omega, prime)
        # the relations are checked in floating point to 16 ulps
        if 8 * self.EPS < residual < 32 * self.EPS:
            return
        try:
            bath = CanonicalBath(gamma=gamma, Omega=omega, OmegaPrime=prime,
                                 relation=relation)
        except ValueError as exc:
            assert residual >= 32 * self.EPS, (triple, relation, exc)
            assert "relaxation" in str(exc) or "blackbody" in str(exc)
            return
        assert residual <= 8 * self.EPS, (triple, relation)
        assert bath.relation == relation

    @given(triple=cutoff_triples(), relation=st.sampled_from(RELATIONS),
           frequencies=st.lists(log_uniform(1e-3, 1e3), min_size=1,
                                max_size=9))
    @settings(max_examples=400, deadline=None)
    def test_admitted_baths_are_passive(self, triple, relation, frequencies):
        # Im alpha(w) >= 0 on the real axis: the bath absorbs energy
        gamma, omega, prime = triple
        try:
            bath = CanonicalBath(gamma=gamma, Omega=omega, OmegaPrime=prime,
                                 relation=relation)
        except ValueError:
            return
        if math.isinf(bath.OmegaPrime):     # no bare-mass susceptibility
            return
        for w in frequencies:
            with contextlib.suppress(ValueError):      # w on a real pole
                assert susceptibility(bath, w).imag >= 0.0, (triple, w)

    @pytest.mark.parametrize("relation", ["relaxation", "blackbody"])
    def test_an_active_bath_is_rejected(self, relation):
        # Re mu(0) < 0 here: C would change sign with temperature
        with pytest.raises(ValueError, match=f"not on the {relation}"):
            CanonicalBath(gamma=1.0, Omega=0.5, relation=relation)

    @pytest.mark.parametrize("relation", ["relaxation", "blackbody"])
    @pytest.mark.parametrize("omega, prime", [
        (10.0, 20.0), (math.inf, 20.0), (0.5, 3.0), (101.0, 99.0)])
    def test_independent_cutoffs_rejected(self, omega, prime, relation):
        with pytest.raises(ValueError, match=f"not on the {relation}"):
            CanonicalBath(gamma=1.0, Omega=omega, OmegaPrime=prime,
                          relation=relation)

    @pytest.mark.parametrize("omega, prime", [
        (10.0, 20.0), (math.inf, 20.0), (99.0 + 1.0, 99.0), (10.0, math.inf)])
    def test_a_finite_cutoff_needs_a_relation(self, omega, prime):
        with pytest.raises(ValueError, match="finite cutoff and no relation"):
            CanonicalBath(gamma=1.0, Omega=omega, OmegaPrime=prime)

    def test_an_unknown_relation_is_rejected(self):
        with pytest.raises(ValueError, match="unknown cutoff relation"):
            CanonicalBath(gamma=1.0, Omega=100.0, OmegaPrime=99.0,
                          relation="drude")

    def test_a_triple_on_both_relations_computes_as_stated(self):
        # gamma (Omega + 1/Omega) ~ 2e-15: the triple meets the blackbody
        # relation to rounding too, and was computed as blackbody (F =
        # -4.13e-23 at theta = 0.01) while it had no relation to state
        gamma, omega, prime = 1e-15, 1.0, 1.0 - 1e-15
        with pytest.raises(ValueError, match="no relation"):
            CanonicalBath(gamma=gamma, Omega=omega, OmegaPrime=prime)
        relaxation = CanonicalBath(gamma=gamma, Omega=omega,
                                   OmegaPrime=prime, relation="relaxation")
        blackbody = CanonicalBath(gamma=gamma, Omega=omega, OmegaPrime=prime,
                                  relation="blackbody")
        assert relaxation.relation == "relaxation"
        assert baths.static_weight(relaxation) == gamma * (1.0 + 1.0 / prime)
        assert baths.static_weight(blackbody) == 0.0
        theta = 0.01
        point = thermo.thermo_point(relaxation, theta)
        # the relaxation bath's leading low-temperature term,
        # F ~ -pi gamma theta^2 / 6 (static weight gamma (1 + 1/Omega'))
        lead = -math.pi * baths.static_weight(relaxation) * theta ** 2 / 6.0
        assert abs(point.F - lead) <= 0.05 * abs(lead)
        assert thermo.thermo_point(blackbody, theta).F != point.F


class TestRoots:
    def test_small_gamma_limit(self):
        pair = roots(1e-6)
        assert pair.regime == "underdamped"
        assert abs(pair.z1 - complex(5e-7, 1.0)) < 1e-9

    def test_critical(self):
        # critical damping is the overdamped case with omega1 = 0
        pair = roots(2.0)
        assert pair.regime == "overdamped"
        assert pair.omega1 == 0.0
        assert pair.z1 == pair.z1_conj == complex(1.0, 0.0)

    def test_overdamped(self):
        pair = roots(4.0)
        assert pair.regime == "overdamped"
        assert abs(pair.omega1 - math.sqrt(3.0)) < 1e-15
        assert abs(pair.z1.real - (2.0 - math.sqrt(3.0))) < 1e-15
        assert abs(pair.z1_conj.real - (2.0 + math.sqrt(3.0))) < 1e-15
        assert abs(pair.z1 * pair.z1_conj - 1.0) < 1e-14

    @pytest.mark.parametrize("gamma", [1.0000000000000002e150, 1e154, 1e200,
                                       1e300, sys.float_info.max])
    def test_friction_up_to_the_float_range(self, gamma):
        # gamma^2/4 overflows from ~1.3e154: above 1e150 |omega1| is
        # (gamma/2) sqrt((1 - 2/gamma)(1 + 2/gamma)), so z1 is 1/gamma, not 0
        mp = pytest.importorskip("mpmath")
        pair = roots(gamma)
        with mp.workdps(40):
            g = mp.mpf(gamma)
            larger = g / 2 + mp.sqrt(g * g / 4 - 1)
            for got, want in ((pair.z1_conj.real, larger),
                              (pair.z1.real, 1 / larger)):
                assert abs(got - want) <= 2.3e-16 * want
        assert pair.regime == "overdamped" and pair.z1.imag == 0.0

    def test_below_the_scaled_form_nothing_changes(self):
        # at and below 1e150 the unscaled form, to the bit
        for gamma in (2.5, 1e10, 1e100, 1e150):
            omega1 = math.sqrt(0.25 * gamma * gamma - 1.0)
            larger = 0.5 * gamma + omega1
            assert roots(gamma) == baths.RootPair(
                complex(1.0 / larger, 0.0), complex(larger, 0.0), omega1,
                "overdamped")

    def test_sum_and_product_invariants(self):
        rng = np.random.default_rng(2718)
        for _ in range(1000):
            gamma = rng.uniform(0.01, 40.0)
            pair = roots(gamma)
            total = pair.z1 + pair.z1_conj
            product = pair.z1 * pair.z1_conj
            assert abs(total - gamma) <= 1e-12 * gamma
            assert abs(product - 1.0) <= 1e-12
            if pair.regime == "overdamped":
                assert pair.z1.real > 0.0 and pair.z1_conj.real > 0.0


class TestMuTilde:
    def test_ohmic_constant(self):
        spec = OhmicSpec(gamma=0.7)
        for z in [0.0, 1.0 + 2.0j, 100.0j]:
            assert mu_tilde(spec, z) == complex(0.7, 0.0)

    def test_srt_static_value_is_zeta(self):
        spec = SingleRelaxationSpec(gamma=1.0, tau=0.01)
        zeta_over_m = mu_tilde(spec, 0.0).real
        # gamma (Omega'^2 + gamma Omega' + 1) / (Omega' + gamma)^2
        expected = (99.0**2 + 99.0 + 1.0) / 100.0**2
        assert abs(zeta_over_m - expected) < 1e-14

    def test_srt_finite_in_upper_half_plane(self):
        spec = SingleRelaxationSpec(gamma=1.0, tau=0.01)
        # pole sits at z = -i/tau, below the axis; the closed upper half
        # plane stays finite, including near the mirror point +i/tau
        for z in [100.0j, 99.9j, 1e4 + 0.0j, -50.0 + 3.0j, 0.0]:
            assert cmath.isfinite(mu_tilde(spec, z))

    def test_lower_half_plane_rejected(self):
        with pytest.raises(ValueError):
            mu_tilde(OhmicSpec(gamma=1.0), -1.0j)

    def test_ohmic_limit_of_srt_friction(self):
        # zeta/m -> gamma as the cutoff grows (tau -> 0)
        gamma = 1.3
        gaps = []
        for omega_prime in [1e2, 1e4, 1e6]:
            tau = 1.0 / (omega_prime + gamma)
            spec = SingleRelaxationSpec(gamma=gamma, tau=tau)
            gaps.append(abs(mu_tilde(spec, 0.0).real - gamma))
        assert gaps[0] > gaps[1] > gaps[2]
        assert gaps[2] < 1e-5


class TestSusceptibility:
    def test_ohmic_static_value(self):
        bath = canonicalize(OhmicSpec(gamma=1.0))
        assert abs(susceptibility(bath, 0.0) - 1.0) < 1e-15  # 1/m

    def test_static_value_is_inverse_spring_rate(self):
        spec = SingleRelaxationSpec(gamma=1.0, tau=0.01)
        bath = canonicalize(spec)
        spring = bath.OmegaPrime / (bath.OmegaPrime + bath.gamma)
        assert abs(susceptibility(bath, 0.0) - 1.0 / spring) < 1e-15

    @pytest.mark.parametrize("spec", [
        SingleRelaxationSpec(gamma=1.0, tau=0.01),
        SingleRelaxationSpec(gamma=0.15, tau=0.1),
        QEDSpec(gamma=0.1, omega_prime=1000.0),
        QEDSpec(gamma=1.5, omega_prime=30.0),
        OhmicSpec(gamma=2.0),
    ])
    def test_kernel_form_agrees_with_canonical_form(self, spec):
        bath = canonicalize(spec)
        rng = np.random.default_rng(99)
        for _ in range(50):
            z = complex(rng.uniform(-5.0, 5.0), rng.uniform(0.0, 5.0))
            a = susceptibility(bath, z)
            b = susceptibility_kernel_form(spec, z)
            assert abs(a - b) <= 1e-12 * abs(a)

    def test_poles_in_lower_half_plane(self):
        bath = canonicalize(SingleRelaxationSpec(gamma=1.0, tau=0.01))
        pair = roots(bath.gamma)
        for pole in (-1j * pair.z1, -1j * pair.z1_conj):
            residual = pole * pole + 1j * bath.gamma * pole - 1.0
            assert abs(residual) < 1e-12
            assert pole.imag < 0.0
        third = -1j * bath.OmegaPrime
        assert third.imag < 0.0
        with pytest.raises(ValueError, match="pole"):
            susceptibility(bath, third)

    def test_point_electron_limit_rejected(self):
        bath = canonicalize(QEDSpec(gamma=0.1, omega_prime=math.inf))
        with pytest.raises(ValueError):
            susceptibility(bath, 1.0 + 1.0j)


class TestFreeEnergyIntegrand:
    def test_ohmic_resonant_value(self):
        bath = canonicalize(OhmicSpec(gamma=1.0))
        assert abs(free_energy_integrand(bath, 1.0) - 2.0) < 1e-15

    def test_matches_log_derivative_of_susceptibility(self):
        # Im d log alpha(w + i0+)/dw by central differences
        rng = np.random.default_rng(512)
        for spec in [OhmicSpec(gamma=1.0),
                     SingleRelaxationSpec(gamma=1.0, tau=0.01),
                     QEDSpec(gamma=0.1, omega_prime=1000.0)]:
            bath = canonicalize(spec)
            for _ in range(30):
                w = rng.uniform(0.05, 6.0)
                h = 1e-6 * max(1.0, w)
                derivative = (cmath.log(susceptibility(bath, w + h))
                              - cmath.log(susceptibility(bath, w - h))) / (2 * h)
                assert abs(derivative.imag
                           - free_energy_integrand(bath, w)) < 1e-8

    def test_partial_fraction_identity(self):
        # z1/(w^2+z1^2) + z1*/(w^2+z1*^2) is real and equals the
        # oscillator term of the spectral factor
        rng = np.random.default_rng(81)
        for gamma in [0.2, 1.0, 2.0, 4.0]:
            bath = canonicalize(OhmicSpec(gamma=gamma))
            pair = roots(gamma)
            for _ in range(20):
                w = rng.uniform(0.01, 10.0)
                total = (pair.z1 / (w * w + pair.z1**2)
                         + pair.z1_conj / (w * w + pair.z1_conj**2))
                assert abs(total.imag) < 1e-12
                assert abs(total.real
                           - free_energy_integrand(bath, w)) < 1e-12

    def test_oscillator_term_positive(self):
        bath = canonicalize(OhmicSpec(gamma=3.0))
        for w in np.logspace(-3.0, 3.0, 50):
            assert free_energy_integrand(bath, float(w)) > 0.0

    def test_domain(self):
        bath = canonicalize(OhmicSpec(gamma=1.0))
        with pytest.raises(ValueError):
            free_energy_integrand(bath, 0.0)


class TestQEDMassRatio:
    def test_formula(self):
        spec = QEDSpec(gamma=0.1, omega_prime=1000.0)
        expected = (1.0 + 0.1 * 1000.0) * (1000.0 + 0.1) / 1000.0
        assert abs(qed_mass_ratio(spec) - expected) < 1e-12

    def test_point_electron_limit(self):
        assert qed_mass_ratio(QEDSpec(gamma=0.1, omega_prime=math.inf)) \
            == math.inf
        with pytest.raises(ValueError, match="point-electron"):
            mu_tilde(QEDSpec(gamma=0.1, omega_prime=math.inf), 1.0j)


class TestLargeCutoffGamma:
    def test_reduced_friction(self):
        # gamma/omega0 = omega0 * tau_e
        assert abs(bath_kernels.gamma_large_cutoff(1e15) - 1e15 * 6e-24) < 1e-22


class TestSpectralWeight:
    """The closed forms behind free_energy_integrand, per cutoff relation."""

    @staticmethod
    def textbook(bath, w):
        value = bath.gamma * (w * w + 1.0) / ((w * w - 1.0) ** 2
                                              + (bath.gamma * w) ** 2)
        if math.isfinite(bath.Omega):
            value -= bath.Omega / (w * w + bath.Omega ** 2)
        if math.isfinite(bath.OmegaPrime):
            value += bath.OmegaPrime / (w * w + bath.OmegaPrime ** 2)
        return value

    @staticmethod
    def definition(mp, spec):
        """The three Lorentzians as a function of an mpf w, with Omega from
        the cutoff relation on the bath's gamma and Omega', at the working
        precision of the call."""
        bath = canonicalize(spec)
        g, relation = mp.mpf(bath.gamma), bath.relation
        prime = (mp.mpf(bath.OmegaPrime) if math.isfinite(bath.OmegaPrime)
                 else None)
        if relation is None:
            cutoff = None
        elif relation == "relaxation":
            cutoff = prime + g
        else:
            cutoff = 1 / g if prime is None else 1 / (g + 1 / prime)

        def exact(w):
            value = g * (w * w + 1) / ((w * w - 1) ** 2 + (g * w) ** 2)
            if cutoff is not None:
                value -= cutoff / (w * w + cutoff * cutoff)
            if prime is not None:
                value += prime / (w * w + prime * prime)
            return value
        return exact

    def test_relations_are_recognised(self):
        assert canonicalize(OhmicSpec(gamma=0.3)).relation is None
        assert canonicalize(
            SingleRelaxationSpec(gamma=0.3, tau=0.01)).relation == "relaxation"
        assert canonicalize(
            QEDSpec(gamma=0.3, omega_prime=100.0)).relation == "blackbody"
        assert canonicalize(
            QEDSpec(gamma=0.3, omega_prime=math.inf)).relation == "blackbody"
        assert canonicalize(
            QEDSpec(gamma=1.5, omega_prime=25.0)).relation == "blackbody"

    @pytest.mark.parametrize("gamma, tau", [(1e-15, 1.0), (1e-16, 10.0),
                                            (1e-18, 1e3)])
    def test_srt_on_both_relations_rejected(self, gamma, tau):
        # gamma (Omega + 1/Omega) below ~4e-15: the triple meets the
        # blackbody relation to rounding too, and would be read as it
        with pytest.raises(ValueError, match=re.escape(
                f"gamma = {gamma!r}, tau = {tau!r} cannot be told from a "
                "blackbody bath")):
            canonicalize(SingleRelaxationSpec(gamma=gamma, tau=tau))

    @given(data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_every_model_classifies_as_itself(self, data):
        # over the edge grid: gamma in [1e-8, 1e4], Omega' in [1e2, 1e12],
        # the point-electron limit, and tau gamma up to just below 1
        model = data.draw(st.sampled_from(("ohmic", "srt", "qed", "limit")))
        gamma = data.draw(log_uniform(1e-8, 1e4), "gamma")
        prime = data.draw(log_uniform(1e2, 1e12), "Omega'")
        if model == "ohmic":
            spec, relation = OhmicSpec(gamma), None
        elif model == "qed":
            spec = QEDSpec(gamma, prime)
            relation = "blackbody"
        elif model == "limit":
            spec = QEDSpec(gamma, math.inf)
            relation = "blackbody"
        else:
            tau = data.draw(st.one_of(
                st.just(gamma / (prime + gamma)),
                st.floats(0.1, 1.0 - 1e-9)), "tau gamma") / gamma
            spec = SingleRelaxationSpec(gamma, tau)
            relation = "relaxation"
        assert canonicalize(spec).relation == relation

    def test_static_weight(self):
        assert baths.static_weight(canonicalize(
            QEDSpec(gamma=1e4, omega_prime=1e12))) == 0.0
        assert baths.static_weight(canonicalize(OhmicSpec(gamma=0.3))) == 0.3
        srt = canonicalize(SingleRelaxationSpec(gamma=0.3, tau=0.01))
        expected = 0.3 - 1.0 / srt.Omega + 1.0 / srt.OmegaPrime
        assert abs(baths.static_weight(srt) - expected) < 1e-14

    @pytest.mark.parametrize("spec", [
        OhmicSpec(gamma=0.3),
        SingleRelaxationSpec(gamma=0.3, tau=0.01),
        QEDSpec(gamma=0.3, omega_prime=100.0),
        QEDSpec(gamma=30.0, omega_prime=1e3),
        QEDSpec(gamma=0.3, omega_prime=math.inf),
    ])
    def test_matches_textbook_form_away_from_cancellation(self, spec):
        bath = canonicalize(spec)
        for w in (0.3, 0.9, 1.0, 1.7, 3.0, 40.0):
            expected = self.textbook(bath, w)
            assert abs(free_energy_integrand(bath, w) - expected) \
                <= 1e-13 * abs(expected)

    def test_blackbody_weight_keeps_relative_accuracy_at_small_w(self):
        # the static terms cancel exactly; b ~ 3 gamma (1 + Omega'^-1 Omega^-1) w^2
        for gamma, prime in [(1e-6, 1e3), (1e4, 1e12), (0.5, 200.0)]:
            bath = canonicalize(QEDSpec(gamma=gamma, omega_prime=prime))
            p = 1.0 / prime
            leading = 3.0 * gamma * (1.0 + p * (gamma + p))
            w = 1e-7 / max(1.0, gamma)
            value = free_energy_integrand(bath, w)
            assert abs(value / (w * w) - leading) <= 1e-6 * leading

    def test_within_eight_eps_of_the_definition(self):
        # the three Lorentzians, Im d log alpha/dw for the three factors of
        # alpha, in 60 digits with Omega from the cutoff relation; the error
        # is measured in eps (1 + kappa), kappa = |w b'/b| the condition
        # number.  Forming gamma^2 + gamma p + p^2 - 1 as written cancels
        # near gamma = 1 (3.5e4 at Omega' = 1e12, w = 3162); summing the
        # relaxation bath's oscillator and cutoff fractions was 10.4 off at
        # gamma = 0.5, tau gamma = 0.9, w = 0.316
        mp = pytest.importorskip("mpmath")
        eps = 2.0 ** -52
        gammas = (1e-6, 1e-3, 0.1, 0.5, 0.9, 1.0, 1.1, 2.0, 10.0, 1e3)
        ws = [10.0 ** (k / 2) for k in range(-20, 41)] + [1 - 1e-6, 1 + 1e-6]
        worst = {}
        specs = []
        for g in gammas:
            specs.append(OhmicSpec(g))
            specs += [QEDSpec(g, prime)
                      for prime in (1e2, 1e3, 1e6, 1e9, 1e12, math.inf)]
            specs += [SingleRelaxationSpec(g, tau_gamma / g)
                      for tau_gamma in (1e-8, 0.1, 0.5, 0.9)]
        with mp.workdps(60):
            for spec in specs:
                exact = self.definition(mp, spec)
                weight = baths.spectral_weight(canonicalize(spec))
                for w in ws:
                    b = exact(mp.mpf(w))
                    if b == 0:
                        continue
                    kappa = abs(w * mp.diff(exact, mp.mpf(w)) / b)
                    error = float(abs(weight(w, w - 1.0) - b)
                                  / (abs(b) * eps * (1 + kappa)))
                    model = type(spec).__name__
                    if error > worst.get(model, (0.0,))[0]:
                        worst[model] = (error, spec, w)
        assert max(item[0] for item in worst.values()) <= 8.0, worst

    def test_large_omega_normal_values(self):
        # where the weight is a normal float it is returned to 1e-14, from
        # w = 1e20 to the largest float; only a value below the normal range
        # raises.  Multiplying the two cutoff factors together overflowed
        # at SRT gamma = 1e-8 near w = 1e70 (value 3e-289), forming v^2
        # before dividing by v^2 + (q u)^2 lost digits at the point electron
        # gamma = 1e-8 near w = 1e157, a hypot product overflowed at QED
        # gamma = 1e4, Omega' = 100 near w = 1e153, and v^2 formed before
        # gamma would at Ohmic gamma = 1e4 near w = 1e155
        mp = pytest.importorskip("mpmath")
        for spec in (SingleRelaxationSpec(gamma=1e-8, tau=1e7),
                     QEDSpec(gamma=1e-8, omega_prime=math.inf),
                     QEDSpec(gamma=1e4, omega_prime=100.0),
                     OhmicSpec(gamma=1e4)):
            bath = canonicalize(spec)
            for k in range(80, 1233):
                omega = 10.0 ** (k / 4)
                with mp.workdps(60 + int(0.55 * k)):
                    exact = self.definition(mp, spec)(mp.mpf(omega))
                try:
                    value = free_energy_integrand(bath, omega)
                except OverflowError:
                    assert abs(exact) < sys.float_info.min, (spec, omega)
                    continue
                assert abs(value - exact) <= 1e-14 * abs(exact), (spec, omega)

    @pytest.mark.parametrize("omega", [1e-300, 5e-324])
    def test_small_omega(self, omega):
        # the Ohmic and relaxation weights tend to the static weight; the
        # blackbody weight ~ 3 gamma w^2 underflows and raises, naming omega
        for spec in (OhmicSpec(gamma=1.0), OhmicSpec(gamma=1e-8),
                     OhmicSpec(gamma=1e4),
                     SingleRelaxationSpec(gamma=1.0, tau=0.1),
                     SingleRelaxationSpec(gamma=1e-3, tau=900.0),
                     SingleRelaxationSpec(gamma=1e-8, tau=1e-12)):
            bath = canonicalize(spec)
            static = baths.static_weight(bath)
            assert abs(free_energy_integrand(bath, omega) - static) \
                <= 2 * math.ulp(static), spec
        for spec in (QEDSpec(gamma=0.1, omega_prime=1e3),
                     QEDSpec(gamma=1e4, omega_prime=1e12),
                     QEDSpec(gamma=0.1, omega_prime=math.inf)):
            with pytest.raises(OverflowError, match=f"omega = {omega!r}"):
                free_energy_integrand(canonicalize(spec), omega)

    @pytest.mark.parametrize("spec", [
        OhmicSpec(gamma=1.0), OhmicSpec(gamma=1e4),
        SingleRelaxationSpec(gamma=1.0, tau=0.1),
        SingleRelaxationSpec(gamma=1e-8, tau=1e-12),
        QEDSpec(gamma=1.0, omega_prime=1e3),
        QEDSpec(gamma=1e4, omega_prime=1e12),
        QEDSpec(gamma=0.1, omega_prime=math.inf),
    ], ids=repr)
    def test_large_omega_against_mpmath(self, spec):
        # the product form gave 0.0 at 1e50 (QED) and 1e80 (Ohmic) and nan
        # beyond; the relaxation tails cancel.  Each value is within 1e-13
        # of the three Lorentzians summed in exact-enough arithmetic, with
        # Omega from the cutoff relation; an omega whose value is at the
        # edge of the float range or beyond raises, naming it
        mp = pytest.importorskip("mpmath")
        bath = canonicalize(spec)
        relation = bath.relation
        for exponent in range(30, 301, 15):
            omega = 10.0 ** exponent
            with mp.workdps(80 + 3 * exponent):
                w, g = mp.mpf(omega), mp.mpf(bath.gamma)
                exact = g * (w * w + 1) / ((w * w - 1) ** 2 + (g * w) ** 2)
                prime = mp.mpf(bath.OmegaPrime)
                if relation is not None:
                    cutoff = (prime + g if relation == "relaxation"
                              else 1 / (g + 1 / prime))
                    exact -= cutoff / (w * w + cutoff ** 2)
                if mp.isfinite(prime):
                    exact += prime / (w * w + prime ** 2)
            try:
                value = free_energy_integrand(bath, omega)
            except OverflowError as exc:
                assert f"omega = {omega!r}" in str(exc)
                assert abs(exact) < 1e-290, (omega, exact)
                continue
            assert abs(value - exact) <= 1e-13 * abs(exact), (omega, exact)
