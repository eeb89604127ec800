"""Closed-form moment functionals validated against numerical integration."""

import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.stats import norm

from mdepclt.laws import (
    DiscreteLaw,
    EnumerationTooLargeError,
    GaussianLaw,
    normal_abs3_below,
    normal_abs_moment,
    normal_capped_second_moment,
    normal_tail_second_moment,
    sign_combination_law,
    tap_sum,
)

from conftest import sign_pattern_law


@pytest.mark.parametrize("t", [0.0, 0.1, 0.5, 1.0, 2.0, 3.5])
def test_normal_tail_second_moment_vs_quadrature(t):
    # independent oracle: adaptive quadrature of x^2 phi(x) over (t, inf);
    # the mass beyond 50 is zero at double precision
    oracle, err = quad(lambda x: x * x * norm.pdf(x), t, 50.0, epsabs=1e-13, epsrel=1e-13)
    assert err < 1e-11
    assert normal_tail_second_moment(t) == pytest.approx(2 * oracle, abs=1e-10)


# E[Z^2 1{|Z| > t}] to 50 digits, rounded to the nearest double:
#   import mpmath as mp; mp.mp.dps = 50
#   float(2 * (t * mp.npdf(t) + mp.ncdf(-t)))  # t as mp.mpf
NORMAL_TAIL_REFERENCE = {
    0.5: 0.9691404042162732,
    2.0: 0.2614641299491106,
    5.0: 1.5440498291101365e-05,
    7.0: 1.30445710804876e-10,
    8.0: 8.208052945144464e-14,
    9.0: 1.8729310110194814e-17,
    12.0: 5.1868506078328985e-31,
}


@pytest.mark.parametrize("t", sorted(NORMAL_TAIL_REFERENCE))
def test_normal_tail_second_moment_far_tail_relative(t):
    # 1 - Phi(t) by subtraction keeps at most two digits beyond t ~ 8; the
    # quadrature test's absolute tolerance cannot see that
    expect = NORMAL_TAIL_REFERENCE[t]
    assert normal_tail_second_moment(t) == pytest.approx(expect, rel=1e-14, abs=0.0)


@pytest.mark.parametrize("r", [2.0, 2.5, 3.0, 4.0, 6.0])
def test_normal_abs_moment_vs_quadrature(r):
    oracle, err = quad(lambda x: abs(x) ** r * norm.pdf(x), 0, np.inf)
    assert err < 1e-8
    assert normal_abs_moment(r) == pytest.approx(2 * oracle, rel=1e-9)


def test_normal_abs_moment_known_values():
    # E|Z|^3 = 2 sqrt(2/pi), E Z^4 = 3
    assert normal_abs_moment(3) == pytest.approx(2 * math.sqrt(2 / math.pi), abs=1e-15)
    assert normal_abs_moment(4) == pytest.approx(3.0, abs=1e-12)


@pytest.mark.parametrize("u", [0.3, 1.0, 2.0])
def test_normal_abs3_below_vs_quadrature(u):
    oracle, _ = quad(lambda x: x**3 * norm.pdf(x), 0, u)
    assert normal_abs3_below(u) == pytest.approx(2 * oracle, abs=1e-12)


@pytest.mark.parametrize("b", [0.2, 1.0, 5.0])
def test_normal_capped_second_moment_vs_quadrature(b):
    # split at the kink |x| = 1/b where the cap becomes active
    integrand = lambda x: x * x * min(b * abs(x), 1.0) * norm.pdf(x)
    inner, _ = quad(integrand, 0, 1.0 / b)
    outer, _ = quad(integrand, 1.0 / b, np.inf)
    assert normal_capped_second_moment(b) == pytest.approx(2 * (inner + outer), abs=1e-9)


def test_gaussian_law_scales():
    law = GaussianLaw(2.0)
    assert law.var() == pytest.approx(4.0)
    assert law.abs_moment(3) == pytest.approx(8.0 * normal_abs_moment(3))
    # threshold scales with sd inside the indicator
    assert law.tail_second_moment(2.0) == pytest.approx(4.0 * normal_tail_second_moment(1.0))


def test_rademacher_two_point():
    law = DiscreteLaw.from_points([-0.25, 0.25], [0.5, 0.5])
    assert law.tail_second_moment(0.2) == pytest.approx(0.0625)
    assert law.tail_second_moment(0.25) == 0.0  # strict inequality at the atom
    assert law.tail_second_moment(0.3) == 0.0
    assert law.var() == pytest.approx(0.0625)
    assert law.abs_moment(3) == pytest.approx(0.25**3)


def test_sign_combination_merges_support():
    # coefficients (1, 1) give values {-2, 0, 2} with probs {1/4, 1/2, 1/4}
    law = sign_combination_law([1.0, 1.0], 1.0)
    assert np.allclose(law.values, [-2.0, 0.0, 2.0])
    assert np.allclose(law.probs, [0.25, 0.5, 0.25])
    assert law.mean() == 0.0
    assert law.var() == pytest.approx(2.0)


def test_discrete_law_capped_second_moment():
    law = sign_combination_law([1.0, 0.5], 1.0)
    # brute force over the four sign patterns
    vals = np.array([1.5, 0.5, -0.5, -1.5])
    expect = np.mean(vals**2 * np.minimum(0.8 * np.abs(vals), 1.0))
    assert law.capped_second_moment(0.8) == pytest.approx(expect, abs=1e-15)


def test_discrete_law_rejects_bad_probs():
    with pytest.raises(ValueError):
        DiscreteLaw.from_points([1.0, -1.0], [0.6, 0.6])


_TWO_SCALE_TAPS = [(n**-0.5, -(n**-a), n**-a) for a in (0.05, 0.25, 0.45) for n in (1, 7, 2**14)]


@pytest.mark.parametrize("scale", [1.0, 0.37])
@pytest.mark.parametrize(
    "coeffs",
    [
        (1.0,),
        (1.0, 0.5),
        tuple(2.5 * c for c in (1.0, -0.5, 0.25)),
        *_TWO_SCALE_TAPS,
        (1.0, 0.0, 0.5),
        (1.0, -0.0, 0.5),
        (-1.0, 1.0),
        (1.0, 0.5, 0.5, -0.5, 0.25, 1.0, -1.0),
        (1.0,) * 20,
        tuple(1 + i / 64 for i in range(16)),
    ],
    ids=lambda c: f"{len(c)}taps-{c[:3]}",
)
def test_sign_combination_law_is_the_sign_pattern_law_byte_for_byte(coeffs, scale):
    # the binomial lattice gives the atoms and probabilities of the 2^k
    # enumeration scaled afterwards, to the byte: np.array_equal would
    # take -0.0 for 0.0
    ref = sign_pattern_law(coeffs)
    expect = DiscreteLaw.from_points(scale * ref.values, ref.probs)
    law = sign_combination_law(coeffs, scale)
    assert law.values.tobytes() == expect.values.tobytes()
    assert law.probs.tobytes() == expect.probs.tobytes()


def test_equal_taps_beyond_twenty_are_one_binomial():
    # 24 taps of one magnitude: 25 atoms c * (2b - 24) with Bin(24, 1/2) weights
    law = sign_combination_law([0.3] * 24, 1.0)
    b = np.arange(25)
    assert np.array_equal(law.values, 0.3 * (2.0 * b - 24))
    assert law.probs.tolist() == [math.comb(24, j) / 2**24 for j in b]


def test_a_group_past_the_float_range_of_comb_builds():
    # float(comb(1100, 550)) overflows; the integer division does not
    law = sign_combination_law([1.0] * 1100, 1.0)
    assert len(law.values) == 1101
    assert law.probs.sum() == pytest.approx(1.0, abs=1e-12)


def test_distinct_taps_over_the_atom_cap_raise():
    # 23 distinct magnitudes: 2^23 atoms, over ENUMERATION_CAP = 2^22
    with pytest.raises(EnumerationTooLargeError, match=r"has 8388608 atoms \(cap ENUMERATION_CAP = 4194304\)"):
        sign_combination_law([1 + i / 64 for i in range(23)], 1.0)


def _read_only(x):
    x = np.array(x, dtype=float)
    x.flags.writeable = False
    return x


def test_tap_sum_writes_to_no_term():
    # every term read-only: an in-place step on a term would raise
    rng = np.random.default_rng(3)
    terms = [_read_only(rng.choice([-1.0, 1.0], 64)) for _ in range(5)]
    before = [t.tobytes() for t in terms]
    for coeffs in ([1.0, 1.0, 1.0, 1.0, 1.0], [1.0, -1.0, 0.5, 1.0, -0.5], [0.3, 0.3, -0.3, 2.0, 1.0]):
        tap_sum(coeffs, terms)
    assert [t.tobytes() for t in terms] == before


def test_a_single_unit_tap_returns_its_term():
    # tests/conftest.py::row_entries tells this case apart by np.may_share_memory
    term = _read_only([1.0, -1.0, 1.0])
    assert tap_sum([1.0], [term]) is term
    assert tap_sum([-1.0], [term]).tobytes() == (-term).tobytes()


def _grouped_reference(coeffs, terms):
    """sum over magnitudes f, in order of first appearance, of f * (sum of
    +-x), where f is the first tap of that magnitude and a tap of the other
    sign is subtracted; taken one float at a time."""
    out = []
    for xs in zip(*terms):
        groups: dict = {}
        for c, x in zip(coeffs, map(float, xs)):
            if abs(c) not in groups:
                groups[abs(c)] = [c, x]
            else:
                f, part = groups[abs(c)]
                groups[abs(c)][1] = part + x if (c < 0) == (f < 0) else part - x
        total = None
        for f, part in groups.values():
            part = part if f == 1.0 else f * part
            total = part if total is None else total + part
        out.append(total)
    return np.array(out)


@pytest.mark.parametrize(
    "coeffs",
    [
        (1.0, 0.5),
        (1.0, -1.0, 0.5, 1.0),
        (0.7, -0.7, 1.3, 0.7, -1.3, 1.0, -1.0, 0.7),
        (-2.5, 1e-3, 2.5, -1e-3, 1.0),
        tuple(1 + i / 64 for i in range(12)),
    ],
)
def test_tap_sum_is_the_grouped_sum_byte_for_byte(coeffs):
    # normal terms, so any other order of the adds would show in the last bits
    rng = np.random.default_rng(len(coeffs))
    terms = [_read_only(rng.standard_normal(200)) for _ in coeffs]
    assert tap_sum(coeffs, terms).tobytes() == _grouped_reference(coeffs, terms).tobytes()
