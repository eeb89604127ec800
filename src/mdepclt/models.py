"""Catalogue of m_n-dependent triangular-array models.

A model fixes, for every row index n, the row length N_n, the dependence
range m_n, and the joint law of the row (X_n1, ..., X_nNn).  All rows are
centred and the row-sum variance is available in closed form.  Rademacher
built families additionally support exhaustive outcome enumeration, which
is the exact substrate used by the martingale oracle.

Families (dependence range m_n in brackets):

iid-baseline    independent entries, scale 1/sqrt(n) [0]
two-scale       xi_i/sqrt(n) + (eta_i - eta_{i-1})/n^alpha, Rademacher [1]
block-repeat    J innovations, each repeated m_n times; spike_frac puts that
                share of Var S_n in block 1 (Lindeberg-violating control)
tail-coupled    n standard normals, then m_n = o(sqrt(n)) copies of one more
moving-average  MA(q) filter of independent innovations, scale 1/sqrt(n) [q]

Every row is linear in independent innovations zeta (Rademacher or
standard normal), and each family is declared once by linear_row as
(innovation count, scale, segments).  The row is the concatenation of its
segments; a segment is (count, taps, repeat) with taps ((j, c), ...), and
entry r of a segment is amplitude * scale * sum(c * zeta[j + r // repeat]).

==============  =====================  ======  ====================================
family          innovations            scale   segments (count, taps, repeat)
==============  =====================  ======  ====================================
iid-baseline    zeta_1..zeta_n: n      n^-1/2  (n, ((0, 1),), 1)
two-scale       xi_1..xi_n,            1       (n, ((0, n^-1/2), (n, -n^-alpha),
                eta_0..eta_n: 2n+1                 (n+1, n^-alpha)), 1)
block-repeat    Y_1..Y_J: J            1/m     (m, ((0, spike scale),), m), then
                                               ((J-1)m, ((1, 1),), m) if J > 1
tail-coupled    z_1..z_n, eta: n+1     1       (n, ((0, 1),), 1), (m, ((n, 1),), m)
moving-average  zeta_{1-q}..zeta_n:    n^-1/2  (n, ((q-lag, c_lag) for each lag), 1)
                n+q
==============  =====================  ======  ====================================

Sampling, enumeration, Var S_n, the covariance band, the entry laws and
the truncation centring all follow from this declaration.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field

import numpy as np
from numpy.random import Generator, Philox

from .laws import DiscreteLaw, GaussianLaw, sign_combination_law, tap_sum

FAMILIES = ("iid-baseline", "two-scale", "block-repeat", "tail-coupled", "moving-average")
INNOVATIONS = ("rademacher", "normal")
#: families whose innovation kind is fixed rather than a parameter
_FIXED_INNOVATION = {"two-scale": "rademacher", "tail-coupled": "normal"}

#: keys of a model config (model_to_config / model_from_config)
MODEL_CONFIG_KEYS = (
    "family", "alpha", "beta", "m", "m_kind", "innovation", "coeffs", "spike_frac", "amplitude",
)

#: hard cap on exhaustively enumerated outcomes
ENUMERATION_CAP = 2**22
#: hard cap on the innovations drawn and the entries built for one sampled
#: row (512 MiB of floats each)
SAMPLE_CAP = 2**26

# fixed second word of the Philox key; separates this stream universe from
# other Philox users with small integer seeds
_KEY_SALT = np.uint64(0x9E3779B97F4A7C15)


class InvalidParameterError(ValueError):
    """Model parameters outside their admissible range."""


class EnumerationTooLargeError(ValueError):
    """Exhaustive enumeration would exceed ENUMERATION_CAP outcomes."""


class SampleTooLargeError(ValueError):
    """One sampled row would draw or build more than SAMPLE_CAP values."""


class ContinuousModelError(ValueError):
    """Requested exact enumeration of a model with continuous marginals."""


class DegenerateVarianceError(ValueError):
    """sigma_n^2 is zero, negative or not finite at the requested n."""


@dataclass(frozen=True)
class Schedule:
    """Integer-valued map n -> value, serializable as (kind, param).

    kinds: "constant" (param = value), "power" (max(1, floor(n**param))),
    "log" (max(1, floor(ln n))).
    """

    kind: str
    param: float = 0.0

    def __post_init__(self):
        if self.kind not in ("constant", "power", "log"):
            raise InvalidParameterError(f"unknown schedule kind {self.kind!r}")
        if self.kind == "constant" and (self.param < 0 or self.param != int(self.param)):
            raise InvalidParameterError("constant schedule needs an integer value >= 0")
        if self.kind == "power" and not 0.0 < self.param < 1.0:
            raise InvalidParameterError("power schedule exponent must lie in (0, 1)")

    def __call__(self, n: int) -> int:
        if self.kind == "constant":
            return int(self.param)
        if self.kind == "power":
            return max(1, int(math.floor(n**self.param)))
        return max(1, int(math.floor(math.log(max(n, 2)))))

    def describe(self) -> str:
        if self.kind == "constant":
            return f"m={int(self.param)}"
        if self.kind == "power":
            return f"m=floor(n^{self.param:g})"
        return "m=floor(ln n)"


@dataclass(frozen=True)
class ArrayModel:
    """An immutable triangular-array model: family tag plus parameters."""

    family: str
    params: dict = field(default_factory=dict)

    def m(self, n: int) -> int:
        """Dependence range of row n."""
        fam = self.family
        if fam == "iid-baseline":
            return 0
        if fam == "two-scale":
            return 1
        if fam == "moving-average":
            return len(self.params["coeffs"]) - 1
        return self.params["m_schedule"](n)

    def length(self, n: int) -> int:
        """Row length N_n."""
        return sum(count for count, _, _ in linear_row(self, n)[2])

    def blocks(self, n: int) -> int:
        if self.family != "block-repeat":
            raise InvalidParameterError("blocks() only applies to block-repeat")
        return max(1, n // self.m(n))

    @property
    def amplitude(self) -> float:
        return self.params.get("amplitude", 1.0)

    @property
    def innovation(self) -> str:
        """Law of the innovations the row is built from."""
        default = self.params.get("innovation", "rademacher")
        return _FIXED_INNOVATION.get(self.family, default)

    @property
    def is_discrete(self) -> bool:
        """True when every row has finite support (Rademacher built)."""
        return self.innovation == "rademacher"

    def describe(self) -> str:
        p = self.params
        fam = self.family
        if fam == "two-scale":
            return f"two-scale(alpha={p['alpha']:g})"
        if fam == "block-repeat":
            sched = p["m_schedule"].describe()
            extra = f", spike={p['spike_frac']:g}" if p.get("spike_frac") else ""
            return f"block-repeat({p['innovation']}, {sched}{extra})"
        if fam == "tail-coupled":
            return f"tail-coupled({p['m_schedule'].describe()})"
        if fam == "moving-average":
            return f"moving-average(coeffs={tuple(p['coeffs'])}, {p['innovation']})"
        return f"iid-baseline({p['innovation']})"


@dataclass(frozen=True)
class RowSample:
    """One sampled row of the array."""

    n: int
    values: np.ndarray


@dataclass(frozen=True)
class OutcomeTable:
    """Exhaustive list of (row, probability) pairs for one model row."""

    n: int
    rows: np.ndarray  # shape (n_outcomes, N_n)
    probs: np.ndarray  # shape (n_outcomes,)

    def row_sums(self) -> np.ndarray:
        return self.rows.sum(axis=1)

    def var_sum(self) -> float:
        s = self.row_sums()
        mu = self.probs @ s
        return float(self.probs @ (s - mu) ** 2)


@dataclass(frozen=True)
class TruncationSplit:
    """Per-variable truncation X = X' + X'' at threshold eps*sigma_n/m_n.

    X'  = X 1{|X| <= t} - mu   (bounded, centred part)
    X'' = X 1{|X| >  t} + mu   (tail part)
    with mu_i = E[X_i 1{|X_i| <= t}], so both arrays are mean zero and the
    sum recovers X exactly on every outcome.
    """

    threshold: float
    mu: np.ndarray

    def split_rows(self, rows: np.ndarray):
        rows = np.atleast_2d(rows)
        below = np.abs(rows) <= self.threshold
        x_lo = rows * below - self.mu[None, :]
        x_hi = rows * ~below + self.mu[None, :]
        return x_lo, x_hi


# ---------------------------------------------------------------------------
# construction


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise InvalidParameterError(msg)


def _finite(value, name: str) -> float:
    try:
        # a JSON boolean is not a number, although Python's bool is an int
        x = math.nan if isinstance(value, bool) else float(value)
    except (TypeError, ValueError):
        x = math.nan
    _require(math.isfinite(x), f"{name} must be finite, got {value!r}")
    return x


def _as_schedule(value) -> Schedule:
    if isinstance(value, Schedule):
        return value
    if isinstance(value, int):
        return Schedule("constant", value)
    raise InvalidParameterError(f"expected Schedule or int, got {value!r}")


def build_model(family: str, **params) -> ArrayModel:
    """Validate parameters and build an ArrayModel.

    Family-specific parameters (all optional unless noted):

    iid-baseline    innovation
    two-scale       alpha (required, in (0, 1/2))
    block-repeat    m_schedule (int or Schedule, >= 1), innovation,
                    spike_frac in [0, 1) routing that fraction of the row
                    variance into the first block
    tail-coupled    m_schedule (int or Schedule, >= 1)
    moving-average  coeffs (tuple of taps, c_0 != 0), innovation

    Every family accepts amplitude > 0 multiplying all entries.
    """
    if family not in FAMILIES:
        raise InvalidParameterError(f"unknown family {family!r}")
    p = dict(params)
    amplitude = _finite(p.pop("amplitude", 1.0), "amplitude")
    _require(amplitude > 0, "amplitude must be positive")
    out: dict = {"amplitude": amplitude}

    if family == "iid-baseline":
        innovation = p.pop("innovation", "rademacher")
        _require(innovation in INNOVATIONS, f"unknown innovation {innovation!r}")
        out["innovation"] = innovation
    elif family == "two-scale":
        _require("alpha" in p, "two-scale requires alpha")
        alpha = _finite(p.pop("alpha"), "alpha")
        _require(0.0 < alpha < 0.5, f"alpha must lie in (0, 1/2), got {alpha}")
        out["alpha"] = alpha
    elif family == "block-repeat":
        sched = _as_schedule(p.pop("m_schedule", 2))
        _require(sched.kind != "constant" or sched.param >= 1, "block-repeat needs m_n >= 1")
        innovation = p.pop("innovation", "rademacher")
        _require(innovation in INNOVATIONS, f"unknown innovation {innovation!r}")
        spike = _finite(p.pop("spike_frac", 0.0), "spike_frac")
        _require(0.0 <= spike < 1.0, "spike_frac must lie in [0, 1)")
        out.update(m_schedule=sched, innovation=innovation, spike_frac=spike)
    elif family == "tail-coupled":
        sched = _as_schedule(p.pop("m_schedule", Schedule("power", 0.25)))
        _require(sched.kind != "constant" or sched.param >= 1, "tail-coupled needs m_n >= 1")
        out["m_schedule"] = sched
    else:  # moving-average
        coeffs = p.pop("coeffs", (1.0, 0.5))
        _require(isinstance(coeffs, (list, tuple)), f"coeffs must be a list, got {coeffs!r}")
        coeffs = tuple(_finite(c, "coeffs") for c in coeffs)
        _require(len(coeffs) >= 1 and coeffs[0] != 0.0, "coeffs must start with c_0 != 0")
        innovation = p.pop("innovation", "rademacher")
        _require(innovation in INNOVATIONS, f"unknown innovation {innovation!r}")
        out.update(coeffs=coeffs, innovation=innovation)

    _require(not p, f"unknown parameters for {family}: {sorted(p)}")
    return ArrayModel(family, out)


def _check_n(n: int) -> None:
    if n < 1:
        raise InvalidParameterError(f"row index n must be >= 1, got {n}")
    if n > sys.float_info.max:
        raise InvalidParameterError(f"row index n exceeds the float range ({n.bit_length()} bits)")


def _spike_scale(model: ArrayModel, n: int) -> float:
    """Innovation scale of block 1 so it carries spike_frac of Var S_n."""
    p = model.params.get("spike_frac", 0.0)
    if p <= 0.0:
        return 1.0
    J = model.blocks(n)
    return math.sqrt(p * (J - 1) / (1.0 - p))


# ---------------------------------------------------------------------------
# the linear declaration


def linear_row(model: ArrayModel, n: int) -> tuple:
    """Row n as a linear map of independent innovations.

    Returns (innovation count, scale, segments).  The row is the
    concatenation of its segments; a segment is (count, taps, repeat) with
    taps ((j, c), ...), and entry r of a segment (r = 0..count-1) is
    amplitude * scale * sum(c * zeta[j + r // repeat]).
    """
    fam = model.family
    if fam == "iid-baseline":
        return n, n**-0.5, ((n, ((0, 1.0),), 1),)
    if fam == "two-scale":
        a = n ** -model.params["alpha"]
        return 2 * n + 1, 1.0, ((n, ((0, n**-0.5), (n, -a), (n + 1, a)), 1),)
    if fam == "block-repeat":
        m, J = model.m(n), model.blocks(n)
        if J < 2 and model.params.get("spike_frac", 0.0) > 0:
            raise InvalidParameterError("spike block-repeat needs at least 2 blocks")
        segments = ((m, ((0, _spike_scale(model, n)),), m),)
        if J > 1:
            segments += (((J - 1) * m, ((1, 1.0),), m),)
        return J, 1.0 / m, segments
    if fam == "tail-coupled":
        m = model.m(n)
        return n + 1, 1.0, ((n, ((0, 1.0),), 1), (m, ((n, 1.0),), m))
    coeffs = model.params["coeffs"]
    q = len(coeffs) - 1
    return n + q, n**-0.5, ((n, tuple((q - lag, c) for lag, c in enumerate(coeffs)), 1),)


def sum_weight_groups(model: ArrayModel, n: int) -> list:
    """S_n = amplitude * scale * sum(w * zeta) as [(count, w), ...] over
    consecutive runs of innovations sharing one weight; the counts add up
    to the innovation count."""
    total, _, segments = linear_row(model, n)
    spans = [
        (j, j + count // repeat, c * repeat)
        for count, taps, repeat in segments
        for j, c in taps
    ]
    edges = sorted({0, total}.union(*((lo, hi) for lo, hi, _ in spans)))
    return [
        (hi - lo, sum(c for a, b, c in spans if a <= lo < b))
        for lo, hi in zip(edges, edges[1:])
    ]


def _tap_law(model: ArrayModel, a: float, coeffs: tuple):
    """Law of a * sum(c * zeta) over independent innovations of the model."""
    if model.is_discrete:
        law = sign_combination_law(coeffs)
        return DiscreteLaw.from_points(a * law.values, law.probs)
    return GaussianLaw(a * math.hypot(*coeffs))


# ---------------------------------------------------------------------------
# sampling


def _row_counter(n: int, replicate: int) -> np.ndarray:
    return np.array([0, 0, np.uint64(n), np.uint64(replicate)], dtype=np.uint64)


def row_rng(seed: int, n: int, replicate: int) -> Generator:
    """Counter-based stream for one (seed, n, replicate) cell.

    Philox keyed by the seed with (n, replicate) placed in the high counter
    words: streams never overlap and are independent of worker scheduling.
    """
    if not 0 <= seed < 2**64:
        raise InvalidParameterError(f"seed must lie in [0, 2^64), got {seed}")
    key = np.array([np.uint64(seed), _KEY_SALT], dtype=np.uint64)
    return Generator(Philox(key=key, counter=_row_counter(n, replicate)))


def draw_replicates(seed: int, n: int, reps: int, draw) -> np.ndarray:
    """[draw(row_rng(seed, n, r)) for r in range(reps)] as a float array.

    One Philox is re-keyed per replicate by setting its state, which costs
    about a fifth of building a new generator; draw must not keep the
    generator it is given.
    """
    rng = row_rng(seed, n, 0)
    state = rng.bit_generator.state  # a fresh stream: empty buffer
    out = np.empty(reps)
    for r in range(reps):
        state["state"]["counter"] = _row_counter(n, r)
        rng.bit_generator.state = state
        out[r] = draw(rng)
    return out


def _innovations(rng: Generator, kind: str, size: int) -> np.ndarray:
    """size innovations from rng.  Rademacher signs are read 64 per raw
    Philox word, little-endian: sign i is +1 when bit i % 64 of word
    i // 64 is set, so the layout does not depend on the host's byte order."""
    if kind == "rademacher":
        words = rng.bit_generator.random_raw(-(-size // 64)).astype("<u8")
        signs = np.unpackbits(words.view(np.uint8), count=size, bitorder="little").astype(float)
        signs *= 2.0
        signs -= 1.0
        return signs
    return rng.standard_normal(size)


def _innovation_count(model: ArrayModel, n: int) -> int:
    return linear_row(model, n)[0]


def draw_innovations(model: ArrayModel, n: int, rng: Generator) -> np.ndarray:
    """The innovations of row n, in declaration order, drawn from rng."""
    return _innovations(rng, model.innovation, _innovation_count(model, n))


def _row_from_innovations(model: ArrayModel, n: int, innov: np.ndarray) -> np.ndarray:
    """Map raw innovations (array or matrix with trailing axis) to row values.

    Taps sharing a coefficient magnitude are summed before they are scaled,
    and the amplitude * scale factor is applied once, so entries equal in
    exact arithmetic are bit-equal (the oracle partitions on exact values).
    """
    _, scale, segments = linear_row(model, n)
    parts = []
    for count, taps, repeat in segments:
        width = count // repeat
        part = tap_sum([c for _, c in taps], [innov[..., j : j + width] for j, _ in taps])
        parts.append(np.repeat(part, repeat, axis=-1) if repeat > 1 else part)
    row = parts[0] if len(parts) == 1 else np.concatenate(parts, axis=-1)
    factor = model.amplitude * scale
    if np.may_share_memory(row, innov):
        return factor * row  # a new array even when factor is 1.0
    if factor != 1.0:
        row *= factor  # rounds as factor * row does
    return row


def _check_sample_size(model: ArrayModel, n: int) -> None:
    """Raise unless row n draws at most SAMPLE_CAP innovations into at most
    SAMPLE_CAP entries; decided from the declaration, before anything is
    drawn.  The entries can outnumber the innovations (block-repeat repeats
    one innovation per block, tail-coupled shares one across m entries)."""
    _check_n(n)
    count, _, segments = linear_row(model, n)
    N = sum(c for c, _, _ in segments)
    if max(count, N) > SAMPLE_CAP:
        raise SampleTooLargeError(
            f"{model.describe()} at n={n} draws {count} innovations into {N} entries per row (cap {SAMPLE_CAP})"
        )


def _check_reps(reps: int) -> None:
    """Raise unless 100 <= reps <= SAMPLE_CAP, before anything is allocated."""
    if reps < 100:
        raise ValueError(f"reps must be >= 100, got {reps}")
    if reps > SAMPLE_CAP:
        raise ValueError(f"reps must be <= {SAMPLE_CAP} (the sample cap), got {reps}")


def sample_row(model: ArrayModel, n: int, seed: int = 0, replicate: int = 0) -> RowSample:
    """Draw one full row from the model law, deterministically from
    (seed, n, replicate)."""
    _check_n(n)
    innov = draw_innovations(model, n, row_rng(seed, n, replicate))
    return RowSample(n, _row_from_innovations(model, n, innov))


# ---------------------------------------------------------------------------
# exact second-moment structure


def exact_sigma2(model: ArrayModel, n: int) -> float:
    """Var S_n = (amplitude * scale)^2 * sum(count * w^2) over the S_n
    weight groups."""
    _check_n(n)
    a = model.amplitude * linear_row(model, n)[1]
    return a * a * sum(count * w * w for count, w in sum_weight_groups(model, n))


def _sigma(model: ArrayModel, n: int) -> float:
    """sigma_n, raising DegenerateVarianceError unless 0 < sigma_n^2 < inf."""
    s2 = exact_sigma2(model, n)
    if not 0.0 < s2 < math.inf:
        raise DegenerateVarianceError(f"sigma_n^2 = {s2} at n = {n}")
    return math.sqrt(s2)


def _entry_taps(model: ArrayModel, n: int) -> tuple:
    """(innovation index, coefficient) of every tap of every entry, as two
    (taps, N_n) arrays; segments with fewer taps are padded with coefficient 0."""
    _, _, segments = linear_row(model, n)
    width = max(len(taps) for _, taps, _ in segments)
    idx, coef = [], []
    for count, taps, repeat in segments:
        pad = width - len(taps)
        block = np.arange(count) // repeat
        idx.append(np.array([j + block for j, _ in taps] + [np.full(count, -1)] * pad))
        coef.append(np.array([np.full(count, c) for _, c in taps] + [np.zeros(count)] * pad))
    return np.concatenate(idx, axis=1), np.concatenate(coef, axis=1)


def cov_band(model: ArrayModel, n: int, d: int) -> np.ndarray:
    """Vector of Cov(X_{n,i}, X_{n,i+d}) for i = 1..N_n-d, exact."""
    _check_n(n)
    if d < 0:
        raise IndexError("lag d must be >= 0")
    N = model.length(n)
    if d >= N:
        return np.zeros(0)
    idx, coef = _entry_taps(model, n)
    band = np.zeros(N - d)
    for s in range(len(idx)):
        for t in range(len(idx)):
            band += (idx[s, : N - d] == idx[t, d:]) * coef[s, : N - d] * coef[t, d:]
    a = model.amplitude * linear_row(model, n)[1]
    return a * a * band


def exact_cov(model: ArrayModel, n: int, i: int, j: int) -> float:
    """Cov(X_{n,i}, X_{n,j}); zero whenever |i - j| > m_n."""
    N = model.length(n)
    if not (1 <= i <= N and 1 <= j <= N):
        raise IndexError(f"indices must lie in 1..{N}, got ({i}, {j})")
    d = abs(i - j)
    band = cov_band(model, n, d)
    return float(band[min(i, j) - 1])


def marginal_law(model: ArrayModel, n: int, i: int):
    """Exact law of the single entry X_{n,i}."""
    _, scale, segments = linear_row(model, n)
    r = i
    for count, taps, _ in segments:
        if 1 <= r <= count:
            return _tap_law(model, model.amplitude * scale, tuple(c for _, c in taps))
        r -= count
    raise IndexError(f"index must lie in 1..{model.length(n)}, got {i}")


def marginal_law_groups(model: ArrayModel, n: int) -> list:
    """Distinct entry laws of row n with multiplicities [(count, law), ...].

    Segments with equal coefficients share one law, so condition
    functionals sum over at most one law per segment instead of over all
    N_n indices.
    """
    _check_n(n)
    _, scale, segments = linear_row(model, n)
    counts: dict = {}
    for count, taps, _ in segments:
        coeffs = tuple(c for _, c in taps)
        counts[coeffs] = counts.get(coeffs, 0) + count
    a = model.amplitude * scale
    return [(count, _tap_law(model, a, coeffs)) for coeffs, count in counts.items()]


def _sliding_sum(x: np.ndarray, width: int) -> np.ndarray:
    c = np.concatenate([[0.0], np.cumsum(x)])
    return c[width:] - c[:-width]


def window_variance_max_generic(model: ArrayModel, n: int, k: int) -> float:
    """max over a of Var(X_{n,a} + ... + X_{n,a+k-1}) via the covariance
    band; exact for every model but O(N_n * m_n) in time."""
    _check_n(n)
    N = model.length(n)
    k = min(max(k, 1), N)
    total = _sliding_sum(cov_band(model, n, 0), k)
    for d in range(1, min(model.m(n), k - 1) + 1):
        total = total + 2.0 * _sliding_sum(cov_band(model, n, d), k - d)
    return float(total.max())


def window_variance_max(model: ArrayModel, n: int, k: int) -> float:
    """max over a of Var(X_{n,a} + ... + X_{n,a+k-1}), exact.

    Two closed forms follow from the declaration (each verified against the
    generic band computation in the test suite): a single-tap row whose
    largest-|c| block holds k entries, and a stationary row.  Other rows
    take the banded fallback.
    """
    _check_n(n)
    N = model.length(n)
    k = min(max(k, 1), N)
    _, scale, segments = linear_row(model, n)
    if all(len(taps) == 1 for _, taps, _ in segments):
        # every block is one innovation times c, so a window overlapping
        # blocks by o_b entries has variance (amplitude * scale)^2 *
        # sum(c_b^2 o_b^2) <= (amplitude * scale * c_max * k)^2, with
        # equality inside a block of the largest |c| that holds k entries
        c_max = max(abs(taps[0][1]) for _, taps, _ in segments)
        if any(abs(taps[0][1]) == c_max and repeat >= k for _, taps, repeat in segments):
            return (model.amplitude * scale * c_max * k) ** 2
    if len(segments) == 1 and segments[0][2] == 1:
        # stationary row: taps (j, c) and (j2, c2) meet at lag d = j - j2,
        # and a window of k entries holds k - d such pairs
        taps = segments[0][1]
        total = 0.0
        for j, c in taps:
            for j2, c2 in taps:
                d = j - j2
                if d == 0:
                    total += k * c * c2
                elif 0 < d < k:
                    total += 2.0 * (k - d) * c * c2
        return (model.amplitude * scale) ** 2 * total
    return window_variance_max_generic(model, n, k)


# ---------------------------------------------------------------------------
# exact enumeration


def _enumeration_bits(model: ArrayModel, n: int) -> int:
    """Innovation count of row n; its 2^bits outcomes must fit ENUMERATION_CAP."""
    if not model.is_discrete:
        raise ContinuousModelError(
            f"{model.describe()} has continuous marginals; enumeration undefined"
        )
    bits = _innovation_count(model, n)
    if bits > ENUMERATION_CAP.bit_length() - 1:
        raise EnumerationTooLargeError(
            f"{model.describe()} at n={n} needs 2^{bits} outcomes (cap {ENUMERATION_CAP})"
        )
    return bits


def enumerate_outcomes(model: ArrayModel, n: int) -> OutcomeTable:
    """All outcomes of a finitely supported model row with probabilities."""
    _check_n(n)
    bits = _enumeration_bits(model, n)
    count = 2**bits
    idx = np.arange(count, dtype=np.uint64)
    signs = ((idx[:, None] >> np.arange(bits, dtype=np.uint64)) & 1).astype(float)
    signs = signs * 2.0 - 1.0
    rows = _row_from_innovations(model, n, signs)
    probs = np.full(count, 2.0**-bits)
    return OutcomeTable(n, rows, probs)


# ---------------------------------------------------------------------------
# truncation


def truncated_model(model: ArrayModel, n: int, eps: float) -> TruncationSplit:
    """Split each entry at threshold eps*sigma_n/max(m_n,1) and re-centre."""
    if not eps > 0:
        raise InvalidParameterError("eps must be positive")
    _check_n(n)
    sigma = math.sqrt(exact_sigma2(model, n))
    m_eff = max(model.m(n), 1)
    t = eps * sigma / m_eff
    _, scale, segments = linear_row(model, n)
    a = model.amplitude * scale
    laws = [_tap_law(model, a, tuple(c for _, c in taps)) for _, taps, _ in segments]
    mu = np.repeat([law.truncated_mean(t) for law in laws], [count for count, _, _ in segments])
    return TruncationSplit(t, mu)


# ---------------------------------------------------------------------------
# config round-trip


def model_to_config(model: ArrayModel) -> dict:
    """Flat key-value form of a model, suitable for a JSON config file."""
    cfg: dict = {"family": model.family}
    p = model.params
    if model.amplitude != 1.0:
        cfg["amplitude"] = model.amplitude
    if "alpha" in p:
        cfg["alpha"] = p["alpha"]
    if p.get("innovation", "rademacher") != "rademacher":
        cfg["innovation"] = p["innovation"]
    if "m_schedule" in p:
        sched = p["m_schedule"]
        if sched.kind == "constant":
            cfg["m"] = int(sched.param)
        elif sched.kind == "power":
            cfg["beta"] = sched.param
        else:
            cfg["m_kind"] = "log"
    if p.get("spike_frac"):
        cfg["spike_frac"] = p["spike_frac"]
    if "coeffs" in p:
        cfg["coeffs"] = list(p["coeffs"])
    return cfg


def model_from_config(cfg: dict) -> ArrayModel:
    """Inverse of model_to_config; unknown keys are rejected."""
    unknown = sorted(set(cfg) - set(MODEL_CONFIG_KEYS))
    _require(not unknown, f"unknown config keys: {unknown}")
    _require("family" in cfg, "config is missing the 'family' key")
    # build_model validates and converts these
    keys = ("amplitude", "alpha", "innovation", "coeffs", "spike_frac")
    params = {key: cfg[key] for key in keys if key in cfg}
    schedules = [key for key in ("m", "beta", "m_kind") if key in cfg]
    _require(len(schedules) <= 1, f"config names more than one m_n schedule: {schedules}")
    if "m" in cfg:
        m = cfg["m"]
        is_int = type(m) in (int, float) and float(m).is_integer()
        _require(is_int, f"m must be an integer, got {m!r}")
        params["m_schedule"] = Schedule("constant", int(m))
    if "beta" in cfg:
        params["m_schedule"] = Schedule("power", _finite(cfg["beta"], "beta"))
    if "m_kind" in cfg:
        _require(cfg["m_kind"] == "log", f"m_kind must be 'log', got {cfg['m_kind']!r}")
        params["m_schedule"] = Schedule("log")
    return build_model(cfg["family"], **params)
