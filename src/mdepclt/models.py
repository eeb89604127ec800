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

Sampling, enumeration, Var S_n, the window variance and the entry laws
all follow from this declaration.
"""

from __future__ import annotations

import functools
import math
import numbers
import sys
from dataclasses import dataclass, field

import numpy as np

from .laws import ENUMERATION_CAP, EnumerationTooLargeError, GaussianLaw, sign_combination_law, tap_sum

INNOVATIONS = ("rademacher", "normal")

#: hard cap on the Monte Carlo replicates of one grid point (512 MiB of floats)
SAMPLE_CAP = 2**26

#: entries kept by each per-(model, n) cache (exact_sigma2,
#: marginal_law_groups); a sweep fills 102
_CACHE_SIZE = 4096

# fixed second word of the Philox key; separates this stream universe from
# other Philox users with small integer seeds
_KEY_SALT = np.uint64(0x9E3779B97F4A7C15)


class InvalidParameterError(ValueError):
    """Model parameters outside their admissible range."""


class SampleTooLargeError(ValueError):
    """A weight group of S_n is too large for one binomial draw (2^62 or
    more innovations)."""


class ContinuousModelError(ValueError):
    """Requested exact enumeration of a model with continuous marginals."""


class DegenerateVarianceError(ValueError):
    """sigma_n^2 is zero, negative or not finite at the requested n."""


@dataclass(frozen=True)
class Schedule:
    """Integer-valued map n -> value, serializable as (kind, param).

    kinds: "constant" (param = value), "power" (max(1, floor(n**param))),
    "log" (max(1, floor(ln n))).  A model config names a schedule by one
    key: m (constant), beta (power) or m_kind = "log".
    """

    kind: str
    param: float = 0.0

    def __post_init__(self):
        _require(self.kind in ("constant", "power", "log"), f"unknown schedule kind {self.kind!r}")
        if self.kind == "constant":
            ok = _whole(self.param) and self.param >= 0
            _require(ok, "constant schedule needs an integer value >= 0")
            fits = self.param <= sys.float_info.max  # the row builders divide by m
            _require(fits, f"constant m_n exceeds the float range ({int(self.param).bit_length()} bits)")
        if self.kind == "power":
            ok = _is_real(self.param) and 0.0 < self.param < 1.0
            _require(ok, "power schedule exponent must lie in (0, 1)")

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

    __str__ = describe

    def config(self) -> dict:
        """The one model-config key that names this schedule."""
        if self.kind == "constant":
            return {"m": int(self.param)}
        if self.kind == "power":
            return {"beta": self.param}
        return {"m_kind": "log"}

    @classmethod
    def from_config(cls, cfg: dict):
        """The schedule a model config names, or None if it names none."""
        keys = [key for key in ("m", "beta", "m_kind") if key in cfg]
        _require(len(keys) <= 1, f"config names more than one m_n schedule: {keys}")
        if "m" in cfg:
            _require(_whole(cfg["m"]), f"m must be an integer, got {cfg['m']!r}")
            return cls("constant", int(cfg["m"]))
        if "beta" in cfg:
            return cls("power", _finite(cfg["beta"], "beta"))
        if "m_kind" in cfg:
            _require(cfg["m_kind"] == "log", f"m_kind must be 'log', got {cfg['m_kind']!r}")
            return cls("log")
        return None


@dataclass(frozen=True)
class ArrayModel:
    """An immutable triangular-array model: family tag plus parameters."""

    family: str
    params: dict = field(default_factory=dict)

    def __hash__(self) -> int:
        # every parameter value is hashable, and equal models hash equal,
        # so a model can key the per-(model, n) caches
        return hash((self.family, tuple(sorted(self.params.items()))))

    def m(self, n: int) -> int:
        """Dependence range of row n."""
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
        return self.params["amplitude"]

    @property
    def innovation(self) -> str:
        """Law of the innovations the row is built from."""
        return self.params["innovation"]

    @property
    def is_discrete(self) -> bool:
        """True when every row has finite support (Rademacher built)."""
        return self.innovation == "rademacher"

    def describe(self) -> str:
        """family(the labels of the parameters it takes, in table order)"""
        labels = ((_PARAMS[name][1], self.params[name]) for name in _FAMILIES[self.family][0])
        return f"{self.family}({', '.join(label.format(v) for label, v in labels if label and v)})"


@dataclass(frozen=True)
class OutcomeTable:
    """Every outcome of one model row, each of probability prob.

    The table stores the rows variable-major: rows, of shape (outcomes, N_n),
    is the transpose of the C-contiguous (N_n, outcomes) array columns,
    whose row i-1 holds X_i on every outcome.  Rows laid out otherwise are
    copied into that layout once.
    """

    n: int
    rows: np.ndarray  # shape (n_outcomes, N_n), a transposed view of columns
    prob: float  # of every outcome, 2^-bits

    def __post_init__(self):
        if not self.rows.T.flags.c_contiguous:
            object.__setattr__(self, "rows", np.ascontiguousarray(self.rows.T).T)

    @property
    def columns(self) -> np.ndarray:
        """(N_n, outcomes), C-contiguous: X_i's values in row i-1."""
        return self.rows.T

    @property
    def probs(self) -> np.ndarray:
        """(n_outcomes,): prob on every outcome, a read-only view."""
        return np.broadcast_to(self.prob, self.rows.shape[:1])

    def row_sums(self) -> np.ndarray:
        return _row_sums(self.rows)


#: entries of a scratch block copied into C order at a time: the rows that
#: _row_sums sums, the M and dM that martingale.build_trace gathers for Q
_C_BLOCK = 2**16


def _row_sums(rows: np.ndarray) -> np.ndarray:
    """The sum of each row of an (outcomes, N) array of any layout, added
    as numpy adds a C-contiguous row, one block of rows copied at a time.
    Summed along axis 1 in place, a variable-major array adds its entries
    in another order, and the last digits differ."""
    n_out, N = rows.shape
    step = max(1, _C_BLOCK // N)
    out = np.empty(n_out)
    for lo in range(0, n_out, step):
        np.ascontiguousarray(rows[lo : lo + step]).sum(axis=1, out=out[lo : lo + step])
    return out


# ---------------------------------------------------------------------------
# construction


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise InvalidParameterError(msg)


def _is_real(value) -> bool:
    # a JSON boolean is not a number, although Python's bool is an int
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def _whole(value) -> bool:
    return _is_real(value) and (isinstance(value, numbers.Integral) or float(value).is_integer())


def _finite(value, name: str) -> float:
    try:
        x = float(value) if _is_real(value) else math.nan
    except OverflowError:  # an int beyond the float range
        x = math.nan
    _require(math.isfinite(x), f"{name} must be finite, got {value!r}")
    return x


def _amplitude(value, family: str) -> float:
    amplitude = _finite(value, "amplitude")
    _require(amplitude > 0, "amplitude must be positive")
    return amplitude


def _alpha(value, family: str) -> float:
    alpha = _finite(value, "alpha")
    _require(0.0 < alpha < 0.5, f"alpha must lie in (0, 1/2), got {alpha}")
    return alpha


def _innovation(value, family: str) -> str:
    _require(value in INNOVATIONS, f"unknown innovation {value!r}")
    return value


def _m_schedule(value, family: str) -> Schedule:
    if type(value) is int:  # not a bool
        value = Schedule("constant", value)
    _require(isinstance(value, Schedule), f"expected Schedule or int, got {value!r}")
    _require(value.kind != "constant" or value.param >= 1, f"{family} needs m_n >= 1")
    return value


def _spike_frac(value, family: str) -> float:
    spike = _finite(value, "spike_frac")
    _require(0.0 <= spike < 1.0, "spike_frac must lie in [0, 1)")
    return spike


def _coeffs(value, family: str) -> tuple:
    _require(isinstance(value, (list, tuple)), f"coeffs must be a list, got {value!r}")
    coeffs = tuple(_finite(c, "coeffs") for c in value)
    _require(len(coeffs) >= 1 and coeffs[0] != 0.0, "coeffs must start with c_0 != 0")
    return coeffs


#: parameter -> (check(value, family) returning the value stored, its
#: describe() label or None, the value model_to_config leaves out), in
#: config order
_PARAMS = {
    "amplitude": (_amplitude, None, 1.0),
    "alpha": (_alpha, "alpha={:g}", None),
    "innovation": (_innovation, "{}", "rademacher"),
    "m_schedule": (_m_schedule, "{}", None),
    "spike_frac": (_spike_frac, "spike={:g}", 0.0),
    "coeffs": (_coeffs, "coeffs={}", None),
}

#: family -> (the parameters it takes with their defaults, in describe()
#: order; the values it fixes rather than takes).  Every family takes
#: amplitude; an MA(q) row has m_n = q.
_FAMILIES = {
    family: ({"amplitude": 1.0, **takes}, fixes)
    for family, takes, fixes in (
        ("iid-baseline", {"innovation": "rademacher"}, {"m_schedule": Schedule("constant", 0)}),
        ("two-scale", {"alpha": 0.25}, {"innovation": "rademacher", "m_schedule": Schedule("constant", 1)}),
        ("block-repeat", {"innovation": "rademacher", "m_schedule": 2, "spike_frac": 0.0}, {}),
        ("tail-coupled", {"m_schedule": Schedule("power", 0.25)}, {"innovation": "normal"}),
        ("moving-average", {"coeffs": (1.0, 0.5), "innovation": "rademacher"}, {}),
    )
}
FAMILIES = tuple(_FAMILIES)

#: keys of a model config (model_to_config / model_from_config): the
#: family, the parameters, and a schedule by one of its three keys
MODEL_CONFIG_KEYS = ("family", *(name for name in _PARAMS if name != "m_schedule"), "m", "beta", "m_kind")


def build_model(family: str, **params) -> ArrayModel:
    """Validate parameters and build an ArrayModel.

    _FAMILIES declares the parameters each family takes, with their
    defaults, and _PARAMS checks each one: alpha in (0, 1/2), m_schedule
    an int or Schedule with m_n >= 1, innovation one of INNOVATIONS,
    spike_frac in [0, 1) (that fraction of the row variance goes into the
    first block), coeffs a list of taps with c_0 != 0, and amplitude > 0
    (every family) multiplying all entries.
    """
    _require(family in _FAMILIES, f"unknown family {family!r}")
    takes, fixes = _FAMILIES[family]
    out: dict = {}
    for name, default in takes.items():
        out[name] = _PARAMS[name][0](params.pop(name, default), family)
    _require(not params, f"unknown parameters for {family}: {sorted(params)}")
    if "coeffs" in out:
        out["m_schedule"] = Schedule("constant", len(out["coeffs"]) - 1)
    return ArrayModel(family, {**out, **fixes})


def _check_n(n: int) -> None:
    if n < 1:
        raise InvalidParameterError(f"row index n must be >= 1, got {n}")
    if n > sys.float_info.max:
        raise InvalidParameterError(f"row index n exceeds the float range ({n.bit_length()} bits)")


def _spike_scale(model: ArrayModel, n: int) -> float:
    """Innovation scale of block 1 so it carries spike_frac of Var S_n."""
    p = model.params["spike_frac"]
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
        if J < 2 and model.params["spike_frac"] > 0:
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
    consecutive runs of innovations sharing one weight w != 0; innovations
    of weight 0 are left out."""
    total, _, segments = linear_row(model, n)
    spans = [
        (j, j + count // repeat, c * repeat)
        for count, taps, repeat in segments
        for j, c in taps
    ]
    edges = sorted({0, total}.union(*((lo, hi) for lo, hi, _ in spans)))
    groups = ((hi - lo, sum(c for a, b, c in spans if a <= lo < b)) for lo, hi in zip(edges, edges[1:]))
    return [(count, w) for count, w in groups if w != 0.0]


def _tap_law(model: ArrayModel, a: float, coeffs: tuple):
    """Law of a * sum(c * zeta) over independent innovations of the model."""
    if model.is_discrete:
        return sign_combination_law(coeffs, a)
    return GaussianLaw(a * math.hypot(*coeffs))


# ---------------------------------------------------------------------------
# sampling


def row_rng(seed: int, n: int, stream: int) -> np.random.Generator:
    """Counter-based stream for one (seed, n, stream) cell.

    Philox keyed by the seed with (n, stream) placed in the high counter
    words: streams never overlap.  The Monte Carlo draws weight group g
    of S_n from stream g.
    """
    # imported here: numpy.random loads secrets and hashlib, which no
    # command but clt needs
    from numpy.random import Generator, Philox

    if not 0 <= seed < 2**64:
        raise InvalidParameterError(f"seed must lie in [0, 2^64), got {seed}")
    if n >= 2**64:
        raise InvalidParameterError(f"row index n must be < 2^64 to key a stream, got {n}")
    key = np.array([np.uint64(seed), _KEY_SALT], dtype=np.uint64)
    counter = np.array([0, 0, np.uint64(n), np.uint64(stream)], dtype=np.uint64)
    return Generator(Philox(key=key, counter=counter))


def _check_reps(reps: int) -> None:
    """Raise unless 100 <= reps <= SAMPLE_CAP, before anything is allocated."""
    if reps < 100:
        raise ValueError(f"reps must be >= 100, got {reps}")
    if reps > SAMPLE_CAP:
        raise ValueError(f"reps must be <= {SAMPLE_CAP} (the sample cap), got {reps}")


# ---------------------------------------------------------------------------
# exact second-moment structure


@functools.lru_cache(maxsize=_CACHE_SIZE)
def exact_sigma2(model: ArrayModel, n: int) -> float:
    """Var S_n = (amplitude * scale)^2 * sum(count * w^2) over the S_n
    weight groups; computed once per (model, n)."""
    _check_n(n)
    a = model.amplitude * linear_row(model, n)[1]
    return a * a * sum(count * w * w for count, w in sum_weight_groups(model, n))


def _sigma(model: ArrayModel, n: int) -> float:
    """sigma_n, raising DegenerateVarianceError unless 0 < sigma_n^2 < inf."""
    s2 = exact_sigma2(model, n)
    if not 0.0 < s2 < math.inf:
        raise DegenerateVarianceError(f"sigma_n^2 = {s2} at n = {n}")
    return math.sqrt(s2)


@functools.lru_cache(maxsize=_CACHE_SIZE)
def marginal_law_groups(model: ArrayModel, n: int) -> tuple:
    """Distinct entry laws of row n with multiplicities ((count, law), ...).

    Segments with equal coefficients share one law, so condition
    functionals sum over at most one law per segment instead of over all
    N_n indices.  Built once per (model, n): every caller shares the one
    tuple, whose laws are read-only.
    """
    _check_n(n)
    _, scale, segments = linear_row(model, n)
    counts: dict = {}
    for count, taps, _ in segments:
        coeffs = tuple(c for _, c in taps)
        counts[coeffs] = counts.get(coeffs, 0) + count
    a = model.amplitude * scale
    return tuple((count, _tap_law(model, a, coeffs)) for coeffs, count in counts.items())


def window_variance_max(model: ArrayModel, n: int) -> float:
    """max over a of Var(X_{n,a} + ... + X_{n,a+k-1}) at k = max(m_n, 1)
    (at most N_n), exact.

    Two closed forms follow from the declaration and cover every family
    (the tests check both against the covariance band): a single-tap row
    whose largest-|c| block holds k entries, and a stationary row.  Any
    other row layout raises InvalidParameterError naming the model.
    """
    _check_n(n)
    k = min(max(model.m(n), 1), model.length(n))
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
    raise InvalidParameterError(f"{model.describe()} at n={n}: no closed form for the window variance")


# ---------------------------------------------------------------------------
# exact enumeration


def _enumeration_bits(model: ArrayModel, n: int) -> int:
    """Innovation count of row n; its 2^bits outcomes must fit ENUMERATION_CAP."""
    if not model.is_discrete:
        raise ContinuousModelError(f"{model.describe()} has continuous marginals; enumeration undefined")
    bits = linear_row(model, n)[0]
    if bits > ENUMERATION_CAP.bit_length() - 1:
        raise EnumerationTooLargeError(
            f"{model.describe()} at n={n} needs 2^{bits} outcomes (cap ENUMERATION_CAP = {ENUMERATION_CAP})"
        )
    return bits


def enumerate_outcomes(model: ArrayModel, n: int) -> OutcomeTable:
    """All outcomes of a finitely supported model row, each of probability
    2^-bits: innovation j of outcome o is +1 where bit j of o is set, else
    -1, so its signs run in alternating blocks of 2^j outcomes.

    The table is built one variable at a time, straight into its
    variable-major layout: an entry's signs are written when it needs
    them, one row per tap, and the entry is their tap_sum times amplitude
    * scale, applied once, so entries equal in exact arithmetic are
    bit-equal (the oracle partitions on exact values); the tests'
    sign_matrix_rows builds the same table from one matrix of every
    innovation's signs.  A block of repeated entries is formed once and
    copied to each of its rows."""
    _check_n(n)
    bits = _enumeration_bits(model, n)
    _, scale, segments = linear_row(model, n)
    factor = model.amplitude * scale
    columns = np.empty((model.length(n), 2**bits))
    start = 0
    for count, taps, repeat in segments:
        signs = np.empty((len(taps), 2**bits))
        for block in range(count // repeat):
            for row, (j, _) in zip(signs, taps):
                runs = row.reshape(-1, 2, 2 ** (j + block))  # innovation j + block
                runs[:, 0] = -1.0
                runs[:, 1] = 1.0
            entry = tap_sum([c for _, c in taps], signs)
            if factor != 1.0:
                entry *= factor  # rounds as factor * entry does
            columns[start : start + repeat] = entry
            start += repeat
    return OutcomeTable(n, columns.T, 2.0**-bits)


# ---------------------------------------------------------------------------
# config round-trip


def model_to_config(model: ArrayModel) -> dict:
    """Flat key-value form of a model, suitable for a JSON config file: the
    parameters its family takes, less those at their neutral value."""
    cfg: dict = {"family": model.family}
    takes = _FAMILIES[model.family][0]
    for name, (_, _, neutral) in _PARAMS.items():
        value = model.params[name] if name in takes else neutral
        if isinstance(value, Schedule):
            cfg.update(value.config())
        elif value != neutral:
            cfg[name] = list(value) if isinstance(value, tuple) else value
    return cfg


def model_from_config(cfg: dict) -> ArrayModel:
    """Inverse of model_to_config; unknown keys are rejected."""
    unknown = sorted(set(cfg) - set(MODEL_CONFIG_KEYS))
    _require(not unknown, f"unknown config keys: {unknown}")
    _require("family" in cfg, "config is missing the 'family' key")
    # build_model validates and converts these
    params = {key: value for key, value in cfg.items() if key in _PARAMS}
    schedule = Schedule.from_config(cfg)
    if schedule is not None:
        params["m_schedule"] = schedule
    return build_model(cfg["family"], **params)
