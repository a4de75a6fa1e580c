"""Analytic throughput models and constant fitting.

Two single-node forms, with constants in seconds so that the reciprocal of
the denominator is packets per second:

- exchange-style ("rabbit"):  pps = producers / (u_routing + size * u_byte)
- log-style ("kafka"):        pps = producers * partitions /
      (u_routing + topics * u_topics + sqrt(effective_size) * u_byte)

`fit` recovers constants from (inputs, measured pps) samples by minimizing
the mean relative error |pred - meas| / meas.  Method (deterministic): the
forms are linear in the constants after inverting to seconds-per-packet, so
an ordinary least-squares solve on the inverted samples (a QR factorization
in plain Python) seeds the constants, and a log-space coordinate descent
(multiplicative steps, shrinking ladder) then minimizes the relative-error
objective directly.

Bundled reference presets: evaluating KAFKA_ACKS0 at (producers=5,
partitions=10, topics=5, effective_size=4000) gives ~72.4 Kpps, while
~85 Kpps has been quoted for a comparable measured configuration; the
presets are kept exactly as fitted, the gap is not reconciled.
"""

from __future__ import annotations

import math
import sys
from dataclasses import asdict, dataclass
from operator import mul
from typing import Iterable, Sequence, Union


class FitError(Exception):
    pass


class Underdetermined(FitError):
    pass


class NonPositiveMeasurement(FitError):
    pass


@dataclass(frozen=True)
class RabbitThroughputModel:
    u_routing: float  # seconds per packet
    u_byte: float     # seconds per byte

    def __post_init__(self) -> None:
        if self.u_routing <= 0 or self.u_byte <= 0:
            raise ValueError("constants must be positive")


@dataclass(frozen=True)
class KafkaThroughputModel:
    u_routing: float  # seconds per packet
    u_topics: float   # seconds per packet per topic
    u_byte: float     # seconds per packet per sqrt(byte)

    def __post_init__(self) -> None:
        if self.u_routing <= 0 or self.u_topics <= 0 or self.u_byte <= 0:
            raise ValueError("constants must be positive")


@dataclass(frozen=True)
class FitResult:
    constants: Union[RabbitThroughputModel, KafkaThroughputModel]
    mean_relative_error: float
    samples_used: int

    def to_dict(self) -> dict:
        return {
            "form": "rabbit" if isinstance(self.constants, RabbitThroughputModel) else "kafka",
            "constants": asdict(self.constants),
            "mean_relative_error": self.mean_relative_error,
            "samples_used": self.samples_used,
        }


# reference constants from a fitted single-node study, by configuration
RABBIT_NO_REPLICATION = RabbitThroughputModel(u_routing=3.24e-5, u_byte=7.64e-9)
RABBIT_MIRRORED = RabbitThroughputModel(u_routing=6.52e-5, u_byte=8.13e-9)
KAFKA_ACKS0 = KafkaThroughputModel(u_routing=3.8e-4, u_topics=2.1e-7, u_byte=4.9e-6)
KAFKA_ACKS1 = KafkaThroughputModel(u_routing=3.9e-4, u_topics=9.1e-8, u_byte=1.1e-6)
KAFKA_ACKS_QUORUM_REP2 = KafkaThroughputModel(u_routing=9.4e-4, u_topics=7.3e-5, u_byte=2.9e-5)

PRESETS = {
    "rabbit.no_replication": RABBIT_NO_REPLICATION,
    "rabbit.mirrored": RABBIT_MIRRORED,
    "kafka.acks0": KAFKA_ACKS0,
    "kafka.acks1": KAFKA_ACKS1,
    "kafka.acks_quorum_rep2": KAFKA_ACKS_QUORUM_REP2,
}


def predict_rabbit(producers: int, size_bytes: float, m: RabbitThroughputModel) -> float:
    if producers < 1 or size_bytes < 1:
        raise ValueError("producers and size must be >= 1")
    return producers / (m.u_routing + size_bytes * m.u_byte)


def predict_kafka(
    producers: int,
    partitions: int,
    topics: int,
    effective_size: float,
    m: KafkaThroughputModel,
) -> float:
    if min(producers, partitions, topics) < 1 or effective_size < 1:
        raise ValueError("all inputs must be >= 1")
    denom = m.u_routing + topics * m.u_topics + math.sqrt(effective_size) * m.u_byte
    return producers * partitions / denom


def effective_size(batch_bytes: float, record_bytes: float) -> float:
    """The producer-side size that governs log-engine copying cost: the
    larger of the batch size and the record size."""
    if batch_bytes < 0 or record_bytes < 0:
        raise ValueError("sizes must be >= 0")
    return max(batch_bytes, record_bytes)


# --------------------------------------------------------------------------
# fitting
# --------------------------------------------------------------------------

# sample inputs: rabbit -> (producers, size_bytes)
#                kafka  -> (producers, partitions, topics, effective_size)
Sample = tuple[Sequence[float], float]

_FORMS = {"rabbit": 2, "kafka": 3}


def _design(form: str, inputs_list: list) -> tuple[list[tuple[float, ...]], list[float]]:
    """Regressor rows and per-sample numerator for the inverted form."""
    if form == "rabbit":
        rows = [(1.0, float(s)) for (_, s) in inputs_list]
        numer = [float(p) for (p, _) in inputs_list]
    else:
        rows = [(1.0, float(t), math.sqrt(es)) for (_, _, t, es) in inputs_list]
        numer = [float(p) * float(pt) for (p, pt, _, _) in inputs_list]
    return rows, numer


def _dot(a: Sequence[float], b: Sequence[float]) -> float:
    return math.fsum(x * y for x, y in zip(a, b))


def _least_squares(rows: list[tuple[float, ...]], y: list[float]) -> list[float]:
    """Solve min |rows @ c - y| by a QR factorization (modified Gram-Schmidt
    on unit-scaled columns) and back substitution.  Raises `Underdetermined`
    when a column is, to rounding, a combination of the ones before it."""
    k = len(rows[0])
    # a remainder within max(m, k) ulps of a unit column is rounding, not an
    # independent direction (the factor numpy's matrix_rank uses)
    tol = max(len(rows), k) * sys.float_info.epsilon
    cols = [[row[j] for row in rows] for j in range(k)]
    scale = [math.hypot(*col) for col in cols]
    if 0.0 in scale:
        raise Underdetermined("sample inputs do not span the model's regressors")
    q = [[v / s for v in col] for col, s in zip(cols, scale)]
    r = [[0.0] * k for _ in range(k)]
    z = []
    for j in range(k):
        for i in range(j):
            r[i][j] = _dot(q[i], q[j])
            q[j] = [a - r[i][j] * b for a, b in zip(q[j], q[i])]
        r[j][j] = math.hypot(*q[j])
        if r[j][j] <= tol:
            raise Underdetermined("sample inputs do not span the model's regressors")
        q[j] = [a / r[j][j] for a in q[j]]
        z.append(_dot(q[j], y))
        y = [a - z[j] * b for a, b in zip(y, q[j])]
    c = [0.0] * k
    for j in reversed(range(k)):
        c[j] = (z[j] - math.fsum(r[j][i] * c[i] for i in range(j + 1, k))) / r[j][j]
    return [cj / s for cj, s in zip(c, scale)]


def _mean_rel_error(consts: list[float], rows: list, numer: list[float], meas: list[float]) -> float:
    return math.fsum(
        abs(n / sum(map(mul, row, consts)) - m) / m
        for row, n, m in zip(rows, numer, meas)
    ) / len(meas)


def fit(samples: Iterable[Sample], form: str) -> FitResult:
    """Recover model constants from measurements by minimum mean relative
    error; see the module docstring for the (deterministic) method."""
    if form not in _FORMS:
        raise ValueError(f"form must be one of {sorted(_FORMS)}, got {form!r}")
    k = _FORMS[form]
    samples = list(samples)
    inputs_list = [tuple(inp) for inp, _ in samples]
    meas = [float(pps) for _, pps in samples]
    if any(m <= 0 for m in meas):
        raise NonPositiveMeasurement("measured pps must be positive")
    if len(set(inputs_list)) < k:
        raise Underdetermined(f"{form} form has {k} constants, need >= {k} distinct inputs")
    for inp in inputs_list:
        if len(inp) != (2 if form == "rabbit" else 4):
            raise ValueError(f"bad inputs for {form} form: {inp!r}")

    # linear least squares on the inverted form: rows @ c = producers/pps
    rows, numer = _design(form, inputs_list)
    init = _least_squares(rows, [n / m for n, m in zip(numer, meas)])
    consts = [max(c, 1e-15) for c in init]

    # log-space coordinate descent on the true relative-error objective
    best = _mean_rel_error(consts, rows, numer, meas)
    step = 0.5
    while step > 1e-9:
        improved = False
        for i in range(k):
            for factor in (1.0 + step, 1.0 / (1.0 + step)):
                trial = list(consts)
                trial[i] *= factor
                err = _mean_rel_error(trial, rows, numer, meas)
                if err < best - 1e-15:
                    consts, best = trial, err
                    improved = True
        if not improved:
            step /= 2.0
    consts = [max(c, 1e-15) for c in consts]

    if form == "rabbit":
        constants: Union[RabbitThroughputModel, KafkaThroughputModel] = RabbitThroughputModel(
            u_routing=consts[0], u_byte=consts[1]
        )
    else:
        constants = KafkaThroughputModel(
            u_routing=consts[0], u_topics=consts[1], u_byte=consts[2]
        )
    return FitResult(constants=constants, mean_relative_error=best, samples_used=len(samples))


def samples_from_throughput(results, form: str) -> list[Sample]:
    """Turn bench ThroughputSample objects into fit samples using each
    sample's config snapshot."""
    out: list[Sample] = []
    for r in results:
        cfg = r.config
        if form == "rabbit":
            inputs: Sequence[float] = (cfg["producers"], cfg["record_size_bytes"])
        else:
            inputs = (
                cfg["producers"],
                cfg["partitions"],
                cfg["topics"],
                cfg["record_size_bytes"],
            )
        out.append((inputs, r.pps))
    return out
