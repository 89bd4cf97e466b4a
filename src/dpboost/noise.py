"""Seeded randomness: Laplace sampling, uniform random linear classifiers,
and privacy-budget bookkeeping.

RNG streams are addressed by (seed, stream id) and are fully reproducible.
Stream ids are derived from (repeat index, purpose) so that adding a new
randomness consumer never perturbs existing streams.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .data import DataError, check_int, check_real
from .model import LinearClassifier


class Purpose(enum.IntEnum):
    """Randomness consumers, one stream each per repeat."""

    SHUFFLE = 0              # balancing and train/test splitting
    PRIVATE_CLASSIFIER = 1   # random classifier coefficients
    LAPLACE = 2              # error-perturbation noise
    BASELINE = 3             # noise inside baseline mechanisms


def stream_id(repeat: int, purpose: Purpose) -> int:
    return repeat * len(Purpose) + int(purpose)


def make_rng(seed: int, stream: int = 0) -> np.random.Generator:
    """Generator for (seed, stream); identical arguments give identical samples."""
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(stream,)))


def rng_for(seed: int, repeat: int, purpose: Purpose) -> np.random.Generator:
    return make_rng(seed, stream_id(repeat, purpose))


@dataclass(frozen=True)
class PrivacyParams:
    """Total budget epsilon split over ``rounds`` error queries.

    Weight clipping to [1/c1, c2] (both finite) bounds the sensitivity of a
    weighted error over n rows at c1*c2/n, so Lap(c1*c2*rounds/(epsilon*n))
    noise costs epsilon/rounds per round, epsilon in total under basic
    composition. ``epsilon=math.inf`` gives a zero scale (non-private limit).
    """

    epsilon: float
    rounds: int
    c1: float
    c2: float

    def __post_init__(self):
        for name in ("epsilon", "c1", "c2"):
            check_real(name, getattr(self, name))
        if not self.epsilon > 0:
            raise DataError(f"epsilon must be positive, got {self.epsilon}")
        check_int("rounds", self.rounds, 1)
        if not (1 <= self.c1 < np.inf and 1 <= self.c2 < np.inf):
            raise DataError("clipping parameters c1 and c2 must be finite and >= 1")

    def laplace_scale(self, n: int) -> float:
        return self.c1 * self.c2 * self.rounds / (self.epsilon * n)


def check_epsilons(epsilons, rounds: int, c1: float, c2: float) -> tuple[float, ...]:
    """A sweep's epsilons as floats; ``DataError`` unless they form a non-empty
    list or tuple, valid as ``PrivacyParams`` with ``rounds``, ``c1`` and
    ``c2``, that repeats no value (its runs would be counted twice)."""
    if not isinstance(epsilons, (list, tuple)) or not epsilons:
        raise DataError(f"epsilons must be a non-empty list, got {epsilons!r}")
    try:
        values = tuple(float(PrivacyParams(e, rounds, c1, c2).epsilon) for e in epsilons)
    except ValueError as exc:
        raise DataError(f"bad privacy parameters for epsilons {list(epsilons)}: {exc}") from exc
    if len(set(values)) != len(values):
        raise DataError(f"epsilons must not repeat a value, got {list(epsilons)}")
    return values


def laplace(scale: float, rng: np.random.Generator, size=None):
    """Draw from the Laplace density (1/2b) * exp(-|y|/b) with b = scale.

    Inverse-CDF sampling, one uniform per draw:
        y = -b * sgn(u) * ln(1 - 2|u|),   u ~ Uniform(-1/2, 1/2).
    Consequently laplace(b) and b * laplace(1) are bit-identical on the
    same underlying uniforms. Returns a float for size=None, else an array;
    the float is computed in Python, with numpy's ``log1p`` (``math.log1p``
    rounds some inputs differently), so both give the same bits.
    """
    if not scale > 0:
        raise ValueError(f"laplace scale must be positive, got {scale}")
    # rng.random() lives in [0, 1 - 2**-53]; an exact 0 becomes 2**-53, which
    # survives the subtraction, so the draw stays finite and mirrors 1 - 2**-53.
    if size is None:
        u = (rng.random() or 2.0**-53) - 0.5
        sign = (u > 0.0) - (u < 0.0)  # np.sign: 0 at u == 0
        return -scale * sign * float(np.log1p(-2.0 * abs(u)))
    u = rng.random(size)
    u = np.where(u == 0.0, 2.0**-53, u) - 0.5
    return -scale * np.sign(u) * np.log1p(-2.0 * np.abs(u))


def random_linear_classifier(cols, rng: np.random.Generator) -> LinearClassifier:
    """Classifier with every coefficient and the intercept i.i.d. uniform on [-1,1].

    Consumes exactly len(cols) + 1 draws, coefficients first, intercept last.
    """
    cols = tuple(int(c) for c in cols)
    if len(cols) == 0:
        raise ValueError("cannot draw a random classifier over an empty column set")
    vals = rng.uniform(-1.0, 1.0, size=len(cols) + 1)
    return LinearClassifier(coeffs=vals[:-1], intercept=float(vals[-1]), cols=cols)
