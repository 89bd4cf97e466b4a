"""Seeded randomness: Laplace sampling, uniform random linear classifiers,
and privacy-budget bookkeeping.

RNG streams are addressed by (seed, stream id) and are fully reproducible.
Stream ids are derived from (repeat index, purpose) so that adding a new
randomness consumer never perturbs existing streams.
"""

from __future__ import annotations

import enum
import numbers
from dataclasses import dataclass

import numpy as np

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

    Weight clipping to [1/c1, c2] bounds the sensitivity of each weighted
    error at c1*c2/n, so perturbing it with Lap(c1*c2*rounds/(epsilon*n))
    costs epsilon/rounds per round and epsilon in total under basic
    composition. ``epsilon=math.inf`` is accepted and yields a zero noise
    scale (the non-private limit).
    """

    epsilon: float
    rounds: int
    c1: float
    c2: float
    n: int

    def __post_init__(self):
        if not self.epsilon > 0:
            raise ValueError(f"epsilon must be positive, got {self.epsilon}")
        if isinstance(self.rounds, bool) or not isinstance(self.rounds, numbers.Integral) or self.rounds < 1:
            raise ValueError(f"rounds must be an integer >= 1, got {self.rounds!r}")
        if not (self.c1 >= 1 and self.c2 >= 1):
            raise ValueError("clipping parameters c1 and c2 must be >= 1")
        if self.n < 1:
            raise ValueError(f"n must be >= 1, got {self.n}")

    @property
    def laplace_scale(self) -> float:
        return self.c1 * self.c2 * self.rounds / (self.epsilon * self.n)


def budget_per_round(params: PrivacyParams) -> float:
    """Per-round budget epsilon / rounds; the rounds compose back to epsilon."""
    return params.epsilon / params.rounds


def laplace(scale: float, rng: np.random.Generator, size=None):
    """Draw from the Laplace density (1/2b) * exp(-|y|/b) with b = scale.

    Inverse-CDF sampling, one uniform per draw:
        y = -b * sgn(u) * ln(1 - 2|u|),   u ~ Uniform(-1/2, 1/2).
    Consequently laplace(b) and b * laplace(1) are bit-identical on the
    same underlying uniforms. Returns a float for size=None, else an array.
    """
    if not scale > 0:
        raise ValueError(f"laplace scale must be positive, got {scale}")
    u = np.asarray(rng.random(size))
    # rng.random() lives in [0, 1); nudge an exact 0 to keep the draw finite.
    u = np.where(u == 0.0, np.finfo(np.float64).tiny, u) - 0.5
    out = -scale * np.sign(u) * np.log1p(-2.0 * np.abs(u))
    return float(out) if size is None else out


def random_linear_classifier(cols, rng: np.random.Generator) -> LinearClassifier:
    """Classifier with every coefficient and the intercept i.i.d. uniform on [-1,1].

    Consumes exactly len(cols) + 1 draws, coefficients first, intercept last.
    """
    cols = tuple(int(c) for c in cols)
    if len(cols) == 0:
        raise ValueError("cannot draw a random classifier over an empty column set")
    vals = rng.uniform(-1.0, 1.0, size=len(cols) + 1)
    return LinearClassifier(coeffs=vals[:-1], intercept=float(vals[-1]), cols=cols)
