"""Seeded randomness: Laplace sampling, uniform random linear classifiers,
and privacy-budget bookkeeping (``Budget``, the one place that spends epsilon).

RNG streams are addressed by (seed, stream id) and are fully reproducible.
Stream ids are derived from (repeat index, purpose) so that adding a new
randomness consumer never perturbs existing streams.
"""

from __future__ import annotations

import enum
import math

import numpy as np

from .data import DataError, check_real
from .model import LinearClassifier


class Purpose(enum.IntEnum):
    """Randomness consumers, one stream each per repeat."""

    SHUFFLE = 0              # balancing and train/test splitting
    PRIVATE_CLASSIFIER = 1   # random classifier coefficients
    LAPLACE = 2              # each cell's noise, keyed further on its epsilon (cell_budget)
    BASELINE = 3             # PATE's teacher shards


def stream_id(repeat: int, purpose: Purpose) -> int:
    return repeat * len(Purpose) + int(purpose)


def make_rng(seed: int, stream: int = 0) -> np.random.Generator:
    """Generator for (seed, stream); identical arguments give identical samples."""
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(stream,)))


def rng_for(seed: int, repeat: int, purpose: Purpose) -> np.random.Generator:
    return make_rng(seed, stream_id(repeat, purpose))


def check_clipping(c1, c2) -> None:
    """``DataError`` unless the weight-clipping bounds c1 and c2 are finite
    numbers >= 1: clipping private weights to [1/c1, c2] bounds the
    sensitivity of a weighted error over n rows at c1*c2/n."""
    check_real("c1", c1)
    check_real("c2", c2)
    if not (1 <= c1 < np.inf and 1 <= c2 < np.inf):
        raise DataError("clipping parameters c1 and c2 must be finite and >= 1")


def check_epsilon(epsilon) -> None:
    """``DataError`` unless ``epsilon`` is a positive number; ``math.inf``
    is the non-private limit."""
    check_real("epsilon", epsilon)
    if not epsilon > 0:
        raise DataError(f"epsilon must be positive, got {epsilon}")


def laplace_scale(c1: float, c2: float, rounds: int, epsilon: float, n: int) -> float:
    """The Laplace scale c1*c2*rounds/(epsilon*n) of one of ``rounds`` error
    releases at sensitivity c1*c2/n: epsilon/rounds each, epsilon in total
    under basic composition; 0 at epsilon = inf."""
    return c1 * c2 * rounds / (epsilon * n)


def check_epsilons(epsilons) -> tuple[float, ...]:
    """A sweep's epsilons as floats; ``DataError`` unless they form a non-empty
    list or tuple of valid epsilons that repeats no value (its runs would be
    counted twice)."""
    if not isinstance(epsilons, (list, tuple)) or not epsilons:
        raise DataError(f"epsilons must be a non-empty list, got {epsilons!r}")
    try:
        for e in epsilons:
            check_epsilon(e)
    except DataError as exc:
        raise DataError(f"bad epsilons {list(epsilons)}: {exc}") from exc
    values = tuple(float(e) for e in epsilons)
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


class Budget:
    """A fit's epsilon and noise stream: every noisy release on private data
    draws here, once ``charge`` books it in ``ledger`` as (mechanism,
    sensitivity, scale, epsilon share), and raises ``RuntimeError`` instead
    when the shares would sum past ``epsilon`` (relative tolerance 1e-9). A
    release at scale 0 draws nothing, for an infinite share (epsilon = inf)."""

    def __init__(self, epsilon: float, rng: np.random.Generator):
        check_epsilon(epsilon)
        self.epsilon = epsilon
        self.rng = rng
        self.spent = 0.0
        self.ledger: list[tuple[str, float | None, float | None, float]] = []

    def charge(self, mechanism: str, sensitivity: float | None, scale: float | None, share: float) -> None:
        """Book ``share`` of epsilon; called alone for a cost that makes no draw."""
        if not share >= 0:
            raise ValueError(f"{mechanism}: an epsilon share must be non-negative, got {share}")
        if self.spent + share > self.epsilon * (1.0 + 1e-9):
            raise RuntimeError(
                f"privacy budget exhausted: {mechanism} needs {share:.6g} more after "
                f"{self.spent:.6g} of epsilon={self.epsilon:g}"
            )
        self.spent += share
        self.ledger.append((mechanism, sensitivity, scale, share))

    def release(self, mechanism: str, value, sensitivity: float, scale: float):
        """``value`` (a float or an array, whose whole L1 change is at most
        ``sensitivity``) plus Laplace noise of its shape, for sensitivity/scale."""
        self.charge(mechanism, sensitivity, scale, sensitivity / scale if scale > 0 else math.inf)
        if scale == 0:
            return value
        return value + laplace(scale, self.rng, value.shape if isinstance(value, np.ndarray) else None)

    def gamma_ball(self, mechanism: str, d: int, share: float) -> np.ndarray:
        """A d-vector with density proportional to exp(-share * ||b|| / 2), for
        ``share``: a Gamma(d, 2/share) norm (0 at share = inf) times a uniform
        direction, always d+1 draws, so their count never depends on the data."""
        scale = 2.0 / share
        self.charge(mechanism, None, scale, share)
        norm = self.rng.gamma(shape=d, scale=scale)
        direction = self.rng.normal(size=d)
        direction /= np.linalg.norm(direction)
        return norm * direction


def cell_budget(seed: int, repeat: int, epsilon: float) -> Budget:
    """The ``Budget`` of the (epsilon, repeat) cell of a sweep of ``seed``.
    Its noise stream is keyed on (seed, the repeat's LAPLACE stream id, the
    IEEE-754 bits of epsilon), so no two cells of a sweep share noise and
    basic composition covers its records, while a cell draws the same noise
    whatever other epsilons its sweep holds."""
    bits = int(np.float64(epsilon).view(np.uint64))
    key = np.random.SeedSequence(seed, spawn_key=(stream_id(repeat, Purpose.LAPLACE), bits))
    return Budget(epsilon, np.random.default_rng(key))


def random_linear_classifier(cols, rng: np.random.Generator) -> LinearClassifier:
    """Classifier with every coefficient and the intercept i.i.d. uniform on [-1,1].

    Consumes exactly len(cols) + 1 draws, coefficients first, intercept last.
    """
    cols = tuple(int(c) for c in cols)
    if len(cols) == 0:
        raise ValueError("cannot draw a random classifier over an empty column set")
    vals = rng.uniform(-1.0, 1.0, size=len(cols) + 1)
    return LinearClassifier(coeffs=vals[:-1], intercept=float(vals[-1]), cols=cols)
