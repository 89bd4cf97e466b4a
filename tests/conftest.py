import contextlib
import ctypes
import glob
import json
import os

import numpy as np
import pytest

from dpboost import Budget, Dataset, FeatureSplit, brc_fit, draw_private_classifiers, harness


def _openblas_get_num_threads():
    """The thread-count getter of numpy's bundled OpenBLAS, or None."""
    libdir = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for lib in glob.glob(os.path.join(libdir, "*openblas*")):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(handle, symbol):
                fn = getattr(handle, symbol)
                fn.argtypes = []
                fn.restype = ctypes.c_int
                return fn
    return None


@contextlib.contextmanager
def blas_threads(threads):
    """Run the block at ``threads`` OpenBLAS threads, then set the count it
    had back; without numpy's OpenBLAS, a no-op."""
    get = _openblas_get_num_threads()
    previous = get() if get else threads
    harness._set_blas_threads(threads)
    try:
        yield
    finally:
        harness._set_blas_threads(previous)


def planted_dataset(n=400, d_pub=3, d_pri=4, pub_signal=0.25, pri_signal=0.55, seed=0):
    """Balanced +/-1 dataset where private columns carry most of the signal.

    Entries are clipped into [-1, 1] so the dataset satisfies the normalized
    contract directly.
    """
    rng = np.random.default_rng(seed)
    y = np.concatenate([np.ones(n // 2), -np.ones(n // 2)]).astype(np.int64)
    X_pub = np.clip(pub_signal * y[:, None] + 0.6 * rng.normal(size=(n, d_pub)), -1, 1)
    X_pri = np.clip(pri_signal * y[:, None] + 0.45 * rng.normal(size=(n, d_pri)), -1, 1)
    X = np.hstack([X_pub, X_pri])
    columns = tuple((f"pub{i}", "numeric") for i in range(d_pub)) + tuple(
        (f"pri{i}", "numeric") for i in range(d_pri)
    )
    ds = Dataset(X=X, y=y, columns=columns)
    split = FeatureSplit(
        public_cols=tuple(range(d_pub)), private_cols=tuple(range(d_pub, d_pub + d_pri))
    )
    return ds, split


def fit_with_draws(train, split, epsilon, rounds, *, c1, c2, classifier_rng, noise_rng, sampler=None):
    """``brc_fit`` of ``rounds`` rounds on draws, and a public chain, made for
    this fit alone, with a ``Budget`` of ``epsilon`` on ``noise_rng``."""
    draws = draw_private_classifiers(train, np.arange(train.n), split, rounds, classifier_rng, sampler)
    return brc_fit(draws, Budget(epsilon, noise_rng), c1=c1, c2=c2)


class FixedFlips:
    """Stands in for the generator of ``flip_and_fit_threshold`` so that
    exactly the given labels flip, at any flip probability p > 0: ``flips``
    is one (count, n) boolean row per fit for the batched fitter, or the
    n-vector that one ``rng.random(n)`` draw of a single-fit oracle takes."""

    def __init__(self, flips):
        self.flips = np.asarray(flips)

    def random(self, size):
        assert tuple(np.atleast_1d(size)) == self.flips.shape
        return np.where(self.flips, 0.0, 1.0)


def write_synthetic_csv(directory, n=600, seed=0, positive_frac=0.55):
    """Raw CSV + schema pair for pipeline tests: two numeric columns, one
    categorical column, a yes/no label. Returns (csv_path, schema_path).
    """
    rng = np.random.default_rng(seed)
    y = np.where(rng.random(n) < positive_frac, 1, -1)
    pub = 0.3 * y + rng.normal(0, 1.0, size=n)
    pri = 1.2 * y + rng.normal(0, 1.0, size=n)
    cat = np.where(1.0 * y + rng.normal(0, 1.2, size=n) > 0, "alpha", "beta")

    csv_path = os.path.join(directory, "synth.csv")
    with open(csv_path, "w", encoding="utf-8") as fh:
        fh.write("pubnum,prinum,pricat,outcome\n")
        for i in range(n):
            label = "yes" if y[i] == 1 else "no"
            fh.write(f"{pub[i]:.6f},{pri[i]:.6f},{cat[i]},{label}\n")

    schema_path = os.path.join(directory, "synth.schema.json")
    schema = {
        "columns": [
            {"name": "pubnum", "kind": "numeric", "min": -5, "max": 5},
            {"name": "prinum", "kind": "numeric", "min": -6, "max": 6},
            {"name": "pricat", "kind": "categorical"},
        ],
        "label": {"name": "outcome", "positive": "yes", "negative": "no"},
    }
    with open(schema_path, "w", encoding="utf-8") as fh:
        json.dump(schema, fh)
    return csv_path, schema_path


@pytest.fixture
def synth_csv(tmp_path):
    return write_synthetic_csv(str(tmp_path))
