import numpy as np
import pytest

from roughchain import (
    KernelSpec,
    MarketParams,
    assemble,
    make_model,
)
from roughchain.presets import model_params

BASE_MARKET = dict(s0=10.0, v0=0.04, rho=-0.75)


@pytest.fixture(scope="session")
def kernel():
    return KernelSpec(hurst=0.12, eps=1e-8)


@pytest.fixture(scope="session")
def market():
    return MarketParams(**BASE_MARKET)


@pytest.fixture(scope="session")
def heston():
    return make_model("rough-heston", model_params("rough-heston"))


@pytest.fixture(scope="session")
def all_models():
    from roughchain import MODEL_NAMES

    return {name: make_model(name, model_params(name)) for name in MODEL_NAMES}


@pytest.fixture(scope="session")
def heston_system(heston, market, kernel):
    """Small default-engine system used by many pricing tests."""
    return assemble(heston, market, kernel, n=40, m=40)


@pytest.fixture(scope="session")
def heston_rate_system(market, kernel):
    """The same system with the asset drifting (and prices discounting) at r = 0.05."""
    model = make_model("rough-heston", model_params("rough-heston") | {"r": 0.05})
    return assemble(model, market, kernel, n=40, m=40)


def random_generator(n, seed=0, scale=1.0):
    """Dense random rate matrix (valid generator) for exponential tests."""
    rng = np.random.default_rng(seed)
    a = rng.random((n, n)) * scale
    np.fill_diagonal(a, 0.0)
    return a - np.diag(a.sum(axis=1))


def dense(planes):
    """Dense matrices, shape (..., n, n), of tridiagonal generators given as (3, ..., n) planes.

    Plane 0 holds G[i, i - 1], plane 1 G[i, i] and plane 2 G[i, i + 1]; the
    entries that would fall outside a matrix are dropped.
    """
    lower, diag, upper = np.asarray(planes, float)
    n = diag.shape[-1]
    i = np.arange(n)
    out = np.zeros(diag.shape + (n,))
    out[..., i, i] = diag
    out[..., i[1:], i[:-1]] = lower[..., 1:]
    out[..., i[:-1], i[1:]] = upper[..., :-1]
    return out
