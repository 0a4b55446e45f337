import pytest

import fracmv.extension
import fracmv.kernel
from fracmv.bump import normalize
from fracmv.fraclap import Params
from fracmv.kernel import build_table

# Kernel tables are built once per session and shared: a default grid at
# n=1 or n=2 takes about 0.1 s, its 127 nodes below rho = 1 by quadrature.

_TABLE_CACHE = {}
_PROFILE_CACHE = {}


@pytest.fixture(scope="session")
def get_table():
    def _get(n, a):
        key = (n, float(a))
        if key not in _TABLE_CACHE:
            _TABLE_CACHE[key] = build_table(Params(n=n, a=float(a)))
        return _TABLE_CACHE[key]

    return _get


@pytest.fixture(scope="session")
def get_profile():
    def _get(n, a):
        key = (n, float(a))
        if key not in _PROFILE_CACHE:
            _PROFILE_CACHE[key] = normalize(n, float(a))
        return _PROFILE_CACHE[key]

    return _get


@pytest.fixture(scope="session")
def table_n1_a0(get_table):
    return get_table(1, 0.0)


@pytest.fixture()
def engine_calls(monkeypatch):
    """The rows of each call that fracmv.kernel and extend make to the ray engine."""
    calls = []
    real = fracmv.extension.ray_integrals

    def counted(f, x, *args, **kwargs):
        calls.append(x)
        return real(f, x, *args, **kwargs)

    for module in (fracmv.kernel, fracmv.extension):
        monkeypatch.setattr(module, "ray_integrals", counted)
    return calls
