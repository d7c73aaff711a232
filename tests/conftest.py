import tracemalloc

import pytest

from gapsieve import build_primorial_cycle


@pytest.fixture(scope="session")
def g5():
    return build_primorial_cycle(5)


@pytest.fixture(scope="session")
def g7():
    return build_primorial_cycle(7)


@pytest.fixture(scope="session")
def g11():
    return build_primorial_cycle(11)


@pytest.fixture(scope="session")
def g13():
    return build_primorial_cycle(13)


@pytest.fixture
def traced_peak():
    """Run fn() under tracemalloc; return its result and the traced peak in MB."""
    def run(fn):
        tracemalloc.start()
        try:
            return fn(), tracemalloc.get_traced_memory()[1] / 2**20
        finally:
            tracemalloc.stop()
    return run
