import tracemalloc
from contextlib import contextmanager

import pytest

from gapsieve import build_primorial_cycle, census


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


@pytest.fixture(scope="session")
def kernel():
    """kernel(side): a context in which census.window_counts tables ("table") every
    window, or ("walk") lifts WALK_STEPS, so only slices with fewer starts than
    steps are tabled."""
    @contextmanager
    def on(side):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(census, "WALK_STEPS", {"table": 0, "walk": 10**6}[side])
            yield
    return on
