import signal

import pytest
from hypothesis import strategies as st

from schur_isotropy import Partition

# Wall-clock seconds a test may take before it fails; the slowest takes
# about 2 s.  The limit turns a hang into a failure and changes no assertion.
TEST_TIME_LIMIT_S = 60


def _out_of_time(signum, frame):
    raise TimeoutError(f"test ran past {TEST_TIME_LIMIT_S} s")


@pytest.fixture(autouse=True)
def _time_limit():
    """Fail a test that runs past TEST_TIME_LIMIT_S, where SIGALRM exists."""
    if not hasattr(signal, "SIGALRM"):
        yield
        return
    previous = signal.signal(signal.SIGALRM, _out_of_time)
    signal.alarm(TEST_TIME_LIMIT_S)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


@st.composite
def partitions(draw, max_size=8, allow_empty=True):
    """Random partition with at most ``max_size`` boxes."""
    raw = draw(st.lists(st.integers(min_value=1, max_value=max_size), max_size=8))
    raw.sort(reverse=True)
    parts, total = [], 0
    for p in raw:
        if total + p <= max_size:
            parts.append(p)
            total += p
    if not allow_empty and not parts:
        parts = [draw(st.integers(min_value=1, max_value=max_size))]
    return Partition(parts)
