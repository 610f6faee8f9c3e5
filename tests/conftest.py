"""Shared fixtures."""

import signal

import pytest


@pytest.fixture
def deadline():
    """Fail a test that runs past 120 s instead of letting it hang."""
    def expire(signum, frame):
        raise TimeoutError("test ran past its 120 s deadline")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(120)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
