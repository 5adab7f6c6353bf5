import numpy as np
import pytest


def random_complex(n: int, seed: int) -> np.ndarray:
    rng = np.random.Generator(np.random.PCG64(seed))
    return rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))


def random_contraction(n: int, seed: int) -> np.ndarray:
    z = random_complex(n, seed)
    return z / (np.linalg.norm(z, ord=2) * 1.01)


@pytest.fixture
def rng():
    return np.random.Generator(np.random.PCG64(20260809))


class ClosedStdout:
    """A stdout whose reader has gone: every write raises BrokenPipeError."""

    def __init__(self, fd):
        self.fd = fd

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")

    def flush(self):
        pass

    def fileno(self):
        return self.fd
