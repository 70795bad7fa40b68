import pytest

from curvevar import sample_builtin


@pytest.fixture(scope="session")
def sphere():
    return sample_builtin("sphere", {"r": 1.0})


@pytest.fixture(scope="session")
def sphere2():
    return sample_builtin("sphere", {"r": 2.0})


@pytest.fixture(scope="session")
def torus():
    return sample_builtin("torus", {"R": 2.0, "a": 1.0})


@pytest.fixture(scope="session")
def clifford():
    return sample_builtin("clifford_torus_S3", {})


@pytest.fixture(scope="session")
def geo_sphere():
    import numpy as np

    return sample_builtin("geodesic_sphere_S3", {"a": np.pi / 4})


@pytest.fixture
def fft_counts(monkeypatch):
    """[forward, inverse] real FFTs run since the fixture was set up (or
    the list last reset): numpy.fft.rfft and irfft, counted."""
    import numpy as np

    counts = [0, 0]

    def counted(i, fn):
        def call(*args, **kwargs):
            counts[i] += 1
            return fn(*args, **kwargs)

        return call

    monkeypatch.setattr(np.fft, "rfft", counted(0, np.fft.rfft))
    monkeypatch.setattr(np.fft, "irfft", counted(1, np.fft.irfft))
    return counts
