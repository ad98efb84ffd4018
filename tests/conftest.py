import pytest

from resokit import (
    GamowKet,
    HalfPlane,
    HardyFunction,
    PreparedState,
    ResonancePole,
    SMatrixModel,
)


@pytest.fixture(scope="session")
def pole():
    return ResonancePole(energy=1.0, width=0.2)


@pytest.fixture(scope="session")
def wide_pole():
    return ResonancePole(energy=1.6, width=0.35)


@pytest.fixture(scope="session")
def ket(pole):
    return GamowKet(pole)


@pytest.fixture(scope="session")
def model(pole):
    return SMatrixModel(poles=(pole,))


@pytest.fixture(scope="session")
def model_two(pole, wide_pole):
    return SMatrixModel(poles=(pole, wide_pole))


@pytest.fixture(scope="session")
def psi():
    # registration side: analytic in the upper half plane, order 2
    return HardyFunction(terms=((1.0, 2.0 - 1.0j, 2),), half_plane=HalfPlane.UPPER)


@pytest.fixture(scope="session")
def psi_order1():
    return HardyFunction(terms=((0.5 + 0.2j, 1.0 - 0.7j, 1),), half_plane=HalfPlane.UPPER)


@pytest.fixture(scope="session")
def phi():
    # preparation side: analytic in the lower half plane, order 2
    return HardyFunction(terms=((1.0, 1.5 + 0.8j, 2),), half_plane=HalfPlane.LOWER)


@pytest.fixture(scope="session")
def state(phi):
    return PreparedState(phi)


@pytest.fixture
def laplace_samples(monkeypatch):
    """record(module) makes every Laplace table that module builds from now
    on record (nodes, values) of each sample it takes, in one list."""
    from resokit.quadrature import LaplaceTable

    samples = []

    def recording(f, power=1):
        def sample(x):
            values = f(x)
            samples.append((x, values))
            return values

        return LaplaceTable(sample, power)

    def record(module):
        monkeypatch.setattr(module, "LaplaceTable", recording)
        return samples

    return record
