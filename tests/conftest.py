import pytest
from hypothesis import HealthCheck, settings

from conormal.germs import Germ, Parametrization
from conormal.poly import PolynomialRing

settings.register_profile(
    "suite",
    max_examples=30,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")


@pytest.fixture
def basis_log(monkeypatch):
    """The (generators, order, basis) record of every Groebner basis the
    test computes, in order, as ``groebner._basis_observer`` reports it."""
    import conormal.groebner as groebner

    seen = []
    monkeypatch.setattr(groebner, "_basis_observer", lambda *args: seen.append(args))
    return seen


@pytest.fixture
def pair_loops(monkeypatch):
    """The argument lists ``(divisors, ring, order, known)`` of every run of
    the pair loop ``groebner._complete`` the test makes, in order: one per
    Groebner basis of nonzero generators and one per Rabinowitsch step."""
    import conormal.groebner as groebner

    seen, complete = [], groebner._complete

    def counting(divisors, ring, order, known):
        seen.append((list(divisors), ring, order, known))
        return complete(divisors, ring, order, known)

    monkeypatch.setattr(groebner, "_complete", counting)
    return seen


@pytest.fixture(scope="session")
def ring3():
    return PolynomialRing(["x", "y", "z"])


@pytest.fixture(scope="session")
def ring4():
    return PolynomialRing(["x", "y", "z", "t"])


@pytest.fixture(scope="session")
def cusp(ring3):
    x, y, z = ring3.gens()
    return Germ(ring3, [x**3 - y * z])


@pytest.fixture(scope="session")
def umbrella(ring3):
    x, y, z = ring3.gens()
    return Germ(ring3, [z**2 - x * y**2])


@pytest.fixture(scope="session")
def umbrella_param(umbrella):
    pring = PolynomialRing(["u", "v"])
    u, v = pring.gens()
    return Parametrization(umbrella, pring, [u**2, v, u * v])


@pytest.fixture(scope="session")
def segre(ring4):
    x, y, z, t = ring4.gens()
    return Germ(ring4, [x * z - y * t])
