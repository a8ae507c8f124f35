import pytest

from kgunits.catalog import build_catalog
from kgunits.isoprobe import scan_minimum_counterexample


@pytest.fixture(scope="session")
def catalog_rows():
    return build_catalog(1024).rows


@pytest.fixture(scope="session")
def catalog_by_key(catalog_rows):
    return {(r.field, r.group): r for r in catalog_rows}


@pytest.fixture(scope="session")
def scan_report():
    return scan_minimum_counterexample(1024)


@pytest.fixture
def faulty_mul(monkeypatch):
    """faulty_mul(alg, fault): from then on alg.mul_codes(a, b) returns
    fault(a, b, the true product), for injecting faults into the unit census.
    A fault may hand back tuples that are no elements of K[G]; they have no
    true product, and fault gets None for it."""
    def install(alg, fault):
        real, n = alg.mul_codes, alg.group.order

        def mul(a, b):
            return fault(a, b, real(a, b) if len(a) == len(b) == n else None)
        monkeypatch.setattr(alg, "mul_codes", mul)
        return alg
    return install
