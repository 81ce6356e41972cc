import pytest

from jetbound.cli import TABLE_CELLS, cached_reports
from jetbound.geometry import GeometrySpec

TABLE_JOBS = [(GeometrySpec.from_token("log", n), k, None) for n, k in TABLE_CELLS]


@pytest.fixture(scope="session")
def table_cache_dir(tmp_path_factory):
    """Warm a cache with every table cell; the heavy cells run exactly once."""
    path = str(tmp_path_factory.mktemp("table-cache"))
    cached_reports(TABLE_JOBS, 1, path)
    return path


@pytest.fixture(scope="session")
def table_reports(table_cache_dir):
    return dict(zip(TABLE_CELLS, cached_reports(TABLE_JOBS, 1, table_cache_dir)))
