import pytest

from jetbound import default_weights, morse
from jetbound.cli import TABLE_CELLS, cached_reports
from jetbound.geometry import GeometrySpec

TABLE_JOBS = [(GeometrySpec("log", n), default_weights(k).a) for n, k in TABLE_CELLS]


@pytest.fixture(scope="session")
def table_run(tmp_path_factory):
    """Warm a cache with every table cell; the heavy cells run exactly once.

    Returns the cache directory and the base class of every cell: each cell
    is a pass of one, so the pushforward returns the cell's own base class,
    which is kept on the way.
    """
    path = str(tmp_path_factory.mktemp("table-cache"))
    bases = {}
    pushforward = morse.pushforward_to_base

    def recording(p, rels):
        bases[rels.ctx.n, rels.ctx.k] = pushforward(p, rels)
        return bases[rels.ctx.n, rels.ctx.k]

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(morse, "pushforward_to_base", recording)
        cached_reports(TABLE_JOBS, 1, path)
    return path, bases


@pytest.fixture(scope="session")
def table_cache_dir(table_run):
    return table_run[0]


@pytest.fixture(scope="session")
def table_bases(table_run):
    return table_run[1]


@pytest.fixture(scope="session")
def table_reports(table_cache_dir):
    return dict(zip(TABLE_CELLS, cached_reports(TABLE_JOBS, 1, table_cache_dir)))
