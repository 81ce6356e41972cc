import pytest

from jetbound import default_weights, morse_class, pushforward_to_base
from jetbound.cli import TABLE_CELLS, cached_reports
from jetbound.geometry import GeometrySpec
from jetbound.morse import compute_reports
from jetbound.tower import pipeline_tower

TABLE_JOBS = [(GeometrySpec("log", n), default_weights(k).a) for n, k in TABLE_CELLS]


@pytest.fixture(scope="session")
def table_cache_dir(tmp_path_factory):
    """A cache warmed with every table cell; the heavy cells run exactly once."""
    path = str(tmp_path_factory.mktemp("table-cache"))
    cached_reports(TABLE_JOBS, path)
    return path


@pytest.fixture(scope="session")
def table_bases():
    """The base class of every table cell but (5,5), pushed forward on the pipeline tower.

    Every job integrates as products of Segre classes and runs no
    pushforward, so the pipeline never forms these classes: they are
    computed here, once per session, from the full Morse class.  The
    reference pass takes seconds at (5,5), whose ``P(d)``
    ``POLYNOMIAL_DIGESTS`` pins in both geometries.
    """
    bases = {}
    for n, k in TABLE_CELLS:
        if (n, k) != (5, 5):
            rels = pipeline_tower(n, k)[0]
            bases[n, k] = pushforward_to_base(morse_class(rels.ctx, default_weights(k)), rels)
    return bases


@pytest.fixture(scope="session")
def table_reports(table_cache_dir):
    return dict(zip(TABLE_CELLS, cached_reports(TABLE_JOBS, table_cache_dir)))


@pytest.fixture(scope="session")
def compact_table_reports():
    """The report of every table cell on the compact geometry, each a job of its own."""
    jobs = [(GeometrySpec("compact", n), default_weights(k).a) for n, k in TABLE_CELLS]
    return dict(zip(TABLE_CELLS, compute_reports(jobs)))
