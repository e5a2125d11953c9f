"""Fixtures shared by the test modules."""

import pytest


def _clear_zeta_caches():
    from pcores import special
    special.hurwitz_zeta.cache_clear()
    special._folded_periodic_zeta.cache_clear()
    special._log_series.cache_clear()


@pytest.fixture
def clear_zeta_caches():
    """Empty the process-wide caches of zeta(s, a), of the folded l(s, x) and
    of the log series before and after the test, so that its values are
    computed afresh and none it computes outlives it.  The fixture's value
    empties them again when called."""
    _clear_zeta_caches()
    yield _clear_zeta_caches
    _clear_zeta_caches()
