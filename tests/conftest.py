"""The one full-range verify report that the tests read.

``verify_all(13)`` is the default ``pflyub verify`` run and holds one copy of
every full-range check; it is computed once per session, and tests assert its
suites' results instead of running their loops again.
"""

import pytest

from pflyub.verify import verify_all


@pytest.fixture(scope="session")
def verify_report():
    return verify_all(13)
