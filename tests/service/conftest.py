"""Every service test runs under the asyncio-error guard
(``tests/asyncio_guard.py``)."""

from tests.asyncio_guard import no_asyncio_errors  # noqa: F401
