"""Fail a test after which the ``asyncio`` logger recorded an ERROR.

A server handler task that dies logs "Task exception was never
retrieved", and a future whose exception nobody awaits logs "Future
exception was never retrieved", both only when the object is collected.
The guard collects garbage after each test, so either fails the test
that caused it.

One definition serves every suite that runs an event loop: a conftest
or a test module imports ``no_asyncio_errors`` and pytest applies the
autouse fixture to the tests under it.  Suites that run no event loop
leave it out (its per-test ``gc.collect()`` is not free).
"""

import gc
import logging

import pytest


class _Errors(logging.Handler):
    def __init__(self):
        super().__init__(logging.ERROR)
        self.records = []

    def emit(self, record):
        self.records.append(record)


@pytest.fixture(autouse=True)
def no_asyncio_errors():
    errors = _Errors()
    logger = logging.getLogger("asyncio")
    logger.addHandler(errors)
    try:
        yield
        gc.collect()
    finally:
        logger.removeHandler(errors)
    if errors.records:
        pytest.fail("the asyncio logger recorded errors:\n"
                    + "\n".join(map(errors.format, errors.records)),
                    pytrace=False)
