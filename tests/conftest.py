import functools
import inspect
from collections import namedtuple

import pytest

# One call: the function's name, its arguments bound by its own signature
# with defaults applied, and its result.
Call = namedtuple("Call", "name args result")


@pytest.fixture
def record(monkeypatch):
    """`record(module, *names)` replaces each named function of `module`,
    for the rest of the test, with one that runs it, and returns the log of
    `Call`s, appended as each call returns."""
    def record(module, *names):
        log = []

        def spy_on(fn):
            signature = inspect.signature(fn)  # the original's, through functools.wraps

            @functools.wraps(fn)
            def spy(*args, **kwargs):
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                result = fn(*args, **kwargs)
                log.append(Call(fn.__name__, bound.arguments, result))
                return result
            return spy

        for name in names:
            monkeypatch.setattr(module, name, spy_on(getattr(module, name)))
        return log
    return record
