import pytest

import randgame.hinge as hinge


@pytest.fixture
def count_hinge_calls(monkeypatch):
    """count(module) wraps every hinge function the module imports and
    returns the list that records the name of each call."""

    def count(module):
        calls = []
        for name in dir(module):
            fn = getattr(module, name)
            if getattr(fn, "__module__", None) == hinge.__name__ and not isinstance(fn, type):

                def counted(*args, _fn=fn, **kwargs):
                    calls.append(_fn.__name__)
                    return _fn(*args, **kwargs)

                monkeypatch.setattr(module, name, counted)
        return calls

    return count
