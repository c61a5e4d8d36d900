import numpy as np
import pytest

import randgame.costs as costs
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


@pytest.fixture
def hinge_inputs(monkeypatch):
    """Returns the list that records, as copies broadcast to one shape, the
    (mu, sigma) arrays of each hinge_expect call made by randgame.costs. An
    evaluation makes one call: row 0 holds the learner's margins, row 1 the
    attacker's."""
    inputs = []

    def spy(mu, sigma):
        inputs.append(tuple(np.array(a) for a in np.broadcast_arrays(
            np.asarray(mu, dtype=float), np.asarray(sigma, dtype=float))))
        return hinge.hinge_expect(mu, sigma)

    monkeypatch.setattr(costs, "hinge_expect", spy)
    return inputs
