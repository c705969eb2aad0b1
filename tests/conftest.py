import random

import pytest

from pdtoda import verify


@pytest.fixture
def count_calls(monkeypatch):
    """``count_calls(targets, also=())`` replaces each ``(module, name)`` of
    ``targets`` by a wrapper that counts its calls in one new dict keyed by
    name, and returns that dict.  The same wrapper also replaces ``name`` in
    each module of ``also`` that imports it, so calls through those imports
    count too.  ``monkeypatch.undo()`` restores every replaced name."""

    def install(targets, also=()):
        calls = {}

        def spy(name, fn):
            def wrapped(*args, **kwargs):
                calls[name] = calls.get(name, 0) + 1
                return fn(*args, **kwargs)
            return wrapped

        for module, name in targets:
            wrapped = spy(name, getattr(module, name))
            for owner in (module, *also):
                if owner is module or hasattr(owner, name):
                    monkeypatch.setattr(owner, name, wrapped)
        return calls

    return install


@pytest.fixture
def check_on(monkeypatch):
    """``check_on(name, states)`` runs the ``verify`` check NAME through a
    ``Comparer()`` on ``states`` in place of the states it draws, for a
    check whose claim has no claim function of its own."""

    def run(name, states):
        monkeypatch.setattr(verify, "_states", lambda rng, shapes, per_shape: list(states))
        fn, _ = verify.CHECKS[name]
        return fn(random.Random(0), verify.Comparer())

    return run
