import pytest


@pytest.fixture
def count_calls(monkeypatch):
    """``count_calls(owner, name)`` wraps ``owner.name`` for one test and returns the list of its calls' arguments.

    A method wrapped on its class records ``self`` first.
    """

    def wrap(owner, name):
        calls = []
        original = getattr(owner, name)

        def counting(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, counting)
        return calls

    return wrap
