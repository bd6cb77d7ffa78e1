import pytest

import hsinet.errors
import hsinet.ops


class _HalfWriter:
    """A file whose write stores the first half of the data, then fails."""

    def __init__(self, fh):
        self.fh = fh

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()

    def write(self, data):
        self.fh.write(data[:len(data) // 2])
        raise OSError(28, "No space left on device")


@pytest.fixture
def fill_disk(monkeypatch):
    """Calling it makes every later write_atomic fail halfway through its write."""
    real_open = open

    def fill():
        monkeypatch.setattr(hsinet.errors, "open",
                            lambda *a, **k: _HalfWriter(real_open(*a, **k)), raising=False)
    return fill


@pytest.fixture
def sgd_steps(monkeypatch):
    """(iteration, lr, param names) of every ops.sgd_step call; each still steps."""
    steps = []
    sgd_step = hsinet.ops.sgd_step

    def recorded(params, lr, *args, iteration, **kwargs):
        steps.append((iteration, lr, [p.name for p in params]))
        return sgd_step(params, lr, *args, iteration=iteration, **kwargs)

    monkeypatch.setattr(hsinet.ops, "sgd_step", recorded)
    return steps
