import pytest

import hsinet.checkpoint


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
        monkeypatch.setattr(hsinet.checkpoint, "open",
                            lambda *a, **k: _HalfWriter(real_open(*a, **k)), raising=False)
    return fill
