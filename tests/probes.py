"""Recorders for the work-count tests.

``record_linalg_calls`` lists the calls of ``np.linalg.svd`` and
``np.linalg.qr`` with the shape of the matrix and whether they form
vectors.
``record_chain_rounds`` records each round of the symmetric-Wold image
chain after its first (the first has nothing carried yet and factors F
once): the number of columns the round added, the factorizations it took
and the shapes it factored, and the (carried, re-read, found) column
counts of its splits.
"""

import numpy as np

from relcalc import decompose


def _wrap_factorizations(monkeypatch, record):
    """Call ``record(name, shape, vectors)`` on every call of np.linalg.svd
    or .qr; ``vectors`` is False only for an SVD with ``compute_uv=False``."""
    for name in ("svd", "qr"):
        original = getattr(np.linalg, name)

        def recorded(mat, *args, _name=name, _original=original, **kwargs):
            record(_name, np.shape(mat), _name == "qr" or kwargs.get("compute_uv", True))
            return _original(mat, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, recorded)


def record_linalg_calls(monkeypatch):
    """List that fills with (name, shape, vectors) for every call of
    np.linalg.svd or .qr."""
    calls = []
    _wrap_factorizations(monkeypatch, lambda *call: calls.append(call))
    return calls


def record_chain_rounds(monkeypatch):
    """List that fills with one dict per image-chain round after the first:
    ``added`` (columns the round added), ``names`` and ``shapes`` (``"svd"``
    or ``"qr"`` and the matrix shape, per factorization) and ``splits``
    ((carried, re-read, found) counts per split)."""
    rounds = []
    inside = []
    step, split = decompose._chain_step, decompose._chain_split

    def recorded_step(f, frame, added, p, d, cfg):
        inside.append(p.shape[1] > 0)
        if inside[-1]:
            rounds.append({"added": added.shape[1], "names": [], "shapes": [], "splits": []})
        try:
            return step(f, frame, added, p, d, cfg)
        finally:
            inside.pop()

    def recorded_split(*args):
        out = split(*args)
        if inside and inside[-1]:
            rounds[-1]["splits"].append(tuple(part.shape[1] for part in out))
        return out

    def record(name, shape, _vectors):
        if inside and inside[-1]:
            rounds[-1]["names"].append(name)
            rounds[-1]["shapes"].append(shape)

    monkeypatch.setattr(decompose, "_chain_step", recorded_step)
    monkeypatch.setattr(decompose, "_chain_split", recorded_split)
    _wrap_factorizations(monkeypatch, record)
    return rounds
