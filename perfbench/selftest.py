"""Self-tests of the oracles: each must accept a right answer built in
closed form and reject a planted wrong one.

Every benchmark run calls ``run()`` after its timed rounds and reports
itself incorrect if an oracle failed to tell the two apart.  Standalone:

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import sys

import numpy as np

import oracles as O


def _rejects(check, *args) -> bool:
    try:
        check(*args)
    except O.Mismatch:
        return True
    return False


def _accepts(check, *args) -> bool:
    return not _rejects(check, *args)


def _unitary(rng, n):
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(a)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def cases():
    """(name, passed) for every self-test."""
    rng = np.random.default_rng(7)
    n = 5
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    b = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    eye = np.eye(n)

    def same_as(reference):
        return lambda frame: O.expect_same(frame, reference(), "self-test")

    # Operator graphs compose in closed form: A∘B has graph [I; AB].
    ga, gb = O.graph(eye, a), O.graph(eye, b)
    composed = same_as(lambda: O.composition(ga, gb))
    yield "composition accepts A∘B", _accepts(composed, O.graph(eye, a @ b))
    yield "composition rejects swapped order", _rejects(composed, O.graph(eye, b @ a))

    # Operator graphs add in closed form: A + B has graph [I; A + B].
    added = same_as(lambda: O.relation_sum(ga, gb))
    yield "sum accepts A+B", _accepts(added, O.graph(eye, a + b))
    yield "sum rejects A-B", _rejects(added, O.graph(eye, a - b))

    # The adjoint of an operator graph is the graph of its conjugate transpose.
    yield "adjoint accepts A*", _accepts(O.check_adjoint, ga, O.graph(eye, a.conj().T))
    yield "adjoint rejects A^T", _rejects(O.check_adjoint, ga, O.graph(eye, a.T))

    # Z at i of the graph of V is spanned by (V + i, -(1 + iV)).
    zeta = 1j
    z_right = O.graph(a + 1j * eye, -(eye + 1j * a))
    z_wrong = O.graph(a - 1j * eye, -(eye - 1j * a))
    yield "Z transform accepts Z_i", _accepts(O.check_z_transform, ga, z_right, zeta)
    yield "Z transform rejects Z_-i", _rejects(O.check_z_transform, ga, z_wrong, zeta)

    # Unitary part of a planted block contraction; drop one vector of K.
    k = 3
    q = _unitary(rng, 6)
    blk = np.zeros((6, 6), dtype=complex)
    blk[:k, :k] = _unitary(rng, k)
    blk[k:, k:] = 0.5 * _unitary(rng, 6 - k)
    v = q @ blk @ q.conj().T
    yield "unitary part rejects K minus one vector", \
        _rejects(O.expect_same, q[:, : k - 1], q[:, :k], "K")
    ref = O.unimodular_eigenspace(v)
    yield "mpmath eigenspace finds planted K", _accepts(O.expect_same, ref, q[:, :k], "K")

    # Near-circle: the unimodular eigenvector, not the 1 - delta one.
    q3 = _unitary(rng, 3)
    near = q3 @ np.diag([1 - 1e-9, 0.5, np.exp(1j)]) @ q3.conj().T
    ref = O.unimodular_eigenspace(near)
    yield "near-circle reference is e3", _accepts(O.expect_same, ref, q3[:, 2:], "K")
    yield "near-circle rejects K = {0}", \
        _rejects(O.expect_same, np.zeros((3, 0), dtype=complex), ref, "K")

    # Shift model: K = span{delta_2..delta_N}; move it by one index.
    big = 12
    yield "shift K accepts delta_2..delta_N", \
        _accepts(O.check_shift_k, O.delta_span(big, range(2, big + 1)), big)
    yield "shift K rejects delta_1..delta_N-1", \
        _rejects(O.check_shift_k, O.delta_span(big, range(1, big)), big)
    yield "shift info rejects k_dim moved by one", _rejects(
        O.check_shift_info, {"k_dim": big, "wandering_dim": 1, "splitting_iterations": big - 1},
        big)

    # Point classes of an operator graph at an eigenvalue and off the spectrum.
    lam = np.linalg.eigvals(a)[0]
    yield "point class finds an eigenvalue", O.point_class(ga, lam) == "point"
    yield "point class finds a regular point", O.point_class(ga, lam + 100.0) == "regular"


def run() -> list:
    """Names of the self-tests that failed."""
    return [f"oracle self-test failed: {name}" for name, ok in cases() if not ok]


if __name__ == "__main__":
    results = list(cases())
    for name, ok in results:
        print(f"{'ok  ' if ok else 'FAIL'} {name}")
    sys.exit(0 if all(ok for _, ok in results) else 1)
