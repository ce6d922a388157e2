"""Reference computations that share no code with relcalc.

Every check here works on plain numpy arrays: graph generator blocks
(F, G) with the relation {(F x, G x)}, or orthonormal frames of
subspaces.  Spans and kernels come from numpy's SVD and
``scipy.linalg.null_space``; subspaces are compared by the spectral norm
of the difference of their projectors, computed in numpy.  The
unimodular eigenvectors of the near-circle instances come from mpmath at
50 digits.  Nothing here imports relcalc.

A check returns normally when the answer is right and raises
``Mismatch`` when it is wrong.  Verdicts that sit within ``MARGIN`` of a
decision threshold are too close to call for a reference built on other
factorizations, so the classification checks skip them instead of
guessing.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg

# Relative singular-value cutoff for spans and kernels.  Inputs are built
# from orthonormal frames, so true singular values are O(1) or exact zeros
# carrying rounding of about 1e-15.
RCOND = 1e-9
# Projector distance below which two subspaces are the same.  relcalc's
# own gap_tol is 1e-8; its answers on these inputs reach about 1e-13.
SAME = 1e-8
# Band around a classification threshold inside which no verdict is checked.
MARGIN = 1e-6
# relcalc's default psd_tol and gap_tol, the thresholds its verdicts use.
PSD_TOL = 1e-10
GAP_TOL = 1e-8


class Mismatch(AssertionError):
    """The program's answer disagrees with the reference."""


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise Mismatch(message)


# -- spans, kernels, distances ------------------------------------------


def orth(mat: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the column span."""
    mat = np.asarray(mat, dtype=complex)
    if mat.shape[1] == 0:
        return np.zeros((mat.shape[0], 0), dtype=complex)
    u, s, _ = np.linalg.svd(mat, full_matrices=False)
    return u[:, : int(np.count_nonzero(s > RCOND * max(1.0, s[0])))]


def null(mat: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the right kernel."""
    mat = np.asarray(mat, dtype=complex)
    rows, cols = mat.shape
    if cols == 0:
        return np.zeros((0, 0), dtype=complex)
    largest = float(np.linalg.norm(mat, 2)) if rows else 0.0
    if largest == 0.0:
        return np.eye(cols, dtype=complex)
    # null_space cuts relative to the largest singular value; the cut here
    # is RCOND * max(1, largest), so a numerically zero block has a full kernel.
    return scipy.linalg.null_space(mat, rcond=RCOND * max(1.0, largest) / largest)


def rank(mat: np.ndarray) -> int:
    return orth(mat).shape[1]


def distance(a: np.ndarray, b: np.ndarray) -> float:
    """Spectral norm of P_A - P_B for two orthonormal frames."""
    if a.shape[0] != b.shape[0]:
        raise Mismatch(f"ambient dimensions differ: {a.shape[0]} vs {b.shape[0]}")
    if a.shape[1] != b.shape[1]:
        return 1.0
    if a.shape[0] == 0 or a.shape[1] == 0:
        return 0.0
    diff = a @ a.conj().T - b @ b.conj().T
    return float(np.linalg.norm(diff, 2))


def expect_same(actual: np.ndarray, reference: np.ndarray, what: str, tol: float = SAME) -> None:
    d = distance(actual, reference)
    expect(d < tol, f"{what}: dim {actual.shape[1]} vs reference {reference.shape[1]}, "
                    f"projector distance {d:.3e}")


def contained(vectors: np.ndarray, frame: np.ndarray) -> float:
    """Largest distance of the (normalized) columns of ``vectors`` from span(frame)."""
    if vectors.shape[1] == 0:
        return 0.0
    scale = max(1.0, float(np.linalg.norm(vectors, 2)))
    rest = vectors - frame @ (frame.conj().T @ vectors)
    return float(np.linalg.norm(rest, 2)) / scale


def blocks(frame: np.ndarray):
    n = frame.shape[0] // 2
    return frame[:n], frame[n:]


def graph(f: np.ndarray, g: np.ndarray) -> np.ndarray:
    return orth(np.vstack([f, g]))


# -- relation algebra -----------------------------------------------------


def intersection(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Frame of span(a) ∩ span(b): the kernel of [a, -b] mapped by a."""
    if a.shape[1] == 0 or b.shape[1] == 0:
        return np.zeros((a.shape[0], 0), dtype=complex)
    coeffs = null(np.hstack([a, -b]))
    return orth(a @ coeffs[: a.shape[1]])


def composition(outer: np.ndarray, inner: np.ndarray) -> np.ndarray:
    """Graph of outer ∘ inner = {(f, k) : (f, g) in inner, (g, k) in outer}."""
    fo, go = blocks(outer)
    fi, gi = blocks(inner)
    coeffs = null(np.hstack([gi, -fo]))
    x, y = coeffs[: inner.shape[1]], coeffs[inner.shape[1]:]
    return graph(fi @ x, go @ y)


def relation_sum(t: np.ndarray, s: np.ndarray) -> np.ndarray:
    """Graph of {(f, g + h) : (f, g) in T, (f, h) in S}."""
    ft, gt = blocks(t)
    fs, gs = blocks(s)
    coeffs = null(np.hstack([ft, -fs]))
    x, y = coeffs[: t.shape[1]], coeffs[t.shape[1]:]
    return graph(ft @ x, gt @ x + gs @ y)


def doubled(space: np.ndarray) -> np.ndarray:
    d, r = space.shape
    out = np.zeros((2 * d, 2 * r), dtype=complex)
    out[:d, :r] = space
    out[d:, r:] = space
    return out


def restriction(t: np.ndarray, space: np.ndarray) -> np.ndarray:
    return intersection(t, doubled(space))


def deficiency(t: np.ndarray, zeta: complex) -> np.ndarray:
    n = t.shape[0] // 2
    line = np.vstack([np.eye(n), zeta * np.eye(n)]).astype(complex)
    return intersection(t, orth(line))


def image(t: np.ndarray, space: np.ndarray) -> np.ndarray:
    """{g : (f, g) in T, f in space}."""
    f, g = blocks(t)
    off = f - space @ (space.conj().T @ f)
    return orth(g @ null(off))


def adjoint(t: np.ndarray) -> np.ndarray:
    """{(h, k) : <k, f> = <h, g> for every (f, g) in T}."""
    f, g = blocks(t)
    n = f.shape[0]
    if t.shape[1] == 0:
        return np.eye(2 * n, dtype=complex)
    return orth(null(np.hstack([-g.conj().T, f.conj().T])))


def check_adjoint(t: np.ndarray, adj: np.ndarray) -> None:
    """The pairing <k, f> - <h, g> vanishes and dim T* = 2n - dim T."""
    f, g = blocks(t)
    h, k = blocks(adj)
    n = f.shape[0]
    expect(adj.shape[1] == 2 * n - t.shape[1],
           f"adjoint dimension {adj.shape[1]}, expected {2 * n - t.shape[1]}")
    pairing = k.conj().T @ f - h.conj().T @ g
    worst = float(np.abs(pairing).max(initial=0.0))
    expect(worst < 1e-10, f"adjoint pairing residual {worst:.3e}")


def z_map(f: np.ndarray, g: np.ndarray, zeta: complex):
    zc = np.conj(zeta)
    return g - zc * f, zc * g - abs(zeta) ** 2 * f


def check_z_transform(t: np.ndarray, z: np.ndarray, zeta: complex) -> None:
    """For non-real zeta: the mapped generators of T lie in Z and span it,
    and mapping Z again lands back in T (the map squares to a nonzero
    multiple of the identity)."""
    f, g = blocks(t)
    expect(z.shape[1] == t.shape[1], f"transform dimension {z.shape[1]}, expected {t.shape[1]}")
    top, bot = z_map(f, g, zeta)
    r = contained(np.vstack([top, bot]), z)
    expect(r < 1e-10, f"mapped generators leave the transform by {r:.3e}")
    zf, zg = blocks(z)
    top, bot = z_map(zf, zg, zeta)
    r = contained(np.vstack([top, bot]), t)
    expect(r < 1e-10, f"involution leaves the relation by {r:.3e}")


def check_z_report(results: dict, zeta: complex, t: np.ndarray, s: np.ndarray) -> None:
    """Every identity of the Z-transform suite holds, and exactly those are
    skipped whose hypothesis fails for this zeta and pair."""
    independent = rank(np.hstack([t, s])) == t.shape[1] + s.shape[1]
    orthogonal = t.shape[1] == 0 or s.shape[1] == 0 or \
        float(np.linalg.norm(t.conj().T @ s, 2)) < 1e-12
    nonreal = zeta.imag != 0
    expected = {
        "involution": True,
        "containment": True,
        "negation": True,
        "inverse": abs(abs(zeta) - 1.0) < 1e-12,
        "direct_sum": nonreal and independent,
        "orthogonal_sum": (abs(zeta - 1j) < 1e-12 or abs(zeta + 1j) < 1e-12) and orthogonal,
        "adjoint": nonreal,
        "closure": nonreal,
    }
    expect(set(results) == set(expected), f"identity set {sorted(results)}")
    for key, evaluated in expected.items():
        if evaluated:
            expect(results[key] is True, f"identity {key} at zeta={zeta}: {results[key]}")
        else:
            expect(results[key] is None, f"identity {key} at zeta={zeta} should be skipped")


def _verdict(value: float, threshold: float, holds_below: bool):
    """True/False for ``value <= threshold`` (or ``>=``), None when too close."""
    if abs(value - threshold) < MARGIN:
        return None
    return value <= threshold if holds_below else value >= threshold


def classification(t: np.ndarray) -> dict:
    """Reference flags; a flag is None when its verdict is too close to call."""
    f, g = blocks(t)
    n = f.shape[0]
    d = t.shape[1]
    flags = {}
    mul = g @ null(f) if d else np.zeros((n, 0))
    flags["is_operator"] = rank(mul) == 0
    if d:
        w_diss = np.linalg.eigvalsh((f.conj().T @ g - g.conj().T @ f) / 2j)
        w_gram = np.linalg.eigvalsh(f.conj().T @ f - g.conj().T @ g)
    else:
        w_diss = w_gram = np.zeros(1)
    flags["is_dissipative"] = _verdict(float(w_diss.min()), -PSD_TOL, holds_below=False)
    flags["is_symmetric"] = _verdict(float(np.abs(w_diss).max()), PSD_TOL, holds_below=True)
    flags["is_contraction"] = _verdict(float(w_gram.min()), -PSD_TOL, holds_below=False)
    iso = _verdict(float(np.abs(w_gram).max()), PSD_TOL, holds_below=True)
    flags["is_isometry"] = iso
    full = rank(f) == n and rank(g) == n
    flags["is_unitary"] = None if iso is None else (iso and full)
    sa = distance(t, adjoint(t))
    flags["is_selfadjoint"] = _verdict(sa, GAP_TOL, holds_below=True)
    diss = flags["is_dissipative"]
    flags["is_maximal_dissipative"] = None if diss is None else (
        diss and rank(g + 1j * f) == n)
    return flags


def check_classification(t: np.ndarray, report) -> None:
    for name, ref in classification(t).items():
        if ref is not None:
            actual = getattr(report, name)
            expect(actual == ref, f"{name}: {actual}, reference {ref}")


def point_class(t: np.ndarray, zeta: complex) -> str:
    """'point' when T - zeta has a kernel, else 'regular' when its range is
    everything, else 'residual'."""
    f, g = blocks(t)
    n = f.shape[0]
    shifted = g - zeta * f
    if t.shape[1] and rank(f @ null(shifted)) > 0:
        return "point"
    return "regular" if rank(shifted) == n else "residual"


def reduces(t: np.ndarray, k: np.ndarray) -> bool:
    """Whether T is the sum of its restrictions to K and to K-perp."""
    n = k.shape[0]
    k_perp = null(k.conj().T) if k.shape[1] else np.eye(n, dtype=complex)
    parts = np.hstack([restriction(t, k), restriction(t, k_perp)])
    return distance(orth(parts), t) < SAME


# -- decompositions -------------------------------------------------------


def unimodular_eigenspace(matrix: np.ndarray, digits: int = 50,
                          circle_tol: float = 1e-12) -> np.ndarray:
    """Span of the eigenvectors whose eigenvalue has modulus 1, from mpmath.

    For a contraction this span is the unitary part.  The matrix holds
    double-precision entries, so its unimodular eigenvalues sit within
    about 1e-16 of the circle; ``circle_tol`` accepts those and rejects the
    near-circle eigenvalue 1 - delta with delta >= 1e-9.
    """
    import mpmath

    with mpmath.workdps(digits):
        mat = mpmath.matrix([[mpmath.mpc(complex(z)) for z in row] for row in matrix])
        values, vectors = mpmath.eig(mat)
        picked = [j for j, lam in enumerate(values) if abs(abs(lam) - 1) < circle_tol]
        cols = [[complex(vectors[i, j]) for i in range(mat.rows)] for j in picked]
    if not cols:
        return np.zeros((matrix.shape[0], 0), dtype=complex)
    return orth(np.array(cols, dtype=complex).T)


# -- the sequence-space shift model ---------------------------------------


def delta_span(n: int, indices) -> np.ndarray:
    """Frame of span{delta_k}, 1-based indices."""
    idx = list(indices)
    frame = np.zeros((n, len(idx)), dtype=complex)
    for col, k in enumerate(idx):
        frame[k - 1, col] = 1.0
    return frame


def shift_graph(n: int) -> np.ndarray:
    """Graph of the truncated shift delta_k -> delta_{k+1}, k = 1..N-1."""
    return np.vstack([delta_span(n, range(1, n)), delta_span(n, range(2, n + 1))])


def check_shift_info(info: dict, n: int) -> None:
    """Closed form of the model's symmetric splitting at truncation N."""
    expected = {"k_dim": n - 1, "wandering_dim": 1, "splitting_iterations": n - 1}
    for key, value in expected.items():
        expect(info.get(key) == value, f"{key} = {info.get(key)}, expected {value}")


def check_shift_k(k: np.ndarray, n: int) -> None:
    """The shift-like part of the extension is span{delta_2..delta_N}."""
    expect_same(k, delta_span(n, range(2, n + 1)), "shift part K")
