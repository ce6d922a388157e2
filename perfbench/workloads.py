"""The benchmark's workloads: seeded inputs, operations and their checks.

An operation is one call a user would make: one relation-algebra call, one
identity-suite check, one classification, one reduction check, one CLI
invocation, one shift example or one decomposition.  Each workload builds
a fixed round of operations whose make-up (sizes, kinds, counts) does not
depend on the seed; the seed only draws the random entries.  Checks go
through ``oracles``, which shares no code with relcalc.

Two kinds of operation are kept although they fail today, because of
faults in relcalc that a later change should mend (see README.md):

- ``compose_left``: ``Relation.compose`` raises whenever the left factor's
  graph dimension differs from n.  Which compositions fail is fixed by
  the grid of graph dimensions, not by the seed.
- ``near_circle``: conjugates of diag(1 - delta, 0.5, e^i) lose their
  one-dimensional unitary part in both engines.  These inputs are drawn
  from a fixed seed of their own, so they are the same in every run.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

import oracles as O

# (unitary-part dimension, strict-contraction dimension) of the planted
# block contractions in split_medium, like acceptance criterion 4's.  Graph
# frames have 2n rows, from 8 to 100, on both sides of relcalc's 64-row
# reduction threshold.
SPLIT_INSTANCES = [(0, 4), (2, 4), (3, 7), (5, 9), (8, 10), (10, 14), (12, 16), (15, 17),
                   (17, 19), (20, 20), (22, 22), (25, 21), (20, 28), (25, 25)]
NEAR_CIRCLE_DELTAS = (1e-9, 1e-8)
NEAR_CIRCLE_DRAWS = 3
NEAR_CIRCLE_SEED = 20181231
SHIFT_LADDER = (32, 36, 40, 44, 48, 52, 56, 60, 64, 128)
SHIFT_SPLITS = (32, 40, 48, 56, 64)
ZETAS = (1j, -1j, 2j, np.exp(1j * np.pi / 4))
POINT_ZETA = 0.5 + 0.5j
TILT = 1e-3


@dataclass
class Op:
    kind: str
    call: Callable[[], Any]
    check: Callable[[Any], None]
    kept_failing: bool = False
    reads: tuple = ()
    writes: tuple = ()


@dataclass
class Workload:
    ops: list
    warmup: list


# -- seeded inputs (numpy only) -------------------------------------------


def complex_matrix(rng, rows, cols):
    return (rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))) / np.sqrt(2)


def random_unitary(rng, n):
    q, r = np.linalg.qr(complex_matrix(rng, n, n))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_frame(rng, ambient, dim):
    if dim == 0:
        return np.zeros((ambient, 0), dtype=complex)
    return np.linalg.qr(complex_matrix(rng, ambient, dim))[0]


def complement_frame(frame):
    full = np.linalg.qr(np.hstack([frame, np.eye(frame.shape[0])]), mode="complete")[0]
    return full[:, frame.shape[1]:]


def write_document(path: Path, f, g, name):
    """Relation document in relcalc's JSON format: [re, im] entries."""
    def enc(m):
        return [[[float(z.real), float(z.imag)] for z in row] for row in m]
    path.write_text(json.dumps({"dim": f.shape[0], "name": name, "F": enc(f), "G": enc(g)}))


def read_matrix(rows):
    return np.array([[complex(re, im) for re, im in row] for row in rows], dtype=complex)


def read_document_graph(path: Path):
    doc = json.loads(path.read_text())
    n = doc["dim"]
    f = read_matrix(doc["F"]).reshape(n, -1)
    g = read_matrix(doc["G"]).reshape(n, -1)
    return O.graph(f, g)


# -- algebra_small ----------------------------------------------------------


def algebra_small(rc, rng, workdir):
    """Random relations with n = 1..8 and every graph dimension 0..2n, plus
    planted and tilted reducing pairs for n = 2..8."""
    ops = _algebra_grid(rc, rng, range(1, 9))
    for n in range(2, 9):
        for k in (1, n // 2):
            ops += _reduction_ops(rc, rng, n, k)
    warm = np.random.default_rng(NEAR_CIRCLE_SEED)
    return Workload(ops, _algebra_grid(rc, warm, (1, 2)) + _reduction_ops(rc, warm, 3, 1))


def _algebra_grid(rc, rng, sizes):
    ops = []
    for n in sizes:
        for d in range(2 * n + 1):
            tf = random_frame(rng, 2 * n, d)
            rf = random_frame(rng, 2 * n, n)
            mf = random_frame(rng, n, (n + 1) // 2)
            sf = complement_frame(tf) @ random_frame(rng, 2 * n - d, (2 * n - d) // 2)
            ops += _algebra_ops(rc, tf, rf, mf, sf, n, d)
    return ops


def _algebra_ops(rc, tf, rf, mf, sf, n, d):
    t, r, s = (rc.Relation(rc.Subspace(x)) for x in (tf, rf, sf))
    m = rc.Subspace(mf)

    def same(reference, what):
        return lambda out: O.expect_same(out.graph.frame, reference(), what)

    ops = [
        Op("adjoint", lambda: t.adjoint(), lambda out: O.check_adjoint(tf, out.graph.frame)),
        Op("add", lambda: t.add(r), same(lambda: O.relation_sum(tf, rf), "sum")),
        Op("compose_left", lambda: t.compose(r), same(lambda: O.composition(tf, rf), "T∘R"),
           kept_failing=d != n),
        Op("compose_right", lambda: r.compose(t), same(lambda: O.composition(rf, tf), "R∘T")),
        Op("restrict", lambda: t.restrict(m), same(lambda: O.restriction(tf, mf), "restriction")),
        Op("deficiency", lambda: t.deficiency(1j), same(lambda: O.deficiency(tf, 1j), "deficiency")),
        Op("image", lambda: t.image(m),
           lambda out: O.expect_same(out.frame, O.image(tf, mf), "image")),
    ]
    for zeta in ZETAS:
        ops.append(Op("z_properties_check", lambda z=zeta: rc.z_properties_check(t, s, z),
                      lambda out, z=zeta: O.check_z_report(out.results, z, tf, sf)))
    ops.append(Op("classify", lambda: rc.classify(t), lambda out: O.check_classification(tf, out)))
    ops.append(Op("classify_point", lambda: rc.classify_point(t, POINT_ZETA),
                  lambda out: O.expect(out.value == O.point_class(tf, POINT_ZETA),
                                       f"point class {out.value}")))
    return ops


def _reduction_ops(rc, rng, n, k):
    """A planted reducing pair (T, K) and the same T with K tilted by TILT."""
    q = random_unitary(rng, n)
    kf, pf = q[:, :k], q[:, k:]
    a1 = random_frame(rng, 2 * k, k)
    a2 = random_frame(rng, 2 * (n - k), n - k + 1)
    tf = np.vstack([np.hstack([kf @ a1[:k], pf @ a2[: n - k]]),
                    np.hstack([kf @ a1[k:], pf @ a2[n - k:]])])
    tilted = kf * np.cos(TILT) + pf[:, :k] * np.sin(TILT)
    t = rc.Relation(rc.Subspace(tf))
    planted, adversarial = rc.Subspace(kf), rc.Subspace(tilted)

    def planted_check(rep):
        O.expect(O.reduces(tf, kf), "planted pair does not reduce in the reference")
        O.expect(rep.ok, f"planted pair: certificates failed {rep.residuals}")

    def adversarial_check(rep):
        ref = O.reduces(tf, tilted)
        O.expect(rep.reducing == ref, f"tilted pair: reducing={rep.reducing}, reference {ref}")

    return [Op("reduction_planted", lambda: rc.reduction_certificates(t, planted), planted_check),
            Op("reduction_tilted", lambda: rc.reduction_certificates(t, adversarial),
               adversarial_check)]


# -- split_medium -----------------------------------------------------------


def _block_contraction(rng, k, m):
    n = k + m
    q = random_unitary(rng, n)
    blk = np.zeros((n, n), dtype=complex)
    if k:
        blk[:k, :k] = random_unitary(rng, k)
    c = complex_matrix(rng, m, m)
    blk[k:, k:] = c * (0.9 * rng.uniform(0.3, 1.0) / np.linalg.norm(c, 2))
    return q @ blk @ q.conj().T, q[:, :k]


def split_medium(rc, rng, workdir):
    """Planted block contractions and their Z transforms at i, through the CLI."""
    ops, warmup = [], []
    for idx, (k, m) in enumerate(SPLIT_INSTANCES):
        v, kref = _block_contraction(rng, k, m)
        ops += _split_ops(rc, workdir, f"planted{idx}", v, lambda kref=kref: kref)
    near = np.random.default_rng(NEAR_CIRCLE_SEED)
    cache = {}
    for delta in NEAR_CIRCLE_DELTAS:
        for draw in range(NEAR_CIRCLE_DRAWS):
            q = random_unitary(near, 3)
            v = q @ np.diag([1 - delta, 0.5, np.exp(1j)]) @ q.conj().T
            tag = f"near{delta:.0e}-{draw}"

            def reference(v=v, tag=tag):
                if tag not in cache:
                    cache[tag] = O.unimodular_eigenspace(v)
                return cache[tag]
            ops += _split_ops(rc, workdir, tag, v, reference, kept_failing=True)
    v, kref = _block_contraction(np.random.default_rng(NEAR_CIRCLE_SEED + 1), 2, 3)
    warmup += _split_ops(rc, workdir, "warmup", v, lambda: kref)
    return Workload(ops, warmup)


def _split_ops(rc, workdir, tag, v, reference, kept_failing=False):
    n = v.shape[0]
    eye = np.eye(n)
    contraction = workdir / f"{tag}-contraction.json"
    dissipative = workdir / f"{tag}-dissipative.json"
    write_document(contraction, eye, v, tag)
    # Z transform at i of the graph {(x, Vx)}: (Vx + ix, -iVx - x).
    write_document(dissipative, v + 1j * eye, -(eye + 1j * v), f"Z({tag})")

    def decompose(mode, path):
        out = workdir / f"{tag}-{mode}-report.json"
        argv = ["decompose", "--mode", mode, str(path), "--report", str(out)]

        def check(code):
            doc = json.loads(out.read_text())
            kframe = read_matrix(doc["k_frame"]).reshape(n, -1)
            O.expect_same(kframe, reference(), f"{mode} {tag} unitary part")
            O.expect(code == 0 and all(c["passed"] for c in doc["certificates"]),
                     f"{mode} {tag}: exit code {code}, certificates {doc['certificates']}")
        return Op(f"cli_{mode}" if not kept_failing else f"near_circle_{mode}",
                  lambda: rc.cli.main(argv), check, kept_failing, (path,), (out,))

    ops = [decompose("nfl", contraction), decompose("dissipative", dissipative)]
    if not kept_failing:
        out = workdir / f"{tag}-ztransform.json"
        argv = ["ztransform", str(contraction), "--zeta", "0,1", "-o", str(out)]

        def check_z(code):
            O.expect(code == 0, f"ztransform exit code {code}")
            O.check_z_transform(O.graph(eye, v), read_document_graph(out), 1j)
        ops.append(Op("cli_ztransform", lambda: rc.cli.main(argv), check_z,
                      reads=(contraction,), writes=(out,)))
    return ops


# -- shift_ladder -----------------------------------------------------------


def shift_ladder(rc, rng, workdir):
    """The sequence-space shift model at each truncation size N of the ladder.

    The model is fixed by N, so the seed draws nothing here.  Each rung runs
    the whole example; the rungs in SHIFT_SPLITS also split the extension on
    its own, so that K is checked.  The dense rungs below 64 put many
    operations of similar cost around the median latency.
    The Z transform of the symmetric operator takes milliseconds; it is
    checked at every N during warm-up and not timed, so that the timed
    median operation is a model run, not a transform.
    """
    ops = [op for n in SHIFT_LADDER for op in _shift_ops(rc, n, split=n in SHIFT_SPLITS)]
    warmup = _shift_ops(rc, 16, split=True) + [_shift_transform(rc, n) for n in SHIFT_LADDER]
    return Workload(ops, warmup)


def _shift_transform(rc, n):
    w = rc.WindowConfig(n=n)
    return Op("shift_transform", lambda: rc.z_transform(rc.build_elementary_symmetric(w), 1j),
              lambda out: O.expect_same(out.graph.frame, O.orth(O.shift_graph(n)),
                                        f"Z(A) at N={n}", tol=1e-12))


def _shift_ops(rc, n, split):
    w = rc.WindowConfig(n=n)

    def check_example(report):
        O.expect(report.passed, f"N={n}: failed certificates "
                 f"{[c.name for c in report.certificates if not c.passed]}")
        O.check_shift_info(report.info, n)

    ops = [Op("shift_example", lambda: rc.run_shift_example(w), check_example)]
    if split:
        ops.append(Op("shift_split",
                      lambda: rc.symmetric_wold_decompose(rc.build_multivalued_extension(w),
                                                          require_maximal=False),
                      lambda out: O.check_shift_k(out.k.frame, n)))
    return ops


WORKLOADS = {"algebra_small": algebra_small, "split_medium": split_medium,
             "shift_ladder": shift_ladder}
