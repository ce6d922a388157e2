"""Acceptance suite: one test per exit criterion, each printing a verdict.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Criteria are property-based over seeded random instances plus the
sequence-space model; every tolerance is pinned here.
"""

import time

import numpy as np

from relcalc import (
    Relation,
    SpectralPointClass,
    WindowConfig,
    adjoint_within,
    classify,
    classify_point,
    dissipative_decompose,
    is_invariant,
    is_reducing,
    nfl_decompose,
    reduction_certificates,
    run_shift_example,
    symmetric_wold_decompose,
    wold_decompose,
    z_properties_check,
    z_transform,
)
import gen

GAP = 1e-9
ZETAS = (1j, -1j, 2j, (1 + 1j) / np.sqrt(2))

# Relations touched by the suites, re-examined by the spectral criterion.
_POOL = []


def _verdict(name, failures, detail):
    status = "FAIL" if failures else "PASS"
    print(f"\n[acceptance] {name}: {status} ({detail})")
    assert not failures, f"{name}: {failures[:5]}"


def _orthogonal_partner(rng, relation):
    """Random relation whose graph is orthogonal to (hence independent of)
    the given one."""
    comp = relation.graph.complement()
    dim = int(rng.integers(0, comp.dim + 1))
    return Relation(gen._sub_subspace(rng, comp, dim))


def test_criterion_1_z_identity_suite():
    rng = np.random.default_rng(101)
    failures = []
    worst = 0.0
    evaluated = 0
    start = time.perf_counter()
    for trial in range(200):
        n = int(rng.integers(1, 9))
        t = gen.random_relation(rng, n)
        s = _orthogonal_partner(rng, t)
        _POOL.append(t)
        for zeta in ZETAS:
            report = z_properties_check(t, s, zeta)
            for key, value in report.results.items():
                if value is None:
                    continue
                evaluated += 1
                residual = report.certificate(key).residual
                worst = max(worst, residual)
                if not value or residual >= GAP:
                    failures.append((trial, zeta, key, residual))
    elapsed = time.perf_counter() - start
    if elapsed >= 10.0:
        failures.append(("runtime", elapsed))
    if evaluated < 200 * 4 * 6:
        failures.append(("coverage", evaluated))
    _verdict(
        "criterion 1 (Z identity suite)",
        failures,
        f"{evaluated} identity checks, max residual {worst:.2e}, {elapsed:.2f}s",
    )


def test_criterion_2_adjoint_suite():
    rng = np.random.default_rng(202)
    failures = []
    worst = 0.0
    for trial in range(200):
        n = int(rng.integers(1, 9))
        t = gen.random_relation(rng, n)
        _POOL.append(t)
        adj = t.adjoint()
        checks = {}

        # defining identity, checked against the inner-product condition
        # and the dimension count of the orthogonal complement
        pairing = np.abs(adj.G.conj().T @ t.F - adj.F.conj().T @ t.G)
        checks["graph_complement"] = float(pairing.max(initial=0.0))
        if adj.graph.dim != 2 * n - t.graph.dim:
            failures.append((trial, "adjoint_dimension"))

        # sub is contained in t, so the adjoint of t must sit inside the
        # adjoint of sub
        sub = Relation(gen._sub_subspace(rng, t.graph, int(rng.integers(0, t.graph.dim + 1))))
        outside = sub.adjoint().graph
        proj = adj.graph.frame - outside.frame @ (outside.frame.conj().T @ adj.graph.frame)
        checks["containment_reversal"] = float(np.linalg.norm(proj, 2)) if adj.graph.dim else 0.0

        checks["double_adjoint"] = adj.adjoint().gap(t)

        alpha = complex(rng.standard_normal(), rng.standard_normal()) + 0.3
        checks["scalar_conjugation"] = t.scale(alpha).adjoint().gap(adj.scale(np.conj(alpha)))
        checks["inverse_compatibility"] = adj.inverse().gap(t.inverse().adjoint())
        checks["kernel_range_duality"] = adj.ker().gap(t.ran().complement())

        for key, residual in checks.items():
            worst = max(worst, residual)
            if residual >= GAP:
                failures.append((trial, key, residual))
    _verdict("criterion 2 (adjoint suite)", failures, f"max residual {worst:.2e}")


def test_criterion_3_transform_correspondence():
    rng = np.random.default_rng(303)
    failures = []
    psd_floor = -1e-10
    for trial in range(100):
        n = int(rng.integers(1, 7))

        l = gen.random_dissipative(rng, n)
        _POOL.append(l)
        image = classify(z_transform(l, 1j))
        if image.residuals["contraction_min_eig"] < psd_floor:
            failures.append((trial, "dissipative->contraction"))

        v = gen.random_contraction_relation(rng, n)
        back = classify(z_transform(v, 1j))
        if back.residuals["dissipation_min_eig"] < psd_floor:
            failures.append((trial, "contraction->dissipative"))

        a = gen.random_symmetric(rng, n)
        iso = classify(z_transform(a, 1j))
        if iso.residuals["isometry_deviation"] > 1e-10:
            failures.append((trial, "symmetric->isometry"))
        w = gen.random_isometry_relation(rng, n)
        sym = classify(z_transform(w, 1j))
        if sym.residuals["symmetry_deviation"] > 1e-10:
            failures.append((trial, "isometry->symmetric"))

        s = gen.random_selfadjoint(rng, n)
        uni = classify(z_transform(s, 1j))
        if not uni.is_unitary or uni.residuals["isometry_deviation"] > 1e-10:
            failures.append((trial, "selfadjoint->unitary"))
        u = Relation.from_operator(gen.random_unitary(rng, n))
        sa = classify(z_transform(u, 1j))
        if sa.residuals["selfadjoint_gap"] > 1e-8:
            failures.append((trial, "unitary->selfadjoint"))

        m = gen.random_dissipative(rng, n, maximal=True)
        if z_transform(m, 1j).dom().dim != n:
            failures.append((trial, "maximal->full-domain"))
    _verdict("criterion 3 (transform correspondence)", failures, "6 directions x 100 instances")


def _recovery_instances(seed=404, count=50):
    rng = np.random.default_rng(seed)
    for _ in range(count):
        k = int(rng.integers(0, 26))
        m = int(rng.integers(1, min(25, 50 - k) + 1))
        yield gen.block_contraction(rng, k, m)


def test_criterion_4_contraction_splitting_recovery():
    failures = []
    worst = 0.0
    start = time.perf_counter()
    for idx, (v, expected) in enumerate(_recovery_instances()):
        result = nfl_decompose(v)
        residual = result.k.gap(expected)
        worst = max(worst, residual)
        if residual >= 1e-8:
            failures.append((idx, "k_recovery", residual))
        if not result.certificate("part_k_perp_completely_nonunitary").passed:
            failures.append((idx, "cnu_re-decomposition"))
        if not result.passed:
            failures.append((idx, "certificates"))
    elapsed = time.perf_counter() - start
    if elapsed >= 5.0:
        failures.append(("runtime", elapsed))
    _verdict(
        "criterion 4 (contraction splitting)",
        failures,
        f"50 instances, max K gap {worst:.2e}, {elapsed:.2f}s",
    )


def test_criterion_5_dissipative_splitting():
    failures = []
    worst = 0.0
    for idx, (v, _) in enumerate(_recovery_instances()):
        l = z_transform(v, 1j)
        _POOL.append(l)
        result = dissipative_decompose(l)
        nfl_k = nfl_decompose(z_transform(l, 1j)).k
        residual = result.k.gap(nfl_k)
        worst = max(worst, residual)
        if residual >= 1e-10:
            failures.append((idx, "k_consistency", residual))
        if result.k.dim:
            sa_gap = result.part_k.gap(adjoint_within(result.part_k, result.k))
            if sa_gap >= 1e-8:
                failures.append((idx, "part_k_selfadjoint", sa_gap))
        if result.part_k_perp.mul().dim != 0:
            failures.append((idx, "part_k_perp_multivalued"))
        if not result.passed:
            failures.append((idx, "certificates"))
    _verdict(
        "criterion 5 (dissipative splitting)",
        failures,
        f"50 instances, max K consistency gap {worst:.2e}",
    )


def test_criterion_6_reduction_theorems():
    rng = np.random.default_rng(606)
    failures = []
    worst = 0.0
    for trial in range(100):
        n = int(rng.integers(2, 9))
        t, k = gen.random_reducing_pair(rng, n)
        _POOL.append(t)
        report = reduction_certificates(t, k)
        passed = {c.name: c.passed for c in report.certificates}
        invariant = [v for name, v in passed.items() if name.startswith("invariant_")]
        if not (report.reducing and len(invariant) == 6 and all(invariant)):
            failures.append((trial, "constructed pair: equivalence forward"))
        if not (passed["transform_reduced+i"] and passed["transform_reduced-i"]):
            failures.append((trial, "constructed pair: transform reduction"))
        if not (passed["adjoint_distribution_k"] and passed["adjoint_distribution_k_perp"]):
            failures.append((trial, "constructed pair: adjoint distribution"))
        residual = report.residuals.get("adjoint_sum_identity", 1.0)
        worst = max(worst, residual)
        if residual >= GAP:
            failures.append((trial, "adjoint sum identity", residual))

    adversarial = 0
    guard = 0
    rng2 = np.random.default_rng(607)
    while adversarial < 100 and guard < 1000:
        guard += 1
        n = int(rng2.integers(2, 9))
        t = gen.random_relation(rng2, n)
        k = gen.random_subspace(rng2, n, int(rng2.integers(1, n)))
        if is_reducing(t, k):
            continue
        adversarial += 1
        if is_invariant(t, k) and is_invariant(t, k.complement()):
            failures.append((guard, "adversarial pair: equivalence backward"))
        if is_reducing(z_transform(t, 1j), k) or is_reducing(z_transform(t, -1j), k):
            failures.append((guard, "adversarial pair: transform reduction backward"))
    if adversarial < 100:
        failures.append(("adversarial coverage", adversarial))
    _verdict(
        "criterion 6 (reduction theorems)",
        failures,
        f"100 reducing + {adversarial} adversarial pairs, max adjoint-sum residual {worst:.2e}",
    )


def test_criterion_7_sequence_space_model():
    start = time.perf_counter()
    report = run_shift_example(WindowConfig(n=64, margin=4))
    elapsed = time.perf_counter() - start
    failures = []

    expectations = {
        "transform_matches_shift": 1e-12,
        "deficiency_line_is_delta1": 1e-8,
        "adjoint_identity_operator": 1e-10,
        "adjoint_identity_restricted": 1e-10,
        "adjoint_identity_extension": 1e-10,
        "splitting_wandering_is_delta2": 1e-8,
        "splitting_k_window": 1e-8,
        "splitting_complement_part_is_line": 1e-8,
        "splitting_complement_part_selfadjoint": 1e-8,
    }
    by_name = {c.name: c for c in report.certificates}
    for name, bound in expectations.items():
        cert = by_name[name]
        if not cert.passed or cert.residual >= bound:
            failures.append((name, cert.residual))
    if not report.passed:
        failures.append(("remaining certificates",))
    if elapsed >= 2.0:
        failures.append(("runtime", elapsed))
    worst = max(c.residual for c in report.certificates)
    _verdict(
        "criterion 7 (sequence-space model)",
        failures,
        f"n=64 margin=4, max residual {worst:.2e}, {elapsed:.2f}s",
    )


def test_criterion_8_finite_dimensional_degeneracies():
    rng = np.random.default_rng(808)
    failures = []
    for trial in range(10):
        n = int(rng.integers(1, 9))
        v = Relation.from_operator(gen.random_unitary(rng, n))
        _POOL.append(v)
        result = wold_decompose(v)
        if result.k.dim != n or result.wandering.dim != 0:
            failures.append((trial, "isometry degeneracy"))

        a = gen.random_selfadjoint(rng, n)
        _POOL.append(a)
        split = symmetric_wold_decompose(a)
        if split.k.dim != 0:
            failures.append((trial, "maximal symmetric degeneracy"))
    _verdict(
        "criterion 8 (finite-dimensional degeneracies)",
        failures,
        "full-domain isometries are unitary; maximal symmetric means selfadjoint",
    )


def test_criterion_9_residual_points_conjugate():
    from relcalc.shiftmodel import build_elementary_symmetric, build_multivalued_extension

    w = WindowConfig(n=64, margin=4)
    pool = list(_POOL) + [build_elementary_symmetric(w), build_multivalued_extension(w)]
    samples = (0.0, 1.0, 1j, -1j, 0.5 - 0.5j, 1 + 1j)
    failures = []
    found = 0
    for idx, t in enumerate(pool):
        adj = None
        for zeta in samples:
            if classify_point(t, zeta) is not SpectralPointClass.RESIDUAL:
                continue
            found += 1
            if adj is None:
                adj = t.adjoint()
            if adj.deficiency(np.conj(zeta)).dom().dim == 0:
                failures.append((idx, zeta))
    if found == 0:
        failures.append(("no residual verdicts encountered",))
    _verdict(
        "criterion 9 (residual points conjugate)",
        failures,
        f"{found} residual verdicts over {len(pool)} relations",
    )
