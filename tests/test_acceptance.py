"""Acceptance gate: one test per shipped criterion, run with pytest -v.

Each test prints a single summary line; the pytest verbose listing gives
the per-criterion pass/fail verdict. Heavy shared computations (the
100-polygon corridor suite) are cached at module level.
"""

import functools
import math
import time

import oracles
from torsionlab import (
    average_distance,
    make_ellipse_polygon,
    make_rectangle,
    make_regular_ngon,
    make_triangle,
    random_convex_polygon,
    scale,
)
from torsionlab.cheeger import cheeger_constant, p_to_one_trend
from torsionlab.families import (
    compare_pairs,
    estimate_gamma,
    make_equilateral,
    p_to_infinity_trend,
)
from torsionlab.functionals import (
    build_shape_report,
    normalized_rigidity,
    q_functional,
    saint_venant_gap,
)
from torsionlab.ptorsion import rigidity_with_refinement

SQUARE = make_rectangle(1.0, 0.5)

# the eight corridor inequalities exercised by the random-polygon suite
CORRIDOR_NAMES = (
    "rigidity_inradius_lower",
    "rigidity_perimeter_upper",
    "area_perimeter_window",
    "rigidity_inradius_upper",
    "q_window",
    "inradius_distance_window",
    "rigidity_distance_window",
    "qbar_window",
)

SUITE_P = (1.5, 2.0, 3.0, 5.0, 10.0)
SUITE_SIZE = 100


@functools.lru_cache(maxsize=1)
def corridor_suite():
    """100 random polygons solved at five exponents, shared by criteria 5 and 11."""
    t0 = time.perf_counter()
    reports = []
    for seed in range(SUITE_SIZE):
        poly = random_convex_polygon(seed)
        reports.append(build_shape_report(poly, SUITE_P, levels=2, shape_id=f"poly_{seed:03d}"))
    return reports, time.perf_counter() - t0


def test_criterion_01_ball_closed_form():
    t0 = time.perf_counter()
    disk = make_regular_ngon(64, 1.0)
    est = rigidity_with_refinement(disk, 2.0, levels=3)
    elapsed = time.perf_counter() - t0
    dev = abs(est.t_p - math.pi / 8.0) / (math.pi / 8.0)
    print(f"CRITERION 1: dev={dev:.2e} (<=0.5%), {elapsed:.1f}s (<=30s)")
    assert dev <= 5e-3, f"CRITERION 1 FAIL: 64-gon T_2 off by {dev:.2e}"
    assert elapsed <= 30.0, f"CRITERION 1 FAIL: took {elapsed:.1f}s"


def test_criterion_02_ellipse_closed_form():
    t0 = time.perf_counter()
    ell = make_ellipse_polygon(2.0, 1.0, 256)
    est = rigidity_with_refinement(ell, 2.0, levels=3)
    elapsed = time.perf_counter() - t0
    ref = 2.0 * math.pi / 5.0
    dev = abs(est.t_p - ref) / ref
    print(f"CRITERION 2: dev={dev:.2e} (<=1%), {elapsed:.1f}s (<=60s)")
    assert dev <= 1e-2, f"CRITERION 2 FAIL: ellipse T_2 off by {dev:.2e}"
    assert elapsed <= 60.0, f"CRITERION 2 FAIL: took {elapsed:.1f}s"


def test_criterion_03_square_series_oracle():
    est = rigidity_with_refinement(SQUARE, 2.0, levels=3)
    dev_t = abs(est.t_p - oracles.SQUARE_T2) / oracles.SQUARE_T2
    t_norm = normalized_rigidity(est.t_p, 1.0, 2.0)
    dev_norm = abs(t_norm - oracles.SQUARE_T_NORM_2) / oracles.SQUARE_T_NORM_2
    q2 = q_functional(t_norm, 0.5, 2.0)
    dev_q = abs(q2 - oracles.SQUARE_Q2) / oracles.SQUARE_Q2
    print(f"CRITERION 3: T_2 dev={dev_t:.2e} (<=0.5%), T dev={dev_norm:.2e}, Q_2 dev={dev_q:.2e} (<=1%)")
    assert dev_t <= 5e-3, f"CRITERION 3 FAIL: T_2 off by {dev_t:.2e}"
    assert dev_norm <= 1e-2, f"CRITERION 3 FAIL: normalized rigidity off by {dev_norm:.2e}"
    assert dev_q <= 1e-2, f"CRITERION 3 FAIL: Q_2 off by {dev_q:.2e}"


def test_criterion_04_exact_geometry():
    d_sq = average_distance(SQUARE)
    assert abs(d_sq - 1.0 / 6.0) <= 1e-12, f"CRITERION 4 FAIL: delta(square)={d_sq!r}"
    worst_delta, worst_identity = 0.0, 0.0
    triangles = [
        make_triangle((0.0, 0.0), (4.0, 0.0), (0.0, 3.0)),
        make_equilateral(1.0),
        make_triangle((0.0, 0.0), (2.0, 0.1), (0.7, 1.9)),
    ]
    for tri in triangles:
        worst_delta = max(worst_delta, abs(average_distance(tri) - tri.inradius / 3.0))
        worst_identity = max(
            worst_identity, abs(tri.inradius * tri.perimeter / tri.area - 2.0)
        )
    print(f"CRITERION 4: delta dev={worst_delta:.1e}, R*P/|T| dev={worst_identity:.1e} (<=1e-12)")
    assert worst_delta <= 1e-12, f"CRITERION 4 FAIL: triangle delta off by {worst_delta:.1e}"
    assert worst_identity <= 1e-12, f"CRITERION 4 FAIL: R*P/|T| off by {worst_identity:.1e}"


def test_criterion_05_corridor_suite():
    reports, elapsed = corridor_suite()
    failures = []
    for report in reports:
        for entry in report.rigidity:
            if not entry.converged:
                failures.append((report.shape_id, entry.p, "no convergence"))
                continue
            for verdict in entry.verdicts:
                if verdict.name in CORRIDOR_NAMES and not verdict.passed:
                    failures.append((report.shape_id, entry.p, verdict.name))
    n_checks = len(reports) * len(SUITE_P) * len(CORRIDOR_NAMES)
    print(f"CRITERION 5: {n_checks} corridor checks, {len(failures)} failures, {elapsed:.0f}s (<=1800s)")
    assert not failures, f"CRITERION 5 FAIL: {failures[:5]}"
    assert elapsed <= 1800.0, f"CRITERION 5 FAIL: took {elapsed:.0f}s"


def test_criterion_06_scale_invariance():
    worst = 0.0
    for seed in range(10):
        poly = random_convex_polygon(seed, 14)
        for p in (1.5, 2.0, 5.0):
            base = rigidity_with_refinement(poly, p, levels=3)
            q_base = q_functional(
                normalized_rigidity(base.t_p, poly.area, p), poly.inradius, p
            )
            for t in (0.5, 2.0):
                big = scale(poly, t)
                est = rigidity_with_refinement(big, p, levels=3)
                q_t = q_functional(
                    normalized_rigidity(est.t_p, big.area, p), big.inradius, p
                )
                worst = max(worst, abs(q_t / q_base - 1.0))
    print(f"CRITERION 6: worst |Q_p(tO)/Q_p(O) - 1| = {worst:.2e} (<=2e-3)")
    assert worst <= 2e-3, f"CRITERION 6 FAIL: scale deviation {worst:.2e}"


def test_criterion_07_rectangle_degeneration():
    qs = {}
    for kappa in (2.0, 10.0, 100.0):
        rect = make_rectangle(0.5 * kappa, 0.5)
        est = rigidity_with_refinement(rect, 2.0, levels=3)
        q = q_functional(normalized_rigidity(est.t_p, rect.area, 2.0), rect.inradius, 2.0)
        qs[kappa] = q
        bound = 1.0 + 2.0 / kappa
        # solver slack enters Q through the p-th root
        q_slack = q * est.slack / 2.0
        assert q <= bound + q_slack, f"CRITERION 7 FAIL: Q_2({kappa:g})={q:.6f} > {bound:.6f}"
    print(f"CRITERION 7: Q_2 = {qs[2.0]:.4f}, {qs[10.0]:.4f}, {qs[100.0]:.4f} under 1+2/kappa; Q_2(100)<=1.05")
    assert qs[100.0] <= 1.05, f"CRITERION 7 FAIL: Q_2(100)={qs[100.0]:.4f}"


def test_criterion_08_cheeger_and_small_p():
    h_sq = cheeger_constant(SQUARE).h
    dev_sq = abs(h_sq - oracles.SQUARE_H)
    assert dev_sq <= 1e-9, f"CRITERION 8 FAIL: h(square) off by {dev_sq:.1e}"
    tri = make_equilateral(1.0)
    h_tri = cheeger_constant(tri).h * tri.inradius
    dev_tri = abs(h_tri - oracles.EQUILATERAL_H_R1)
    assert dev_tri <= 1e-9, f"CRITERION 8 FAIL: h(equilateral) off by {dev_tri:.1e}"
    trend = p_to_one_trend(SQUARE, [1.2, 1.1, 1.05], levels=4)
    h = trend.cheeger_h
    devs = [row.deviation_from_h / h for row in trend.rows]

    # Accuracy at p = 1.05: B_{cos(pi/64)} lies inside the 64-gon, which
    # lies inside B_1, and T_p grows with the domain; that pins T(1.05) to
    # a window 0.14% wide. The estimate claims T_p within a relative slack
    # s, i.e. T in T_est [(1+s)^(1-p), (1-s)^(1-p)], and only that much
    # widening is allowed.
    p = 1.05
    poly = make_regular_ngon(64, 1.0)
    est = rigidity_with_refinement(poly, p, levels=4)
    t_gon = normalized_rigidity(est.t_p, poly.area, p)
    gon_lower, gon_upper = oracles.regular_ngon_rigidity_bracket(p, 64, 1.0)
    s = est.slack
    print(
        f"CRITERION 8: h devs {dev_sq:.1e}/{dev_tri:.1e} (<=1e-9); "
        f"trend {devs[0]:.3f} > {devs[1]:.3f} > {devs[2]:.3f} within [h^p, T(p; B_1/2)]; "
        f"64-gon T(1.05)={t_gon:.6f} (slack {s:.2f}) vs [{gon_lower:.6f}, {gon_upper:.6f}]"
    )
    assert devs[0] > devs[1] > devs[2], f"CRITERION 8 FAIL: trend not decreasing {devs}"

    # T(p) = |O|^(p-1) min_v int|grad v|^p / (int|v|)^p over v = 0 on the
    # boundary; the torsion function attains the minimum.
    #
    # Lower bound h^p: Cheeger gives h int|v| <= int|grad v|, and Hoelder
    # gives int|grad v| <= |O|^((p-1)/p) (int|grad v|^p)^(1/p); raising
    # the chain to the power p leaves h^p <= T(p; O).
    #
    # Upper bound T(p; B_r) with r = 1/2, the square's inradius: try
    # v = phi(d) with d the boundary distance and phi(s) the disk's radial
    # profile at radius r - s. The square circumscribes its incircle, so
    # {d > s} has perimeter P (1 - s/r) and area P r / 2 (1 - s/r)^2, and
    # the coarea formula (|grad d| = 1) turns both integrals into the
    # disk's with P in place of 2 pi r. The ratio
    # |O|^(p-1) int|grad v|^p / (int v)^p then equals the disk's, so
    # T(p; square) <= T(p; B_r).
    for row, dev in zip(trend.rows, devs):
        p_row, t_norm = row.p, row.T_norm
        lower = oracles.SQUARE_H**p_row
        upper = oracles.ball_rigidity(p_row, 0.5)
        assert t_norm >= lower, (
            f"CRITERION 8 FAIL: T({p_row}; square)={t_norm:.6f} is below the "
            f"Cheeger-Hoelder lower bound h^p={lower:.6f}"
        )
        assert t_norm <= upper, (
            f"CRITERION 8 FAIL: T({p_row}; square)={t_norm:.6f} (deviation {dev:.4f}) is "
            f"above the incircle-profile upper bound T(p; B_1/2)={upper:.6f}"
        )

    assert s < 1.0, f"CRITERION 8 FAIL: 64-gon slack {s:.3f} leaves T(1.05) unbounded"
    t_low = t_gon * (1.0 + s) ** (1.0 - p)
    t_high = t_gon * (1.0 - s) ** (1.0 - p)
    assert t_high >= gon_lower, (
        f"CRITERION 8 FAIL: 64-gon T(1.05)={t_gon:.6f} is below the circumscribed-disk "
        f"bound {gon_lower:.6f} by more than its slack (claimed max {t_high:.6f})"
    )
    assert t_low <= gon_upper, (
        f"CRITERION 8 FAIL: 64-gon T(1.05)={t_gon:.6f} is above the inscribed-disk "
        f"bound {gon_upper:.6f} by more than its slack (claimed min {t_low:.6f})"
    )


def test_criterion_09_large_p_trend():
    trend = p_to_infinity_trend(SQUARE, [8.0, 16.0, 32.0], levels=3)
    devs = [row.deviation for row in trend.rows]
    print(f"CRITERION 9: |T^(1/p) delta - 1| = {devs[0]:.4f} > {devs[1]:.4f} > {devs[2]:.4f}, final <= 0.2")
    assert devs[0] > devs[1] > devs[2], f"CRITERION 9 FAIL: trend not decreasing {devs}"
    assert devs[2] <= 0.2, f"CRITERION 9 FAIL: final deviation {devs[2]:.4f}"


def test_criterion_10_pair_comparison():
    bad = []
    for p in (1.5, 2.0, 5.0):
        study = compare_pairs(0.4, 1.0, p, n_pairs=50, seed=0, levels=2)
        assert study.guaranteed, f"CRITERION 10 FAIL: corridor should resolve a=0.4, b=1"
        bad.extend((p, row.index) for row in study.rows if row.status != "holds")
    print(f"CRITERION 10: 150 pairs at p in (1.5, 2, 5), {len(bad)} violations")
    assert not bad, f"CRITERION 10 FAIL: {bad[:5]}"


def test_criterion_11_saint_venant():
    reports, _ = corridor_suite()
    failures = []
    for report in reports:
        for entry in report.rigidity:
            if entry.p not in (1.5, 2.0, 3.0):
                continue
            verdict = {v.name: v for v in entry.verdicts}["saint_venant"]
            if not verdict.passed:
                failures.append((report.shape_id, entry.p))
    disk = make_regular_ngon(64, 1.0)
    est = rigidity_with_refinement(disk, 2.0, levels=3)
    gap_rel = saint_venant_gap(disk.area, 2.0, est.t_p) / est.t_p
    print(
        f"CRITERION 11: {len(reports) * 3} gap checks, {len(failures)} failures; "
        f"disk gap {gap_rel:+.1e} within slack {est.slack:.1e}"
    )
    assert not failures, f"CRITERION 11 FAIL: {failures[:5]}"
    assert abs(gap_rel) <= est.slack, f"CRITERION 11 FAIL: disk gap {gap_rel:.2e}"


def test_criterion_12_gamma_estimate():
    est = estimate_gamma(p=2.0, count=50, seed=0, levels=3)
    print(
        f"CRITERION 12: gamma_hat={est.gamma_hat:.4f} in (0.45, 1], "
        f"{len(est.family_checks)} family checks, labeled upper bound"
    )
    assert 0.45 < est.gamma_hat <= 1.0, f"CRITERION 12 FAIL: gamma_hat={est.gamma_hat:.4f}"
    for check in est.family_checks:
        assert check.passed, (
            f"CRITERION 12 FAIL: {check.family} ratio {check.measured_ratio:.4f} "
            f"below bound {check.bound:.4f}"
        )
    assert est.is_upper_bound
    assert "upper bound" in est.label
