import math

import numpy as np
import pytest

from torsionlab import make_rectangle, random_convex_polygon
from torsionlab.families import (
    TRIANGLES,
    FamilySweepConfig,
    UPPER_BOUND_LABEL,
    compare_pairs,
    estimate_gamma,
    make_equilateral,
    normalize_polygon,
    p_to_infinity_trend,
    sweep,
)


def test_sweep_config_validation():
    with pytest.raises(ValueError):
        FamilySweepConfig("rectangles", kappas=(1.5,))
    with pytest.raises(ValueError):
        FamilySweepConfig("ellipses", kappas=(0.5,))
    with pytest.raises(ValueError):
        FamilySweepConfig("no-such-family", kappas=(2.0,))
    with pytest.raises(ValueError):
        FamilySweepConfig("rectangles", kappas=(2.0,), p_grid=(0.5,))
    with pytest.raises(ValueError):
        FamilySweepConfig("rectangles", kappas=(2.0,), normalization="volume")


def test_rectangle_sweep_rows():
    cfg = FamilySweepConfig("rectangles", kappas=(2.0, 10.0), p_grid=(2.0,), levels=2)
    rows = sweep(cfg)
    assert len(rows) == 2
    for row, kappa in zip(rows, (2.0, 10.0)):
        assert row["kappa"] == kappa
        assert row["family"] == "rectangles"
        assert row["status"] == "ok"
        # slender rectangles approach Q = 1; bound 1 + 2/kappa holds
        assert row["Q_p"] <= row["ref_q_upper"] + 1e-9
        assert row["Q_p"] >= 1.0
    assert rows[1]["Q_p"] < rows[0]["Q_p"]


def test_ellipse_sweep_reference_columns():
    cfg = FamilySweepConfig("ellipses", kappas=(1.0, 2.0), p_grid=(2.0,), levels=3)
    rows = sweep(cfg)
    assert len(rows) == 2
    for row in rows:
        assert np.isclose(row["T_p"], row["ref_T_p"], rtol=2e-2)
        assert np.isclose(row["Q_p"], row["ref_Q_p"], rtol=1e-2)
    assert np.isclose(rows[0]["ref_T_p"], math.pi / 8.0, rtol=1e-13)
    assert np.isclose(rows[1]["ref_T_p"], 2.0 * math.pi / 5.0, rtol=1e-13)


def test_triangle_sweep_identity_column():
    rows = sweep(FamilySweepConfig("triangles", p_grid=(2.0,), levels=2))
    assert len(rows) == len(TRIANGLES) == 3
    for row in rows:
        # R * P / area = 2 for every triangle
        assert np.isclose(row["inradius"] * row["perimeter"] / row["area"], 2.0, rtol=1e-12)
        assert np.isclose(row["ref_rp_over_area"], 2.0, rtol=1e-12)


def test_random_sweep_deterministic():
    cfg = FamilySweepConfig("random", count=3, seed=5, p_grid=(2.0,), levels=2)
    rows_a = sweep(cfg)
    rows_b = sweep(cfg)
    assert len(rows_a) == 3
    assert rows_a == rows_b
    different = sweep(FamilySweepConfig("random", count=3, seed=6, p_grid=(2.0,), levels=2))
    assert rows_a[0]["area"] != different[0]["area"]


def test_normalize_polygon():
    poly = make_rectangle(4.0, 0.5)
    by_r = normalize_polygon(poly, "by_inradius", 1.0)
    assert np.isclose(by_r.inradius, 1.0, rtol=1e-10)
    by_d = normalize_polygon(poly, "by_avg_distance", 0.25)
    from torsionlab import average_distance

    assert np.isclose(average_distance(by_d), 0.25, rtol=1e-12)
    same = normalize_polygon(poly, "none", 1.0)
    assert np.allclose(same.vertices, poly.vertices, atol=0)
    with pytest.raises(ValueError):
        normalize_polygon(poly, "by_moment", 1.0)


def test_infinity_trend_square():
    trend = p_to_infinity_trend(make_rectangle(1.0, 0.5), [4.0, 8.0, 16.0], levels=2)
    assert len(trend.rows) == 3
    # T(p)^(1/p) * delta increases toward its limit 1 (0.942, 0.970, 0.985)
    values = [row.t_norm_root_times_delta for row in trend.rows]
    assert values[0] < values[1] < values[2]
    assert abs(values[2] - 1.0) < abs(values[1] - 1.0) < abs(values[0] - 1.0)
    assert np.isclose(trend.q_inf, 3.0, rtol=1e-12)
    assert trend.q_inf_window == (2.0, 3.0)
    assert trend.in_window


def test_infinity_trend_thin_rectangle():
    thin = make_rectangle(50.0, 0.5)
    trend = p_to_infinity_trend(thin, [8.0], levels=2)
    # R/delta = 6L/(3L - 2R) drops toward the strip value 2
    assert np.isclose(trend.q_inf, 6.0 * 50.0 / (3.0 * 50.0 - 1.0), rtol=1e-12)
    assert trend.in_window


def test_compare_pairs_resolved():
    study = compare_pairs(0.4, 1.0, 2.0, n_pairs=3, seed=1, levels=2)
    assert study.guaranteed
    assert study.corridor_lower_a > study.corridor_upper_b
    assert len(study.rows) == 3
    for row in study.rows:
        assert row.status == "holds"
        assert row.t_norm_a > row.t_norm_b
        assert row.margin > 0.0
    assert study.all_hold


def test_compare_pairs_unresolved():
    study = compare_pairs(0.9, 1.0, 2.0, n_pairs=2, seed=1, levels=2)
    assert not study.guaranteed
    for row in study.rows:
        assert row.status in ("holds", "violated", "unresolved by corridor")


def test_compare_pairs_deterministic():
    one = compare_pairs(0.4, 1.0, 2.0, n_pairs=2, seed=3, levels=2)
    two = compare_pairs(0.4, 1.0, 2.0, n_pairs=2, seed=3, levels=2)
    assert [r.t_norm_a for r in one.rows] == [r.t_norm_a for r in two.rows]


def test_compare_pairs_validation():
    with pytest.raises(ValueError):
        compare_pairs(1.5, 1.0, 2.0)
    with pytest.raises(ValueError):
        compare_pairs(0.4, 1.0, 0.9)


def test_estimate_gamma_small():
    est = estimate_gamma(p=2.0, count=4, seed=0, levels=2)
    assert 0.0 < est.gamma_hat <= 1.0
    assert est.alpha_hat >= 1.0 - 1e-3
    assert est.beta_hat < 2.0
    assert est.gamma_hat == pytest.approx(est.alpha_hat / est.beta_hat, rel=1e-12)
    assert est.is_upper_bound
    assert est.label == UPPER_BOUND_LABEL
    assert est.n_samples >= 4
    # injected extremal members must be present
    ids = [s["shape_id"] for s in est.samples]
    assert "rectangle_kappa_1000" in ids
    assert "disk_64gon" in ids
    for check in est.family_checks:
        assert check.passed, check.family
        assert check.measured_ratio >= check.bound - check.tolerance
    assert est.manifest["seed"] == 0


def test_estimate_gamma_deterministic():
    a = estimate_gamma(p=2.0, count=3, seed=2, levels=2)
    b = estimate_gamma(p=2.0, count=3, seed=2, levels=2)
    assert a.gamma_hat == b.gamma_hat
    assert a.alpha_shape == b.alpha_shape
