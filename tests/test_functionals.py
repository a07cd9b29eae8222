import json
import math
from dataclasses import asdict

import numpy as np
import pytest

import oracles
from torsionlab import (
    corridor_verdicts,
    lambda_p1,
    make_rectangle,
    make_regular_ngon,
    normalized_rigidity,
    prefactor,
    q_functional,
)
from torsionlab.functionals import (
    CSV_COLUMNS,
    VERDICT_ORDER,
    build_shape_report,
    dumps_9g,
    format_value,
    report_csv_rows,
    saint_venant_gap,
)

SQUARE = make_rectangle(1.0, 0.5)


def test_normalized_rigidity_algebra():
    # |O|^(p-1) T_p^(1-p): identity at p = 2 is area / T_2... = A / T_2
    assert np.isclose(normalized_rigidity(0.25, 1.0, 2.0), 4.0, rtol=1e-14)
    assert np.isclose(normalized_rigidity(0.1, 2.0, 3.0), 4.0 / 0.01, rtol=1e-12)
    # p -> 1 limit is 1 regardless of T_p
    assert np.isclose(normalized_rigidity(0.123, 0.7, 1.0 + 1e-12), 1.0, rtol=1e-9)


def test_normalized_rigidity_tiny_t_p():
    # log-space evaluation survives T_p values far below overflow^-1
    val = normalized_rigidity(1e-13, 1.0, 1.05)
    assert np.isclose(val, (1e-13) ** (-0.05), rtol=1e-12)


def test_lambda_p1():
    assert np.isclose(lambda_p1(0.25, 2.0), 4.0, rtol=1e-14)
    assert np.isclose(lambda_p1(0.035144253738683864, 2.0), 1.0 / 0.035144253738683864, rtol=1e-14)


def test_q_functional_square_frozen():
    q = q_functional(oracles.SQUARE_T_NORM_2, 0.5, 2.0)
    assert np.isclose(q, oracles.SQUARE_Q2, rtol=1e-13)


def test_q_functional_ball_is_exact():
    # ball attains Q_p = (D (1 + D/p'))^(1/p) with R = 1
    for p in (1.5, 2.0, 5.0):
        pc = p / (p - 1.0)
        t_norm = 2.0 * (2.0 + pc) ** (p - 1.0)
        expect = (t_norm / prefactor(p)) ** (1.0 / p)
        assert np.isclose(q_functional(t_norm, 1.0, p), expect, rtol=1e-13)


def test_q_scale_invariance_formula():
    # scaling T -> T / t^p and R -> t R leaves Q unchanged
    t_norm, r = 28.454, 0.5
    for t in (0.5, 2.0, 7.0):
        assert np.isclose(
            q_functional(t_norm / t**2.0, t * r, 2.0), q_functional(t_norm, r, 2.0), rtol=1e-13
        )


def test_qbar_window_square():
    qbar = q_functional(oracles.SQUARE_T_NORM_2, 1.0 / 6.0, 2.0)
    assert 1.0 / 3.0 <= qbar <= 1.0


def test_functional_input_validation():
    for fn in (normalized_rigidity,):
        with pytest.raises(ValueError):
            fn(-1.0, 1.0, 2.0)
        with pytest.raises(ValueError):
            fn(0.1, -1.0, 2.0)
    with pytest.raises(ValueError):
        q_functional(8.0, -0.5, 2.0)


def test_verdict_order_stable():
    assert VERDICT_ORDER == (
        "rigidity_inradius_lower",
        "rigidity_perimeter_upper",
        "area_perimeter_window",
        "rigidity_inradius_upper",
        "q_window",
        "inradius_distance_window",
        "rigidity_distance_window",
        "qbar_window",
        "limit_ratio_window",
        "saint_venant",
    )


def test_corridor_verdicts_square_pass():
    sv = saint_venant_gap(1.0, 2.0, oracles.SQUARE_T2)
    verdicts = corridor_verdicts(
        2.0,
        1.0,
        4.0,
        0.5,
        1.0 / 6.0,
        oracles.SQUARE_T_NORM_2,
        1e-6,
        sv_gap=sv,
        sv_reference=oracles.SQUARE_T2,
    )
    assert tuple(v.name for v in verdicts) == VERDICT_ORDER
    for v in verdicts:
        assert v.passed, v.name
        assert v.margin > -1e-12, v.name


def test_corridor_verdicts_fail_when_rigidity_too_small():
    # T below the inradius lower endpoint must flip exactly that verdict
    verdicts = corridor_verdicts(2.0, 1.0, 4.0, 0.5, 1.0 / 6.0, 5.0, 1e-9)
    by_name = {v.name: v for v in verdicts}
    assert not by_name["rigidity_inradius_lower"].passed
    assert by_name["area_perimeter_window"].passed


def test_saint_venant_gap_square():
    # disk value pi area^2 / (8 pi^2)... for |O| = 1: 1/(8 pi) minus T_2
    gap = saint_venant_gap(1.0, 2.0, oracles.SQUARE_T2)
    assert np.isclose(gap, 1.0 / (8.0 * math.pi) - oracles.SQUARE_T2, rtol=1e-12)
    assert gap > 0.0


def test_saint_venant_gap_disk_near_zero():
    # the disk itself: gap vanishes up to polygonal approximation
    disk = make_regular_ngon(64, 1.0)
    gap = saint_venant_gap(disk.area, 2.0, math.pi / 8.0 * (disk.area / math.pi) ** 2)
    assert abs(gap) / (math.pi / 8.0) < 5e-3


def test_format_value():
    assert format_value(1.0) == "1"
    assert format_value(0.035144253738683864) == "0.0351442537"
    assert format_value(True) == "true"
    assert format_value(False) == "false"
    assert format_value(None) == ""
    assert format_value("abc") == "abc"
    assert format_value(28.454153758366083) == "28.4541538"


def test_dumps_9g_deterministic_and_parseable():
    obj = {"b": 1.0 / 3.0, "a": [1.0, 2.5e-7], "flag": True, "name": "x"}
    s1 = dumps_9g(obj)
    s2 = dumps_9g({"b": 1.0 / 3.0, "a": [1.0, 2.5e-7], "flag": True, "name": "x"})
    assert s1 == s2
    assert "0.333333333" in s1
    back = json.loads(s1)
    assert np.isclose(back["b"], 1.0 / 3.0, rtol=1e-8)
    assert back["flag"] is True


def test_build_shape_report_square():
    report = build_shape_report(SQUARE, [2.0], levels=3, h0=0.1, shape_id="sq")
    assert report.shape_id == "sq"
    assert np.isclose(report.geometry.area, 1.0, rtol=1e-12)
    assert np.isclose(report.geometry.avg_boundary_distance, 1.0 / 6.0, rtol=1e-12)
    assert np.isclose(report.limits.q_inf, 3.0, rtol=1e-12)
    entry = report.rigidity[0]
    assert np.isclose(entry.T_p, oracles.SQUARE_T2, rtol=1e-3)
    assert np.isclose(entry.Q_p, oracles.SQUARE_Q2, rtol=2e-3)
    assert entry.converged
    assert all(v.passed for e in report.rigidity for v in e.verdicts)
    # the CLI adds schema_version in front of these keys
    d = asdict(report)
    assert list(d) == ["shape_id", "geometry", "limits", "rigidity"]
    assert d["geometry"]["area"] == report.geometry.area
    # verdicts are written from the Verdict fields: pin the keys
    for v in d["rigidity"][0]["verdicts"]:
        assert list(v) == ["name", "value", "lower", "upper", "margin", "slack", "passed"]


def test_report_with_cheeger():
    report = build_shape_report(SQUARE, [2.0], levels=2, h0=0.15, with_cheeger=True)
    assert np.isclose(report.limits.cheeger_h, oracles.SQUARE_H, rtol=1e-9)
    assert np.isclose(report.limits.q1, 0.5 * oracles.SQUARE_H, rtol=1e-9)
    assert 1.0 <= report.limits.q1 < 2.0


def test_csv_rows_follow_columns():
    report = build_shape_report(SQUARE, [1.5, 2.0], levels=2, h0=0.15, shape_id="sq")
    rows = report_csv_rows(report)
    assert len(rows) == 2
    for row in rows:
        for col in CSV_COLUMNS:
            assert col in row
    assert rows[0]["p"] == 1.5
    assert rows[1]["p"] == 2.0
    assert rows[0]["shape_id"] == "sq"
    for name in VERDICT_ORDER:
        assert rows[0][f"pass_{name}"] in (True, False)
