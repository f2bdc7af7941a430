"""Scenario plumbing, CSV artifacts, classification, determinism."""
import csv
import filecmp
from pathlib import Path

import numpy as np
import pytest

from geostep.methods import MethodError
from geostep.integrators import PartitionedPair, PCPair, integrate, rk4_start
from geostep.methods import builtin_methods
from geostep.systems import LinearHamiltonian, sho
from geostep.experiments import (
    Scenario,
    builtin_pairs,
    builtin_scenarios,
    classify,
    figure_scenarios,
    format_scenario,
    parse_scenario,
    resolve_scheme,
    run_scenario,
)


def read_csv(path):
    with open(path) as fh:
        rows = [r for r in csv.reader(fh) if not r[0].startswith("#")]
    header, data = rows[0], rows[1:]
    return header, data


# ---------------------------------------------------------------------------
# scenario type and text format


def test_scenario_validation():
    with pytest.raises(ValueError):
        Scenario("x", "ab4", h=0.0)
    with pytest.raises(ValueError):
        Scenario("x", "ab4", steps=0)
    with pytest.raises(ValueError):
        Scenario("x", "ab4", stride=0)
    with pytest.raises(ValueError):
        Scenario("x", "ab4", starter="euler")
    with pytest.raises(ValueError):
        Scenario("x", "ab4", outputs=("phase", "volume"))
    with pytest.raises(ValueError):
        Scenario("bad name", "ab4")


def test_builtin_scenarios_are_sorted_and_complete():
    scen = builtin_scenarios()
    names = [s.name for s in scen]
    assert names == sorted(names)
    assert names == [
        "fig1-explicit-euler",
        "fig1-implicit-euler",
        "fig2-m1",
        "fig2-m1-corrected",
        "fig3-pc",
        "fig4-partitioned",
        "fig4-partitioned-corrected",
    ]
    byname = {s.name: s for s in scen}
    assert byname["fig4-partitioned"].steps == 1_000_000
    assert byname["fig1-explicit-euler"].steps == 1000
    for s in scen:
        assert s.h == 0.1 and s.q0 == 1.0 and s.p0 == 0.0 and s.omega == 1.0


def test_builtin_scenarios_steps_override():
    for s in builtin_scenarios(steps=20_000):
        assert s.steps == 20_000


def test_every_builtin_scenario_round_trips():
    for s in builtin_scenarios():
        assert parse_scenario(format_scenario(s)) == s


def test_parse_scenario_from_text():
    text = """
# quarter period study
scenario: quick
method: leapfrog
h: 0.05
steps: 200
outputs: energy
"""
    s = parse_scenario(text)
    assert s.name == "quick" and s.method == "leapfrog"
    assert s.h == 0.05 and s.steps == 200
    assert s.outputs == ("energy",)
    assert s.starter == "rk4"  # default


def test_parse_scenario_errors():
    with pytest.raises(ValueError, match="missing"):
        parse_scenario("scenario: x\n")
    with pytest.raises(ValueError, match="unknown key"):
        parse_scenario("scenario: x\nmethod: ab4\ncolor: red\n")
    with pytest.raises(ValueError, match="duplicate"):
        parse_scenario("scenario: x\nmethod: ab4\nmethod: am4\n")
    with pytest.raises(ValueError, match="malformed|could not convert"):
        parse_scenario("scenario: x\nmethod: ab4\nh: fast\n")


def test_figure_scenarios_mapping():
    assert [s.name for s in figure_scenarios(1)] == [
        "fig1-explicit-euler", "fig1-implicit-euler",
    ]
    assert [s.name for s in figure_scenarios(3)] == ["fig3-pc"]
    with pytest.raises(ValueError):
        figure_scenarios(9)


# ---------------------------------------------------------------------------
# scheme resolution


def test_resolve_scheme_kinds():
    assert resolve_scheme("leapfrog").k == 2
    pair = resolve_scheme("pc-m2")
    assert isinstance(pair, PCPair)
    assert pair.predictor.name == "ab4" and pair.corrector.name == "am4"
    part = resolve_scheme("m3-line1,m3b-corrected")
    assert isinstance(part, PartitionedPair)
    assert part.q_method.name == "m3-line1"


def test_resolve_scheme_unknown_names():
    with pytest.raises(MethodError):
        resolve_scheme("nosuch")
    with pytest.raises(MethodError):
        resolve_scheme("ab4,nosuch")
    with pytest.raises(MethodError):
        resolve_scheme("ab4,am4,ab4")


def test_builtin_pairs_only_pc():
    assert set(builtin_pairs()) == {"pc-m2"}


# ---------------------------------------------------------------------------
# running scenarios


def test_fig1_explicit_euler_energy_column(tmp_path):
    s = Scenario("fig1-explicit-euler", "explicit-euler", steps=1000)
    result = run_scenario(s, tmp_path)
    header, rows = read_csv(result.files["energy"])
    assert header == ["step", "t", "H", "dH"]
    assert len(rows) == 1000
    for row in rows[:: 97]:
        j = int(row[0])
        assert float(row[2]) == pytest.approx(0.5 * 1.01 ** j, rel=1e-9)
    assert result.classification == "exploding"
    assert result.crossing_step == 695


def test_fig1_implicit_euler_energy_decreases(tmp_path):
    s = Scenario("fig1-implicit-euler", "implicit-euler", steps=1000)
    result = run_scenario(s, tmp_path)
    _, rows = read_csv(result.files["energy"])
    H = np.array([float(r[2]) for r in rows])
    assert np.all(np.diff(H) < 0)
    assert H[10] == pytest.approx(0.5 / 1.01 ** 10, rel=1e-12)


def test_phase_and_error_artifacts(tmp_path):
    s = Scenario("probe", "leapfrog", steps=50)
    result = run_scenario(s, tmp_path)
    header, rows = read_csv(result.files["phase"])
    assert header == ["step", "t", "q", "p"]
    assert len(rows) == 50
    assert float(rows[0][2]) == 1.0 and float(rows[0][3]) == 0.0
    header, rows = read_csv(result.files["error"])
    assert header == ["step", "t", "error"]
    assert float(rows[0][2]) == 0.0
    assert all(float(r[2]) >= 0.0 for r in rows)
    assert Path(result.files["summary"]).exists()


def test_starter_rows_carry_starter_error_only(tmp_path):
    s = Scenario("probe", "ab4", steps=30)
    result = run_scenario(s, tmp_path)
    _, rows = read_csv(result.files["error"])
    field = sho(1.0)
    from geostep.systems import sho_exact

    starter = rk4_start(field, np.array([1.0, 0.0]), 0.1, 3)
    for j in range(4):
        expected = np.linalg.norm(starter[j] - sho_exact(1.0, np.array([1.0, 0.0]), 0.1 * j))
        assert float(rows[j][2]) == pytest.approx(expected, abs=1e-15)


def test_zero_step_scenario_writes_starter_rows_only(tmp_path):
    s = Scenario("boundary", "ab4", steps=4)  # k = 4
    result = run_scenario(s, tmp_path)
    _, rows = read_csv(result.files["phase"])
    assert len(rows) == 4


def test_stride_decimates_files_but_not_statistics(tmp_path):
    full = run_scenario(Scenario("a", "leapfrog", steps=200), tmp_path / "full")
    dec = run_scenario(
        Scenario("a", "leapfrog", steps=200, stride=10), tmp_path / "dec"
    )
    _, rows_full = read_csv(full.files["energy"])
    _, rows_dec = read_csv(dec.files["energy"])
    assert len(rows_full) == 200 and len(rows_dec) == 20
    assert dec.max_deviation == full.max_deviation
    assert dec.final_error == full.final_error


def test_outputs_subset_respected(tmp_path):
    s = Scenario("mini", "leapfrog", steps=20, outputs=("energy",))
    result = run_scenario(s, tmp_path)
    assert set(result.files) == {"energy", "summary"}


def test_rerun_is_byte_identical(tmp_path):
    s = Scenario("det", "m1-as-printed", steps=3000, stride=7)
    r1 = run_scenario(s, tmp_path / "one")
    r2 = run_scenario(s, tmp_path / "two")
    for kind in ("phase", "energy", "error", "summary"):
        assert filecmp.cmp(r1.files[kind], r2.files[kind], shallow=False), kind


def test_warnings_surface_in_result_and_summary(tmp_path):
    s = Scenario("warned", "m1-as-printed", steps=100)
    result = run_scenario(s, tmp_path)
    assert any("inconsistent" in w for w in result.warnings)
    text = Path(result.files["summary"]).read_text()
    assert "warning:" in text
    assert "classification:" in text


# ---------------------------------------------------------------------------
# classification


def test_classify_bounded_midpoint():
    traj = integrate(resolve_scheme("midpoint"), sho(1.0), [1.0, 0.0], 0.1, 10_000)
    label, h0, max_dev, slope, crossing = classify(traj)
    assert label == "bounded"
    assert h0 == 0.5
    assert crossing is None
    assert max_dev <= 1e-9


def test_classify_exploding_euler():
    traj = integrate(
        resolve_scheme("explicit-euler"), sho(1.0), [1.0, 0.0], 0.1, 10_000
    )
    label, _, max_dev, slope, crossing = classify(traj)
    assert label == "exploding"
    assert crossing == 695
    assert np.isfinite(max_dev) and np.isfinite(slope)


@pytest.mark.parametrize("y0", [(1.0, 1.0), (1.0, 0.0)], ids=["H0-zero", "H0-negative"])
def test_classify_catches_blow_up_when_h0_is_not_positive(y0):
    # indefinite H = (p^2 - q^2)/2: H0 = 0 from (1, 1), -0.5 from (1, 0);
    # leapfrog's |y| grows past 1e86 within 2000 steps from either point
    field = LinearHamiltonian.from_hessian(np.diag([-1.0, 1.0]))
    traj = integrate(builtin_methods()["leapfrog"], field, y0, 0.1, 2000)
    label, h0, _, _, crossing = classify(traj)
    assert h0 <= 0
    assert label == "exploding" and crossing is not None


def test_classify_drifting_implicit_euler():
    traj = integrate(
        resolve_scheme("implicit-euler"), sho(1.0), [1.0, 0.0], 0.1, 10_000
    )
    label, _, _, slope, _ = classify(traj)
    assert label == "drifting"
    assert slope < 0


def test_long_run_report_midpoint_bounded(tmp_path):
    s = Scenario("mid", "midpoint", steps=10_000)
    rep = run_scenario(s, tmp_path)
    assert rep.classification == "bounded"
    assert rep.scenario.name == "mid"
    assert rep.crossing_step is None
    assert rep.radius_deviation is not None and rep.radius_deviation <= 1e-8


def test_fig2_orbit_radius_band_smoke(tmp_path):
    # the as-printed 4-step scheme wanders in phase but keeps the orbit
    # radius in a narrow band; the full-length golden cap is 0.1072
    s = Scenario("fig2-smoke", "m1-as-printed", steps=20_000)
    rep = run_scenario(s, tmp_path)
    assert rep.classification == "drifting"
    assert rep.radius_deviation is not None
    assert rep.radius_deviation <= 0.108
