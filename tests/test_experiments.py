"""Scenario plumbing, CSV artifacts, classification, determinism."""
import csv
import filecmp
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from geostep import integrators
from geostep.methods import MethodError
from geostep.integrators import (
    PartitionedPair, PCPair, Trajectory, integrate, rk4_start,
)
from geostep.methods import REGISTRY_NAMES, builtin_methods
from geostep.cli import main
from geostep.systems import LinearHamiltonian, sho
from geostep.experiments import (
    _CSV_BLOCK,
    BOUNDED_FRACTION,
    EXPLODE_FACTOR,
    OUTPUT_KINDS,
    Scenario,
    builtin_pairs,
    builtin_scenarios,
    classify,
    figure_scenarios,
    format_scenario,
    parse_scenario,
    resolve_scheme,
    run_scenario,
    write_artifacts,
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


@pytest.mark.parametrize("key, value", [
    ("h", "inf"), ("omega", "inf"), ("q0", "nan"), ("q0", "inf"), ("p0", "-inf"),
])
def test_parse_scenario_rejects_non_finite_fields(key, value):
    # as integrate and sho do, but at the boundary and naming the field
    with pytest.raises(ValueError, match=f"^{key} must be"):
        parse_scenario(f"scenario: x\nmethod: leapfrog\n{key}: {value}\n")


def test_figure_scenarios_mapping():
    assert [s.name for s in figure_scenarios(1)] == [
        "fig1-explicit-euler", "fig1-implicit-euler",
    ]
    assert [s.name for s in figure_scenarios(2)] == ["fig2-m1", "fig2-m1-corrected"]
    assert [s.name for s in figure_scenarios(3)] == ["fig3-pc"]
    assert [s.name for s in figure_scenarios(4)] == [
        "fig4-partitioned", "fig4-partitioned-corrected",
    ]
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
    assert dict(part.members)["positions"].name == "m3-line1"


def test_resolve_scheme_unknown_names():
    with pytest.raises(MethodError):
        resolve_scheme("nosuch")
    with pytest.raises(MethodError):
        resolve_scheme("ab4,nosuch")
    with pytest.raises(MethodError):
        resolve_scheme("ab4,am4,ab4")


def test_builtin_pairs_only_pc():
    assert set(builtin_pairs()) == {"pc-m2"}


@pytest.fixture
def registry_builds(monkeypatch):
    """Counts builtin_methods() calls through every module binding."""
    import geostep.experiments
    import geostep.methods

    calls = []
    original = geostep.methods.builtin_methods

    def counted():
        calls.append(1)
        return original()

    for mod in (geostep.methods, geostep.experiments):
        monkeypatch.setattr(mod, "builtin_methods", counted)
    return calls


@pytest.mark.parametrize(
    "spec", list(REGISTRY_NAMES) + ["m3-line1,m3b-corrected", "ab4,leapfrog"]
)
def test_resolve_scheme_builds_the_registry_once(registry_builds, spec):
    resolve_scheme(spec)
    assert len(registry_builds) == 1


def test_resolve_scheme_builds_no_registry_for_files(
    registry_builds, tmp_path, monkeypatch
):
    monkeypatch.chdir(tmp_path)
    # files named like registry entries win over them
    Path("ab4").write_text("name: fileab4\nk: 1\nalpha: -1 1\nbeta: 1 0\n")
    Path("pc-m2").write_text("name: filepc\nk: 2\nalpha: -1 0 1\nbeta: 0 2 0\n")
    assert resolve_scheme("ab4").name == "fileab4"
    assert resolve_scheme("pc-m2").name == "filepc"
    assert resolve_scheme(" ab4 , pc-m2 ").name == "fileab4,filepc"
    assert registry_builds == []
    # a file member and a registry member: one build
    assert resolve_scheme("ab4,leapfrog").name == "fileab4,leapfrog"
    assert len(registry_builds) == 1


def test_pc_pair_is_not_a_partitioned_member(registry_builds):
    with pytest.raises(MethodError, match="unknown method 'pc-m2'"):
        resolve_scheme("m3-line1,pc-m2")
    code = main(["analyze", "--method", "m3-line1,pc-m2"])
    assert code == 1


@pytest.mark.parametrize(
    "argv,builds",
    [
        (["analyze", "--method", "ab4"], 1),
        (["analyze", "--method", "pc-m2", "--json"], 1),
        (["integrate", "--method", "leapfrog", "--steps", "20"], 1),
        (["integrate", "--method", "m3-line1,m3b-corrected", "--steps", "20"], 1),
        (["experiment", "--figure", "4", "--steps", "20"], 2),
    ],
    ids=["analyze", "analyze-pair", "integrate", "integrate-pair", "experiment"],
)
def test_cli_builds_the_registry_once_per_scheme(
    registry_builds, tmp_path, monkeypatch, capsys, argv, builds
):
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 0
    assert len(registry_builds) == builds


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


def _edge_trajectory(h0):
    """A 2-DOF trajectory over three CSV blocks, seeded with values whose
    text is easy to get wrong: infinities, nan, -0.0, subnormal, huge."""
    rows = 2 * _CSV_BLOCK + 3
    rng = np.random.default_rng(8)
    special = [np.inf, -np.inf, np.nan, -0.0, 5e-324, 1e300]
    states = rng.standard_normal((rows, 4))
    states[: len(special), 0] = special
    states[_CSV_BLOCK - 1 : _CSV_BLOCK + 5, 1:] = np.array(special).reshape(6, 1)
    energies = rng.standard_normal(rows)
    energies[0] = h0
    energies[-len(special):] = special
    errors = np.abs(rng.standard_normal(rows))
    errors[7:49:7] = special
    return Trajectory(h=0.1, states=states, energies=energies, start_count=1,
                      error_at=errors.__getitem__)


def _reference_csv(traj, stride, outputs):
    """Artifact text built one format(x, ".17g") per value."""
    def line(j, values):
        return ",".join([str(j)] + [format(float(v), ".17g") for v in values]) + "\n"

    t, H, idx = traj.times, traj.energies, range(0, len(traj.states), stride)
    text = {}
    if "phase" in outputs:
        text["phase"] = "step,t,q1,q2,p1,p2\n" + "".join(
            line(j, [t[j], *traj.states[j]]) for j in idx)
    if "energy" in outputs:
        text["energy"] = "step,t,H,dH\n" + "".join(
            line(j, [t[j], H[j], H[j] - H[0]]) for j in idx)
    if "error" in outputs:
        text["error"] = "step,t,error\n" + "".join(
            line(j, [t[j], traj.errors[j]]) for j in idx)
    return text


@pytest.mark.parametrize("h0", [np.nan, 1.25])
@pytest.mark.parametrize(
    "stride, outputs", [(1, OUTPUT_KINDS), (7, OUTPUT_KINDS), (1, ("energy",))]
)
def test_artifact_text_is_per_value_17g(tmp_path, h0, stride, outputs):
    traj = _edge_trajectory(h0)
    files = write_artifacts("edge", traj, tmp_path, stride, outputs)
    expected = _reference_csv(traj, stride, outputs)
    assert list(files) == list(expected)
    for kind, text in expected.items():
        assert Path(files[kind]).read_bytes() == text.encode(), kind


def test_write_artifacts_memory_stays_flat(tmp_path):
    # rows are streamed in blocks: the whole phase file would be ~10 MB of
    # text and a full-length float column 0.8 MB
    rows = 100_000
    rng = np.random.default_rng(3)
    traj = Trajectory(h=0.1, states=rng.standard_normal((rows, 4)),
                      energies=rng.standard_normal(rows), start_count=1,
                      error_at=rng.standard_normal(rows).__getitem__)
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        write_artifacts("mem", traj, tmp_path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * 2**20


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


@pytest.mark.parametrize(
    "diagonal, y0", [((1.0, 1.0), (1.0, 0.0)), ((-1.0, 1.0), (1.0, 1.0))],
    ids=["H0-positive", "H0-zero"],
)
def test_classify_counts_a_nan_as_the_crossing(diagonal, y0):
    # a run that overflows straight to nan, never passing through a finite
    # value over the threshold
    field = LinearHamiltonian.from_hessian(np.diag(diagonal))
    states = np.array([y0, [np.nan, np.nan], [np.nan, np.nan]])
    traj = Trajectory(h=0.1, states=states, energies=field.energies(states),
                      start_count=1)
    label, _, max_dev, slope, crossing = classify(traj)
    assert (label, crossing) == ("exploding", 1)
    assert (max_dev, slope) == (0.0, 0.0)


def _classify_by_vstack(traj: Trajectory):
    """`classify` with its statistics formed term by term: the time grid, a
    vector of ones, their `vstack` as the `lstsq` design matrix and
    |H - H0| as its own array.  The reference for `classify`'s bits."""
    H = np.asarray(traj.energies, dtype=float)
    h0 = float(H[0])
    if h0 > 0:
        size = H
    else:
        with np.errstate(over="ignore", invalid="ignore"):
            size = np.einsum("ij,ij->i", traj.states, traj.states)
    crossing = None
    if size[0] > 0:
        over = np.nonzero(~(size < EXPLODE_FACTOR * size[0]))[0]
        if len(over):
            crossing = int(over[0])
    prefix = H if crossing is None else H[:crossing]
    t = traj.h * np.arange(len(prefix))
    if len(prefix) >= 2:
        max_dev = float(np.max(np.abs(prefix - h0)))
        A = np.vstack([t, np.ones_like(t)]).T
        slope = float(np.linalg.lstsq(A, prefix, rcond=None)[0][0])
    else:
        max_dev, slope = 0.0, 0.0
    if crossing is not None:
        return "exploding", h0, max_dev, slope, crossing
    scale = abs(h0) if h0 != 0 else 1.0
    budget = BOUNDED_FRACTION * scale
    if max_dev <= budget and abs(slope) * traj.h * (len(H) - 1) <= budget:
        return "bounded", h0, max_dev, slope, None
    return "drifting", h0, max_dev, slope, None


def _bits(result):
    """A classify result with each float as its bytes, so -0.0 != 0.0."""
    return tuple(np.float64(v).tobytes() if isinstance(v, float) else v
                 for v in result)


INDEFINITE = LinearHamiltonian.from_hessian(np.diag([-1.0, 1.0]))


@pytest.mark.parametrize("method, field, y0, h, steps, label", [
    ("midpoint", sho(1.0), (1.0, 0.0), 0.1, 10_000, "bounded"),
    ("m1-corrected", sho(1.0), (0.6, 0.8), 0.1, 50_000, "bounded"),
    ("implicit-euler", sho(1.0), (1.0, 0.0), 0.1, 10_000, "drifting"),
    ("explicit-euler", sho(1.0), (1.0, 0.0), 0.1, 10_000, "exploding"),
    ("leapfrog", INDEFINITE, (1.0, 1.0), 0.1, 2000, "exploding"),
    ("leapfrog", INDEFINITE, (1.0, 0.0), 0.1, 2000, "exploding"),
    ("leapfrog", INDEFINITE, (1.0, 0.0), 0.1, 1, "bounded"),
], ids=["bounded", "bounded-long", "drifting", "exploding-prefix",
        "H0-zero", "H0-negative", "one-row"])
def test_classify_is_bit_identical_to_the_vstack_formulation(
    method, field, y0, h, steps, label
):
    scheme = resolve_scheme(method)
    traj = integrate(scheme, field, y0, h, max(steps, scheme.k))
    if steps < scheme.k:
        traj = Trajectory(h, traj.states[:steps], traj.energies[:steps], steps)
    got = classify(traj)
    assert got[0] == label
    assert _bits(got) == _bits(_classify_by_vstack(traj))


def test_classify_memory_peak_on_a_long_record():
    # 10^6 rows: the design matrix is 16 MB, a row-length vector 8 MB
    rows = 1_000_000
    rng = np.random.default_rng(5)
    traj = Trajectory(h=0.1, states=np.zeros((rows, 2)),
                      energies=0.5 + 1e-12 * rng.standard_normal(rows),
                      start_count=1)
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        assert classify(traj)[0] == "bounded"
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 24 * 2**20


def test_blow_up_to_nan_scenario_is_exploding(tmp_path):
    # the rk4 starter's first stage already overflows: H is nan from step 1.
    # The overflow is data, so the run raises no numpy warning either.
    s = parse_scenario("scenario: nanblow\nmethod: leapfrog\nh: 1e300\nsteps: 50\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rep = run_scenario(s, tmp_path)
    assert rep.classification == "exploding"
    assert rep.crossing_step == 1
    assert np.all(np.isfinite([rep.max_deviation, rep.slope, rep.radius_deviation]))
    summary = Path(rep.files["summary"]).read_text()
    assert "classification: exploding\ncrossingStep: 1\n" in summary


def test_long_scenario_evaluates_the_exact_flow_at_the_read_rows_only(
    tmp_path, monkeypatch
):
    # 10^6 steps at stride 1000: the error CSV's 1000 rows and the last row
    rows = []

    def counted(omega, y0, t, _fn=integrators.sho_exact):
        rows.append(np.size(t))
        return _fn(omega, y0, t)

    monkeypatch.setattr(integrators, "sho_exact", counted)
    s = {s.name: s for s in builtin_scenarios()}["fig2-m1-corrected"]
    assert (s.steps, s.stride, s.starter) == (1_000_000, 1000, "rk4")
    rep = run_scenario(s, tmp_path)
    assert sum(rows) <= 1001
    assert rep.final_error is not None
    with open(rep.files["error"]) as fh:
        assert sum(1 for _ in fh) == 1001  # header and 1000 rows


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
