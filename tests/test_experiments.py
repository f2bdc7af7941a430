"""Scenario plumbing, CSV artifacts, classification, determinism."""
import csv
import dataclasses
import filecmp
from fractions import Fraction
import math
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from geostep import experiments, integrators
from geostep.methods import MethodError, MethodSpec
from geostep.integrators import (
    STARTERS, PartitionedPair, PCPair, StepFailure, Trajectory, integrate, rk4_start,
)
from geostep.methods import REGISTRY_NAMES, builtin_methods
from geostep.cli import main
from geostep.systems import LinearHamiltonian, load_linear_system, sho
from test_integrators import cut_pendulum, pendulum
from geostep.experiments import (
    _CSV_BLOCK,
    _STAT_BLOCK,
    _scan,
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
    run_and_write,
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


@pytest.mark.parametrize("text, message", [
    ("# c\n\nscenario: x\nmethod ab4\n", "expected 'key: value', got 'method ab4'"),
    ("scenario: x\nmethod: ab4\ncolor: red\n", "unknown key 'color'"),
    ("scenario: x\nmethod: ab4 # c\nmethod: am4\n", "duplicate key 'method'"),
    ("scenario: x\n", "missing required key 'method'"),
    ("scenario: x\nmethod: ab4\ngamma:\n", "unknown key 'gamma'"),
])
def test_parse_scenario_error_messages(text, message):
    # the method files' line grammar, but plain ValueErrors
    with pytest.raises(ValueError) as exc:
        parse_scenario(text)
    assert type(exc.value) is ValueError and str(exc.value) == message


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
def spec_builds(monkeypatch):
    """Names of the MethodSpecs constructed while the test runs (every
    construction, `dataclasses.replace` included, runs __post_init__)."""
    names = []
    original = MethodSpec.__post_init__

    def counted(self):
        names.append(self.name)
        original(self)

    monkeypatch.setattr(MethodSpec, "__post_init__", counted)
    return names


@pytest.mark.parametrize("spec,builds", [
    *(pytest.param(name, [], id=name) for name in REGISTRY_NAMES),
    pytest.param("m3-line1,m3b-corrected", [], id="m3-line1,m3b-corrected"),
    # only the shorter member of a pair is built again, zero-padded to k = 4
    pytest.param("ab4,leapfrog", ["leapfrog"], id="ab4,leapfrog"),
])
def test_resolve_scheme_builds_the_registry_once(spec_builds, spec, builds):
    # the registry was built once, at import; a name hands out its entry
    scheme = resolve_scheme(spec)
    assert spec_builds == builds
    if "," not in spec:
        assert scheme is (builtin_methods() | builtin_pairs())[spec]


def test_resolve_scheme_builds_no_registry_for_files(
    spec_builds, tmp_path, monkeypatch
):
    monkeypatch.chdir(tmp_path)
    # files named like registry entries win over them; each file is one build
    Path("ab4").write_text("name: fileab4\nk: 1\nalpha: -1 1\nbeta: 1 0\n")
    Path("pc-m2").write_text("name: filepc\nk: 2\nalpha: -1 0 1\nbeta: 0 2 0\n")
    assert resolve_scheme("ab4").name == "fileab4"
    assert resolve_scheme("pc-m2").name == "filepc"
    assert spec_builds == ["fileab4", "filepc"]
    spec_builds.clear()
    # two files, then the k = 1 member padded to the pair's k = 2
    assert resolve_scheme(" ab4 , pc-m2 ").name == "fileab4,filepc"
    assert spec_builds == ["fileab4", "filepc", "fileab4"]
    spec_builds.clear()
    # a file member and a registry member: the file, padded to leapfrog's k
    assert resolve_scheme("ab4,leapfrog").name == "fileab4,leapfrog"
    assert spec_builds == ["fileab4", "fileab4"]


def test_pc_pair_is_not_a_partitioned_member():
    with pytest.raises(MethodError, match="unknown method 'pc-m2'"):
        resolve_scheme("m3-line1,pc-m2")
    code = main(["analyze", "--method", "m3-line1,pc-m2"])
    assert code == 1


def test_mutating_a_registry_dict_changes_no_later_lookup():
    ms, pairs = builtin_methods(), builtin_pairs()
    leapfrog, pc = ms["leapfrog"], pairs["pc-m2"]
    ms["leapfrog"] = ms.pop("ab4")
    pairs["ab4"] = pairs.pop("pc-m2")
    assert builtin_methods()["leapfrog"] is leapfrog
    assert set(builtin_methods()) == set(REGISTRY_NAMES) - {"pc-m2"}
    assert builtin_pairs() == {"pc-m2": pc}
    assert resolve_scheme("leapfrog") is leapfrog
    assert resolve_scheme("ab4").name == "ab4"
    assert resolve_scheme("pc-m2") is pc


@pytest.mark.parametrize(
    "argv",
    [
        ["analyze", "--method", "ab4"],
        ["analyze", "--method", "pc-m2", "--json"],
        ["integrate", "--method", "leapfrog", "--steps", "20"],
        ["integrate", "--method", "m3-line1,m3b-corrected", "--steps", "20"],
        ["experiment", "--figure", "4", "--steps", "20"],
    ],
    ids=["analyze", "analyze-pair", "integrate", "integrate-pair", "experiment"],
)
def test_cli_builds_the_registry_once_per_scheme(
    spec_builds, tmp_path, monkeypatch, capsys, argv
):
    # once, at import: a run on registry names builds no scheme again
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 0
    assert spec_builds == []


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


@pytest.mark.parametrize("stride, outputs, match", [
    (0, OUTPUT_KINDS, "stride"),
    (-1, OUTPUT_KINDS, "stride"),
    (1, ("phase", "bogus"), "unknown outputs"),
])
def test_bad_stride_or_output_kind_is_rejected_before_integrating(
        tmp_path, monkeypatch, stride, outputs, match):
    runs = []
    stream = experiments._stream
    monkeypatch.setattr(experiments, "_stream", lambda *a: runs.append(a) or stream(*a))
    with pytest.raises(ValueError, match=match):
        run_and_write("bad", builtin_methods()["leapfrog"], sho(), [1.0, 0.0],
                      0.1, 20, "rk4", tmp_path, stride, outputs)
    traj = integrate(builtin_methods()["leapfrog"], sho(), [1.0, 0.0], 0.1, 20)
    with pytest.raises(ValueError, match=match):
        write_artifacts("bad", traj, tmp_path, stride, outputs)
    assert runs == [] and list(tmp_path.iterdir()) == []


def test_run_and_write_checks_the_run_before_it_makes_room_for_the_rows(tmp_path):
    # the rows of 10^15 states fit in no memory: the check of y0 comes first
    with pytest.raises(ValueError, match="energy at y0 must be finite"):
        run_and_write("big", builtin_methods()["leapfrog"], sho(), [1e200, 0.0],
                      0.1, 10**15, "rk4", tmp_path)
    assert list(tmp_path.iterdir()) == []

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
    return Trajectory(h=0.1, states=states, energies=energies,
                      error_at=errors.__getitem__)


def _reference_csv(traj, stride, outputs):
    """Artifact text built one format(x, ".17g") per value."""
    def line(j, values):
        return ",".join([str(j)] + [format(float(v), ".17g") for v in values]) + "\n"

    t = traj.h * np.arange(len(traj.states))
    H, idx = traj.energies, range(0, len(traj.states), stride)
    text = {}
    if "phase" in outputs:
        text["phase"] = "step,t,q1,q2,p1,p2\n" + "".join(
            line(j, [t[j], *traj.states[j]]) for j in idx)
    if "energy" in outputs:
        text["energy"] = "step,t,H,dH\n" + "".join(
            line(j, [t[j], H[j], H[j] - H[0]]) for j in idx)
    if "error" in outputs:
        errors = traj.error_at(np.arange(traj.steps))
        text["error"] = "step,t,error\n" + "".join(
            line(j, [t[j], errors[j]]) for j in idx)
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
                      energies=rng.standard_normal(rows),
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
    traj = Trajectory(h=0.1, states=states, energies=field.energies(states))
    label, _, max_dev, slope, crossing = classify(traj)
    assert (label, crossing) == ("exploding", 1)
    assert (max_dev, slope) == (0.0, 0.0)


def _exact_slope(H, h):
    """The least-squares slope of H_j against t_j = h j in exact rationals,
    rounded once by float(): Σ (t_j - t̄) H_j / Σ (t_j - t̄)^2, where
    t_j - t̄ = h (2j - (N - 1)) / 2.  Each H_j = n / d (d a power of two)
    enters the sum as an integer over the common denominator 2^1074; the
    slope is 0.0 below two rows, nan when an H_j is not finite and +-inf
    past the float range."""
    N = len(H)
    if N < 2:
        return 0.0
    if not np.isfinite(H).all():
        return math.nan
    num = 0
    for j, x in enumerate(np.asarray(H, dtype=float).tolist()):
        n, d = x.as_integer_ratio()
        num += (2 * j - (N - 1)) * (n << (1074 - (d.bit_length() - 1)))
    den = sum((2 * j - (N - 1)) ** 2 for j in range(N))
    q = Fraction(num, 2**1074) / (Fraction(h) * Fraction(den, 2))
    try:
        return float(q)
    except OverflowError:
        return math.inf if q > 0 else -math.inf


def _classify_by_whole_arrays(traj: Trajectory):
    """`classify` with its statistics formed term by term over whole
    arrays: |y|^2 of every row by einsum, the crossing mask over the whole
    record, |H - H0| as its own array and the slope as one exact rational
    over the prefix (`_exact_slope`).  The reference for the bits of
    `classify`, which forms them block by block; like it, this reads
    `traj.states` only when H0 <= 0."""
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
    max_dev = float(np.max(np.abs(prefix - h0))) if len(prefix) >= 2 else 0.0
    slope = _exact_slope(prefix, traj.h)
    if crossing is not None:
        return "exploding", h0, max_dev, slope, crossing
    scale = abs(h0) if h0 != 0 else 1.0
    budget = BOUNDED_FRACTION * scale
    if max_dev <= budget and abs(slope) * traj.h * (len(H) - 1) <= budget:
        return "bounded", h0, max_dev, slope, None
    return "drifting", h0, max_dev, slope, None


def _radius_by_einsum(traj: Trajectory, crossing):
    """`_scan`'s radius deviation over whole arrays: einsum's |y|^2 of
    every row of the prefix, minus the first, as one array.  The reference
    for its bits."""
    states = traj.states if crossing is None else traj.states[:crossing]
    if states.shape[1] != 2 or len(states) == 0:
        return None
    with np.errstate(over="ignore", invalid="ignore"):
        r2 = np.einsum("ij,ij->i", states, states)
        return float(np.max(np.abs(r2 - r2[0])))


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
    assert _bits(got) == _bits(_classify_by_whole_arrays(traj))


SPECIAL = [np.inf, -np.inf, np.nan, -0.0, 5e-324]
B = _STAT_BLOCK


def _planted_record(h0, d, rows, seed, drift=1e-9, crossing=None, plants=(), h=0.1):
    """A synthetic record: H0 then a random walk of step `drift`, states
    drawn at random after a first one of |y0|^2 = d (far below any random
    row's 1000-fold).  `crossing` is (row, energy, state factor); each plant
    (row, column, value) sets a state entry, or the energy when the column
    is None."""
    rng = np.random.default_rng(seed)
    states = rng.standard_normal((rows, d))
    states[0] = 1.0
    energies = h0 + drift * np.cumsum(rng.standard_normal(rows))
    energies[0] = h0
    if crossing is not None:
        row, energy, factor = crossing
        energies[row] = energy
        states[row] *= factor
    for row, column, value in plants:
        if column is None:
            energies[row] = value
        else:
            states[row, column] = value
    return Trajectory(h=h, states=states, energies=energies)


@st.composite
def records(draw):
    """A record over up to four blocks of the statistics: H0 of each sign, a
    crossing planted in the first, a middle or the last block (or none) and
    special values planted in those blocks after the first row."""
    h0 = draw(st.sampled_from([0.5, 5e-324, 0.0, -0.0, -0.5]))
    d = draw(st.sampled_from([2, 4])) if h0 <= 0 else 2
    m = draw(st.sampled_from([0, 1, 2, 3]))
    rows = max(1, m * B + draw(st.sampled_from([-2, -1, 0, 1, 2])))
    blocks = -(-rows // B)
    where = st.sampled_from([0, blocks // 2, blocks - 1])

    def row():
        """A row after the first in the first, a middle or the last block."""
        lo = draw(where) * B
        return draw(st.integers(max(1, lo), min(rows, lo + B) - 1))

    crossing = None
    if rows > 1 and draw(st.booleans()):
        # the threshold itself crosses, as does anything not below it
        crossing = (row(), draw(st.sampled_from(
            [EXPLODE_FACTOR * h0, 2 * EXPLODE_FACTOR * abs(h0), np.inf, np.nan])),
            draw(st.sampled_from([1e2, 1e3, np.inf])))
    columns = st.sampled_from([None, *range(d)])
    plants = [(row(), draw(columns), draw(st.sampled_from(SPECIAL)))
              for _ in range(draw(st.integers(0, 4)) if rows > 1 else 0)]
    return _planted_record(
        h0, d, rows, draw(st.integers(0, 2**32 - 1)),
        drift=draw(st.sampled_from([0.0, 1e-9, 1e-2])), crossing=crossing,
        plants=plants, h=draw(st.sampled_from([0.1, 1e-3, 2.5])),
    )


# NaN before the crossing in a later block than the first: a running max
# that drops NaN would miss it
@example(traj=_planted_record(0.0, 2, 3 * B, 1, plants=[(2 * B + 5, None, np.nan)]))
@example(traj=_planted_record(-0.5, 4, 2 * B + 1, 2, plants=[(B, None, np.nan)]))
@example(traj=_planted_record(0.5, 2, 2 * B - 1, 3, plants=[(B + 7, 1, np.nan)]))
# crossings at the first row of a block, and at a last block of one row
@example(traj=_planted_record(0.5, 2, 3 * B, 4, crossing=(B, 500.0, 1.0)))
@example(traj=_planted_record(-0.5, 4, 3 * B + 1, 5, crossing=(3 * B, 0.0, 1e3)))
@settings(max_examples=150, deadline=None)
@given(traj=records())
def test_blocked_statistics_are_bit_identical_to_whole_array_ones(traj):
    got = classify(traj)
    assert _bits(got) == _bits(_classify_by_whole_arrays(traj))
    _, h0, max_dev, slope, crossing = got
    # None beyond two columns, as on the H0 <= 0 records of four
    radius = _radius_by_einsum(traj, crossing)
    assert _bits(_scan(traj)) == _bits((h0, max_dev, slope, crossing, radius))


@st.composite
def drift_records(draw):
    """(energies, h) for the slope alone: N from 2 to past three blocks of
    the statistics, either a large offset with a tiny trend, exponents
    spread over the float range, zeros, subnormals and extremes, or small
    values of a dozen binary exponents among mirrored pairs H_j = H_{N-1-j}
    of larger ones, whose terms cancel exactly so that every bit of the
    small values reaches the slope.  H_0 is
    at most 0, so on zero states the scan watches |y|^2 = 0, which never
    crosses, and the slope covers every row."""
    N = draw(st.one_of(st.integers(2, 3 * B + 2),
                       st.sampled_from([B - 1, B, B + 1, 2 * B, 2 * B + 1])))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["trend", "spread", "special", "mirrored"]))
    if kind == "trend":
        offset = draw(st.sampled_from([0.5, 1e5, -3e8, 1e300]))
        trend = draw(st.sampled_from([0.0, 1e-20, 1e-12]))
        H = offset * (1 + trend * np.arange(N) + 1e-15 * rng.standard_normal(N))
    elif kind == "spread":
        H = rng.standard_normal(N) * 10.0 ** rng.uniform(-300, 300, N)
    elif kind == "special":
        H = rng.choice([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
                        1.0, -1e308, 1e308], N)
    else:
        H = rng.standard_normal(N) * 2.0 ** -rng.integers(6, 18, N)
        pairs = rng.integers(0, N // 2, N // 4 + 1)
        H[pairs] = H[N - 1 - pairs] = -rng.uniform(1, 2, len(pairs))
    H[0] = -abs(H[0])
    h = draw(st.one_of(st.sampled_from([0.1, 1e-3, 2.5, 5e-324]),
                       st.floats(1e-300, 1e300)))
    return H, h


@example(record=(np.full(10, -1e150), 5e-324))  # constant: exactly 0
@example(record=(np.array([-1.0, 1e308, -1e308, 5e-324, 0.0]), 1e-300))  # -inf
@settings(max_examples=100, deadline=None)
@given(record=drift_records())
def test_scan_slope_is_the_exactly_rounded_least_squares_slope(record):
    H, h = record
    traj = Trajectory(h=h, states=np.zeros((len(H), 2)), energies=H)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _, _, slope, crossing, _ = _scan(traj)
    assert crossing is None
    assert _bits((slope,)) == _bits((_exact_slope(H, h),))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_scan_slope_is_nan_on_a_non_finite_energy(bad):
    # H0 <= 0, so the crossing watches |y|^2 and the energy stays in the
    # prefix
    H = np.array([-0.5, -0.4, bad, -0.3, -0.2])
    traj = Trajectory(h=0.1, states=np.zeros((5, 2)), energies=H)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _, _, slope, crossing, _ = _scan(traj)
    assert crossing is None and math.isnan(slope)


# exact least-squares slopes of the 10^6-step runs from (1, 0), each checked
# against a Fraction sum over the energies
EXACT_SLOPES = {
    "fig2-m1": -1.36989172087054e-12,
    "fig2-m1-corrected": -1.8018172581341372e-16,
    "fig3-pc": 1.8645314803000995e-06,
    "fig4-partitioned": 4.43740380119898,  # over the 629 rows before the crossing
    "fig4-partitioned-corrected": -1.5504350638921031e-13,
}


@pytest.mark.parametrize("name", sorted(EXACT_SLOPES))
def test_long_run_slopes_are_exact(name, tmp_path):
    s = {s.name: s for s in builtin_scenarios()}[name]
    assert (s.steps, s.q0, s.p0) == (1_000_000, 1.0, 0.0)
    rep = run_scenario(s, tmp_path)
    assert _bits((rep.slope,)) == _bits((EXACT_SLOPES[name],))


@pytest.mark.parametrize("text, slope, label", [
    # H doubles each step from 5e299; the exact slope is about 1.8e450
    ("method: explicit-euler\nomega: 1e150\nh: 1e-150\nsteps: 5\nq0: 1\n",
     np.inf, "drifting"),
    # h so small that q never moves: H is constant, the slope exactly 0
    ("method: leapfrog\nh: 5e-324\nsteps: 10\nq0: 1e150\n", 0.0, "bounded"),
], ids=["over-range", "constant"])
def test_scenario_slope_at_the_ends_of_the_float_range(tmp_path, text, slope, label):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rep = run_scenario(parse_scenario("scenario: ends\n" + text), tmp_path)
    assert _bits((rep.slope,)) == _bits((slope,))
    assert rep.classification == label
    summary = Path(rep.files["summary"]).read_text()
    assert f"slope: {format(slope, '.17g')}\n" in summary


def _traced_peak(f, *args):
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        result = f(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return result, peak


def test_classify_memory_peak_on_a_long_record():
    # 10^6 rows: a row-length vector would be 8 MB; every temporary is a
    # block of the statistics
    rows = 1_000_000
    rng = np.random.default_rng(5)
    traj = Trajectory(h=0.1, states=np.zeros((rows, 2)),
                      energies=0.5 + 1e-12 * rng.standard_normal(rows))
    result, peak = _traced_peak(classify, traj)
    assert result[0] == "bounded"
    assert peak <= 2**20


def test_radius_deviation_memory_peak_on_a_long_record():
    # 10^6 rows: a row-length vector would be 8 MB
    rows = 1_000_000
    rng = np.random.default_rng(6)
    traj = Trajectory(h=0.1, states=rng.standard_normal((rows, 2)),
                      energies=np.full(rows, 0.5))
    (_, _, _, crossing, radius), peak = _traced_peak(_scan, traj)
    assert crossing is None
    assert radius == _radius_by_einsum(traj, None)
    assert peak <= 2**20


def _run_and_write_whole(name, scheme, field, y0, h, steps, starter, outdir,
                         stride=1, outputs=OUTPUT_KINDS):
    """`run_and_write` over the whole run: `integrate`, then `write_artifacts`
    of its Trajectory, or of `StepFailure.partial` with the failing step.
    Returns (trajectory, files, failure)."""
    try:
        traj, failure = integrate(scheme, field, y0, h, steps, starter=starter), None
    except StepFailure as exc:
        traj, failure = exc.partial, exc
    files = write_artifacts(name, traj, outdir, stride, outputs,
                            None if failure is None else failure.step)
    return traj, files, failure


def _run_scenario_whole(s: Scenario, outdir):
    """`run_scenario` over the whole run: `integrate`, `write_artifacts`
    (through `_run_and_write_whole`) and `_scan`, then the label and
    summary."""
    scheme = resolve_scheme(s.method)
    traj, files, failure = _run_and_write_whole(
        s.name, scheme, sho(s.omega), np.array([s.q0, s.p0]), s.h, s.steps,
        s.starter, outdir, s.stride, s.outputs,
    )
    warnings, failed_step = scheme.warnings, None
    if failure is not None:
        failed_step = failure.step
        warnings += (f"stepper failed at step {failure.step}: {failure.cause}",)
    h0, max_dev, slope, crossing, radius = _scan(traj)
    label = experiments._fit(h0, max_dev, slope, s.h * (traj.steps - 1),
                             crossing is not None)
    result = experiments.ScenarioResult(
        s, files, h0, max_dev, slope, traj.final_error, radius, label, crossing,
        failed_step, warnings)
    summary = Path(outdir) / f"{s.name}-summary.txt"
    summary.write_text(experiments._format_summary(result))
    files["summary"] = str(summary)
    return result


C = experiments._CHUNK
# explicit Euler from (1, 0) multiplies H by 1 + h^2 a step: at these h it
# first reaches 1000 H0 on the first chunk's last row (k + C - 1 = C) and on
# the second chunk's first row
EDGE_H = {C: 0.014520103317672397, C + 1: 0.014519881736815624}
STREAMED = {
    "leapfrog-k+2C+1": dict(method="leapfrog", steps=2 + 2 * C + 1, stride=7),
    "leapfrog-k+2C-1": dict(method="leapfrog", steps=2 + 2 * C - 1, stride=7),
    "leapfrog-k+C": dict(method="leapfrog", steps=2 + C, stride=1000),
    "pc-m2-k+C+1": dict(method="pc-m2", steps=4 + C + 1, stride=3),
    "partitioned-k+3C-1": dict(method="m3-line1,m3b-corrected", steps=2 + 3 * C - 1,
                               stride=1000, q0=0.6, p0=-0.8),
    "crossing-in-a-chunk": dict(method="m3-line1,m3-line2-as-printed", steps=2 * C,
                                stride=100),
    "crossing-at-last-row": dict(method="explicit-euler", h=EDGE_H[C],
                                 steps=C + 500, stride=11),
    "crossing-at-chunk-start": dict(method="explicit-euler", h=EDGE_H[C + 1],
                                    steps=2 * C + 5, stride=11),
    "H0-zero": dict(method="ab4", steps=C + 9, q0=0.0, p0=0.0, stride=5),
    "exact-starter": dict(method="ab4", starter="exact", steps=4 + C + 1,
                          stride=7, q0=0.3, p0=0.4, omega=1.7),
    "shorter-than-256": dict(method="m1-corrected", steps=200, stride=3),
    "one-row": dict(method="explicit-euler", steps=1),
    "outputs-subset": dict(method="pc-m2", steps=C + 100, stride=7,
                           outputs=("energy",)),
}


@pytest.mark.parametrize("case", sorted(STREAMED))
def test_streamed_run_scenario_is_bit_identical_to_the_whole_run(case, tmp_path):
    s = Scenario("streamed", **STREAMED[case])
    got = run_scenario(s, tmp_path / "streamed")
    want = _run_scenario_whole(s, tmp_path / "whole")
    assert list(got.files) == list(want.files)
    for kind in got.files:
        assert Path(got.files[kind]).read_bytes() == \
            Path(want.files[kind]).read_bytes(), kind
    fields = ("h0", "max_deviation", "slope", "final_error", "radius_deviation",
              "classification", "crossing_step", "failed_step", "warnings")
    assert _bits([getattr(got, f) for f in fields]) == \
        _bits([getattr(want, f) for f in fields])
    if case.startswith("crossing-at"):
        assert got.crossing_step == (C if case.endswith("last-row") else C + 1)


def test_streamed_run_scenario_is_bit_identical_on_a_failure(tmp_path, monkeypatch):
    # no scheme's step is singular on the oscillator: plant the failure of
    # the window map, which comes before the first chunk
    def singular(*args):
        raise integrators.SingularStepError("planted")

    monkeypatch.setattr(integrators, "window_matrix", singular)
    s = Scenario("failed", "ab4", steps=C + 7, stride=2)
    got = run_scenario(s, tmp_path / "streamed")
    want = _run_scenario_whole(s, tmp_path / "whole")
    assert got.failed_step == want.failed_step == 4
    for kind in got.files:
        assert Path(got.files[kind]).read_bytes() == \
            Path(want.files[kind]).read_bytes(), kind


def test_run_scenario_memory_does_not_grow_with_the_run(tmp_path):
    # the run streams through fixed buffers: from 10^5 to 10^6 steps the
    # peak grows by the 900 more written rows (16 B of state and 8 B of
    # energy each) and no more
    s = {s.name: s for s in builtin_scenarios()}["fig3-pc"]
    assert s.stride == 1000
    peaks = []
    for steps in (10**5, 10**6):
        rep, peak = _traced_peak(
            run_scenario, dataclasses.replace(s, steps=steps), tmp_path)
        assert rep.classification == "drifting"
        peaks.append(peak)
    assert peaks[1] - peaks[0] <= 24 * 900 + 4096


def test_run_scenario_memory_peak_on_a_long_run(tmp_path):
    # 10^6 steps: the states would be 16 MB and the energies 8 MB; the
    # stream holds a chunk of each and the 1000 written rows
    s = {s.name: s for s in builtin_scenarios()}["fig2-m1-corrected"]
    assert s.steps == 1_000_000
    rep, peak = _traced_peak(run_scenario, s, tmp_path)
    assert rep.classification == "bounded"
    assert peak <= 2 * 2**20


def test_scan_forms_the_radius_reference_when_h0_is_nan():
    # neither H0 > 0 nor H0 <= 0 holds for a NaN: the crossing watches
    # |y|^2, on any number of state columns as on two
    H = [np.nan, 1.0, 2.0, 3.0, 4.0]
    wide = _scan(Trajectory(0.1, np.ones((5, 4)), H))
    narrow = _scan(Trajectory(0.1, np.ones((5, 2)), H))
    assert _bits(wide[:4]) == _bits(narrow[:4])
    assert wide[4] is None and narrow[4] == 0.0
    states = np.ones((5, 4))
    states[3] *= 40.0  # |y|^2 = 6400, past 1000 |y_0|^2
    assert _scan(Trajectory(0.1, states, H))[3] == 3


HESSIAN = "2 0.5 0 0\n0.5 3 0 0\n0 0 1 0\n0 0 0 1\n"
Y0_2DOF = np.array([1.0, -0.5, 0.2, 0.3])


def _hessian_field(tmp_path) -> LinearHamiltonian:
    path = tmp_path / "hessian.txt"
    path.write_text(HESSIAN)
    return load_linear_system(str(path))


def _assert_same_run(tmp_path, name, scheme, field, y0, h, steps, starter, stride):
    """`run_and_write` and `_run_and_write_whole` on one run: the same
    artifacts byte for byte, and the record is the whole run's."""
    args = (name, scheme, field, y0, h, steps, starter)
    run, files = run_and_write(*args, tmp_path / "streamed", stride)
    traj, want, failure = _run_and_write_whole(*args, tmp_path / "whole", stride)
    assert list(files) == list(want)
    for kind in files:
        assert Path(files[kind]).read_bytes() == Path(want[kind]).read_bytes(), kind
    assert run.steps == traj.steps
    assert _bits(run.stats) == _bits(_scan(traj))
    assert _bits((run.final_energy, run.final_error)) == \
        _bits((float(traj.energies[-1]), traj.final_error))
    assert (run.failure is None) == (failure is None)
    if failure is not None:
        assert run.failure.step == failure.step
        assert str(run.failure.cause) == str(failure.cause)
    return run


@pytest.mark.parametrize("offset", [C - 1, C + 1, 2 * C + 1],
                         ids=["k+C-1", "k+C+1", "k+2C+1"])
@pytest.mark.parametrize("starter", STARTERS)
@pytest.mark.parametrize("name", ["ab4", "leapfrog"])
def test_run_and_write_on_a_hessian_file_is_byte_identical_to_the_whole_run(
        tmp_path, name, starter, offset):
    # the run and its exact flow exp(hA) are two streams
    scheme, stride = resolve_scheme(name), 17
    steps = scheme.k + offset
    assert C % stride and steps % stride
    _assert_same_run(tmp_path, "hessian", scheme, _hessian_field(tmp_path), Y0_2DOF,
                     0.1, steps, starter, stride)


def test_run_and_write_of_a_singular_window_map_writes_the_window(tmp_path):
    # on the saddle diag(-1, 1) implicit Euler's step is singular at h = 1:
    # the run stops at step k, and the window is its one chunk
    field = LinearHamiltonian.from_hessian(np.diag([-1.0, 1.0]))
    run = _assert_same_run(tmp_path, "saddle", resolve_scheme("implicit-euler"), field,
                           np.array([0.3, 0.4]), 1.0, 5000, "rk4", 1)
    assert run.failure.step == run.steps == 1


@pytest.mark.parametrize("name", ["midpoint", "implicit-euler"])
def test_run_and_write_of_a_newton_failure_writes_the_partial_run(
        tmp_path, monkeypatch, name):
    # chunks of 256 states: from (0, 1.9) at h = 0.002 the implicit solve of
    # about step 446 must go past the cut, in the second chunk
    monkeypatch.setattr(experiments, "_CHUNK", 256)
    run = _assert_same_run(tmp_path, "cut", resolve_scheme(name), cut_pendulum(),
                           np.array([0.0, 1.9]), 0.002, 10_000, "rk4", 7)
    assert 256 < run.failure.step < 512 and run.final_error is None


@pytest.mark.parametrize("system, steps", [("sho", 10**5), ("hessian", 10**5),
                                           ("pendulum", 10**4)])
def test_run_and_write_memory_does_not_grow_with_the_run(
        tmp_path, monkeypatch, system, steps):
    # the run streams through fixed buffers, and so does a general linear
    # field's exact flow: from `steps` to ten times as many, the peak grows
    # by the more written rows (the state, the energy and, on a linear
    # field, the exact error of each) and no more
    field, y0 = {
        "sho": (sho(), np.array([1.0, 0.0])),
        "hessian": (_hessian_field(tmp_path), Y0_2DOF),
        "pendulum": (pendulum(), np.array([0.5, 0.0])),
    }[system]
    if steps < C:
        # chunks of 4096 states: both runs fill more than two, and the
        # stream's buffers, not a CSV block's text, set the peak
        monkeypatch.setattr(experiments, "_CHUNK", 4096)
    scheme, stride = resolve_scheme("leapfrog"), 1000
    peaks = []
    for n in (steps, 10 * steps):
        (run, _), peak = _traced_peak(run_and_write, "mem", scheme, field, y0, 0.1, n,
                                      "rk4", tmp_path / "out", stride)
        assert run.failure is None and run.steps == n
        peaks.append(peak)
    row = 8 * field.dim + 8 + 8 * isinstance(field, LinearHamiltonian)
    assert peaks[1] - peaks[0] <= row * 9 * steps // stride + 4096


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
