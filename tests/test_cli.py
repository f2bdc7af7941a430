"""Command surface: exit codes, CSV validity, flag handling."""
import csv
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import geostep
from geostep import cli
from geostep.cli import main
from geostep.methods import REGISTRY_NAMES


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


# ---------------------------------------------------------------------------
# list / analyze


def test_list_prints_registry(capsys):
    code, out, _ = run(capsys, "list")
    assert code == 0
    assert out.splitlines() == list(REGISTRY_NAMES)


def test_analyze_leapfrog(capsys):
    code, out, _ = run(capsys, "analyze", "--method", "leapfrog")
    assert code == 0
    assert "order: 2" in out
    assert "symmetric: true" in out
    assert "lambda: 0 2; 2 0" in out


def test_analyze_inconsistent_method_exits_2(capsys):
    code, out, _ = run(capsys, "analyze", "--method", "m1-as-printed")
    assert code == 2
    assert "consistent: false" in out


def test_analyze_unknown_method_exits_1(capsys):
    code, _, err = run(capsys, "analyze", "--method", "nosuch")
    assert code == 1
    assert "nosuch" in err


def test_analyze_json(capsys):
    code, out, _ = run(capsys, "analyze", "--method", "ab4", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["method"] == "ab4"
    assert doc["order"] == 4


def test_analyze_pair(capsys):
    code, out, _ = run(capsys, "analyze", "--method", "pc-m2")
    assert code == 0
    assert "pair: pc-m2" in out
    assert out.count("order: 4") == 2


@pytest.mark.parametrize(
    "method,header,members",
    [
        ("pc-m2", "pair: pc-m2 (pece)",
         {"mode": "pece", "predictor": "ab4", "corrector": "am4"}),
        ("m3-line1,m3b-corrected", "pair: m3-line1,m3b-corrected (partitioned)",
         {"positions": "m3-line1", "momenta": "m3b-corrected"}),
    ],
    ids=["pece", "partitioned"],
)
def test_analyze_pair_header_and_json_keys(capsys, method, header, members):
    code, out, _ = run(capsys, "analyze", "--method", method)
    assert code == 0
    assert out.splitlines()[0] == header
    code, out, _ = run(capsys, "analyze", "--method", method, "--json")
    assert code == 0
    doc = json.loads(out)
    # member reports are shown by their method name; key order is pinned too
    shown = {k: v["method"] if isinstance(v, dict) else v for k, v in doc.items()}
    assert list(shown.items()) == list(({"pair": method} | members).items())


def test_analyze_method_file(tmp_path, capsys):
    f = tmp_path / "m.txt"
    f.write_text("name: custom\nk: 1\nalpha: -1 1\nbeta: 1/2 1/2\n")
    code, out, _ = run(capsys, "analyze", "--method", str(f))
    assert code == 0
    assert "method: custom" in out and "order: 2" in out


def test_analyze_parse_failure_exits_1(tmp_path, capsys):
    f = tmp_path / "m.txt"
    f.write_text("name: broken\nk: 1\nalpha: -1\nbeta: 1 0\n")
    code, _, err = run(capsys, "analyze", "--method", str(f))
    assert code == 1
    assert "error" in err


def test_missing_required_flag_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["analyze"])
    assert exc.value.code == 1


def test_unknown_flag_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["list", "--frobnicate"])
    assert exc.value.code == 1


def test_console_script_reads_sys_argv(capsys, monkeypatch):
    # the `geostep` entry point calls main() with no arguments
    monkeypatch.setattr(sys, "argv", ["geostep", "list"])
    assert main() == 0
    assert capsys.readouterr().out.splitlines() == list(REGISTRY_NAMES)


# ---------------------------------------------------------------------------
# parser construction


def _commands(parser) -> list[str]:
    return list(next(a for a in parser._actions if a.dest == "command").choices)


def test_a_call_builds_only_its_commands_parser(capsys, monkeypatch):
    built = []
    init = cli._Parser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(cli._Parser, "__init__", counting_init)
    code, _, _ = run(capsys, "analyze", "--method", "ab4", "--json")
    assert code == 0
    assert built == ["geostep", "geostep analyze"]


def test_build_parser_offers_the_named_command_or_all():
    assert _commands(cli.build_parser("verify")) == ["verify"]
    assert _commands(cli.build_parser()) == list(cli.COMMANDS) == [
        "analyze", "integrate", "verify", "experiment", "list"]


@pytest.mark.parametrize(
    "argv,message",
    [
        ([], "the following arguments are required: command"),
        (["bogus"], "argument command: invalid choice: 'bogus' (choose from "
                    "'analyze', 'integrate', 'verify', 'experiment', 'list')"),
        (["analyze", "--method", "ab4", "--bogus"], "unrecognized arguments: --bogus"),
        (["list", "--frobnicate"], "unrecognized arguments: --frobnicate"),
    ],
    ids=["empty", "unknown-command", "analyze-unknown-flag", "list-unknown-flag"],
)
def test_top_level_usage_errors_name_all_five_commands(capsys, monkeypatch, argv,
                                                        message):
    # a one-command parser must print the same usage line as the full tree
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exc:
        main(argv)
    out = capsys.readouterr()
    assert exc.value.code == 1
    assert out.out == ""
    assert out.err == (
        "usage: geostep [-h] {analyze,integrate,verify,experiment,list} ...\n"
        f"geostep: error: {message}\n")


# ---------------------------------------------------------------------------
# integrate


def test_integrate_defaults_and_files(tmp_path, capsys):
    code, out, _ = run(
        capsys, "integrate", "--method", "leapfrog", "--steps", "20",
        "--out", str(tmp_path),
    )
    assert code == 0
    assert "H0=0.5" in out
    with open(tmp_path / "leapfrog-phase.csv") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["step", "t", "q", "p"]
    assert len(rows) == 21
    assert float(rows[1][2]) == 1.0 and float(rows[1][3]) == 0.0
    assert float(rows[2][1]) == pytest.approx(0.1)


def test_integrate_zero_h_exits_1(capsys):
    code, _, err = run(capsys, "integrate", "--method", "ab4", "--h", "0")
    assert code == 1
    assert "positive" in err


def test_integrate_steps_below_window_exits_1(tmp_path, capsys):
    code, _, err = run(
        capsys, "integrate", "--method", "ab4", "--steps", "2",
        "--out", str(tmp_path),
    )
    assert code == 1
    assert "window" in err


def test_integrate_partitioned_pair(tmp_path, capsys):
    code, out, _ = run(
        capsys, "integrate", "--method", "m3-line1,m3b-corrected",
        "--steps", "100", "--out", str(tmp_path),
    )
    assert code == 0
    assert (tmp_path / "m3-line1+m3b-corrected-energy.csv").exists()


def test_integrate_partitioned_pair_with_file_member(tmp_path, capsys):
    f = tmp_path / "lf.txt"
    f.write_text("name: lf\nk: 2\nalpha: -1 0 1\nbeta: 0 2 0\n")
    out = tmp_path / "out"
    code, stdout, _ = run(
        capsys, "integrate", "--method", f"{f},m3b-corrected",
        "--steps", "100", "--out", str(out),
    )
    assert code == 0
    assert stdout.startswith("lf+m3b-corrected: ")
    assert sorted(p.name for p in out.iterdir()) == [
        f"lf+m3b-corrected-{kind}.csv" for kind in ("energy", "error", "phase")
    ]


@pytest.mark.parametrize(
    "flag,value",
    [("--h", "inf"), ("--q0", "nan"), ("--omega", "inf"), ("--system", "nan 0\n0 1\n"),
     ("--q0", "1e300")],
    ids=["h-inf", "q0-nan", "omega-inf", "hessian-nan", "energy-overflow"],
)
def test_integrate_non_finite_input_exits_1(tmp_path, capsys, flag, value):
    if flag == "--system":
        path = tmp_path / "hessian.txt"
        path.write_text(value)
        value = str(path)
    code, _, err = run(
        capsys, "integrate", "--method", "leapfrog", flag, value,
        "--out", str(tmp_path),
    )
    assert code == 1
    assert "finite" in err
    assert not list(tmp_path.glob("*.csv"))


def test_integrate_out_of_memory_exits_1_and_writes_nothing(
    tmp_path, capsys, monkeypatch
):
    import geostep.experiments

    def no_memory(*args, **kwargs):
        raise MemoryError("Unable to allocate 16.0 TiB for an array")

    # an absurd step count fails its first allocation; stand in for it
    # instead of allocating
    monkeypatch.setattr(geostep.experiments, "integrate", no_memory)
    out = tmp_path / "out"
    code, stdout, err = run(
        capsys, "integrate", "--method", "leapfrog", "--steps", "1000000000000",
        "--out", str(out),
    )
    assert code == 1
    assert stdout == ""
    assert err == "error: Unable to allocate 16.0 TiB for an array\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "method,warnings",
    [
        ("m1-as-printed,ab4",
         ["m1-as-printed: coefficients kept as printed; inconsistent (C_1 = 1)"]),
        ("m1-as-printed,leapfrog",
         ["m1-as-printed: coefficients kept as printed; inconsistent (C_1 = 1)"]),
    ],
)
def test_mixed_window_pair_warns_with_members_own_warnings(
    tmp_path, capsys, method, warnings
):
    # the shorter member is zero-padded; that adds no index-0 note of its own
    code, _, err = run(
        capsys, "integrate", "--method", method, "--steps", "50",
        "--out", str(tmp_path),
    )
    assert code == 0
    assert err.splitlines() == [f"warning: {w}" for w in warnings]


def test_swap_partition_requires_pair(capsys):
    code, _, err = run(
        capsys, "integrate", "--method", "ab4", "--swap-partition",
    )
    assert code == 1
    assert "partitioned" in err


def test_integrate_custom_system_file(tmp_path, capsys):
    f = tmp_path / "hessian.txt"
    f.write_text("4 0\n0 1\n")
    code, _, _ = run(
        capsys, "integrate", "--method", "midpoint", "--system", str(f),
        "--steps", "50", "--out", str(tmp_path),
    )
    assert code == 0
    assert (tmp_path / "midpoint-energy.csv").exists()


def test_integrate_aborted_run_ends_each_csv_with_trailer(tmp_path, capsys):
    # H = (p^2 - q^2) / 2: I - hA is singular for implicit Euler at h = 1
    f = tmp_path / "saddle.txt"
    f.write_text("-1 0\n0 1\n")
    out = tmp_path / "out"
    code, _, err = run(
        capsys, "integrate", "--method", "implicit-euler", "--system", str(f),
        "--h", "1", "--steps", "20", "--out", str(out),
    )
    assert code == 2
    assert "aborted at step 1" in err
    expected = {
        "phase": "step,t,q,p\n0,0,1,0\n",
        "energy": "step,t,H,dH\n0,0,-0.5,0\n",
        "error": "step,t,error\n0,0,0\n",
    }
    for kind, text in expected.items():
        data = (out / f"implicit-euler-{kind}.csv").read_bytes()
        assert data == (text + "# aborted at step 1\n").encode(), kind


def test_omega_with_file_system_exits_1(tmp_path, capsys):
    f = tmp_path / "hessian.txt"
    f.write_text("4 0\n0 1\n")
    code, _, err = run(
        capsys, "integrate", "--method", "midpoint", "--system", str(f),
        "--omega", "2.0", "--out", str(tmp_path),
    )
    assert code == 1
    assert "omega" in err


# ---------------------------------------------------------------------------
# verify


def test_verify_single_check_passes(capsys):
    code, out, _ = run(
        capsys, "verify", "--check", "g-symplectic", "--method", "m3-line1",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "method,system,omega,h,check,value,threshold,pass"
    assert len(lines) == 2
    assert lines[1].endswith("true")


def test_verify_reversibility_ab4_fails(capsys):
    code, out, _ = run(
        capsys, "verify", "--check", "reversibility", "--method", "ab4",
    )
    assert code == 2
    assert out.strip().splitlines()[1].endswith("false")


def test_verify_area_midpoint_passes(capsys):
    code, out, _ = run(capsys, "verify", "--check", "area", "--method", "midpoint")
    assert code == 0


def test_verify_all_builtins_all_checks_is_valid_csv(capsys):
    code, out, _ = run(capsys, "verify")
    assert code == 2  # non-symmetric methods fail the symmetry check
    lines = out.strip().splitlines()
    assert len(lines) == 1 + 11 * 6
    arity = len(lines[0].split(","))
    assert all(len(l.split(",")) == arity for l in lines)
    methods = [l.split(",")[0] for l in lines[1:]]
    assert methods == sorted(methods)


def test_verify_order_check_flags_inconsistency(capsys):
    code, out, _ = run(
        capsys, "verify", "--check", "order", "--method", "m1-as-printed",
    )
    assert code == 2
    row = out.strip().splitlines()[1].split(",")
    assert row[5] == "0" and row[7] == "false"


def test_geostep_tol_env_sets_default(capsys, monkeypatch):
    monkeypatch.setenv("GEOSTEP_TOL", "1.0")
    code, _, _ = run(capsys, "verify", "--check", "reversibility", "--method", "ab4")
    assert code == 0  # residual ~3.5e-6 passes at tol 1


def test_tol_flag_beats_env(capsys, monkeypatch):
    monkeypatch.setenv("GEOSTEP_TOL", "1.0")
    code, _, _ = run(
        capsys, "verify", "--check", "reversibility", "--method", "ab4",
        "--tol", "1e-10",
    )
    assert code == 2


def test_bad_geostep_tol_exits_1(capsys, monkeypatch):
    monkeypatch.setenv("GEOSTEP_TOL", "loose")
    code, _, err = run(capsys, "verify", "--check", "area", "--method", "midpoint")
    assert code == 1
    assert "GEOSTEP_TOL" in err


@pytest.mark.parametrize("value", ["inf", "nan", "-1"])
@pytest.mark.parametrize("source", ["GEOSTEP_TOL", "--tol"])
def test_non_finite_or_negative_tol_exits_1(capsys, monkeypatch, source, value):
    # inf passed ab4's area defect of 0.9986; nan and -1 failed every row
    argv = ["verify", "--check", "area", "--method", "ab4"]
    if source == "--tol":
        argv += ["--tol", value]
    else:
        monkeypatch.setenv("GEOSTEP_TOL", value)
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert out == ""
    assert source in err


def test_verify_unknown_method_exits_1(capsys):
    code, _, _ = run(capsys, "verify", "--method", "nosuch")
    assert code == 1


# ---------------------------------------------------------------------------
# exact certificates against the benchmark's record
#
# The `certify` benchmark compares numeric strings only to rel 1e-6, so a
# wrong rational could pass it.  Here every exact field must match its
# recorded text.  The record is read, never rewritten; it still pins the
# index-0 warning that `m3-line2-as-printed` carries twice.

CERTIFY_RECORD = json.loads(
    (Path(__file__).resolve().parents[1] / "bench" / "certify_expected.json")
    .read_text()
)
EXACT_FIELDS = ("method", "order", "defects", "consistent", "symmetric",
                "irreducible", "normalization", "lambda", "warnings")


def _exact_fields(doc: dict) -> dict:
    """The exact fields of every report in an `analyze --json` document (a
    pair nests one report per member), each as its JSON text."""
    if "defects" in doc:
        return {f: json.dumps(doc[f]) for f in EXACT_FIELDS}
    return {key: _exact_fields(v) if isinstance(v, dict) else json.dumps(v)
            for key, v in doc.items()}


@pytest.mark.parametrize("name", REGISTRY_NAMES)
def test_analyze_json_exact_fields_match_benchmark_record(capsys, name):
    want = CERTIFY_RECORD[f"analyze:{name}"]
    code, out, _ = run(capsys, "analyze", "--method", name, "--json")
    assert code == want["exit"]
    assert _exact_fields(json.loads(out)) == _exact_fields(json.loads(want["stdout"]))


def test_verify_order_and_symmetry_rows_match_benchmark_record(capsys):
    def exact_rows(text):
        return [r for r in text.splitlines()
                if r.split(",")[4:5] in (["order"], ["symmetry"])]

    want = CERTIFY_RECORD["verify"]
    code, out, _ = run(capsys, "verify")
    assert code == want["exit"]
    assert exact_rows(out) == exact_rows(want["stdout"])
    assert len(exact_rows(out)) == 22  # one of each per single scheme
    # every row: all columns but the value exactly, the value to the
    # certify benchmark's own rel 1e-6 / abs 1e-13
    got = [r.split(",") for r in out.splitlines()]
    rec = [r.split(",") for r in want["stdout"].splitlines()]
    assert got[0] == rec[0] and len(got) == len(rec) == 1 + 66
    for g, w in zip(got[1:], rec[1:]):
        assert g[:5] + g[6:] == w[:5] + w[6:], g
        assert g[5] == w[5] or math.isclose(
            float(g[5]), float(w[5]), rel_tol=1e-6, abs_tol=1e-13), (g, w)


# ---------------------------------------------------------------------------
# experiment


def test_experiment_figure_1(tmp_path, capsys):
    code, out, _ = run(
        capsys, "experiment", "--figure", "1", "--outdir", str(tmp_path),
    )
    assert code == 0
    assert "fig1-explicit-euler: exploding" in out
    assert "fig1-implicit-euler: drifting" in out
    assert (tmp_path / "fig1-explicit-euler-energy.csv").exists()
    assert (tmp_path / "fig1-implicit-euler-summary.txt").exists()


def test_experiment_invalid_figure_exits_1(tmp_path, capsys):
    code, _, err = run(
        capsys, "experiment", "--figure", "9", "--outdir", str(tmp_path),
    )
    assert code == 1
    assert "figure" in err


def test_experiment_needs_exactly_one_source(tmp_path, capsys):
    code, _, _ = run(capsys, "experiment", "--outdir", str(tmp_path))
    assert code == 1
    code, _, _ = run(
        capsys, "experiment", "--figure", "1", "--scenario", "x",
        "--outdir", str(tmp_path),
    )
    assert code == 1


def test_experiment_scenario_file_with_steps_override(tmp_path, capsys):
    f = tmp_path / "s.txt"
    f.write_text("scenario: custom\nmethod: midpoint\nsteps: 500\n")
    code, out, _ = run(
        capsys, "experiment", "--scenario", str(f), "--steps", "12000",
        "--outdir", str(tmp_path),
    )
    assert code == 0
    assert "custom: bounded" in out
    with open(tmp_path / "custom-energy.csv") as fh:
        assert sum(1 for _ in fh) == 12001


@pytest.mark.parametrize("key, value", [
    ("h", "inf"), ("omega", "inf"), ("q0", "nan"), ("p0", "inf"),
])
def test_experiment_non_finite_scenario_field_exits_1(tmp_path, capsys, key, value):
    f = tmp_path / "s.txt"
    f.write_text(f"scenario: bad\nmethod: leapfrog\nsteps: 50\n{key}: {value}\n")
    out = tmp_path / "out"
    code, _, err = run(
        capsys, "experiment", "--scenario", str(f), "--outdir", str(out),
    )
    assert code == 1
    assert f"{key} must be" in err
    assert not out.exists()


def test_experiment_overflowing_scenario_prints_no_numpy_warning(tmp_path):
    # leapfrog at h = 1e300 overflows in the rk4 starter's first stage; in a
    # fresh interpreter numpy's warnings would reach stderr
    f = tmp_path / "s.txt"
    f.write_text("scenario: nanblow\nmethod: leapfrog\nh: 1e300\nsteps: 50\n")
    env = dict(os.environ, PYTHONPATH=str(Path(geostep.__file__).parents[1]))
    env.pop("PYTHONWARNINGS", None)
    proc = subprocess.run(
        [sys.executable, "-m", "geostep.cli", "experiment", "--scenario", str(f),
         "--outdir", str(tmp_path / "out")],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0
    assert "nanblow: exploding" in proc.stdout
    assert "RuntimeWarning" not in proc.stderr


def test_experiment_scenario_name_cannot_escape_outdir(tmp_path, capsys):
    f = tmp_path / "s.txt"
    f.write_text("scenario: ../escaped\nmethod: midpoint\nsteps: 100\n")
    out = tmp_path / "out"
    code, _, err = run(
        capsys, "experiment", "--scenario", str(f), "--outdir", str(out),
    )
    assert code == 1
    assert "scenario name" in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["s.txt"]
