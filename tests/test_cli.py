"""Command surface: exit codes, CSV validity, flag handling."""
from contextlib import redirect_stderr, redirect_stdout
import csv
from fractions import Fraction
import io
import json
import math
import os
import random
import subprocess
import sys
import tempfile
from pathlib import Path
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import geostep
from geostep import cli
from geostep.cli import main
from geostep.experiments import BOUNDED_FRACTION, parse_scenario
from geostep.integrators import STARTERS, StepFailure, integrate
from geostep.methods import (
    _MAX_BITS, _MAX_K, REGISTRY_NAMES, builtin_methods, resolve_scheme,
)
from geostep.systems import sho


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


def random_scheme_text(k, seed=0):
    """A consistent k-step scheme with random small integer alpha and
    rational beta: at k = 64 a Euclid over `Fraction`s takes 11 s on it."""
    rng = random.Random(seed)
    alpha = [rng.randint(-9, 9) for _ in range(k + 1)]
    alpha[k] = rng.randint(1, 3)
    alpha[0] -= sum(alpha)
    beta = [Fraction(rng.randint(-9, 9), rng.randint(1, 12)) for _ in range(k + 1)]
    beta[k] += sum(j * a for j, a in enumerate(alpha)) - sum(beta)
    return (f"name: r{k}\nk: {k}\nalpha: {' '.join(map(str, alpha))}\n"
            f"beta: {' '.join(map(str, beta))}\n")


def test_analyze_at_the_k_bound_finishes_and_past_it_exits_1(tmp_path):
    # in a fresh interpreter with a timeout, so a coefficient swell fails the
    # suite instead of stalling it
    env = dict(os.environ, PYTHONPATH=str(Path(geostep.__file__).parents[1]))
    procs = []
    for k in (_MAX_K, _MAX_K + 1):
        f = tmp_path / f"k{k}.txt"
        f.write_text(random_scheme_text(k))
        procs.append(subprocess.run(
            [sys.executable, "-m", "geostep.cli", "analyze", "--method", str(f)],
            capture_output=True, text=True, env=env, timeout=60,
        ))
    at, past = procs
    assert at.returncode == 0, at.stderr
    assert f"method: r{_MAX_K}\norder: 1\n" in at.stdout
    assert past.returncode == 1 and past.stdout == ""
    assert past.stderr == f"error: k must be <= {_MAX_K}, got {_MAX_K + 1}\n"


def wide_scheme_text(k, bits, seed=0):
    """A consistent k-step scheme whose largest `_scaled` integer has exactly
    `bits` bits: beta over the odd prime D = 2^31 - 1, and the whole
    relation times a power of two, which doubles every integer but D."""
    rng = random.Random(seed)
    D = 2**31 - 1
    alpha = [rng.randint(-9, 9) for _ in range(k + 1)]
    alpha[k] = rng.randint(1, 3)
    alpha[0] -= sum(alpha)
    beta = [Fraction(rng.randint(1 - D, D - 1), D) for _ in range(k + 1)]
    beta[k] += sum(j * a for j, a in enumerate(alpha)) - sum(beta)
    top = max(abs(c * D).numerator.bit_length() for c in alpha + beta)
    s = 2 ** (bits - top)
    return (f"name: w{bits}\nk: {k}\nalpha: {' '.join(str(a * s) for a in alpha)}\n"
            f"beta: {' '.join(str(b * s) for b in beta)}\n")


def test_analyze_at_the_bit_bound_finishes_and_past_it_exits_1(tmp_path):
    # like the k bound: in a fresh interpreter with a timeout
    env = dict(os.environ, PYTHONPATH=str(Path(geostep.__file__).parents[1]))
    procs = []
    for bits in (_MAX_BITS, _MAX_BITS + 1):
        f = tmp_path / f"w{bits}.txt"
        f.write_text(wide_scheme_text(_MAX_K, bits))
        procs.append(subprocess.run(
            [sys.executable, "-m", "geostep.cli", "analyze", "--method", str(f)],
            capture_output=True, text=True, env=env, timeout=60,
        ))
    at, past = procs
    assert at.returncode == 0, at.stderr
    assert f"method: w{_MAX_BITS}\norder: 1\n" in at.stdout
    assert past.returncode == 1 and past.stdout == ""
    assert past.stderr == (f"error: coefficients must scale to integers of at most "
                           f"{_MAX_BITS} bits, got {_MAX_BITS + 1}\n")


@pytest.mark.parametrize("token", ["1e100000000", "1e-100000000"])
def test_decimal_exponent_past_the_bit_bound_exits_1_at_once(tmp_path, token):
    # Fraction expanded the exponent first: 0.26 s at 1e1000000, and the
    # time grows faster than the exponent.  In a fresh interpreter with a
    # timeout, so a stall fails the suite instead of holding it up.
    env = dict(os.environ, PYTHONPATH=str(Path(geostep.__file__).parents[1]))
    f = tmp_path / "far.txt"
    f.write_text(f"name: far\nk: 1\nalpha: -1 1\nbeta: {token} 0\n")
    proc = subprocess.run(
        [sys.executable, "-m", "geostep.cli", "analyze", "--method", str(f)],
        capture_output=True, text=True, env=env, timeout=20,
    )
    assert proc.returncode == 1 and proc.stdout == ""
    assert proc.stderr == f"error: decimal exponent out of range in {token!r}\n"


@pytest.mark.parametrize("command", ["analyze", "integrate", "verify"])
def test_coefficients_past_the_float_range_exit_1(tmp_path, capsys, command):
    # 10^400 overflowed float() in root_condition and the compiled relation
    f = tmp_path / "big.txt"
    f.write_text("name: big\nk: 1\nalpha: -1e400 1e400\nbeta: 1 0\n")
    code, out, err = run(capsys, command, "--method", str(f), *(
        ["--out", str(tmp_path)] if command == "integrate" else []))
    assert (code, out) == (1, "")
    assert err == ("error: coefficients must scale to integers of at most "
                   f"{_MAX_BITS} bits, got 1329\n")


@pytest.mark.parametrize("form", ["integer", "ratio", "decimal"])
def test_a_token_of_5000_digits_exits_1_as_too_long(tmp_path, capsys, form):
    token = {"integer": "1" + "0" * 4999, "ratio": "1/" + "3" * 5000,
             "decimal": "0." + "0" * 4999 + "1e5000"}[form]
    f = tmp_path / "long.txt"
    f.write_text(f"name: long\nk: 1\nalpha: -1 1\nbeta: {token} 0\n")
    code, out, err = run(capsys, "analyze", "--method", str(f))
    assert (code, out) == (1, "")
    assert err == "error: token too long: a run of 5000 digits, at most 4300\n"


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


@pytest.mark.parametrize(
    "flag,value,message",
    [("--system", "1 x\n0 1\n", "bad matrix row"),
     ("--system", "1 0 0\n0 1 0\n", "square matrix"),
     ("--q0", "1,2", "--q0 needs 1")],
    ids=["hessian-token", "hessian-not-square", "q0-too-long"],
)
def test_integrate_malformed_input_exits_1(tmp_path, capsys, flag, value, message):
    if flag == "--system":
        path = tmp_path / "hessian.txt"
        path.write_text(value)
        value = str(path)
    out = tmp_path / "out"
    code, _, err = run(
        capsys, "integrate", "--method", "leapfrog", flag, value, "--out", str(out),
    )
    assert code == 1
    assert message in err
    assert not out.exists()


def test_integrate_overflowing_time_grid_exits_1(tmp_path, capsys):
    # h (steps - 1) = 9e308 is past the float range: the t column would
    # read inf
    code, _, err = run(
        capsys, "integrate", "--method", "leapfrog", "--h", "1e308",
        "--steps", "10", "--out", str(tmp_path),
    )
    assert code == 1
    assert "time grid" in err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("starter", STARTERS)
def test_integrate_overflowing_exact_flow_reads_nan(tmp_path, capsys, starter):
    # h A overflows on this Hessian's entries above 1, so exp(hA) is all NaN
    f = tmp_path / "hessian.txt"
    f.write_text("2 0.5 0 0\n0.5 3 0 0\n0 0 1 0\n0 0 0 1\n")
    code, out, err = run(
        capsys, "integrate", "--method", "leapfrog", "--system", str(f),
        "--q0", "1,0.5", "--p0", "0,0.2", "--h", "1e308", "--steps", "2",
        "--starter", starter, "--out", str(tmp_path),
    )
    assert code == 0
    assert out == ("leapfrog: steps=2 H0=1.645 finalDeviation=nan "
                   "finalError=nan\n")
    assert err == ""


def test_integrate_out_of_memory_exits_1_and_writes_nothing(
    tmp_path, capsys, monkeypatch
):
    import geostep.experiments

    def no_memory(*args, **kwargs):
        raise MemoryError("Unable to allocate 16.0 TiB for an array")

    # an absurd step count fails its first allocation; stand in for it
    # instead of allocating
    monkeypatch.setattr(geostep.experiments, "_stream", no_memory)
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


def test_swapped_run_keeps_its_own_artifacts(tmp_path, capsys):
    # named with the member that advances q first, like the reversed pair
    # it runs as; it used to take the unswapped pair's name and overwrite
    # its files
    pair = ("integrate", "--method", "m3-line1,m3b-corrected", "--steps", "2000",
            "--stride", "7")
    code, out, _ = run(capsys, *pair, "--out", str(tmp_path / "both"))
    assert code == 0 and out.startswith("m3-line1+m3b-corrected: ")
    code, out, _ = run(capsys, *pair, "--swap-partition", "--out", str(tmp_path / "both"))
    assert code == 0 and out.startswith("m3b-corrected+m3-line1: ")
    assert sorted(p.name for p in (tmp_path / "both").iterdir()) == sorted(
        f"{name}-{kind}.csv" for name in ("m3-line1+m3b-corrected", "m3b-corrected+m3-line1")
        for kind in ("phase", "energy", "error"))
    code, reversed_out, _ = run(
        capsys, "integrate", "--method", "m3b-corrected,m3-line1", "--steps", "2000",
        "--stride", "7", "--out", str(tmp_path / "reversed"))
    assert code == 0 and reversed_out == out
    for kind in ("phase", "energy", "error"):
        name = f"m3b-corrected+m3-line1-{kind}.csv"
        assert ((tmp_path / "both" / name).read_bytes()
                == (tmp_path / "reversed" / name).read_bytes())


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


def test_verify_overflowing_reversibility_reads_inf_without_a_warning(
    tmp_path, capsys
):
    # the time-reversed run of this scheme at h = 100 overflows, so the
    # residual's norm is inf; numpy's overflow warning must not escape
    f = tmp_path / "F.txt"
    f.write_text("name: F\nk: 2\nalpha: -1/2 1 1\nbeta: 1 1 0\n")
    code, out, err = run(capsys, "verify", "--method", str(f), "--h", "100")
    assert code == 2
    assert "F,sho,1,100,reversibility,inf,1e-10,false" in out.splitlines()
    assert err == ""


@pytest.mark.parametrize("argv", [
    ["--h", "1e200"],
    ["--system", "HESSIAN", "--h", "1e200"],
    ["--system", "HESSIAN", "--h", "1e308", "--check", "area"],
], ids=["sho-1e200", "hessian-1e200", "hessian-1e308-area"])
def test_verify_huge_h_prints_no_numpy_warning(tmp_path, capsys, argv):
    # overflow inside the window map, its determinant, exp(h lam) or the
    # step transition's matmuls reads inf or nan in the row; numpy's warnings
    # used to reach stderr.  At 1e200 the step transition then finds two
    # equally close roots, and that row fails too.
    f = tmp_path / "hessian.txt"
    f.write_text("2 0.5 0 0\n0.5 3 0 0\n0 0 1 0\n0 0 0 1\n")
    argv = [str(f) if a == "HESSIAN" else a for a in argv]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run(capsys, "verify", *argv)
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    assert code == 2
    assert "RuntimeWarning" not in err
    assert out.startswith("method,system,omega,h,check,value,threshold,pass\n")


def test_verify_ambiguous_root_fails_its_row_and_the_rest_still_print(capsys):
    # at 1e200 the step transition of m3b-corrected finds two equally close
    # principal roots; verify used to exit 1 there, and midpoint got no rows
    code, out, err = run(capsys, "verify", "--h", "1e200")
    assert code == 2
    lines = out.splitlines()
    assert len(lines) == 1 + 11 * 6
    assert ("m3b-corrected,sho,1,9.9999999999999997e+199,step-transition,"
            "nan,1e-10,false") in lines
    assert len([l for l in lines if l.startswith("midpoint,")]) == 6
    assert err.startswith("warning: m3b-corrected step-transition: principal root")
    assert "ambiguous" in err and len(err.splitlines()) == 1


def test_verify_singular_implicit_step_fails_its_rows(tmp_path, capsys):
    # on the saddle H = (p^2 - q^2) / 2 at h = 1, I - h A is singular for
    # implicit Euler: each check that steps the scheme reads nan and fails
    # with one warning; a SingularStepError used to escape main
    f = tmp_path / "saddle.txt"
    f.write_text(HESSIANS["saddle"])
    code, out, err = run(capsys, "verify", "--system", str(f), "--h", "1",
                         "--method", "implicit-euler")
    assert code == 2
    rows = [line.split(",") for line in out.splitlines()[1:]]
    assert [r[4] for r in rows] == list(cli.CHECKS)
    assert [r[5:] for r in rows[2:]] == [["nan", "1e-10", "false"]] * 4
    assert [line.split(": ")[:2] for line in err.splitlines()] == [
        ["warning", f"implicit-euler {check}"] for check in cli.CHECKS[2:]]


def test_verify_overflowing_reversibility_grid_exits_1_before_any_row(
    tmp_path, capsys
):
    # the reversibility run's last time h (k + 99) overflows; verify used
    # to print four rows before the run failed
    f = tmp_path / "F.txt"
    f.write_text("name: F\nk: 1\nalpha: 1 1\nbeta: 1 1\n")
    code, out, err = run(capsys, "verify", "--method", str(f), "--h", "1e308")
    assert code == 1
    assert out == ""
    assert "time grid overflows" in err
    # without the reversibility run there is no grid to check
    code, out, _ = run(capsys, "verify", "--method", str(f), "--h", "1e308",
                       "--check", "order")
    assert code == 2 and out.count("\n") == 2


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


@pytest.mark.parametrize(
    "spec", [*REGISTRY_NAMES, "m3-line1,m3b-corrected", "m3-line1,m3-line2-as-printed"]
)
def test_report_text_lines_follow_the_dict_keys(spec):
    scheme = geostep.experiments.resolve_scheme(spec)
    members = getattr(scheme, "members", (("", scheme),))
    for _, m in members:
        r = geostep.methods.analyze(m)
        d = geostep.methods.report_to_dict(r)
        keys = [line.partition(":")[0]
                for line in geostep.methods.format_report(r).splitlines()]
        # one `warning:` line per entry of the last field, `warnings`
        assert list(d)[-1] == "warnings"
        assert keys == list(d)[:-1] + ["warning"] * len(d["warnings"])


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


def test_experiment_overflowing_time_grid_exits_1(tmp_path, capsys):
    f = tmp_path / "s.txt"
    f.write_text("scenario: far\nmethod: leapfrog\nh: 1e308\nsteps: 10\n")
    out = tmp_path / "out"
    code, _, err = run(
        capsys, "experiment", "--scenario", str(f), "--outdir", str(out),
    )
    assert code == 1
    assert "time grid" in err
    assert not out.exists()


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


# ---------------------------------------------------------------------------
# the whole command line over random inputs

TOKENS = ["1", "-1", "1/2", "0", "2", "-2", "-1/2", "1/3", "-3/4", "5/12", "1e-3", "1e3"]
H_VALUES = ["1e-8", "0.1", "1", "3", "100", "1e154", "1e200", "1e308"]
HESSIANS = {"one": "4 0\n0 1\n", "two": "2 0.5 0 0\n0.5 3 0 0\n0 0 1 0\n0 0 0 1\n",
            "saddle": "-1 0\n0 1\n"}


@st.composite
def method_texts(draw, name):
    """A method file of k <= 4 from a fixed set of tokens: plain, one-leg or
    generalized, some with a `gamma:` block and some with a short beta.
    Rows that halve two entries sum to one, as gamma rows and a one-leg
    beta must; a beta ending in zero makes a plain scheme explicit."""
    k = draw(st.integers(1, 4))

    def tokens():
        return draw(st.lists(st.sampled_from(TOKENS), min_size=k + 1, max_size=k + 1))

    def halves():
        row = [Fraction(0)] * (k + 1)
        for j in draw(st.lists(st.integers(0, k), min_size=2, max_size=2)):
            row[j] += Fraction(1, 2)
        return [str(c) for c in row]

    beta = draw(st.sampled_from([tokens, halves]))()
    if draw(st.booleans()):
        beta[k] = "0"
    beta = beta[: draw(st.sampled_from([k + 1] * 5 + [k]))]
    lines = [f"name: {name}", f"k: {k}", f"alpha: {' '.join(tokens())}",
             f"beta: {' '.join(beta)}"]
    kind = draw(st.sampled_from([None, "lmm", "one-leg", "generalized"]))
    if kind is not None:
        lines.append(f"kind: {kind}")
    if draw(st.booleans()) or (kind == "generalized" and draw(st.booleans())):
        lines += ["gamma:"] + [" ".join(halves()) for _ in range(k + 1)]
    return "\n".join(lines) + "\n"


@st.composite
def command_lines(draw):
    """(files, argv): input files by name, and a command line that names
    them (and its output directory `out`) relative to the directory that
    holds them."""
    files = {"F": draw(method_texts("F")), "G": draw(method_texts("G"))}
    method = draw(st.sampled_from(
        ["F", "F", "F,leapfrog", "m3-line1,F", "F,G", "pc-m2", "F,pc-m2"]))
    h = draw(st.sampled_from(H_VALUES))
    command = draw(st.sampled_from(["analyze", "verify", "integrate", "experiment"]))
    if command == "analyze":
        argv = ["analyze", "--method", method] + draw(st.sampled_from([[], ["--json"]]))
    elif command == "verify":
        argv = ["verify", "--method", method, "--h", h]
        argv += draw(st.sampled_from([[], ["--check", "reversibility"]]))
    elif command == "integrate":
        argv = ["integrate", "--method", method, "--h", h, "--out", "out",
                "--steps", draw(st.sampled_from(["1", "3", "40"])),
                "--stride", draw(st.sampled_from(["1", "3", "7", "0"])),
                "--starter", draw(st.sampled_from(STARTERS))]
        argv += draw(st.sampled_from([[], ["--swap-partition"]]))
        system = draw(st.sampled_from(["sho", *HESSIANS]))
        if system != "sho":
            files[system] = HESSIANS[system]
            n = 2 if system == "two" else 1
            argv += ["--system", system, "--q0", ",".join(["1"] * n),
                     "--p0", ",".join(["0.5"] * n)]
    else:
        # registry schemes three times in four, so that bounded runs are drawn
        method = draw(st.sampled_from(
            [method, "midpoint", "m1-corrected", "m3-line1,m3b-corrected"]))
        q0, p0 = (draw(st.sampled_from(["0", "1", "-0.5", "1e300"])) for _ in "qp")
        files["S"] = (
            f"scenario: s\nmethod: {method}\nh: {h}\nq0: {q0}\np0: {p0}\n"
            f"steps: {draw(st.sampled_from(['1', '5', '40']))}\n"
            f"starter: {draw(st.sampled_from(STARTERS))}\n"
            f"stride: {draw(st.sampled_from(['1', '7']))}\n"
            f"outputs: {draw(st.sampled_from(['phase,energy,error', 'energy']))}\n")
        argv = ["experiment", "--scenario", "S", "--outdir", "out"]
    return files, argv, None


@st.composite
def singular_steps(draw):
    """(files, argv, 2): an integrate run, or a verify, whose implicit step
    is singular.  On the saddle H = (p^2 - q^2) / 2, A = [[0, 1], [1, 0]],
    so I - h b A is singular at h = 1 for a last beta b = 1 (and a last
    alpha of 1): the run aborts at its first step past the starter window,
    and verify fails the rows of the checks that step the scheme.  Verify
    without --method covers the built-ins, implicit Euler among them."""
    files = {"saddle": HESSIANS["saddle"]}
    k = draw(st.integers(1, 3))
    beta = draw(st.lists(st.sampled_from(TOKENS), min_size=k, max_size=k))
    files["P"] = (f"name: P\nk: {k}\nalpha: -1{' 0' * (k - 1)} 1\n"
                  f"beta: {' '.join(beta)} 1\n")
    method = draw(st.sampled_from(["implicit-euler", "P"]))
    if draw(st.booleans()):
        argv = ["verify", "--system", "saddle", "--h", "1"]
        return files, argv + draw(st.sampled_from([[], ["--method", method]])), 2
    argv = ["integrate", "--method", method,
            "--system", "saddle", "--h", "1", "--out", "out",
            "--steps", draw(st.sampled_from(["3", "40"])),
            "--stride", draw(st.sampled_from(["1", "3", "7"])),
            "--starter", draw(st.sampled_from(STARTERS))]
    return files, argv, 2


def _recomputed_energies(scenario_text: str) -> np.ndarray:
    """H = (omega^2 q^2 + p^2) / 2 of every state of a scenario's run,
    integrated anew and formed here rather than by the field."""
    s = parse_scenario(scenario_text)
    try:
        states = integrate(resolve_scheme(s.method), sho(s.omega), [s.q0, s.p0],
                           s.h, s.steps, starter=s.starter).states
    except StepFailure as exc:
        states = exc.partial.states
    q, p = states.T
    with np.errstate(over="ignore", invalid="ignore"):
        return 0.5 * (s.omega * s.omega * q * q + p * p)


@given(st.integers(0, 3).flatmap(
    lambda i: singular_steps() if i == 0 else command_lines()))
@settings(max_examples=200, deadline=None)
def test_property_every_command_line_exits_cleanly(case):
    # exit 0, 1 or 2 with no exception and no numpy warning, a usage or
    # input error (exit 1) writes no artifact, a planted singular step
    # aborts a run (exit 2) and fails verify rows (exit 2, every scheme's
    # six rows printed), and a run labelled bounded has finite energies
    # within 1% of |H0| when recomputed
    files, argv, expected = case
    with tempfile.TemporaryDirectory() as tmp:
        cwd = os.getcwd()
        os.chdir(tmp)
        try:
            for name, text in files.items():
                Path(name).write_text(text)
            stdout, stderr = io.StringIO(), io.StringIO()
            with warnings.catch_warnings(record=True) as caught, \
                    redirect_stdout(stdout), redirect_stderr(stderr):
                warnings.simplefilter("always")
                code = main(argv)
            assert code in (0, 1, 2)
            assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
            if code == 1:
                assert not Path("out").exists()
            if expected is not None:
                assert code == expected
            if expected is not None and argv[0] == "verify":
                assert "Traceback" not in stderr.getvalue()
                lines = stdout.getvalue().splitlines()
                assert lines[0] == "method,system,omega,h,check,value,threshold,pass"
                names = ([argv[-1]] if "--method" in argv
                         else sorted(builtin_methods()))
                assert [line.split(",")[0] for line in lines[1:]] == [
                    name for name in names for _ in cli.CHECKS]
            elif expected is not None:
                for artifact in Path("out").iterdir():
                    last = artifact.read_text().splitlines()[-1]
                    assert last.startswith("# aborted at step ")
            if "s: bounded" in stdout.getvalue().splitlines():
                H = _recomputed_energies(files["S"])
                assert np.all(np.isfinite(H))
                assert np.max(np.abs(H - H[0])) <= BOUNDED_FRACTION * (abs(H[0]) or 1.0)
        finally:
            os.chdir(cwd)
