"""CSV artifacts written on two cores: from experiments._PARALLEL_ROWS
written rows on, a forked child formats the second half.  The bytes must be
those of the one-process write, the child must never outlive or return into
the call, and any error must reach the caller once."""
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import geostep
from geostep import experiments
from geostep.cli import main
from geostep.experiments import _CSV_BLOCK, OUTPUT_KINDS, write_artifacts
from geostep.integrators import Trajectory, integrate
from geostep.methods import builtin_methods
from geostep.systems import GradientField

B = _CSV_BLOCK
THRESHOLD = 2 * B  # the smallest threshold write_artifacts allows
SPECIAL = [np.inf, -np.inf, np.nan, -0.0, 5e-324]


def _trajectory(rows, dof=2, error=True, seed=0):
    """Random states, energies and error channel, with SPECIAL planted at
    the first rows, around the block edges B and 2B and at the last rows."""
    rng = np.random.default_rng(seed)
    states = rng.standard_normal((rows, 2 * dof))
    energies = rng.standard_normal(rows)
    errors = np.abs(rng.standard_normal(rows))
    k = len(SPECIAL)
    for at in (0, B - 2, 2 * B - 2, rows - k):
        at = max(0, min(at, rows - k))
        states[at:at + k, -1] = SPECIAL
        energies[at + 1:at + k] = SPECIAL[1:]  # H_0 stays finite at row 0
        errors[at:at + k] = SPECIAL
    return Trajectory(h=0.1, states=states, energies=energies, start_count=1,
                      error_at=errors.__getitem__ if error else None)


@pytest.fixture
def forks(monkeypatch):
    """Lower the threshold, let the split run on any host, and count forks."""
    monkeypatch.setattr(experiments, "_PARALLEL_ROWS", THRESHOLD)
    monkeypatch.setattr(experiments, "_usable_cpus", lambda: 2)
    count = []
    real_fork = os.fork

    def fork():
        count.append(1)  # in the caller, before the child exists
        return real_fork()

    monkeypatch.setattr(os, "fork", fork)
    return count


def _no_children_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _write_both(tmp_path, monkeypatch, traj, *args):
    """{kind: bytes} of a split write and of a one-process write."""
    split = write_artifacts("run", traj, tmp_path / "split", *args)
    monkeypatch.setattr(experiments, "_PARALLEL_ROWS", 10**9)
    serial = write_artifacts("run", traj, tmp_path / "serial", *args)
    assert list(split) == list(serial)
    return ({k: Path(p).read_bytes() for k, p in split.items()},
            {k: Path(p).read_bytes() for k, p in serial.items()})


@pytest.mark.parametrize("length, dof, stride, outputs, error, failed", [
    (THRESHOLD, 1, 1, OUTPUT_KINDS, True, None),
    (THRESHOLD, 2, 1, OUTPUT_KINDS, True, None),
    (2 * B - 1, 2, 1, OUTPUT_KINDS, True, None),  # one row short: no split
    (2 * B + 1, 2, 1, OUTPUT_KINDS, True, None),  # the child writes one row
    (3 * B + 1, 1, 1, OUTPUT_KINDS, True, 3 * B + 1),
    (3 * (2 * B + 1), 2, 3, OUTPUT_KINDS, True, None),
    (7 * 3 * B, 1, 7, OUTPUT_KINDS, True, None),
    (5 * B, 2, 1, ("phase",), True, None),
    (5 * B, 1, 1, ("energy", "error"), True, 17),
    (5 * B, 2, 1, OUTPUT_KINDS, False, None),  # no error channel, no error file
])
def test_split_write_is_byte_identical(tmp_path, monkeypatch, forks, length,
                                       dof, stride, outputs, error, failed):
    traj = _trajectory(length, dof, error)
    split, serial = _write_both(tmp_path, monkeypatch, traj, stride, outputs,
                                failed)
    written = len(range(0, length, stride))
    assert len(forks) == (written >= THRESHOLD)
    assert ("error" in split) == (error and "error" in outputs)
    for kind, text in serial.items():
        assert split[kind] == text, kind
        assert text.count(b"\n") == 1 + written + (failed is not None)
    _no_children_left()


@pytest.mark.parametrize("outputs", [(), ("error",)])
def test_no_table_formats_no_row_and_forks_no_child(tmp_path, monkeypatch,
                                                     outputs):
    # a pendulum run has no error channel, so ("error",) asks for no table
    field = GradientField(
        1,
        hamiltonian_fn=lambda y: 0.5 * y[1] ** 2 - np.cos(y[0]),
        gradient_fn=lambda y: np.array([np.sin(y[0]), y[1]]),
    )
    traj = integrate(builtin_methods()["leapfrog"], field, np.array([1.0, 0.0]),
                     0.1, experiments._PARALLEL_ROWS)
    assert traj.error_at is None
    monkeypatch.setattr(experiments, "_usable_cpus", lambda: 2)

    def fork():
        raise AssertionError("forked with no table to write")

    monkeypatch.setattr(os, "fork", fork)
    outdir = tmp_path / "out"
    assert write_artifacts("none", traj, outdir, 1, outputs) == {}
    assert outdir.is_dir() and not any(outdir.iterdir())


def test_split_halves_are_whole_blocks(tmp_path, monkeypatch, forks):
    # 2B + 1 rows split after 2B: the child writes only the last row
    rows = []

    def error_at(r):
        rows.append((int(r[0]), len(r)))
        return np.zeros(len(r))

    traj = Trajectory(h=0.5, states=np.zeros((2 * B + 1, 2)),
                      energies=np.zeros(2 * B + 1), start_count=1,
                      error_at=error_at)
    write_artifacts("edge", traj, tmp_path)
    # the child's calls are made in its own memory; the parent's are its
    # lookahead at row 0 and its two whole blocks
    assert rows == [(0, 1), (0, B), (B, B)]
    _no_children_left()


def _marked_call(marker, call):
    """Run `call`, then append a line to `marker`: a child that returned
    into this frame would append a second line."""
    try:
        return call()
    finally:
        with open(marker, "a") as fh:
            fh.write(f"{os.getpid()}\n")


def test_clean_split_leaves_no_child(tmp_path, forks):
    marker = tmp_path / "marker"
    traj = _trajectory(3 * B)
    files = _marked_call(marker, lambda: write_artifacts("ok", traj, tmp_path))
    assert len(forks) == 1
    assert marker.read_text() == f"{os.getpid()}\n"
    assert Path(files["phase"]).read_text().count("\n") == 3 * B + 1
    _no_children_left()


def _failing_error_at(rows_that_fail):
    errors = np.ones(3 * B)

    def error_at(rows):
        if any(rows_that_fail(int(r)) for r in rows):
            raise ValueError("planted failure")
        return errors[rows]

    return Trajectory(h=0.1, states=np.ones((3 * B, 2)), energies=np.ones(3 * B),
                      start_count=1, error_at=error_at)


def test_a_failing_child_raises_once_in_the_caller(tmp_path, forks, capfd):
    split = 2 * B  # where 3B rows split
    traj = _failing_error_at(lambda r: r >= split)
    marker = tmp_path / "marker"
    with pytest.raises(ChildProcessError, match="exit code 1"):
        _marked_call(marker, lambda: write_artifacts("bad", traj, tmp_path))
    assert len(forks) == 1
    assert marker.read_text() == f"{os.getpid()}\n"
    _no_children_left()
    # the child's own traceback is its only output
    assert capfd.readouterr().err.count("ValueError: planted failure") == 1


def test_a_failing_parent_kills_and_reaps_the_child(tmp_path, forks, capfd):
    traj = _failing_error_at(lambda r: 0 < r < B)  # row 0 is read before the fork
    marker = tmp_path / "marker"
    with pytest.raises(ValueError, match="planted failure"):
        _marked_call(marker, lambda: write_artifacts("bad", traj, tmp_path))
    assert len(forks) == 1
    assert marker.read_text() == f"{os.getpid()}\n"
    _no_children_left()
    assert capfd.readouterr().err == ""


def test_cli_split_write_in_a_fresh_interpreter(tmp_path, monkeypatch):
    hessian = tmp_path / "hessian.txt"
    hessian.write_text("1.5 0.25 0 0\n0.25 0.75 0 0\n0 0 1 0\n0 0 0 1\n")
    argv = ["integrate", "--method", "leapfrog", "--system", str(hessian),
            "--h", "0.1", "--steps", "100000", "--q0", "1,0.5",
            "--p0", "0,-0.25", "--stride", "1"]
    env = dict(os.environ, PYTHONPATH=str(Path(geostep.__file__).parents[1]))
    # run() reads both pipes to their end, so it returns only once every
    # process holding them, a forked writer included, has exited
    proc = subprocess.run(
        [sys.executable, "-m", "geostep.cli", *argv, "--out", str(tmp_path / "a")],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert (proc.returncode, proc.stderr) == (0, "")
    monkeypatch.setattr(experiments, "_PARALLEL_ROWS", 10**9)
    assert main([*argv, "--out", str(tmp_path / "b")]) == 0
    for kind in OUTPUT_KINDS:
        name = f"leapfrog-{kind}.csv"
        assert ((tmp_path / "a" / name).read_bytes()
                == (tmp_path / "b" / name).read_bytes()), kind
    _no_children_left()
