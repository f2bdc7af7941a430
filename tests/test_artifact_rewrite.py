"""Artifacts rewritten in place: every CSV and summary is opened without
O_TRUNC and cut after its header, so a rerun over the files of an earlier run
keeps each file's inode and leaves exactly a fresh run's bytes, and a write
that stops part way, even one killed, leaves the header and the rows
written, nothing of the file it replaced."""
import os
from pathlib import Path
import signal
import subprocess
import sys

import pytest

import geostep
from geostep import experiments
from geostep.experiments import Scenario, run_scenario
from test_artifact_split import (
    B, _formatted_blocks, _no_children_left, _ones, _trajectory, forks,  # noqa: F401
)
from test_experiments import write_trajectory

# what an earlier run left under an artifact's name, given the fresh bytes:
# longer than them, shorter, and shorter than any header
STALE = {
    "longer": lambda fresh: b"stale," * (len(fresh) // 6 + 1000),
    "shorter": lambda fresh: b"stale," * (len(fresh) // 12),
    "tiny": lambda fresh: b"st",
}


@pytest.fixture
def opened(monkeypatch):
    """(path, flags) of each os.open call, made through the real one."""
    calls = []
    real_open = os.open

    def spy(path, flags, *args, **kwargs):
        calls.append((str(path), flags))
        return real_open(path, flags, *args, **kwargs)

    monkeypatch.setattr(os, "open", spy)
    return calls


def _scenario_files(outdir):
    s = Scenario("stale", "m1-corrected", steps=3000, stride=7)
    return run_scenario(s, outdir).files


@pytest.fixture(params=["forked", "scenario", "serial"])
def writer(request, monkeypatch):
    """(name, outdir -> {kind: path}); "forked" splits its rows with a child
    on any host, the others never do."""
    if request.param == "forked":
        request.getfixturevalue("forks")
    else:
        monkeypatch.setattr(experiments, "_PARALLEL_ROWS", 10**9)
    if request.param == "scenario":
        return request.param, _scenario_files
    traj = _trajectory(3 * B)
    return request.param, lambda outdir: write_trajectory("stale", traj, outdir)


def test_no_artifact_is_opened_with_o_trunc(tmp_path, writer, opened):
    name, write = writer
    files = write(tmp_path)
    assert set(files) == ({"phase", "energy", "error", "summary"}
                          if name == "scenario" else {"phase", "energy", "error"})
    flags = {path: f for path, f in opened if path in files.values()}
    assert sorted(flags) == sorted(files.values())
    assert not [path for path, f in flags.items() if f & os.O_TRUNC]
    _no_children_left()


def _plant(tmp_path, fresh_files, stale=STALE["longer"]):
    """A fresh write's bytes and a stale file's inode per kind, with that
    stale file planted under the same name in tmp_path/"out"."""
    outdir = tmp_path / "out"
    outdir.mkdir()
    fresh, inodes = {}, {}
    for kind, path in fresh_files.items():
        fresh[kind] = Path(path).read_bytes()
        target = outdir / Path(path).name
        target.write_bytes(stale(fresh[kind]))
        inodes[kind] = target.stat().st_ino
    return outdir, fresh, inodes


def _head(text: bytes, rows: int) -> bytes:
    """The header and the first `rows` rows of a CSV."""
    return b"".join(text.splitlines(keepends=True)[:1 + rows])


@pytest.mark.parametrize("stale", sorted(STALE))
def test_rerun_over_stale_files_leaves_a_fresh_run_in_place(tmp_path, writer,
                                                            stale):
    _, write = writer
    outdir, fresh, inodes = _plant(tmp_path, write(tmp_path / "fresh"),
                                   STALE[stale])
    files = write(outdir)
    assert sorted(files) == sorted(fresh)
    for kind, path in files.items():
        assert Path(path).read_bytes() == fresh[kind], kind
        assert Path(path).stat().st_ino == inodes[kind], kind
    _no_children_left()


def test_a_write_that_stops_after_a_block_leaves_only_its_rows(tmp_path,
                                                              monkeypatch):
    whole = _trajectory(3 * B)
    outdir, fresh, _ = _plant(
        tmp_path, write_trajectory("cut", whole, tmp_path / "fresh"))
    blocks = _formatted_blocks(monkeypatch, lambda first: first == B)
    with pytest.raises(ValueError, match="planted failure"):
        write_trajectory("cut", whole, outdir)
    assert blocks == [(0, B), (B, B)]  # no split: the second block raised
    for kind, text in fresh.items():
        assert (outdir / f"cut-{kind}.csv").read_bytes() == _head(text, B), kind


def test_a_failing_child_leaves_only_the_callers_rows(tmp_path, monkeypatch,
                                                      forks, capfd):
    split = 2 * B  # where 3B rows split
    outdir, fresh, _ = _plant(tmp_path, write_trajectory(
        "cut", _ones(3 * B), tmp_path / "fresh"))
    _formatted_blocks(monkeypatch, lambda first: first >= split)
    with pytest.raises(ChildProcessError, match="exit code 1"):
        write_trajectory("cut", _ones(3 * B), outdir)
    assert len(forks) == 2
    _no_children_left()
    assert capfd.readouterr().err.count("ValueError: planted failure") == 1
    for kind, text in fresh.items():
        assert (outdir / f"cut-{kind}.csv").read_bytes() == _head(text, split), kind


# a fresh interpreter writes 3B rows and is killed while forming its second
# block: nothing unwinds and no file is closed, so only the cut after each
# header keeps the stale bytes out
KILLED = """
import os, signal, sys
import numpy as np
from geostep import experiments
calls, csv_rows = [], experiments.csv_rows
def killed(block, layout):
    calls.append(1)
    if len(calls) == 2:
        os.kill(os.getpid(), signal.SIGKILL)
    return csv_rows(block, layout)
experiments.csv_rows = killed
rows = int(sys.argv[2])
experiments.write_artifacts("cut", sys.argv[1], 0.1, np.ones((rows, 2)),
                            np.ones(rows), np.ones(rows))
"""


def test_a_killed_write_leaves_a_prefix_of_a_fresh_run(tmp_path):
    outdir, fresh, _ = _plant(
        tmp_path, write_trajectory("cut", _ones(3 * B), tmp_path / "fresh"))
    env = dict(os.environ, PYTHONPATH=str(Path(geostep.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-c", KILLED, str(outdir), str(3 * B)],
                          env=env, capture_output=True, timeout=120)
    assert proc.returncode == -signal.SIGKILL, proc.stderr
    for kind, text in fresh.items():
        left = (outdir / f"cut-{kind}.csv").read_bytes()
        # the header, then whatever rows reached the file, never stale bytes
        assert len(_head(text, 0)) <= len(left) <= len(_head(text, B)), kind
        assert text.startswith(left), kind
