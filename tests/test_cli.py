import json
import os
import signal
import subprocess
import sys
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

from quditwitness import DensityMatrix, InvalidParamsError, maximally_mixed
from quditwitness import cli, engine
from quditwitness.cli import main
from quditwitness.serialize import save_density
from conftest import assert_no_child_left, needs_fork, set_usable_cpus

BELL = np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2)


def bell_state():
    return DensityMatrix(2, 2, np.outer(BELL, BELL))


def test_fef_bell(tmp_path, capsys):
    path = tmp_path / "bell.json"
    save_density(bell_state(), path)
    assert main(["fef", str(path)]) == 0
    assert capsys.readouterr().out.strip() == "score=2.000000 fef_w=1.000000 detected=true"


def test_fef_mixed_not_detected(tmp_path, capsys):
    path = tmp_path / "mixed.csv"
    save_density(maximally_mixed(2, 2), path)
    assert main(["fef", str(path)]) == 0
    assert "detected=false" in capsys.readouterr().out


def test_fef_invalid_state_exit_3(tmp_path, capsys):
    path = tmp_path / "bad.json"
    save_density(DensityMatrix(2, 2, np.eye(4, dtype=complex) * 0.9 / 4), path)
    assert main(["fef", str(path)]) == 3
    assert "trace" in capsys.readouterr().err


def test_fef_wrong_dims_exit_3(tmp_path, capsys):
    path = tmp_path / "qutrit.json"
    save_density(maximally_mixed(3, 3), path)
    assert main(["fef", str(path)]) == 3
    assert "two-qubit" in capsys.readouterr().err


def test_fef_malformed_exit_3(tmp_path, capsys):
    path = tmp_path / "garbage.json"
    path.write_text("{nope")
    assert main(["fef", str(path)]) == 3


def csv_state(dims: str, mat) -> str:
    return f"# {dims}\n" + "".join(",".join(f"{x},0.0" for x in row) + "\n" for row in mat)


MIXED = np.eye(4) / 4
NAN_DIAG = [["nan", 0, 0, 0], *MIXED[1:].tolist()]
INF_PAIR = [[0.25, "inf", 0, 0], ["inf", 0.25, 0, 0], *MIXED[2:].tolist()]
def json_state(dim_a, dim_b) -> str:
    return json.dumps({"dimA": dim_a, "dimB": dim_b, "re": MIXED.ravel().tolist(),
                       "im": [0.0] * 16})


NOT_UTF8 = b"\xff\xfe\x00"  # a UTF-16 byte-order mark, then a NUL
BAD_STATES = {  # file name -> (bytes, expected message)
    "zero.json": (json.dumps({"dimA": 0, "dimB": 2, "re": [], "im": []}).encode(),
                  "must be positive"),
    "negative.json": (json_state(-2, -2).encode(), "must be positive"),
    "zero.csv": (csv_state("dimA=0 dimB=0", []).encode(), "must be positive"),
    "negative.csv": (csv_state("dimA=-1 dimB=-1", [[1.0]]).encode(), "must be positive"),
    "letter-dims.csv": (csv_state("dimA=x dimB=2", MIXED).encode(), "malformed density-matrix CSV"),
    "nan.json": (json.dumps({"dimA": 2, "dimB": 2, "re": [float("nan"), *MIXED.ravel()[1:]],
                             "im": [0.0] * 16}).encode(), "non-finite"),  # json writes a bare NaN
    "nan.csv": (csv_state("dimA=2 dimB=2", NAN_DIAG).encode(), "non-finite"),
    "inf.csv": (csv_state("dimA=2 dimB=2", INF_PAIR).encode(), "non-finite"),
    "not-utf8.json": (NOT_UTF8 + json_state(2, 2).encode(), "not UTF-8"),
    "not-utf8.csv": (NOT_UTF8 + csv_state("dimA=2 dimB=2", MIXED).encode(), "not UTF-8"),
    "float-dims.json": (json_state(2.7, 2).encode(), "JSON integers"),
    "bool-dims.json": (json_state(True, 2).encode(), "JSON integers"),
    "string-entry.json": (json_state(2, 2).replace("0.25", '"0.25"', 1).encode(),
                          "re must be a JSON array of numbers"),
    "bool-entry.json": (json_state(2, 2).replace("0.0", "true", 1).encode(),
                        "re must be a JSON array of numbers"),
    "huge-entry.json": (json_state(2, 2).replace("0.0", "1" + "0" * 400, 1).encode(),
                        "out of range"),
}


@pytest.mark.parametrize("name", BAD_STATES)
def test_fef_bad_state_file_exit_3(tmp_path, capsys, name):
    data, message = BAD_STATES[name]
    path = tmp_path / name
    path.write_bytes(data)
    assert main(["fef", str(path)]) == 3
    out, err = capsys.readouterr()
    assert out == "" and one_error_line(err) and message in err


def test_usage_error_exit_2(capsys):
    with pytest.raises(SystemExit) as info:
        main(["icps-sweep", "--d", "3", "--r", "2", "--samples", "0"])
    assert info.value.code == 2


def test_icps_sweep_deterministic_across_workers(tmp_path):
    base = ["icps-sweep", "--d", "3", "--r", "2", "--mode", "both",
            "--samples", "4000", "--seed", "11"]
    paths = [tmp_path / f"out{i}.csv" for i in range(3)]
    assert main(base + ["--workers", "1", "--out", str(paths[0])]) == 0
    assert main(base + ["--workers", "1", "--out", str(paths[1])]) == 0
    assert main(base + ["--workers", "2", "--out", str(paths[2])]) == 0
    blobs = [p.read_bytes() for p in paths]
    assert blobs[0] == blobs[1] == blobs[2]


@needs_fork
def test_workers_beyond_chunk_count_start_one_process_per_chunk(tmp_path, monkeypatch, forks):
    # the fork stand-in records each child; 40000 samples are 3 chunks
    set_usable_cpus(monkeypatch, 64)
    base = ["icps-sweep", "--d", "3", "--r", "2", "--samples", "40000", "--seed", "3"]
    paths = [tmp_path / f"w{w}.csv" for w in (1, 5000)]
    assert main(base + ["--workers", "1", "--out", str(paths[0])]) == 0
    assert main(base + ["--workers", "5000", "--out", str(paths[1])]) == 0
    assert len(forks) == 3
    assert paths[0].read_bytes() == paths[1].read_bytes()


ICPS_FLAGS = engine._icps_flags


def killed_icps_flags(seed, chunk_idx, *task):
    """engine._icps_flags, but the child holding chunk 1 ends by SIGKILL."""
    if chunk_idx == 1:
        os.kill(os.getpid(), signal.SIGKILL)
    return ICPS_FLAGS(seed, chunk_idx, *task)


def failing_icps_flags(seed, chunk_idx, *task):
    """engine._icps_flags, but chunk 2 raises."""
    if chunk_idx == 2:
        raise InvalidParamsError(f"chunk {chunk_idx} is out of range")
    return ICPS_FLAGS(seed, chunk_idx, *task)


@needs_fork
@pytest.mark.parametrize("flags, message", [
    (killed_icps_flags, f"ended without a result (killed by signal {int(signal.SIGKILL)})"),
    (failing_icps_flags, "error: chunk 2 is out of range"),
])
def test_worker_failure_exit_3(flags, message, tmp_path, monkeypatch, capsys, forks):
    # a worker killed by a signal, or raising, ends the run with one line and
    # exit 3; every child is reaped and no output is written
    set_usable_cpus(monkeypatch, 2)
    monkeypatch.setattr(engine, "_icps_flags", flags)
    out_path = tmp_path / "x.csv"
    assert main(["icps-sweep", "--d", "3", "--r", "2", "--samples", "40000", "--seed", "3",
                 "--workers", "2", "--out", str(out_path)]) == 3
    out, err = capsys.readouterr()
    assert out == "" and one_error_line(err) and message in err
    assert len(forks) == 2 and not out_path.exists()
    assert_no_child_left()


def stat_fields(pid: int) -> list[str] | None:
    """The fields of /proc/<pid>/stat after the command name (state, ppid, ...);
    None when there is no such process."""
    try:
        return Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()
    except OSError:
        return None


def live_children(pid: int) -> list[int]:
    """Pids of the processes whose parent is pid."""
    return [int(p.name) for p in Path("/proc").glob("[0-9]*")
            if (fields := stat_fields(int(p.name))) and int(fields[1]) == pid]


def stopped(pid: int, within: float) -> bool:
    """Whether pid runs no more (gone, or a zombie that its new parent has not
    reaped yet), waiting up to `within` seconds."""
    deadline = time.monotonic() + within
    while (fields := stat_fields(pid)) and fields[0] != "Z":
        if time.monotonic() > deadline:
            return False
        time.sleep(0.02)
    return True


# Two workers for about 10 s each if nothing stops them: 8e6 samples are 489 chunks
SIGNAL_SWEEP = ["icps-sweep", "--d", "9", "--r", "9", "--samples", "8000000", "--workers", "2"]


@contextmanager
def console_sweep(tmp_path):
    """(process, its two worker pids, --out path) of the console script running
    SIGNAL_SWEEP, once both workers have forked; killed on the way out."""
    if not sys.platform.startswith("linux") or engine.usable_cpus() < 2:
        pytest.skip("reads worker pids from /proc and needs two usable CPUs")
    out = tmp_path / "out.csv"
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    proc = subprocess.Popen([sys.executable, "-m", "quditwitness", *SIGNAL_SWEEP, "--out", str(out)],
                            env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    try:
        deadline = time.monotonic() + 30
        while len(workers := live_children(proc.pid)) < 2 and time.monotonic() < deadline:
            time.sleep(0.02)
        assert len(workers) == 2
        yield proc, workers, out
    finally:
        proc.kill()
        proc.communicate()


@needs_fork
@pytest.mark.parametrize("signum, code", [(signal.SIGTERM, 143), (signal.SIGINT, 130)])
def test_signal_ends_the_sweep_and_its_workers(signum, code, tmp_path):
    # the signal unwinds through run_tasks, which kills and reaps both workers;
    # one stderr line, exit 128 + N and no output file
    with console_sweep(tmp_path) as (proc, workers, out):
        proc.send_signal(signum)
        stdout, stderr = proc.communicate(timeout=30)
        assert proc.returncode == code
        assert stdout == "" and stderr == f"interrupted: {signal.Signals(signum).name}\n"
        assert not out.exists()
        assert all(stat_fields(pid) is None for pid in workers)  # killed and reaped


@needs_fork
def test_workers_of_a_killed_parent_stop_at_their_next_task(tmp_path):
    # SIGKILL skips every handler and finally: each worker notices at its next
    # chunk (about 0.04 s at d = 9) that its parent is gone, not after its share
    with console_sweep(tmp_path) as (proc, workers, out):
        proc.kill()
        proc.wait(timeout=30)
        assert all(stopped(pid, within=3.0) for pid in workers)


# CI's grid run at --workers 1
GRID_RUN = ["grid", "--d", "3", "--r", "2", "--alpha-steps", "2", "--v-steps", "2",
            "--trials", "50", "--seed", "1", "--workers", "1"]


def console(*argv: str) -> subprocess.Popen:
    """The console script on argv, its stdout and stderr piped; without
    PYTHONUNBUFFERED its stdout is block-buffered, as in a shell pipeline."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = str(Path(cli.__file__).parents[1])
    return subprocess.Popen([sys.executable, "-m", "quditwitness", *argv], env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)


def test_console_csv_on_stdout_equals_out_file(tmp_path):
    out = tmp_path / "grid.csv"
    piped, to_file = console(*GRID_RUN), console(*GRID_RUN, "--out", str(out))
    assert to_file.communicate(timeout=60) == (b"", b"") and to_file.returncode == 0
    assert piped.communicate(timeout=60) == (out.read_bytes(), b"") and piped.returncode == 0


@pytest.mark.parametrize("argv, code, stdout", [
    (["--version"], 0, f"quditwitness {cli.__version__}\n".encode()),
    (["grid", "--d", "0", "--r", "2"], 2, b""),
])
def test_console_exit_codes(argv, code, stdout):
    proc = console(*argv)
    assert proc.communicate(timeout=60)[0] == stdout and proc.returncode == code


def test_console_closed_stdout_exit_3():
    # the reader of stdout is gone before the CSV is written: one line and exit 3,
    # not a BrokenPipeError traceback from interpreter teardown and exit 120
    with console(*GRID_RUN) as proc:
        proc.stdout.close()
        stderr = proc.stderr.read()
        assert proc.wait(timeout=60) == 3
    assert stderr == b"error: [Errno 32] Broken pipe\n"


def test_sweep_header_and_columns(tmp_path):
    out = tmp_path / "sweep.csv"
    assert main(["icps-sweep", "--d", "3", "--r", "2", "--mode", "single",
                 "--samples", "2000", "--seed", "5", "--workers", "1",
                 "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("# quditwitness ")
    assert lines[1] == "# command: icps-sweep"
    assert "seed=5" in lines[2] and "samples=2000" in lines[2]
    assert lines[3] == ("d,r,alpha,v,strategy,mode,samples,entangled,detected,"
                        "sensitivity,ci95,seed")
    rows = [ln.split(",") for ln in lines[4:]]
    assert len(rows) == 4  # three strategies + combined, single mode
    assert {row[4] for row in rows} == {"identity", "hadamard_b", "hadamard_both", "combined"}


def header_lines(argv: list[str], out) -> list[str]:
    assert main(argv + ["--workers", "1", "--out", str(out)]) == 0
    return out.read_text().splitlines()[:3]


def test_params_line_records_every_option(tmp_path):
    # pinned bytes: every option but --workers/--out, parser order, lists joined by '+'
    icps = header_lines(["icps-sweep", "--d", "3", "--r", "2", "--mode", "single",
                         "--strategies", "identity", "random_both", "--combined-selection",
                         "shared", "--ground-truth", "npt", "--samples", "200", "--seed", "5"],
                        tmp_path / "icps.csv")
    assert icps[2] == ("# params: d=3 r=2 mode=single strategies=identity+random_both "
                       "combined_selection=shared ground_truth=npt samples=200 seed=5")
    rand = header_lines(["random-sweep", "--d", "3", "--noise", "0.2", "0.55",
                         "--samples", "100", "--seed", "4"], tmp_path / "rand.csv")
    assert rand[1:] == ["# command: random-sweep",
                        "# params: d=3 noise=0.2+0.55 mode=both samples=100 seed=4"]


def test_grid_header_records_combined_selection(tmp_path):
    argv = ["grid", "--d", "3", "--r", "2", "--alpha-steps", "1", "--v-steps", "1",
            "--trials", "10", "--combined-selection"]
    fresh = header_lines(argv + ["fresh"], tmp_path / "fresh.csv")
    shared = header_lines(argv + ["shared"], tmp_path / "shared.csv")
    assert fresh[:2] == shared[:2] and fresh[2] != shared[2]
    assert fresh[2] == ("# params: d=3 r=2 alpha_steps=1 v_steps=1 trials=10 strategy=all "
                        "mode=single combined_selection=fresh seed=0")


def test_random_sweep(tmp_path):
    out = tmp_path / "rand.csv"
    assert main(["random-sweep", "--d", "3", "--noise", "0.2", "0.6", "--mode", "single",
                 "--samples", "3000", "--seed", "3", "--workers", "1", "--out", str(out)]) == 0
    lines = [ln for ln in out.read_text().splitlines() if not ln.startswith("#")]
    rows = [ln.split(",") for ln in lines[1:]]
    assert len(rows) == 2
    sens = float(rows[0][9])
    assert 0.9 <= sens <= 1.0  # 20% noise detects nearly always at d=3


def test_grid_output(tmp_path):
    out = tmp_path / "grid.csv"
    assert main(["grid", "--d", "3", "--r", "2", "--alpha-steps", "3", "--v-steps", "4",
                 "--trials", "200", "--strategy", "identity", "--seed", "2",
                 "--workers", "1", "--out", str(out)]) == 0
    lines = [ln for ln in out.read_text().splitlines() if not ln.startswith("#")]
    header = lines[0].split(",")
    assert header[-1] == "separable"
    rows = [ln.split(",") for ln in lines[1:]]
    assert len(rows) == 12
    for row in rows:
        if row[-1] == "true":
            assert float(row[9]) == 0.0  # no detections on separable cells


def test_grid_deterministic(tmp_path):
    args = ["grid", "--d", "3", "--r", "3", "--alpha-steps", "2", "--v-steps", "2",
            "--trials", "150", "--strategy", "all", "--seed", "8"]
    p1, p2 = tmp_path / "g1.csv", tmp_path / "g2.csv"
    assert main(args + ["--workers", "1", "--out", str(p1)]) == 0
    assert main(args + ["--workers", "2", "--out", str(p2)]) == 0
    assert p1.read_bytes() == p2.read_bytes()


def test_analytic_command(capsys):
    assert main(["analytic", "--d", "3", "--r", "2", "--alpha", "0.5"]) == 0
    out = capsys.readouterr().out
    assert "combined = 1/9" in out
    assert "scenario_ii = 1/9" in out
    assert "scenario_ii_unordered = 1/36" in out
    assert "v_a=" in out and "v_b=" in out


@pytest.mark.parametrize("argv", [
    ["icps-sweep", "--d", "3", "--r", "5"],
    ["icps-sweep", "--d", "1", "--r", "1"],
    ["grid", "--d", "2", "--r", "3"],
    ["random-sweep", "--d", "1", "--noise", "0.2"],
    ["analytic", "--d", "3", "--r", "5"],
    ["analytic", "--d", "3", "--r", "2", "--alpha", "2"],
])
def test_out_of_range_params_exit_3(argv, capsys):
    assert main(argv + (["--workers", "1"] if argv[0] != "analytic" else [])) == 3
    out, err = capsys.readouterr()
    assert out == "" and one_error_line(err)


def one_error_line(err: str) -> bool:
    return err.startswith("error: ") and err.count("\n") == 1


def test_removed_piecewise_ground_truth_exit_2(capsys):
    with pytest.raises(SystemExit) as info:
        main(["icps-sweep", "--d", "3", "--r", "2", "--ground-truth", "piecewise"])
    assert info.value.code == 2
    assert "--ground-truth" in capsys.readouterr().err


def test_repeated_strategies_exit_3(capsys):
    # one row per strategy name: a repeat would print one row holding the second count
    assert main(["icps-sweep", "--d", "3", "--r", "2", "--strategies", "identity", "identity",
                 "--mode", "single", "--samples", "100", "--workers", "1"]) == 3
    out, err = capsys.readouterr()
    assert out == "" and one_error_line(err) and "repeated strategy" in err


def test_random_sweep_nothing_entangled_leaves_sensitivity_empty(tmp_path):
    # noise 1.0 is the maximally mixed state: 0 entangled samples, no sensitivity
    out = tmp_path / "rand.csv"
    assert main(["random-sweep", "--d", "3", "--noise", "1.0", "--mode", "single",
                 "--samples", "200", "--seed", "1", "--workers", "1", "--out", str(out)]) == 0
    rows = [ln for ln in out.read_text().splitlines() if not ln.startswith("#")]
    assert rows[1:] == ["3,,,0.0,identity,single,200,0,0,,,1"]


@pytest.mark.parametrize("argv", [
    ["icps-sweep", "--d", "3", "--r", "2", "--workers", "1"],
    ["random-sweep", "--d", "3", "--noise", "0.2", "--workers", "1"],
    ["grid", "--d", "3", "--r", "2", "--workers", "1"],
    ["collective-verify"],
])
def test_negative_seed_exit_2(argv, capsys):
    with pytest.raises(SystemExit) as info:
        main(argv + ["--seed", "-1"])
    assert info.value.code == 2
    assert "--seed" in capsys.readouterr().err


def test_missing_state_file_exit_3(tmp_path, capsys):
    assert main(["fef", str(tmp_path / "missing.json")]) == 3
    out, err = capsys.readouterr()
    assert out == "" and one_error_line(err)


def test_out_into_missing_directory_exit_3(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(engine, "run_tasks", None)  # checked before any work starts
    out_path = tmp_path / "missing" / "x.csv"
    assert main(["random-sweep", "--d", "3", "--noise", "0.2", "--samples", "100",
                 "--workers", "1", "--out", str(out_path)]) == 3
    out, err = capsys.readouterr()
    assert out == "" and one_error_line(err) and "missing directory" in err
    assert not out_path.parent.exists()


def test_out_is_directory_exit_3(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(engine, "run_tasks", None)  # checked before any work starts
    (tmp_path / "keep.txt").write_text("kept")
    assert main(["grid", "--d", "3", "--r", "2", "--workers", "1", "--out", str(tmp_path)]) == 3
    out, err = capsys.readouterr()
    assert out == "" and one_error_line(err) and "names a directory" in err
    assert [p.name for p in tmp_path.iterdir()] == ["keep.txt"]


@pytest.mark.parametrize("entry, argv", [
    ("sweep_icps", ["icps-sweep", "--d", "3", "--r", "2"]),
    ("sweep_quasi_pure", ["random-sweep", "--d", "3", "--noise", "0.2"]),
    ("sweep_icps_grid", ["grid", "--d", "3", "--r", "2"]),
])
@pytest.mark.parametrize("exc", [MemoryError(), MemoryError("Unable to allocate 1.0 TiB")])
def test_memory_error_exit_4(entry, argv, exc, monkeypatch, capsys):
    def fail(*args, **kwargs):
        raise exc
    monkeypatch.setattr(cli, entry, fail)
    assert main(argv + ["--workers", "1"]) == 4
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("numeric failure: ") and err.count("\n") == 1
    assert (str(exc) or "MemoryError") in err


def test_collective_verify(capsys):
    assert main(["collective-verify", "--n", "50", "--seed", "1"]) == 0
    out = capsys.readouterr().out
    assert "settings=10" in out
    dev = float(out.split("=")[-1])
    assert dev < 1e-9


def test_version(capsys):
    with pytest.raises(SystemExit) as info:
        main(["--version"])
    assert info.value.code == 0


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="counts threads in /proc")
def test_import_leaves_one_blas_thread_unless_set():
    # importing the package before numpy keeps OpenBLAS to the main thread; a
    # caller's own OPENBLAS_NUM_THREADS is left as it is
    code = ("import os, quditwitness; "
            "print(len(os.listdir('/proc/self/task')), os.environ['OPENBLAS_NUM_THREADS'])")
    env = {k: v for k, v in os.environ.items() if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}
    env["PYTHONPATH"] = str(Path(cli.__file__).parents[1])

    def run(**extra) -> list[str]:
        return subprocess.run([sys.executable, "-c", code], env={**env, **extra}, check=True,
                              capture_output=True, text=True).stdout.split()
    assert run() == ["1", "1"]
    assert run(OPENBLAS_NUM_THREADS="2")[1] == "2"
