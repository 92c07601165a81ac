import json

import numpy as np
import pytest

from quditwitness import DensityMatrix, maximally_mixed
from quditwitness import cli
from quditwitness.cli import main
from quditwitness.serialize import save_density

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
BAD_STATES = {  # file name -> (text, expected message)
    "zero.json": (json.dumps({"dimA": 0, "dimB": 2, "re": [], "im": []}), "must be positive"),
    "negative.json": (json.dumps({"dimA": -2, "dimB": -2, "re": MIXED.ravel().tolist(),
                                  "im": [0.0] * 16}), "must be positive"),
    "zero.csv": (csv_state("dimA=0 dimB=0", []), "must be positive"),
    "negative.csv": (csv_state("dimA=-1 dimB=-1", [[1.0]]), "must be positive"),
    "nan.json": (json.dumps({"dimA": 2, "dimB": 2, "re": [float("nan"), *MIXED.ravel()[1:]],
                             "im": [0.0] * 16}), "non-finite"),  # json writes a bare NaN
    "nan.csv": (csv_state("dimA=2 dimB=2", NAN_DIAG), "non-finite"),
    "inf.csv": (csv_state("dimA=2 dimB=2", INF_PAIR), "non-finite"),
}


@pytest.mark.parametrize("name", BAD_STATES)
def test_fef_bad_state_file_exit_3(tmp_path, capsys, name):
    text, message = BAD_STATES[name]
    path = tmp_path / name
    path.write_text(text)
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


def test_bad_workers_env_exit_2(monkeypatch, capsys):
    # the variable gets the same check as --workers: non-integers and values < 1
    argv = ["random-sweep", "--d", "3", "--noise", "0.2", "--samples", "100"]
    for value in ("abc", "0", "-3"):
        monkeypatch.setenv("QUDITWITNESS_WORKERS", value)
        with pytest.raises(SystemExit) as info:
            main(["--version"])
        assert info.value.code == 0
        capsys.readouterr()
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert out == "" and one_error_line(err) and "QUDITWITNESS_WORKERS" in err
        # an explicit --workers never reads the variable
        assert main(argv + ["--workers", "1"]) == 0


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


def test_out_into_missing_directory_exit_3(tmp_path, capsys):
    out_path = tmp_path / "missing" / "x.csv"
    assert main(["random-sweep", "--d", "3", "--noise", "0.2", "--samples", "100",
                 "--workers", "1", "--out", str(out_path)]) == 3
    out, err = capsys.readouterr()
    assert out == "" and one_error_line(err)
    assert not out_path.exists()


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
