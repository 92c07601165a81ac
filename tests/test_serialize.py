import numpy as np
import pytest

from quditwitness import DensityMatrix, make_icps, IcpsParams
from quditwitness.serialize import (InvalidStateError, ParseError, density_from_csv,
                                    density_from_json, density_to_csv, density_to_json,
                                    load_density, save_density)
from conftest import random_density


def test_json_round_trip_exact(rng):
    rho = random_density(rng, 2, 3)
    back = density_from_json(density_to_json(rho))
    assert np.array_equal(back.mat, rho.mat)
    assert (back.dim_a, back.dim_b) == (2, 3)


def test_csv_round_trip_exact(rng):
    rho = random_density(rng, 3, 3)
    back = density_from_csv(density_to_csv(rho))
    assert np.array_equal(back.mat, rho.mat)


def test_file_round_trip(tmp_path, rng):
    rho = make_icps(IcpsParams(3, 2, 0.5, 0.7))
    for name in ("state.json", "state.csv"):
        path = tmp_path / name
        save_density(rho, path)
        back = load_density(path)
        assert np.array_equal(back.mat, rho.mat)


def test_parse_errors():
    with pytest.raises(ParseError):
        density_from_json("not json")
    with pytest.raises(ParseError):
        density_from_json('{"dimA": 2, "dimB": 2, "re": [1, 0], "im": [0, 0]}')
    with pytest.raises(ParseError):
        density_from_csv("1.0,0.0\n")
    with pytest.raises(ParseError):
        density_from_csv("# dimA=2 dimB=2\n1.0,0.0\n")


def test_invalid_state_reported():
    bad = DensityMatrix(2, 2, np.eye(4, dtype=complex) * 0.9 / 4)
    text = density_to_json(bad)
    with pytest.raises(InvalidStateError, match="trace"):
        density_from_json(text)
    with pytest.raises(InvalidStateError, match="trace"):
        density_from_csv(density_to_csv(bad))
