"""Exact relations over common random numbers: two evaluations that share every
draw must relate sample by sample and bit for bit, not only in distribution
(metamorphic testing: Chen, Cheung and Yiu, HKUST-CS98-01 (1998)).

Both relations here hold because the detection rule v|det M| - (1 - v)/D >
WITNESS_TOL/4 and the NPT rule round monotonically in v, and because no draw
depends on v."""
import numpy as np
import pytest

from quditwitness import LutKind, engine


@pytest.mark.parametrize("d, r", [(3, 2), (9, 9), (20, 4)])  # d = 20: the drawn classes
@pytest.mark.parametrize("mode", ["single", "parallel"])
@pytest.mark.parametrize("shared", [False, True])
def test_hits_never_drop_a_flag_as_visibility_rises(d, r, mode, shared):
    # two _hits calls from identical generators draw the same unitaries and selections
    rng = np.random.default_rng(100 * d + r)
    n = 1000
    alpha = rng.uniform(0.0, 1.0 / np.sqrt(r - 1), n)
    low = rng.uniform(0.0, 1.0, n)
    high = np.minimum(low + rng.uniform(0.0, 0.2, n) * (rng.random(n) < 0.8), 1.0)
    low_hit, high_hit = (engine._hits([np.random.default_rng(7)], n, alpha, vis, d, r,
                                      tuple(LutKind), (mode,), shared) for vis in (low, high))
    assert not (low_hit & ~high_hit).any()
    assert (high_hit & ~low_hit).any()  # some flag rises: the relation is not vacuous


@pytest.mark.parametrize("d", [3, 9, 20])
def test_quasi_flags_never_drop_a_flag_as_noise_falls(d):
    # one _quasi_flags call scores every noise level on the same states and selections;
    # noise levels unsorted and repeated, near 0.8-0.9 at d = 9 where the SVD scores rows
    noises = (0.9, 0.1, 0.5, 0.99, 0.8, 0.5, 0.0, 1.0, 0.95, 0.3)
    _, ent, hit = engine._quasi_flags(d, 0, 2000, d, noises, ("single", "parallel"))
    rising = np.argsort(noises, kind="stable")[::-1]  # visibility 1 - noise rising
    for flags in (ent, hit):
        f = flags[rising]
        assert not (f[:-1] & ~f[1:]).any()
        assert not f[0].any() and f[-1].any()  # nothing at v = 0, something at v = 1
