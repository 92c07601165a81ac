import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose

from quditwitness import ginibre, haar_state, haar_unitary, linalg, substream
from quditwitness.witness import score_from_t
from conftest import one_call_haar_unitary

# The witness score is Tr sqrt(T^T T) - 1, computed as the sum of the singular
# values of T; these checks pin that linear-algebra identity on score_from_t.

def test_singular_values_examples():
    assert abs(score_from_t(np.diag([1.0, -1.0, 1.0])) - 2.0) <= 1e-12
    assert abs(score_from_t(np.zeros((3, 3))) + 1.0) <= 1e-12
    assert abs(score_from_t(np.diag([0.3, 0.3, 1.0])) - 0.6) <= 1e-12


def test_singular_values_match_sqrt_of_gram(rng):
    # independent oracle: sum of singular values = Tr sqrt(T^T T) by eigenvalues
    for _ in range(20):
        t = rng.standard_normal((3, 3))
        gram_eigs = np.linalg.eigvalsh(t.T @ t)
        assert abs(score_from_t(t) + 1.0 - np.sqrt(np.clip(gram_eigs, 0, None)).sum()) <= 1e-10


def test_singular_values_rotation_invariant(rng):
    t = rng.standard_normal((3, 3))
    for _ in range(5):
        q1, _ = np.linalg.qr(rng.standard_normal((3, 3)))
        q2, _ = np.linalg.qr(rng.standard_normal((3, 3)))
        assert abs(score_from_t(q1 @ t @ q2) - score_from_t(t)) <= 1e-10


def test_haar_unitary_unitarity_and_scalar_case(rng):
    for dim in (1, 2, 3, 5, 9):
        u = haar_unitary(dim, rng)
        assert np.abs(u.conj().T @ u - np.eye(dim)).max() <= 1e-10
    u1 = haar_unitary(1, rng)
    assert abs(abs(u1[0, 0]) - 1.0) <= 1e-12


def test_haar_unitary_deterministic():
    a = haar_unitary(4, substream(123, 0))
    b = haar_unitary(4, substream(123, 0))
    assert np.array_equal(a, b)


def test_haar_unitary_column_uniformity():
    # E|U_00|^2 = 1/dim for Haar; Monte Carlo oracle at dim 4
    u = haar_unitary(4, substream(7, 1), size=100_000)
    mean = (np.abs(u[:, 0, 0]) ** 2).mean()
    assert abs(mean - 0.25) <= 0.005


def test_haar_state_distribution_matches_rotated_reference():
    # |<e_0|psi>|^2 is Beta(1, D-1): mean 1/D, second moment 2/(D(D+1))
    dim = 9
    n = 40_000
    gauss = haar_state(dim, substream(11, 0), size=n)
    rotated = haar_unitary(dim, substream(11, 1), size=n)[:, :, 0]
    for sample in (gauss, rotated):
        assert_allclose(np.linalg.norm(sample, axis=1), 1.0, atol=1e-12)
        x = np.abs(sample[:, 0]) ** 2
        assert abs(x.mean() - 1 / dim) <= 4 * np.sqrt(1 / dim ** 2 / n) * 2
        assert abs((x ** 2).mean() - 2 / (dim * (dim + 1))) <= 5e-4


# The two-array construction the in-place fill replaces, written out: a single
# draw must keep its values and the generator's position bit for bit, and a
# stack of n must equal n of them in sequence.
def two_array_ginibre(dim, rng):
    return rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))


def two_array_haar_unitary(dim, rng):
    q, r = np.linalg.qr(two_array_ginibre(dim, rng))
    diag = np.diagonal(r)
    return q * (diag / np.abs(diag))[None, :]


def two_array_haar_state(dim, rng):
    z = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return z / np.linalg.norm(z, axis=-1, keepdims=True)


@pytest.mark.parametrize("draw, reference, per_sample", [
    (haar_state, two_array_haar_state, lambda dim: dim),
    (ginibre, two_array_ginibre, lambda dim: dim * dim),
    (haar_unitary, two_array_haar_unitary, lambda dim: dim * dim)],
    ids=["haar_state", "ginibre", "haar_unitary"])
@pytest.mark.parametrize("dim", [2, 9, 81])
@pytest.mark.parametrize("size", [None, 1, "past a slice"])
def test_in_place_fill_equals_two_array_construction(draw, reference, per_sample, dim, size):
    if size == "past a slice":  # more than one fill slice, and not a multiple of it
        size = linalg.SLICE_ENTRIES // per_sample(dim) + 3
        assert size * per_sample(dim) % linalg.SLICE_ENTRIES != 0
    new, old = np.random.default_rng(dim), np.random.default_rng(dim)
    got = draw(dim, new, size=size)
    expected = (reference(dim, old) if size is None
                else np.stack([reference(dim, old) for _ in range(size)]))
    assert got.shape == expected.shape and got.dtype == expected.dtype
    assert got.tobytes() == expected.tobytes()
    assert new.random() == old.random()  # the next draw too


@pytest.mark.parametrize("draw, per_sample", [
    (haar_state, lambda dim: dim), (ginibre, lambda dim: dim * dim),
    (haar_unitary, lambda dim: dim * dim)], ids=["haar_state", "ginibre", "haar_unitary"])
@pytest.mark.parametrize("dim", [0, 1, 3, 64])
@pytest.mark.parametrize("size", [0, 1, "past a slice"])
def test_stack_equals_single_draws_in_sequence(monkeypatch, draw, per_sample, dim, size):
    # so any run of rows of a stack can be drawn alone, as random-sweep's chunks do
    monkeypatch.setattr(linalg, "SLICE_ENTRIES", 50)  # the budget is read at call time
    if size == "past a slice":  # more rows than one slice holds
        size = 50 // max(per_sample(dim), 1) + 3
    new, old = np.random.default_rng(dim), np.random.default_rng(dim)
    got = draw(dim, new, size=size)
    singles = [draw(dim, old) for _ in range(size)]
    assert got.shape == (size, *draw(dim, np.random.default_rng(0)).shape)
    assert got.tobytes() == b"".join(x.tobytes() for x in singles)
    assert new.random() == old.random()  # the next draw too


def test_haar_state_slices_refill_two_arrays(monkeypatch):
    # random-sweep's chunks draw through it: every slice is written over the same two
    # arrays, and the caller may overwrite the scratch one without changing a later slice
    monkeypatch.setattr(linalg, "SLICE_ENTRIES", 50)  # slices of 5 rows, the last of 3
    n, dim = 23, 9
    rng = np.random.default_rng(1)
    expected = np.stack([two_array_haar_state(dim, rng) for _ in range(n)])
    first = None
    for s, z, work in linalg.haar_state_slices(dim, np.random.default_rng(1), n):
        assert z.tobytes() == expected[s].tobytes() and work.shape == z.shape
        first = first or (z, work)
        assert np.shares_memory(z, first[0]) and np.shares_memory(work, first[1])
        work[:] = np.nan
    assert s == slice(20, 25)


def test_haar_state_holds_one_result_sized_array():
    # numpy reports its allocations to tracemalloc; the random-sweep chunk at d = 9
    rng = np.random.default_rng(4)
    tracemalloc.start()
    try:
        z = haar_state(81, rng, size=16384)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= z.nbytes + 2 * 2 ** 20


@pytest.mark.parametrize("dim", [0, 1, 2, 3, 8, 9, 17, 64])
@pytest.mark.parametrize("size", [None, 1, "past a slice"])
def test_sliced_qr_equals_one_call_qr(dim, size):
    if size == "past a slice":  # one matrix more than a fill slice holds: several QR slices
        size = max(1, linalg.SLICE_ENTRIES // max(dim * dim, 1)) + 1
    new, old = np.random.default_rng(dim), np.random.default_rng(dim)
    got, expected = haar_unitary(dim, new, size=size), one_call_haar_unitary(dim, old, size)
    assert got.shape == expected.shape and got.dtype == expected.dtype
    assert got.tobytes() == expected.tobytes()
    assert new.random() == old.random()  # the next draw too


def test_haar_unitary_holds_one_result_sized_array():
    # the QR runs in slices over the Ginibre buffer, with no whole-stack Q and R
    rng = np.random.default_rng(5)
    tracemalloc.start()
    try:
        u = haar_unitary(17, rng, size=2000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= u.nbytes + 2 * 2 ** 20


@pytest.mark.parametrize("dim", [9, 32, 90, 91])
def test_qr_slices_stay_under_the_mmap_threshold(monkeypatch, dim):
    # a QR slice is QR_ENTRIES entries or one matrix, so up to d = 90 each array of a slice
    # stays under glibc's default 128 KiB mmap threshold and reuses heap memory
    slices, phase_fixed_q = [], linalg._phase_fixed_q
    monkeypatch.setattr(linalg, "_phase_fixed_q", lambda g: slices.append(g.shape) or phase_fixed_q(g))
    haar_unitary(dim, np.random.default_rng(dim), size=40)
    assert sum(n for n, *_ in slices) == 40
    assert all(n == max(1, linalg.QR_ENTRIES // (dim * dim)) for n, *_ in slices[:-1])
    assert all((n * dim * dim * 16 < 128 * 1024) == (dim <= 90) for n, *_ in slices)


@pytest.mark.parametrize("cap", [1, 7, 1 << 15])
@pytest.mark.parametrize("n, row_entries", [(0, 4), (1, 81), (100, 1), (100, 3), (5, 0), (3, 10 ** 6)])
def test_row_slices_cover_rows_within_the_budget(monkeypatch, cap, n, row_entries):
    monkeypatch.setattr(linalg, "SLICE_ENTRIES", cap)  # the budget is read at call time
    rows = [list(range(n))[s] for s in linalg.row_slices(n, row_entries)]
    assert sum(rows, []) == list(range(n))
    assert all(len(r) == 1 or len(r) * row_entries <= cap for r in rows)
    # every slice but the last is as long as the budget allows, and none is empty
    step = max(1, cap // max(row_entries, 1))
    assert all(len(r) == step for r in rows[:-1]) and all(rows)
