import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal, assert_equal

from quditwitness import (DensityMatrix, IcpsGroundTruth, IcpsParams, LevelSelection, LutKind,
                          LutStrategy, Mode, QuasiPureParams, ZeroProbabilityError, apply_lut,
                          conditioning_threshold, fef_witness, haar_unitary, make_icps,
                          make_quasi_pure, maximally_mixed, qudit_hadamard, random_selections,
                          reduce_to_two_qubits, substream)
from quditwitness import linalg
from quditwitness.transforms import _fill_selections, _local_unitaries, _selection_array
from conftest import conjugated_by_kron, ordered_classes, random_density, tiled_selections


def test_qudit_hadamard_d2():
    assert_allclose(qudit_hadamard(2), np.array([[1, 1], [1, -1]]) / np.sqrt(2), atol=1e-15)


def test_qudit_hadamard_d3_row():
    w = np.exp(2j * np.pi / 3)
    assert_allclose(qudit_hadamard(3)[1], np.array([1, w, w ** 2]) / np.sqrt(3), atol=1e-15)


@pytest.mark.parametrize("d", range(2, 10))
def test_qudit_hadamard_unitary(d):
    h = qudit_hadamard(d)
    assert np.abs(h.conj().T @ h - np.eye(d)).max() <= 1e-10


def test_apply_lut_identity_is_noop():
    rho = make_icps(IcpsParams(3, 2, 0.5, 0.9))
    assert apply_lut(rho, LutStrategy.identity()) is rho


@pytest.mark.parametrize("size", [None, 6])
@pytest.mark.parametrize("kind", list(LutKind))
@pytest.mark.parametrize("d", [2, 5])
def test_local_unitaries_are_always_unitary_matrices(d, kind, size, rng):
    # shared (d, d) or per-sample (size, d, d), never None; the identity is np.eye(d) on both sides
    u, v = _local_unitaries(d, LutStrategy(kind), rng, size=size)
    for w in (u, v):
        assert isinstance(w, np.ndarray) and w.shape in ((d, d), (size, d, d))
        assert np.abs(np.swapaxes(w, -1, -2).conj() @ w - np.eye(d)).max() <= 1e-10
    if kind is LutKind.IDENTITY:
        assert_array_equal(u, np.eye(d))
        assert_array_equal(v, np.eye(d))


def test_apply_lut_preserves_maximally_mixed():
    rho = maximally_mixed(3, 3)
    out = apply_lut(rho, LutStrategy.hadamard_both())
    assert_allclose(out.mat, rho.mat, atol=1e-12)


@pytest.mark.parametrize("state", ["pure_noise", "ginibre"])
@pytest.mark.parametrize("kind", list(LutKind))
@pytest.mark.parametrize("d", range(2, 7))
def test_apply_lut_matches_kron_reference(d, kind, state):
    rng = substream(20, d)
    if state == "pure_noise":
        rho = make_quasi_pure(QuasiPureParams(d, 0.6), rng)
    else:
        rho = random_density(rng, d, d)
    h, eye = qudit_hadamard(d), np.eye(d)
    u, v = {LutKind.IDENTITY: (eye, eye), LutKind.HADAMARD_B: (eye, h),
            LutKind.HADAMARD_BOTH: (h, h),
            LutKind.RANDOM_BOTH: (haar_unitary(d, rng), haar_unitary(d, rng))}[kind]
    if kind is LutKind.RANDOM_BOTH:  # a transposed or swapped factor would show
        assert min(np.abs(u - u.T).max(), np.abs(v - v.T).max(), np.abs(u - v).max()) > 1e-3
    pinned = (u, v) if kind is LutKind.RANDOM_BOTH else (None, None)
    got = apply_lut(rho, LutStrategy(kind, *pinned))
    assert got.mat.shape == (d * d, d * d) and not got.mat.flags.writeable
    assert abs(got.mat.trace() - 1.0) <= 1e-12
    assert_allclose(got.mat, conjugated_by_kron(rho.mat, u, v), rtol=0, atol=1e-12)


def test_apply_lut_random_both_needs_rng():
    rho = maximally_mixed(3, 3)
    with pytest.raises(ValueError):
        apply_lut(rho, LutStrategy.random_both())


def test_lut_strategy_rejects_non_unitary():
    with pytest.raises(ValueError):
        LutStrategy.random_both(u_a=np.ones((2, 2), dtype=complex), v_b=np.eye(2, dtype=complex))


def test_lut_strategy_kind_is_a_lut_kind():
    # a name acts as its kind: the identity is the identity, never a Haar draw
    rho = maximally_mixed(3, 3)
    for kind in LutKind:
        assert LutStrategy(kind.value).kind is kind
    assert apply_lut(rho, LutStrategy("identity")) is rho
    assert_array_equal(apply_lut(rho, LutStrategy("hadamard_both")).mat,
                       apply_lut(rho, LutStrategy.hadamard_both()).mat)
    with pytest.raises(ValueError):
        LutStrategy("bogus")


@pytest.mark.parametrize("kind", [LutKind.IDENTITY, LutKind.HADAMARD_B, LutKind.HADAMARD_BOTH])
def test_lut_strategy_pins_only_random_both(kind):
    h = qudit_hadamard(3)
    for pinned in ({"u_a": h}, {"v_b": h}, {"u_a": h, "v_b": h}):
        with pytest.raises(ValueError, match="only random_both"):
            LutStrategy(kind, **pinned)
    assert LutStrategy(LutKind.RANDOM_BOTH, v_b=h).u_a is None


def test_lut_strategy_compares_and_hashes_as_a_value():
    h, eye = qudit_hadamard(3), np.eye(3, dtype=complex)
    a = LutStrategy.random_both(h, eye)
    same = LutStrategy.random_both(np.array(h), np.array(eye))  # equal arrays, other objects
    for other in (LutStrategy.random_both(eye, h), LutStrategy.random_both(h),
                  LutStrategy.random_both(), LutStrategy.hadamard_both()):
        assert a != other and not a == other
    assert a == same and not a != same and hash(a) == hash(same)
    assert len({a, same, LutStrategy.random_both(eye, h)}) == 2
    assert LutStrategy.random_both() == LutStrategy("random_both")
    for kind in LutKind:
        by_name, by_kind = LutStrategy(kind.value), LutStrategy(kind)
        assert by_name == by_kind and not by_name != by_kind and hash(by_name) == hash(by_kind)
    assert LutStrategy("identity") != LutStrategy("hadamard_b")
    assert len(set(map(LutStrategy, LutKind)) | set(LutStrategy(k.value) for k in LutKind)) == 4


def test_random_selection_d2_and_determinism():
    sel = random_selections(substream(0, 0), 2, 100, "single")
    assert set(map(tuple, sel[:, 0, :2].tolist())) == {(0, 1), (1, 0)}
    a = random_selections(substream(42, 1), 5, 1, "single")
    b = random_selections(substream(42, 1), 5, 1, "single")
    assert_array_equal(a, b)
    for mode in ("single", "parallel"):
        with pytest.raises(ValueError):
            random_selections(substream(0, 0), 1, 1, mode)


def stacked_selections(rng, d: int, n: int, mode: str) -> np.ndarray:
    """random_selections built as each side's own array, then np.stack and
    np.concatenate: the construction the one-array draw must reproduce."""
    def draw() -> np.ndarray:
        if mode == "parallel":
            perm = rng.permuted(np.tile(np.arange(d), (n, 1)), axis=1)
            return perm[:, : d // 2 * 2].reshape(n, -1, 2)
        i = rng.integers(0, d, size=n)
        j = rng.integers(0, d - 1, size=n)
        return np.stack([i, j + (j >= i)], axis=1)[:, None, :]
    return np.concatenate([draw(), draw()], axis=2)


@pytest.mark.parametrize("d", range(2, 10))
def test_random_selections_equal_stacked_construction(d):
    for mode in ("single", "parallel"):
        for n in (1, 7, 16384):
            for seed in range(3):
                expected_rng, rng = np.random.default_rng(seed), np.random.default_rng(seed)
                expected = stacked_selections(expected_rng, d, n, mode)
                got = random_selections(rng, d, n, mode)
                assert got.dtype == np.min_scalar_type(d - 1) and got.shape == expected.shape
                assert_array_equal(got, expected)
                assert rng.bit_generator.state == expected_rng.bit_generator.state


@pytest.mark.parametrize("d", [5, 9, 17, 257])
@pytest.mark.parametrize("mode", ["single", "parallel"])
def test_run_fill_equals_each_members_own_draws(d, mode):
    # a grid run's selections are one array that each of its cells (members) fills in turn
    # from its own generator, and a fresh draw refills: every member's rows must be the
    # random_selections draws it would make alone, two-byte levels at d = 257 included, and
    # leave its generator where those draws leave it
    n, members = 37, 3
    run, alone = ([substream(d, cell) for cell in range(members)] for _ in range(2))
    sel = _selection_array(d, members * n, mode)
    for _ in range(2):  # the second fill overwrites the first
        _fill_selections(run, d, mode, sel)
        assert sel.dtype == np.min_scalar_type(d - 1)
        for i, (got, own) in enumerate(zip(run, alone)):
            assert_array_equal(sel[i * n:(i + 1) * n], random_selections(own, d, n, mode))
            assert_equal(got.bit_generator.state, own.bit_generator.state)  # Philox: arrays


@pytest.mark.parametrize("d", [2, 3, 8, 9, 17, 64])
@pytest.mark.parametrize("mode", ["single", "parallel"])
@pytest.mark.parametrize("n", [1, "past a slice"])
def test_one_buffer_selections_equal_tiled_construction(d, mode, n):
    if n == "past a slice":
        n = linalg.SLICE_ENTRIES // d + 1
    new, old = np.random.default_rng(d), np.random.default_rng(d)
    got, expected = random_selections(new, d, n, mode), tiled_selections(old, d, n, mode)
    assert got.dtype == np.min_scalar_type(d - 1) and got.shape == expected.shape
    assert_array_equal(got, expected)
    assert new.random() == old.random()  # the next draw too


def test_unknown_mode_raises_before_any_draw():
    rng = np.random.default_rng(3)
    state = rng.bit_generator.state
    with pytest.raises(ValueError, match="paralel"):
        random_selections(rng, 5, 2, "paralel")
    assert rng.bit_generator.state == state
    assert random_selections(rng, 5, 2, Mode.PARALLEL).shape == (2, 2, 4)


def test_qudit_hadamard_is_shared_and_read_only():
    h = qudit_hadamard(5)
    assert qudit_hadamard(5) is h
    with pytest.raises(ValueError, match="read-only"):
        h[0, 0] = 0


@pytest.mark.parametrize("mode", ["single", "parallel"])
def test_random_selection_uniform_over_ordered_pairs(mode):
    n = 100_000
    sel = random_selections(substream(17, 0), 4, n, mode)
    assert sel.shape == (n, 1 if mode == "single" else 2, 4)
    for slot in range(sel.shape[1]):  # each pair slot, on each side
        for side in (sel[:, slot, :2], sel[:, slot, 2:]):
            pairs, counts = np.unique(side, axis=0, return_counts=True)
            assert len(pairs) == 12 and (pairs[:, 0] != pairs[:, 1]).all()
            for c in counts:
                assert abs(c / n - 1 / 12) <= 0.004


def test_reduce_maximally_mixed():
    for d in (3, 5):
        rho = maximally_mixed(d, d)
        rho2, prob = reduce_to_two_qubits(rho, LevelSelection(0, 1, 2 % d, 0))
        assert_allclose(rho2.mat, np.eye(4) / 4, atol=1e-12)
        assert abs(prob - 4 / d ** 2) <= 1e-12


def test_reduce_schmidt_pair_gives_bell():
    rho = make_icps(IcpsParams(3, 2, 1 / np.sqrt(2), 1.0))
    rho2, prob = reduce_to_two_qubits(rho, LevelSelection(0, 1, 0, 1))
    bell = np.array([1, 0, 0, 1]) / np.sqrt(2)
    assert_allclose(rho2.mat, np.outer(bell, bell), atol=1e-12)
    assert abs(prob - 1.0) <= 1e-12


def test_reduce_outside_schmidt_support_gives_product():
    rho = make_icps(IcpsParams(3, 2, 1 / np.sqrt(2), 1.0))
    rho2, prob = reduce_to_two_qubits(rho, LevelSelection(0, 2, 0, 2))
    expect = np.zeros((4, 4))
    expect[0, 0] = 1.0
    assert_allclose(rho2.mat, expect, atol=1e-12)
    assert abs(prob - 0.5) <= 1e-12


def test_reduce_zero_probability():
    rho = make_icps(IcpsParams(3, 2, 1 / np.sqrt(2), 1.0))
    with pytest.raises(ZeroProbabilityError):
        reduce_to_two_qubits(rho, LevelSelection(1, 2, 0, 2))


def test_reduce_basis_order():
    # pure |1>_A |2>_B with selection a=(1,0), b=(0,2) must land on |0>_A |1>_B
    psi = np.zeros(9, dtype=complex)
    psi[1 * 3 + 2] = 1.0
    rho = DensityMatrix.from_pure(psi, 3, 3)
    rho2, _ = reduce_to_two_qubits(rho, LevelSelection(1, 0, 0, 2))
    expect = np.zeros((4, 4))
    expect[1, 1] = 1.0  # |01>
    assert_allclose(rho2.mat, expect, atol=1e-14)


def test_reduce_rejects_out_of_range_levels():
    rho = maximally_mixed(3, 3)
    with pytest.raises(ValueError):
        reduce_to_two_qubits(rho, LevelSelection(0, 3, 0, 1))


def test_selection_requires_distinct_levels():
    with pytest.raises(ValueError):
        LevelSelection(1, 1, 0, 2)


def test_simultaneous_swap_leaves_score_unchanged(rng):
    for _ in range(10):
        rho = random_density(rng, 4, 4)
        sel = LevelSelection(*random_selections(rng, 4, 1, "single")[0, 0].tolist())
        s1 = fef_witness(reduce_to_two_qubits(rho, sel)[0]).score
        swapped = LevelSelection(sel.a1, sel.a0, sel.b1, sel.b0)
        s2 = fef_witness(reduce_to_two_qubits(rho, swapped)[0]).score
        assert abs(s1 - s2) <= 1e-10


def test_ppt_icps_never_detected_small():
    # quick soundness pass; the full-scale version lives in the acceptance suite
    rng = substream(99, 0)
    for _ in range(25):
        d = int(rng.integers(2, 5))
        r = int(rng.integers(2, d + 1))
        alpha = rng.uniform(0.05, 1 / np.sqrt(r - 1) - 0.05)
        v = rng.uniform(0, 1) * conditioning_threshold(d, r, alpha, IcpsGroundTruth.NPT) * 0.999
        rho = make_icps(IcpsParams(d, r, alpha, v))
        for strat in (LutStrategy.identity(), LutStrategy.hadamard_b(), LutStrategy.hadamard_both()):
            transformed = apply_lut(rho, strat, rng)
            for sel in (LevelSelection(*row) for row in ordered_classes(d)):
                assert not fef_witness(reduce_to_two_qubits(transformed, sel)[0]).detected
