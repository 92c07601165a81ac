"""Property tests (hypothesis) for the vectorised sweep kernels, the sweeps'
detection rule, the random-sweep ground truth, the conditioning rule and the
CSV header."""
import io
from contextlib import redirect_stdout

import numpy as np
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose, assert_array_equal

from quditwitness import NPT_TOL, WITNESS_TOL, LutKind, LutStrategy, cli, engine
from quditwitness.linalg import ginibre, haar_state
from quditwitness.oracles import IcpsGroundTruth, conditioning_threshold, npt_threshold
from quditwitness.transforms import _local_unitaries
from quditwitness.witness import pure_noise_detected, scores_from_submatrices

SHARED_KINDS = (LutKind.IDENTITY, LutKind.HADAMARD_B, LutKind.HADAMARD_BOTH)


@st.composite
def schmidt_cases(draw):
    d = draw(st.integers(2, 9))
    r = draw(st.integers(2, d))
    amax = 1.0 / np.sqrt(r - 1)
    alpha = draw(st.lists(st.floats(0.0, amax), min_size=1, max_size=8))
    return d, r, np.minimum(np.array(alpha), amax), draw(st.sampled_from(["single", "parallel"]))


@settings(max_examples=60, deadline=None)
@given(case=schmidt_cases(), kind=st.sampled_from(SHARED_KINDS), seed=st.integers(0, 2 ** 32 - 1))
def test_table_amplitudes_equal_local_unitary_product(case, kind, seed):
    d, r, alpha, mode = case
    n = len(alpha)
    u, v = _local_unitaries(d, LutStrategy(kind), None)
    s = np.zeros((n, d))
    s[:, : r - 1] = alpha[:, None]
    s[:, r - 1] = np.sqrt(np.maximum(1 - (r - 1) * alpha ** 2, 0))
    uu, vv = (np.eye(d) if w is None else w for w in (u, v))
    m = np.einsum("qk,nk,pk->nqp", uu, s, vv)  # U diag(s) V^T per sample
    sel = engine._selections(np.random.default_rng(seed), d, n, mode)
    amps = list(engine._schmidt_amps(sel, alpha, d, r, u, v))
    assert len(amps) == (1 if mode == "single" else d // 2)
    for p, got in enumerate(amps):
        a, b = sel[:, p, :2], sel[:, p, 2:]
        expected = m[np.arange(n)[:, None, None], a[:, :, None], b[:, None, :]]
        assert_allclose(got, expected.reshape(n, 4), atol=1e-14)


@settings(max_examples=60, deadline=None)
@given(case=schmidt_cases(), data=st.data(), shared=st.booleans(),
       seed=st.integers(0, 2 ** 32 - 1))
def test_sweep_kernel_never_detects_below_npt_threshold(case, data, shared, seed):
    # a 2x2 block of U diag(s) V^T has |det| <= s_1 s_2, so no selection under
    # any local unitary detects a state below the exact boundary
    d, r, alpha, mode = case
    frac = data.draw(st.lists(st.floats(0.0, 1.0), min_size=len(alpha), max_size=len(alpha)))
    vis = np.array(frac) * (1 - 1e-9) * npt_threshold(d, r, alpha)
    counts = engine._schmidt_detections(np.random.default_rng(seed), alpha, vis,
                                        np.ones(len(alpha), dtype=bool), d, r,
                                        tuple(LutKind), mode, shared)
    assert counts == [0] * (len(LutKind) + 1)


@st.composite
def npt_cases(draw):
    """Unit-norm states z (n, d, d), some of them a product state plus a 1e-9
    perturbation, and visibilities: 0, 1, each row's NPT boundary and its
    neighbours 1 ulp away, and random ones; shuffled, some repeated."""
    d = draw(st.integers(2, 12))
    n = draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    z = ginibre(d, rng, size=n)
    product = haar_state(d, rng, size=n)[:, :, None] * haar_state(d, rng, size=n)[:, None, :]
    near_product = np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)))
    z = np.where(near_product[:, None, None], product + 1e-9 * z, z)
    z /= np.linalg.norm(z, axis=(1, 2), keepdims=True)
    lam = np.linalg.svd(z, compute_uv=False)
    # the boundary v solves v lam0 lam1 = (1 - v) / d^2 + NPT_TOL
    edge = (1 / d ** 2 + NPT_TOL) / (lam[:, 0] * lam[:, 1] + 1 / d ** 2)
    vis = [0.0, 1.0, *edge, *np.nextafter(edge, 0.0), *np.nextafter(edge, 2.0),
           *draw(st.lists(st.floats(0.0, 1.0), max_size=4))]
    order = draw(st.permutations(range(len(vis))))
    repeats = draw(st.lists(st.sampled_from(range(len(vis))), max_size=3))
    return z, d, np.minimum(vis, 1.0)[order + repeats]


@settings(max_examples=300, deadline=None)
@given(case=npt_cases())
def test_npt_masks_equal_the_svd_expression(case):
    z, d, vis = case
    lam = np.linalg.svd(z, compute_uv=False)
    expected = [v * lam[:, 0] * lam[:, 1] - (1.0 - v) / (d * d) > NPT_TOL for v in vis.tolist()]
    assert_array_equal(engine._npt_masks(z, d, vis), expected)


@st.composite
def pure_noise_cases(draw):
    """Selected amplitudes m (rows, 4) of norm <= 1, a product plus a
    perturbation of relative size 0, 1e-9, 1e-6 or 1, each at visibilities 0,
    1, the rule's boundary and 1 ulp either side, and random ones; D = d^2."""
    d = draw(st.integers(2, 9))
    n = draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    product = np.einsum("ni,nj->nij", *rng.standard_normal((2, n, 2))).reshape(n, 4)
    eps = draw(st.lists(st.sampled_from([0.0, 1e-9, 1e-6, 1.0]), min_size=n, max_size=n))
    generic = rng.standard_normal((n, 4)) + 1j * rng.standard_normal((n, 4))
    m = product + np.array(eps)[:, None] * generic
    norm = draw(st.lists(st.sampled_from([0.0, 1e-8, 1e-3, 1.0]) | st.floats(0.0, 1.0),
                         min_size=n, max_size=n))
    m *= np.array(norm)[:, None] / np.linalg.norm(m, axis=1, keepdims=True)
    det = np.abs(m[:, 0] * m[:, 3] - m[:, 1] * m[:, 2])
    # the boundary v solves v |det M| = (1 - v) / D + WITNESS_TOL / 4
    edge = np.minimum((1 / d ** 2 + WITNESS_TOL / 4) / (det + 1 / d ** 2), 1.0)
    vis = [np.zeros(n), np.ones(n), edge, np.nextafter(edge, 0.0), np.nextafter(edge, 1.0),
           *(np.full(n, v) for v in draw(st.lists(st.floats(0.0, 1.0), max_size=3)))]
    return np.tile(m, (len(vis), 1)), np.concatenate(vis), d * d


@settings(max_examples=300, deadline=None)
@given(case=pure_noise_cases())
def test_detection_rule_agrees_with_the_svd_score(case):
    # score = 4 margin / weight with weight <= 1, so a flagged block has score
    # > WITNESS_TOL; the SVD score may read up to 64 eps lower (its rounding).
    # The rule is score * weight > WITNESS_TOL, so it flags every block with
    # score > 1e-9 and weight >= 1e-3, and every block with score * weight > 1e-9.
    m, v, total_dim = case
    flags = pure_noise_detected(np.abs(m[:, 0] * m[:, 3] - m[:, 1] * m[:, 2]), v, total_dim)
    blocks = (v[:, None, None] * np.einsum("ni,nj->nij", m, m.conj())
              + ((1 - v) / total_dim)[:, None, None] * np.eye(4))
    score, weight = scores_from_submatrices(blocks)
    assert not (flags & (score <= WITNESS_TOL - 64 * np.finfo(float).eps)).any()
    assert flags[score * weight > 1e-9].all()
    assert flags[(score > 1e-9) & (weight >= 1e-3)].all()


@settings(max_examples=200, deadline=None)
@given(case=schmidt_cases())
def test_rank2_rule_counts_every_npt_entangled_state(case):
    d, r, alpha, _ = case
    rank2 = conditioning_threshold(d, r, alpha, IcpsGroundTruth.RANK2)
    assert np.all(rank2 <= conditioning_threshold(d, r, alpha, IcpsGroundTruth.NPT))


def maybe(strategy):
    """None leaves the option out, so it takes its default."""
    return st.none() | strategy


@st.composite
def sweep_argvs(draw):
    pos = st.integers(1, 10 ** 6)
    selection = st.sampled_from(["fresh", "shared"])
    kinds = [k.value for k in LutKind]
    command = draw(st.sampled_from(["icps-sweep", "random-sweep", "grid"]))
    common = [("--d", pos), ("--seed", maybe(st.integers(0, 2 ** 64))),
              ("--workers", maybe(pos))]
    if command == "icps-sweep":
        opts = [("--r", pos), ("--mode", maybe(st.sampled_from(["single", "parallel", "both"]))),
                ("--strategies", maybe(st.lists(st.sampled_from(kinds), min_size=1))),
                ("--combined-selection", maybe(selection)),
                ("--ground-truth", maybe(st.sampled_from([g.value for g in IcpsGroundTruth]))),
                ("--samples", maybe(pos))]
    elif command == "random-sweep":
        opts = [("--noise", st.lists(st.floats(0.0, 1.0), min_size=1)),
                ("--mode", maybe(st.sampled_from(["single", "parallel", "both"]))),
                ("--samples", maybe(pos))]
    else:
        opts = [("--r", pos), ("--alpha-steps", maybe(pos)), ("--v-steps", maybe(pos)),
                ("--trials", maybe(pos)), ("--strategy", maybe(st.sampled_from(kinds + ["all"]))),
                ("--mode", maybe(st.sampled_from(["single", "parallel"]))),
                ("--combined-selection", maybe(selection))]
    argv = [command]
    for name, strategy in common + opts:
        value = draw(strategy)
        if value is not None:
            argv += [name, *map(str, value if isinstance(value, list) else [value])]
    return argv


def _parse_header(lines: list[str]):
    """The namespace that the '# command:' and '# params:' lines describe."""
    argv = [lines[1].removeprefix("# command: ")]
    for item in lines[2].removeprefix("# params: ").split(" "):
        key, value = item.split("=", 1)
        argv += [f"--{key.replace('_', '-')}", *value.split("+")]
    return cli.build_parser().parse_args(argv)


@settings(max_examples=150, deadline=None)
@given(argv=sweep_argvs())
def test_params_header_round_trips_through_the_parser(argv):
    args = cli.build_parser().parse_args(argv)
    header = io.StringIO()
    with redirect_stdout(header):  # no --out: the table goes to stdout
        cli._write_table(args, [])
    unrecorded = {"workers", "out"}
    parsed = _parse_header(header.getvalue().splitlines())
    assert ({k: v for k, v in vars(parsed).items() if k not in unrecorded}
            == {k: v for k, v in vars(args).items() if k not in unrecorded})
