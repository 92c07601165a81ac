"""Property tests (hypothesis) for the vectorised sweep kernels."""
import numpy as np
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose

from quditwitness import LutKind, LutStrategy, engine
from quditwitness.transforms import _local_unitaries

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
