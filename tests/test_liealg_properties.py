"""Property test of the Lie-algebra sweep against a plain reference.

Over small sparse generator sets (d = 2-6, commuting and rank-deficient
ones included, with and without a `max_dim` cap), `dynamical_lie_algebra`
reports the same per-generation history, dimension and saturation as an
all-pairs Gram-Schmidt sweep written here: generation g adds every
commutator of the span reached at generation g - 1.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from ionctrl import dynamical_lie_algebra

SETTINGS = settings(derandomize=True, deadline=None, database=None, max_examples=150)

ENTRIES = [-1.0, 0.5, 1.0, 2.0, 1j, -0.5j, 1.0 + 1.0j]


def reference_sweep(mats, tol, cap):
    """(history, dimension, saturated) of all-pairs Gram-Schmidt sweeps."""
    d = mats[0].shape[0]
    full = d * d
    cap = full if cap is None else cap
    basis = []

    def add(x):
        v = x.ravel().view(float)
        for _ in range(2):
            if basis:
                v = v - (np.array(basis) @ v) @ np.array(basis)
        norm = np.linalg.norm(v)
        if norm > tol and len(basis) < cap:
            basis.append(v / norm)

    for m in mats:
        add(1j * m)
    history = [(0, len(basis), len(basis))]
    generation = 0
    while len(basis) < cap:
        generation += 1
        span = [b.view(complex).reshape(d, d) for b in basis]
        for j, x in enumerate(span):
            for y in span[:j]:
                add(x @ y - y @ x)
        added = len(basis) - history[-1][2]
        history.append((generation, added, len(basis)))
        if added == 0:
            return tuple(history), len(basis), True
    return tuple(history), len(basis), len(basis) == full


@st.composite
def generator_sets(draw):
    d = draw(st.sampled_from([2, 3, 4, 5, 6, 6]))
    # mostly connected non-commuting sets, so that most sweeps come close
    # enough to d^2 directions to switch to the complement filter
    commuting = draw(st.sampled_from([False, False, False, True]))
    mats = []
    for _ in range(draw(st.integers(2, 4))):
        h = np.zeros((d, d), dtype=complex)
        for j, k, v in draw(
            st.lists(
                st.tuples(st.integers(0, d - 1), st.integers(0, d - 1), st.sampled_from(ENTRIES)),
                min_size=d - 1,
                max_size=2 * d,
            )
        ):
            if commuting:
                k = j
            h[j, k] += v
            h[k, j] += np.conj(v)
        mats.append(h)
    if draw(st.booleans()):
        # a control in the span of the others
        mats.append(draw(st.sampled_from([0.0, -1.0, 2.0])) * mats[0] + mats[-1])
    cap = draw(st.sampled_from([None, None, 1, 8 * d * d // 9]))
    cap = cap and draw(st.integers(cap, d * d))
    return mats, cap


@SETTINGS
@given(generator_sets())
def test_sweep_matches_all_pairs_reference(case):
    mats, cap = case
    scale = max(np.linalg.norm(m) for m in mats)
    if scale == 0.0:
        return
    result = dynamical_lie_algebra(mats[0], mats[1:], max_dim=cap)
    history, dimension, saturated = reference_sweep(mats, 1e-8 * scale, cap)
    assert result.history == history
    assert result.dimension == dimension
    assert result.saturated is saturated
