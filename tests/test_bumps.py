"""Smooth cutoffs: the plateau ramp against its two-step formula."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from bicharlab.bumps import plateau_step


def smooth_step(t):
    """0 for t <= 0, exp(-1/t) for t > 0: the flat germ, at every point."""
    t = np.asarray(t, dtype=float)
    out = np.zeros_like(t)
    pos = t > 0
    # a subnormal t overflows -1/t to -inf, whose exp is the right 0
    with np.errstate(over="ignore"):
        out[pos] = np.exp(-1.0 / t[pos])
    return out


def plateau_oracle(t, a, b):
    """The ramp as s0 / (s0 + s1) of two smooth steps, at every point."""
    u = (np.asarray(t, dtype=float) - a) / (b - a)
    s0 = smooth_step(u)
    s1 = smooth_step(1.0 - u)
    return s0 / (s0 + s1)


@settings(derandomize=True, deadline=None, max_examples=200)
@given(
    a=st.floats(-10.0, 10.0),
    width=st.floats(1e-9, 10.0),
    t=st.lists(st.floats(-1e3, 1e3), max_size=40),
    near=st.lists(st.floats(-1.5, 2.5), max_size=40),
)
def test_plateau_step_matches_two_step_formula(a, width, t, near):
    b = a + width
    edges = [a, b, np.nextafter(a, -np.inf), np.nextafter(a, np.inf),
             np.nextafter(b, -np.inf), np.nextafter(b, np.inf), 0.0, -0.0, np.inf, -np.inf]
    pts = np.array(t + [a + s * (b - a) for s in near] + edges)
    got = plateau_step(pts, a, b)
    want = plateau_oracle(pts, a, b)
    # bit for bit, signed zeros included
    assert np.array_equal(got, want) and np.array_equal(np.signbit(got), np.signbit(want))
    for p in pts[-len(edges):]:
        one = plateau_step(p, a, b)
        assert type(one) is float and one == float(plateau_oracle(p, a, b))


def test_plateau_step_reads_subnormal_ramp_points_as_zero():
    # the smallest ramp values overflow -1/u to -inf inside the ramp
    tiny = np.array([5e-324, 1e-310, 2.2e-308])
    with np.errstate(over="raise"):
        got = plateau_step(tiny, 0.0, 1.0)
    assert np.array_equal(got, plateau_oracle(tiny, 0.0, 1.0)) and not got.any()


def test_plateau_step_reads_nan_as_zero():
    assert plateau_step(np.nan, 0.2, 0.3) == 0.0
    assert np.array_equal(plateau_step([np.nan, 0.25, 0.4], 0.2, 0.3), [0.0, 0.5, 1.0])
