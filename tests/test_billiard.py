import math
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from bicharlab import billiard
from bicharlab.billiard import CLOSED_RADIUS, angular_momentum, chord_rotation, propagate

# -- the (N, 2) row kernel `propagate` replaced, kept as its oracle ---------


def time_to_boundary(x, xi):
    """First time t >= 0 with |x + 2 xi t| = 1, on (..., 2) rows."""
    x = np.asarray(x, dtype=float)
    xi = np.asarray(xi, dtype=float)
    if not (np.isfinite(x).all() and np.isfinite(xi).all()):
        raise ValueError("x and xi must be finite")
    if np.any(np.hypot(x[..., 0], x[..., 1]) > CLOSED_RADIUS):
        raise ValueError("every x must lie in the closed unit disk")
    a = np.sum(xi * xi, axis=-1)
    if not np.all(a > 0.0):
        raise ValueError("every xi must be nonzero")
    b = np.sum(x * xi, axis=-1)
    c = np.sum(x * x, axis=-1) - 1.0
    disc = b * b - a * c
    return (-b + np.sqrt(np.maximum(disc, 0.0))) / (2.0 * a)


def specular_reflect(x, xi):
    """Reflect covectors at boundary points (outward normal = x)."""
    x = np.asarray(x, dtype=float)
    xi = np.asarray(xi, dtype=float)
    n2 = np.sum(x * x, axis=-1, keepdims=True)
    proj = np.sum(x * xi, axis=-1, keepdims=True) / n2
    return xi - 2.0 * proj * x


def _turn(inward, ell):
    return np.where(ell < 0.0, -2.0, 2.0) * np.arctan2(inward, np.abs(ell))


def pair_flow(x, xi, t):
    """One block of (N, 2) rows flown in place for t >= 0: (bounces, pinned)."""
    th = time_to_boundary(x, xi)
    hit = (th <= t) & (t > 0.0)
    x += 2.0 * np.where(hit, th, t)[:, None] * xi
    x[hit] /= np.linalg.norm(x[hit], axis=-1, keepdims=True)
    xi[hit] = specular_reflect(x[hit], xi[hit])
    a = np.sum(xi * xi, axis=-1)
    inward = -np.sum(x * xi, axis=-1)
    chord = inward / a
    pin = hit & (chord < 1e-14) & (inward <= 1e-12 * np.sqrt(a))
    go = np.flatnonzero(hit & ~pin)
    n = np.floor((t - th[go]) / chord[go])
    turn = n * _turn(inward[go], angular_momentum(x[go], xi[go]))
    c, s = np.cos(turn)[:, None], np.sin(turn)[:, None] * [-1.0, 1.0]
    xi[go] = c * xi[go] + s * xi[go, ::-1]
    x[go] = c * x[go] + s * x[go, ::-1] + 2.0 * (t - th[go] - n * chord[go])[:, None] * xi[go]
    bounces = np.zeros(x.shape[0], dtype=np.int64)
    bounces[go] = n + 1
    return bounces, pin


def pair_propagate(x, xi, t, pinned="raise"):
    """`propagate` on (N, 2) rows, one `billiard.BLOCK` at a time: the oracle
    of the component kernel, which must equal it bit for bit."""
    x = np.array(x, dtype=float, copy=True)
    xi = np.array(xi, dtype=float, copy=True)
    flat_x, flat_xi = x.reshape(-1, 2), xi.reshape(-1, 2)
    if t < 0:
        flat_xi *= -1.0
    bounces = np.zeros(flat_x.shape[0], dtype=np.int64)
    stuck = np.zeros(flat_x.shape[0], dtype=bool)
    for lo in range(0, flat_x.shape[0], billiard.BLOCK):
        block = slice(lo, lo + billiard.BLOCK)
        bounces[block], stuck[block] = pair_flow(flat_x[block], flat_xi[block], abs(t))
    if stuck.any() and pinned == "raise":
        raise RuntimeError("ray pinned tangentially at the boundary")
    if t < 0:
        flat_xi *= -1.0
    if pinned == "mark":
        return x, xi, bounces.reshape(x.shape[:-1]), stuck.reshape(x.shape[:-1])
    return x, xi, bounces.reshape(x.shape[:-1])


def test_diameter_period():
    x, xi, nb = propagate([-1.0, 0.0], [1.0, 0.0], 2.0)
    assert np.allclose(x, [-1.0, 0.0], atol=1e-12)
    assert np.allclose(xi, [1.0, 0.0], atol=1e-12)
    assert nb == 2


def test_conserved_quantities():
    rng = np.random.default_rng(5)
    x = rng.uniform(-0.6, 0.6, size=(60, 2))
    ang = rng.uniform(0, 2 * np.pi, size=60)
    xi = np.stack([np.cos(ang), np.sin(ang)], axis=-1)
    L0 = angular_momentum(x, xi)
    xt, xit, nb = propagate(x, xi, 11.3)
    assert nb.min() >= 5
    assert np.max(np.abs(angular_momentum(xt, xit) - L0)) < 1e-11
    assert np.max(np.abs(np.sum(xit**2, axis=-1) - 1.0)) < 1e-11
    assert np.max(np.sum(xt**2, axis=-1)) <= 1.0 + 1e-12


def test_chord_rotation_formula():
    # beta = 0 is a diameter: ell = 0 turns the hit point by pi
    for beta in (0.0, 0.2, 0.7, 1.2, -0.9):
        x0 = np.array([1.0, 0.0])
        xi0 = np.array([-np.cos(beta), np.sin(beta)])
        ell = angular_momentum(x0, xi0)
        t_chord = float(time_to_boundary(x0, xi0))
        assert t_chord == pytest.approx(np.sqrt(1 - ell**2), abs=1e-14)
        x1, xi1, nb = propagate(x0, xi0, t_chord + 1e-9)
        assert nb == 1
        theta1 = np.arctan2(x1[1], x1[0])
        want = chord_rotation(ell)
        assert abs(np.angle(np.exp(1j * (theta1 - want)))) < 1e-7


def test_inscribed_square_orbit():
    beta = np.pi / 4
    x0 = np.array([1.0, 0.0])
    xi0 = np.array([-np.cos(beta), np.sin(beta)])
    period = 4 * np.sqrt(1 - angular_momentum(x0, xi0) ** 2)
    x1, xi1, nb = propagate(x0, xi0, float(period))
    assert np.allclose(x1, x0, atol=1e-10)


def test_batch_matches_scalar():
    rng = np.random.default_rng(9)
    x = rng.uniform(-0.5, 0.5, size=(25, 2))
    xi = rng.normal(size=(25, 2))
    xt, xit, nb = propagate(x, xi, 3.7)
    for i in range(25):
        xi_, xii_, nbi = propagate(x[i], xi[i], 3.7)
        assert np.allclose(xt[i], xi_, atol=1e-12)
        assert np.allclose(xit[i], xii_, atol=1e-12)
        assert nb[i] == nbi


def test_blocks_do_not_change_results(monkeypatch):
    rng = np.random.default_rng(3)
    x = rng.uniform(-0.6, 0.6, size=(50, 2))
    xi = rng.normal(size=(50, 2))
    whole = propagate(x, xi, 7.1)
    monkeypatch.setattr(billiard, "BLOCK", 7)
    for a, b in zip(whole, propagate(x, xi, 7.1)):
        assert np.array_equal(a, b)


def test_time_reversal():
    rng = np.random.default_rng(13)
    x = rng.uniform(-0.5, 0.5, size=(20, 2))
    xi = rng.normal(size=(20, 2))
    xt, xit, _ = propagate(x, xi, 2.9)
    xb, xib, _ = propagate(xt, xit, -2.9)
    assert np.max(np.abs(xb - x)) < 1e-10
    assert np.max(np.abs(xib - xi)) < 1e-10


def test_reflection_is_involutive():
    rng = np.random.default_rng(17)
    ang = rng.uniform(0, 2 * np.pi, size=30)
    x = np.stack([np.cos(ang), np.sin(ang)], axis=-1)
    xi = rng.normal(size=(30, 2))
    assert np.allclose(specular_reflect(x, specular_reflect(x, xi)), xi, atol=1e-14)


def test_tangent_ray_rejected():
    with pytest.raises(RuntimeError):
        propagate([1.0, 0.0], [0.0, 1.0], 1.0)


def test_pinned_rays_mark_and_freeze():
    x = np.array([[1.0, 0.0], [0.3, 0.1]])
    xi = np.array([[0.0, 1.0], [0.4, -0.2]])
    with pytest.raises(RuntimeError, match="pinned"):
        propagate(x, xi, 1.0)
    xt, xit, nb, stuck = propagate(x, xi, 1.0, pinned="mark")
    assert stuck.tolist() == [True, False]
    assert nb[0] == 0
    # the pinned ray stays at its tangential contact point
    assert np.abs(xt[0] - x[0]).max() < 1e-12
    # the regular ray is unaffected by sharing the batch
    x1, xi1, n1 = propagate(x[1], xi[1], 1.0)
    assert np.abs(xt[1] - x1).max() < 1e-14
    assert np.abs(xit[1] - xi1).max() < 1e-14
    assert nb[1] == n1


def test_pinned_option_validated():
    with pytest.raises(ValueError, match="pinned"):
        propagate(np.array([0.0, 0.0]), np.array([1.0, 0.0]), 1.0, pinned="ignore")


def test_input_outside_the_disk_rejected():
    with pytest.raises(ValueError, match="disk"):
        propagate([1.5, 0.0], [1.0, 0.0], 1.0)
    # the slack matches the inside mask of verify.TransportedSymbol
    propagate([1.0 + 5e-13, 0.0], [-1.0, 0.0], 1.0)


def test_zero_covector_rejected():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="nonzero"):
            propagate([[0.2, 0.1], [0.3, 0.0]], [[1.0, 0.0], [0.0, 0.0]], 1.0)


def test_non_finite_input_rejected():
    for x, xi, t in (
        ([np.nan, 0.0], [1.0, 0.0], 1.0),
        ([0.0, 0.0], [np.inf, 0.0], 1.0),
        ([0.0, 0.0], [1.0, 0.0], np.nan),
    ):
        with pytest.raises(ValueError, match="finite"):
            propagate(x, xi, t)


def test_zero_time_is_identity():
    x = np.array([[1.0, 0.0], [0.3, -0.2], [0.0, 1.0]])
    xi = np.array([[1.0, 0.5], [0.2, 0.1], [1.0, 0.0]])
    xt, xit, nb, stuck = propagate(x, xi, 0.0, pinned="mark")
    assert np.array_equal(xt, x) and np.array_equal(xit, xi)
    assert nb.tolist() == [0, 0, 0] and not stuck.any()


def test_near_tangent_rim_ray_is_exact():
    # 1e-6 rad off tangent: a million chords of time sin(1e-6); the bounce
    # loop drifted into a false tangential pin on this ray
    beta = 1e-6
    x0, xi0 = np.array([1.0, 0.0]), np.array([-np.sin(beta), np.cos(beta)])
    xt, xit, nb = propagate(x0, xi0, 1.0)
    with mpmath.workdps(60):
        s1, s2 = mpmath.mpf(xi0[0]), mpmath.mpf(xi0[1])
        assert nb == int(mpmath.floor((s1 * s1 + s2 * s2) / -s1))
    assert np.hypot(*xt) <= 1.0 + 1e-12
    assert abs(angular_momentum(xt, xit) - angular_momentum(x0, xi0)) < 1e-12


# -- property tests ---------------------------------------------------------

MAX_LOOP_BOUNCES = 100_000


def loop_propagate(x, xi, t):
    """The bounce-by-bounce integrator `propagate` replaced, kept as an oracle.

    One pass per bounce for every ray still in flight: the next hit time
    from the quadratic, then a specular reflection.
    """
    x = np.array(x, dtype=float, copy=True)
    xi = np.array(xi, dtype=float, copy=True)
    flat_x, flat_xi = x.reshape(-1, 2), xi.reshape(-1, 2)
    if t < 0:
        flat_xi *= -1.0
    remaining = np.full(flat_x.shape[0], abs(float(t)))
    bounces = np.zeros(flat_x.shape[0], dtype=np.int64)
    active = remaining > 0
    for _ in range(MAX_LOOP_BOUNCES):
        if not active.any():
            break
        xa, xia, ra = flat_x[active], flat_xi[active], remaining[active]
        th = time_to_boundary(xa, xia)
        hits = th <= ra
        pin = hits & (th < 1e-14)
        pin &= np.abs(np.sum(xa * xia, axis=-1)) <= 1e-12 * np.linalg.norm(xia, axis=-1)
        if pin.any():
            raise RuntimeError("ray pinned tangentially at the boundary")
        done = ~hits
        xa[done] += 2.0 * ra[done, None] * xia[done]
        xa[hits] += 2.0 * th[hits, None] * xia[hits]
        xa[hits] /= np.linalg.norm(xa[hits], axis=-1, keepdims=True)
        xia[hits] = specular_reflect(xa[hits], xia[hits])
        ra = np.where(done, 0.0, ra - th)
        flat_x[active], flat_xi[active], remaining[active] = xa, xia, ra
        idx = np.flatnonzero(active)
        bounces[idx[hits]] += 1
        active[idx[done]] = False
    if active.any():
        raise RuntimeError(f"exceeded {MAX_LOOP_BOUNCES} reflections")
    if t < 0:
        flat_xi *= -1.0
    return x, xi, bounces.reshape(x.shape[:-1])


PROPERTY = settings(derandomize=True, deadline=None, max_examples=150)
angles = st.floats(-math.pi, math.pi)
times = st.floats(-15.0, 15.0)


@st.composite
def rays(draw):
    """(x, xi): x anywhere in the closed disk, rim included, 0.1 <= |xi| <= 3."""
    r, a = draw(st.floats(0.0, 1.0)), draw(angles)
    s, b = draw(st.floats(0.1, 3.0)), draw(angles)
    return (
        np.array([r * math.cos(a), r * math.sin(a)]),
        np.array([s * math.cos(b), s * math.sin(b)]),
    )


def spin(x, xi):
    """|ell| / |xi|: 1 for rays tangent to the rim."""
    return abs(float(angular_momentum(x, xi))) / float(np.hypot(*xi))


@PROPERTY
@given(rays(), times)
def test_property_conservation_and_disk(ray, t):
    x, xi = ray
    xt, xit, _, _ = propagate(x, xi, t, pinned="mark")
    speed = np.hypot(*xi)
    assert abs(np.hypot(*xit) - speed) <= 1e-12 * speed
    assert abs(angular_momentum(xt, xit) - angular_momentum(x, xi)) <= 1e-12 * speed
    assert np.hypot(*xt) <= 1.0 + 1e-12


@PROPERTY
@given(rays(), times)
def test_property_time_reversal(ray, t):
    x, xi = ray
    assume(spin(x, xi) <= 0.99 and np.hypot(*x) < 1.0 - 1e-9)
    xt, xit, nb = propagate(x, xi, t)
    # an end within rounding of a hit is ambiguous: reflected or not
    assume(np.hypot(*xt) < 1.0 - 1e-9)
    xb, xib, nb_back = propagate(xt, xit, -t)
    assert nb_back == nb
    assert np.max(np.abs(xb - x)) < 1e-10
    assert np.max(np.abs(xib - xi)) < 1e-10


@PROPERTY
@given(rays(), times)
def test_property_matches_bounce_loop(ray, t):
    x, xi = ray
    assume(spin(x, xi) <= 0.99)
    xt, xit, nb = propagate(x, xi, t)
    xl, xil, nbl = loop_propagate(x, xi, t)
    assume(np.hypot(*xl) < 1.0 - 1e-9)  # an end on the rim is ambiguous
    assert nb == nbl
    assert np.max(np.abs(xt - xl)) < 1e-10
    assert np.max(np.abs(xit - xil)) < 1e-10


def test_batch_matches_bounce_loop():
    # bulk rays away from hypothesis' edge values, over a hundred bounces
    rng = np.random.default_rng(21)
    r, a = np.sqrt(rng.uniform(0.0, 1.0, 4000)), rng.uniform(-np.pi, np.pi, 4000)
    s, b = rng.uniform(0.3, 2.0, 4000), rng.uniform(-np.pi, np.pi, 4000)
    x = np.stack([r * np.cos(a), r * np.sin(a)], axis=-1)
    xi = np.stack([s * np.cos(b), s * np.sin(b)], axis=-1)
    keep = np.abs(angular_momentum(x, xi)) <= 0.99 * s
    x, xi = x[keep], xi[keep]
    for t in (0.9, -3.3, 12.0):
        xt, xit, nb = propagate(x, xi, t)
        xl, xil, nbl = loop_propagate(x, xi, t)
        assert np.array_equal(nb, nbl)
        assert np.max(np.abs(xt - xl)) < 1e-10
        assert np.max(np.abs(xit - xil)) < 1e-10
    assert nb.max() > 100


def mp_chords(x, xi, t):
    """Chord by chord at 60 digits from the same float start: (x, xi, bounces)."""
    with mpmath.workdps(60):
        x1, x2, s1, s2 = (mpmath.mpf(float(v)) for v in (*x, *xi))
        rest, n = mpmath.mpf(float(t)), 0
        while True:
            a, b = s1 * s1 + s2 * s2, x1 * s1 + x2 * s2
            c = x1 * x1 + x2 * x2 - 1
            th = (-b + mpmath.sqrt(max(b * b - a * c, 0))) / (2 * a)
            if th > rest:
                x1, x2 = x1 + 2 * rest * s1, x2 + 2 * rest * s2
                return np.array([x1, x2], dtype=float), np.array([s1, s2], dtype=float), n
            x1, x2 = x1 + 2 * th * s1, x2 + 2 * th * s2
            p = 2 * (x1 * s1 + x2 * s2) / (x1 * x1 + x2 * x2)
            s1, s2 = s1 - p * x1, s2 - p * x2
            rest, n = rest - th, n + 1


GRAZING = settings(derandomize=True, deadline=None, max_examples=25)
grazing = st.tuples(
    st.floats(-12.0, -4.0),  # log10(1 - |ell| / |xi|)
    st.floats(0.5, 2.0),  # |xi|
    st.sampled_from([-1.0, 1.0]),  # sense of rotation
    st.integers(1, 2000),  # whole chords ...
    st.floats(0.25, 0.75),  # ... plus a fraction, so the count cannot straddle a hit
)


def check_grazing(x, log_gap, speed, turn, chords, frac, tol):
    """A rim ray at x with 1 - |ell|/|xi| = 10**log_gap against `mp_chords`."""
    tilt = math.acos(1.0 - 10.0**log_gap)
    tangent = turn * np.array([-x[1], x[0]])
    xi = speed * (math.cos(tilt) * tangent - math.sin(tilt) * x)
    t = (chords + frac) * math.sin(tilt) / speed
    xt, xit, nb = propagate(x, xi, t)
    xo, xio, nbo = mp_chords(x, xi, t)
    assert nb == nbo
    assert np.max(np.abs(xt - xo)) < tol
    assert np.max(np.abs(xit - xio)) < tol


@GRAZING
@given(angles, grazing)
def test_property_grazing_rim_rays_match_60_digits(a, ray):
    # (cos a, sin a) sits off the circle by rounding, and the first chord of
    # a grazing ray amplifies that offset: this bounds the whole map
    check_grazing(np.array([math.cos(a), math.sin(a)]), *ray, tol=1e-6)


@GRAZING
@given(st.sampled_from([(1.0, 0.0), (0.0, 1.0), (-1.0, 0.0), (0.0, -1.0)]), grazing)
def test_property_grazing_rays_from_exact_rim_points(x, ray):
    # from a point exactly on the circle only the per-chord formula can err;
    # a rotation angle taken from ell / |xi| alone would miss by ~1e-7 here
    check_grazing(np.array(x), *ray, tol=1e-10)


# -- the component kernel against the (N, 2) row oracle, bit for bit --------


def outcome(flow, x, xi, t, pinned):
    """What a flow returns, as bytes, or the error it raises."""
    try:
        return [(a.shape, a.dtype, a.tobytes()) for a in flow(x, xi, t, pinned=pinned)]
    except (ValueError, RuntimeError) as err:
        return (type(err), str(err))


@st.composite
def edge_rays(draw):
    """A ray from the bulk, from the rim out to CLOSED_RADIUS, or tangent there."""
    kind = draw(st.sampled_from(["bulk", "rim", "tangent"]))
    if kind == "bulk":
        return draw(rays())
    a, s, b = draw(angles), draw(st.floats(0.1, 3.0)), draw(angles)
    r = draw(st.sampled_from([1.0, 1.0 + 5e-13]))
    x = draw(
        st.sampled_from(
            [
                np.array([r * math.cos(a), r * math.sin(a)]),
                np.array([CLOSED_RADIUS, 0.0]),
                np.array([0.0, -CLOSED_RADIUS]),
            ]
        )
    )
    if kind == "tangent":
        sense = draw(st.sampled_from([-1.0, 1.0]))
        return x, sense * s * np.array([-x[1], x[0]])
    return x, np.array([s * math.cos(b), s * math.sin(b)])


@PROPERTY
@given(
    st.lists(edge_rays(), min_size=1, max_size=12),
    st.one_of(st.just(0.0), times),
    st.integers(1, 5),
)
def test_property_matches_pair_oracle_bit_for_bit(batch, t, block):
    # several blocks per batch: the rows cross block edges
    x = np.array([ray[0] for ray in batch])
    xi = np.array([ray[1] for ray in batch])
    saved = billiard.BLOCK
    billiard.BLOCK = block
    try:
        for pinned in ("raise", "mark"):
            want = outcome(pair_propagate, x, xi, t, pinned)
            assert outcome(propagate, x, xi, t, pinned) == want
    finally:
        billiard.BLOCK = saved


def test_batches_past_block_match_pair_oracle_bit_for_bit():
    # a batch of several BLOCKs: bulk rays, rim starts and tangent rays
    rng = np.random.default_rng(34)
    n = 3 * billiard.BLOCK + 17
    r = np.sqrt(rng.uniform(0.0, 1.0, n))
    r[::7], r[1::7] = 1.0, 1.0 + 5e-13
    a, s, b = rng.uniform(-np.pi, np.pi, (3, n))
    s = 0.1 + 2.9 * (s + np.pi) / (2.0 * np.pi)
    x = np.stack([r * np.cos(a), r * np.sin(a)], axis=-1)
    xi = np.stack([s * np.cos(b), s * np.sin(b)], axis=-1)
    xi[::7] = s[::7, None] * np.stack([-x[::7, 1], x[::7, 0]], axis=-1)
    for t in (0.9, -0.9, 0.0, 12.0, -3.3):
        want = outcome(pair_propagate, x, xi, t, "mark")
        assert outcome(propagate, x, xi, t, "mark") == want
        assert outcome(propagate, x, xi, t, "raise") == outcome(pair_propagate, x, xi, t, "raise")
    assert want[3][2] != np.zeros(n, dtype=bool).tobytes()  # some rays pin
