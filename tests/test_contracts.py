"""Input contracts of the public kernels, one table.

Each kernel states its contract in one docstring line that starts with
"Contract:" and refuses what lies outside it, checked at its entry: a
value out of its domain with a ValueError naming the offending argument
or the bound it crossed, an argument of the wrong type with a TypeError.
"""

import numpy as np
import pytest

from bicharlab.billiard import _time_to_boundary
from bicharlab.bumps import bump_profile, plateau_step
from bicharlab.modes import family_lambda, laplace_disk_mode, pick_k_for_ratio
from bicharlab.quantize import (
    BandlimitError,
    BoxGrid,
    InteriorSymbol,
    SupportMarginError,
    TangentialSymbol,
    apply_interior_op,
    apply_shifted_op,
    default_box,
    pairing,
    sample_mode_on_box,
)
from bicharlab.verify import invariance_gap

NAN, INF = float("nan"), float("inf")

# a field, a box and a mode for the operators' rows
GRID = BoxGrid(32)
FIELD = np.zeros((32, 32), dtype=complex)
MODE = laplace_disk_mode(1, 1)
# the mode's polar grid, K = 40 radii, for the single-harmonic operators' rows
POLAR = MODE.grid
# spatial support out to the rim, past the margin of every box
RIM = InteriorSymbol(lambda x1, x2: np.where(np.hypot(x1, x2) <= 1.0, 1.0, 0.0), xi_bound=1.0)
CORE = InteriorSymbol(lambda x1, x2: np.where(np.hypot(x1, x2) <= 0.3, 1.0, 0.0), xi_bound=1.0)
SPINNING = InteriorSymbol(RIM.spatial, None, np.cos, xi_bound=1.0)
COLLAR = TangentialSymbol(lambda y, xp: 0.0 * (y + xp), y_support=0.3)

def kernel_id(kernel):
    # a private kernel keeps the id it had while it was public
    return kernel.__name__.lstrip("_")


# (kernel, tag, args, error, pattern the error must match); a row's id is
# its kernel and its own tag, so deleting a row renames no other.  The
# numbered tags are the positions the rows held when ids were built from them
REFUSED = [
    # the hit time takes the components x1, x2, xi1, xi2, as arrays or floats
    (_time_to_boundary, "0", (2.0, 0.0, 1.0, 0.0), ValueError, r"\bx\b.*closed unit disk"),
    (
        _time_to_boundary,
        "1",
        tuple(np.array(v) for v in ([0.1, 0.0], [0.0, -1.5], [1.0, 1.0], [0.0, 0.0])),
        ValueError,
        r"\bx\b.*disk",
    ),
    (_time_to_boundary, "2", (1.0 + 1e-11, 0.0, -1.0, 0.0), ValueError, r"\bx\b.*disk"),
    (_time_to_boundary, "3", (NAN, 0.0, 1.0, 0.0), ValueError, r"\bx\b.*must be finite"),
    (_time_to_boundary, "4", (0.0, -INF, 1.0, 0.0), ValueError, r"\bx\b.*must be finite"),
    (_time_to_boundary, "5", (0.0, 0.0, INF, 0.0), ValueError, r"\bxi\b must be finite"),
    (_time_to_boundary, "6", (0.0, 0.0, 0.0, NAN), ValueError, r"\bxi\b must be finite"),
    (_time_to_boundary, "7", (0.5, 0.0, 0.0, 0.0), ValueError, r"\bxi\b must be nonzero"),
    (
        _time_to_boundary,
        "8",
        tuple(np.array(v) for v in ([0.5, 0.0], [0.0, 0.2], [1.0, 0.0], [0.0, 0.0])),
        ValueError,
        r"\bxi\b must be nonzero",
    ),
    (default_box, "9", (-0.1, 1.5), ValueError, r"\bh > 0"),
    (default_box, "10", (0.0, 1.5), ValueError, r"\bh > 0"),
    (default_box, "11", (NAN, 1.5), ValueError, r"\bh > 0"),
    (default_box, "12", (INF, 1.5), ValueError, r"\bh > 0"),
    (default_box, "13", (0.1, -1.0), ValueError, r"\bxi_bound >= 0"),
    (default_box, "14", (0.1, NAN), ValueError, r"\bxi_bound >= 0"),
    (default_box, "15", (0.1, INF), ValueError, r"\bxi_bound >= 0"),
    (pick_k_for_ratio, "16", ("stokes", 16, NAN), ValueError, r"\bratio\b must be finite"),
    (pick_k_for_ratio, "17", ("stokes", 16, INF), ValueError, r"\bratio\b must be finite"),
    (pick_k_for_ratio, "18", ("stokes", 16, -INF), ValueError, r"\bratio\b must be finite"),
    # a misspelt family was read as Stokes
    (family_lambda, "stoks", ("stoks", 3, 2), ValueError, r"\bfamily\b.*'stoks'"),
    (pick_k_for_ratio, "stoks", ("stoks", 16, 0.9), ValueError, r"\bfamily\b.*'stoks'"),
    # m = -1 read the zeros of J_0 as the Stokes eigenvalues
    (family_lambda, "neg-m", ("stokes", -1, 2), ValueError, r"\bm must be >= 0, got -1"),
    (pick_k_for_ratio, "neg-m", ("stokes", -1, 0.5), ValueError, r"\bm must be >= 0, got -1"),
    (plateau_step, "19", (0.5, 1.0, 1.0), ValueError, r"\bb > a\b"),
    (plateau_step, "20", (0.5, 1.0, 0.0), ValueError, r"\bb > a\b"),
    (plateau_step, "21", (0.5, 0.0, NAN), ValueError, r"\bb > a\b"),
    (apply_interior_op, "rim", (RIM, FIELD, 0.1, GRID), SupportMarginError, r"support reaches"),
    (apply_interior_op, "xi-box", (CORE, FIELD, 0.01, GRID), BandlimitError, r"xi box"),
    (
        apply_shifted_op,
        "momentum",
        (SPINNING, 0.1, FIELD, 0.1, GRID),
        ValueError,
        r"without a momentum factor",
    ),
    (apply_shifted_op, "nan-s", (CORE, NAN, FIELD, 0.1, GRID), ValueError, r"\bfinite s\b"),
    (
        apply_shifted_op,
        "shifted-rim",
        (CORE, 0.5, FIELD, 0.1, GRID),
        SupportMarginError,
        r"transported support reaches",
    ),
    (pairing, "rim", (RIM, MODE), SupportMarginError, r"support reaches"),
    # a profile of another grid's length was read against this grid's radii
    (POLAR.harmonic_dr, "short", (np.zeros(39), 2), ValueError, r"\bK = 40\b.*\(39,\)"),
    (POLAR.harmonic_laplacian, "long", (np.zeros(41), 1), ValueError, r"\bK = 40\b.*\(41,\)"),
    (POLAR.harmonic_laplacian, "column", (np.zeros((40, 1)), 1), ValueError, r"\(40, 1\)"),
    (
        POLAR.harmonic_norm,
        "one-short",
        ([np.zeros(40), np.zeros(39)],),
        ValueError,
        r"\bK = 40\b.*\(39,\)",
    ),
    # only a disk mode has the symmetry of the square the sampler fills by
    (sample_mode_on_box, "raw-field", (FIELD, GRID), TypeError, r"\bdisk mode\b"),
    (
        invariance_gap,
        "tangential",
        ([MODE], COLLAR, 0.1),
        TypeError,
        r"\bInteriorSymbol\b.*\bTangentialSymbol\b",
    ),
]

# (kernel, tag, args, the documented value, to 1e-12) at the edges of
# each contract; a row's id is its kernel and its own tag, as in REFUSED.
# The argsN tags are the positions the rows held, and the values they
# carried, when ids were built from them
ACCEPTED = [
    (_time_to_boundary, "args0-0.5", (0.0, 0.0, 1.0, 0.0), 0.5),
    (_time_to_boundary, "args1-1.0", (1.0, 0.0, -1.0, 0.0), 1.0),
    (_time_to_boundary, "args2-1.0", (1.0 + 5e-13, 0.0, -1.0, 0.0), 1.0),
    (lambda h, b: default_box(h, b).n, "args3-32", (0.1, 0.0), 32),
    # 16 / lam_1 = 0.72 lies nearest, so the first prefix of zeros decides
    (pick_k_for_ratio, "args4-1", ("stokes", 16, 0.9), 1),
    (bump_profile, "args5-0.0", (NAN,), 0.0),
    (bump_profile, "args6-0.0", (1.0,), 0.0),
    (bump_profile, "args7-0.0", (-1.0,), 0.0),
    (bump_profile, "args8-1.0", (0.0,), 1.0),
    (plateau_step, "args9-0.0", (NAN, 0.0, 1.0), 0.0),
    (plateau_step, "args10-0.0", (0.0, 0.0, 1.0), 0.0),
    (plateau_step, "args11-1.0", (1.0, 0.0, 1.0), 1.0),
    # the constant 1 has norm sqrt(pi) on the disk
    (POLAR.harmonic_norm, "one", ([np.ones(40)],), np.sqrt(np.pi)),
]


@pytest.mark.parametrize(
    "kernel, args, error, pattern",
    [pytest.param(k, args, error, pattern, id=f"{kernel_id(k)}-{tag}")
     for k, tag, args, error, pattern in REFUSED],
)
def test_kernel_refuses_input_outside_its_contract(kernel, args, error, pattern):
    with np.errstate(all="raise"), pytest.raises(error, match=pattern):
        kernel(*args)


@pytest.mark.parametrize(
    "kernel, args, want",
    [pytest.param(k, args, want, id=f"{kernel_id(k)}-{tag}") for k, tag, args, want in ACCEPTED],
)
def test_kernel_accepts_the_edges_of_its_contract(kernel, args, want):
    assert abs(kernel(*args) - want) <= 1e-12


# every kernel that either table names
KERNELS = {row[0] for row in REFUSED + ACCEPTED if row[0].__name__ != "<lambda>"}


@pytest.mark.parametrize("kernel", sorted(KERNELS, key=kernel_id), ids=kernel_id)
def test_kernel_states_its_contract(kernel):
    lines = [line.strip() for line in kernel.__doc__.splitlines()]
    assert sum(line.startswith("Contract:") for line in lines) == 1
