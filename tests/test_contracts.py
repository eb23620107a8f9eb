"""Input contracts of the public kernels, one table.

Each kernel states its contract in one docstring line that starts with
"Contract:" and refuses what lies outside it with a ValueError naming the
offending argument, checked at its entry.
"""

import numpy as np
import pytest

from bicharlab.billiard import time_to_boundary
from bicharlab.bumps import bump_profile, plateau_step
from bicharlab.modes import pick_k_for_ratio
from bicharlab.quantize import default_box

NAN, INF = float("nan"), float("inf")

# (kernel, args, pattern the ValueError must match)
REFUSED = [
    (time_to_boundary, ([2.0, 0.0], [1.0, 0.0]), r"\bx\b.*closed unit disk"),
    (time_to_boundary, ([[0.1, 0.0], [0.0, -1.5]], [[1.0, 0.0], [1.0, 0.0]]), r"\bx\b.*disk"),
    (time_to_boundary, ([1.0 + 1e-11, 0.0], [-1.0, 0.0]), r"\bx\b.*disk"),
    (time_to_boundary, ([NAN, 0.0], [1.0, 0.0]), r"\bx\b.*must be finite"),
    (time_to_boundary, ([0.0, -INF], [1.0, 0.0]), r"\bx\b.*must be finite"),
    (time_to_boundary, ([0.0, 0.0], [INF, 0.0]), r"\bxi\b must be finite"),
    (time_to_boundary, ([0.0, 0.0], [0.0, NAN]), r"\bxi\b must be finite"),
    (time_to_boundary, ([0.5, 0.0], [0.0, 0.0]), r"\bxi\b must be nonzero"),
    (
        time_to_boundary,
        ([[0.5, 0.0], [0.0, 0.2]], [[1.0, 0.0], [0.0, 0.0]]),
        r"\bxi\b must be nonzero",
    ),
    (default_box, (-0.1, 1.5), r"\bh > 0"),
    (default_box, (0.0, 1.5), r"\bh > 0"),
    (default_box, (NAN, 1.5), r"\bh > 0"),
    (default_box, (INF, 1.5), r"\bh > 0"),
    (default_box, (0.1, -1.0), r"\bxi_bound >= 0"),
    (default_box, (0.1, NAN), r"\bxi_bound >= 0"),
    (default_box, (0.1, INF), r"\bxi_bound >= 0"),
    (pick_k_for_ratio, ("stokes", 16, NAN), r"\bratio\b must be finite"),
    (pick_k_for_ratio, ("stokes", 16, INF), r"\bratio\b must be finite"),
    (pick_k_for_ratio, ("stokes", 16, -INF), r"\bratio\b must be finite"),
    (plateau_step, (0.5, 1.0, 1.0), r"\bb > a\b"),
    (plateau_step, (0.5, 1.0, 0.0), r"\bb > a\b"),
    (plateau_step, (0.5, 0.0, NAN), r"\bb > a\b"),
]

# (kernel, args, the documented value, to 1e-12) at the edges of each contract
ACCEPTED = [
    (time_to_boundary, ([0.0, 0.0], [1.0, 0.0]), 0.5),
    (time_to_boundary, ([1.0, 0.0], [-1.0, 0.0]), 1.0),
    (time_to_boundary, ([1.0 + 5e-13, 0.0], [-1.0, 0.0]), 1.0),
    (lambda h, b: default_box(h, b).n, (0.1, 0.0), 32),
    # 16 / lam_1 = 0.72 lies nearest, so the first prefix of zeros decides
    (pick_k_for_ratio, ("stokes", 16, 0.9), 1),
    (bump_profile, (NAN,), 0.0),
    (bump_profile, (1.0,), 0.0),
    (bump_profile, (-1.0,), 0.0),
    (bump_profile, (0.0,), 1.0),
    (plateau_step, (NAN, 0.0, 1.0), 0.0),
    (plateau_step, (0.0, 0.0, 1.0), 0.0),
    (plateau_step, (1.0, 0.0, 1.0), 1.0),
]


@pytest.mark.parametrize(
    "kernel, args, pattern",
    REFUSED,
    ids=[f"{k.__name__}-{i}" for i, (k, _, _) in enumerate(REFUSED)],
)
def test_kernel_refuses_input_outside_its_contract(kernel, args, pattern):
    with np.errstate(all="raise"), pytest.raises(ValueError, match=pattern):
        kernel(*args)


@pytest.mark.parametrize("kernel, args, want", ACCEPTED)
def test_kernel_accepts_the_edges_of_its_contract(kernel, args, want):
    assert abs(kernel(*args) - want) <= 1e-12


# every kernel that either table names
KERNELS = {k for k, _, _ in REFUSED + ACCEPTED if k.__name__ != "<lambda>"}


@pytest.mark.parametrize("kernel", sorted(KERNELS, key=lambda k: k.__name__))
def test_kernel_states_its_contract(kernel):
    lines = [line.strip() for line in kernel.__doc__.splitlines()]
    assert sum(line.startswith("Contract:") for line in lines) == 1
