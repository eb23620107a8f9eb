import argparse
import ast
import hashlib
import importlib.util
import inspect
import json
import os
import re
import subprocess
import sys
import time
from importlib import resources
from pathlib import Path

import jsonschema
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bicharlab.cli as cli
from bicharlab import billiard, charts, config, modes, quantize, verify
from bicharlab import io as artio
from bicharlab.config import (
    KINDS,
    ConfigError,
    build_symbol,
    family_members,
    load_config,
    validate_config,
)
from bicharlab.modes import bessel_zero, pick_k_for_ratio
from test_quantize import tail_tolerance


def read_field_grid(path_base):
    """Inverse of io.write_field_grid; returns (array, header document)."""
    base = Path(path_base)
    with open(base.with_name(base.name + ".json")) as fh:
        doc = json.load(fh)
    hdr = doc["payload"]
    if hdr["dtype"] != "<f8" or hdr["order"] != "C":
        raise ValueError(f"unsupported field grid layout {hdr['dtype']}/{hdr['order']}")
    raw = np.fromfile(base.with_name(base.name + ".f64"), dtype="<f8").reshape(hdr["shape"])
    if hdr["components"] == ["re", "im"]:
        return raw[0] + 1j * raw[1], doc
    return raw, doc


def run_cli(args):
    return cli.main(args)


def tree_digest(root):
    out = {}
    for p in sorted(Path(root).rglob("*")):
        if p.is_file():
            out[p.name] = hashlib.sha256(p.read_bytes()).hexdigest()
    return out


def summary_of(out_dir):
    return json.load(open(Path(out_dir) / "summary.json"))["payload"]


# -- io ----------------------------------------------------------------


def test_config_hash_ignores_key_order():
    a = {"x": 1, "y": [1, 2], "z": {"p": 3, "q": 4}}
    b = {"z": {"q": 4, "p": 3}, "y": [1, 2], "x": 1}
    assert artio.config_hash(a) == artio.config_hash(b)
    assert artio.config_hash(a) != artio.config_hash({**a, "x": 2})


# a chart file counts by what it holds: the identity carries the
# definition, read once by load_config, never the path
OUTER = {"kind": "annulus", "rho_in": 0.5}
INNER = {"kind": "annulus", "rho_in": 0.3, "component": "inner"}
RIM_POINTS = {"name": "c", "kind": "classify", "points": [[0.0, 0.5], [0.0, 1.0], [0.0, 1.5]]}


def chart_config(chart, out=None):
    return load_config({"chart": chart, "experiments": [RIM_POINTS]}, out=out)


def test_chart_files_with_different_definitions_hash_apart(tmp_path):
    path = tmp_path / "chart.json"
    hashes = []
    for definition in (OUTER, INNER):
        path.write_text(json.dumps(definition))
        hashes.append(chart_config(str(path)).hash)
    assert hashes[0] != hashes[1]


def test_chart_file_hashes_as_its_definition_inline(tmp_path):
    path = tmp_path / "chart.json"
    path.write_text(json.dumps(OUTER))
    assert chart_config(str(path)).hash == chart_config(OUTER).hash
    # a shorthand is its own definition
    assert chart_config("annulus:0.5").identity()["chart"] == "annulus:0.5"


def test_chart_keys_reach_the_chart():
    # each constructor keyword of a chart kind, inline or in a shorthand,
    # is the chart's that the run loads
    for definition, want in (
        ({"kind": "disk", "collar_width": 0.2}, {"collar_width": 0.2}),
        ("disk:0.2", {"collar_width": 0.2}),
        ({"kind": "annulus", "rho_in": 0.3, "component": "inner", "collar_width": 0.1},
         {"rho_in": 0.3, "component": "inner", "collar_width": 0.1}),
        ("annulus:0.3:inner", {"rho_in": 0.3, "component": "inner"}),
        ({"kind": "model", "terms": [[0, 1, 0, 1.0]], "max_derivative_order": 4},
         {"terms": ((0, 1, 0, 1.0),), "max_derivative_order": 4}),
    ):
        chart = charts.load_chart(chart_config(definition).identity()["chart"])
        assert {key: getattr(chart, key) for key in want} == want


def test_chart_file_edited_after_load_does_not_change_the_run(tmp_path):
    path = tmp_path / "chart.json"
    path.write_text(json.dumps(OUTER))
    cfg = chart_config(str(path), out=str(tmp_path / "file"))
    path.write_text(json.dumps(INNER))
    assert cli.run_config(cfg)[0] == 0
    for definition, label in ((OUTER, "outer"), (INNER, "inner")):
        assert cli.run_config(chart_config(definition, out=str(tmp_path / label)))[0] == 0
    assert tree_digest(tmp_path / "file") == tree_digest(tmp_path / "outer")
    # the edit would have mattered: the inner circle reads every point elliptic
    tags = {label: [row["result"]["tag"] for row in
                    json.load(open(tmp_path / label / "c.json"))["payload"]]
            for label in ("outer", "inner")}
    assert tags == {"outer": ["hyperbolic", "glancing", "elliptic"], "inner": ["elliptic"] * 3}


def test_writers_embed_hash_and_version(tmp_path):
    meta = {"config_hash": "abc123"}
    p = artio.write_csv(tmp_path / "t.csv", {"h": [0.1], "v": [1.25]}, meta=meta)
    text = p.read_text()
    assert "# config_hash = abc123" in text
    assert f"# artifact_version = {artio.ARTIFACT_VERSION}" in text
    q = artio.write_json(tmp_path / "t.json", {"k": 1}, meta=meta)
    doc = json.load(open(q))
    assert doc["meta"]["config_hash"] == "abc123"
    assert doc["meta"]["artifact_version"] == artio.ARTIFACT_VERSION
    with pytest.raises(ValueError, match="config_hash"):
        artio.write_json(tmp_path / "u.json", {}, meta={})


def test_csv_refuses_ragged_columns(tmp_path):
    with pytest.raises(ValueError, match="ragged"):
        artio.write_csv(
            tmp_path / "r.csv", {"a": [1, 2], "b": [1]}, meta={"config_hash": "x"}
        )


def test_field_grid_round_trip(tmp_path):
    rng = np.random.default_rng(5)
    arr = rng.standard_normal((2, 5, 7)) + 1j * rng.standard_normal((2, 5, 7))
    artio.write_field_grid(tmp_path / "f", arr, meta={"config_hash": "x"})
    back, doc = read_field_grid(tmp_path / "f")
    assert np.array_equal(back, arr)
    assert doc["payload"]["components"] == ["re", "im"]
    assert doc["payload"]["dtype"] == "<f8"
    real = rng.standard_normal((4, 3))
    artio.write_field_grid(tmp_path / "g", real, meta={"config_hash": "x"})
    back2, doc2 = read_field_grid(tmp_path / "g")
    assert np.array_equal(back2, real)
    assert doc2["payload"]["components"] == ["value"]


# -- config validation ---------------------------------------------------


def test_validation_names_the_offending_key():
    bad = {
        "experiments": [
            {"name": "c", "kind": "classify", "points": [[0.0, 0.5]], "samples": -1}
        ]
    }
    errs = validate_config(bad)
    assert errs == ["experiments[0].samples: -1 is less than the minimum of 0"]
    with pytest.raises(ConfigError, match=r"experiments\[0\]\.samples"):
        load_config(bad)


@pytest.mark.parametrize("argv", [
    ["classify", "--xp", "0", "--xip", "1", "--tol-g", "1e-8"],
    ["classify", "--xp", "0", "--xip", "1", "--tol-bracket", "1e-6"],
    ["mode", "--family", "laplace", "--m", "2", "--k", "1", "--num-r", "40"],
    ["mode", "--family", "laplace", "--m", "2", "--k", "1", "--num-theta", "32"],
    ["parametrix", "--m", "12", "--delta0", "0.25"],
    ["parametrix", "--m", "12", "--eps0", "0.3"],
], ids=lambda argv: argv[-2])
def test_removed_probe_flags_are_usage_errors(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli(argv)
    assert exc.value.code == 2
    assert f"error: unrecognized arguments: {argv[-2]} {argv[-1]}\n" in capsys.readouterr().err


def test_validation_names_nested_trace_option(tmp_path, capsys):
    # the tracer's tolerances are constants: a trace takes no options
    bad = {
        "experiments": [
            {
                "name": "t",
                "kind": "trace",
                "start": [0, 0, 1, 0],
                "time": 1.0,
                "options": {"tol_g": 1e-8},
            }
        ]
    }
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps(bad))
    assert run_cli(["run", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
    assert "experiments[0].options: unknown key" in capsys.readouterr().err


def test_validation_collects_every_offense():
    bad = {
        "junk": 1,
        "thresholds": {"kappa": -2},
        "experiments": [
            {"name": "a", "kind": "classify", "points": [[0.0, 0.5]]},
            {"name": "a", "kind": "classify"},  # duplicate name, no points
            {"name": "w", "kind": "nonsense"},
            {
                "name": "s",
                "kind": "support",
                "family": {"family": "stokes", "m": [1, 2], "k": [1, 2, 3]},
                "symbol": {
                    "type": "interior",
                    "xi_bound": 1.0,
                    "factors": [{"var": "speed", "window": [0.9, 0.6, 1.2, 1.4]}],
                },
                "time": 0.5,
            },
            {"name": "p", "kind": "parametrix", "m": [12, 12], "orders": [1, 1]},
            {
                "name": "r",
                "kind": "mode",
                "family": {"family": "stokes", "m": -1, "k": 1},
            },
        ],
    }
    errs = "\n".join(validate_config(bad))
    assert "experiments[5].family.m: -1 is not valid under any of the given schemas" in errs
    assert "experiments[4].m: [12, 12] has non-unique elements" in errs
    assert "experiments[4].orders: [1, 1] has non-unique elements" in errs
    assert "junk" in errs
    assert "kappa" in errs
    assert "experiments[2].kind" in errs
    assert "duplicate" in errs
    assert "points or samples" in errs
    assert "equal length" in errs
    assert "nondecreasing" in errs  # bad window ordering
    assert "radius or bump" in errs  # unbounded spatial support


def test_husimi_grid_needs_two_points_per_axis(tmp_path, capsys):
    spec = {
        "name": "s",
        "kind": "support",
        "family": {"family": "laplace", "m": 0, "k": [6]},
        "symbol": {
            "type": "interior",
            "xi_bound": 1.6,
            "factors": [
                {"var": "radius", "window": [0.2, 0.3, 0.5, 0.6]},
                {"var": "speed", "window": [0.6, 0.8, 1.2, 1.4]},
            ],
        },
        "time": 0.3,
    }
    errs = validate_config({"experiments": [dict(spec, husimi={"nx": 1})]})
    assert len(errs) == 1 and errs[0].startswith("experiments[0].husimi.nx:")
    cfg = tmp_path / "h.json"
    cfg.write_text(json.dumps({"experiments": [dict(spec, husimi={"nxi": 1})]}))
    code = run_cli(["run", "--config", str(cfg), "--out", str(tmp_path / "out")])
    assert code == 2
    assert "experiments[0].husimi.nxi" in capsys.readouterr().err
    assert not (tmp_path / "out" / "summary.json").exists()


def test_validation_rejects_non_object():
    assert validate_config([1, 2]) == ["(root): config must be a JSON object"]


def test_tangential_symbol_spec_checks():
    bad = {
        "experiments": [
            {
                "name": "e",
                "kind": "elliptic",
                "family": {"family": "laplace", "m": 1, "k": [1]},
                "symbol": {
                    "type": "tangential",
                    "y_support": 0.2,
                    "y_ramp": [0.15, 0.3],
                    "arc": {"center": 0.0, "inner": 2.0, "outer": 3.5},
                },
            }
        ]
    }
    errs = "\n".join(validate_config(bad))
    assert "y_ramp" in errs
    assert "inner < outer < pi" in errs


# -- family and symbol builders ------------------------------------------


def test_family_members_broadcast_rules():
    assert family_members({"family": "laplace", "m": 0, "k": [3, 1, 2]}) == [
        (0, 1),
        (0, 2),
        (0, 3),
    ]
    assert family_members({"family": "laplace", "m": [2, 5], "k": 1}) == [
        (2, 1),
        (5, 1),
    ]
    # zip form keeps the pairs, ordered by eigenvalue
    got = family_members({"family": "stokes", "m": [8, 2], "k": [1, 3]})
    assert set(got) == {(8, 1), (2, 3)}
    lam = lambda m, k: bessel_zero(m + 1, k)
    assert lam(*got[0]) < lam(*got[1])
    # duplicates collapse
    assert family_members({"family": "laplace", "m": 1, "k": [2, 2]}) == [(1, 2)]


def test_pick_k_for_ratio_is_the_minimizer():
    m, target = 16, 0.5
    k = pick_k_for_ratio("stokes", m, target)
    best = abs(m / bessel_zero(m + 1, k) - target)
    for other in (k - 1, k + 1):
        if other >= 1:
            assert best <= abs(m / bessel_zero(m + 1, other) - target)


def test_build_symbol_separable_uses_fft_terms():
    a = build_symbol(
        {
            "type": "interior",
            "xi_bound": 1.5,
            "factors": [
                {"var": "radius", "window": [-0.7, -0.5, 0.5, 0.7]},
                {"var": "speed", "window": [0.6, 0.8, 1.2, 1.4]},
            ],
        }
    )
    assert a.momentum is None and a.speed is not None
    assert a.eval(0.0, 0.0, 1.0, 0.0) == pytest.approx(1.0)
    assert a.eval(0.0, 0.0, 0.5, 0.0) == 0.0


def test_build_symbol_angular_momentum_goes_general():
    a = build_symbol(
        {
            "type": "interior",
            "xi_bound": 1.5,
            "factors": [
                {"var": "radius", "window": [0.3, 0.4, 0.8, 0.9]},
                {"var": "angular_momentum", "window": [0.3, 0.4, 0.6, 0.7]},
            ],
        }
    )
    assert a.momentum is not None and a.speed is None
    # ell = x ^ xi: at x = (0.6, 0), xi = (0, 0.8) it is 0.48, inside the window
    assert a.eval(0.6, 0.0, 0.0, 0.8) > 0.9
    # reversing the direction flips ell out of the window
    assert a.eval(0.6, 0.0, 0.0, -0.8) == 0.0


def test_build_symbol_arc_rotates_support():
    a = build_symbol(
        {
            "type": "tangential",
            "y_support": 0.3,
            "arc": {"center": 1.0, "inner": 0.3, "outer": 0.5},
        }
    )
    assert a.angular is not None

    def value(y, theta, xip):
        return a.multiplier(y, xip) * a.angular(theta)

    assert value(0.0, 1.0, 0.5) == pytest.approx(1.0)
    assert value(0.0, 1.0 + np.pi, 0.5) == 0.0
    # wrapped distance: theta near 1 + 2*pi is inside the arc again
    assert value(0.0, 1.0 + 2 * np.pi, 0.5) == pytest.approx(1.0)


# -- runner behavior -------------------------------------------------------


def _defined_and_used(path):
    """(public names, line spans of their definitions, names used) of a module.

    The public names are those in __all__ and Class.method for each public
    method of an exported class.  A name counts as used where it is loaded
    or read as an attribute, not where it is only imported or listed in
    __all__.
    """
    tree = ast.parse(path.read_text())
    spans, exported, classes = {}, [], {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            spans[node.name] = (node.lineno, node.end_lineno)
        if isinstance(node, ast.ClassDef):
            classes[node.name] = node
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            exported = ast.literal_eval(node.value)
            spans["__all__"] = (node.lineno, node.end_lineno)
    for name in list(exported):
        for node in getattr(classes.get(name), "body", []):
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
                exported.append(f"{name}.{node.name}")
                spans[f"{name}.{node.name}"] = (node.lineno, node.end_lineno)
    uses = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            uses.append((node.id, node.lineno))
        elif isinstance(node, ast.Attribute):
            uses.append((node.attr, node.lineno))
    return exported, spans, uses


# public names kept without a program caller, each with its reason
NO_CALLER_YET = {}


# public method names that two or more exported classes define, each owner
# with a program function that reads the name for it.  A read of a shared
# name counts for every owner, so a collision can hide an orphan, as it hid
# a BoxGrid.norm and a PolarGrid.X1 that only tests read; a new collision
# fails until it is reviewed and listed here
SHARED_MEMBERS = {
    "as_dict": {
        "classify.BoundaryClass": "config._run_classify",
        "verify.ModeRow": "verify.PropagationReport.to_dict",
        "verify.Thresholds": "verify.PropagationReport.to_dict",
    },
    "eval": {
        "quantize.InteriorSymbol": "quantize._apply_interior",
        "verify.TransportedSymbol": "verify.support_gap",
    },
    "inner": {"polar.PolarGrid": "quantize.pairing", "quantize.BoxGrid": "quantize._box_pairings"},
    # ModelChart overrides the base chart's jet reads with its polynomial slices
    "r0": {"charts.CollarChart": "classify.classify", "charts.ModelChart": "classify.classify"},
    "r1": {"charts.CollarChart": "flow._Tracer", "charts.ModelChart": "flow._Tracer"},
}


def test_every_public_name_has_a_program_caller():
    # a name in __all__, or a public method of an exported class, must be
    # used by the program or by an acceptance criterion, not only by its own
    # unit test.  A method counts as used wherever its name is read
    root = Path(__file__).resolve().parents[1]
    files = sorted((root / "src" / "bicharlab").glob("*.py"))
    files.append(root / "tests" / "test_acceptance.py")
    parsed = {path: _defined_and_used(path) for path in files}
    orphans = []
    for path, (exported, spans, uses) in parsed.items():
        for public in exported:
            name = public.rpartition(".")[2]
            own = [spans["__all__"], spans.get(public, (0, -1))]
            inside = any(
                n == name and not any(lo <= line <= hi for lo, hi in own) for n, line in uses
            )
            elsewhere = any(
                n == name for other, (_, _, u) in parsed.items() if other != path for n, _ in u
            )
            if not (inside or elsewhere):
                orphans.append(f"{path.stem}.{public}")
    assert sorted(orphans) == sorted(NO_CALLER_YET)
    owners = {}
    for path, (exported, _, _) in parsed.items():
        for public in exported:
            cls, _, member = public.rpartition(".")
            if cls:
                owners.setdefault(member, set()).add(f"{path.stem}.{cls}")
    shared = {member: owned for member, owned in owners.items() if len(owned) > 1}
    assert shared == {member: set(callers) for member, callers in SHARED_MEMBERS.items()}
    by_module = {path.stem: (spans, uses) for path, (_, spans, uses) in parsed.items()}
    for member, callers in SHARED_MEMBERS.items():
        for caller in callers.values():
            module, _, function = caller.partition(".")
            spans, uses = by_module[module]
            lo, hi = spans[function]
            assert any(n == member and lo <= line <= hi for n, line in uses), (member, caller)


def _defaulted_parameters(path):
    """(callee, name, positional index or None) of each parameter with a
    default of a public function or method of a module.

    A method is called by its own name and `__init__` by its class's; a
    method's positional index does not count self, and a keyword-only
    parameter has none.
    """
    tree = ast.parse(path.read_text())
    exported = next((ast.literal_eval(node.value) for node in tree.body
                     if isinstance(node, ast.Assign)
                     and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)),
                    [])
    defs = []
    for node in tree.body:
        if getattr(node, "name", None) not in exported:
            continue
        if isinstance(node, ast.FunctionDef):
            defs.append((node.name, node.name, node, 0))
        elif isinstance(node, ast.ClassDef):
            for fn in node.body:
                if isinstance(fn, ast.FunctionDef) and (fn.name == "__init__" or fn.name[0] != "_"):
                    static = any(getattr(d, "id", None) == "staticmethod"
                                 for d in fn.decorator_list)
                    callee = node.name if fn.name == "__init__" else fn.name
                    defs.append((callee, f"{node.name}.{fn.name}", fn, 0 if static else 1))
    out = []
    for callee, qual, fn, skip in defs:
        positional = fn.args.posonlyargs + fn.args.args
        first = len(positional) - len(fn.args.defaults)
        for i, p in enumerate(positional[first:], first):
            out.append((callee, f"{path.stem}.{qual}.{p.arg}", i - skip))
        for p, default in zip(fn.args.kwonlyargs, fn.args.kw_defaults):
            if default is not None:
                out.append((callee, f"{path.stem}.{qual}.{p.arg}", None))
    return out


def _calls(path):
    """Per callee name, (positional count, any *, keyword names) of each call;
    a ** shows as the keyword name None."""
    out = {}
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Call):
            name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
            npos = sum(not isinstance(a, ast.Starred) for a in node.args)
            out.setdefault(name, []).append(
                (npos, npos < len(node.args), {k.arg for k in node.keywords})
            )
    return out


# parameters with a default that no call in the program or the acceptance
# criteria passes, each with the dispatch that sets it
_CHECK_DISPATCH = "config._run_propagation passes it through its `check` argument"
DISPATCHED_KEYWORDS = {
    "charts.ModelChart.__init__.max_derivative_order":
        "a chart file's key: charts._chart_from_dict passes the keys to the kind's constructor",
    "cli.main.argv": "the console script calls main(), and argparse reads sys.argv",
    **{
        f"verify.{check}.{name}": _CHECK_DISPATCH
        for check in ("invariance_gap", "support_gap", "elliptic_mass", "car_mass")
        for name in ("thresholds", "experiment")
    },
    **{f"verify.support_gap.{name}": _CHECK_DISPATCH for name in ("nx", "nxi", "glancing_sign")},
}


def test_every_defaulted_keyword_has_a_program_setter():
    # a parameter with a default that only tests set is a knob the program
    # does not use: every one must be passed, by keyword, by position or
    # through * or **, at some call in the program or an acceptance
    # criterion, or be listed above with the dispatch that sets it
    root = Path(__file__).resolve().parents[1]
    files = sorted((root / "src" / "bicharlab").glob("*.py"))
    calls = {}
    for path in [*files, root / "tests" / "test_acceptance.py"]:
        for name, seen in _calls(path).items():
            calls.setdefault(name, []).extend(seen)
    unset = [
        key
        for path in files
        for callee, key, index in _defaulted_parameters(path)
        if not any(
            key.rpartition(".")[2] in names or None in names
            or (index is not None and (npos > index or star))
            for npos, star, names in calls.get(callee, [])
        )
    ]
    assert sorted(unset) == sorted(DISPATCHED_KEYWORDS)


def test_pairing_layer_takes_only_what_the_program_sets():
    # the box, check and pairing keywords, the scalar tail radius, the
    # bare-callable pullback, the mode grid sizes and the Husimi window were
    # set by tests alone and were removed; the tests pin a box through
    # sample_mode_on_box and the apply_*_op.  The symbol's type decides the
    # operators' check and its momentum factor the invariance route, and
    # the chart kind decides whether a chart has a bracket budget or a
    # collar width.  The ray batch and the mode constructors are pinned
    # too, so no knob reaches them unreviewed
    def bare(fn):
        sig = inspect.signature(fn)
        params = [p.replace(annotation=p.empty) for p in sig.parameters.values()]
        return str(sig.replace(parameters=params, return_annotation=sig.empty))

    assert {fn.__qualname__: bare(fn) for fn in (
        quantize.pairing, quantize.shifted_pairing, quantize.measure_sequence,
        quantize.husimi_grid, verify.h_oscillation_tail, verify.TransportedSymbol.__init__,
        quantize.apply_interior_op, quantize.apply_shifted_op,
        verify.invariance_gap, verify.support_gap,
        charts.DiskChart.__init__, charts.AnnulusChart.__init__, charts.ModelChart.__init__,
        billiard.propagate, modes.laplace_disk_mode, modes.stokes_disk_mode,
    )} == {
        "pairing": "(a, mode)",
        "shifted_pairing": "(a, s, mode)",
        "measure_sequence": "(a, modes)",
        "husimi_grid": "(mode, *, nx, nxi)",
        "h_oscillation_tail": "(modes, radii, *, variant='interior')",
        "TransportedSymbol.__init__": "(self, base, s)",
        "apply_interior_op": "(a, f, h, grid)",
        "apply_shifted_op": "(a, s, f, h, grid)",
        "invariance_gap": "(modes, a, s, *, thresholds=None, experiment='invariance-gap')",
        "support_gap": "(modes, a, s, *, thresholds=None, chart=None,"
        " experiment='support-transport', nx=28, nxi=29, glancing_sign=1.0)",
        "DiskChart.__init__": "(self, collar_width=0.35)",
        "AnnulusChart.__init__": "(self, rho_in, component='outer', collar_width=None)",
        "ModelChart.__init__": "(self, terms, max_derivative_order=8)",
        "propagate": "(x, xi, t, pinned='raise')",
        "laplace_disk_mode": "(m, k)",
        "stokes_disk_mode": "(m, k)",
    }


def test_every_schema_kind_has_one_runner():
    for kind in KINDS.values():
        jsonschema.Draft202012Validator.check_schema(kind.schema)
    assert set(cli.VERIFY_KINDS) <= set(KINDS)
    # every probe subcommand runs the experiment kind of its own name
    [subs] = [a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    probes = {name for name, p in subs.choices.items() if p.get_default("func") is cli.cmd_probe}
    assert probes == {"classify", "trace", "mode", "parametrix"}
    assert probes <= set(KINDS)


def test_smoke_config_exits_clean_and_fast(tmp_path):
    t0 = time.perf_counter()
    code = run_cli(["run", "--config", "@smoke", "--out", str(tmp_path)])
    elapsed = time.perf_counter() - t0
    assert code == 0
    assert elapsed < 10.0
    doc = summary_of(tmp_path)
    assert doc["counts"] == {"ok": 3}
    assert doc["exit_status"] == 0


def test_reruns_are_bit_identical(tmp_path):
    a, b, c = tmp_path / "a", tmp_path / "b", tmp_path / "c"
    assert run_cli(["run", "--config", "@smoke", "--out", str(a)]) == 0
    assert run_cli(["run", "--config", "@smoke", "--out", str(b)]) == 0
    assert run_cli(["run", "--config", "@smoke", "--out", str(c), "--jobs", "3"]) == 0
    da, db, dc = tree_digest(a), tree_digest(b), tree_digest(c)
    assert da == db  # serial rerun
    assert da == dc  # parallel schedule cannot change artifact bytes


def test_support_bytes_do_not_depend_on_threads_or_jobs(tmp_path):
    # @smoke runs no Husimi density; these two support experiments do,
    # and m = 32 puts it on a 172-point box, large enough that a BLAS
    # contraction would round differently at 1 and 2 threads
    symbol = {
        "type": "interior",
        "xi_bound": 1.5,
        "factors": [
            {"var": "radius", "window": [0.45, 0.55, 0.97, 1.02]},
            {"var": "speed", "window": [0.75, 0.85, 1.15, 1.25]},
        ],
    }
    cfg = tmp_path / "support.json"
    cfg.write_text(json.dumps({"experiments": [
        {"name": f"s{m}", "kind": "support", "symbol": symbol, "time": 0.9,
         "family": {"family": "stokes", "m": m, "k": {"ratio": 0.5}}}
        for m in (4, 32)
    ]}))
    digests = digests_at_widths(tmp_path, cfg)
    assert len(digests[0]) == 5  # two CSV/JSON pairs and summary.json
    assert digests[0] == digests[1]


def test_layer_bytes_do_not_depend_on_threads_or_jobs(tmp_path):
    # the whole seed-0 `layer` config: the alias-free shifted pairing, the
    # half-spectrum tails, and the mode residuals, whose radial derivatives
    # sum outside BLAS
    cfg = tmp_path / "layer.json"
    cfg.write_text(json.dumps(benchmark_workloads().build_config("layer", 0)))
    names = [e["name"] for e in json.loads(cfg.read_text())["experiments"]]
    digests = digests_at_widths(tmp_path, cfg)
    assert len(digests[0]) == 2 * len(names) + 1  # a CSV/JSON pair each and summary.json
    assert digests[0] == digests[1]


def digests_at_widths(tmp_path, cfg, *args):
    """Tree digests of `bicharlab run` on `cfg` in a fresh process at
    OPENBLAS_NUM_THREADS and --jobs both 1, then both 2."""
    root = Path(__file__).resolve().parents[1]
    digests = []
    for width in ("1", "2"):
        env = dict(os.environ, PYTHONPATH=str(root / "src"), OPENBLAS_NUM_THREADS=width)
        out = tmp_path / f"out{width}"
        proc = subprocess.run(
            [sys.executable, "-m", "bicharlab.cli", "run", "--config", str(cfg),
             "--out", str(out), "--jobs", width, *args],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr
        digests.append(tree_digest(out))
    return digests


def test_seed_changes_output_bytes(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    run_cli(["run", "--config", "@smoke", "--out", str(a)])
    run_cli(["run", "--config", "@smoke", "--out", str(b), "--seed", "8"])
    assert tree_digest(a) != tree_digest(b)


@pytest.mark.parametrize("command", ["run", "verify", "measure"])
@pytest.mark.parametrize("flag, value", [("--seed", "-5"), ("--jobs", "0"), ("--jobs", "-3")])
def test_seed_and_jobs_flags_follow_the_schema(command, flag, value, tmp_path, capsys):
    # a negative seed once failed only inside the experiments, and jobs < 1 ran
    out = tmp_path / "out"
    assert run_cli([command, "--config", "@smoke", "--out", str(out), flag, value]) == 2
    err = capsys.readouterr().err
    assert f"{flag}: {value} is less than the minimum" in err and "Traceback" not in err
    assert not out.exists()


def test_empty_experiment_list_exits_zero(tmp_path):
    cfg = tmp_path / "empty.json"
    cfg.write_text(json.dumps({"experiments": []}))
    code = run_cli(["run", "--config", str(cfg), "--out", str(tmp_path / "out")])
    assert code == 0
    doc = summary_of(tmp_path / "out")
    assert doc["experiments"] == [] and doc["counts"] == {}


NAN_CHART = {"kind": "model", "terms": [[0, 1, 0, 1.0], [1, 0, 1, float("nan")]]}
HALF_POWER_CHART = {"kind": "model", "terms": [[0, 1, 0, 1.0], [1.5, 0, 1, 1.0]]}
MISSPELT_CHART = {"kind": "disk", "colar_width": 0.2}
ORDER_ONE_CHART = {"kind": "model", "terms": [[0, 1, 0, 1.0]], "max_derivative_order": 1}
# round charts resolve every glancing point at order 2 and take no budget;
# a model chart is never embedded, so no step reads a collar width
ROUND_BUDGET_CHART = {"kind": "disk", "max_derivative_order": 8}
MODEL_COLLAR_CHART = {"kind": "model", "terms": [[0, 1, 0, 1.0]], "collar_width": 1.0}
ZERO_COLLAR_CHART = {"kind": "annulus", "rho_in": 0.5, "collar_width": 0}
INT_TERM_CHART = {"kind": "model", "terms": [5]}
MODEL_CHART = {"kind": "model", "terms": [[0, 1, 0, 1.0], [1, 0, 1, 1.0]]}


def test_invalid_config_exits_two(tmp_path, capsys):
    classify = {"name": "c", "kind": "classify", "points": [[0, 0.5]]}
    no_radius = tmp_path / "no-radius.json"
    no_radius.write_text(json.dumps({"kind": "annulus"}))
    nan_coeff = tmp_path / "nan-coeff.json"
    nan_coeff.write_text(json.dumps(NAN_CHART))
    zero_collar = tmp_path / "zero-collar.json"
    zero_collar.write_text(json.dumps(ZERO_COLLAR_CHART))
    trace = {"name": "t", "kind": "trace", "start": [0, 0, 1, 0], "time": 1.0}
    below = dict(trace, start={"y": -0.5, "xp": 0, "eta": 0.5, "xip": 0.5})
    past_center = dict(trace, start={"y": 1.5, "xp": 0, "eta": 0.5, "xip": 0.5})
    at_center = dict(trace, start={"y": 1, "xp": 0, "eta": 0, "xip": 0.5})
    family = {"family": "laplace", "m": 0, "k": [2]}
    tails = {"name": "t", "kind": "tails", "family": family, "radii": [2.0]}
    measure = {"name": "m", "kind": "measure", "family": family, "symbol": {
        "type": "interior", "xi_bound": 1.5,
        "factors": [{"var": "radius", "window": [0.2, 0.3, 0.5, 0.6]}]}}
    tangential = {"type": "tangential", "y_support": 0.3}
    elliptic = {"name": "e", "kind": "elliptic", "family": family, "symbol": tangential}
    cases = [
        ({"experiments": [dict(classify, samples=-1)]}, "experiments[0].samples"),
        ({"experiments": [{"name": "p", "kind": "parametrix", "m": [12, 12]}]},
         "experiments[0].m"),
        ({"chart": {"kind": "annulus"}, "experiments": [classify]}, "chart: "),
        ({"chart": {"kind": "annulus", "rho_in": 2}, "experiments": [classify]}, "chart: "),
        ({"chart": str(no_radius), "experiments": [classify]}, "chart: "),
        ({"chart": NAN_CHART, "experiments": [classify]}, "chart: "),
        ({"chart": str(nan_coeff), "experiments": [classify]}, "chart: "),
        ({"experiments": [dict(classify, points=[[0, float("nan")]])]},
         "experiments[0].points[0][1]: nan is not a finite number"),
        ({"experiments": [dict(classify, points=[[float("-inf"), 0.5]])]},
         "experiments[0].points[0][0]: -inf is not a finite number"),
        ({"chart": HALF_POWER_CHART, "experiments": [classify]},
         "chart: bad term [1.5, 0, 1, 1.0]: powers must be integers"),
        ({"chart": MISSPELT_CHART, "experiments": [classify]},
         "chart: chart kind 'disk' has no key 'colar_width'"),
        ({"chart": ORDER_ONE_CHART, "experiments": [classify]},
         "chart: max_derivative_order must be an integer >= 2"),
        ({"chart": ROUND_BUDGET_CHART, "experiments": [classify]},
         "chart: chart kind 'disk' has no key 'max_derivative_order'"),
        ({"chart": {"kind": "annulus", "rho_in": 0.5, "max_derivative_order": 8},
          "experiments": [classify]},
         "chart: chart kind 'annulus' has no key 'max_derivative_order'"),
        ({"chart": MODEL_COLLAR_CHART, "experiments": [classify]},
         "chart: chart kind 'model' has no key 'collar_width'"),
        ({"chart": str(zero_collar), "experiments": [classify]},
         "chart: collar width must be positive"),
        ({"chart": INT_TERM_CHART, "experiments": [classify]},
         "chart: bad term 5: need (pow_z1, pow_zeta1, pow_y, coeff)"),
        ({"chart": MODEL_CHART, "experiments": [trace]},
         "experiments[0].start: a model chart has no ambient embedding"),
        # ended as status error, exit 1, when build_parametrix refused
        ({"chart": MODEL_CHART, "experiments": [{"name": "p", "kind": "parametrix", "m": [12]}]},
         "chart: experiments[0] (parametrix) models disk and annulus charts only, not model"),
        # the kinds that compute on disk modes: support and invariance ended
        # as status error, exit 1; the others ignored the chart
        *(
            ({"chart": chart, "experiments": [exp]},
             f"chart: experiments[0] ({exp['kind']}) models disk charts only, not {kind} charts")
            for exp, chart, kind in (
                ({"name": "m", "kind": "mode", "family": family}, "annulus:0.5", "annulus"),
                (measure, "annulus:0.5:inner", "annulus"),
                (dict(measure, kind="invariance", time=0.1), "annulus:0.5", "annulus"),
                (dict(measure, kind="support", time=0.1), "annulus:0.4", "annulus"),
                (dict(elliptic, symbol=dict(tangential, xip_window=[1.15, 1.3, 3.5, 3.9])),
                 "annulus:0.5:inner", "annulus"),
                (dict(measure, kind="car", symbol=dict(measure["symbol"], factors=[
                    *measure["symbol"]["factors"],
                    {"var": "speed_sq", "window": [0.35, 0.5, 0.75, 0.8]}])),
                 MODEL_CHART, "model"),
                (tails, "annulus:0.5", "annulus"),
            )
        ),
        ({"experiments": [dict(trace, start=[2, 0, 1, 0])]},
         "experiments[0].start: x = (2, 0) lies outside the closed disk domain"),
        ({"chart": {"kind": "annulus", "rho_in": 0.5}, "experiments": [trace]},
         "experiments[0].start: x = (0, 0) lies outside the closed annulus domain"),
        # collar-frame starts outside the domain once traced as if valid, or
        # failed only at run time
        ({"experiments": [below]}, "experiments[0].start: y = -0.5 lies below the boundary"),
        ({"chart": "annulus:0.5", "experiments": [below]},
         "experiments[0].start: y = -0.5 lies below the boundary"),
        ({"chart": MODEL_CHART, "experiments": [below]},
         "experiments[0].start: y = -0.5 lies below the boundary"),
        ({"experiments": [past_center]},
         "experiments[0].start: y = 1.5 does not map into the closed disk domain"),
        ({"experiments": [at_center]},
         "experiments[0].start: y = 1 does not map into the closed disk domain"
         " (cannot place an angular covector at the center)"),
        # values of the wrong type or length once reached the cross-key
        # rules, which raised TypeError or IndexError
        ({"experiments": [dict(tails, radii=["a"])]},
         "experiments[0].radii[0]: 'a' is not of type 'number'"),
        ({"experiments": [dict(tails, radii=5)]}, "experiments[0].radii: 5 is not of type 'array'"),
        ({"experiments": [{"name": "p", "kind": "parametrix", "m": ["a"],
                           "expect_halving": True}]},
         "experiments[0].m[0]: 'a' is not of type 'integer'"),
        ({"experiments": [dict(classify, points=3, expect=["hyperbolic"])]},
         "experiments[0].points: 3 is not of type 'array'"),
        ({"experiments": [dict(measure, symbol=dict(
            measure["symbol"], factors=[{"var": "radius", "window": ["a", 1, 2, 3]}]))]},
         "experiments[0].symbol.factors[0].window[0]: 'a' is not of type 'number'"),
        ({"experiments": [dict(elliptic, symbol=dict(tangential, y_ramp=["a", 0.2]))]},
         "experiments[0].symbol.y_ramp[0]: 'a' is not of type 'number'"),
        ({"experiments": [dict(elliptic, symbol=dict(
            tangential, arc={"center": 0, "inner": "a", "outer": 1}))]},
         "experiments[0].symbol.arc.inner: 'a' is not of type 'number'"),
        ({"experiments": [dict(elliptic, symbol=dict(tangential, xip_window=[1, 2, 3]))]},
         "experiments[0].symbol.xip_window: [1, 2, 3] is too short"),
        ({"experiments": [{"name": "m", "kind": "mode", "family": {
            "family": "laplace", "m": 2.0, "k": 1}}]},
         "experiments[0].family.m: 2.0 is not valid under any of the given schemas"),
        ({"experiments": [dict(tails, radii=[2.0, 0.5])]},
         "experiments[0].radii: every radius must exceed 1"),
        ({"experiments": [dict(tails, radii=[3.0, 2.0])]},
         "experiments[0].radii: must be increasing"),
        ({"experiments": [{"name": "m", "kind": "mode", "family": {
            "family": "stokes", "m": [0, -2], "k": [1, 2]}}]},
         "experiments[0].family.m: [0, -2] is not valid under any of the given schemas"),
        ({"experiments": [dict(classify, expect=["hyperbolic", "elliptic"])]},
         "experiments[0].expect: must match points, one label per point"),
        # ambient starts off the unit shell were traced as if |xi| = 1
        *(
            ({"experiments": [dict(trace, start=[0.1, 0, *xi], time=3.0)]},
             f"experiments[0].start: |xi| = {speed} lies off the unit energy shell")
            for xi, speed in (([1.2, 1.6], 2.0), ([0.3, 0.4], 0.5), ([0, 0], 0.0))
        ),
        # the keys no config, workload or @smoke set are constants now, and
        # the keys the symbol decides are gone
        *(
            ({"experiments": [exp]}, f"\n  experiments[0].{path}: unknown key\n")
            for exp, path in (
                (dict(tails, family=dict(family, k={"ratio": 0.5, "k_max": 80})),
                 "family.k.k_max"),
                (dict(tails, family=dict(family, num_r=40)), "family.num_r"),
                (dict(tails, family=dict(family, num_theta=32)), "family.num_theta"),
                (dict(classify, tol_g=1e-8), "tol_g"),
                (dict(classify, tol_bracket=1e-6), "tol_bracket"),
                ({"name": "p", "kind": "parametrix", "m": [12], "delta0": 0.25}, "delta0"),
                ({"name": "p", "kind": "parametrix", "m": [12], "eps0": 0.3}, "eps0"),
                ({"name": "p", "kind": "parametrix", "m": [12], "halving_band": [1.4, 2.6]},
                 "halving_band"),
                (dict(measure, kind="support", time=0.1, husimi={"x_max": 1.25}), "husimi.x_max"),
                (dict(measure, kind="support", time=0.1, husimi={"xi_max": 1.6}), "husimi.xi_max"),
                # the symbol decides the invariance route
                (dict(measure, kind="invariance", time=0.1, route="free"), "route"),
            )
        ),
    ]
    for i, (raw, named) in enumerate(cases):
        cfg = tmp_path / f"bad{i}.json"
        cfg.write_text(json.dumps(raw))
        out = tmp_path / f"out{i}"
        code = run_cli(["run", "--config", str(cfg), "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert named in err and "Traceback" not in err
        assert not (out / "summary.json").exists()  # refused before computing


RINGS = {"family": "laplace", "m": 0, "k": [10, 16]}
INTERIOR = {"type": "interior", "xi_bound": 1.6, "factors": [
    {"var": "bump", "center": [0.25, 0.0], "radius": 0.2},
    {"var": "speed", "window": [0.6, 0.8, 1.2, 1.4]},
]}
SPINNING = dict(INTERIOR, factors=[
    *INTERIOR["factors"], {"var": "angular_momentum", "window": [0.0, 0.1, 0.2, 0.3]},
])
COLLAR = {"type": "tangential", "y_support": 0.3, "xip_window": [1.15, 1.3, 3.5, 3.9]}


def pairing_config(kind, symbol, **keys):
    exp = {"name": "p", "kind": kind, "family": RINGS, "symbol": symbol, **keys}
    return {"experiments": [exp]}


# (tag, config, the error it must name): each passed validation and then
# ended as a run-time error (exit 1), or ran with a key its computation
# ignores.  A row's id is its own tag and error, so deleting a row renames
# no other; the rawN tags are the positions the rows held when ids were
# built from them
KIND_RULES = [
    ("raw0", pairing_config("car", COLLAR),
     "experiments[0].symbol.type: car experiments need interior symbols"),
    ("raw1", pairing_config("elliptic", INTERIOR),
     "experiments[0].symbol.type: elliptic experiments need tangential symbols"),
    ("raw2", pairing_config("invariance", COLLAR, time=0.1), "experiments[0].symbol.type"),
    # a momentum factor takes the pullback route, and its symbol still
    # meets the symbol rules
    ("raw3",
     pairing_config("invariance", dict(SPINNING, factors=SPINNING["factors"][1:]), time=0.1),
     "experiments[0].symbol.factors"),
    ("raw4", pairing_config("invariance", dict(SPINNING, xi_bound=1.2), time=0.1),
     "experiments[0].symbol.factors"),
    ("raw5", pairing_config("support", COLLAR, time=0.1, husimi={"nx": 8}),
     "experiments[0].husimi"),
    ("raw6", pairing_config("support", INTERIOR, time=0.1, glancing_sign=-1),
     "experiments[0].glancing_sign"),
    ("raw7", pairing_config("car", dict(INTERIOR, factors=[
        INTERIOR["factors"][0], {"var": "speed_sq", "window": [0.35, 0.35, 0.75, 0.8]},
    ])), "experiments[0].symbol.factors[1].window: window ramps must be at least 1e-09"),
    ("raw8", pairing_config("measure", dict(INTERIOR, factors=[
        INTERIOR["factors"][0], {"var": "speed", "window": [0.6, 0.8, 1.2, 1.2 + 1e-12]},
    ])), "experiments[0].symbol.factors[1].window: window ramps"),
    ("raw9", pairing_config("elliptic", dict(COLLAR, xip_window=[1.15, 1.15, 3.5, 3.9])),
     "experiments[0].symbol.xip_window: window ramps"),
    # the lattice never samples this speed window: the pairing read 1.9e-19
    ("raw10", pairing_config("measure", {"type": "interior", "xi_bound": 0.5, "factors": [
        {"var": "radius", "window": [-0.7, -0.6, 0.6, 0.7]},
        {"var": "speed", "window": [1.0, 1.1, 1.3, 1.4]},
    ]}), "experiments[0].symbol.factors[1].window: the window reaches |xi| = 1.4"),
    ("raw11", pairing_config("measure", dict(INTERIOR, xi_bound=0.85, factors=[
        INTERIOR["factors"][0], {"var": "speed_sq", "window": [0.35, 0.5, 0.75, 0.8]},
    ])), "experiments[0].symbol.factors[1].window: the window reaches |xi| = 0.894"),
    # 1.0 at |xi|^2 = 0.875, between the samples of a coarse probe
    ("raw12", pairing_config("car", dict(INTERIOR, factors=[
        INTERIOR["factors"][0], {"var": "speed_sq", "window": [0.86, 0.87, 0.88, 0.89]},
    ])), "experiments[0].symbol.factors: the speed windows are nonzero for |xi|^2"),
    ("raw13", pairing_config("car", dict(INTERIOR, factors=[
        *INTERIOR["factors"], {"var": "speed", "window": [1.05, 1.1, 1.4, 1.5]},
    ])), "experiments[0].symbol.factors: the speed windows are nonzero for |xi|^2"),
    ("raw14", pairing_config("car", dict(INTERIOR, factors=INTERIOR["factors"][:1])),
     "experiments[0].symbol.factors: car symbols need a speed or speed_sq factor"),
    # elliptic_mass refused this window at run time: exit 1
    ("raw15",
     pairing_config("elliptic", dict(COLLAR, xip_window=[0.5, 0.6, 3.5, 3.9], xip_abs=True)),
     "experiments[0].symbol.xip_window: the window is nonzero for |xi'| in (0.5, 3.9)"),
    ("raw16", pairing_config("elliptic", dict(COLLAR, xip_window=[-3.9, -3.5, 1.0, 1.2])),
     "experiments[0].symbol.xip_window: the window is nonzero for xi' in (-3.9, 1.2)"),
    ("raw17", pairing_config("elliptic", {"type": "tangential", "y_support": 0.3}),
     "experiments[0].symbol.xip_window: elliptic symbols need a window"),
    # the halving law judged the order-1 errors, or no pair at all
    ("raw18", {"experiments": [{"name": "p", "kind": "parametrix", "m": [32, 64],
                                "orders": [1], "expect_halving": True}]},
     "experiments[0].expect_halving: the halving law judges order 0, which orders lacks"),
    ("raw19", {"experiments": [{"name": "p", "kind": "parametrix", "m": [16, 64],
                                "expect_halving": True}]},
     "experiments[0].expect_halving: m holds no pair (m, 2m) to judge"),
]


@pytest.mark.parametrize(
    "raw, named",
    [pytest.param(raw, named, id=f"{tag}-{named}") for tag, raw, named in KIND_RULES],
)
def test_kind_symbol_and_window_rules_exit_two(raw, named, tmp_path, capsys):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps(raw))
    code = run_cli(["run", "--config", str(cfg), "--out", str(tmp_path / "out")])
    assert code == 2
    err = capsys.readouterr().err
    assert named in err and "Traceback" not in err
    assert not (tmp_path / "out" / "summary.json").exists()


def test_car_band_rule_reads_the_intersection_of_the_speed_windows():
    # each window alone meets the band; where both are nonzero, |xi|^2 in
    # (0.36, 0.7), it does not
    both = dict(INTERIOR, factors=[
        *INTERIOR["factors"], {"var": "speed_sq", "window": [0.3, 0.4, 0.6, 0.7]},
    ])
    assert validate_config(pairing_config("car", both)) == []
    # an open support that ends at the band's edge misses it
    edge = dict(INTERIOR, factors=[
        INTERIOR["factors"][0], {"var": "speed_sq", "window": [0.35, 0.5, 0.75, 0.8]},
    ])
    assert validate_config(pairing_config("car", edge)) == []


def test_elliptic_window_rule_reads_the_open_support():
    # a window is nonzero exactly on (a, d), so an edge at 1.1 clears the
    # probe |xi'| <= 1.1; without xip_abs a window may also lie below -1.1
    for w, use_abs in (
        ([1.1, 1.3, 3.5, 3.9], True),
        ([1.15, 1.3, 3.5, 3.9], False),
        ([-3.9, -3.5, -1.3, -1.1], False),
    ):
        symbol = dict(COLLAR, xip_window=w, xip_abs=use_abs)
        assert validate_config(pairing_config("elliptic", symbol)) == []


def test_pullback_invariance_and_arc_symbols_pass_the_kind_rules(tmp_path, monkeypatch):
    # the symbol decides the route: a momentum factor takes the pullback,
    # any other symbol the free shifted pairing
    free = counted(monkeypatch, verify, "shifted_pairing")
    pullback = counted(monkeypatch, verify, "_box_pairings")
    spinning = {"experiments": [{"name": "p", "kind": "invariance", "symbol": SPINNING,
                                 "family": {"family": "laplace", "m": 0, "k": 2}, "time": 0.1}]}
    assert validate_config(spinning) == []
    # an arc is a factor of x alone, so the free route takes this symbol
    arc = dict(INTERIOR, arc={"center": 0.0, "inner": 0.5, "outer": 1.0})
    arcs = pairing_config("invariance", arc, time=0.15)
    for label, raw in (("spinning", spinning), ("arc", arcs)):
        cfg = tmp_path / f"{label}.json"
        cfg.write_text(json.dumps(raw))
        assert run_cli(["run", "--config", str(cfg), "--out", str(tmp_path / label)]) == 0
        assert summary_of(tmp_path / label)["experiments"][0]["summary"]["verdict"] == "pass"
    # one pullback pairing for the one spinning mode, one free one per ring mode
    assert len(pullback) == 1 and len(free) == 2


def probe_config(kind, chart=None, **keys):
    """The one-experiment config a probe of this kind runs."""
    raw = {"experiments": [{"name": kind, "kind": kind, **keys}]}
    if chart is not None:
        raw["chart"] = chart
    return raw


ORIGIN_RAY = {"start": [0.0, 0.0, 1.0, 0.0], "time": 1.0}
COVECTOR = {"points": [[0.0, 1.0]]}


def laplace(**family):
    return probe_config("mode", family={"family": "laplace", "m": 2, "k": 1, **family})


# (tag, probe argv, refused flag, equivalent config); no config where
# argparse cannot convert the text to numbers, which no JSON config can
# hold.  A row's id is its own tag and flag, so deleting a row renames no
# other; the argvN tags are the positions the rows held when ids were
# built from them
PROBE_REFUSALS = [
    ("argv0", ["trace", "--start", "a,b,c,d", "--time", "1"], "--start", None),
    ("argv1", ["parametrix", "--m", "0", "--orders", "0"], "--m",
     probe_config("parametrix", m=[0], orders=[0])),
    ("argv2", ["parametrix", "--m", "12,x"], "--m", None),
    ("argv3", ["mode", "--family", "laplace", "--m", "-1", "--k", "1"], "--m", laplace(m=-1)),
    ("argv4", ["mode", "--family", "stokes", "--m", "3", "--k", "0"], "--k",
     probe_config("mode", family={"family": "stokes", "m": 3, "k": 0})),
    ("argv5", ["classify", "--xp", "inf", "--xip", "1"], "--xp",
     probe_config("classify", points=[[float("inf"), 1.0]])),
    ("argv6", ["mode", "--family", "nope", "--m", "2", "--k", "1"], "--family",
     laplace(family="nope")),
    ("argv7", ["mode", "--family", "stokes", "--m", "-1", "--k", "1"], "--m",
     probe_config("mode", family={"family": "stokes", "m": -1, "k": 1})),
    ("argv8", ["parametrix", "--m", "12", "--orders", "2"], "--orders",
     probe_config("parametrix", m=[12], orders=[2])),
    ("argv9", ["parametrix", "--m", "12,12"], "--m", probe_config("parametrix", m=[12, 12])),
    ("argv10", ["classify", "--chart", "annulus:2", "--xp", "0", "--xip", "1"], "--chart",
     probe_config("classify", "annulus:2", **COVECTOR)),
    ("argv11", ["classify", "--chart", "nosuch", "--xp", "0", "--xip", "1"], "--chart",
     probe_config("classify", "nosuch", **COVECTOR)),
    ("argv12", ["trace", "--start", "0,0,1,0", "--time", "1", "--samples", "0", "--out", "D"],
     "--samples", probe_config("trace", **ORIGIN_RAY, samples=0)),
    ("argv13", ["trace", "--start", "0,0,1,0", "--time", "0"], "--time",
     probe_config("trace", **dict(ORIGIN_RAY, time=0.0))),
    ("argv14", ["trace", "--start", "0,0,1,0", "--time", "nan"], "--time",
     probe_config("trace", **dict(ORIGIN_RAY, time=float("nan")))),
    ("argv15", ["classify", "--chart", "no-radius.json", "--xp", "0", "--xip", "1"], "--chart",
     probe_config("classify", "no-radius.json", **COVECTOR)),
    ("argv16", ["classify", "--xp", "0", "--xip", "inf"], "--xip",
     probe_config("classify", points=[[0.0, float("inf")]])),
    ("argv17", ["classify", "--xp", "nan", "--xip", "1"], "--xp",
     probe_config("classify", points=[[float("nan"), 1.0]])),
    ("argv18", ["classify", "--chart", "nan-coeff.json", "--xp", "0", "--xip", "1"], "--chart",
     probe_config("classify", "nan-coeff.json", **COVECTOR)),
    ("argv19", ["classify", "--chart", "half-power.json", "--xp", "0", "--xip", "1"], "--chart",
     probe_config("classify", "half-power.json", **COVECTOR)),
    ("argv20", ["classify", "--chart", "misspelt.json", "--xp", "0", "--xip", "1"], "--chart",
     probe_config("classify", "misspelt.json", **COVECTOR)),
    ("argv21", ["classify", "--chart", "order-one.json", "--xp", "0", "--xip", "1"], "--chart",
     probe_config("classify", "order-one.json", **COVECTOR)),
    ("argv22", ["classify", "--chart", "zero-collar.json", "--xp", "0", "--xip", "1"], "--chart",
     probe_config("classify", "zero-collar.json", **COVECTOR)),
    ("argv23", ["classify", "--chart", "int-term.json", "--xp", "0", "--xip", "1"], "--chart",
     probe_config("classify", "int-term.json", **COVECTOR)),
    ("argv24", ["trace", "--chart", "model.json", "--start", "0,0,1,0", "--time", "1"], "--start",
     probe_config("trace", "model.json", **ORIGIN_RAY)),
    ("argv25", ["parametrix", "--m", "12", "--orders", "0,0"], "--orders",
     probe_config("parametrix", m=[12], orders=[0, 0])),
    ("argv26", ["trace", "--start", "2,0,1,0", "--time", "1"], "--start",
     probe_config("trace", **dict(ORIGIN_RAY, start=[2.0, 0.0, 1.0, 0.0]))),
    ("argv27", ["trace", "--chart", "annulus:0.5", "--start", "0.2,0,1,0", "--time", "1"],
     "--start",
     probe_config("trace", "annulus:0.5", **dict(ORIGIN_RAY, start=[0.2, 0.0, 1.0, 0.0]))),
    # ambient starts off the unit shell |xi| = 1
    ("argv28", ["trace", "--start", "0.1,0,1.2,1.6", "--time", "3"], "--start",
     probe_config("trace", start=[0.1, 0.0, 1.2, 1.6], time=3.0)),
    ("argv29", ["trace", "--start", "0.1,0,0.3,0.4", "--time", "3"], "--start",
     probe_config("trace", start=[0.1, 0.0, 0.3, 0.4], time=3.0)),
    ("argv30", ["trace", "--start", "0.1,0,0,0", "--time", "3"], "--start",
     probe_config("trace", start=[0.1, 0.0, 0.0, 0.0], time=3.0)),
    # shorthands with a field past their last one
    ("argv31", ["classify", "--chart", "disk:0.2:junk", "--xp", "0", "--xip", "1"], "--chart",
     probe_config("classify", "disk:0.2:junk", **COVECTOR)),
    ("argv32",
     ["trace", "--chart", "annulus:0.3:inner:junk", "--start", "0.5,0,1,0", "--time", "1"],
     "--chart", probe_config("trace", "annulus:0.3:inner:junk",
                             **dict(ORIGIN_RAY, start=[0.5, 0.0, 1.0, 0.0]))),
    # chart keys the chart kind decides
    ("round-budget", ["classify", "--chart", "round-budget.json", "--xp", "0", "--xip", "1"],
     "--chart", probe_config("classify", "round-budget.json", **COVECTOR)),
    ("model-collar", ["classify", "--chart", "model-collar.json", "--xp", "0", "--xip", "1"],
     "--chart", probe_config("classify", "model-collar.json", **COVECTOR)),
]


@pytest.mark.parametrize(
    "argv, flag, config",
    [pytest.param(argv, flag, config, id=f"{tag}-{flag}")
     for tag, argv, flag, config in PROBE_REFUSALS],
)
def test_adhoc_usage_error_exits_two(argv, flag, config, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    for name, chart in [
        ("no-radius", {"kind": "annulus"}), ("nan-coeff", NAN_CHART),
        ("half-power", HALF_POWER_CHART), ("misspelt", MISSPELT_CHART),
        ("order-one", ORDER_ONE_CHART), ("zero-collar", ZERO_COLLAR_CHART),
        ("int-term", INT_TERM_CHART), ("model", MODEL_CHART),
        ("round-budget", ROUND_BUDGET_CHART), ("model-collar", MODEL_COLLAR_CHART),
    ]:
        (tmp_path / f"{name}.json").write_text(json.dumps(chart))
    # argparse refuses the flag: one usage line, exit 2, no traceback
    with pytest.raises(SystemExit) as exc:
        run_cli(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: bicharlab " + argv[0])
    assert not (tmp_path / "D").exists()  # refused before computing
    if config is None:
        assert f"error: argument {flag}: invalid comma-separated " in err
        return
    # the reason is the config schema's own, as `bicharlab run` prints it
    (tmp_path / "equivalent.json").write_text(json.dumps(config))
    assert run_cli(["run", "--config", "equivalent.json", "--out", "R"]) == 2
    first = capsys.readouterr().err.splitlines()[1]  # after "invalid config:"
    reason = first.strip().partition(": ")[2]
    assert f"error: argument {flag}: {reason}\n" in err


@pytest.mark.parametrize(
    "argv, config",
    [
        (["classify", "--xp", "0.0", "--xip", "1.0"], probe_config("classify", **COVECTOR)),
        (["trace", "--start", "0.0,-1.0,0.6,0.8", "--time", "2.0", "--samples", "9"],
         probe_config("trace", start=[0.0, -1.0, 0.6, 0.8], time=2.0, samples=9)),
        (["mode", "--family", "stokes", "--m", "3", "--k", "2"],
         probe_config("mode", family={"family": "stokes", "m": 3, "k": 2})),
        (["parametrix", "--m", "12,24", "--orders", "0"],
         probe_config("parametrix", m=[12, 24], orders=[0])),
    ],
)
def test_probe_writes_the_artifacts_of_its_config(argv, config, tmp_path, capsys):
    assert run_cli(argv + ["--out", str(tmp_path / "probe")]) == 0
    cfg = tmp_path / "equivalent.json"
    cfg.write_text(json.dumps(config))
    assert run_cli(["run", "--config", str(cfg), "--out", str(tmp_path / "run")]) == 0
    probe, run = tree_digest(tmp_path / "probe"), tree_digest(tmp_path / "run")
    kind = argv[0]
    assert sorted(probe) == [f"{kind}.csv", f"{kind}.json"]
    assert probe == {name: run[name] for name in probe}


def test_failing_expectation_exits_one(tmp_path):
    cfg = tmp_path / "f.json"
    cfg.write_text(
        json.dumps(
            {
                "experiments": [
                    {
                        "name": "wrong",
                        "kind": "classify",
                        "points": [[0.0, 0.5]],
                        "expect": ["elliptic"],
                    },
                    {
                        "name": "fine",
                        "kind": "classify",
                        "points": [[0.0, 0.5]],
                        "expect": ["hyperbolic"],
                    },
                ]
            }
        )
    )
    code = run_cli(["run", "--config", str(cfg), "--out", str(tmp_path / "out")])
    assert code == 1
    doc = summary_of(tmp_path / "out")
    statuses = {r["name"]: r["status"] for r in doc["experiments"]}
    assert statuses == {"wrong": "fail", "fine": "ok"}


LAPLACE_RING = {"family": "laplace", "m": 0, "k": [2]}


@pytest.mark.parametrize(
    "exp, named",
    [
        ({"kind": "trace", "start": [0, 0, 1, 0], "time": 1.0, "expect_reflections": 7},
         "expect_reflections"),
        ({"kind": "mode", "family": LAPLACE_RING, "tolerances": {"divergence": 1.0}},
         "divergence: not reported by the laplace family"),
        ({"kind": "mode", "family": LAPLACE_RING, "tolerances": {"pde": 1e-300}},
         "pde: worst"),
        ({"kind": "tails", "family": LAPLACE_RING, "radii": [2.0], "bound": 1e-300}, "bound"),
        # listed in descending m: only the pair 4 -> 8 (ratio 1.060) is judged
        ({"kind": "parametrix", "m": [8, 4], "orders": [0], "expect_halving": True},
         "order-0 ratio 1.060 at m 4->8 outside [1.4, 2.6]"),
    ],
    ids=["trace-reflections", "mode-unreported-key", "mode-residual", "tails-bound",
         "parametrix-halving"],
)
def test_failing_verdict_exits_one(exp, named, tmp_path):
    cfg = tmp_path / "f.json"
    cfg.write_text(json.dumps({"experiments": [dict(exp, name="f")]}))
    assert run_cli(["run", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 1
    (row,) = summary_of(tmp_path / "out")["experiments"]
    assert row["status"] == "fail" and named in json.dumps(row["summary"])


def test_inconclusive_is_not_a_failure(tmp_path):
    # rim points sit exactly on the husimi lattice, so transport hits
    # tangential contacts it cannot certify and the verdict must demote
    # to inconclusive without failing the run
    cfg = tmp_path / "i.json"
    cfg.write_text(
        json.dumps(
            {
                "experiments": [
                    {
                        "name": "rim-ring",
                        "kind": "support",
                        "family": {"family": "laplace", "m": 0, "k": [6]},
                        "symbol": {
                            "type": "interior",
                            "xi_bound": 1.6,
                            "factors": [
                                {"var": "radius", "window": [0.8, 0.9, 0.97, 1.02]},
                                {"var": "speed", "window": [0.6, 0.8, 1.2, 1.4]},
                            ],
                        },
                        "time": 0.3,
                        "husimi": {"nx": 51, "nxi": 29},
                    }
                ]
            }
        )
    )
    code = run_cli(["run", "--config", str(cfg), "--out", str(tmp_path / "out")])
    assert code == 0
    doc = summary_of(tmp_path / "out")
    row = doc["experiments"][0]
    assert row["status"] == "inconclusive"
    assert row["summary"]["notes"]["unresolved"] > 0


def test_verify_subcommand_filters_kinds(tmp_path):
    cfg = tmp_path / "mix.json"
    cfg.write_text(
        json.dumps(
            {
                "experiments": [
                    {
                        "name": "series",
                        "kind": "measure",
                        "family": {"family": "laplace", "m": 0, "k": [4, 5, 6]},
                        "symbol": {
                            "type": "interior",
                            "xi_bound": 1.6,
                            "factors": [
                                {"var": "radius", "window": [-0.75, -0.5, 0.5, 0.75]},
                                {"var": "speed", "window": [0.55, 0.75, 1.25, 1.45]},
                            ],
                        },
                    },
                    {
                        "name": "ell",
                        "kind": "elliptic",
                        "family": {"family": "laplace", "m": 3, "k": [2]},
                        "symbol": {
                            "type": "tangential",
                            "y_support": 0.25,
                            "y_ramp": [0.1, 0.2],
                            "xip_window": [1.15, 1.3, 3.5, 3.9],
                            "xip_abs": True,
                        },
                    },
                ]
            }
        )
    )
    code = run_cli(["verify", "--config", str(cfg), "--out", str(tmp_path / "v")])
    assert code == 0
    statuses = {r["name"]: r["status"] for r in summary_of(tmp_path / "v")["experiments"]}
    assert statuses == {"series": "skipped", "ell": "pass"}
    # one CSV plus one JSON per executed experiment
    assert (tmp_path / "v" / "ell.csv").exists() and (tmp_path / "v" / "ell.json").exists()
    assert not (tmp_path / "v" / "series.csv").exists()

    code = run_cli(["measure", "--config", str(cfg), "--out", str(tmp_path / "m")])
    assert code == 0
    statuses = {r["name"]: r["status"] for r in summary_of(tmp_path / "m")["experiments"]}
    assert statuses == {"series": "ok", "ell": "skipped"}


def test_spelt_out_defaults_change_nothing(tmp_path):
    # each optional key's default lives in the function or record that
    # takes it; spelling it out must give the same rows and payloads
    rings = {"family": "laplace", "m": 0, "k": [16, 25]}
    bump = {"type": "interior", "xi_bound": 1.6, "factors": [
        {"var": "bump", "center": [0.25, 0.0], "radius": 0.2},
        {"var": "speed", "window": [0.6, 0.8, 1.2, 1.4]},
    ]}
    arc = {"type": "tangential", "y_support": 0.3, "y_ramp": [0.12, 0.24],
           "xip_window": [0.55, 0.7, 1.3, 1.45],
           "arc": {"center": 0.5, "inner": 0.45, "outer": 0.75}}
    bare = [
        {"name": "inv", "kind": "invariance", "family": rings, "symbol": bump, "time": 0.15},
        {"name": "sup", "kind": "support", "family": {"family": "laplace", "m": [8, 12], "k": 1},
         "symbol": arc, "time": 0.4},
        {"name": "tails", "kind": "tails", "family": rings, "radii": [2.0, 4.0]},
    ]
    spelt = [
        # a symbol's label defaults to its experiment's name
        dict(bare[0], symbol=dict(bump, name="inv")),
        dict(bare[1], glancing_sign=1),
        dict(bare[2], variant="interior"),
    ]
    thresholds = {"theta_pass": 0.05, "kappa": 2.0, "theta_floor": 1e-3}
    outs = []
    for label, raw in (("bare", {"experiments": bare}),
                       ("spelt", {"experiments": spelt, "thresholds": thresholds})):
        cfg = tmp_path / f"{label}.json"
        cfg.write_text(json.dumps(raw))
        assert run_cli(["run", "--config", str(cfg), "--out", str(tmp_path / label)]) == 0
        outs.append(tmp_path / label)
    for name in ("inv", "sup", "tails"):
        rows = [
            [line for line in (out / f"{name}.csv").read_text().splitlines() if not line.startswith("#")]
            for out in outs
        ]
        assert rows[0] == rows[1] and len(rows[0]) > 1
        payloads = [json.load(open(out / f"{name}.json"))["payload"] for out in outs]
        assert payloads[0] == payloads[1]


def test_select_flag_restricts_names(tmp_path):
    code = run_cli(
        ["run", "--config", "@smoke", "--out", str(tmp_path), "--select", "rim-classes"]
    )
    assert code == 0
    statuses = {r["name"]: r["status"] for r in summary_of(tmp_path)["experiments"]}
    assert statuses["rim-classes"] == "ok"
    assert statuses["two-bounce-chord"] == "skipped"
    assert statuses["ring-pairing"] == "skipped"


@pytest.mark.parametrize("command", ["run", "verify", "measure"])
def test_select_refuses_unknown_and_missing_names(command, tmp_path, capsys):
    # a typo once ran nothing and exited 0, and a bare --select ran everything
    out = tmp_path / "out"
    argv = [command, "--config", "@smoke", "--out", str(out), "--select"]
    assert run_cli(argv + ["rim-classes", "no-such-name", "nor-this"]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"usage: bicharlab {command}")
    assert "error: argument --select: no experiment named 'no-such-name', 'nor-this'\n" in err
    with pytest.raises(SystemExit) as exc:
        run_cli(argv)
    assert exc.value.code == 2
    assert "error: argument --select: expected at least one argument" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command, status", [("run", "ok"), ("verify", "skipped"), ("measure", "ok")])
def test_select_of_a_name_the_command_filters_out_is_skipped(command, status, tmp_path):
    assert run_cli([command, "--config", "@smoke", "--out", str(tmp_path), "--select", "ring-pairing"]) == 0
    statuses = {r["name"]: r["status"] for r in summary_of(tmp_path)["experiments"]}
    assert statuses == {"rim-classes": "skipped", "two-bounce-chord": "skipped", "ring-pairing": status}


def test_out_env_var_is_the_default_root(tmp_path, monkeypatch):
    monkeypatch.setenv(cli.OUT_ENV, str(tmp_path / "envroot"))
    cfg = tmp_path / "e.json"
    cfg.write_text(json.dumps({"experiments": []}))
    assert run_cli(["run", "--config", str(cfg)]) == 0
    assert (tmp_path / "envroot" / "summary.json").exists()
    # the config's out beats the variable, and the --out flag beats both
    cfg.write_text(json.dumps({"experiments": [], "out": str(tmp_path / "fileroot")}))
    assert run_cli(["run", "--config", str(cfg)]) == 0
    assert (tmp_path / "fileroot" / "summary.json").exists()
    assert run_cli(["run", "--config", str(cfg), "--out", str(tmp_path / "flagroot")]) == 0
    assert (tmp_path / "flagroot" / "summary.json").exists()


def test_mode_experiment_writes_field_grid(tmp_path):
    cfg = tmp_path / "m.json"
    cfg.write_text(
        json.dumps(
            {
                "experiments": [
                    {
                        "name": "probe",
                        "kind": "mode",
                        "family": {"family": "stokes", "m": 2, "k": [1]},
                        # h |du/dn| of a unit no-slip mode is sqrt 2 on the rim
                        "tolerances": {"momentum": 1e-6, "divergence": 1e-8,
                                       "normalization": 1e-12, "flux_norm": 1.5},
                        "fields": True,
                    }
                ]
            }
        )
    )
    assert run_cli(["run", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
    vel, _ = read_field_grid(tmp_path / "out" / "probe-velocity")
    from bicharlab.modes import stokes_disk_mode

    mode = stokes_disk_mode(2, 1)
    assert vel.shape == mode.velocity.shape
    assert np.array_equal(vel, mode.velocity.astype(complex))
    (tmp_path / "out" / "probe-pressure.f64").exists()


def test_stokes_swirl_mode_experiment_passes(tmp_path):
    # m = 0 of the velocity family is the azimuthal swirl, which vanishes
    # on the circle; a config runs it like any other member, to criterion
    # 3's tolerances
    cfg = tmp_path / "swirl.json"
    cfg.write_text(json.dumps({"experiments": [{
        "name": "swirl",
        "kind": "mode",
        "family": {"family": "stokes", "m": 0, "k": [1, 2, 3, 6]},
        "tolerances": {"momentum": 1e-6, "divergence": 1e-8, "boundary": 1e-8},
    }]}))
    assert run_cli(["run", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
    (row,) = summary_of(tmp_path / "out")["experiments"]
    assert row["status"] == "ok"
    assert json.load(open(tmp_path / "out" / "swirl.json"))["payload"]["violations"] == []


def test_dotted_experiment_names_keep_their_field_grids_apart(tmp_path):
    # "probe.fine-velocity" must not lose ".fine-velocity" as a suffix and
    # overwrite probe.json with a field-grid header
    mode = {"kind": "mode", "family": {"family": "stokes", "m": 2, "k": [1]}, "fields": True}
    cfg = tmp_path / "dotted.json"
    cfg.write_text(
        json.dumps({"experiments": [dict(mode, name="probe"), dict(mode, name="probe.fine")]})
    )
    out = tmp_path / "out"
    assert run_cli(["run", "--config", str(cfg), "--out", str(out)]) == 0
    listed = [f for r in summary_of(out)["experiments"] for f in r["files"]]
    assert len(listed) == len(set(listed)) == 2 * 6
    assert all((out / f).is_file() for f in listed)
    assert "probe.fine-velocity.f64" in listed and "probe.fine-pressure.json" in listed
    probe = json.load(open(out / "probe.json"))
    assert probe["meta"]["experiment"] == "probe"
    assert set(probe["payload"]) == {"worst", "violations"}
    vel, _ = read_field_grid(out / "probe.fine-velocity")
    assert np.array_equal(vel, read_field_grid(out / "probe-velocity")[0])


def test_error_status_is_reported_not_raised(tmp_path):
    # a valid schema whose numerics must refuse: quantization margin
    # cannot cover a symbol pressed against the rim at this coarse h
    cfg = tmp_path / "err.json"
    cfg.write_text(
        json.dumps(
            {
                "experiments": [
                    {
                        "name": "margin",
                        "kind": "measure",
                        "family": {"family": "laplace", "m": 0, "k": [2]},
                        "symbol": {
                            "type": "interior",
                            "xi_bound": 1.6,
                            "factors": [
                                {"var": "radius", "window": [0.0, 0.1, 0.98, 1.0]},
                                {"var": "speed", "window": [0.55, 0.75, 1.25, 1.45]},
                            ],
                        },
                    }
                ]
            }
        )
    )
    code = run_cli(["run", "--config", str(cfg), "--out", str(tmp_path / "out")])
    assert code == 1
    row = summary_of(tmp_path / "out")["experiments"][0]
    assert row["status"] == "error"
    assert "error" in row["summary"]


# -- one-shot subcommands ---------------------------------------------------


def test_classify_subcommand_prints_label(tmp_path, capsys):
    assert run_cli(["classify", "--xp", "0.0", "--xip", "1.0", "--out", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "glancing(2,-)" in out
    doc = json.load(open(tmp_path / "classify.json"))
    assert doc["payload"][0]["result"]["tag"] == "glancing"
    assert doc["meta"]["config_hash"]
    assert (tmp_path / "classify.csv").exists()


def test_classify_subcommand_prints_bracket_witness(tmp_path, capsys):
    # r0 = zeta1, r1 = z1: the first bracket resolves the contact, so the
    # witness holds a list of brackets rather than one number
    chart = tmp_path / "C.json"
    chart.write_text(json.dumps({"kind": "model", "terms": [[0, 1, 0, 1.0], [1, 0, 1, 1.0]]}))
    argv = ["classify", "--chart", str(chart), "--xp", "0", "--xip", "0"]
    assert run_cli(argv + ["--out", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[:4] == [
        "glancing(3)", "  brackets[0] = 0", "  brackets[1] = 1", "  r0 = 0"
    ]
    payload = json.load(open(tmp_path / "classify.json"))["payload"]
    assert payload == [
        {
            "xp": 0.0,
            "xip": 0.0,
            "result": {
                "tag": "glancing",
                "order": 3,
                "sign": None,
                "unresolved": False,
                "witness": {"r0": 0.0, "brackets": [0.0, 1.0]},
            },
        }
    ]


HEAVY_SCIPY = (
    "scipy.signal",
    "scipy.stats",
    "scipy.ndimage",
    "scipy.integrate",
    "scipy.interpolate",
    "scipy.optimize",
    "scipy.linalg",
    "scipy.sparse",
)


def test_cli_import_skips_heavy_scipy_modules():
    # which modules load, not how long they take: the check cannot flake
    # on a slow clock.  Checked again after a traced ray, a glide and a
    # glide release, so the cost is not merely deferred into run time
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    probe = f"""
import sys
import bicharlab.cli

def heavy():
    print(sorted(m for m in {HEAVY_SCIPY!r} if m in sys.modules))

heavy()
import numpy as np
from bicharlab.charts import DiskChart, ModelChart, PhasePoint
from bicharlab.flow import trace
from bicharlab.verify import gliding_rotation
ray = trace(DiskChart(), (np.array([0.05, -0.17]), np.array([0.6, 0.8])), 10.0)
assert ray.reflections >= 10, ray.reflections
gliding_rotation(DiskChart(), 1.0)
chart = ModelChart([(0, 0, 0, 1.0), (0, 2, 0, -1.0), (1, 0, 1, 1.0)])
ray = trace(chart, PhasePoint(0.0, -0.5, 0.0, 1.0), 0.5)
assert "glide_release" in [e.kind for e in ray.events], ray.events
heavy()
"""
    proc = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split("\n") == ["[]", "[]", ""]


def test_trace_subcommand_reports_reflections(tmp_path, capsys):
    code = run_cli(
        ["trace", "--start", "0.0,-1.0,0.6,0.8", "--time", "2.0", "--out", str(tmp_path)]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "2 reflection(s)" in out
    assert (tmp_path / "trace.csv").exists() and (tmp_path / "trace.json").exists()


def test_mode_subcommand_prints_residuals(capsys):
    assert run_cli(["mode", "--family", "laplace", "--m", "2", "--k", "1"]) == 0
    out = capsys.readouterr().out
    assert "pde" in out and "boundary" in out


def counted(monkeypatch, module, name):
    calls = []
    original = getattr(module, name)

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counting)
    return calls


def test_adhoc_subcommands_compute_once(tmp_path, monkeypatch, capsys):
    errors = counted(monkeypatch, config, "extension_error")
    argv = ["parametrix", "--m", "12,24", "--orders", "0,1", "--out", str(tmp_path / "p")]
    assert run_cli(argv) == 0
    assert len(errors) == 4  # two orders times two angular indices
    traces = counted(monkeypatch, config, "trace")
    argv = ["trace", "--start", "0.0,-1.0,0.6,0.8", "--time", "2.0", "--out", str(tmp_path / "t")]
    assert run_cli(argv) == 0
    assert len(traces) == 1
    # what is printed and what is written come from the same computation
    out = capsys.readouterr().out
    doc = json.load(open(tmp_path / "t" / "trace.json"))["payload"]
    assert f"{doc['reflections']} reflection(s)" in out


def test_benchmark_selftest_passes():
    # the benchmark wraps and swaps bindings of cli (laplace_disk_mode,
    # run_experiment, load_config, run_config); a refactor that drops one
    # fails here rather than in the benchmark
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    proc = subprocess.run(
        [sys.executable, "perfbench/selftest.py"],
        cwd=root, env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "selftest passed" in proc.stdout


def benchmark_workloads():
    """The benchmark's workload module, loaded from its file."""
    root = Path(__file__).resolve().parents[1]
    spec = importlib.util.spec_from_file_location("workloads", root / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return workloads


def test_every_benchmark_workload_config_validates():
    # a refused workload config would end the benchmark with exit 2
    workloads = benchmark_workloads()
    for name in workloads.WORKLOADS:
        for seed in range(4):
            assert validate_config(workloads.build_config(name, seed)) == [], (name, seed)


# -- the settable surface --------------------------------------------------

# the schema keys and chart keywords that neither @smoke nor a seed-0
# benchmark config sets, each with why it stays and the test that sets it:
# a behaviour key picks another computation, a label names an output, a
# threshold judges one, a deployment key says where or how wide a run goes,
# a collar-frame start places a trace in collar coordinates, and a geometry
# key defines a chart.  Any other key is a knob no caller turns, and
# becomes a constant
KEPT_KEYS = {
    "out": ("deployment", "test_out_env_var_is_the_default_root"),
    "jobs": ("deployment", "test_schema_checker_matches_jsonschema_on_the_seed_configs"),
    **{key: ("threshold", "test_spelt_out_defaults_change_nothing") for key in (
        "thresholds", "thresholds.theta_pass", "thresholds.kappa", "thresholds.theta_floor")},
    "mode.tolerances.normalization": ("threshold", "test_mode_experiment_writes_field_grid"),
    "mode.tolerances.flux_norm": ("threshold", "test_mode_experiment_writes_field_grid"),
    "symbol.name": ("label", "test_spelt_out_defaults_change_nothing"),
    "support.glancing_sign": ("behaviour", "test_spelt_out_defaults_change_nothing"),
    "tails.variant": ("behaviour", "test_spelt_out_defaults_change_nothing"),
    "mode.fields": ("behaviour", "test_mode_experiment_writes_field_grid"),
    **{f"trace.start.{key}": ("collar-frame start", "test_invalid_config_exits_two")
       for key in ("y", "xp", "eta", "xip")},
    **{f"chart.{key}": ("geometry", "test_chart_keys_reach_the_chart")
       for key in ("annulus.rho_in", "annulus.component", "model.terms")},
    # where the tracer changes frames, and the deepest contact classify resolves
    **{f"chart.{key}": ("behaviour", "test_chart_keys_reach_the_chart") for key in (
        "disk.collar_width", "annulus.collar_width", "model.max_derivative_order")},
}


def surface_key(path) -> str:
    """The dotted name of a key: an experiment's own keys under its kind,
    the family and symbol keys every kind shares under family and symbol."""
    if len(path) > 2 and path[1] in ("family", "symbol"):
        path = path[1:]
    return ".".join(path)


def schema_keys(schema, path=()):
    for key, arg in schema.items():
        if key == "properties":
            for name, sub in arg.items():
                yield path + (name,)
                yield from schema_keys(sub, path + (name,))
        elif key == "items":
            yield from schema_keys(arg, path)
        elif key == "anyOf":
            for sub in arg:
                yield from schema_keys(sub, path)
        elif key == "pick":
            for sub in arg[1].values():
                yield from schema_keys(sub, path)


def set_keys(node, path):
    if isinstance(node, dict):
        for key, value in node.items():
            yield path + (key,)
            yield from set_keys(value, path + (key,))
    elif isinstance(node, list):
        for value in node:
            yield from set_keys(value, path)


def chart_keys(definition) -> set:
    """The constructor keywords a chart definition sets, as chart.KIND.KEY;
    a shorthand's fields are its kind's leading keywords."""
    definition = charts.chart_definition(definition)
    if isinstance(definition, dict):
        kind, keys = definition["kind"], set(definition) - {"kind"}
    else:
        kind, *fields = definition.split(":")
        keys = list(inspect.signature(charts._KINDS[kind]).parameters)[: len(fields)]
    return {f"chart.{kind}.{key}" for key in keys}


def test_every_config_key_is_set_by_a_config_or_kept():
    surface = {surface_key(p) for p in schema_keys(config._CONFIG) if p[0] != "experiments"}
    for kind, spec in KINDS.items():
        surface |= {surface_key(p) for p in schema_keys(spec.schema, (kind,))}
    workloads = benchmark_workloads()
    docs = [json.loads((resources.files("bicharlab") / "configs" / "smoke.json").read_text())]
    docs += [workloads.build_config(name, 0) for name in workloads.WORKLOADS]
    used = set()
    for doc in docs:
        for key, value in doc.items():
            if key != "experiments":
                used |= {surface_key(p) for p in set_keys({key: value}, ())}
        for exp in doc["experiments"]:
            used |= {surface_key(p) for p in set_keys(exp, (exp["kind"],))}
    # a key nobody sets is a knob unless it is kept, and a kept key that a
    # config sets needs no entry
    # and so is a chart kind's constructor keyword
    surface |= {f"chart.{kind}.{key}" for kind, ctor in charts._KINDS.items()
                for key in inspect.signature(ctor).parameters}
    for doc in docs:
        used |= chart_keys(doc.get("chart", "disk"))
    assert sorted(surface - used - set(KEPT_KEYS)) == []
    assert sorted(set(KEPT_KEYS) - (surface - used)) == []
    reasons = {"behaviour", "label", "threshold", "deployment", "collar-frame start", "geometry"}
    for key, (reason, test) in KEPT_KEYS.items():
        assert reason in reasons, key
        leaf = key.rsplit(".", 1)[-1]
        assert re.search(rf"\b{leaf}\b", inspect.getsource(globals()[test])), (key, test)


# -- the schema checker against jsonschema --------------------------------


def _pick(validator, pick, instance, schema):
    # keyword "pick": [key, {value: schema}] applies the schema an object's
    # value at key names
    key, schemas = pick
    if validator.is_type(instance, "object"):
        for value, picked in schemas.items():
            if instance.get(key) == value:
                yield from validator.descend(instance, picked)


# the oracle: Draft 2020-12 with "pick" and with only Python ints as integers
ORACLE = jsonschema.validators.extend(
    jsonschema.Draft202012Validator,
    validators={"pick": _pick},
    type_checker=jsonschema.Draft202012Validator.TYPE_CHECKER.redefine(
        "integer", lambda checker, value: type(value) is int
    ),
)(config._CONFIG)


def oracle_schema_errors(raw) -> list[tuple]:
    """jsonschema's offenses as `config._schema_errors` reports them."""
    out = []
    for e in sorted(ORACLE.iter_errors(raw), key=lambda e: list(e.absolute_path)):
        path = tuple(e.absolute_path)
        if e.validator == "additionalProperties":
            extra = sorted(set(e.instance) - set(e.schema.get("properties", {})))
            out += [(path + (key,), "unknown key") for key in extra]
        else:
            out.append((path, e.message))
    return out


def seed_configs() -> list:
    """The shipped configs and the benchmark's, which mirror the acceptance criteria."""
    root = Path(__file__).resolve().parents[1]
    shipped = sorted((root / "src" / "bicharlab" / "configs").glob("*.json"))
    docs = [json.loads(p.read_text()) for p in shipped]
    workloads = benchmark_workloads()
    return docs + [workloads.build_config(name, 0) for name in workloads.WORKLOADS]


SEED_CONFIGS = seed_configs()

# wrong types, 2.0 and True for integers, values out of range (0 against
# exclusiveMinimum), enum misses, names off the pattern, lists of the wrong
# length or with duplicates, bad forms of family.m, family.k and trace.start
ODD_VALUES = [
    "3", "nope", True, None, 64, 2.0, [], [0], [1, 1], [0, 1, 0], [True], [1.0, 1], [2, 2.0],
    ["a"], [0.1, 0.2, 0.3], [0.1, 0.2, 0.3, 0.4, 0.5], [[1, 2]], [0, 0, 1, 0],
    {}, {"ratio": 0.5}, {"ratio": 1.0}, {"ratio": 0.5, "k_max": 0}, {"k_max": 3},
    {"y": 0.1, "xp": 0.0, "eta": 0.5}, {"y": 0.1, "xp": 0.0, "eta": 0.5, "xip": "0"},
    {"var": "radius"}, {"var": "bump", "center": [0, 0], "radius": 0},
]
# what replaces a number or a string, to probe ranges, enums and the pattern
ODD_LEAVES = {
    "number": [0, 0.0, 1, 1.0, -1, -0.5, 1.5, 2.0, 1e9, float("nan"), True, False, "1"],
    "string": ["", "nope", "-dash", "x" * 65, "a.b_c-1", "speed", "bump", "tangential",
               "pullback", "stokes", "parametrix", 0],
}


def fresh(draw, values):
    return json.loads(json.dumps(draw(st.sampled_from(values))))


def nodes(doc, path=()):
    yield path, doc
    if isinstance(doc, (dict, list)):
        for key, value in doc.items() if isinstance(doc, dict) else enumerate(doc):
            yield from nodes(value, path + (key,))


# the nodes each mutation applies to
TARGETS = {
    "replace": object, "leaf": (str, int, float, type(None)), "delete": dict, "add": dict,
    "duplicate": list, "drop": list,
}


@st.composite
def mutated_configs(draw):
    doc = json.loads(json.dumps(draw(st.sampled_from(SEED_CONFIGS))))
    for _ in range(draw(st.integers(1, 4))):
        op = draw(st.sampled_from(["replace", "leaf", "leaf", "delete", "add", "duplicate",
                                   "drop"]))
        # draw a key name first, so that rare keys come up as often as the
        # many numbers of a window list
        found = {}
        for p, n in nodes(doc):
            if p and isinstance(n, TARGETS[op]):
                name = next(k for k in reversed(p) if isinstance(k, str))
                found.setdefault(name, []).append((p, n))
        if not found:
            continue
        path, node = draw(st.sampled_from(found[draw(st.sampled_from(sorted(found)))]))
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        if op == "replace":
            parent[path[-1]] = fresh(draw, ODD_VALUES)
        elif op == "leaf":
            kind = "string" if isinstance(node, str) else "number"
            parent[path[-1]] = fresh(draw, ODD_LEAVES[kind])
        elif op == "delete" and node:
            del node[draw(st.sampled_from(sorted(node)))]
        elif op == "add":
            key = draw(st.sampled_from(["extra", "kind", "samples", "window", "zz", "type"]))
            node[key] = fresh(draw, ODD_VALUES)
        elif op == "duplicate" and node:
            node.append(node[draw(st.integers(0, len(node) - 1))])
        elif op == "drop" and node:
            node.pop()
    return doc


@settings(derandomize=True, deadline=None, max_examples=400)
@given(mutated_configs())
def test_schema_checker_matches_jsonschema(raw):
    assert config._schema_errors(raw) == oracle_schema_errors(raw)


def test_schema_checker_matches_jsonschema_on_the_seed_configs():
    # the mutations start from valid documents; the cases below pin one
    # offense of each keyword, and True against 1 and 1.0 against 1
    for raw in SEED_CONFIGS:
        assert config._schema_errors(raw) == [] == oracle_schema_errors(raw)
    exp = {"name": "p", "kind": "parametrix", "m": [2, 2.0, True], "orders": [0, 0]}
    cases = [
        ({"experiments": [exp]}, [
            (("experiments", 0, "m"), "[2, 2.0, True] has non-unique elements"),
            (("experiments", 0, "m", 1), "2.0 is not of type 'integer'"),
            (("experiments", 0, "m", 2), "True is not of type 'integer'"),
            (("experiments", 0, "orders"), "[0, 0] has non-unique elements"),
        ]),
        ({"experiments": [{"name": "-x", "kind": "classify"}, {"name": "y", "kind": "nope"}],
          "jobs": 0, "seed": True}, [
            (("experiments", 0, "name"), "'-x' does not match '^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$'"),
            (("experiments", 1, "kind"), f"'nope' is not one of {list(KINDS)!r}"),
            (("jobs",), "0 is less than the minimum of 1"),
            (("seed",), "True is not of type 'integer'"),
        ]),
        ({"experiments": [], "thresholds": {"kappa": 0, "theta": 1}, "chart": 3}, [
            (("chart",), "3 is not of type 'string', 'object'"),
            (("thresholds", "theta"), "unknown key"),
            (("thresholds", "kappa"), "0 is less than or equal to the minimum of 0"),
        ]),
        ({"experiments": [
            {"name": "s", "kind": "support", "family": {"family": "stokes", "m": 1,
             "k": {"ratio": 1.0}}, "symbol": {"type": "tangential", "y_support": 1.0,
             "xip_window": [0, 1, 2]}, "time": 0.5, "glancing_sign": True},
            {"name": "c", "kind": "support", "family": {"family": "laplace", "m": 0, "k": [1]},
             "symbol": {"type": "interior", "xi_bound": 1.5, "factors": []}, "time": 0.5,
             "glancing_sign": 1.0},
            {"name": "t", "kind": "trace", "start": [0, 0, 1], "time": 1},
        ]}, [
            (("experiments", 0, "family", "k", "ratio"),
             "1.0 is greater than or equal to the maximum of 1"),
            (("experiments", 0, "glancing_sign"), "True is not one of [1, -1]"),
            (("experiments", 0, "symbol", "xip_window"), "[0, 1, 2] is too short"),
            (("experiments", 0, "symbol", "y_support"),
             "1.0 is greater than or equal to the maximum of 1"),
            (("experiments", 1, "symbol", "factors"), "[] should be non-empty"),
            (("experiments", 2, "start"), "[0, 0, 1] is not valid under any of the given schemas"),
        ]),
    ]
    for raw, want in cases:
        assert config._schema_errors(raw) == oracle_schema_errors(raw) == want


def test_unique_items_compares_as_jsonschema_does():
    # True differs from 1, and jsonschema compares only the neighbours of a
    # sortable list, so [[1], [True], [1]] and [1, nan, 1] pass as unique
    for m, unique in (([1, True, 1], False), ([1, 1.0], False), ([1, True], True),
                      ([[1], [True], [1]], True), ([1, float("nan"), 1], True)):
        raw = {"experiments": [{"name": "p", "kind": "parametrix", "m": m}]}
        got = config._schema_errors(raw)
        assert got == oracle_schema_errors(raw)
        assert ((("experiments", 0, "m"), f"{m!r} has non-unique elements") not in got) == unique


def test_flag_checks_match_jsonschema():
    raw = json.loads((Path(config.__file__).parent / "configs" / "smoke.json").read_text())
    for key in ("seed", "jobs"):
        flag = ORACLE.evolve(schema=config._CONFIG["properties"][key])
        for value in (-1, 0, 2.0, True, "3"):
            want = [f"--{key}: {e.message}" for e in flag.iter_errors(value)]
            try:
                load_config(raw, **{key: value})
                got = []
            except ConfigError as exc:
                got = exc.errors
            assert got == want, (key, value)
            assert bool(want) != (key == "seed" and value == 0), (key, value)
    with pytest.raises(ConfigError) as info:
        load_config(raw, jobs=2.0)
    assert info.value.errors == ["--jobs: 2.0 is not of type 'integer'"]


def all_schemas(schema):
    """`schema` and each of its subschemas."""
    yield schema
    for key, arg in schema.items():
        subs = ()
        if key == "properties":
            subs = arg.values()
        elif key == "items":
            subs = [arg]
        elif key == "anyOf":
            subs = arg
        elif key == "pick":
            subs = arg[1].values()
        for sub in subs:
            yield from all_schemas(sub)


def test_schemas_use_only_the_keywords_the_checker_implements():
    schemas = [s for top in (config._CONFIG, *(k.schema for k in KINDS.values()))
               for s in all_schemas(top)]
    keywords = {key for s in schemas for key in s}
    # each keyword used is implemented, and none is implemented for nothing
    assert keywords == set(config._KEYWORDS)
    types = {t for s in schemas if "type" in s
             for t in ([s["type"]] if isinstance(s["type"], str) else s["type"])}
    assert types == set(config._TYPES)
    assert all(s["additionalProperties"] is False for s in schemas if "additionalProperties" in s)
    for schema, value in (({"maxLength": 3}, "abcd"), ({"additionalProperties": {}}, {}),
                          ({"properties": {"a": {"const": 1}}}, {"a": 2})):
        with pytest.raises(ValueError, match="not implemented"):
            list(config._offenses(schema, value))


def test_no_process_imports_jsonschema():
    code = (
        "import sys\n"
        "from bicharlab import cli\n"
        "cli.load_config(cli._read_config('@smoke'))\n"
        "try:\n"
        "    cli.load_config({'experiments': [{'kind': 'nope'}], 'jobs': 0}, seed=True)\n"
        "except cli.ConfigError as exc:\n"
        "    assert len(exc.errors) == 3, exc.errors\n"
        "else:\n"
        "    raise SystemExit('the invalid config was accepted')\n"
        "print(sorted(m for m in ('jsonschema', 'referencing', 'attrs', 'rpds') if m in sys.modules))\n"
    )
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", code], cwd=root, env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.strip() == "[]"


def test_no_serial_run_imports_multiprocessing():
    # only the pool branch of `run_config` (--jobs > 1, more than one
    # experiment) imports the process pool, and with it multiprocessing
    code = (
        "import sys\n"
        "import bicharlab.cli as cli\n"
        "cli.load_config(cli._read_config('@smoke'))\n"
        "print(sorted(m for m in ('multiprocessing', 'concurrent.futures.process') "
        "if m in sys.modules))\n"
    )
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", code], cwd=root, env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.strip() == "[]"


# (h, before, after, gap) per mode of the seed-0 `reflect` benchmark
# config, as the per-point Bessel sampling and the all-centre Husimi loop
# computed them
REFLECT_SUPPORT_ROWS = [
    (0.03281563395082836, 0.06363452521397855, 0.06094216711414157, -0.0026923580998369848),
    (0.021077547522488287, 0.07899322664476056, 0.07764056264987748, -0.0013526639948830826),
    (0.015531017273510073, 0.09185282308076198, 0.08758368480862198, -0.004269138272139997),
    (0.011137608917834513, 0.10209402076859544, 0.09701963407192853, -0.005074386696666919),
]


# the seed-0 `bounce` support row: s = 12 flies each survivor through
# many bounces
BOUNCE_SUPPORT_ROWS = [
    (0.03281563395082836, 0.06363452521397861, 0.06265033312796184, -0.0009841920860167719),
]


def assert_support_rows(tmp_path, workload, want_rows):
    cfg = tmp_path / f"{workload}.json"
    cfg.write_text(json.dumps(benchmark_workloads().build_config(workload, 0)))
    assert run_cli(["run", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
    doc = json.load(open(tmp_path / "out" / f"{workload}-support.json"))["payload"]
    assert doc["verdict"] == "pass" and len(doc["rows"]) == len(want_rows)
    for row, want in zip(doc["rows"], want_rows):
        assert row["h"] == want[0]
        for key, value in zip(("before", "after", "gap"), want[1:]):
            assert abs(row[key] - value) <= 1e-12, (row["h"], key)


def test_reflect_support_values_hold_to_round_off(tmp_path):
    # criterion 11's mass fractions through the symmetric Husimi quadrant
    # and the per-radius mode sampling; the benchmark allows 1e-9
    assert_support_rows(tmp_path, "reflect", REFLECT_SUPPORT_ROWS)


def test_bounce_support_values_hold_to_round_off(tmp_path):
    assert_support_rows(tmp_path, "bounce", BOUNCE_SUPPORT_ROWS)


def test_support_rule_passes_a_transport_that_loses_all_mass():
    # a negative control: the seed-0 `reflect` rows with every `after`
    # set to 0, as a transport that drops the mass would give.  The rule
    # after <= kappa * before + theta_floor is one-sided, so it passes;
    # this records the rule's power, not a wanted verdict
    rows = [verify.ModeRow(h, before, 0.0, -before) for h, before, _, _ in REFLECT_SUPPORT_ROWS]
    rep = verify.PropagationReport("reflect-support", "window", 0.9, "support", rows)
    assert verify.recompute_verdict(rep.to_dict()) == "pass"


def stored_report(kind, rows, notes):
    """A report in the stored form that `to_dict` writes, default thresholds."""
    keys = ("h", "before", "after", "gap")
    rows = [dict(zip(keys, row)) for row in rows]
    return {"kind": kind, "rows": rows, "thresholds": verify.Thresholds().as_dict(), "notes": notes}


@pytest.mark.parametrize("scale", [0.0, 0.5, 2.0])
def test_invariance_rule_passes_a_wrong_transport(scale):
    # negative controls: the seed-0 `layer-invariance` rows with `after`
    # replaced by 0, before/2 or 2 before.  The gaps are absolute, every
    # `before` is about 0.033 and theta_pass = 0.05, so all three pass;
    # this records the rule's power, not a wanted verdict
    rows = [(h, before, scale * before, abs(scale * before - before))
            for h, before, _, _ in LAYER_INVARIANCE_ROWS]
    report = stored_report("invariance", rows, {"unresolved": 0.0})
    assert verify.recompute_verdict(report) == "pass"


def test_support_rule_passes_a_symbol_that_meets_no_mass():
    # a vacuous pass: the `reflect` speed window times a radius window
    # [0, 0.01, 0.02, 0.03], on Stokes (16, 3) at time 0.9 on the 28 x 29
    # grid, reads before = 0 and after = 8.0e-7, both below theta_floor
    h, after = REFLECT_SUPPORT_ROWS[0][0], 7.981098022258895e-07
    report = stored_report("support", [(h, 0.0, after, after)], {"unresolved": 0.0})
    assert verify.recompute_verdict(report) == "pass"


# the seed-0 `layer-parametrix` errors by order and m, as the ring-FFT
# collar fields computed them
LAYER_PARAMETRIX_ERRORS = {
    "0": {"32": 0.01799880569785542, "64": 0.009273908668492795, "128": 0.004709232884550979},
    "1": {"32": 0.00014180828338549543, "64": 3.639636595951752e-05,
          "128": 9.220470638204705e-06},
}


def test_layer_parametrix_errors_hold_to_round_off(tmp_path):
    # criterion 8's extension errors through the closed-form depth
    # integral; the benchmark allows 1e-9
    cfg = tmp_path / "layer.json"
    cfg.write_text(json.dumps(benchmark_workloads().build_config("layer", 0)))
    out = tmp_path / "out"
    assert run_cli(["run", "--config", str(cfg), "--out", str(out),
                    "--select", "layer-parametrix"]) == 0
    doc = json.load(open(out / "layer-parametrix.json"))["payload"]
    assert doc["violations"] == []
    assert doc["errors"].keys() == LAYER_PARAMETRIX_ERRORS.keys()
    for order, want in LAYER_PARAMETRIX_ERRORS.items():
        assert doc["errors"][order].keys() == want.keys()
        for m, value in want.items():
            assert abs(doc["errors"][order][m] - value) <= 1e-12 * value, (order, m)


# seed-0 `layer` values before the experiments computed only what they
# read, and before the box axis was built odd about its centre node and
# the sample filled from one octant; they bound the values below
LAYER_INVARIANCE_ROWS = [  # (h, before, after, gap)
    (0.03264282180449974, 0.03282379564956469, 0.039253076029787, 0.008488558770565072),
    (0.02020911997312793, 0.03361835759817946, 0.03539915256349787, 0.00643189555868364),
    (0.01286073962619287, 0.033971780750695166, 0.03364082085441908, 0.003661959638535359),
    (0.008007731694726204, 0.03387602066196259, 0.03309092756532406, 0.0019373384123264597),
    (0.005327343212934813, 0.03388194338938233, 0.033333884792828984, 0.0008903080559324353),
]
LAYER_INVARIANCE_GAP_RATE = 1.249136471043538
LAYER_TAIL_FRACTIONS = [
    [0.0004394837057482119, 6.898871491183182e-06, 9.283718084882042e-08],
    [9.061414413186673e-07, 1.2268795002870352e-09, 4.334585079894924e-13],
    [3.42487888814023e-10, 7.268153350787496e-14, 5.225783804850996e-19],
]
# the same values from the octant sample on the odd box axis, before the
# alias-free lattice and the half spectrum; they bound the values below
OCTANT_INVARIANCE_ROWS = [  # (h, before, after, gap)
    (0.03264282180449974, 0.03282379564956464, 0.039253076029786955, 0.008488558770565086),
    (0.02020911997312793, 0.033618357598179424, 0.03539915256349787, 0.006431895558683646),
    (0.01286073962619287, 0.03397178075069513, 0.033640820854419044, 0.0036619596385353654),
    (0.008007731694726204, 0.03387602066196256, 0.03309092756532406, 0.0019373384123264376),
    (0.005327343212934813, 0.03388194338938234, 0.03333388479282905, 0.0008903080559324054),
]
OCTANT_INVARIANCE_GAP_RATE = 1.2491364710435562
OCTANT_TAIL_FRACTIONS = [
    [0.00043948370574821487, 6.898871491183251e-06, 9.283718084881757e-08],
    [9.061414413185747e-07, 1.2268795002888548e-09, 4.3345850809675847e-13],
    [3.424878888128293e-10, 7.26815335161658e-14, 5.22578397009791e-19],
]
# the shifted pairing on the alias-free 3/2 lattice, its box-origin
# phases taken as exact signs, and the tails from a half spectrum; each
# must come back bit for bit
ALIAS_FREE_INVARIANCE_ROWS = [  # (h, before, after, gap)
    (0.03264282180449974, 0.03282379564956464, 0.03925307602978696, 0.00848855877056508),
    (0.02020911997312793, 0.033618357598179424, 0.035399152563497856, 0.0064318955586836445),
    (0.01286073962619287, 0.03397178075069513, 0.033640820854419044, 0.0036619596385353732),
    (0.008007731694726204, 0.03387602066196256, 0.03309092756532404, 0.0019373384123264983),
    (0.005327343212934813, 0.03388194338938234, 0.03333388479282901, 0.000890308055932462),
]
ALIAS_FREE_GAP_RATE = 1.2491364710435215
HALF_SPECTRUM_TAIL_FRACTIONS = [
    [0.0004394837057482142, 6.898871491183261e-06, 9.283718084881794e-08],
    [9.061414413185903e-07, 1.2268795002888238e-09, 4.3345850809710254e-13],
    [3.4248788881285896e-10, 7.268153351609775e-14, 5.225783979249252e-19],
]
# the Stokes residuals on profiles, one angular harmonic at a time
LAYER_STOKES_WORST = {
    "boundary": 3.9057273007761715e-12,
    "divergence": 1.7753877255829927e-13,
    "flux_norm": 1.4142135624242966,
    # the benchmark reference reads 2.22e-9 within 1e-9: drift shows here first
    "momentum": 2.8738626976884263e-09,
    "normalization": 3.8413716652030416e-14,
}
LAYER_STOKES_MOMENTUM = [
    4.691120521226196e-10, 1.2229436645087813e-10, 1.2452661819310426e-11,
    1.3923291549258471e-10, 2.8738626976884263e-09,
]
# the same residuals from the grid route, every angular column through a
# transform and a BLAS product; they bound the values above
GRID_STOKES_WORST = {
    "boundary": 3.8980232585552894e-12,
    "divergence": 3.9171146680263907e-13,
    "flux_norm": 1.414213562424176,
    "momentum": 2.867807738026748e-09,
    "normalization": 3.8191672047105385e-14,
}
GRID_STOKES_MOMENTUM = [
    4.5663100514637647e-10, 1.219338534262313e-10, 1.2567533261643621e-11,
    1.3967674556078976e-10, 2.867807738026748e-09,
]


def test_layer_box_and_residual_values_are_bit_identical(tmp_path):
    cfg = tmp_path / "layer.json"
    cfg.write_text(json.dumps(benchmark_workloads().build_config("layer", 0)))
    names = ["layer-invariance", "layer-tails", "layer-stokes-modes"]
    outs = [tmp_path / f"out{jobs}" for jobs in (1, 2)]
    for jobs, out in zip((1, 2), outs):
        assert run_cli(["run", "--config", str(cfg), "--out", str(out), "--jobs", str(jobs),
                        "--select", *names]) == 0
    assert tree_digest(outs[0]) == tree_digest(outs[1])
    inv = json.load(open(outs[0] / "layer-invariance.json"))["payload"]
    rows = [(r["h"], r["before"], r["after"], r["gap"]) for r in inv["rows"]]
    assert rows == ALIAS_FREE_INVARIANCE_ROWS
    assert inv["notes"] == {"gap_rate": ALIAS_FREE_GAP_RATE, "unresolved": 0.0}
    tails = json.load(open(outs[0] / "layer-tails.json"))["payload"]
    assert tails["fractions"] == HALF_SPECTRUM_TAIL_FRACTIONS
    # the octant values hold as a bound: the shifted op and the tails
    # moved by round-off.  The befores kept their bits; the afters moved
    # up to 1.1e-15 relative, the gaps 6.4e-14 and the rate 2.8e-14
    old = np.array(OCTANT_INVARIANCE_ROWS)
    assert np.all(np.abs(np.array(rows) - old) <= 1e-13 * old)
    rate = inv["notes"]["gap_rate"]
    assert abs(rate - OCTANT_INVARIANCE_GAP_RATE) <= 1e-13 * OCTANT_INVARIANCE_GAP_RATE
    # the fractions moved up to 9.4e-13 relative, 6.8e-26 absolute, at
    # 7.3e-14, and the smallest, at its floor, 1.75e-9 relative
    spec = next(e for e in json.loads(cfg.read_text())["experiments"] if e["name"] == "layer-tails")
    ns = [quantize.default_box(m.h, max(tails["radii"]) + 0.5).n
          for m in config.build_family(spec["family"])]
    old = np.array(OCTANT_TAIL_FRACTIONS)
    assert np.all(np.abs(np.array(tails["fractions"]) - old) <= tail_tolerance(old, ns))
    # the earlier values hold as a bound: the box axis moved by round-off.
    # The largest fraction moved 3.0e-18 and the smallest 1.7e-26
    old = np.array(LAYER_INVARIANCE_ROWS)
    assert np.all(np.abs(np.array(rows) - old) <= 1e-13 * old)
    rate = inv["notes"]["gap_rate"]
    assert abs(rate - LAYER_INVARIANCE_GAP_RATE) <= 1e-13 * LAYER_INVARIANCE_GAP_RATE
    old = np.array(LAYER_TAIL_FRACTIONS)
    assert np.all(np.abs(np.array(tails["fractions"]) - old) <= 1e-13 * old + 1e-20)
    stokes = json.load(open(outs[0] / "layer-stokes-modes.json"))["payload"]
    assert stokes["worst"] == LAYER_STOKES_WORST
    lines = [ln for ln in (outs[0] / "layer-stokes-modes.csv").read_text().splitlines()
             if not ln.startswith("#")]
    col = lines[0].split(",").index("momentum")
    momentum = [float(ln.split(",")[col]) for ln in lines[1:]]
    assert momentum == LAYER_STOKES_MOMENTUM
    # the grid route's values hold as a bound: the residuals moved by the
    # round-off of its sums, at most 1.3e-11 (the (1, 1) momentum)
    for key, old in GRID_STOKES_WORST.items():
        assert abs(stokes["worst"][key] - old) <= 2e-11, key
    assert np.all(np.abs(np.array(momentum) - GRID_STOKES_MOMENTUM) <= 2e-11)


def test_parametrix_halving_verdict_ignores_list_order(tmp_path):
    # listed as orders [1, 0], the order-1 errors were held to the halving law
    cfg = tmp_path / "p.json"
    cfg.write_text(json.dumps({"experiments": [
        {"name": "p", "kind": "parametrix", "m": [32, 64], "orders": [1, 0],
         "expect_halving": True}]}))
    assert run_cli(["run", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
    assert json.load(open(tmp_path / "out" / "p.json"))["payload"]["violations"] == []


def test_parametrix_subcommand_writes_csv(tmp_path, capsys):
    code = run_cli(
        ["parametrix", "--m", "12,24", "--orders", "0", "--out", str(tmp_path)]
    )
    assert code == 0
    text = (tmp_path / "parametrix.csv").read_text()
    assert text.count("\n") >= 4  # meta block, header, two rows
    assert "order,m,h,error" in text


def test_parametrix_halves_on_the_inner_annulus_component(tmp_path):
    # the exact extension from an inner circle is (rho_in / r)^|m|; measured
    # order-0 errors 0.0205 and 0.0099, order-1 1.6e-4 and 3.8e-5
    cfg = tmp_path / "inner.json"
    cfg.write_text(json.dumps({"chart": "annulus:0.5:inner", "experiments": [
        {"name": "p", "kind": "parametrix", "m": [32, 64], "expect_halving": True}]}))
    assert run_cli(["run", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
    doc = json.load(open(tmp_path / "out" / "p.json"))["payload"]
    assert doc["violations"] == []
    for m in (32, 64):
        assert 0.5 < doc["errors"]["0"][str(m)] * m < 0.8
        assert 0.1 < doc["errors"]["1"][str(m)] * m * m < 0.2


def test_default_pairing_box_resolves_the_mode(tmp_path):
    # a radial mode has x wedge xi = 0, so this pairing is about 0; sized
    # from xi_bound 0.5 alone, the box aliased the mode and read 0.1033.
    # At xi_bound 3.0 it reads -1.4136e-4 (n = 190, a 100 s direct sum)
    symbol = {"type": "interior", "xi_bound": 0.5, "factors": [
        {"var": "radius", "window": [-0.7, -0.6, 0.6, 0.7]},
        {"var": "angular_momentum", "window": [0.2, 0.3, 0.5, 0.6]},
    ]}
    cfg = tmp_path / "measure.json"
    cfg.write_text(json.dumps({"experiments": [
        {"name": "m", "kind": "measure", "family": {"family": "laplace", "m": 0, "k": [20]},
         "symbol": symbol}]}))
    assert run_cli(["run", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
    (row,) = json.load(open(tmp_path / "out" / "m.json"))["payload"]["rows"]
    assert abs(row["re"] - -1.4136235170689835e-4) < 1e-3
