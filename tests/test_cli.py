import argparse
import ast
import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import jsonschema
import numpy as np
import pytest

import bicharlab.cli as cli
from bicharlab import config
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


def test_validation_names_tol_g():
    bad = {
        "experiments": [
            {"name": "c", "kind": "classify", "points": [[0.0, 0.5]], "tol_g": -1}
        ]
    }
    errs = validate_config(bad)
    assert len(errs) == 1 and "tol_g" in errs[0]
    with pytest.raises(ConfigError, match="tol_g"):
        load_config(bad)


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
                "family": {"family": "laplace", "m": 2, "k": 1, "num_r": 3},
            },
        ],
    }
    errs = "\n".join(validate_config(bad))
    assert "experiments[5].family.num_r: need num_r > 6.5 for lam = 5.136, got 3" in errs
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
    assert a.terms is not None
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
    assert a.terms is None
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
NO_CALLER_YET = {
    "verify.PropagationReport.from_dict": "the planned `check` command, which recomputes"
    " each verdict from the stored report, is its program caller",
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
    root = Path(__file__).resolve().parents[1]
    digests = []
    for width in ("1", "2"):
        env = dict(os.environ, PYTHONPATH=str(root / "src"), OPENBLAS_NUM_THREADS=width)
        out = tmp_path / f"out{width}"
        proc = subprocess.run(
            [sys.executable, "-m", "bicharlab.cli", "run", "--config", str(cfg),
             "--out", str(out), "--jobs", width],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr
        digests.append(tree_digest(out))
    assert len(digests[0]) == 5  # two CSV/JSON pairs and summary.json
    assert digests[0] == digests[1]


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
ORDER_ONE_CHART = {"kind": "disk", "max_derivative_order": 1}
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
        ({"experiments": [dict(classify, tol_g=-1)]}, "tol_g"),
        ({"experiments": [{"name": "p", "kind": "parametrix", "m": [12, 12]}]},
         "experiments[0].m"),
        ({"chart": {"kind": "annulus"}, "experiments": [classify]}, "chart: "),
        ({"chart": {"kind": "annulus", "rho_in": 2}, "experiments": [classify]}, "chart: "),
        ({"chart": str(no_radius), "experiments": [classify]}, "chart: "),
        ({"experiments": [{"name": "m", "kind": "mode", "family": {
            "family": "laplace", "m": 2, "k": 1, "num_r": 3}}]},
         "experiments[0].family.num_r"),
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
        ({"chart": str(zero_collar), "experiments": [classify]},
         "chart: collar width must be positive"),
        ({"chart": INT_TERM_CHART, "experiments": [classify]},
         "chart: bad term 5: need (pow_z1, pow_zeta1, pow_y, coeff)"),
        ({"chart": MODEL_CHART, "experiments": [trace]},
         "experiments[0].start: a model chart has no ambient embedding"),
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
        ({"experiments": [{"name": "p", "kind": "parametrix", "m": [12],
                           "halving_band": ["a", "b"]}]},
         "experiments[0].halving_band[0]: 'a' is not of type 'number'"),
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
            "family": "laplace", "m": 2.0, "k": 1, "num_r": 40}}]},
         "experiments[0].family.m: 2.0 is not valid under any of the given schemas"),
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


# each passed validation and then ended as a run-time error (exit 1), or
# ran with a key its computation ignores
@pytest.mark.parametrize(
    "raw, named",
    [
        (pairing_config("car", COLLAR),
         "experiments[0].symbol.type: car experiments need interior symbols"),
        (pairing_config("elliptic", INTERIOR),
         "experiments[0].symbol.type: elliptic experiments need tangential symbols"),
        (pairing_config("invariance", COLLAR, time=0.1), "experiments[0].symbol.type"),
        (pairing_config("invariance", SPINNING, time=0.1), "experiments[0].symbol.factors"),
        (pairing_config("invariance", SPINNING, time=0.1, route="free"),
         "experiments[0].symbol.factors"),
        (pairing_config("support", COLLAR, time=0.1, husimi={"nx": 8}),
         "experiments[0].husimi"),
        (pairing_config("support", INTERIOR, time=0.1, glancing_sign=-1),
         "experiments[0].glancing_sign"),
        (pairing_config("car", dict(INTERIOR, factors=[
            INTERIOR["factors"][0], {"var": "speed_sq", "window": [0.35, 0.35, 0.75, 0.8]},
        ])), "experiments[0].symbol.factors[1].window: window ramps must be at least 1e-09"),
        (pairing_config("measure", dict(INTERIOR, factors=[
            INTERIOR["factors"][0], {"var": "speed", "window": [0.6, 0.8, 1.2, 1.2 + 1e-12]},
        ])), "experiments[0].symbol.factors[1].window: window ramps"),
        (pairing_config("elliptic", dict(COLLAR, xip_window=[1.15, 1.15, 3.5, 3.9])),
         "experiments[0].symbol.xip_window: window ramps"),
    ],
)
def test_kind_symbol_and_window_rules_exit_two(raw, named, tmp_path, capsys):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps(raw))
    code = run_cli(["run", "--config", str(cfg), "--out", str(tmp_path / "out")])
    assert code == 2
    err = capsys.readouterr().err
    assert named in err and "Traceback" not in err
    assert not (tmp_path / "out" / "summary.json").exists()


def test_pullback_invariance_and_arc_symbols_pass_the_kind_rules(tmp_path):
    pullback = pairing_config("invariance", SPINNING, time=0.1, route="pullback")
    assert validate_config(pullback) == []
    # an arc is a factor of x alone, so the free route takes this symbol
    arc = dict(INTERIOR, arc={"center": 0.0, "inner": 0.5, "outer": 1.0})
    cfg = tmp_path / "arc.json"
    cfg.write_text(json.dumps(pairing_config("invariance", arc, time=0.15)))
    assert run_cli(["run", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
    assert summary_of(tmp_path / "out")["experiments"][0]["summary"]["verdict"] == "pass"


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


# (probe argv, refused flag, equivalent config); no config where argparse
# cannot convert the text to numbers, which no JSON config can hold
PROBE_REFUSALS = [
    (["trace", "--start", "a,b,c,d", "--time", "1"], "--start", None),
    (["parametrix", "--m", "0", "--orders", "0"], "--m",
     probe_config("parametrix", m=[0], orders=[0])),
    (["parametrix", "--m", "12,x"], "--m", None),
    (["mode", "--family", "laplace", "--m", "-1", "--k", "1"], "--m", laplace(m=-1)),
    (["mode", "--family", "stokes", "--m", "3", "--k", "0"], "--k",
     probe_config("mode", family={"family": "stokes", "m": 3, "k": 0})),
    (["classify", "--xp", "0", "--xip", "1", "--tol-g", "0"], "--tol-g",
     probe_config("classify", **COVECTOR, tol_g=0.0)),
    (["mode", "--family", "laplace", "--m", "2", "--k", "1", "--num-r", "3"], "--num-r",
     laplace(num_r=3)),
    (["mode", "--family", "laplace", "--m", "2", "--k", "1", "--num-theta", "6"],
     "--num-theta", laplace(num_theta=6)),
    (["parametrix", "--m", "12", "--delta0", "-1"], "--delta0",
     probe_config("parametrix", m=[12], delta0=-1.0)),
    (["parametrix", "--m", "12", "--eps0", "1.5"], "--eps0",
     probe_config("parametrix", m=[12], eps0=1.5)),
    (["classify", "--chart", "annulus:2", "--xp", "0", "--xip", "1"], "--chart",
     probe_config("classify", "annulus:2", **COVECTOR)),
    (["classify", "--chart", "nosuch", "--xp", "0", "--xip", "1"], "--chart",
     probe_config("classify", "nosuch", **COVECTOR)),
    (["trace", "--start", "0,0,1,0", "--time", "1", "--samples", "0", "--out", "D"],
     "--samples", probe_config("trace", **ORIGIN_RAY, samples=0)),
    (["trace", "--start", "0,0,1,0", "--time", "0"], "--time",
     probe_config("trace", **dict(ORIGIN_RAY, time=0.0))),
    (["trace", "--start", "0,0,1,0", "--time", "nan"], "--time",
     probe_config("trace", **dict(ORIGIN_RAY, time=float("nan")))),
    (["classify", "--chart", "no-radius.json", "--xp", "0", "--xip", "1"], "--chart",
     probe_config("classify", "no-radius.json", **COVECTOR)),
    (["classify", "--xp", "0", "--xip", "inf"], "--xip",
     probe_config("classify", points=[[0.0, float("inf")]])),
    (["classify", "--xp", "nan", "--xip", "1"], "--xp",
     probe_config("classify", points=[[float("nan"), 1.0]])),
    (["classify", "--chart", "nan-coeff.json", "--xp", "0", "--xip", "1"], "--chart",
     probe_config("classify", "nan-coeff.json", **COVECTOR)),
    (["classify", "--chart", "half-power.json", "--xp", "0", "--xip", "1"], "--chart",
     probe_config("classify", "half-power.json", **COVECTOR)),
    (["classify", "--chart", "misspelt.json", "--xp", "0", "--xip", "1"], "--chart",
     probe_config("classify", "misspelt.json", **COVECTOR)),
    (["classify", "--chart", "order-one.json", "--xp", "0", "--xip", "1"], "--chart",
     probe_config("classify", "order-one.json", **COVECTOR)),
    (["classify", "--chart", "zero-collar.json", "--xp", "0", "--xip", "1"], "--chart",
     probe_config("classify", "zero-collar.json", **COVECTOR)),
    (["classify", "--chart", "int-term.json", "--xp", "0", "--xip", "1"], "--chart",
     probe_config("classify", "int-term.json", **COVECTOR)),
    (["trace", "--chart", "model.json", "--start", "0,0,1,0", "--time", "1"], "--start",
     probe_config("trace", "model.json", **ORIGIN_RAY)),
    (["parametrix", "--m", "12", "--delta0", "2"], "--delta0",
     probe_config("parametrix", m=[12], delta0=2.0)),
    (["trace", "--start", "2,0,1,0", "--time", "1"], "--start",
     probe_config("trace", **dict(ORIGIN_RAY, start=[2.0, 0.0, 1.0, 0.0]))),
    (["trace", "--chart", "annulus:0.5", "--start", "0.2,0,1,0", "--time", "1"], "--start",
     probe_config("trace", "annulus:0.5", **dict(ORIGIN_RAY, start=[0.2, 0.0, 1.0, 0.0]))),
]


@pytest.mark.parametrize(
    "argv, flag, config",
    [pytest.param(*case, id=f"argv{i}-{case[1]}") for i, case in enumerate(PROBE_REFUSALS)],
)
def test_adhoc_usage_error_exits_two(argv, flag, config, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    for name, chart in [
        ("no-radius", {"kind": "annulus"}), ("nan-coeff", NAN_CHART),
        ("half-power", HALF_POWER_CHART), ("misspelt", MISSPELT_CHART),
        ("order-one", ORDER_ONE_CHART), ("zero-collar", ZERO_COLLAR_CHART),
        ("int-term", INT_TERM_CHART), ("model", MODEL_CHART),
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
    # each optional key's default lives in the signature of the function
    # that takes it; spelling it out must give the same rows and payloads
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
        dict(bare[0], route="free"),
        dict(bare[1], glancing_sign=1),
        dict(bare[2], variant="interior"),
    ]
    outs = []
    for label, exps in (("bare", bare), ("spelt", spelt)):
        cfg = tmp_path / f"{label}.json"
        cfg.write_text(json.dumps({"experiments": exps}))
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


def test_out_env_var_is_the_default_root(tmp_path, monkeypatch):
    monkeypatch.setenv(cli.OUT_ENV, str(tmp_path / "envroot"))
    cfg = tmp_path / "e.json"
    cfg.write_text(json.dumps({"experiments": []}))
    assert run_cli(["run", "--config", str(cfg)]) == 0
    assert (tmp_path / "envroot" / "summary.json").exists()


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
                        "tolerances": {"momentum": 1e-6, "divergence": 1e-8},
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


def test_parametrix_subcommand_writes_csv(tmp_path, capsys):
    code = run_cli(
        ["parametrix", "--m", "12,24", "--orders", "0", "--out", str(tmp_path)]
    )
    assert code == 0
    text = (tmp_path / "parametrix.csv").read_text()
    assert text.count("\n") >= 4  # meta block, header, two rows
    assert "order,m,h,error" in text
