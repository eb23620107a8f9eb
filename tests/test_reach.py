"""The reach guard: every function defined in src/bicharlab is run by the
program, or is kept in KEPT_FUNCTIONS with its reason and a test that runs it.

The program is what tests/reach.py runs under a profiler: the acceptance
criteria and `bicharlab run` on the seed-0 benchmark workloads and on
@smoke.  A function neither runs is code no claim checks, and is deleted.
"""

import importlib
import inspect
import json
import os
import subprocess
import sys
import types
from pathlib import Path

import pytest

import bicharlab
from reach import ident

# the identity of a function needs co_qualname and co_positions
pytestmark = pytest.mark.skipif(sys.version_info < (3, 11), reason="needs Python 3.11")

PACKAGE = Path(bicharlab.__file__).parent
COMPREHENSIONS = {"<listcomp>", "<setcomp>", "<dictcomp>", "<genexpr>"}

REASONS = {"entry point", "behaviour", "geometry", "deployment", "refusal", "interface"}

# the functions the program does not run, each with why it stays and a
# test that runs it, as test_module::test_name.  An entry point serves a
# probe subcommand; a behaviour is a computation a config or a trace can
# ask for (a negative time, mode fields, the momentum-factor pairing route,
# pinned survivors, a symbol without a spatial factor, a zero-length trace);
# geometry is a chart the program does not trace (annulus circles, chart
# files, model charts and their Dormand-Prince solve); deployment says
# where a run writes; a refusal reports input the program never gives; an
# interface is the abstract chart's part of the chart protocol.  Any other
# function nothing runs is deleted
KEPT_FUNCTIONS = {
    **{f"cli.{key}": ("entry point", f"test_cli::{test}") for key, test in (
        ("cmd_probe", "test_probe_writes_the_artifacts_of_its_config"),
        ("<lambda>#1", "test_classify_subcommand_prints_label"),
        ("_print_classify", "test_classify_subcommand_prints_label"),
        ("<lambda>#2", "test_trace_subcommand_reports_reflections"),
        ("_print_trace", "test_trace_subcommand_reports_reflections"),
        ("_given", "test_trace_subcommand_reports_reflections"),
        ("_comma_list.<locals>.parse+3", "test_trace_subcommand_reports_reflections"),
        ("<lambda>#3", "test_mode_subcommand_prints_residuals"),
        ("_print_mode", "test_mode_subcommand_prints_residuals"),
        ("<lambda>#4", "test_parametrix_subcommand_writes_csv"),
        ("_print_parametrix", "test_parametrix_subcommand_writes_csv"),
        ("_flag", "test_adhoc_usage_error_exits_two"),
    )},
    "cli._default_out": ("deployment", "test_cli::test_out_env_var_is_the_default_root"),
    **{f"config.{key}": ("refusal", "test_cli::test_invalid_config_exits_two") for key in (
        "ConfigError.__init__", "_path_str", "_spoiled", "_schema_errors.<locals>.<lambda>+3")},
    **{f"charts.CollarChart.{key}": ("interface", "test_charts::test_base_chart_has_no_bracket_fallback")
       for key in ("_jet_values", "_bracket")},
    # negative times
    **{f"flow.GeneralizedRay._time_reversed{key}": ("behaviour", "test_flow::test_negative_time_is_involution")
       for key in ("", ".<locals>.rev_seg+1", ".<locals>.rev_seg.<locals>.ev+1")},
    "flow._Tracer.run.<locals>.<lambda>+25": ("behaviour", "test_flow::test_zero_time_trace"),
    "io.write_field_grid": ("behaviour", "test_cli::test_mode_experiment_writes_field_grid"),
    "config._build_interior.<locals>.<lambda>+24": (
        "behaviour", "test_verify::test_property_invariant_is_a_factor_of_the_symbol"),
    # the momentum-factor pairing route, and the survivors a tangential contact pins
    **{key: ("behaviour", "test_verify::test_invariance_gap_pullback_conserved_symbol") for key in (
        "verify.TransportedSymbol.eval", "verify._survivors", "verify.invariance_gap.<locals>.<lambda>+38",
        "quantize._Fiber.__call__")},
    "verify.TransportedSymbol._doubtful": (
        "behaviour", "test_verify::test_transport_marks_doubtful_tangential_contacts"),
    # annulus circles, chart files and model charts
    "charts.AnnulusChart.other_component": ("geometry", "test_flow::test_diffractive_tangency_annulus"),
    "flow._kick": ("geometry", "test_flow::test_diffractive_tangency_annulus"),
    "charts._chart_from_dict": ("geometry", "test_charts::test_load_chart"),
    **{key: ("geometry", "test_flow::test_model_glide_release") for key in (
        "charts.ModelChart._jet_values", "charts.ModelChart.r1", "flow._glide_field",
        "flow._glide_field.<locals>.f+5", "flow._Tracer.run_glide.<locals>.<lambda>+19")},
    **{f"flow.{key}": ("geometry", "test_flow::test_state_inside_a_restart_gap_reads_the_nearest_segment")
       for key in (
           "_solve_collar", "_solve_collar.<locals>.<lambda>+57",
           "_solve_collar.<locals>.<lambda>.<locals>.<lambda>+0", "<lambda>#1", "<lambda>#2",
           "_collar_field", "_collar_field.<locals>.f+5", "_initial_step", "_rms_scaled", "_dp_step",
           "_dense", "_brent", "_CollarPath.__init__", "_CollarPath.__call__")},
    "flow._Tracer.run_glide.<locals>.<lambda>+7": (
        "geometry", "test_flow::test_glide_starting_with_positive_r1_releases_at_once"),
    "flow._Tracer.run_collar.<locals>.<lambda>+41": (
        "geometry", "test_flow::test_dip_below_the_boundary_inside_one_step_reflects_at_the_first_crossing"),
}


def defined_functions() -> dict:
    """{identity: key} of every function, method, lambda and nested function
    of the package, compiled from its source.

    A function's key is its module and qualified name.  A function nested in
    another adds its line offset from the innermost enclosing function, so
    edits elsewhere in the file keep it; a lambda outside any function adds
    its ordinal among those of its module.
    """
    found = {}
    for path in sorted(PACKAGE.glob("*.py")):
        ordinal = 0

        def walk(code, outer):
            nonlocal ordinal
            for inner in code.co_consts:
                if not isinstance(inner, types.CodeType):
                    continue
                if inner.co_name in COMPREHENSIONS or not inner.co_flags & inspect.CO_OPTIMIZED:
                    # a comprehension or a class body: its functions belong to `outer`
                    walk(inner, outer)
                    continue
                key = f"{path.stem}.{inner.co_qualname}"
                if outer is not None:
                    key += f"+{inner.co_firstlineno - outer.co_firstlineno}"
                elif inner.co_name == "<lambda>":
                    ordinal += 1
                    key += f"#{ordinal}"
                found[json.dumps(ident(inner))] = key
                walk(inner, inner)

        walk(compile(path.read_text(), str(path), "exec"), None)
    return found


def test_every_function_is_run_by_the_program_or_kept(tmp_path):
    paths = [str(PACKAGE.parent), *filter(None, [os.environ.get("PYTHONPATH")])]
    run = subprocess.run(
        [sys.executable, str(Path(__file__).with_name("reach.py")), str(tmp_path)],
        cwd=Path(__file__).resolve().parents[1], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(paths)},
    )
    assert run.returncode == 0, run.stderr[-2000:]
    defined = defined_functions()
    assert len(set(defined.values())) == len(defined)
    doc = json.loads((tmp_path / "reached.json").read_text())
    reached = {defined.get(json.dumps(r)) for r in doc["reached"]}
    unreached = set(defined.values()) - reached
    # a criterion or run that failed reached less: its exit code says so
    assert sorted(unreached - set(KEPT_FUNCTIONS)) == [], doc["exit codes"]
    # and a kept function the program runs needs no row
    assert sorted(set(KEPT_FUNCTIONS) - unreached) == [], doc["exit codes"]


def test_every_kept_function_has_a_reason_and_a_test():
    for key, (reason, test) in KEPT_FUNCTIONS.items():
        assert reason in REASONS, key
        module, name = test.split("::")
        assert callable(getattr(importlib.import_module(module), name, None)), (key, test)
