"""The benchmark's traced run wraps ghzent functions by name; keep those names working.

``perfbench/tracing.py`` swaps traced wrappers in for module attributes of
``ghzent.cli`` and ``ghzent.oracle`` and for
``ClassificationReport.to_json_dict``, and its classify observer reads
``report.partitions[*].is_ppt``.  ``perfbench/workloads.py`` calls the
oracle request's functions by module path and reads the fields of
``is_ppt``'s witness.  A refactor that renames or drops one of these breaks
the benchmark, not the program, so it is checked here.
"""

import importlib
import importlib.util
import itertools
from pathlib import Path

import ghzent.analytic
import ghzent.cli
import ghzent.oracle
import ghzent.state
import ghzent.subsets
from ghzent.analytic import COEFFICIENT_NAMES, ClassificationReport
from ghzent.state import load_state
from ghzent.subsets import enumerate_bipartitions

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"

STATE = (
    '{"n":4,"convention":"canonical","weights":['
    '{"beta":"0000","plus":0.6,"minus":0.1},{"beta":"0011","plus":0.2,"minus":0.1}]}'
)


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_patched_names_resolve():
    tracing = _tracing()
    for _, module, attr in tracing.PATCHED:
        assert callable(getattr(importlib.import_module(module), attr)), (module, attr)
    assert callable(ClassificationReport.to_json_dict)
    # installed() also swaps the json module that ghzent.cli imported
    assert hasattr(ghzent.cli, "json")


def test_oracle_workload_names_resolve():
    # The names perfbench/workloads.py reads, by the paths it reads them at.
    tol = ghzent.analytic.COEFFICIENT_TOL
    assert isinstance(tol, float)
    assert isinstance(ghzent.oracle.DEFAULT_ORACLE.psd_tol, float)
    state = ghzent.state.load_state(STATE)
    partitions = ghzent.subsets.enumerate_bipartitions(state.n)
    assert [p.alpha1.bits for p in partitions] == list(range(8, 15))
    for partition in partitions:
        ppt, witness = ghzent.analytic.is_ppt(state, partition)
        assert isinstance(ppt, bool)
        assert ppt == (witness.value >= -tol)
        assert isinstance(witness.value, float)
        assert 0 <= witness.beta.bits < 1 << (state.n - 1)
        assert witness.coefficient in COEFFICIENT_NAMES
        assert isinstance(ghzent.oracle.is_ppt_dense(state, partition), bool)


def test_traced_cli_run_gives_the_same_answers(capsys):
    tracing = _tracing()
    cli_names = [attr for _, module, attr in tracing.PATCHED if module == "ghzent.cli"]
    originals = {attr: getattr(ghzent.cli, attr) for attr in cli_names}
    # The tracer swaps ghzent.cli globals; each format calls a different set of them.
    for command, fmt in itertools.product(("classify", "threshold"), ("json", "table")):
        argv = [command, "--input", STATE, "--format", fmt]
        plain_code = ghzent.cli.main(argv)
        plain = capsys.readouterr()
        tracer = tracing.Tracer()
        tracer.request = 0
        with tracing.installed(tracer):
            traced_code = ghzent.cli.main(argv)
        traced = capsys.readouterr()
        assert (traced_code, traced.out, traced.err) == (plain_code, plain.out, plain.err)
        names = {span[0] for span in tracer.spans}
        assert "state.load" in names
        if command == "classify":
            assert "analytic.classify" in names
            assert tracer.counts["analytic.partitions"] == 7
            assert tracer.counts["analytic.ppt"] == sum(
                v.is_ppt for v in ghzent.cli.classify(ghzent.cli.load_state(STATE)).partitions
            )
    for attr, fn in originals.items():
        assert getattr(ghzent.cli, attr) is fn


def test_traced_is_ppt_dense_shows_its_dense_layers():
    # is_ppt_dense must reach to_dense and partial_transpose through
    # ghzent.oracle's globals, or the traced run cannot time those layers.
    tracing = _tracing()
    state = load_state(STATE)
    partition = enumerate_bipartitions(state.n)[2]
    tracer = tracing.Tracer()
    tracer.request = 0
    with tracing.installed(tracer):
        verdict = ghzent.oracle.is_ppt_dense(state, partition)
    assert verdict == ghzent.oracle.is_ppt_dense(state, partition)
    names = sorted(span[0] for span in tracer.spans)
    assert names == ["oracle.partial_transpose", "state.to_dense"]
