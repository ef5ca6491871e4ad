"""The README's library sketch runs as written, and its funcsim and
pattern-ranking names exist."""

import dataclasses
import importlib
import inspect
import re
from pathlib import Path

import numpy as np

import oracles
import xbarsim
from xbarsim import funcsim, patterns
from xbarsim.funcsim import crossbar, forward

optimize = importlib.import_module("xbarsim.optimize")  # the package exports a function of that name

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_sketch_runs():
    text = README.read_text(encoding="utf-8")
    sketch = text.split("## Library sketch", 1)[1]
    block = sketch.split("```python\n", 1)[1].split("```", 1)[0]
    namespace = {}
    exec(compile(block, "README.md", "exec"), namespace)
    search, ladder = namespace["search"], namespace["ladder"]
    assert search.optimal_n_reuse == 5 and search.cost is ladder[5]
    assert namespace["result"].stats.attention_evals == 1  # encoder 1 reused


def _funcsim_paragraph():
    """The README paragraph that describes the crossbar engine's stripes."""
    (paragraph,) = [p for p in README.read_text(encoding="utf-8").split("\n\n")
                    if "`ProgrammedMatrix." in p]
    return paragraph


def test_the_funcsim_paragraph_names_only_what_the_crossbar_engine_has():
    paragraph = _funcsim_paragraph()
    matrix = crossbar.ProgrammedMatrix
    members = re.findall(r"`ProgrammedMatrix\.(\w+)`", paragraph)
    assert {"weights", "level_stripes", "stride"} <= set(members)
    fields = {field.name for field in dataclasses.fields(matrix)}
    for name in members:
        assert name in fields or hasattr(matrix, name), f"ProgrammedMatrix.{name}"
    # a bare name, a call's parentheses dropped, is a crossbar name, a
    # parameter of a crossbar call, or a funcsim or numpy.random name
    parameters = {name for call in (crossbar.program_matrix, crossbar.mvm_bitserial,
                                    crossbar.CrossbarState.read_currents)
                  for name in inspect.signature(call).parameters}
    bare = re.findall(r"`(\w+)(?:\([\w, ]*\))?`", paragraph)
    assert "first_lossy_popcount" in bare
    for name in bare:
        assert (hasattr(crossbar, name) or hasattr(crossbar.CrossbarState, name)
                or name in parameters or hasattr(funcsim, name)
                or hasattr(np.random, name)), name


def _pattern_paragraph():
    """The README paragraph that describes pattern ranking."""
    (paragraph,) = [p for p in README.read_text(encoding="utf-8").split("\n\n")
                    if p.startswith("Pattern ranking works on arrays.")]
    return paragraph


def _members(cls):
    return {field.name for field in dataclasses.fields(cls)} | set(dir(cls))


def test_the_pattern_paragraph_names_only_what_the_library_has():
    library, references = _pattern_paragraph().split("The per-family generators")
    results = re.findall(r"`result\.(\w+)", library)
    assert set(results) == {"best", "candidates", "scores"}
    assert set(results) <= _members(optimize.OptimizationResult)
    # a bare name, a call's parentheses dropped, is a pattern or optimize
    # name or a member of a pattern or result type; the paragraph also
    # names a scorer's `batch`, `model_forward` that uses `source_array`,
    # and the label of the empty set
    known = (set(dir(patterns)) | set(dir(optimize))
             | _members(patterns.PatternSet) | _members(patterns.ReusePattern)
             | _members(optimize.OptimizationResult)
             | set(dir(optimize.make_cka_scorer(optimize.synthetic_attention_outputs(4)))))
    assert forward.source_array is patterns.source_array and hasattr(funcsim, "model_forward")
    known |= {"model_forward", patterns.label(())}
    bare = re.findall(r"`(\w+)(?:\([\w, ]*\))?`", library)
    assert {"PatternSet", "ReusePattern", "validate_pattern", "batch", "none"} <= set(bare)
    for name in bare:
        assert name in known, name
    assert patterns.label((2, 5, 8)) in re.findall(r"`([\w+]+)`", library)
    # past the library names, the test-suite references: in
    # tests/oracles.py and not exported
    assert "`tests/oracles.py`" in references
    named = re.findall(r"`(\w+)`", references)
    assert {"gen_strided", "select_best", "rows_from_json"} <= set(named)
    for name in named:
        assert name in known or hasattr(oracles, name) and not hasattr(xbarsim, name), name
