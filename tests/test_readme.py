"""The README's library sketch runs as written, and its funcsim names exist."""

import dataclasses
import inspect
import re
from pathlib import Path

import numpy as np

from xbarsim import funcsim
from xbarsim.funcsim import crossbar

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
    assert "identity_rows" in bare
    for name in bare:
        assert (hasattr(crossbar, name) or hasattr(crossbar.CrossbarState, name)
                or name in parameters or hasattr(funcsim, name)
                or hasattr(np.random, name)), name
