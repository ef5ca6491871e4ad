"""The README's library sketch runs as written."""

from pathlib import Path

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
