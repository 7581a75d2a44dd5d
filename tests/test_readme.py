"""README's standalone diversity snippet runs as written and climbs."""

import re
from pathlib import Path

import numpy as np

import phasic

README = Path(__file__).resolve().parents[1] / "README.md"


def _library_use_blocks():
    section = README.read_text().split("## Library use", 1)[1].split("\n## ", 1)[0]
    return re.findall(r"```python\n(.*?)```", section, flags=re.S)


def test_standalone_diversity_snippet_climbs(monkeypatch):
    # the snippet imports diversity_ascent from phasic; record each trace it returns
    real, traces = phasic.diversity_ascent, []

    def recording(*args, **kwargs):
        out, trace = real(*args, **kwargs)
        traces.append((kwargs.get("metric", "w2"), trace))
        return out, trace

    monkeypatch.setattr(phasic, "diversity_ascent", recording)
    # the block continues the first one, which imports numpy
    exec(compile("import numpy as np\n" + _library_use_blocks()[1], str(README), "exec"), {})
    assert [metric for metric, _ in traces] == ["w2", "jsd"]
    for _, trace in traces:
        assert len(trace) == 21
        assert np.all(np.diff(trace) >= 0.0)
