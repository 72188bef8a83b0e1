"""The README's code blocks run as written."""

import math
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def _python_blocks(section):
    text = README.read_text()
    body = text[text.index(f"## {section}\n"):]
    body = body[: body.index("\n## ", 1)]
    return re.findall(r"```python\n(.*?)```", body, re.S)


def test_custom_conformal_chart_example(capsys):
    # the declared Poincare disk: R >= -1 passes, and the geodesic from the
    # origin at unit speed follows tanh(t / 2)
    (block,) = _python_blocks("Custom charts")
    namespace = {}
    exec(compile(block, str(README), "exec"), namespace)
    assert namespace["disk"].conformal is not None
    assert namespace["report"].passed
    assert abs(namespace["traj"].final_state[0] - math.tanh(0.5)) <= 1e-9
    assert capsys.readouterr().out.startswith("True ")


def test_custom_chart_without_block_jet_takes_taylor_route(monkeypatch, capsys):
    # the disk declares no block jet: its curvature forms come from the
    # Taylor jet of its phi
    from semigeo import charts

    calls = []
    taylor = charts._taylor

    def counted(fn, X, what):
        calls.append(what)
        return taylor(fn, X, what)

    monkeypatch.setattr(charts, "_taylor", counted)
    (block,) = _python_blocks("Custom charts")
    namespace = {}
    exec(compile(block, str(README), "exec"), namespace)
    assert namespace["disk"].conformal.block_jet is None
    assert namespace["report"].passed
    assert calls and set(calls) == {"phi of chart 'poincare_disk'"}
