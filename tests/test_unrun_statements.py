"""tools/unrun_statements.py counts statements by its stated rule."""

import importlib.util
import textwrap
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "unrun_statements.py"


def _tool():
    spec = importlib.util.spec_from_file_location("unrun_statements", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_counting_rule(tmp_path):
    # definitions, docstrings and imports are not counted; a statement is
    # named by its first line and ran when one of its own lines ran; a
    # compound statement's own lines are its header's; a try also ran when
    # its first statement did
    path = tmp_path / "module.py"
    path.write_text(textwrap.dedent('''\
        """Module docstring."""
        import os


        def f(x):
            """Docstring."""
            if x:
                return (
                    os.sep)
            try:
                y = 2
            except ValueError:
                pass
            return y
        '''))
    found = _tool().statements(path)
    assert sorted(found) == [7, 8, 10, 11, 13, 14]
    assert found[7] == ("if x:", {7})
    assert found[8] == ("return (", {8, 9})
    assert found[10] == ("try:", {10, 11, 12})
    assert found[13] == ("pass", {13})


def test_traced_lines_of_the_package(tmp_path):
    tool = _tool()
    from cdl import metrics

    result, lines = tool.traced(lambda: metrics._mean([1.0, 3.0]))
    assert result == 2.0
    path = str(Path(metrics.__file__).resolve())
    body = metrics._mean.__code__.co_firstlineno + 1
    assert body in lines[path]
    assert all(p.startswith(str(tool.SRC.resolve())) for p in lines)
