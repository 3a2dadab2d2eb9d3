"""The package namespace and the README's quick start."""

import contextlib
import io
import re
import types
from pathlib import Path

import tsdyn

README = Path(__file__).resolve().parent.parent / "README.md"


def test_all_lists_resolvable_names_and_no_modules():
    assert len(set(tsdyn.__all__)) == len(tsdyn.__all__)
    for name in tsdyn.__all__:
        assert not isinstance(getattr(tsdyn, name), types.ModuleType), name



def test_readme_quick_start_prints_what_its_comments_say():
    block = re.search(r"## Quick start\n\n```python\n(.*?)```", README.read_text(), re.S)
    code = block.group(1)
    # each print's output is the comment on its line or on the line below
    expected = [inline or below for inline, below in
                re.findall(r"^print\(.*\)(?:\s+# (.+)|\n# (.+))$", code, re.M)]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, str(README), "exec"), {})
    printed = out.getvalue().splitlines()
    assert len(printed) == len(expected) == 2
    assert printed[0] == expected[0]
    # the status and the iteration count exactly; the defect and the
    # residual sit at the roundoff floor, which the comment only abbreviates
    assert printed[1].split()[:2] == expected[1].split()[:2]
