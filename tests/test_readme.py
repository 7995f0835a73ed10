"""The README's examples run as written and print what it says they print."""

import contextlib
import io
import os
import re

from ztransport import cli

README = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "README.md")


def readme_blocks(lang: str) -> list[str]:
    with open(README, encoding="utf-8") as fh:
        return re.findall(rf"^```{lang}\n(.*?)^```", fh.read(), re.S | re.M)


def test_readme_library_example():
    (code,) = readme_blocks("python")
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, README, "exec"), {})
    assert out.getvalue() == "P_{z}(y|x)\n"


def test_readme_cli_example(tmp_path, capsys):
    blocks = readme_blocks("")
    (study,) = [b for b in blocks if b.startswith("# file: study.graph\n")]
    (session,) = [b for b in blocks if b.startswith("$ ztransport run study.graph\n")]
    printed = session.splitlines()[1]
    assert printed == "P_{z}(y|x)"
    path = tmp_path / "study.graph"
    path.write_text(study)
    assert cli.main(["run", str(path)]) == 0
    assert capsys.readouterr().out == printed + "\n"
