"""The README's worked example and its list of the public library names."""

import re
import shlex
from pathlib import Path

import stabgraph
from stabgraph import cli

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()


def _section(title):
    """The text under ``## title``, up to the next level-2 heading."""
    body = README.split(f"\n## {title}\n", 1)[1]
    return body.split("\n## ", 1)[0]


def test_example_runs_as_documented(tmp_path, capsys, monkeypatch):
    script = re.search(r"```sh\n(.*?)```", _section("Example"), re.S).group(1)
    heredocs = re.findall(r"cat > (\S+) <<'EOF'\n(.*?)^EOF$", script, re.S | re.M)
    (command,) = [line for line in script.splitlines() if line.startswith("stabgraph ")]
    expected = [line[2:] for line in script.splitlines() if line.startswith("# ")]
    assert heredocs and expected
    for name, text in heredocs:
        (tmp_path / name).write_text(text)
    monkeypatch.chdir(tmp_path)
    assert cli.run(shlex.split(command)[1:]) == cli.EXIT_OK
    assert capsys.readouterr().out.splitlines() == expected


def test_library_list_is_the_public_api():
    items = re.findall(r"^- \*\*.*?\*\*(.*?)(?=^- |\n\n)", _section("Library"), re.S | re.M)
    listed = [name for item in items for name in re.findall(r"`(\w+)`", item)]
    assert len(listed) == len(set(listed))
    assert sorted(listed) == sorted(stabgraph.__all__)
