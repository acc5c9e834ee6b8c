import re
from pathlib import Path

from jobfraud import synth

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_library_example_runs(tmp_path, monkeypatch, capsys):
    """The first Python block under "## Library" runs as written, in a
    directory that holds a 300-row postings.csv."""
    text = README.read_text(encoding="utf-8")
    section = text[text.index("## Library\n"):]
    example = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    synth.write_fixture(tmp_path / "postings.csv", n_rows=300, seed=7)
    monkeypatch.chdir(tmp_path)
    exec(compile(example, str(README), "exec"), {"__name__": "readme_example"})
    printed = capsys.readouterr().out
    for kind in ("bilstm", "gbm"):
        assert f"{kind} {{" in printed
        assert (tmp_path / f"model-{kind}" / "manifest.json").is_file()
