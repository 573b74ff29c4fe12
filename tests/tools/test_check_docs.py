"""Tests: the documentation smoke checker (tools/check_docs.py).

The checker is a repo-root script, not a package module, so it is loaded
by path here.  These tests pin the three contracts CI relies on: run/skip
selection of fenced blocks, flag verification against the real argparse
parsers, and local-link checking.
"""

import importlib.util
import pathlib
import sys

import pytest

REPO_ROOT = pathlib.Path(__file__).resolve().parents[2]


@pytest.fixture(scope="module")
def cd():
    spec = importlib.util.spec_from_file_location(
        "check_docs", REPO_ROOT / "tools" / "check_docs.py"
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules["check_docs"] = module
    spec.loader.exec_module(module)
    return module


DOC = """\
# Title

<!-- docs-check: run -->
```bash
echo hello
```

<!-- docs-check: skip -->
```python
raise RuntimeError("never executed")
```

```python
print(2 + 2)
```

```python
partial = ...
```

```console
$ python -m repro.tools.scenario --protocol olsr
output line, not a command
```
"""


class TestExtraction:
    def test_blocks_langs_and_directives(self, cd, tmp_path):
        path = tmp_path / "doc.md"
        blocks = cd.extract_blocks(path, DOC)
        assert [b.lang for b in blocks] == ["bash", "python", "python", "python",
                                            "console"]
        assert [b.directive for b in blocks] == ["run", "skip", None, None, None]

    def test_directive_does_not_leak_past_text(self, cd, tmp_path):
        text = "<!-- docs-check: run -->\nsome prose\n```bash\nfalse\n```\n"
        (block,) = cd.extract_blocks(tmp_path / "d.md", text)
        assert block.directive is None

    def test_should_run_policy(self, cd, tmp_path):
        blocks = cd.extract_blocks(tmp_path / "doc.md", DOC)
        assert [cd.should_run(b) for b in blocks] == [
            True,   # bash marked run
            False,  # python marked skip
            True,   # unmarked python auto-runs
            False,  # python with ... placeholder
            False,  # console never auto-runs
        ]

    def test_console_command_lines_strip_prompt_and_output(self, cd, tmp_path):
        block = cd.extract_blocks(tmp_path / "doc.md", DOC)[-1]
        assert list(cd.iter_command_lines(block)) == [
            "python -m repro.tools.scenario --protocol olsr"
        ]

    def test_backslash_continuations_joined(self, cd, tmp_path):
        text = "```bash\npython -m repro.tools.campaign \\\n  --workers 8\n```\n"
        (block,) = cd.extract_blocks(tmp_path / "d.md", text)
        assert list(cd.iter_command_lines(block)) == [
            "python -m repro.tools.campaign --workers 8"
        ]


class TestFlagCheck:
    def test_real_flags_pass(self, cd):
        parsers = cd._known_parsers()
        line = ("PYTHONPATH=src python -m repro.tools.campaign "
                "--spec examples/campaign_smoke.toml --workers 8 --fresh")
        assert cd.check_flags_in_line(line, parsers) == []

    def test_invented_flag_fails(self, cd):
        parsers = cd._known_parsers()
        errors = cd.check_flags_in_line(
            "python -m repro.tools.scenario --turbo-mode", parsers
        )
        assert errors and "--turbo-mode" in errors[0]

    def test_flag_with_value_attached(self, cd):
        parsers = cd._known_parsers()
        assert cd.check_flags_in_line(
            "manetkit-scenario --protocol=olsr", parsers
        ) == []

    def test_unknown_command_is_ignored(self, cd):
        parsers = cd._known_parsers()
        assert cd.check_flags_in_line("cargo build --release", parsers) == []

    def test_script_path_spelling(self, cd):
        parsers = cd._known_parsers()
        assert cd.check_flags_in_line(
            "python tools/check_docs.py --no-exec", parsers
        ) == []
        errors = cd.check_flags_in_line(
            "python tools/check_docs.py --blorp", parsers
        )
        assert errors


class TestEndToEnd:
    def _write(self, tmp_path, text):
        path = tmp_path / "doc.md"
        path.write_text(text)
        return path

    def test_good_doc_passes(self, cd, tmp_path, capsys):
        path = self._write(
            tmp_path,
            "see [spec](spec.toml)\n\n```python\nprint('ok')\n```\n",
        )
        (tmp_path / "spec.toml").write_text("")
        assert cd.main([str(path)]) == 0
        assert "1 block(s) executed" in capsys.readouterr().out

    def test_failing_block_fails(self, cd, tmp_path, capsys):
        path = self._write(tmp_path, "```python\nraise SystemExit(3)\n```\n")
        assert cd.main([str(path)]) == 1
        capsys.readouterr()

    def test_broken_link_fails(self, cd, tmp_path, capsys):
        path = self._write(tmp_path, "[gone](missing.md)\n")
        assert cd.main([str(path)]) == 1
        assert "broken link" in capsys.readouterr().err

    def test_http_and_anchor_links_ignored(self, cd, tmp_path, capsys):
        path = self._write(
            tmp_path, "[a](https://example.com/x) [b](#section)\n"
        )
        assert cd.main([str(path)]) == 0
        capsys.readouterr()

    def test_no_exec_skips_execution_but_checks_flags(self, cd, tmp_path, capsys):
        path = self._write(
            tmp_path,
            "```python\nraise SystemExit(1)\n```\n\n"
            "```bash\npython -m repro.tools.scenario --nope\n```\n",
        )
        assert cd.main([str(path), "--no-exec"]) == 1
        err = capsys.readouterr().err
        assert "--nope" in err and "block exited" not in err

    def test_missing_file_is_usage_error(self, cd, tmp_path, capsys):
        assert cd.main([str(tmp_path / "nope.md")]) == 2
        capsys.readouterr()

    def test_list_mode(self, cd, tmp_path, capsys):
        path = self._write(tmp_path, DOC)
        assert cd.main([str(path), "--list"]) == 0
        out = capsys.readouterr().out
        assert "run" in out and "skip" in out
