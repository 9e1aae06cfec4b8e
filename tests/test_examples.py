"""The README quick start and the demos run as written, in-process."""

from __future__ import annotations

import ast
import importlib.util
import re
import shlex
import types
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def quick_start_block() -> str:
    section = README.read_text(encoding="utf-8").split("## Quick start", 1)[1]
    return section.split("```python\n", 1)[1].split("```", 1)[0]


def cli_example(command: str) -> tuple[dict[str, str], list[str], list[str]]:
    """The input files, arguments and printed lines of README's example for one subcommand.

    The example is a shell session: each `$ cat FILE` line is followed by the
    file's text, and the `$ pdtcoord COMMAND` line by what the command prints.
    """
    section = README.read_text(encoding="utf-8").split(f"### {command}\n", 1)[1]
    lines = section.split("```\n", 1)[1].split("```", 1)[0].replace("\\\n", " ").splitlines()
    assert lines[0].startswith("$ ")
    files: dict[str, list[str]] = {}
    argv: list[str] = []
    shown: list[str] = []
    for line in lines:
        if line.startswith("$ cat "):
            body = files.setdefault(line[len("$ cat "):], [])
        elif line.startswith("$ pdtcoord "):
            argv, body = shlex.split(line[len("$ pdtcoord "):]), shown
        else:
            body.append(line)
    assert argv[0] == command
    return {name: "\n".join(text) + "\n" for name, text in files.items()}, argv, shown


def test_package_root_exports_the_quick_start():
    import pdtcoord

    public = {
        name
        for name, value in vars(pdtcoord).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert public == {"DecodeConfig", "SynthSpec", "run_parallel", "synthesize_artifact"}
    assert pdtcoord.__version__


def test_every_public_definition_has_a_caller_outside_tests():
    package = sorted((ROOT / "src" / "pdtcoord").glob("*.py"))
    benchmark = [p for p in sorted((ROOT / "perfbench").glob("*.py")) if not p.name.startswith("test_")]
    defined = {
        node.name
        for path in package
        for node in ast.parse(path.read_text(encoding="utf-8")).body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")
    }
    referred = set()
    for path in package + DEMOS + benchmark:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                referred.add(node.id)
            elif isinstance(node, ast.Attribute):
                referred.add(node.attr)
    # load_bus_lines reads back what NotesBus.dump_lines writes; the trace reader is to call it.
    assert defined - referred == {"load_bus_lines"}


def test_readme_quick_start_prints_what_it_says(capsys):
    block = quick_start_block()
    exec(compile(block, str(README), "exec"), {"__name__": "quick_start"})
    summary, digest = capsys.readouterr().out.splitlines()
    # The block's comment gives the start of the SUMMARY line.
    promised = re.search(r"# (SUMMARY .*?) \.\.\.", block).group(1)
    assert summary.startswith(promised + " ")
    # The replay example in the README decodes the same artifact and config.
    assert re.fullmatch(r"[0-9a-f]{16}", digest)
    assert f"trace_hash: {digest}..." in README.read_text(encoding="utf-8")


@pytest.mark.parametrize("path", DEMOS, ids=[p.stem for p in DEMOS])
def test_demo_main_runs(path, capsys):
    spec = importlib.util.spec_from_file_location(f"demo_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    module.main()
    assert capsys.readouterr().out.strip()


@pytest.mark.parametrize("command", ["synth", "replay", "clustered-sim", "memcalc", "sweep", "balance"])
def test_readme_cli_example_prints_what_it_says(command, tmp_path, monkeypatch, capsys):
    from pdtcoord.cli import main

    monkeypatch.chdir(tmp_path)
    # replay and sweep read the artifact that the synth example writes.
    if command in ("replay", "sweep"):
        assert main(cli_example("synth")[1]) == 0
        capsys.readouterr()
    files, argv, shown = cli_example(command)
    for name, text in files.items():
        (tmp_path / name).write_text(text, encoding="utf-8")
    assert main(argv) == 0
    printed = capsys.readouterr().out.splitlines()
    # A last line of "..." stands for the rest of a longer output.
    if shown[-1] == "...":
        shown = shown[:-1]
        assert len(printed) > len(shown)
        printed = printed[: len(shown)]
    assert len(printed) == len(shown)
    for got, want in zip(printed, shown):
        # The README cuts long values (trace hashes) short with "...".
        if want.endswith("..."):
            got = got[: len(want) - 3] + "..."
        assert got == want
