"""README's examples run as written: its JSON spec through the command
line (as `main` and as `oracle`) and its Python API block; its command-line
block names the subcommands the parser has; and every module-qualified name
it cites exists."""

import argparse
import contextlib
import importlib
import io
import json
import re
from pathlib import Path

import pytest

from spherelink.cli import _build_parser, main

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()


def _block(lang: str) -> str:
    blocks = re.findall(rf"```{lang}\n(.*?)```", README, re.DOTALL)
    assert len(blocks) == 1, f"README should hold one {lang} block"
    return blocks[0]


@pytest.mark.parametrize("method", ["main", "oracle"])
def test_json_spec_runs(tmp_path, capsys, method):
    spec = json.loads(_block("json"))
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(dict(spec, method=method)))
    code = main(["link", str(path), "--stable"])
    report = json.loads(capsys.readouterr().out)["report"]
    assert code == 0
    assert report["linking_number"] == 3


def test_python_api_block_runs():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(_block("python"), "README.md", "exec"), {})
    # a (2, 3) torus curve winds twice around the core circle of its first block
    nearest, residual, error, oracle_value = out.getvalue().split()
    assert int(nearest) == 2
    assert float(residual) < 1e-9 and float(error) < 1e-9
    assert abs(float(oracle_value) - 2) < 1e-6


def test_command_line_block_matches_parser():
    # the usage block after "## Command line", one "spherelink <command>" per line
    section = README.split("## Command line", 1)[1]
    block = re.search(r"```\n(.*?)```", section, re.DOTALL).group(1)
    named = {line.split()[1] for line in block.splitlines() if line.startswith("spherelink ")}
    parser = _build_parser()
    (sub,) = (a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    assert named == set(sub.choices)


# a backticked name qualified by a module of the package, with or without
# the `spherelink.` prefix: `spherelink.engine.sign_factor`, `engine._level_sum`
_QUALIFIED = re.compile(r"`(?:spherelink\.)?((?:catalog|cli|engine|kernels|oracle|quadrature"
                        r"|spheregeom)(?:\.\w+)*)`")


def test_qualified_names_resolve():
    # docs that still cite a deleted or renamed name fail here
    names = set(_QUALIFIED.findall(README))
    assert {"quadrature", "engine._level_sum", "engine.sign_factor"} <= names
    missing = []
    for dotted in sorted(names):
        module, *attrs = dotted.split(".")
        obj = importlib.import_module(f"spherelink.{module}")
        for name in attrs:
            obj = getattr(obj, name, None)
        if obj is None:
            missing.append(dotted)
    assert missing == []
