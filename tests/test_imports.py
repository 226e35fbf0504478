"""What evaluation imports: no scipy module at all, and no import cycle."""
import ast
import json
import subprocess
import sys
from pathlib import Path

import scipy.constants

import casimir_spheres.geometry

SRC = str(Path(__file__).resolve().parent.parent / "src")
PACKAGE = Path(SRC) / "casimir_spheres"


def _imports(path):
    """(node, whether a function encloses it) of every import statement in ``path``."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    in_function = {id(node) for f in ast.walk(tree)
                   if isinstance(f, (ast.FunctionDef, ast.AsyncFunctionDef)) for node in ast.walk(f)}
    return [(node, id(node) in in_function) for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom))]


def test_models_import_nothing_from_validation():
    # validation reads the models' kernels, never the other way round
    for node, _ in _imports(PACKAGE / "models.py"):
        names = [getattr(node, "module", None) or ""] + [a.name for a in node.names]
        assert not any("validation" in name for name in names), ast.dump(node)


def test_validation_imports_at_module_level_only():
    assert [node.lineno for node, inner in _imports(PACKAGE / "validation.py") if inner] == []


def test_every_subcommand_runs_with_scipy_blocked():
    # scipy is a test extra only: with it unimportable, import and every
    # subcommand still run and exit 0
    probe = (f"import sys; sys.modules['scipy'] = None; sys.path.insert(0, {SRC!r}); "
             "import contextlib, io, json; from casimir_spheres.cli import main; "
             "runs = [['compute', '--y', '2', '--u', '0.1'], "
             "['curve', '--model', 'all', '--u', '0,0.1', '--ymin', '1', '--ymax', '4', "
             "'--points', '2', '--out', '-'], "
             "['fit', '--model', 'dvd', '--n', '1', '--points', '20'], ['validate']]\n"
             "with contextlib.redirect_stdout(io.StringIO()):\n"
             "    codes = [main(argv) for argv in runs]\n"
             "print(json.dumps(codes))")
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [0, 0, 0, 0]


def test_boltzmann_is_the_exact_si_value():
    assert casimir_spheres.geometry.Boltzmann == scipy.constants.Boltzmann
