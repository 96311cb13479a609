"""The package and the commands that draw no segmentation start without scipy,
every lazily exported name is its submodule's object, and no module imports a
name it never uses."""

import ast
import importlib
import json
import subprocess
import sys
from pathlib import Path

import pytest

import finspect

SOURCE_ROOT = str(Path(finspect.__file__).resolve().parents[1])


def _fuse_args(directory: Path) -> list[str]:
    profile, templates = directory / "profile.json", directory / "templates.json"
    profile.write_text(json.dumps([[0.7, 0.3], [0.4, 0.6]]))
    templates.write_text(json.dumps({"matrices": [[[0.8, 0.2], [0.6, 0.4]],
                                                  [[0.3, 0.7], [0.2, 0.8]]],
                                     "counts": [1, 1]}))
    return ["fuse", "--profile", str(profile), "--templates", str(templates),
            "--output", str(directory / "support.json")]


def _synth_args(directory: Path) -> list[str]:
    return ["synth", "--out-dir", str(directory / "corpus"), "--kinds", "disk,triangle",
            "--count", "1", "--canvas", "32", "--seed", "3"]


@pytest.mark.parametrize("case", ["import finspect", "import finspect.cli", "synth", "fuse"])
def test_no_scipy_module_is_loaded(tmp_path, case):
    if case in ("synth", "fuse"):
        args = (_synth_args if case == "synth" else _fuse_args)(tmp_path)
        case = f"from finspect.cli import main; assert main({args!r}) == 0"
    code = (f"import sys; sys.path.insert(0, {SOURCE_ROOT!r}); {case}; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip().splitlines()[-1] == "[]"


def test_every_export_is_its_submodule_attribute():
    for name in finspect.__all__:
        owner = importlib.import_module(f"finspect.{finspect._EXPORTS[name]}")
        assert getattr(finspect, name) is getattr(owner, name), name
    assert set(finspect.__all__) <= set(dir(finspect))


def test_an_export_follows_a_patched_submodule(monkeypatch):
    from finspect import gknn
    replacement = object()
    monkeypatch.setattr(gknn, "gknn_classify", replacement)
    assert finspect.gknn_classify is replacement


def test_a_submodule_is_an_attribute_after_a_bare_import():
    code = (f"import sys; sys.path.insert(0, {SOURCE_ROOT!r}); import finspect; "
            "print(finspect.pipeline.__name__, 'finspect.fusion' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["finspect.pipeline", "True"]


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        finspect.no_such_name
    with pytest.raises(ImportError):
        exec("from finspect import no_such_name", {})


def unused_imports(source: str) -> list[str]:
    """The names a module's imports bind and no expression of it reads."""
    tree = ast.parse(source)
    bound = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound |= {alias.asname or alias.name.partition(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound |= {alias.asname or alias.name for alias in node.names}
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(bound - read)


def test_unused_imports_are_found():
    source = "import json\nimport numpy as np\nfrom pathlib import Path\nx = np.ones(2)\n"
    assert unused_imports(source) == ["Path", "json"]


def test_no_module_imports_a_name_it_never_uses():
    package = Path(finspect.__file__).parent
    unused = {str(path.relative_to(package)): names
              for path in sorted(package.rglob("*.py")) if path.name != "__init__.py"
              for names in [unused_imports(path.read_text())] if names}
    assert unused == {}
