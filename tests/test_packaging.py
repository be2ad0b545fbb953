"""Packaging: every C source the native library compiles ships."""

import fnmatch
import tomllib
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_c_sources_are_package_data():
    config = tomllib.loads((ROOT / "pyproject.toml").read_text())
    package_data = config["tool"]["setuptools"]["package-data"]
    src = ROOT / "src"
    sources = sorted((src / "repro").rglob("*.c"))
    assert {p.name for p in sources} >= {"_kernel.c", "_codegen.c"}
    for path in sources:
        package = ".".join(path.parent.relative_to(src).parts)
        globs = package_data.get(package, []) + package_data.get("*", [])
        assert any(fnmatch.fnmatch(path.name, g) for g in globs), \
            f"{path.relative_to(ROOT)} is not package data"
