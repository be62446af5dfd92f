"""Setup shim so the package installs offline with `pip install -e .`.

The environment has no network access and no `wheel` package, so PEP 517
editable builds cannot produce a wheel; the classic ``setup.py develop``
path used by pip's legacy editable install works with plain setuptools.
All project metadata lives here; the version is read from
``src/repro/__init__.py`` so it has one source.  The library has no
runtime dependencies; development tools are in requirements-dev.txt.
"""

import re
from pathlib import Path

from setuptools import find_packages, setup

INIT = Path(__file__).resolve().parent / "src" / "repro" / "__init__.py"
VERSION = re.search(r'^__version__ = "([^"]+)"', INIT.read_text(), re.MULTILINE).group(1)

setup(
    name="repro",
    version=VERSION,
    description=(
        "Declarative processing for computer games: SGL scripts compiled to "
        "set-at-a-time relational plans over a state-effect tick engine"
    ),
    package_dir={"": "src"},
    packages=find_packages("src"),
    python_requires=">=3.10",
)
