"""Package metadata and install entry point for tegkit.

There is deliberately no ``pyproject.toml``: a build-system table would
make ``pip install -e .`` build in an isolated environment that
downloads setuptools, which fails on offline machines.  The version is
read from ``src/repro/_about.py`` as text, so building never imports
the package.
"""

import re
from pathlib import Path

from setuptools import find_packages, setup

_ABOUT = Path(__file__).resolve().parent / "src" / "repro" / "_about.py"
_VERSION = re.search(
    r'^__version__ = "([^"]+)"$', _ABOUT.read_text(), re.MULTILINE
).group(1)

setup(
    name="tegkit",
    version=_VERSION,
    package_dir={"": "src"},
    packages=find_packages("src"),
    install_requires=["numpy"],
)
