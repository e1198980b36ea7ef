"""Package metadata for ``repro``; the only build file in this repository.

The execution environment has no ``wheel`` package, so PEP-517 editable
installs cannot build; ``pip install -e .`` falls back to the classic
``setup.py develop`` path through this file.  The version is read from
``src/repro/__init__.py``, so it is stated once.
"""

import re
from pathlib import Path

from setuptools import find_packages, setup

_INIT = Path(__file__).parent / "src" / "repro" / "__init__.py"
VERSION = re.search(
    r'^__version__ = "([^"]+)"', _INIT.read_text(), re.MULTILINE
).group(1)

setup(
    name="repro",
    version=VERSION,
    package_dir={"": "src"},
    packages=find_packages("src"),
    # The service bounds request reads with asyncio.timeout (3.11+).
    python_requires=">=3.11",
)
