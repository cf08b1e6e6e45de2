"""Setuptools shim.

The offline environment has setuptools but no `wheel` package, so PEP-517
editable installs (which require bdist_wheel) fail.  Keeping a setup.py and
omitting [build-system] from pyproject.toml lets `pip install -e .` take the
legacy `setup.py develop` path, which works offline.
"""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="1.0.0",
    description=(
        "Cryogenic embedded-system design flow: 5-nm FinFET compact model "
        "to full RISC-V SoC at 10 K"
    ),
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    python_requires=">=3.10",
    install_requires=["numpy>=1.24", "scipy>=1.16", "networkx>=3.0"],
)
