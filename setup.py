"""Setuptools shim for offline editable installs (see pyproject.toml)."""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="1.0.0",
    description=(
        "Scalable QoS provision through buffer management (SIGCOMM 1998) - "
        "full reproduction"
    ),
    python_requires=">=3.10",
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    install_requires=[],
    extras_require={"test": ["numpy>=1.23", "pytest", "hypothesis"]},
)
