"""Bare setuptools shim.

The repository has no pyproject.toml, and this call passes no
metadata. Run the package from source with ``PYTHONPATH=src``, as the
tests and the CI workflow do.
"""

from setuptools import setup

setup()
