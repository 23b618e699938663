"""Build script. Everything is declared in ``pyproject.toml``; this file
remains for ``setup.py develop`` installs."""

from setuptools import setup

setup()
