"""Legacy setup shim.

The environment this reproduction targets has no network access and no
``wheel`` package, so PEP 517 editable installs are unavailable;
``pip install -e . --no-use-pep517 --no-build-isolation`` (or plain
``python setup.py develop``) uses this shim instead. All metadata lives in
pyproject.toml.
"""

from setuptools import setup

setup()
