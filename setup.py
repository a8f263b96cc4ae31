"""Build script for domkit._core, the C twin of domkit._core_py.

optional=True turns a failed compile into a warning; domkit then runs the
pure-Python kernel.
"""

from setuptools import Extension, setup

setup(
    ext_modules=[
        Extension("domkit._core", ["src/domkit/_core.c"], extra_compile_args=["-O3"], optional=True)
    ]
)
